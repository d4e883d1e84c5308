"""Execute one JobSpec into a JSON result document (worker-side).

``execute_job`` is the module-level function the worker pool runs, and
the one the CLI run verbs (``repro jacobi|cg|latency|bandwidth``) call
in-process: it resolves the spec's app, drives its launcher, and returns
the result document the store persists. Everything in the
document is deterministic for a given spec — the simulation runs on a
virtual clock and the report serializes with canonical digests — which
is what makes cached results bit-identical to fresh runs.
"""

from __future__ import annotations

import hashlib
from importlib import import_module
from typing import Any, Dict, Iterable

import numpy as np

from .jobspec import JobSpec
from .store import RESULT_SCHEMA

__all__ = ["execute_job", "jacobi_config", "launch_kwargs", "load_apps",
           "solution_digest"]


def load_apps(apps: Iterable[str]) -> None:
    """Import the packages the named apps run on.

    ``JobService`` calls this before it forks its workers, so a batch
    imports an app (and scipy behind ``cg``) once, in the parent, not once
    per worker and again per respawn; a batch that never names an app
    never pays for it.
    """
    for app in apps:
        import_module(_APPS[app][0])


def execute_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job (payload: ``JobSpec.to_dict()``); returns the result doc.

    The document::

        {"schema": "repro.serve.result/1", "status": "done",
         "job": <canonical spec>, "config_hash": ..., "summary": {...},
         "report": RunReport.to_dict()}

    Deliberately excludes wall-clock time and timestamps: the parent
    stamps those on the *envelope* it stores, keeping this body — the
    part the bit-identity contract covers — free of nondeterminism.
    """
    spec = JobSpec.from_dict(spec_dict)
    report, summary = _APPS[spec.app][1](spec)
    return {
        "schema": RESULT_SCHEMA,
        "status": "done",
        "job": spec.to_dict(),
        "config_hash": spec.config_hash(),
        "summary": summary,
        "report": report.to_dict(),
    }


def launch_kwargs(spec: JobSpec) -> Dict[str, Any]:
    """The ``launch()`` run options a spec names."""
    return dict(
        machine=spec.machine,
        fault_plan=spec.fault_spec,
        fault_seed=spec.fault_seed,
        obs=spec.obs,
        sanitize="race" if spec.sanitize else None,
        coll=spec.coll,
        capture=spec.capture,
    )


def solution_digest(array: np.ndarray) -> str:
    """The ``summary["solution_sha256"]`` of a solution array."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def jacobi_config(spec: JobSpec):
    """The ``JacobiConfig`` a jacobi spec runs (``repro report`` runs it too)."""
    from ..apps.jacobi import JacobiConfig

    return JacobiConfig(nx=spec.size, ny=spec.size + 2, iters=spec.iters,
                        warmup=max(1, spec.iters // 10))


def _run_jacobi(spec: JobSpec):
    from ..apps import jacobi

    cfg = jacobi_config(spec)
    report = jacobi.launch_variant(spec.variant(), cfg, spec.ranks,
                                   collect=spec.collect, **launch_kwargs(spec))
    survivors = [r for r in report if r is not None]
    summary: Dict[str, Any] = {
        "time_per_iter_s": max(r.time_per_iter for r in survivors),
        "survivors": len(survivors),
        "virtual_time_s": report.stats.get("virtual_time"),
    }
    if spec.collect:
        summary["solution_sha256"] = solution_digest(jacobi.assemble(cfg, survivors))
    return report, summary


def _run_cg(spec: JobSpec):
    from ..apps import cg

    cfg = cg.CgConfig(n=spec.size, nnz_per_row=min(33, max(3, spec.size // 16)),
                      iters=spec.iters, seed=spec.seed or 7)
    problem = cg.make_problem(cfg)
    report = cg.launch_variant(spec.variant(), cfg, spec.ranks, problem=problem,
                               collect=True, **launch_kwargs(spec))
    survivors = [r for r in report if r is not None]
    x = cg.assemble_x(survivors, cfg.n)
    residual = cg.final_residual(problem, x) / float(np.linalg.norm(problem.b))
    summary: Dict[str, Any] = {
        "time_per_iter_s": max(r.time_per_iter for r in survivors),
        "survivors": len(survivors),
        "relative_residual": residual,
        "virtual_time_s": report.stats.get("virtual_time"),
    }
    if spec.collect:
        summary["solution_sha256"] = solution_digest(x)
    return report, summary


def _osu_sizes(spec: JobSpec):
    sizes = [8]
    while sizes[-1] < spec.size:
        sizes.append(sizes[-1] * 16)
    sizes[-1] = spec.size
    return tuple(dict.fromkeys(sizes))


def _run_osu(spec: JobSpec, kind: str):
    from ..apps.osu import OsuConfig, run_bandwidth, run_latency
    from ..launcher import RunReport

    cfg = OsuConfig(sizes=_osu_sizes(spec), iters_small=spec.iters,
                    warmup_small=max(1, spec.iters // 10),
                    iters_large=max(2, spec.iters // 4), warmup_large=1,
                    repeats=1)
    run = run_latency if kind == "latency" else run_bandwidth
    # The OSU benches always use two GPUs; ranks=4 (JobSpec allows 2 or 4)
    # asks for the inter-node placement, two GPUs on two nodes.
    res = run(spec.variant(), cfg, machine=spec.machine,
              inter_node=spec.ranks == 4)
    report = RunReport()
    unit = "seconds" if kind == "latency" else "bytes_per_s"
    summary = {unit: {str(size): res[size] for size in cfg.sizes}}
    return report, summary


def _run_latency(spec: JobSpec):
    return _run_osu(spec, "latency")


def _run_bandwidth(spec: JobSpec):
    return _run_osu(spec, "bandwidth")


#: App (``repro.options.APPS``) -> (the package its runner drives,
#: imported on first use; the runner).
_APPS = {
    "jacobi": ("repro.apps.jacobi", _run_jacobi),
    "cg": ("repro.apps.cg", _run_cg),
    "latency": ("repro.apps.osu", _run_latency),
    "bandwidth": ("repro.apps.osu", _run_bandwidth),
}
