"""Chaos sweep: seeded fault matrices against the elastic applications.

Sweeps fault specs x backends x apps (42 scenarios by default) through the
elastic Jacobi and CG variants and asserts the recovery runtime's core
contract (ISSUE: "Elastic recovery runtime"):

- **zero hangs** — every scenario terminates: a healthy result, a
  recovered result, or a *cleanly surfaced* error (the engine's deadlock
  detector and the plan's watchdog convert would-be hangs into typed
  exceptions carrying the fault spec and seed);
- **determinism** — every scenario runs twice and must produce a bitwise
  identical outcome fingerprint (assembled solution bytes + final group
  size + recovery counts, or the surfaced error type);
- **correctness after recovery** — Jacobi results are compared *bitwise*
  against the serial reference (the 5-point update is order-independent,
  so shrinking must not change a single bit); CG results must hit the
  solver's residual tolerance.

Usage::

    python -m benchmarks.chaos_sweep            # full 42-scenario matrix
    python -m benchmarks.chaos_sweep --smoke    # CI lane: 6 scenarios with
                                                # exact expected outcomes
    python -m benchmarks.chaos_sweep --json out.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.apps import cg as cg_app
from repro.apps import jacobi as jacobi_app
from repro.errors import (
    CommRevokedError,
    DeadlockError,
    FaultInjectionError,
    GpucclError,
    GpushmemError,
    MpiTimeoutError,
    SimTimeoutError,
    UniconnError,
)
from repro.serve import WorkerPool

BACKENDS = ("mpi", "gpuccl", "gpushmem")

#: Errors that count as *cleanly surfaced* (anything else is a harness bug).
SURFACED = (
    FaultInjectionError,
    MpiTimeoutError,
    GpucclError,
    GpushmemError,
    SimTimeoutError,
    DeadlockError,
    CommRevokedError,
    UniconnError,
)

#: The fault matrix. Every spec arms the watchdog so a hang anywhere
#: becomes a typed, recoverable timeout instead of a stuck simulation.
SPECS = [
    ("crash1", "crash,rank=1,at=1e-4;watchdog,timeout=5e-3"),
    ("crash2", "crash,rank=1,at=1e-4;crash,rank=3,at=2.5e-4;watchdog,timeout=5e-3"),
    ("dropstorm", "drop,p=0.8,start=5e-5,end=2.5e-4;retry,base=2e-5,max=3;watchdog,timeout=5e-3"),
    ("corruptstorm", "corrupt,p=0.6,start=5e-5,end=2.5e-4;watchdog,timeout=5e-3"),
    ("linkdown", "down,link=nvlink[1->2],start=5e-5,end=4e-3;watchdog,timeout=2e-3"),
    ("straggler", "straggler,gpu=2,factor=6;watchdog,timeout=5e-2"),
    # Permanent outage: no survivable schedule exists, so the contract is a
    # *cleanly surfaced* error once the recovery budget is spent — never a
    # hang. (The ? wildcard stands in for the literal bracket of the link
    # name; "nvlink[2->*]" would bracket-class the 2.)
    ("nicdead", "down,link=nvlink?2->*,start=5e-5;watchdog,timeout=2e-3"),
]


@dataclass(frozen=True)
class Scenario:
    name: str  # "<app>/<backend>/<fault>"
    app: str  # "jacobi" | "cg"
    backend: str
    spec: str
    seed: int
    nranks: int = 4


def scenarios() -> List[Scenario]:
    # The shared matrix expander (benchmarks/_common.py -> repro.serve)
    # reproduces the original nested-loop order exactly — app outermost,
    # then fault, then backend — so every seeded scenario keeps its seed.
    from benchmarks._common import expand_matrix

    fault_by_name = dict(SPECS)
    out = []
    for seed, point in enumerate(
        expand_matrix({
            "app": ["jacobi", "cg"],
            "fault": [name for name, _ in SPECS],
            "backend": list(BACKENDS),
        }),
        start=101,
    ):
        out.append(Scenario(
            name=f"{point['app']}/{point['backend']}/{point['fault']}",
            app=point["app"], backend=point["backend"],
            spec=fault_by_name[point["fault"]], seed=seed,
        ))
    return out


def _jacobi_cfg() -> jacobi_app.JacobiConfig:
    return jacobi_app.JacobiConfig(nx=32, ny=34, iters=24, warmup=4)


def _cg_setup() -> Tuple[cg_app.CgConfig, cg_app.CgProblem]:
    cfg = cg_app.CgConfig(n=512, nnz_per_row=9, iters=20, seed=7)
    return cfg, cg_app.make_problem(cfg)


def run_scenario_twice(payload: dict) -> Tuple[dict, dict]:
    """Worker-pool entry: one scenario's determinism pair (module-level so
    it pickles; each worker rebuilds the deterministic CG problem)."""
    sc = Scenario(**payload)
    problem = _cg_setup() if sc.app == "cg" else None
    return run_scenario(sc, problem), run_scenario(sc, problem)


def run_scenario(sc: Scenario, cg_problem=None) -> dict:
    """Run one scenario once. Returns outcome + a bitwise fingerprint."""
    try:
        if sc.app == "jacobi":
            cfg = _jacobi_cfg()
            report = jacobi_app.launch_variant(
                f"elastic:{sc.backend}", cfg, sc.nranks, collect=True,
                fault_plan=sc.spec, fault_seed=sc.seed,
            )
            survivors = [r for r in report if r is not None]
            grid = jacobi_app.assemble(cfg, survivors)
            ref = jacobi_app.serial_jacobi(cfg, iters=cfg.warmup + cfg.iters)
            correct = bool(np.array_equal(grid, ref))
            payload = grid.tobytes()
        else:
            cfg, problem = cg_problem or _cg_setup()
            report = cg_app.launch_variant(
                f"elastic:{sc.backend}", cfg, sc.nranks, problem=problem,
                collect=True, fault_plan=sc.spec, fault_seed=sc.seed,
            )
            survivors = [r for r in report if r is not None]
            x = cg_app.assemble_x(survivors, cfg.n)
            residual = cg_app.final_residual(problem, x)
            correct = bool(residual < 1e-4)
            payload = x.tobytes()
        restarts = sum(getattr(r, "restarts", 0) for r in survivors)
        lost = sc.nranks - len(survivors)
        outcome = "recovered" if (lost or restarts) else "clean"
        digest = hashlib.sha256(payload).hexdigest()[:16]
        return {
            "outcome": outcome,
            "correct": correct,
            "survivors": len(survivors),
            "final_group": survivors[0].nranks,
            "fingerprint": f"{outcome}:{lost}:{restarts}:{digest}",
        }
    except SURFACED as exc:
        return {
            "outcome": f"error:{type(exc).__name__}",
            "correct": True,  # a surfaced error is an acceptable ending
            "survivors": 0,
            "final_group": 0,
            "fingerprint": f"error:{type(exc).__name__}",
        }


#: --smoke subset: exact expected outcomes, pinned so a regression in the
#: recovery runtime fails CI loudly instead of shifting a statistic.
SMOKE = {
    "jacobi/mpi/crash1": ("recovered", 3),
    "jacobi/gpushmem/crash1": ("recovered", 3),
    "jacobi/mpi/dropstorm": ("recovered", 4),
    "cg/gpuccl/crash1": ("recovered", 3),
    "cg/gpushmem/crash2": ("recovered", 2),
    "cg/mpi/straggler": ("clean", 4),
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="run the pinned CI subset with exact expected outcomes")
    ap.add_argument("--json", metavar="PATH", help="write results as JSON")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes of the repro.serve pool the "
                         "scenarios run in (default 1)")
    args = ap.parse_args(argv)

    all_scenarios = scenarios()
    if args.smoke:
        all_scenarios = [sc for sc in all_scenarios if sc.name in SMOKE]
        missing = set(SMOKE) - {sc.name for sc in all_scenarios}
        assert not missing, f"smoke scenarios missing from the matrix: {missing}"

    # One path for every --jobs value: scenario outcomes are deterministic,
    # so the worker count never shows in the results, and a scenario that
    # somehow hard-kills its worker fails alone.
    pool = WorkerPool(run_scenario_twice, jobs=args.jobs)
    outcomes = pool.run([dataclasses.asdict(sc) for sc in all_scenarios],
                        job_ids=[sc.name for sc in all_scenarios])
    pairs = []
    for outcome in outcomes:
        if outcome.ok:
            pairs.append(outcome.result)
        else:
            err = {"outcome": f"error:pool:{outcome.kind}",
                   "correct": False, "survivors": 0, "final_group": 0,
                   "fingerprint": f"pool:{outcome.error}"}
            pairs.append((err, err))

    rows = []
    failures = []
    for sc, (first, second) in zip(all_scenarios, pairs):
        row = {"scenario": sc.name, "spec": sc.spec, "seed": sc.seed, **first}
        if first["fingerprint"] != second["fingerprint"]:
            failures.append(f"{sc.name}: nondeterministic "
                            f"({first['fingerprint']} != {second['fingerprint']})")
        if not first["correct"]:
            failures.append(f"{sc.name}: wrong answer after recovery")
        if args.smoke:
            want_outcome, want_group = SMOKE[sc.name]
            if (first["outcome"], first["final_group"]) != (want_outcome, want_group):
                failures.append(
                    f"{sc.name}: expected {want_outcome}/group={want_group}, "
                    f"got {first['outcome']}/group={first['final_group']}"
                )
        rows.append(row)
        print(f"{sc.name:32s} {first['outcome']:24s} "
              f"group={first['final_group']} fp={first['fingerprint']}")

    n_err = sum(1 for r in rows if r["outcome"].startswith("error:"))
    n_rec = sum(1 for r in rows if r["outcome"] == "recovered")
    print(f"\n{len(rows)} scenarios: "
          f"{sum(1 for r in rows if r['outcome'] == 'clean')} clean, "
          f"{n_rec} recovered, {n_err} surfaced errors, 0 hangs")
    if not args.smoke and n_rec + n_err < 10:
        failures.append(
            f"fault matrix exercised recovery in only {n_rec + n_err} "
            f"scenarios — faults are landing after the runs finish"
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    if failures:
        print("\nFAILURES:")
        for f in failures:
            print(" -", f)
        return 1
    print("chaos sweep PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
