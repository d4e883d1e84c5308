"""The seven workloads: what one pass runs, what it counts, what it checks.

Every function here runs inside a forked pass child (see ``harness``) and
drives the program only through its public surface: ``execute_job``, the app
``launch_variant``s, ``run_collective``, ``CollTuner``, the obs analysis and
``python -m repro submit``. ``host_s`` covers the job list alone; digests,
residuals and document comparisons are checked after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.apps import cg, jacobi
from repro.apps.osu import OsuConfig, run_collective
from repro.coll import CollPolicy, CollTuner
from repro.obs import (SCHEMA_NAME, SCHEMA_VERSION, analyze_records,
                       validate_report)
from repro.serve import (JobService, JobSpec, ResultStore, execute_job,
                         expand_matrix, parse_sweep)
from repro.serve.store import RESULT_SCHEMA
from repro.sim import Tracer

from .gen import MAX_COLL_BUFFER_BYTES
from .harness import program_env
from .spans import SpanRecorder

__all__ = ["WORKLOADS", "COUNT_NAMES", "Pass"]

#: Exact counts every pass reports (0 where the layer is idle); they must be
#: bit-equal from pass to pass.
COUNT_NAMES = (
    "sim.timers_fired", "sim.switches", "sim.inline_resumes", "sim.wakeups",
    "sim.capture.events_replayed", "sim.capture.iterations_skipped",
    "sim.capture.bailouts",
    "backends.mpi.messages", "backends.mpi.bytes",
    "backends.gpuccl.messages", "backends.gpuccl.collectives",
    "backends.gpushmem.puts", "backends.gpushmem.signal_waits",
    "core.uniconn_calls",
    "hardware.link_busy_s", "hardware.link_queue_delay_s",
    "coll.selections", "obs.trace_records", "sanitize.races",
    "serve.jobs_executed", "serve.cache_hits", "serve.cache_misses",
    "serve.retries", "serve.worker_respawns", "serve.store_bytes",
)

_COUNTER_SERIES = {
    "mpi_messages_total": "backends.mpi.messages",
    "mpi_bytes_total": "backends.mpi.bytes",
    "gpuccl_messages_total": "backends.gpuccl.messages",
    "gpuccl_collectives_total": "backends.gpuccl.collectives",
    "shmem_puts_total": "backends.gpushmem.puts",
    "shmem_signal_waits_total": "backends.gpushmem.signal_waits",
    "uniconn_calls_total": "core.uniconn_calls",
    "link_busy_seconds_total": "hardware.link_busy_s",
    "coll_selected_total": "coll.selections",
}
_STATS_KEYS = {"timers_fired": "sim.timers_fired", "switches": "sim.switches",
               "inline_resumes": "sim.inline_resumes", "wakeups": "sim.wakeups"}


class Pass:
    """Accumulates one pass: jobs, failures, checks, counts, per-job times."""

    def __init__(self, rec: Optional[SpanRecorder]) -> None:
        self.rec = rec
        self.sim_time_s = 0.0
        self.jobs = 0
        self.checks = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = dict.fromkeys(COUNT_NAMES, 0)
        self.info: Dict[str, Any] = {}
        self._t0 = time.perf_counter()
        self.host_s: Optional[float] = None

    def stop_clock(self) -> None:
        self.host_s = time.perf_counter() - self._t0

    def span(self, name: str, job: Optional[str] = None):
        """A recorded span in a traced pass, nothing otherwise."""
        return nullcontext() if self.rec is None else self.rec.span(name, job=job)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def add_report(self, stats: Dict[str, Any], metrics: Dict[str, Any]) -> None:
        """Fold one run's ``RunReport.stats`` / ``metrics.as_dict()`` in."""
        for key, name in _STATS_KEYS.items():
            self.counts[name] += stats.get(key, 0)
        cap = stats.get("capture") or {}
        self.counts["sim.capture.events_replayed"] += cap.get("events_replayed", 0)
        self.counts["sim.capture.iterations_skipped"] += cap.get("iterations_skipped", 0)
        self.counts["sim.capture.bailouts"] += sum((cap.get("bailouts") or {}).values())
        self.info["replay_host_s"] = (self.info.get("replay_host_s", 0.0)
                                      + cap.get("replay_host_seconds", 0.0))
        for series, value in metrics.get("counters", {}).items():
            name = _COUNTER_SERIES.get(series.split("{", 1)[0])
            if name is not None:
                self.counts[name] += value
        for series, hist in metrics.get("histograms", {}).items():
            if series.startswith("link_queue_delay_seconds"):
                self.counts["hardware.link_queue_delay_s"] += hist["sum"]

    def result(self) -> Dict[str, Any]:
        out = {"host_s": self.host_s, "sim_time_s": self.sim_time_s,
               "jobs": self.jobs, "checks": self.checks,
               "failures": self.failures, "counts": self.counts,
               "info": self.info}
        if self.rec is not None:
            out["spans"] = self.rec.spans
        return out


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def jacobi_cfg(spec: JobSpec) -> jacobi.JacobiConfig:
    return jacobi.JacobiConfig(nx=spec.size, ny=spec.size + 2, iters=spec.iters,
                               warmup=max(1, spec.iters // 10))


def _launch_kwargs(spec: JobSpec) -> Dict[str, Any]:
    return dict(machine=spec.machine, fault_plan=spec.fault_spec,
                fault_seed=spec.fault_seed, obs=spec.obs,
                sanitize="race" if spec.sanitize else None, coll=spec.coll,
                capture=spec.capture)


def traced_job(spec: JobSpec, rec: SpanRecorder) -> Dict[str, Any]:
    """``execute_job`` rebuilt from the public pieces the runner uses, one
    span per piece. ``--self-test`` asserts it yields the runner's document."""
    label = spec.describe()
    with rec.span("serve.execute_job", job=label):
        with rec.span("serve.config_hash", job=label):
            config_hash = spec.config_hash()
        kwargs = _launch_kwargs(spec)
        if spec.app == "jacobi":
            cfg = jacobi_cfg(spec)
            with rec.span("apps.jacobi.launch_variant", job=label):
                report = jacobi.launch_variant(spec.variant(), cfg, spec.ranks,
                                               collect=spec.collect, **kwargs)
            with rec.span("apps.jacobi.summary", job=label):
                summary = {
                    "time_per_iter_s": max(r.time_per_iter for r in report),
                    "survivors": len(report),
                    "virtual_time_s": report.stats.get("virtual_time"),
                }
                if spec.collect:
                    summary["solution_sha256"] = _digest(jacobi.assemble(cfg, report))
        else:
            cfg = cg.CgConfig(n=spec.size, nnz_per_row=min(33, max(3, spec.size // 16)),
                              iters=spec.iters, seed=spec.seed or 7)
            with rec.span("apps.cg.make_problem", job=label):
                problem = cg.make_problem(cfg)
            with rec.span("apps.cg.launch_variant", job=label):
                report = cg.launch_variant(spec.variant(), cfg, spec.ranks,
                                           problem=problem, collect=True, **kwargs)
            with rec.span("apps.cg.summary", job=label):
                x = cg.assemble_x(report, cfg.n)
                residual = cg.final_residual(problem, x) / float(np.linalg.norm(problem.b))
                summary = {
                    "time_per_iter_s": max(r.time_per_iter for r in report),
                    "survivors": len(report),
                    "relative_residual": residual,
                    "virtual_time_s": report.stats.get("virtual_time"),
                }
                if spec.collect:
                    summary["solution_sha256"] = _digest(x)
        with rec.span("launcher.to_dict", job=label):
            body = report.to_dict()
    return {"schema": RESULT_SCHEMA, "status": "done", "job": spec.to_dict(),
            "config_hash": config_hash, "summary": summary, "report": body}


def _run_specs(p: Pass, jobs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute a job list the way a ``--jobs 1`` worker would; per-job host
    seconds land in ``p.info['job_host_s']``."""
    docs, walls = [], []
    for job in jobs:
        t0 = time.perf_counter()
        if p.rec is None:
            docs.append(execute_job(job))
        else:
            docs.append(traced_job(JobSpec.from_dict(job), p.rec))
        walls.append(time.perf_counter() - t0)
    p.info["job_host_s"] = walls
    return docs


def _fold_docs(p: Pass, docs: List[Dict[str, Any]], simulated: bool = True) -> None:
    """Fold result documents into the pass; ``simulated=False`` for cache
    hits, which simulate nothing: their counters are history."""
    p.jobs += len(docs)
    for doc in docs:
        if doc.get("status") != "done":
            p.failures.append(f"job {doc.get('config_hash', '?')[:12]} "
                              f"{doc.get('status')}: {doc.get('error')}")
            continue
        p.sim_time_s += doc["summary"]["virtual_time_s"]
        if simulated:
            p.add_report(doc["report"]["stats"], doc["report"]["metrics"])
            p.info["rank_iters"] = (p.info.get("rank_iters", 0)
                                    + doc["job"]["ranks"] * doc["job"]["iters"])


# --------------------------------------------------------------------- #
# jacobi_live / jacobi_replay / cg_solve: execute_job on a fixed job list.
# --------------------------------------------------------------------- #


def _serial_digests(jobs: List[Dict[str, Any]]) -> Dict[int, str]:
    """Reference solution digest per iteration count (set-up side)."""
    out: Dict[int, str] = {}
    for job in jobs:
        if job["iters"] not in out:
            cfg = jacobi_cfg(JobSpec.from_dict(job))
            out[job["iters"]] = _digest(
                jacobi.serial_jacobi(cfg, iters=cfg.warmup + cfg.iters))
    return out


def prepare_jacobi(inputs: Dict[str, Any], tmp: str) -> Dict[str, Any]:
    return {"digests": _serial_digests(inputs["jobs"])}


def _check_jacobi_digests(p: Pass, docs, state) -> None:
    by_iters: Dict[int, set] = {}
    for doc in docs:
        got = doc["summary"].get("solution_sha256")
        iters = doc["job"]["iters"]
        by_iters.setdefault(iters, set()).add(got)
        p.check(got == state["digests"][iters],
                f"{doc['job']['backend']} solution differs from serial_jacobi")
    p.check(all(len(v) == 1 for v in by_iters.values()),
            "solution digests differ across backends at equal iterations")


def run_jacobi_live(inputs, state, p: Pass) -> None:
    docs = _run_specs(p, inputs["jobs"])
    p.stop_clock()
    _fold_docs(p, docs)
    _check_jacobi_digests(p, docs, state)


def run_jacobi_replay(inputs, state, p: Pass) -> None:
    docs = _run_specs(p, inputs["jobs"])
    p.stop_clock()
    _fold_docs(p, docs)
    # No digest check here: at this commit a replayed run's collected grid
    # differs from serial_jacobi (README.md, "Known defect"), so the jobs do
    # not collect. Replay must still happen, and account for every timer.
    for doc in docs:
        cap = doc["report"]["stats"]["capture"]
        p.check(cap.get("replays", 0) >= 1,
                f"{doc['job']['backend']}: capture never replayed ({cap.get('disabled')})")
    # The traced run re-runs one job with capture off and checks that live +
    # replayed timers add up to the capture-off count (layers.capture_diff).


def prepare_none(inputs: Dict[str, Any], tmp: str) -> Dict[str, Any]:
    return {}


def run_cg_solve(inputs, state, p: Pass) -> None:
    docs = _run_specs(p, inputs["jobs"])
    p.stop_clock()
    _fold_docs(p, docs)
    for doc in docs:
        res = doc["summary"]["relative_residual"]
        p.check(res <= 1e-10, f"cg {doc['job']['backend']} residual {res:.3e} > 1e-10")


# --------------------------------------------------------------------- #
# coll_sweep: OSU collective sweeps under coll="auto" plus one table build.
# --------------------------------------------------------------------- #


class CountingPolicy(CollPolicy):
    """``CollPolicy.auto()`` that counts ``select`` calls and remembers the
    engine it was consulted from, so the sweep's scheduler and metric
    counters can be read although ``run_collective`` returns only times."""

    def __init__(self) -> None:
        super().__init__(mode="auto")
        self.calls = 0
        self.engine = None

    def select(self, backend, kind, nbytes, topo, engine=None):
        self.calls += 1
        if engine is not None:
            self.engine = engine
        return super().select(backend, kind, nbytes, topo, engine=engine)


def osu_config(sizes) -> OsuConfig:
    return OsuConfig(sizes=tuple(sizes), iters_small=1, warmup_small=1,
                     iters_large=1, warmup_large=1, repeats=1)


def check_coll_buffers(sweep: Dict[str, Any]) -> None:
    per_rank = max(sweep["sizes"])
    if sweep["kind"] in ("all_gather", "reduce_scatter"):
        per_rank *= sweep["gpus"]
    if per_rank > MAX_COLL_BUFFER_BYTES:
        raise ValueError(
            f"{sweep['backend']} {sweep['kind']} at {sweep['gpus']} GPUs and "
            f"{max(sweep['sizes'])} B needs {per_rank} B per rank "
            f"(cap {MAX_COLL_BUFFER_BYTES}); refusing to allocate")


def run_coll_sweep(inputs, state, p: Pass) -> None:
    runs = []
    walls = []
    for sweep in inputs["sweeps"]:
        check_coll_buffers(sweep)
        label = f"{sweep['backend']} {sweep['kind']} x{sweep['gpus']}"
        policy = CountingPolicy()
        t0 = time.perf_counter()
        with p.span("apps.osu.run_collective", job=label):
            times = run_collective(sweep["backend"], sweep["kind"],
                                   osu_config(sweep["sizes"]),
                                   gpus=sweep["gpus"], coll=policy)
        walls.append(time.perf_counter() - t0)
        runs.append((label, sweep, policy, times))
    with p.span("coll.build_table", job=f"x{inputs['table_gpus']}"):
        table = CollTuner("perlmutter", inputs["table_gpus"]).build_table()
    p.stop_clock()
    p.info["job_host_s"] = walls
    p.jobs = len(runs) + 1
    for label, sweep, policy, times in runs:
        p.sim_time_s += sum(times[size] for size in sweep["sizes"])
        p.check(all(math.isfinite(t) and t > 0 for t in times.values())
                and sorted(times) == sorted(sweep["sizes"]),
                f"{label}: sweep times not finite/complete: {times}")
        selected = 0.0
        if policy.engine is not None:
            p.add_report(policy.engine.stats.as_dict(), policy.engine.metrics.as_dict())
            selected = policy.engine.metrics.counter_total("coll_selected_total")
        p.check(selected > 0 and policy.calls == selected,
                f"{label}: coll_selected_total={selected} for {policy.calls} select calls")
    p.check(bool(table.to_doc()["entries"]), "build_table produced no entries")


# --------------------------------------------------------------------- #
# jacobi_checked: what `repro report --sanitize --trace-out --metrics-out`
# does, through the same public calls.
# --------------------------------------------------------------------- #


def _report_job(spec: JobSpec, out_dir: str, index: int):
    """One `repro report` equivalent; returns (RunReport, document, number
    of trace records, JacobiConfig)."""
    cfg = jacobi_cfg(spec)
    tracer = Tracer()
    trace_path = os.path.join(out_dir, f"trace-{index}.json")
    report = jacobi.launch_variant(spec.variant(), cfg, spec.ranks,
                                   machine=spec.machine, tracer=tracer,
                                   obs="spans", trace_out=trace_path,
                                   sanitize="race", collect=spec.collect)
    analysis = analyze_records(tracer.records, n_ranks=spec.ranks,
                               total_time=report.stats.get("virtual_time"))
    doc = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
    doc.update(analysis.as_dict())
    doc["metrics"] = report.metrics.as_dict()
    doc["stats"] = {k: v for k, v in report.stats.items()
                    if k not in ("faults", "races")}
    doc["faults"] = []
    doc["races"] = [r.as_dict() for r in report.races]
    with open(os.path.join(out_dir, f"report-{index}.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report, doc, len(tracer.records), cfg


def run_jacobi_checked(inputs, state, p: Pass) -> None:
    out_dir = tempfile.mkdtemp(prefix="checked-", dir=state["tmp"])
    outs, walls = [], []
    for index, job in enumerate(inputs["jobs"]):
        spec = JobSpec.from_dict(job)
        t0 = time.perf_counter()
        with p.span("cli.report", job=spec.describe()):
            outs.append(_report_job(spec, out_dir, index))
        walls.append(time.perf_counter() - t0)
    p.stop_clock()
    p.info["job_host_s"] = walls
    p.info["rank_iters"] = sum(j["ranks"] * j["iters"] for j in inputs["jobs"])
    p.jobs = len(outs)
    for job, (report, doc, n_records, cfg) in zip(inputs["jobs"], outs):
        p.sim_time_s += report.stats["virtual_time"]
        p.add_report(doc["stats"], doc["metrics"])
        p.counts["obs.trace_records"] += n_records
        p.counts["sanitize.races"] += len(report.races)
        p.check(not report.races, f"{job['backend']}: sanitizer found "
                                  f"{len(report.races)} race(s)")
        try:
            validate_report(doc)
            problem = None
        except ValueError as exc:
            problem = str(exc)
        p.check(problem is None, f"{job['backend']}: {problem}")
        got = _digest(jacobi.assemble(cfg, report))
        p.check(got == state["digests"][job["iters"]],
                f"{job['backend']} checked solution differs from serial_jacobi")
    shutil.rmtree(out_dir, ignore_errors=True)


def prepare_checked(inputs: Dict[str, Any], tmp: str) -> Dict[str, Any]:
    return {"digests": _serial_digests(inputs["jobs"]), "tmp": tmp}


# --------------------------------------------------------------------- #
# serve_cold / serve_cached: `python -m repro submit --sweep ...`.
# --------------------------------------------------------------------- #

_SUMMARY_RE = re.compile(
    r"(\d+) job\(s\): (\d+) executed, (\d+) cache hit\(s\), (\d+) failed, "
    r"(\d+) retrie\(s\), (\d+) worker respawn\(s\)")
_STAMPS = ("wall_s", "attempts", "stored_at_unix")


def submit_argv(inputs: Dict[str, Any], store: str, out: str, jobs: int = 1,
                quiet: bool = True) -> List[str]:
    argv = [sys.executable, "-m", "repro", "submit", "--seed", str(inputs["seed"]),
            "--sweep", *inputs["sweep"], "--jobs", str(jobs), "--json", out,
            "--store", store]
    return argv + ["--quiet"] if quiet else argv


def sweep_specs(inputs: Dict[str, Any]) -> List[JobSpec]:
    """The JobSpecs the CLI builds from the sweep tokens (public pieces)."""
    axes = {("ranks" if k == "gpus" else k): v
            for k, v in parse_sweep(inputs["sweep"]).items()}
    return [JobSpec.from_dict({"seed": inputs["seed"], **point})
            for point in expand_matrix(axes)]


def run_submit(argv: List[str]) -> Dict[str, Any]:
    """Run one CLI command; parse its summary footer and result documents."""
    proc = subprocess.run(argv, env=program_env(), capture_output=True, text=True)
    match = _SUMMARY_RE.search(proc.stdout)
    out_path = argv[argv.index("--json") + 1]
    docs = []
    if os.path.exists(out_path):
        with open(out_path) as fh:
            docs = json.load(fh)
    return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:],
            "summary": [int(g) for g in match.groups()] if match else None,
            "docs": docs}


def _store_bytes(store: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(store) for name in names)


def _strip(doc: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in doc.items() if k not in _STAMPS}


def _fold_submit(p: Pass, outcome: Dict[str, Any], hashes: List[str]) -> None:
    docs = outcome["docs"]
    p.check(outcome["returncode"] == 0 and outcome["summary"] is not None,
            f"repro submit exited {outcome['returncode']}: {outcome['stderr']}")
    p.check([d.get("config_hash") for d in docs] == hashes,
            "result documents do not match the generated sweep")
    if outcome["summary"] is not None:
        total, executed, hits, failed, retries, respawns = outcome["summary"]
        p.counts["serve.jobs_executed"] += executed
        p.counts["serve.cache_hits"] += hits
        p.counts["serve.cache_misses"] += total - hits
        p.counts["serve.retries"] += retries
        p.counts["serve.worker_respawns"] += respawns
    _fold_docs(p, docs, simulated=outcome["summary"] is not None
               and outcome["summary"][1] > 0)


def _traced_batch(p: Pass, inputs, store: str) -> None:
    """Job-level spans from ``JobService`` lifecycle events (queue wait vs
    run); the CLI subprocess itself is opaque from outside."""
    marks: Dict[int, Dict[str, float]] = {}

    def on_event(event: Dict[str, Any]) -> None:
        marks.setdefault(event["job"], {})[event["event"]] = time.perf_counter()

    specs = sweep_specs(inputs)
    with p.rec.span("serve.JobService.run", job=f"{len(specs)} jobs") as batch:
        JobService(ResultStore(store), jobs=1, events=on_event).run(specs)
    for index, spec in enumerate(specs):
        m = marks.get(index, {})
        label = spec.describe()
        if "cached" in m:
            p.rec.add("serve.cached", m["cached"], m["cached"], job=label,
                      parent=batch["id"])
        if "queued" in m and "running" in m:
            p.rec.add("serve.queue_wait", m["queued"], m["running"], job=label,
                      parent=batch["id"])
        if "running" in m and "done" in m:
            p.rec.add("serve.run", m["running"], m["done"], job=label,
                      parent=batch["id"])


def prepare_serve_cold(inputs, tmp: str) -> Dict[str, Any]:
    return {"tmp": tmp, "hashes": [s.config_hash() for s in sweep_specs(inputs)]}


def run_serve_cold(inputs, state, p: Pass) -> None:
    work = tempfile.mkdtemp(prefix="cold-", dir=state["tmp"])
    store, out = os.path.join(work, "store"), os.path.join(work, "out.json")
    argv = submit_argv(inputs, store, out)
    with p.span("cli.submit", job="cold sweep"):
        outcome = run_submit(argv)
    if p.rec is not None:
        _traced_batch(p, inputs, os.path.join(work, "store-traced"))
    p.stop_clock()
    _fold_submit(p, outcome, state["hashes"])
    p.counts["serve.store_bytes"] = _store_bytes(store)
    p.info["job_wall_s"] = [d["wall_s"] for d in outcome["docs"] if "wall_s" in d]
    p.check(outcome["summary"] is not None and outcome["summary"][2] == 0,
            "cold sweep hit the cache")
    shutil.rmtree(work, ignore_errors=True)


def prepare_serve_cached(inputs, tmp: str) -> Dict[str, Any]:
    """Fill the store with the cold twin of every document (set-up cost)."""
    store, out = os.path.join(tmp, "store"), os.path.join(tmp, "fill.json")
    outcome = run_submit(submit_argv(inputs, store, out))
    if outcome["returncode"] != 0:
        raise RuntimeError(f"store fill failed: {outcome['stderr']}")
    return {"tmp": tmp, "store": store,
            "hashes": [s.config_hash() for s in sweep_specs(inputs)],
            "cold": [_strip(d) for d in outcome["docs"]]}


def run_serve_cached(inputs, state, p: Pass) -> None:
    work = tempfile.mkdtemp(prefix="cached-", dir=state["tmp"])
    outcomes = []
    for index in range(inputs["commands"]):
        argv = submit_argv(inputs, state["store"], os.path.join(work, f"out-{index}.json"))
        with p.span("cli.submit", job=f"cached sweep {index}"):
            outcomes.append(run_submit(argv))
    if p.rec is not None:
        _traced_batch(p, inputs, state["store"])
    p.stop_clock()
    for outcome in outcomes:
        _fold_submit(p, outcome, state["hashes"])
        p.check(outcome["summary"] is not None
                and outcome["summary"][2] == len(state["hashes"])
                and outcome["summary"][1] == 0,
                f"cached sweep was not 100 % hits: {outcome['summary']}")
        p.check([_strip(d) for d in outcome["docs"]] == state["cold"],
                "cached documents differ from their cold twins")
    p.counts["serve.store_bytes"] = _store_bytes(state["store"])
    shutil.rmtree(work, ignore_errors=True)


WORKLOADS: Dict[str, Dict[str, Callable]] = {
    "jacobi_live": {"prepare": prepare_jacobi, "run": run_jacobi_live},
    "jacobi_replay": {"prepare": prepare_none, "run": run_jacobi_replay},
    "cg_solve": {"prepare": prepare_none, "run": run_cg_solve},
    "coll_sweep": {"prepare": prepare_none, "run": run_coll_sweep},
    "jacobi_checked": {"prepare": prepare_checked, "run": run_jacobi_checked},
    "serve_cold": {"prepare": prepare_serve_cold, "run": run_serve_cold},
    "serve_cached": {"prepare": prepare_serve_cached, "run": run_serve_cached},
}
