"""Per-layer numbers of the traced run: derived rates, differential ratios
and probes. Layer = module name under ``repro``.

- *Derived rates* divide a pass's host seconds by its exact counts.
- *Differential ratios* re-run one job with one public argument changed,
  sides interleaved, and report min(changed) / min(base).
- *Probes* time a loop over one public function for at least ~0.2 s.

Each workload runs only the differentials and probes of the layers that
dominate it (the table in README.md); the rest read 0 on that workload.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.apps import cg, jacobi
from repro.apps.osu import OsuConfig, run_bandwidth, run_collective, run_latency
from repro.coll import (CollPolicy, CollTuner, execute_schedule,
                        generate, schedule_cost)
from repro.gpu import kernel
from repro.hardware.cluster import Cluster
from repro.hardware.machines import get_machine
from repro.launcher import launch
from repro.obs import MetricsRegistry, analyze_records
from repro.serve import JobSpec, ResultStore, WorkerPool, execute_job
from repro.sim import Engine, SimEvent, Tracer, run_spmd, write_chrome_trace

from . import workloads as wl
from .harness import BenchError, program_env, run_forked, unpinned

__all__ = ["derived", "differentials", "probes"]

PROBE_S = 0.2  # minimum timed seconds per probe


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------- #
# Derived rates.
# --------------------------------------------------------------------- #


def derived(plain: Dict[str, Any]) -> Dict[str, float]:
    """Rates of one untraced pass: its host seconds over its exact counts."""
    info = plain["info"]
    walls = info.get("job_wall_s") or info.get("job_host_s") or []
    host = sum(walls)
    out = {
        "sim.host_us_per_timer": 1e6 * _ratio(host, plain["counts"]["sim.timers_fired"]),
        "sim.host_us_per_rank_iter": 1e6 * _ratio(host, info.get("rank_iters", 0)),
        "sim.capture.replay_host_s": info.get("replay_host_s", 0.0),
        "serve.job_wall_p50_ms": 0.0,
        "serve.job_wall_p95_ms": 0.0,
    }
    stamps = sorted(info.get("job_wall_s", []))
    if stamps:
        out["serve.job_wall_p50_ms"] = 1e3 * statistics.median(stamps)
        out["serve.job_wall_p95_ms"] = 1e3 * stamps[min(len(stamps) - 1,
                                                        int(0.95 * len(stamps)))]
    return out


# --------------------------------------------------------------------- #
# Differential ratios.
# --------------------------------------------------------------------- #


def _forked(body: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    out = run_forked(body)
    if "error" in out:
        raise BenchError(f"differential run failed: {out['error']}")
    return out


def _job_child(job: Dict[str, Any], cpus=None) -> Dict[str, Any]:
    """One ``execute_job`` in a forked child; host seconds and what the
    ratios need from its document."""

    def body() -> Dict[str, Any]:
        t0 = time.perf_counter()
        doc = execute_job(job)
        host = time.perf_counter() - t0
        stats = doc["report"]["stats"]
        return {"host_s": host, "time_per_iter_s": doc["summary"]["time_per_iter_s"],
                "timers": stats["timers_fired"],
                "replayed": stats["capture"]["events_replayed"]}

    if cpus is None:
        return _forked(body)
    with unpinned(cpus):
        return _forked(body)


def _interleaved(sides: Dict[str, Callable[[], Dict[str, Any]]],
                 rounds: int = 2) -> Dict[str, Dict[str, Any]]:
    """Run every side ``rounds`` times, interleaved; keep each side's
    fastest sample (noise on a shared box only ever adds time)."""
    best: Dict[str, Dict[str, Any]] = {}
    for _ in range(rounds):
        for name, run in sides.items():
            sample = run()
            if name not in best or sample["host_s"] < best[name]["host_s"]:
                best[name] = sample
    return best


def _job_of(inputs: Dict[str, Any], backend: str) -> Dict[str, Any]:
    """The (host-mode) job of one backend; job order varies with the seed."""
    return next(j for j in inputs["jobs"]
                if j["backend"] == backend and j.get("mode", "PureHost") == "PureHost")


_NATIVE = {"mpi": "mpi-native", "gpuccl": "gpuccl-native",
           "gpushmem": "gpushmem-host-native"}


def _diff_jacobi_live(inputs, allowed_cpus) -> Dict[str, float]:
    host_jobs = {j["backend"]: j for j in inputs["jobs"] if j["mode"] == "PureHost"}
    sides = {}
    for backend, job in host_jobs.items():
        sides[f"uniconn:{backend}"] = lambda job=job: _job_child(job)
        native = dict(job, backend=_NATIVE[backend])
        sides[_NATIVE[backend]] = lambda native=native: _job_child(native)
    sides["obs-off"] = lambda: _job_child(dict(host_jobs["mpi"], obs="off"))
    best = _interleaved(sides)
    out = {"obs.metrics_overhead": _ratio(best["uniconn:mpi"]["host_s"],
                                          best["obs-off"]["host_s"])}
    for backend in host_jobs:
        uni, nat = best[f"uniconn:{backend}"], best[_NATIVE[backend]]
        out[f"core.host_overhead.{backend}"] = _ratio(uni["host_s"], nat["host_s"])
        out[f"core.sim_overhead.{backend}"] = _ratio(uni["time_per_iter_s"],
                                                     nat["time_per_iter_s"])
    loose = _job_child(host_jobs["mpi"], cpus=allowed_cpus)
    out["sim.unpinned_ratio"] = _ratio(loose["host_s"], best["uniconn:mpi"]["host_s"])
    return out


def _diff_jacobi_replay(inputs, allowed_cpus) -> Dict[str, Any]:
    job = _job_of(inputs, "mpi")
    best = _interleaved({"replay": lambda: _job_child(job),
                         "live": lambda: _job_child(dict(job, capture="off"))},
                        rounds=1)
    # An output check that needs the capture-off twin (see ``differentials``).
    accounted = (best["replay"]["timers"] + best["replay"]["replayed"]
                 == best["live"]["timers"],
                 f"live + replayed timers {best['replay']['timers']} + "
                 f"{best['replay']['replayed']} != capture-off count "
                 f"{best['live']['timers']}")
    return {"sim.capture.speedup": _ratio(best["live"]["host_s"],
                                          best["replay"]["host_s"]),
            "checks": [accounted]}


def _checked_child(job: Dict[str, Any], **kwargs) -> Dict[str, Any]:
    spec = JobSpec.from_dict(job)

    def body() -> Dict[str, Any]:
        t0 = time.perf_counter()
        jacobi.launch_variant(spec.variant(), wl.jacobi_cfg(spec), spec.ranks, **kwargs)
        return {"host_s": time.perf_counter() - t0}

    return _forked(body)


def _diff_jacobi_checked(inputs, allowed_cpus) -> Dict[str, float]:
    job = _job_of(inputs, "mpi")
    best = _interleaved({
        "plain": lambda: _checked_child(job, obs="metrics"),
        "spans": lambda: _checked_child(job, obs="spans", tracer=Tracer()),
        "race": lambda: _checked_child(job, obs="metrics", sanitize="race"),
    })
    return {"obs.spans_overhead": _ratio(best["spans"]["host_s"], best["plain"]["host_s"]),
            "sanitize.overhead": _ratio(best["race"]["host_s"], best["plain"]["host_s"])}


def _diff_coll_sweep(inputs, allowed_cpus) -> Dict[str, float]:
    sweep = inputs["sweeps"][0]

    def side(coll) -> Callable[[], Dict[str, Any]]:
        def body() -> Dict[str, Any]:
            t0 = time.perf_counter()
            run_collective(sweep["backend"], sweep["kind"],
                           wl.osu_config(sweep["sizes"]), gpus=sweep["gpus"], coll=coll)
            return {"host_s": time.perf_counter() - t0}
        return lambda: _forked(body)

    best = _interleaved({"auto": side("auto"), "none": side(None)})
    return {"coll.auto_overhead": _ratio(best["auto"]["host_s"], best["none"]["host_s"])}


def _diff_serve_cold(inputs, allowed_cpus) -> Dict[str, float]:
    def side(jobs: int) -> Callable[[], Dict[str, Any]]:
        def body() -> Dict[str, Any]:
            with tempfile.TemporaryDirectory(dir=inputs["_tmp"]) as work:
                argv = wl.submit_argv(inputs, os.path.join(work, "store"),
                                      os.path.join(work, "out.json"), jobs=jobs)
                t0 = time.perf_counter()
                outcome = wl.run_submit(argv)
                host = time.perf_counter() - t0
            if outcome["returncode"] != 0:
                raise RuntimeError(outcome["stderr"])
            return {"host_s": host}
        return lambda: _forked(body)

    with unpinned(allowed_cpus):
        best = _interleaved({"one": side(1), "two": side(2)}, rounds=1)
    return {"serve.pool_speedup": _ratio(best["one"]["host_s"], best["two"]["host_s"])}


_DIFFERENTIALS = {
    "jacobi_live": _diff_jacobi_live,
    "jacobi_replay": _diff_jacobi_replay,
    "jacobi_checked": _diff_jacobi_checked,
    "coll_sweep": _diff_coll_sweep,
    "serve_cold": _diff_serve_cold,
}


def differentials(workload: str, inputs: Dict[str, Any], tmp: str, allowed_cpus
                  ) -> Tuple[Dict[str, float], List[Tuple[bool, str]]]:
    """The workload's differential ratios, and the output checks that need a
    differential twin as ``(ok, what)`` pairs."""
    fn = _DIFFERENTIALS.get(workload)
    if fn is None:
        return {}, []
    values = fn(dict(inputs, _tmp=tmp), allowed_cpus)
    return values, values.pop("checks", [])


# --------------------------------------------------------------------- #
# Probes.
# --------------------------------------------------------------------- #


def _per_call(fn: Callable[[int], None], start: int = 64) -> float:
    """Seconds per call of ``fn(n)`` (which performs ``n`` calls), growing
    ``n`` until one timed loop lasts at least ``PROBE_S``."""
    n = start
    while True:
        t0 = time.perf_counter()
        fn(n)
        dt = time.perf_counter() - t0
        if dt >= PROBE_S:
            return dt / n
        n = max(2 * n, int(n * 1.2 * PROBE_S / max(dt, 1e-9)))


def _rounds(full: int) -> int:
    """Repeats of a fixed-size probe step: ``full``, or 1 at self-test scale."""
    return full if PROBE_S >= 0.1 else 1


def _noop(*_args) -> None:
    return None


def _probe_sleep() -> float:
    def loop(n: int) -> None:
        engine = Engine()

        def body(rank: int) -> None:
            for _ in range(n // 2):
                engine.sleep(1e-6)

        run_spmd(2, body, engine=engine)
    return 1e6 * _per_call(loop, 2000)


def _probe_timer() -> float:
    def loop(n: int) -> None:
        engine = Engine()

        def body(rank: int) -> None:
            for i in range(n):
                engine.schedule(1e-6 * (i + 1), _noop)
            engine.sleep(1e-6 * (n + 2))

        run_spmd(1, body, engine=engine)
    return 1e6 * _per_call(loop, 20000)


def _probe_event_pingpong() -> float:
    def loop(n: int) -> None:
        engine = Engine()
        ping = [SimEvent(engine) for _ in range(n)]
        pong = [SimEvent(engine) for _ in range(n)]

        def body(rank: int) -> None:
            for a, b in zip(ping, pong):
                if rank == 0:
                    a.set()
                    b.wait()
                else:
                    a.wait()
                    b.set()

        run_spmd(2, body, engine=engine)
    return 1e6 * _per_call(loop, 2000)


def _probe_noop_launch() -> float:
    return 1e3 * _per_call(lambda n: [launch(_noop, 64) for _ in range(n)], 1)


def _probe_to_dict() -> float:
    cfg = jacobi.JacobiConfig(nx=64, ny=66, iters=2, warmup=1)
    report = jacobi.launch_variant("uniconn:mpi", cfg, 64, collect=True)
    return 1e3 * _per_call(lambda n: [report.to_dict() for _ in range(n)], 2)


def _probe_path_reserve() -> Tuple[float, float]:
    cluster = Cluster(get_machine("perlmutter"), 16)
    pairs = [(a, (a * 7 + 3) % cluster.n_gpus) for a in range(cluster.n_gpus)]

    def paths(n: int) -> None:
        for i in range(n):
            cluster.path(*pairs[i % len(pairs)])

    routes = [cluster.path(a, b) for a, b in pairs]

    def reserves(n: int) -> None:
        for i in range(n):
            routes[i % len(routes)].reserve(i * 1e-6, 4096)

    return 1e6 * _per_call(paths, 50000), 1e6 * _per_call(reserves, 50000)


@kernel(name="perfbench_noop")
def _noop_kernel(ctx) -> None:
    return None


def _probe_gpu() -> Tuple[float, float]:
    out: Dict[str, float] = {}

    def body(ctx) -> None:
        device = ctx.set_device(0)
        stream = device.create_stream()

        def launches(n: int) -> None:
            for i in range(n):
                device.launch(_noop_kernel, 1, 128, stream=stream)
                if i % 64 == 63:
                    stream.synchronize()
            stream.synchronize()

        out["launch"] = 1e6 * _per_call(launches, 2000)
        buf = device.malloc(1 << 20, np.float32)
        src = np.ones(1 << 20, np.float32)
        out["gbps"] = src.nbytes / _per_call(
            lambda n: [buf.write(src) for _ in range(n)], 20) / 1e9

    launch(body, 1)
    return out["launch"], out["gbps"]


def _osu_host_us(run, variant: str, per_iter: int = 1) -> float:
    """Host microseconds per OSU round of ``variant`` (2 ranks, 8 B)."""
    def loop(n: int) -> None:
        run(variant, OsuConfig(sizes=(8,), iters_small=n, warmup_small=1,
                               window=64, repeats=1))
    return 1e6 * _per_call(loop, 200) / per_iter


def _probe_coll() -> Dict[str, float]:
    tuner = CollTuner("perlmutter", 16)
    topo = tuner.topo
    count = 6000
    sched = generate("recdbl", "all_reduce", topo.nranks, count, topo=topo)
    inputs = [np.full(count, float(r + 1), np.float32) for r in range(topo.nranks)]
    sizes = iter(range(4096, 1 << 30, 4))
    policy = CollPolicy.auto()
    t0 = time.perf_counter()
    tuner.build_table()
    build_s = time.perf_counter() - t0
    return {
        "coll.generate_us": 1e6 * _per_call(lambda n: [
            generate("recdbl", "all_reduce", topo.nranks, count, topo=topo)
            for _ in range(n)], 50),
        "coll.cost_us": 1e6 * _per_call(lambda n: [
            schedule_cost(sched, topo, 4) for _ in range(n)], 50),
        # A fresh message size per call: the policy caches per exact size.
        "coll.select_us": 1e6 * _per_call(lambda n: [
            policy.select("gpuccl", "all_reduce", next(sizes), topo)
            for _ in range(n)], 4),
        "coll.execute_us": 1e6 * _per_call(lambda n: [
            execute_schedule(sched, inputs) for _ in range(n)], 10),
        "coll.build_table_s": build_s,
    }


def _probe_inc() -> float:
    registry = MetricsRegistry()

    def loop(n: int) -> None:
        for _ in range(n):
            registry.inc("messages_total", backend="mpi", rank=0)

    return 1e9 * _per_call(loop, 50000)


def _probe_obs(inputs, tmp: str) -> Tuple[float, float]:
    spec = JobSpec.from_dict(_job_of(inputs, "mpi"))
    tracer = Tracer()
    report = jacobi.launch_variant(spec.variant(), wl.jacobi_cfg(spec), spec.ranks,
                                   tracer=tracer, obs="spans")
    total = report.stats["virtual_time"]
    path = os.path.join(tmp, "probe-trace.json")
    analyze = _per_call(lambda n: [
        analyze_records(tracer.records, n_ranks=spec.ranks, total_time=total)
        for _ in range(n)], 4)
    write = _per_call(lambda n: [write_chrome_trace(tracer, path) for _ in range(n)], 4)
    return 1e3 * analyze, 1e3 * write


def _probe_make_problem(inputs) -> float:
    spec = JobSpec.from_dict(inputs["jobs"][0])
    cfg = cg.CgConfig(n=spec.size, nnz_per_row=min(33, max(3, spec.size // 16)),
                      iters=spec.iters, seed=spec.seed or 7)
    return _per_call(lambda n: [cg.make_problem(cfg) for _ in range(n)], 1)


def _probe_serve(tmp: str) -> Dict[str, float]:
    spec = JobSpec(app="jacobi", backend="mpi", ranks=2, size=32, iters=3)
    doc = dict(execute_job(spec.to_dict()), wall_s=0.0, attempts=1, stored_at_unix=0.0)
    store = ResultStore(os.path.join(tmp, "probe-store"))
    hashes = [f"{i:064x}" for i in range(256)]

    def puts(n: int) -> None:
        for i in range(n):
            store.put(dict(doc, config_hash=hashes[i % len(hashes)]))

    put_us = 1e6 * _per_call(puts, 64)
    get_us = 1e6 * _per_call(lambda n: [store.get(hashes[i % len(hashes)])
                                        for i in range(n)], 64)

    def pool_s(items: int) -> float:
        t0 = time.perf_counter()
        WorkerPool(_noop, jobs=1).run(list(range(items)))
        return time.perf_counter() - t0

    spawn = min(pool_s(1) for _ in range(_rounds(5)))
    many = 100 * _rounds(4)
    batch = min(pool_s(many) for _ in range(_rounds(3)))
    return {
        "serve.hash_us": 1e6 * _per_call(lambda n: [
            JobSpec(app="jacobi", backend="mpi", ranks=2, size=32, iters=3 + i).config_hash()
            for i in range(n)], 200),
        "serve.store_put_us": put_us,
        "serve.store_get_us": get_us,
        "serve.pool_spawn_ms": 1e3 * spawn,
        "serve.pool_roundtrip_ms": 1e3 * max(batch - spawn, 0.0) / (many - 1),
    }


def _probe_cli(tmp: str) -> Dict[str, float]:
    env = program_env()

    def wall(argv: List[str]) -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, capture_output=True)
        return time.perf_counter() - t0

    def fastest(argv: List[str]) -> float:
        return min(wall(argv) for _ in range(_rounds(3)))

    bare = fastest([sys.executable, "-c", "pass"])
    imported = fastest([sys.executable, "-c", "import repro.cli"])
    store = os.path.join(tmp, "probe-cli-store")
    submit = [sys.executable, "-m", "repro", "submit", "--gpus", "2", "--size", "32",
              "--iters", "3", "--jobs", "1", "--quiet", "--store", store]
    cold = wall(submit)
    cached = fastest(submit)
    return {"cli.import_ms": 1e3 * (imported - bare),
            "cli.submit_cold_ms": 1e3 * cold,
            "cli.submit_cached_ms": 1e3 * cached}


def _probes_for(workload: str, inputs, tmp: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if workload == "jacobi_live":
        out["sim.sleep_us"] = _probe_sleep()
        out["sim.timer_us"] = _probe_timer()
        out["sim.event_pingpong_us"] = _probe_event_pingpong()
        out["hardware.path_us"], out["hardware.reserve_us"] = _probe_path_reserve()
        out["backends.mpi.pingpong_us"] = _osu_host_us(run_latency, "mpi-native")
        out["backends.mpi.window_us"] = _osu_host_us(run_bandwidth, "mpi-native", 64)
        out["backends.gpuccl.sendrecv_us"] = _osu_host_us(run_latency, "gpuccl-native")
        out["backends.gpushmem.put_signal_us"] = _osu_host_us(run_latency,
                                                              "gpushmem-host-native")
        out["core.post_ack_us"] = _osu_host_us(run_latency, "uniconn:mpi")
        out["obs.inc_ns"] = _probe_inc()
    elif workload == "cg_solve":
        out["gpu.kernel_launch_us"], out["gpu.buffer_write_gbps"] = _probe_gpu()
        out["apps.cg.make_problem_s"] = _probe_make_problem(inputs)
    elif workload == "coll_sweep":
        out.update(_probe_coll())
    elif workload == "jacobi_checked":
        out["obs.analyze_ms"], out["obs.trace_write_ms"] = _probe_obs(inputs, tmp)
    elif workload == "serve_cold":
        out["launcher.noop_launch_ms"] = _probe_noop_launch()
        out["launcher.to_dict_ms"] = _probe_to_dict()
        out.update(_probe_serve(tmp))
    elif workload == "serve_cached":
        out.update(_probe_cli(tmp))
    return out


def probes(workload: str, inputs: Dict[str, Any], tmp: str,
           min_seconds: float = PROBE_S) -> Dict[str, float]:
    """The workload's probes, run together in one forked child."""

    def body() -> Dict[str, Any]:
        # Only this forked child sees the override (the self-test's toy scale).
        globals()["PROBE_S"] = min_seconds
        return {"values": _probes_for(workload, inputs, tmp)}

    out = run_forked(body, timeout=90.0)
    if "error" in out:
        raise BenchError(f"probes failed: {out['error']}")
    return out["values"]
