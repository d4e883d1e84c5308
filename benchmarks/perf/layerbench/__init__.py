"""Layered host-time benchmark of the simulator (see ../README.md).

This module only *declares* names - workloads, end-to-end metrics, per-layer
metrics - so it imports nothing heavy. ``BENCHMARK.json`` at the repository
root repeats them for the driver; ``--self-test`` asserts the two agree.
"""

from __future__ import annotations

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "manifest"]

RUN_SECONDS = 10

#: name -> why it was chosen (one line; the sizing figures are in README.md).
WORKLOADS = {
    "jacobi_live": "64-rank Jacobi, one grid row per rank: engine handoffs and "
                   "backend/core Python dominate, payloads are trivial",
    "jacobi_replay": "same grid with capture=regions: the engine used as fused "
                     "replay, so a live-path gain that costs replay shows here",
    "cg_solve": "8-rank CG on ~36k rows: numpy SpMV, AllGatherv copies and "
                "make_problem dominate, engine work is minor",
    "coll_sweep": "OSU collectives under coll=auto across the LL/LL128/Simple "
                  "bands plus one table build: schedule generation and pricing",
    "jacobi_checked": "what repro report --sanitize --trace-out does: obs spans, "
                      "trace emission and the race sanitizer do most of the work",
    "serve_cold": "repro submit of a 72-job sweep into an empty store: per-job "
                  "fixed costs, worker pipe, to_dict, store writes, CLI import",
    "serve_cached": "the same sweep four times against a filled store: hash, "
                    "store reads and interpreter start-up, no simulation",
}

#: (name, unit, better, bound). ``fail_share`` of the issue is the result
#: line's ``failed`` / ``attempted``: the driver wants metrics that are never 0.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_s", "s", "lower", 0.25),
    ("sim_time_s", "sim_s", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

_COUNT, _RATIO = "count", "ratio"

#: (name, unit, better); measured only with ``--trace 1``.
PER_LAYER = (
    ("trace_overhead", _RATIO, "lower"),
    # Exact counts (RunReport.stats / .metrics / result documents).
    ("sim.timers_fired", _COUNT, "lower"),
    ("sim.switches", _COUNT, "lower"),
    ("sim.inline_resumes", _COUNT, "higher"),
    ("sim.wakeups", _COUNT, "lower"),
    ("sim.capture.events_replayed", _COUNT, "higher"),
    ("sim.capture.iterations_skipped", _COUNT, "higher"),
    ("sim.capture.bailouts", _COUNT, "lower"),
    ("backends.mpi.messages", _COUNT, "lower"),
    ("backends.mpi.bytes", "B", "lower"),
    ("backends.gpuccl.messages", _COUNT, "lower"),
    ("backends.gpuccl.collectives", _COUNT, "lower"),
    ("backends.gpushmem.puts", _COUNT, "lower"),
    ("backends.gpushmem.signal_waits", _COUNT, "lower"),
    ("core.uniconn_calls", _COUNT, "lower"),
    ("hardware.link_busy_s", "sim_s", "lower"),
    ("hardware.link_queue_delay_s", "sim_s", "lower"),
    ("coll.selections", _COUNT, "lower"),
    ("obs.trace_records", _COUNT, "lower"),
    ("sanitize.races", _COUNT, "lower"),
    ("serve.jobs_executed", _COUNT, "lower"),
    ("serve.cache_hits", _COUNT, "higher"),
    ("serve.cache_misses", _COUNT, "lower"),
    ("serve.retries", _COUNT, "lower"),
    ("serve.worker_respawns", _COUNT, "lower"),
    ("serve.store_bytes", "B", "lower"),
    # Derived rates: host seconds over the exact counts.
    ("sim.host_us_per_timer", "us", "lower"),
    ("sim.host_us_per_rank_iter", "us", "lower"),
    ("sim.capture.replay_host_s", "s", "lower"),
    ("serve.job_wall_p50_ms", "ms", "lower"),
    ("serve.job_wall_p95_ms", "ms", "lower"),
    # Differential ratios: one public argument changed, sides interleaved.
    ("obs.metrics_overhead", _RATIO, "lower"),
    ("obs.spans_overhead", _RATIO, "lower"),
    ("sanitize.overhead", _RATIO, "lower"),
    ("core.host_overhead.mpi", _RATIO, "lower"),
    ("core.host_overhead.gpuccl", _RATIO, "lower"),
    ("core.host_overhead.gpushmem", _RATIO, "lower"),
    ("core.sim_overhead.mpi", _RATIO, "lower"),
    ("core.sim_overhead.gpuccl", _RATIO, "lower"),
    ("core.sim_overhead.gpushmem", _RATIO, "lower"),
    ("sim.capture.speedup", _RATIO, "higher"),
    ("coll.auto_overhead", _RATIO, "lower"),
    ("sim.unpinned_ratio", _RATIO, "lower"),
    ("serve.pool_speedup", _RATIO, "higher"),
    # Probes: a timed loop over one public function.
    ("sim.sleep_us", "us", "lower"),
    ("sim.timer_us", "us", "lower"),
    ("sim.event_pingpong_us", "us", "lower"),
    ("launcher.noop_launch_ms", "ms", "lower"),
    ("launcher.to_dict_ms", "ms", "lower"),
    ("hardware.path_us", "us", "lower"),
    ("hardware.reserve_us", "us", "lower"),
    ("gpu.kernel_launch_us", "us", "lower"),
    ("gpu.buffer_write_gbps", "GB/s", "higher"),
    ("backends.mpi.pingpong_us", "us", "lower"),
    ("backends.mpi.window_us", "us", "lower"),
    ("backends.gpuccl.sendrecv_us", "us", "lower"),
    ("backends.gpushmem.put_signal_us", "us", "lower"),
    ("core.post_ack_us", "us", "lower"),
    ("coll.generate_us", "us", "lower"),
    ("coll.cost_us", "us", "lower"),
    ("coll.select_us", "us", "lower"),
    ("coll.execute_us", "us", "lower"),
    ("coll.build_table_s", "s", "lower"),
    ("obs.inc_ns", "ns", "lower"),
    ("obs.analyze_ms", "ms", "lower"),
    ("obs.trace_write_ms", "ms", "lower"),
    ("apps.cg.make_problem_s", "s", "lower"),
    ("serve.hash_us", "us", "lower"),
    ("serve.store_put_us", "us", "lower"),
    ("serve.store_get_us", "us", "lower"),
    ("serve.pool_spawn_ms", "ms", "lower"),
    ("serve.pool_roundtrip_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.submit_cold_ms", "ms", "lower"),
    ("cli.submit_cached_ms", "ms", "lower"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document these declarations correspond to."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
