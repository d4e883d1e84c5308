#!/usr/bin/env python3
"""Layered host-time benchmark: one command, seven pinned workloads.

    python3 benchmarks/perf/run.py --workload NAME [--seed S] [--seconds T]
                                   [--trace 0|1] [--out FILE]
    python3 benchmarks/perf/run.py --workload all --out FILE   # every workload
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --self-test

A run prints every metric by name with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` (default)
measures the end-to-end metrics with tracing off; ``--trace 1`` is the
separate traced run that yields the per-layer metrics. See README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # driver start: set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layerbench  # noqa: E402  (declarations only: nothing heavy)
from layerbench import compare, gen, harness  # noqa: E402

SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh interpreters


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*layerbench.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0; seed 1 is the hold-out)")
    ap.add_argument("--seconds", type=float, default=layerbench.RUN_SECONDS,
                    help="how long the timed passes run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: the traced run that yields the per-layer metrics")
    ap.add_argument("--out", metavar="FILE",
                    help="merge this run's document into a results file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="apply the regression bounds to two results files")
    ap.add_argument("--self-test", action="store_true",
                    help="every workload at toy scale, checking names, schema, spans")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.compare or args.self_test or args.workload):
        ap.error("one of --workload, --compare, --self-test is required")
    return args


def load_program():
    """Pin, then import the program and the modules that drive it."""
    cpu = harness.pin_to_one_cpu()
    if not (harness.SRC_DIR / "repro").is_dir():
        raise harness.BenchError(f"no program to measure: {harness.SRC_DIR}/repro "
                                 "is missing")
    sys.path.insert(0, str(harness.SRC_DIR))
    from layerbench import layers, spans, workloads
    return cpu, workloads, layers, spans


# --------------------------------------------------------------------- #
# One run of one workload.
# --------------------------------------------------------------------- #


class Run:
    """Set-up once, then forked passes; collects attempts and failures."""

    def __init__(self, mods, workload: str, seed: int, scale: str, tmp: str):
        self.workloads, self.layers, self.spans = mods
        self.workload, self.seed, self.scale, self.tmp = workload, seed, scale, tmp
        self.inputs = gen.generate(workload, seed, scale)
        self.impl = self.workloads.WORKLOADS[workload]
        self.state = self.impl["prepare"](self.inputs, tmp)
        self.attempted = 0
        self.failures: List[str] = []
        self.passes_made = 0

    def pass_fn(self, traced: bool = False) -> Callable[[], Dict[str, Any]]:
        """What one forked pass child runs."""
        self.passes_made += 1
        rec = (self.spans.SpanRecorder(self.workload, self.passes_made)
               if traced else None)

        def body() -> Dict[str, Any]:
            p = self.workloads.Pass(rec)
            with p.span(self.workload):
                self.impl["run"](self.inputs, self.state, p)
            return p.result()

        return body

    def absorb(self, results: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Count attempts and failures of finished passes; return the good ones."""
        good = []
        for res in results:
            if "error" in res:
                self.attempted += 1
                self.failures.append(res["error"].strip().splitlines()[-1])
                continue
            self.attempted += res["jobs"] + res["checks"]
            self.failures.extend(res["failures"])
            good.append(res)
        return good

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_repeatable(self, passes: List[Dict[str, Any]]) -> None:
        """Virtual time and every exact count must be bit-equal across passes
        (store bytes excepted: documents carry wall-clock stamps)."""
        first = passes[0]
        exact = [k for k in first["counts"] if k != "serve.store_bytes"]
        self.check(all(p["sim_time_s"] == first["sim_time_s"] for p in passes),
                   "sim_time_s differs between passes: "
                   f"{sorted({p['sim_time_s'] for p in passes})}")
        moved = sorted({k for p in passes for k in exact
                        if p["counts"][k] != first["counts"][k]})
        self.check(not moved, f"counts differ between passes: {moved}")


def run_untraced(run: Run, seconds: float, setup: Dict[str, float]) -> Dict[str, Any]:
    setups = [setup]
    if run.scale == "full":
        setups += [_fresh_setup(run.workload, run.seed)
                   for _ in range(SETUP_SAMPLES - 1)]
    calibration = [s["calibration_s"] for s in setups]
    results = harness.timed_passes(run.pass_fn(), seconds, calibration,
                                   min_passes=3 if run.scale == "full" else 2)
    passes = run.absorb(results)
    if not passes:
        raise harness.BenchError("no pass succeeded: " + "; ".join(run.failures))
    run.check_repeatable(passes)
    # One factor per run: the median calibration sample shrugs off a burst
    # that hits a 70 ms sample harder than the 1-2 s pass beside it.
    speed = harness.CALIBRATION_REF_S / statistics.median(calibration)
    host = harness.summarize([p["host_s"] * speed for p in passes])
    setup_samples = [s["raw_s"] * speed for s in setups]
    values = {
        "setup_s": statistics.median(setup_samples),
        "host_s": host["median"],
        "sim_time_s": passes[0]["sim_time_s"],
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    return {"values": values,
            "speed": {"factor": speed, "calibration_s": calibration},
            "host_s": dict(host, passes=[p["host_s"] * speed for p in passes]),
            "setup_s": {"samples": setup_samples},
            "counts": passes[0]["counts"]}


def run_traced(run: Run, allowed_cpus) -> Dict[str, Any]:
    plain, traced = [], []
    for _ in range(2 if run.scale == "full" else 1):  # interleaved: plain, traced, ...
        plain += run.absorb([harness.run_forked(run.pass_fn())])
        traced += run.absorb([harness.run_forked(run.pass_fn(traced=True))])
    if not plain or not traced:
        raise harness.BenchError("no pass succeeded: " + "; ".join(run.failures))
    run.check_repeatable(plain + traced)
    tree = traced[0]["spans"]
    for problem in run.spans.check_tree(tree, run.workload):
        run.check(False, f"span tree: {problem}")
    values = dict.fromkeys((name for name, *_ in layerbench.PER_LAYER), 0.0)
    values.update(plain[0]["counts"])
    values["trace_overhead"] = (min(p["host_s"] for p in traced)
                                / min(p["host_s"] for p in plain))
    values.update(run.layers.derived(plain[0]))
    ratios, twin_checks = run.layers.differentials(run.workload, run.inputs,
                                                   run.tmp, allowed_cpus)
    values.update(ratios)
    for ok, what in twin_checks:
        run.check(ok, what)
    values.update(run.layers.probes(
        run.workload, run.inputs, run.tmp,
        run.layers.PROBE_S if run.scale == "full" else 0.002))
    return {"values": values, "spans": tree,
            "self_time_s": run.spans.self_times(tree),
            "host_s": {"plain": [p["host_s"] for p in plain],
                       "traced": [p["host_s"] for p in traced]},
            "counts": plain[0]["counts"]}


def _fresh_setup(workload: str, seed: int) -> Dict[str, float]:
    """Set-up seconds of a fresh interpreter (imports, inputs, warm-up pass)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=harness.PASS_TIMEOUT_S * 2)
    if proc.returncode != 0:
        raise harness.BenchError(f"set-up sample failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(mods, workload: str, seed: int, seconds: float, trace: int,
                 scale: str = "full", t0: Optional[float] = None,
                 allowed_cpus=None, setup_only: bool = False) -> Dict[str, Any]:
    """Measure one workload; returns its run document."""
    t0 = time.perf_counter() if t0 is None else t0
    with harness.temp_dir() as tmp:
        run = Run(mods, workload, seed, scale, tmp)
        warm = run.absorb([harness.run_forked(run.pass_fn())])  # untimed warm-up
        if not warm:
            raise harness.BenchError("warm-up pass failed: " + "; ".join(run.failures))
        setup = {"raw_s": time.perf_counter() - t0,
                 "calibration_s": harness.calibration_seconds()}
        if setup_only:
            return setup
        if trace:
            body = run_traced(run, allowed_cpus)
            declared = {n: u for n, u, _b in layerbench.PER_LAYER}
        else:
            body = run_untraced(run, seconds, setup)
            declared = {n: u for n, u, _b, _bound in layerbench.END_TO_END}
    values = body.pop("values")
    return {
        "schema": compare.RUN_SCHEMA, "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace, "scale": scale, "inputs": run.inputs,
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures), "failures": run.failures,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
        **body,
    }


# --------------------------------------------------------------------- #
# Output.
# --------------------------------------------------------------------- #


def print_run(doc: Dict[str, Any]) -> None:
    print(f"workload {doc['workload']}  seed {doc['seed']}  "
          f"trace {doc['trace']}  scale {doc['scale']}")
    for name, m in doc["metrics"].items():
        note = ""
        if name == "host_s" and not doc["trace"]:
            h = doc["host_s"]
            note = f"   (median of n={h['n']} passes, min {h['min']:.4f} max {h['max']:.4f})"
        if name == "setup_s" and not doc["trace"]:
            note = f"   (median of {len(doc['setup_s']['samples'])} set-ups)"
        print(f"  {name:34s} {m['value']:>16.6f} {m['unit']}{note}")
    if not doc["trace"]:
        speed = doc["speed"]
        print(f"  times are at reference speed: measured seconds x {speed['factor']:.4f} "
              f"(median of {len(speed['calibration_s'])} calibration samples "
              f"{statistics.median(speed['calibration_s']):.4f} s)")
    if doc["trace"]:
        print("  self time by span (s):")
        for name, own in sorted(doc["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:32s} {own:>14.6f}")
    share = doc["failed"] / doc["attempted"]
    print(f"  fail_share {share:.6f} ratio ({doc['failed']} failed of "
          f"{doc['attempted']} attempted jobs and output checks)")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own driver process (as the driver runs them)."""
    code = 0
    for workload in layerbench.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        code = subprocess.run(argv).returncode or code
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.compare:
            return compare.compare_files(*args.compare, out=sys.stdout)
        if args.workload == "all":
            return run_all(args)
        allowed = set(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        cpu, *mods = load_program()
        if args.self_test:
            from layerbench import selftest
            return selftest.run(mods, run_workload)
        doc = run_workload(mods, args.workload, args.seed, args.seconds, args.trace,
                           t0=_T0, allowed_cpus=allowed, setup_only=args.setup_only)
        if args.setup_only:
            print(json.dumps(doc))
            return 0
        doc["cpu"] = cpu
        if args.out:
            compare.merge_run(args.out, doc)
        print_run(doc)
        return 0
    except (harness.BenchError, ValueError) as exc:  # ValueError: bad results file
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            (harness.REPO_ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
