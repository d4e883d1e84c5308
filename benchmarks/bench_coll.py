"""Collective algorithm engine benchmark: fixed ring vs tuned selection.

Runs the OSU-style collective sweeps (repro.apps.osu.collectives) for
GPUCCL AllReduce and AllGather at job scale — 64 GPUs on the Perlmutter
preset — twice: once with no policy installed (the legacy fixed-ring
path) and once with ``coll="auto"`` (the repro.coll cost-model tuner
picking per message size). Virtual seconds per call and the tuned/ring
speedup are recorded per size.

The times are *virtual* (discrete-event clock), hence bit-deterministic:
``--check`` both asserts the tuned path beats fixed ring for at least one
size band of each collective AND that every time matches the committed
BENCH_coll.json baseline — any drift means the cost model, an algorithm
generator, or a backend integration changed semantics.

Cells whose largest per-rank buffer would exceed ``MAX_BUFFER_BYTES`` are
refused and printed as skipped, never allocated: the simulator holds real
numpy payloads, and a 64-GPU all_gather at 16 MiB is 64 x 1 GiB of receive
buffers. Each size is timed between its own barriers, so dropping the tail
of a sweep leaves every remaining cell's virtual time unchanged.

Usage:
    python benchmarks/bench_coll.py                  # full sweep, print
    python benchmarks/bench_coll.py --smoke          # CI-sized sweep
    python benchmarks/bench_coll.py --update         # rewrite baseline
    python benchmarks/bench_coll.py --smoke --check  # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for benchmarks._common when run as a script

from repro.apps.osu.collectives import run_collective  # noqa: E402
from repro.apps.osu.config import OsuConfig  # noqa: E402

SCHEMA = "repro-bench-coll/1"
BASELINE_PATH = REPO_ROOT / "BENCH_coll.json"
REL_TOLERANCE = 1e-9  # virtual times are deterministic; allow float noise

MACHINE = "perlmutter"
GPUS = 64
KINDS = ("all_reduce", "all_gather")

SIZES = {
    "full": tuple(1 << k for k in range(6, 26, 2)),   # 64 B .. 16 MiB
    "smoke": (64, 8192, 1 << 20, 16 << 20),
}

#: Largest buffer one rank may allocate (the cap benchmarks/perf applies).
MAX_BUFFER_BYTES = 16 << 20


def _per_rank_bytes(kind: str, size: int) -> int:
    return size * GPUS if kind == "all_gather" else size


def _cfg(scale: str, kind: str) -> OsuConfig:
    sizes = tuple(s for s in SIZES[scale]
                  if _per_rank_bytes(kind, s) <= MAX_BUFFER_BYTES)
    if scale == "full":
        return OsuConfig(sizes=sizes, iters_small=8, warmup_small=2,
                         iters_large=4, warmup_large=1, repeats=1)
    return OsuConfig(sizes=sizes, iters_small=4, warmup_small=1,
                     iters_large=2, warmup_large=1, repeats=1)


# Policy column of each benchmark cell -> the launch(coll=...) argument.
# "simple" is the NCCL legacy default (bandwidth-optimized ring on the
# Simple protocol, one channel) the protocol rows compare against; small
# messages are where LL pays off (no rendezvous round-trip), and the
# check gate requires the tuned small-message AllReduce to win >= 1.5x.
POLICIES = {"ring": None, "tuned": "auto", "simple": "ring+Simple"}


def run_cell(payload: dict) -> dict:
    """One (kind, policy) sweep — the worker-pool unit."""
    cfg = _cfg(payload["scale"], payload["kind"])
    times = run_collective("gpuccl", payload["kind"], cfg, machine=MACHINE,
                           gpus=GPUS, coll=POLICIES[payload["policy"]])
    return {str(size): times[size] for size in cfg.sizes}


def run(scale: str, jobs: int = 1) -> dict:
    from benchmarks._common import expand_matrix
    from repro.serve import WorkerPool

    for kind in KINDS:
        for size in SIZES[scale]:
            per_rank = _per_rank_bytes(kind, size)
            if per_rank > MAX_BUFFER_BYTES:
                print(f"skipped {kind}/{size}: {per_rank} B per rank "
                      f"exceeds the {MAX_BUFFER_BYTES} B buffer cap")
    # The benchmark grid is the (kind x policy) cross product, run through
    # the repro.serve pool at every --jobs value; virtual times are
    # deterministic, so the worker count never shows in the results.
    cells = expand_matrix({"kind": list(KINDS), "policy": list(POLICIES)})
    for cell in cells:
        cell["scale"] = scale
    pool = WorkerPool(run_cell, jobs=jobs)
    outcomes = pool.run(cells, job_ids=[f"{c['kind']}/{c['policy']}"
                                       for c in cells])
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(f"benchmark cells failed: "
                           f"{[(o.job_id, o.error) for o in failed]}")
    times = {(c["kind"], c["policy"]): o.result
             for c, o in zip(cells, outcomes)}

    results = {}
    for kind in KINDS:
        cfg = _cfg(scale, kind)
        ring = times[(kind, "ring")]
        tuned = times[(kind, "tuned")]
        simple = times[(kind, "simple")]
        results[kind] = {
            str(size): {
                "ring_s": ring[str(size)],
                "tuned_s": tuned[str(size)],
                "speedup": ring[str(size)] / tuned[str(size)],
            }
            for size in cfg.sizes
        }
        results[f"coll_protocol_{kind}"] = {
            str(size): {
                "simple_s": simple[str(size)],
                "tuned_s": tuned[str(size)],
                "speedup": simple[str(size)] / tuned[str(size)],
            }
            for size in cfg.sizes
        }
    return results


def render(results: dict, out=sys.stdout) -> None:
    for kind, rows in results.items():
        base = "simple" if kind.startswith("coll_protocol_") else "ring"
        print(f"\ngpuccl {kind} @{GPUS} GPUs on {MACHINE} (virtual time/call):",
              file=out)
        print(f"{'bytes':>10s} {base:>12s} {'tuned':>12s} {'speedup':>8s}",
              file=out)
        for size, row in rows.items():
            print(f"{int(size):>10d} {row[base + '_s'] * 1e6:>10.2f}us "
                  f"{row['tuned_s'] * 1e6:>10.2f}us {row['speedup']:>7.2f}x",
                  file=out)


def check(results: dict, scale: str) -> int:
    failures = []
    for kind, rows in results.items():
        if not any(row["speedup"] > 1.0 for row in rows.values()):
            failures.append(f"{kind}: tuned never beats the baseline path")
    # Protocol fidelity gate: LL's rendezvous-free small-message path must
    # buy the tuned AllReduce >= 1.5x over Simple-only at the smallest size.
    proto_ar = results.get("coll_protocol_all_reduce")
    if proto_ar:
        smallest = min(proto_ar, key=int)
        sp = proto_ar[smallest]["speedup"]
        if sp < 1.5:
            failures.append(
                f"coll_protocol_all_reduce@{smallest}B: tuned only {sp:.2f}x "
                "over Simple-only (need >= 1.5x)")
    if BASELINE_PATH.exists():
        doc = json.loads(BASELINE_PATH.read_text())
        baseline = doc.get("scales", {}).get(scale)
        if baseline is None:
            failures.append(f"baseline has no '{scale}' scale "
                            f"(run --{scale} --update)")
        else:
            for kind, rows in results.items():
                for size, row in rows.items():
                    ref = baseline.get(kind, {}).get(size)
                    if ref is None:
                        failures.append(f"{kind}/{size}: not in baseline")
                        continue
                    fields = ("simple_s", "tuned_s") \
                        if kind.startswith("coll_protocol_") \
                        else ("ring_s", "tuned_s")
                    for field in fields:
                        a, b = row[field], ref[field]
                        if abs(a - b) > REL_TOLERANCE * max(abs(a), abs(b)):
                            failures.append(
                                f"{kind}/{size}/{field}: {a!r} != baseline "
                                f"{b!r} (virtual time drifted)")
    else:
        failures.append(f"no baseline at {BASELINE_PATH} (run --update)")
    for f in failures:
        print(f"CHECK FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"bench_coll --check OK ({scale}: tuned beats ring, "
              f"virtual times match baseline)")
    return 1 if failures else 0


def update(results: dict, scale: str) -> None:
    doc = {"schema": SCHEMA, "machine": MACHINE, "gpus": GPUS, "scales": {}}
    if BASELINE_PATH.exists():
        old = json.loads(BASELINE_PATH.read_text())
        if old.get("schema") == SCHEMA:
            doc["scales"] = old.get("scales", {})
    doc["scales"][scale] = results
    BASELINE_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"baseline written to {BASELINE_PATH}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true", help="CI-sized sweep")
    ap.add_argument("--check", action="store_true",
                    help="fail on regression vs BENCH_coll.json")
    ap.add_argument("--update", action="store_true", help="rewrite baseline")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes of the repro.serve pool the "
                         "(kind, policy) cells run in (default 1; each cell "
                         "holds up to 64 ranks x 2 buffers of "
                         "MAX_BUFFER_BYTES, ~2 GiB)")
    args = ap.parse_args()
    scale = "smoke" if args.smoke else "full"
    results = run(scale, jobs=args.jobs)
    render(results)
    if args.update:
        update(results, scale)
    if args.check:
        return check(results, scale)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
