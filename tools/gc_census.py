"""What one launch leaves for the cycle collector (make leak-check).

Runs a named variant once under ``gc.disable()`` + ``gc.DEBUG_SAVEALL``,
drops the report, collects, and describes what the collector found — the
objects that did *not* die by reference count:

- the count, and a histogram by type (functions by qualified name, cells
  by the type they hold);
- the non-trivial strongly connected components — the knots — with their
  internal edges as ``type -> type x count``, and self-referencing objects;
- with ``--iters A,B``, the per-type growth between two iteration counts
  (a knot tied per iteration, per collective or per kernel launch).

``--check`` runs the pinned list (``CHECK_VARIANTS`` at 16 ranks, the four
failure paths, and twice 40 launches under ``gc.disable()`` whose RSS must
stay flat: one Jacobi job repeated, and CG jobs each on a problem of its
own, which ``make_problem`` must not keep) and exits 1 with the report of
whatever broke the contract of
docs/MODEL.md section 7, "Memory: who frees what": per launch fewer than
``LIMIT`` objects, the same number at two iteration counts, and no buffer,
array, schedule, task or engine among them.
"""

import argparse
import gc
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

LIMIT = 100
#: Type names that must never be left to the collector.
FORBIDDEN = ("DeviceBuffer", "SymBuffer", "ndarray", "Schedule", "csr_matrix",
             "Task", "Engine")
RSS_LAUNCHES, RSS_FROM, RSS_LIMIT_MB = 40, 5, 5.0

JACOBI = ("uniconn:mpi", "uniconn:mpi-rma", "uniconn:gpuccl", "uniconn:gpushmem",
          "uniconn:gpushmem:PartialDevice", "uniconn:gpushmem:PureDevice",
          "mpi-native", "gpuccl-native", "elastic:mpi")
BACKENDS = ("mpi", "gpuccl", "gpushmem")
APPS = [f"jacobi/{v}" for v in JACOBI] + [f"cg/uniconn:{b}" for b in BACKENDS]
#: The pinned list (tests/test_refcount_clean.py runs it at 8 ranks): every
#: app variant under obs metrics and spans, the sanitizer and one coll="auto"
#: collective sweep per backend.
CHECK_VARIANTS = (
    APPS + [f"{name}@spans" for name in APPS]
    + [f"jacobi/uniconn:{b}@race" for b in BACKENDS]
    + [f"osu/{b}@auto" for b in BACKENDS]
)
FAILURES = ("fail/raise", "fail/deadlock", "fail/watchdog", "fail/lost-rank")


def runner(name, ranks, iters):
    """A zero-argument callable launching ``name`` once and returning its
    RunReport. Names are ``<app>/<variant>[@<how>]`` with ``how`` one of
    spans, race, auto."""
    spec, _, how = name.partition("@")
    app, _, variant = spec.partition("/")
    options = {"spans": {"obs": "spans"}, "race": {"sanitize": "race"},
               "auto": {"coll": "auto"}, "": {}}[how]
    if app == "fail":
        return _failure(variant, ranks, iters)
    if app == "jacobi":
        from repro.apps import jacobi

        cfg = jacobi.JacobiConfig(nx=64, ny=ranks * 4 + 2, iters=iters, warmup=1)
        return lambda: jacobi.launch_variant(variant, cfg, ranks, **options)
    if app == "cg":
        from repro.apps import cg

        cfg = cg.CgConfig(n=ranks * 32, nnz_per_row=9, iters=iters, seed=3)
        return lambda: cg.launch_variant(variant, cfg, ranks, **options)
    if app == "osu":
        from repro.apps.osu import OsuConfig
        from repro.apps.osu.collectives import _collective_body
        from repro.launcher import launch

        cfg = OsuConfig(sizes=(64, 65536), iters_small=iters, warmup_small=1,
                        iters_large=iters, warmup_large=1, repeats=1)
        return lambda: launch(_collective_body, ranks,
                              args=(cfg, variant, "all_reduce"), **options)
    raise SystemExit(f"unknown variant {name!r}")


def _failure(kind, ranks, iters):
    """The four ways a launch ends badly; each must tear down like a clean one."""
    from repro.apps import jacobi
    from repro.errors import DeadlockError, SimTimeoutError
    from repro.launcher import launch

    def body(ctx, lose):
        from repro.backends.mpi import MpiContext
        from repro.gpu import ExternalOp

        device = ctx.set_device(ctx.node_rank)
        buf = device.malloc(64)
        world = MpiContext(ctx).comm_world
        for _ in range(iters):
            world.allreduce(buf, buf, 64)
        if ctx.rank == 1 and lose == "raise":
            raise RuntimeError("rank 1 gives up")
        if ctx.rank != 1:
            # A stream op nobody finishes and a receive nobody sends.
            device.create_stream().enqueue(
                ExternalOp(ctx.engine, "stuck", lambda op: None))
            world.recv(buf, 4, src=1, tag=7)

    if kind == "lost-rank":
        # Long enough, at either iteration count, to be mid-exchange when
        # the rank dies: survivors time out, revoke, shrink and replay.
        cfg = jacobi.JacobiConfig(nx=64, ny=ranks * 4 + 2, iters=iters + 12, warmup=1)
        plan = "crash,rank=1,at=4e-5;watchdog,timeout=5e-3"
        return lambda: jacobi.launch_variant("elastic:mpi", cfg, ranks, fault_plan=plan)
    expect, plan = {"raise": (RuntimeError, None), "deadlock": (DeadlockError, None),
                    "watchdog": (SimTimeoutError, "watchdog,timeout=5e-3")}[kind]

    def run():
        try:
            launch(body, ranks, args=(kind,), fault_plan=plan)
        except expect:
            return None
        raise AssertionError(f"fail/{kind}: expected {expect.__name__}")

    return run


@contextmanager
def collector_off():
    """Collect once, then keep the collector off for the block."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def census(run):
    """Run once with the collector off, drop whatever ``run`` returns, and
    return what the collector then finds."""
    with collector_off():
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


def label(obj):
    """Type name; functions by qualified name, cells by content type."""
    kind = type(obj).__name__
    if kind == "function":
        return f"function {obj.__qualname__}"
    if kind == "method":
        return f"method {getattr(obj.__func__, '__qualname__', '?')}"
    if kind == "cell":
        try:
            return f"cell[{type(obj.cell_contents).__name__}]"
        except ValueError:
            return "cell[empty]"
    return kind


def histogram(garbage):
    return Counter(label(o) for o in garbage)


def components(garbage):
    """Strongly connected components of the garbage graph with more than
    one member, largest first, plus the objects that reference themselves
    (iterative Tarjan: the graph is as deep as the longest op chain)."""
    index_of = {id(o): i for i, o in enumerate(garbage)}
    edges = [[index_of[id(r)] for r in gc.get_referents(o) if id(r) in index_of]
             for o in garbage]
    n = len(garbage)
    order, low, on_stack = [-1] * n, [0] * n, [False] * n
    stack, sccs, counter = [], [], 0
    for root in range(n):
        if order[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, i = work.pop()
            if i == 0:
                order[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for j in range(i, len(edges[v])):
                w = edges[v][j]
                if order[w] == -1:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            if descended:
                continue
            if low[v] == order[v]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                if len(scc) > 1:
                    sccs.append(scc)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    selfrefs = [garbage[v] for v in range(n) if v in edges[v]]
    knots = []
    for scc in sorted(sccs, key=len, reverse=True):
        members = set(scc)
        internal = Counter((label(garbage[v]), label(garbage[w]))
                           for v in scc for w in edges[v] if w in members)
        knots.append((len(scc), internal))
    return knots, selfrefs


def report(name, garbage, top=25):
    print(f"{name}: {len(garbage)} objects left to the collector")
    for kind, count in histogram(garbage).most_common(top):
        print(f"  {count:6d}  {kind}")
    knots, selfrefs = components(garbage)
    # Many knots share one shape (one per rank, per op): print each shape once.
    shapes = Counter((size, tuple(sorted(internal.items()))) for size, internal in knots)
    for (size, internal), times in shapes.most_common(top):
        print(f"  knot of {size} objects x {times}:")
        for (src, dst), count in internal:
            print(f"      {src} -> {dst} x {count}")
    for kind, count in Counter(label(o) for o in selfrefs).most_common(top):
        print(f"  self-referencing: {kind} x {count}")


def growth(name, ranks, a, b):
    first, second = (histogram(census(runner(name, ranks, n))) for n in (a, b))
    total = sum(second.values()) - sum(first.values())
    print(f"{name}: {sum(first.values())} objects at {a} iterations, "
          f"{sum(second.values())} at {b} ({total:+d})")
    for kind in sorted(first | second, key=lambda k: first[k] - second[k]):
        if second[kind] != first[kind]:
            print(f"  {second[kind] - first[kind]:+6d}  {kind}")


def violations(name, ranks, iters=(4, 12)):
    """Why ``name`` breaks the contract, as lines of text ([] if it holds)."""
    counts, problems, worst = [], [], []
    for n in iters:
        garbage = census(runner(name, ranks, n))
        counts.append(len(garbage))
        bad = Counter(type(o).__name__ for o in garbage if type(o).__name__ in FORBIDDEN)
        if bad:
            problems.append(f"{n} iterations leave {dict(bad)}")
        worst = garbage
    if max(counts) >= LIMIT:
        problems.append(f"{max(counts)} objects (limit {LIMIT})")
    if len(set(counts)) > 1:
        problems.append(f"grows with iterations: {counts} at {list(iters)}")
    return problems, worst


def rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_growth(run):
    """RSS after launch RSS_LAUNCHES minus RSS after launch RSS_FROM, all
    under gc.disable(): nothing but reference counts frees anything.
    ``run(i)`` makes launch ``i``."""
    with collector_off():
        for i in range(1, RSS_LAUNCHES + 1):
            run(i)
            if i == RSS_FROM:
                base = rss_mb()
        return rss_mb() - base


def _cg_on_seed(ranks):
    """Launch ``i`` solves a CG problem of its own (seed ``i``, ~0.5 MB):
    ``make_problem`` must let each go when it builds the next."""
    from repro.apps import cg

    def run(seed):
        cfg = cg.CgConfig(n=4096, nnz_per_row=9, iters=2, seed=seed)
        cg.launch_variant("uniconn:mpi", cfg, ranks)

    return run


def check(ranks):
    # First, on a heap no earlier collection has left room in: freed
    # garbage would absorb a leak that this is there to see.
    jacobi = runner("jacobi/uniconn:mpi", ranks, 8)
    failed = 0
    for what, run in (("rss", lambda i: jacobi()),
                      ("rss cg, a new problem per launch", _cg_on_seed(ranks))):
        grown = rss_growth(run)
        bad = grown >= RSS_LIMIT_MB
        failed += bad
        print(f"{'FAIL' if bad else 'ok  '} {what}: launch {RSS_LAUNCHES} "
              f"vs launch {RSS_FROM} under gc.disable(): {grown:+.1f} MB "
              f"(limit {RSS_LIMIT_MB:g})")
    for name in list(CHECK_VARIANTS) + list(FAILURES):
        problems, garbage = violations(name, ranks)
        print(f"{'FAIL' if problems else 'ok  '} {name}"
              + "".join(f"\n     {p}" for p in problems))
        if problems:
            failed += 1
            report(name, garbage)
    print(f"leak-check: {failed} problem(s)")
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("variant", nargs="?", default="jacobi/uniconn:mpi",
                    help="<jacobi|cg|osu|fail>/<variant>[@spans|@race|@auto]")
    ap.add_argument("--ranks", type=int, default=16)
    ap.add_argument("--iters", default="5",
                    help="iteration count, or A,B for the per-type growth between two")
    ap.add_argument("--check", action="store_true",
                    help="run the pinned list; exit 1 on any violation")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.ranks)
    iters = [int(x) for x in args.iters.split(",")]
    if len(iters) == 2:
        growth(args.variant, args.ranks, *iters)
    else:
        report(args.variant, census(runner(args.variant, args.ranks, iters[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
