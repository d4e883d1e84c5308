"""Command-line interface: run the paper's workloads from a shell.

Subcommands::

    python -m repro machines                     # Table I presets
    python -m repro jacobi  --backend gpuccl --gpus 8 --size 512
    python -m repro cg      --backend gpushmem --rows 4096
    python -m repro latency --variant uniconn:mpi --inter
    python -m repro bandwidth --variant gpuccl-native
    python -m repro tune    --machine perlmutter --dump table.json
    python -m repro tune    --coll --gpus 64 --dump coll_table.json
    python -m repro trace   --out trace.json     # Chrome-trace of a Jacobi run
    python -m repro report  --gpus 4             # per-rank time breakdown
    python -m repro submit  --sweep app=jacobi,cg backend=mpi,gpuccl --jobs 4
    python -m repro serve   --queue jobs.jsonl   # long-running job service
    python -m repro jobs                         # result-store status table
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .options import APPS, CAPTURE_MODES, LAUNCH_MODES, MACHINES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for tests and docs)."""
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--machine", default="perlmutter", choices=MACHINES)

    def _fault_args(sp):
        sp.add_argument("--fault-spec", default=None, metavar="SPEC",
                        help="deterministic fault plan (FaultPlan.parse syntax; "
                             "clauses ';'-separated, e.g. "
                             "'down,link=nic-out[0],start=1e-4,end=5e-4;"
                             "crash,rank=1,at=1e-3')")
        sp.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the plan's probabilistic decisions")

    def _sanitize_arg(sp):
        sp.add_argument("--sanitize", nargs="?", const="race", default=None,
                        choices=["race"],
                        help="run under the happens-before sanitizer "
                             "(docs/SANITIZER.md); races make the command "
                             "exit nonzero")

    def _capture_arg(sp):
        sp.add_argument("--capture", default=None, choices=CAPTURE_MODES,
                        help="graph capture & replay for steady-state loops "
                             "(docs/MODEL.md); replay counters are printed "
                             "after the run")

    sp = sub.add_parser("machines", help="print the Table I machine models")

    sp = sub.add_parser(
        "jacobi", help="run the Jacobi 2D solver",
        epilog="Fault injection (see docs/FAULTS.md): --fault-spec installs a "
               "deterministic fault plan, e.g. "
               "'drop,tag=0,start=1e-4,end=3e-4' for a transient message "
               "outage; --backend elastic:mpi runs the checkpoint/replay "
               "variant that survives it. A worked example lives in "
               "examples/jacobi_fault_recovery.py.")
    common(sp)
    sp.add_argument("--backend", default="gpuccl")
    sp.add_argument("--mode", default="PureHost", choices=LAUNCH_MODES)
    sp.add_argument("--gpus", type=int, default=8)
    sp.add_argument("--size", type=int, default=256, help="grid edge (nx)")
    sp.add_argument("--iters", type=int, default=20)
    sp.add_argument("--verify", action="store_true")
    _fault_args(sp)
    _sanitize_arg(sp)
    _capture_arg(sp)

    sp = sub.add_parser("cg", help="run the Conjugate Gradient solver")
    common(sp)
    sp.add_argument("--backend", default="gpuccl")
    sp.add_argument("--rows", type=int, default=4096)
    sp.add_argument("--nnz", type=int, default=33)
    sp.add_argument("--gpus", type=int, default=8)
    sp.add_argument("--iters", type=int, default=30)
    _sanitize_arg(sp)

    for name in ("latency", "bandwidth"):
        sp = sub.add_parser(name, help=f"OSU-style {name} benchmark (2 GPUs)")
        common(sp)
        sp.add_argument("--variant", default="uniconn:gpuccl")
        sp.add_argument("--inter", action="store_true", help="use two nodes")
        sp.add_argument("--sizes", type=int, nargs="*", default=None)

    sp = sub.add_parser(
        "tune", help="build a backend-selection or collective-algorithm table",
        epilog="Default: probe backend crossovers (core.selection). With "
               "--coll, score the repro.coll algorithm catalogue with the "
               "alpha-beta cost model instead and print per-backend "
               "collective crossovers; --dump then writes the banded "
               "tuning table (schema repro.coll.table) that "
               "launch(coll=<path>) replays.")
    common(sp)
    sp.add_argument("--coll", action="store_true",
                    help="tune collective algorithms (docs/COLLECTIVES.md)")
    sp.add_argument("--gpus", type=int, default=64,
                    help="job size the collective table is tuned for")
    sp.add_argument("--nodes", type=int, default=None,
                    help="node count (default: ceil(gpus / gpus_per_node))")
    sp.add_argument("--dump", default=None, metavar="FILE",
                    help="write the table JSON here")

    sp = sub.add_parser("trace", help="write a Chrome trace of a Jacobi run")
    common(sp)
    sp.add_argument("--backend", default="gpuccl")
    sp.add_argument("--gpus", type=int, default=4)
    sp.add_argument("--out", default="trace.json")
    _fault_args(sp)
    _sanitize_arg(sp)

    sp = sub.add_parser(
        "report", help="run a Jacobi job with span tracing and print the "
                       "per-rank compute/comm/sync/idle breakdown",
        epilog="The analysis (docs/OBSERVABILITY.md) runs at obs level "
               "'spans'; --metrics-out writes the full report document "
               "(schema repro.obs.report) as JSON for tooling.")
    common(sp)
    sp.add_argument("--backend", default="gpuccl")
    sp.add_argument("--mode", default="PureHost", choices=LAUNCH_MODES)
    sp.add_argument("--gpus", type=int, default=4)
    sp.add_argument("--size", type=int, default=128, help="grid edge (nx)")
    sp.add_argument("--iters", type=int, default=10)
    sp.add_argument("--metrics-out", default=None, metavar="FILE",
                    help="write the JSON report document here")
    sp.add_argument("--trace-out", default=None, metavar="FILE",
                    help="also write the Chrome trace (with spans) here")
    _fault_args(sp)
    _sanitize_arg(sp)

    # ---------------- repro.serve: the job-queue service ---------------- #

    def _service_args(sp):
        sp.add_argument("--store", default=None, metavar="PATH",
                        help="result-store root (default: $REPRO_SERVE_STORE "
                             "or ~/.cache/repro-serve)")
        sp.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all cores)")
        sp.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock limit in seconds")
        sp.add_argument("--retries", type=int, default=1,
                        help="re-attempts after a failed/crashed/timed-out "
                             "job (default 1)")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress events")

    def _spec_args(sp):
        sp.add_argument("--app", default="jacobi", choices=APPS)
        sp.add_argument("--backend", default="mpi")
        sp.add_argument("--mode", default="PureHost", choices=LAUNCH_MODES)
        sp.add_argument("--gpus", type=int, default=4)
        sp.add_argument("--size", type=int, default=64,
                        help="grid edge (jacobi) / rows (cg) / max bytes (osu)")
        sp.add_argument("--iters", type=int, default=8)
        sp.add_argument("--seed", type=int, default=0,
                        help="problem seed (cg matrix)")
        sp.add_argument("--coll", default=None,
                        help="collective policy: auto, an algorithm, or a "
                             "wire selection like ring+LL/2")
        sp.add_argument("--collect", action="store_true",
                        help="include a solution digest in the summary")
        _fault_args(sp)
        _sanitize_arg(sp)
        _capture_arg(sp)

    sp = sub.add_parser(
        "submit", help="submit simulation jobs through the cached job service",
        epilog="One spec comes from the flags; --sweep expands a matrix over "
               "them, e.g. --sweep app=jacobi,cg backend=mpi,gpuccl size=32,64 "
               "runs the 8-point cross product. Results are config-hash "
               "cached (docs/SERVE.md): resubmitting a matrix serves every "
               "duplicate from the store, bit-identical to the fresh run.")
    common(sp)
    _spec_args(sp)
    _service_args(sp)
    sp.add_argument("--sweep", nargs="+", default=None, metavar="AXIS=V1,V2",
                    help="expand a job matrix over the base spec")
    sp.add_argument("--json", default=None, metavar="FILE",
                    help="write the batch's result documents here")

    sp = sub.add_parser(
        "serve", help="long-running job service consuming a JSONL queue",
        epilog="Each queue line is a JobSpec object or {\"sweep\": {...}, "
               "\"defaults\": {...}}. The loop tails the file (or FIFO) "
               "and executes new lines as they arrive; --once drains the "
               "current content and exits (the CI smoke mode).")
    _service_args(sp)
    sp.add_argument("--queue", required=True, metavar="PATH",
                    help="JSONL job file or FIFO to consume")
    sp.add_argument("--once", action="store_true",
                    help="drain what is currently readable, then exit")
    sp.add_argument("--poll", type=float, default=0.5, metavar="S",
                    help="poll interval while tailing (default 0.5s)")

    sp = sub.add_parser(
        "jobs", help="table of job statuses from the result store")
    sp.add_argument("--store", default=None, metavar="PATH",
                    help="result-store root (default: $REPRO_SERVE_STORE "
                         "or ~/.cache/repro-serve)")
    sp.add_argument("--failed", action="store_true",
                    help="show only failed jobs")
    return p


def _print_capture(report, out) -> None:
    """Print the graph-capture summary when capture was requested."""
    cap = report.stats.get("capture")
    if not cap or cap.get("mode", "off") == "off":
        return
    if not cap.get("enabled", False):
        print(f"capture: disabled ({cap.get('disabled')})", file=out)
        return
    print(f"capture[{cap['mode']}]: {cap['replays']} replay(s), "
          f"{cap['iterations_skipped']} iteration(s) skipped, "
          f"{cap['events_replayed']} events replayed", file=out)


def _print_races(report, out) -> int:
    """Print sanitizer findings; returns the count (nonzero exit signal)."""
    races = getattr(report, "races", [])
    if not races:
        if report.stats.get("races") is not None:
            print("sanitizer: no races detected", file=out)
        return 0
    print(f"sanitizer: {len(races)} finding(s)", file=out)
    for r in races:
        for line in str(r).splitlines():
            print(f"  {line}", file=out)
    dropped = report.stats.get("races_dropped", 0)
    if dropped:
        print(f"  ... and {dropped} more (report cap reached)", file=out)
    return len(races)


def _cmd_machines(args, out) -> int:
    from .hardware import MACHINES, get_machine

    for name in sorted(MACHINES):
        m = get_machine(name)
        print(f"{name:14s} {m.gpus_per_node}x {m.gpu.name:24s} "
              f"intra {m.intra_bandwidth / 1e9:6.1f} GB/s  "
              f"NIC {m.nic_bandwidth / 1e9:5.1f} GB/s  "
              f"GPUSHMEM {'yes' if m.has_gpushmem() else 'N/A'}", file=out)
    return 0


def _cmd_jacobi(args, out) -> int:
    import numpy as np

    from .apps import variant_name
    from .apps.jacobi import JacobiConfig, assemble, launch_variant, serial_jacobi

    cfg = JacobiConfig(nx=args.size, ny=args.size + 2, iters=args.iters,
                       warmup=max(1, args.iters // 10))
    variant = variant_name(args.backend, args.mode)
    results = launch_variant(variant, cfg, args.gpus, machine=args.machine,
                             collect=args.verify,
                             fault_plan=args.fault_spec, fault_seed=args.fault_seed,
                             sanitize=args.sanitize, capture=args.capture)
    survivors = [r for r in results if r is not None]  # elastic runs lose ranks
    t = max(r.time_per_iter for r in survivors)
    print(f"jacobi {cfg.nx}x{cfg.ny} x{args.gpus} GPUs [{variant}] on {args.machine}: "
          f"{t * 1e6:.2f} us/iter", file=out)
    _print_capture(results, out)
    for when, kind, fields in results.faults:
        detail = " ".join(f"{k}={v}" for k, v in fields.items())
        print(f"  fault t={when:.6g}s {kind} {detail}", file=out)
    restarts = max(r.restarts for r in survivors)
    if restarts:
        print(f"  recovered via {restarts} checkpoint rollback(s)", file=out)
    races = _print_races(results, out)
    if args.verify:
        ref = serial_jacobi(cfg, iters=cfg.warmup + cfg.iters)
        ok = np.array_equal(assemble(cfg, survivors), ref)
        print(f"verification: {'PASS (bitwise)' if ok else 'FAIL'}", file=out)
        return 1 if (not ok or races) else 0
    return 1 if races else 0


def _cmd_cg(args, out) -> int:
    import numpy as np

    from .apps import variant_name
    from .apps.cg import CgConfig, assemble_x, final_residual, launch_variant, make_problem

    cfg = CgConfig(n=args.rows, nnz_per_row=args.nnz, iters=args.iters)
    problem = make_problem(cfg)
    variant = variant_name(args.backend)
    results = launch_variant(variant, cfg, args.gpus,
                             machine=args.machine, problem=problem, collect=True,
                             sanitize=args.sanitize)
    survivors = [r for r in results if r is not None]  # elastic runs lose ranks
    x = assemble_x(survivors, cfg.n)
    rel = final_residual(problem, x) / float(np.linalg.norm(problem.b))
    t = max(r.time_per_iter for r in survivors)
    print(f"cg n={cfg.n} x{args.gpus} GPUs [{variant}] on {args.machine}: "
          f"{t * 1e6:.2f} us/iter, |b-Ax|/|b| = {rel:.2e}", file=out)
    return 1 if _print_races(results, out) else 0


def _cmd_netbench(args, out, kind: str) -> int:
    from .apps.osu import OsuConfig, run_bandwidth, run_latency

    sizes = tuple(args.sizes) if args.sizes else (8, 1024, 65536, 1 << 20)
    cfg = OsuConfig(sizes=sizes, iters_small=20, warmup_small=2,
                    iters_large=6, warmup_large=1, repeats=3)
    run = run_latency if kind == "latency" else run_bandwidth
    res = run(args.variant, cfg, machine=args.machine, inter_node=args.inter)
    where = "inter" if args.inter else "intra"
    for size in sizes:
        if kind == "latency":
            print(f"{size:>10d} B   {res[size] * 1e6:10.2f} us", file=out)
        else:
            print(f"{size:>10d} B   {res[size] / 1e9:10.2f} GB/s", file=out)
    print(f"[{args.variant}, {where}-node, {args.machine}]", file=out)
    return 0


def _cmd_tune_coll(args, out) -> int:
    from .coll import CollTuner, validate_table

    tuner = CollTuner(args.machine, args.gpus, n_nodes=args.nodes)
    table = tuner.build_table()
    sig = tuner.topo.signature()
    print(f"collective tuning table for {sig}", file=out)
    for backend in tuner.backends():
        for kind in table.entries[sig][backend]:
            bands = table.entries[sig][backend][kind]
            parts = []
            for ceiling, algo, protocol, channels in bands:
                name = algo
                if protocol is not None:
                    name += f"+{protocol}"
                if channels != 1:
                    name += f"/{channels}"
                parts.append(
                    name + (f" < {ceiling} B" if ceiling is not None else ""))
            print(f"  {backend:9s} {kind:15s} {', '.join(parts)}", file=out)
    if args.dump:
        table.save(args.dump)
        import json

        with open(args.dump) as fh:
            validate_table(json.load(fh))
        print(f"table written to {args.dump} (schema valid)", file=out)
    return 0


def _cmd_tune(args, out) -> int:
    if args.coll:
        return _cmd_tune_coll(args, out)
    from .core.selection import SelectionTable

    table = SelectionTable.tune(args.machine, probe_sizes=(8, 512, 32768, 1 << 20), iters=12)
    for inter in (False, True):
        loc = "inter" if inter else "intra"
        for size, winner in table.crossover_sizes(inter_node=inter):
            print(f"{loc:5s} from {size:>8d} B: {winner}", file=out)
    if args.dump:
        table.save(args.dump)
        print(f"table written to {args.dump}", file=out)
    return 0


def _cmd_trace(args, out) -> int:
    from .apps import variant_name
    from .apps.jacobi import JacobiConfig, run_variant
    from .launcher import launch
    from .sim import Tracer, write_chrome_trace

    tracer = Tracer()
    cfg = JacobiConfig(nx=64, ny=66, iters=5, warmup=1)
    variant = variant_name(args.backend)
    report = launch(lambda ctx: run_variant(ctx, variant, cfg),
                    args.gpus, machine=args.machine, tracer=tracer,
                    fault_plan=args.fault_spec, fault_seed=args.fault_seed,
                    sanitize=args.sanitize)
    write_chrome_trace(tracer, args.out)
    print(f"{len(tracer.records)} events -> {args.out} "
          f"(open in chrome://tracing or Perfetto)", file=out)
    return 1 if _print_races(report, out) else 0


def _cmd_report(args, out) -> int:
    from .apps import variant_name
    from .apps.jacobi import JacobiConfig, launch_variant
    from .obs import SCHEMA_NAME, SCHEMA_VERSION, analyze_records, format_report, validate_report
    from .sim import Tracer

    variant = variant_name(args.backend, args.mode)
    cfg = JacobiConfig(nx=args.size, ny=args.size + 2, iters=args.iters,
                       warmup=max(1, args.iters // 10))
    tracer = Tracer()
    report = launch_variant(variant, cfg, args.gpus, machine=args.machine,
                            tracer=tracer, obs="spans", trace_out=args.trace_out,
                            fault_plan=args.fault_spec, fault_seed=args.fault_seed,
                            sanitize=args.sanitize)
    analysis = analyze_records(tracer.records, n_ranks=args.gpus,
                               total_time=report.stats.get("virtual_time"))
    print(f"jacobi {cfg.nx}x{cfg.ny} x{args.gpus} GPUs [{variant}] on {args.machine}",
          file=out)
    print(format_report(analysis), file=out)
    races = _print_races(report, out)
    if args.trace_out:
        print(f"chrome trace -> {args.trace_out}", file=out)
    if args.metrics_out:
        import json

        doc = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
        doc.update(analysis.as_dict())
        doc["metrics"] = report.metrics.as_dict()
        doc["stats"] = {k: v for k, v in report.stats.items()
                        if k not in ("faults", "races")}
        doc["faults"] = [
            {"t": when, "kind": kind, "fields": dict(fields)}
            for when, kind, fields in report.faults
        ]
        if args.sanitize:
            doc["races"] = [r.as_dict() for r in report.races]
        validate_report(doc)
        with open(args.metrics_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report document -> {args.metrics_out}", file=out)
    return 1 if races else 0


def _make_service(args, out):
    """Build a JobService from the shared --store/--jobs/... flags."""
    from .serve import JobService, ResultStore

    def printer(event):
        if event["event"] == "rejected":  # printed even under --quiet
            print(f"  [rejected] queue line {event['line']}: {event['error']}",
                  file=out)
            return
        if args.quiet:
            return
        label = event.get("spec") or event.get("error") or ""
        wall = event.get("wall_s")
        tail = f" ({wall:.2f}s)" if wall is not None else ""
        dedup = " [dedup]" if event.get("dedup") else ""
        print(f"  [{event['event']:>7s}] job {event['job']}"
              f"{dedup} {label}{tail}", file=out)

    store = ResultStore(args.store)
    return JobService(store, jobs=args.jobs, timeout=args.timeout,
                      retries=args.retries, events=printer)


def _print_service_summary(svc, n_docs, out) -> None:
    s = svc.summary()
    cache = s["cache"]
    rejected = s["rejected_lines"]
    print(f"{n_docs} job(s): {s['jobs']['done']:g} executed, "
          f"{cache['hits']:g} cache hit(s), {s['jobs']['failed']:g} failed, "
          f"{s['retries']:g} retrie(s), "
          f"{s['worker_respawns']:g} worker respawn(s)"
          + (f", {rejected:g} queue line(s) rejected" if rejected else ""),
          file=out)


def _cmd_submit(args, out) -> int:
    from .serve import JobSpec, expand_matrix, parse_sweep
    from .serve.store import write_documents

    base = dict(
        app=args.app, backend=args.backend, mode=args.mode,
        machine=args.machine, ranks=args.gpus, size=args.size,
        iters=args.iters, seed=args.seed, fault_spec=args.fault_spec,
        fault_seed=args.fault_seed, coll=args.coll,
        capture=args.capture or "off", sanitize=bool(args.sanitize),
        collect=args.collect,
    )
    try:
        if args.sweep:
            axes = parse_sweep(args.sweep)
            # "gpus" is the CLI spelling of the JobSpec "ranks" field.
            axes = {("ranks" if k == "gpus" else k): v for k, v in axes.items()}
            specs = [JobSpec.from_dict({**base, **point})
                     for point in expand_matrix(axes)]
        else:
            specs = [JobSpec.from_dict(base)]
    except ValueError as exc:
        print(f"repro submit: error: {exc}", file=sys.stderr)
        return 2
    svc = _make_service(args, out)
    docs = svc.run(specs)
    for spec, doc in zip(specs, docs):
        status = doc.get("status", "?")
        mark = "ok " if status == "done" else "ERR"
        detail = ""
        summary = doc.get("summary") or {}
        if "time_per_iter_s" in summary:
            detail = f"  {summary['time_per_iter_s'] * 1e6:.2f} us/iter"
        elif status == "failed":
            detail = f"  {doc.get('error', '')}"
        print(f"{mark} {spec.short_hash}  {spec.describe()}{detail}", file=out)
    _print_service_summary(svc, len(docs), out)
    if args.json:
        with open(args.json, "w") as fh:
            write_documents(docs, fh)
        print(f"result documents -> {args.json}", file=out)
    return 1 if any(d.get("status") != "done" for d in docs) else 0


def _cmd_serve(args, out) -> int:
    svc = _make_service(args, out)
    print(f"serving jobs from {args.queue} "
          f"(store: {svc.store.root}){' [once]' if args.once else ''}",
          file=out)
    try:
        n = svc.serve_loop(args.queue, poll_s=args.poll, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        n = None
        print("interrupted", file=out)
    if n is not None:
        _print_service_summary(svc, n, out)
    return 1 if svc.summary()["rejected_lines"] else 0


def _cmd_jobs(args, out) -> int:
    from .serve import ResultStore

    store = ResultStore(args.store)
    rows = list(store.jobs())
    if args.failed:
        rows = [r for r in rows if r.get("status") != "done"]
    if not rows:
        print(f"no jobs in store {store.root}", file=out)
        return 0
    print(f"{'hash':12s} {'status':7s} {'wall':>8s} {'attempts':>8s}  job",
          file=out)
    for doc in rows:
        job = doc.get("job", {})
        from .serve import JobSpec

        try:
            label = JobSpec.from_dict(job).describe()
        except (ValueError, TypeError):
            label = repr(job)
        wall = doc.get("wall_s")
        print(f"{doc.get('config_hash', '?')[:12]:12s} "
              f"{doc.get('status', '?'):7s} "
              f"{(f'{wall:.2f}s' if wall is not None else '-'):>8s} "
              f"{doc.get('attempts', 1):>8d}  {label}", file=out)
    print(f"{len(rows)} job(s) in {store.root}", file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "machines":
        return _cmd_machines(args, out)
    if args.command == "jacobi":
        return _cmd_jacobi(args, out)
    if args.command == "cg":
        return _cmd_cg(args, out)
    if args.command in ("latency", "bandwidth"):
        return _cmd_netbench(args, out, args.command)
    if args.command == "tune":
        return _cmd_tune(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "report":
        return _cmd_report(args, out)
    if args.command == "submit":
        return _cmd_submit(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "jobs":
        return _cmd_jobs(args, out)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover
