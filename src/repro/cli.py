"""Command-line interface: run the paper's workloads from a shell.

Subcommands::

    python -m repro machines                     # Table I presets
    python -m repro jacobi  --backend gpuccl --gpus 8 --size 512
    python -m repro cg      --backend gpushmem --rows 4096
    python -m repro latency --variant uniconn:mpi --inter
    python -m repro bandwidth --variant gpuccl-native
    python -m repro tune    --gpus 64 --dump coll_table.json
    python -m repro report  --gpus 4 --trace-out trace.json  # time breakdown + trace
    python -m repro submit  --sweep app=jacobi,cg backend=mpi,gpuccl --jobs 4
    python -m repro serve   --queue jobs.jsonl   # long-running job service
    python -m repro jobs                         # result-store status table

A run verb (jacobi, cg, latency, bandwidth) is ``repro submit --app <verb>``
without a store: one JobSpec, run in-process by ``execute_job``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .options import APPS, CAPTURE_MODES, LAUNCH_MODES, MACHINES

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type of a count that must be at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a duration that must be above zero."""
    value = float(text)
    if not value > 0:  # also refuses nan
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type of a count that may be zero."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _out_path(path: str) -> str:
    """argparse type of an output file: refused before anything runs when
    it is a directory or its directory does not exist."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    return path


def _queue_path(path: str) -> str:
    """argparse type of the serve queue: a file or FIFO, which may not
    exist yet (the loop waits for it), but never a directory."""
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    return path


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

    def _job_args(sp, backend, gpus, size, iters, size_help="grid edge (nx)"):
        sp.add_argument("--backend", default=backend)
        sp.add_argument("--mode", default="PureHost", choices=LAUNCH_MODES)
        sp.add_argument("--gpus", type=int, default=gpus)
        sp.add_argument("--size", type=int, default=size, help=size_help)
        sp.add_argument("--iters", type=int, default=iters)

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
    _job_args(sp, "gpuccl", 8, 256, 20)
    sp.add_argument("--verify", action="store_true")
    _fault_args(sp)
    _sanitize_arg(sp)
    _capture_arg(sp)

    sp = sub.add_parser("cg", help="run the Conjugate Gradient solver")
    common(sp)
    sp.add_argument("--backend", default="gpuccl")
    sp.add_argument("--rows", type=int, default=4096)
    sp.add_argument("--gpus", type=int, default=8)
    sp.add_argument("--iters", type=int, default=30)
    _sanitize_arg(sp)

    for name in ("latency", "bandwidth"):
        sp = sub.add_parser(name, help=f"OSU-style {name} benchmark (2 GPUs)")
        common(sp)
        sp.add_argument("--variant", default="uniconn:gpuccl")
        sp.add_argument("--inter", action="store_true", help="use two nodes")
        sp.add_argument("--size", type=int, default=1 << 20,
                        help="largest message in bytes (sweeps 8 B up in x16 steps)")

    sp = sub.add_parser(
        "tune", help="build a collective-algorithm tuning table",
        epilog="Scores the repro.coll algorithm catalogue with the "
               "alpha-beta cost model and prints per-backend collective "
               "crossovers (docs/COLLECTIVES.md); --dump writes the banded "
               "tuning table (schema repro.coll.table) that the "
               "coll=<path> run option replays.")
    common(sp)
    sp.add_argument("--gpus", type=_positive_int, default=64,
                    help="job size the table is tuned for")
    sp.add_argument("--dump", type=_out_path, default=None, metavar="FILE",
                    help="write the table JSON here")

    sp = sub.add_parser(
        "report", help="run a Jacobi job with span tracing and print the "
                       "per-rank compute/comm/sync/idle breakdown",
        epilog="The analysis (docs/OBSERVABILITY.md) runs at obs level "
               "'spans'; --metrics-out writes the full report document "
               "(schema repro.obs.report) as JSON for tooling.")
    common(sp)
    _job_args(sp, "gpuccl", 4, 128, 10)
    sp.add_argument("--metrics-out", type=_out_path, default=None, metavar="FILE",
                    help="write the JSON report document here")
    sp.add_argument("--trace-out", type=_out_path, default=None, metavar="FILE",
                    help="also write the Chrome trace (with spans) here")
    _fault_args(sp)
    _sanitize_arg(sp)

    # ---------------- repro.serve: the job-queue service ---------------- #

    def _service_args(sp):
        sp.add_argument("--store", default=None, metavar="PATH",
                        help="result-store root (default: $REPRO_SERVE_STORE "
                             "or ~/.cache/repro-serve)")
        sp.add_argument("--jobs", type=_positive_int, default=None, metavar="N",
                        help="worker processes (default: all cores)")
        sp.add_argument("--timeout", type=_positive_float, default=None, metavar="S",
                        help="per-job wall-clock limit in seconds")
        sp.add_argument("--retries", type=_non_negative_int, default=1,
                        help="re-attempts after a failed/crashed/timed-out "
                             "job (default 1)")
        sp.add_argument("--quiet", action="store_true",
                        help="suppress per-job progress events")

    def _spec_args(sp):
        sp.add_argument("--app", default="jacobi", choices=APPS)
        _job_args(sp, "mpi", 4, 64, 8,
                  "grid edge (jacobi) / rows (cg) / max bytes (osu)")
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
    sp.add_argument("--json", type=_out_path, default=None, metavar="FILE",
                    help="write the batch's result documents here")

    sp = sub.add_parser(
        "serve", help="long-running job service consuming a JSONL queue",
        epilog="Each queue line is a JobSpec object or {\"sweep\": {...}, "
               "\"defaults\": {...}}. The loop tails the file (or FIFO) "
               "and executes new lines as they arrive; --once drains the "
               "current content and exits (the CI smoke mode).")
    _service_args(sp)
    sp.add_argument("--queue", type=_queue_path, required=True, metavar="PATH",
                    help="JSONL job file or FIFO to consume")
    sp.add_argument("--once", action="store_true",
                    help="drain what is currently readable, then exit")
    sp.add_argument("--poll", type=_positive_float, default=0.5, metavar="S",
                    help="poll interval while tailing (default 0.5s)")

    sp = sub.add_parser(
        "jobs", help="table of job statuses from the result store")
    sp.add_argument("--store", default=None, metavar="PATH",
                    help="result-store root (default: $REPRO_SERVE_STORE "
                         "or ~/.cache/repro-serve)")
    sp.add_argument("--failed", action="store_true",
                    help="show only failed jobs")
    return p


def _print_capture(stats, out) -> None:
    """Print the graph-capture summary when capture was requested."""
    cap = stats.get("capture")
    if not cap or cap.get("mode", "off") == "off":
        return
    if not cap.get("enabled", False):
        print(f"capture: disabled ({cap.get('disabled')})", file=out)
        return
    print(f"capture[{cap['mode']}]: {cap['replays']} replay(s), "
          f"{cap['iterations_skipped']} iteration(s) skipped, "
          f"{cap['events_replayed']} events replayed", file=out)


def _print_races(stats, out) -> int:
    """Print the sanitizer findings in a run's stats; returns the count
    (nonzero exit signal)."""
    races = stats.get("races")
    if not races:
        if races is not None:
            print("sanitizer: no races detected", file=out)
        return 0
    from .sanitize import RaceReport

    print(f"sanitizer: {len(races)} finding(s)", file=out)
    for r in races:
        for line in str(RaceReport(**r)).splitlines():
            print(f"  {line}", file=out)
    if stats.get("races_dropped"):
        print(f"  ... and {stats['races_dropped']} more (report cap reached)", file=out)
    return len(races)


def _spec(args, **fields):
    """The JobSpec a run verb's flags describe, or None after printing the
    ``ValueError`` that refused it (the verb then exits 2, as submit does)."""
    from .serve import JobSpec

    try:
        return JobSpec(app=fields.pop("app", args.command), machine=args.machine,
                       **fields)
    except ValueError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return None


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
    spec = _spec(args, backend=args.backend, mode=args.mode, ranks=args.gpus,
                 size=args.size, iters=args.iters, fault_spec=args.fault_spec,
                 fault_seed=args.fault_seed, sanitize=bool(args.sanitize),
                 capture=args.capture or "off", collect=args.verify)
    if spec is None:
        return 2
    from .serve.runner import execute_job, jacobi_config, solution_digest

    doc = execute_job(spec.to_dict())  # in-process: no store, no pool
    summary, report = doc["summary"], doc["report"]
    print(f"jacobi {spec.size}x{spec.size + 2} x{spec.ranks} GPUs [{spec.variant()}] "
          f"on {spec.machine}: {summary['time_per_iter_s'] * 1e6:.2f} us/iter", file=out)
    _print_capture(report["stats"], out)
    for fault in report["faults"]:
        detail = " ".join(f"{k}={v}" for k, v in fault["fields"].items())
        print(f"  fault t={fault['t']:.6g}s {fault['kind']} {detail}", file=out)
    restarts = max(r["restarts"] for r in report["results"] if r is not None)
    if restarts:
        print(f"  recovered via {restarts} checkpoint rollback(s)", file=out)
    races = _print_races(report["stats"], out)
    if args.verify:
        from .apps.jacobi import serial_jacobi

        cfg = jacobi_config(spec)
        ref = serial_jacobi(cfg, iters=cfg.warmup + cfg.iters)
        ok = summary["solution_sha256"] == solution_digest(ref)
        print(f"verification: {'PASS (bitwise)' if ok else 'FAIL'}", file=out)
        return 1 if (not ok or races) else 0
    return 1 if races else 0


def _cmd_cg(args, out) -> int:
    spec = _spec(args, backend=args.backend, ranks=args.gpus, size=args.rows,
                 iters=args.iters, sanitize=bool(args.sanitize))
    if spec is None:
        return 2
    from .serve.runner import execute_job

    doc = execute_job(spec.to_dict())
    summary = doc["summary"]
    print(f"cg n={spec.size} x{spec.ranks} GPUs [{spec.variant()}] on {spec.machine}: "
          f"{summary['time_per_iter_s'] * 1e6:.2f} us/iter, "
          f"|b-Ax|/|b| = {summary['relative_residual']:.2e}", file=out)
    return 1 if _print_races(doc["report"]["stats"], out) else 0


def _cmd_netbench(args, out) -> int:
    # No --iters here: 20 small-message iterations (5 large), the verbs' default.
    spec = _spec(args, backend=args.variant, ranks=4 if args.inter else 2,
                 size=args.size, iters=20)
    if spec is None:
        return 2
    from .serve.runner import execute_job

    (values,) = execute_job(spec.to_dict())["summary"].values()  # seconds or bytes_per_s
    scale, unit = (1e-6, "us") if args.command == "latency" else (1e9, "GB/s")
    for size, value in values.items():
        print(f"{int(size):>10d} B   {value / scale:10.2f} {unit}", file=out)
    where = "inter" if args.inter else "intra"
    print(f"[{spec.variant()}, {where}-node, {spec.machine}]", file=out)
    return 0


def _cmd_tune(args, out) -> int:
    from .coll import CollSelection, CollTuner, validate_table

    tuner = CollTuner(args.machine, args.gpus)
    table = tuner.build_table()
    sig = tuner.topo.signature()
    print(f"collective tuning table for {sig}", file=out)
    for backend in tuner.backends():
        for kind in table.entries[sig][backend]:
            bands = table.entries[sig][backend][kind]
            parts = [CollSelection(algo, protocol, channels).describe()
                     + (f" < {ceiling} B" if ceiling is not None else "")
                     for ceiling, algo, protocol, channels in bands]
            print(f"  {backend:9s} {kind:15s} {', '.join(parts)}", file=out)
    if args.dump:
        table.save(args.dump)
        import json

        with open(args.dump) as fh:
            validate_table(json.load(fh))
        print(f"table written to {args.dump} (schema valid)", file=out)
    return 0


def _cmd_report(args, out) -> int:
    spec = _spec(args, app="jacobi", backend=args.backend, mode=args.mode,
                 ranks=args.gpus, size=args.size, iters=args.iters,
                 fault_spec=args.fault_spec, fault_seed=args.fault_seed,
                 sanitize=bool(args.sanitize), obs="spans")
    if spec is None:
        return 2
    from .apps import jacobi
    from .obs import SCHEMA_NAME, SCHEMA_VERSION, analyze_records, format_report, validate_report
    from .serve.runner import jacobi_config, launch_kwargs
    from .sim import Tracer

    cfg = jacobi_config(spec)
    tracer = Tracer()  # the analysis reads the live span records
    report = jacobi.launch_variant(spec.variant(), cfg, spec.ranks, tracer=tracer,
                                   trace_out=args.trace_out, **launch_kwargs(spec))
    analysis = analyze_records(tracer.records, n_ranks=spec.ranks,
                               total_time=report.stats.get("virtual_time"))
    print(f"jacobi {cfg.nx}x{cfg.ny} x{spec.ranks} GPUs [{spec.variant()}] "
          f"on {spec.machine}", file=out)
    print(format_report(analysis), file=out)
    races = _print_races(report.stats, out)
    if args.trace_out:
        print(f"chrome trace -> {args.trace_out}", file=out)
    if args.metrics_out:
        import json

        doc = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
        doc.update(analysis.as_dict())
        doc["metrics"] = report.metrics.as_dict()
        doc["stats"] = {k: v for k, v in report.stats.items()
                        if k not in ("faults", "races")}
        doc["faults"] = [{"t": when, "kind": kind, "fields": dict(fields)}
                         for when, kind, fields in report.faults]
        if spec.sanitize:
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
    from .serve import JobSpec, ResultStore

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
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, sys.stdout if out is None else out)


_COMMANDS = {
    "machines": _cmd_machines, "jacobi": _cmd_jacobi, "cg": _cmd_cg,
    "latency": _cmd_netbench, "bandwidth": _cmd_netbench, "tune": _cmd_tune,
    "report": _cmd_report, "submit": _cmd_submit, "serve": _cmd_serve,
    "jobs": _cmd_jobs,
}
