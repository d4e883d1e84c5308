"""SPMD job launcher over a simulated cluster.

``launch(fn, n_ranks, machine=...)`` is the simulated ``srun -n N ./app``:
it builds the cluster, starts one simulated process per rank, and hands each
a :class:`RankContext` — the per-process view (rank ids, device selection)
that the backend libraries and Uniconn's ``Environment`` build on.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Union

from .errors import HardwareError
from .gpu.device import Device
from .hardware.cluster import Cluster
from .hardware.machines import MachineSpec, get_machine
from .obs.metrics import MetricsRegistry
from .options import CAPTURE_MODES, OBS_LEVELS
from .sim import CaptureRuntime, Engine, Tracer, run_spmd

__all__ = ["Job", "RankContext", "RunReport", "launch"]


class Job:
    """State shared by all ranks of one simulated job."""

    def __init__(self, engine: Engine, cluster: Cluster, n_ranks: int, placement: str = "block"):
        if placement not in ("block", "spread"):
            raise HardwareError(f"unknown placement {placement!r} (block|spread)")
        self.engine = engine
        self.cluster = cluster
        self.n_ranks = n_ranks
        self.placement = placement
        self._devices: Dict[int, Device] = {}
        self._shared: Dict[Any, Any] = {}
        #: node index -> ranks placed on it.
        self.node_sizes = Counter(self.node_of_rank(r) for r in range(n_ranks))

    def node_of_rank(self, rank: int) -> int:
        """Node index a rank is placed on under this job's placement."""
        if self.placement == "block":
            return rank // self.cluster.gpus_per_node
        return rank % self.cluster.n_nodes

    def node_rank_of(self, rank: int) -> int:
        """Node-local index of a rank under this job's placement."""
        if self.placement == "block":
            return rank % self.cluster.gpus_per_node
        return rank // self.cluster.n_nodes

    def device(self, gpu_id: int) -> Device:
        """The singleton :class:`Device` for one physical GPU."""
        dev = self._devices.get(gpu_id)
        if dev is None:
            dev = Device(self.engine, self.cluster, gpu_id)
            self._devices[gpu_id] = dev
        return dev

    def device_moved(self, rank: int) -> None:
        """A rank selected another GPU: every shared world that fixed
        something from the old one (a ``device_moved(rank)`` method) hears
        of it."""
        for state in self._shared.values():
            moved = getattr(state, "device_moved", None)
            if moved is not None:
                moved(rank)

    def shared_state(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Create-once shared state (backends keep their matchers here)."""
        if key not in self._shared:
            self._shared[key] = factory()
        return self._shared[key]

    def close(self) -> None:
        """Tear the finished job down (``launch`` calls this last): each
        shared world unties its own knots through its ``close()``, then the
        job lets go of worlds and devices, so that whatever the caller
        still holds — the report, a buffer — pins nothing else."""
        for state in self._shared.values():
            close = getattr(state, "close", None)
            if close is not None:
                close()
        self._shared.clear()
        for device in self._devices.values():
            device.close()
        self._devices.clear()


class RunReport(list):
    """Per-rank results plus run-level observability, returned by ``launch``.

    A ``RunReport`` *is* the per-rank results list (indexing, iteration and
    equality behave exactly as before the redesign), with run-level data as
    attributes:

    - ``stats``: engine scheduler counters plus ``virtual_time`` (and
      ``faults`` when an injector was installed);
    - ``metrics``: the run's :class:`~repro.obs.MetricsRegistry`;
    - ``faults``: the injected-fault log (empty list for healthy runs);
    - ``trace_path``: where the Chrome trace was written (``trace_out=``),
      or None;
    - ``races``: :class:`~repro.sanitize.RaceReport` list from the
      happens-before sanitizer (empty unless ``sanitize="race"``).
    """

    __slots__ = ("stats", "metrics", "faults", "trace_path", "races")

    def __init__(self, results=()):
        super().__init__(results)
        self.stats: Dict[str, Any] = {}
        self.metrics: MetricsRegistry = MetricsRegistry(enabled=False)
        self.faults: List[Any] = []
        self.trace_path: Optional[str] = None
        self.races: List[Any] = []

    # ------------------------------------------------------------------ #
    # JSON round trip (the repro.serve result store persists this form).

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot: per-rank result summaries, stats, metrics,
        faults, races, capture counters, trace path (as a string).

        Per-rank results are summarized structurally — numpy arrays become
        ``{"__ndarray__": {sha256, shape, dtype}}`` digests, so bit-level
        comparisons survive serialization without shipping payloads.
        ``RunReport.from_dict(report.to_dict())`` round-trips: serializing
        the rebuilt report yields the identical document.
        """
        return {
            "results": [_jsonify_result(r) for r in self],
            "stats": {k: _jsonify_stats_value(k, v) for k, v in self.stats.items()},
            "metrics": self.metrics.as_dict(),
            "faults": [_fault_entry(f) for f in self.faults],
            "races": [r if isinstance(r, dict) else r.as_dict() for r in self.races],
            "trace_path": None if self.trace_path is None else str(self.trace_path),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Per-rank results come back as plain dicts (array payloads stay
        digests) and races as plain dicts; stats/metrics/faults/trace_path
        are faithful.
        """
        report = cls(d.get("results", ()))
        report.stats = dict(d.get("stats", {}))
        report.metrics = MetricsRegistry.from_dict(d.get("metrics", {}))
        report.faults = [
            (e["t"], e["kind"], dict(e["fields"])) for e in d.get("faults", ())
        ]
        report.races = list(d.get("races", ()))
        report.trace_path = d.get("trace_path")
        return report


def _fault_entry(f) -> Dict[str, Any]:
    """One injected fault as ``{"t", "kind", "fields"}`` (idempotent)."""
    if isinstance(f, dict):
        return {"t": f["t"], "kind": f["kind"], "fields": dict(f["fields"])}
    when, kind, fields = f
    return {"t": when, "kind": kind, "fields": dict(fields)}


def _jsonify_stats_value(key: str, value: Any) -> Any:
    if key == "faults":
        return [_fault_entry(f) for f in value]
    return _jsonify_result(value)


def _jsonify_result(value: Any) -> Any:
    """Recursively convert one per-rank result to JSON-safe data.

    Dataclasses become field dicts, numpy scalars become Python numbers,
    and arrays become content digests — large payloads never land in the
    store, but bitwise equality of two runs is still decidable from the
    serialized form.
    """
    import dataclasses

    import numpy as np

    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        import hashlib

        data = np.ascontiguousarray(value)
        return {"__ndarray__": {
            "sha256": hashlib.sha256(data.tobytes()).hexdigest(),
            "shape": list(data.shape),
            "dtype": str(data.dtype),
        }}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify_result(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonify_result(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify_result(v) for v in value]
    return repr(value)


class RankContext:
    """One rank's view of the job (the simulated process environment)."""

    def __init__(self, job: Job, rank: int):
        self.job = job
        self.rank = rank
        self.world_size = job.n_ranks
        self.engine = job.engine
        self.cluster = job.cluster
        self.node = job.node_of_rank(rank)
        self.node_rank = job.node_rank_of(rank)
        self.node_size = job.node_sizes[self.node]
        self.device: Optional[Device] = None

    def set_device(self, local_index: int) -> Device:
        """Select this rank's GPU by node-local index (cudaSetDevice)."""
        gpn = self.job.cluster.gpus_per_node
        if not 0 <= local_index < gpn:
            raise HardwareError(f"local device index {local_index} out of range [0,{gpn})")
        device = self.job.device(self.node * gpn + local_index)
        if device is not self.device:
            self.device = device
            self.job.device_moved(self.rank)
        return device

    def require_device(self) -> Device:
        """The selected GPU, or an error if set_device was never called."""
        if self.device is None:
            raise HardwareError(f"rank {self.rank}: no GPU selected (call set_device)")
        return self.device

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext rank={self.rank}/{self.world_size} node={self.node}>"


def launch(
    fn: Callable[..., Any],
    n_ranks: int,
    machine: Union[str, MachineSpec] = "perlmutter",
    *,
    args: tuple = (),
    n_nodes: Optional[int] = None,
    placement: str = "block",
    tracer: Optional[Tracer] = None,
    fault_plan: Union["FaultPlan", str, None] = None,
    fault_seed: Optional[int] = None,
    obs: Optional[str] = None,
    trace_out: Optional[str] = None,
    sanitize: Union[str, bool, None] = None,
    coll: Any = None,
    capture: Optional[str] = None,
) -> "RunReport":
    """Run ``fn(ctx, *args)`` on ``n_ranks`` simulated ranks.

    Returns a :class:`RunReport` — the per-rank results list, carrying the
    run's ``stats``, ``metrics``, ``faults`` and ``trace_path`` as
    attributes. This is the one place the run options below are named,
    validated and defaulted (the app launchers forward them untouched);
    ``None`` means the literal default stated here, never the process-global
    config or the environment.

    ``placement="block"`` (default, the paper's experiments) fills nodes in
    rank order; ``placement="spread"`` distributes ranks cyclically over
    ``n_nodes`` nodes (srun's cyclic distribution) — used by the inter-node
    two-GPU microbenchmarks.

    ``obs`` selects the observability level (``"off"``/``"metrics"``/
    ``"spans"``, default ``"metrics"``): ``"metrics"`` collects host-side
    counters in ``report.metrics`` with zero effect on virtual time or
    traces; ``"spans"`` additionally emits begin/end span records into the
    run's tracer for the :mod:`repro.obs` analyzer and ``repro report``
    (with neither ``tracer`` nor ``trace_out`` it is the ``"metrics"`` run).
    ``trace_out``, if given, writes the Chrome trace there after the run
    (creating a tracer when the caller passed none) and records the path
    in ``report.trace_path``; the path is opened before the run, so an
    unwritable one raises ``OSError`` at once, and a write that fails after
    a rank raised never replaces the rank's exception.

    ``sanitize`` enables the happens-before race & memory sanitizer
    (``"race"`` or True; None/False is off): every access to simulated device
    memory is checked for conflicting pairs with no happens-before path,
    and findings land in ``report.races`` (and ``stats["races"]``) as
    :class:`~repro.sanitize.RaceReport` objects.
    With the sanitizer off the run is untouched — traces are byte-identical.

    ``coll`` installs a collective algorithm policy (:mod:`repro.coll`):
    an algorithm name ("ring"/"tree"/"recdbl"/"bruck"/"hier") forces that
    schedule where applicable, ``"auto"`` selects per message size with
    the cost model, and a :class:`~repro.coll.CollTable` (or a path to a
    dumped table) replays saved selections. None (the default), False and
    ``"off"`` leave every backend on its default algorithm (the one a
    policy that selects it would run: identical traces).

    ``capture`` selects graph capture & replay (:mod:`repro.sim.capture`;
    ``"off"``/``"regions"``, default ``"off"``): annotated
    steady-state loops are recorded into a replay IR and, once their
    fingerprint stabilizes, replayed as a fused pre-resolved schedule with
    byte-identical traces. Counters land in ``report.stats["capture"]``.
    Fault injection or the sanitizer disable capture for the whole run
    (live execution, reason recorded).

    ``fault_plan`` (a :class:`~repro.sim.FaultPlan` or a spec string for
    ``FaultPlan.parse``) installs deterministic fault injection seeded by
    ``fault_seed`` (default 0) — see :mod:`repro.sim.faults`. The default
    (no plan) adds nothing to the run. The injected fault log lands in
    ``report.faults`` (and ``stats["faults"]``).
    """
    spec = get_machine(machine) if isinstance(machine, str) else machine
    min_nodes = math.ceil(n_ranks / spec.gpus_per_node)
    if n_nodes is None:
        n_nodes = min_nodes
    elif placement == "block" and n_nodes < min_nodes:
        raise HardwareError(f"{n_ranks} ranks need >= {min_nodes} nodes, got {n_nodes}")
    if obs is None:
        obs = "metrics"
    if obs not in OBS_LEVELS:
        raise ValueError(f"unknown obs level {obs!r} ({'|'.join(OBS_LEVELS)})")
    from .sanitize import Sanitizer, resolve_mode

    san_mode = resolve_mode(sanitize)
    if trace_out is not None:
        # An unwritable path fails here (the OSError names it), not after
        # the whole job has been simulated.
        with open(trace_out, "a"):
            pass
    engine = Engine()
    engine.metrics.enabled = obs != "off"
    if san_mode is not None:
        engine.sanitizer = Sanitizer(engine, mode=san_mode)
    from .coll import resolve_policy

    engine.coll = resolve_policy(coll)
    if tracer is None and trace_out is not None:
        tracer = Tracer()
    if tracer is not None:
        tracer.install(engine)
        # A span is a record in a tracer: with no sink, "spans" is "metrics".
        engine.obs_spans = obs == "spans"
    cluster = Cluster(spec, n_nodes)
    injector = _make_injector(engine, cluster, fault_plan, fault_seed)
    if capture is None:
        capture = "off"
    if capture not in CAPTURE_MODES:
        raise ValueError(f"unknown capture mode {capture!r} "
                         f"({'|'.join(CAPTURE_MODES)})")
    cap_rt = None
    capture_blocked = None
    if capture != "off":
        # Nondeterministic machinery and replay don't mix: live fallback.
        if injector is not None:
            capture_blocked = "fault-injector"
        elif engine.sanitizer is not None:
            capture_blocked = "sanitizer"
        else:
            cap_rt = CaptureRuntime(engine)
            engine.capture = cap_rt

            # Link busy_until anchors are absolute virtual times; a replay
            # takeover must translate them by the skipped span or post-replay
            # transfers would see every link as long idle. Owning this shift
            # here (once per engine, covering the whole cluster) lets the
            # capture verifier accept steady-state periodic congestion.
            def _shift_links(span: float, _cluster=cluster) -> None:
                for link in _cluster.links():
                    link.busy_until += span

            engine.time_shift_hooks.append(_shift_links)
            cap_rt.congestion_safe = True
    job = Job(engine, cluster, n_ranks, placement=placement)

    def body(rank: int) -> Any:
        if engine.sanitizer is not None:
            engine.sanitizer.bind_rank(rank)
        return fn(RankContext(job, rank), *args)

    report = RunReport()
    failed = False
    try:
        report.extend(run_spmd(n_ranks, body, engine=engine))
        return report
    except BaseException as exc:
        # Let callers inspect partial observability (including any races
        # found before the failure) when a rank raises.
        exc.run_report = report
        failed = True  # (a flag: holding `exc` here would pin this frame)
        raise
    finally:
        if engine.sanitizer is not None:
            report.races = list(engine.sanitizer.reports)
            report.stats["races"] = [r.as_dict() for r in report.races]
            if engine.sanitizer.dropped:
                report.stats["races_dropped"] = engine.sanitizer.dropped
            report.stats["sanitizer"] = engine.sanitizer.stats()
        report.stats.update(engine.stats.as_dict())
        report.stats["virtual_time"] = engine.now
        if cap_rt is not None:
            report.stats["capture"] = cap_rt.stats_dict()
        else:
            report.stats["capture"] = {
                "mode": capture,
                "enabled": False,
                "disabled": capture_blocked,
                "replays": 0,
                "events_replayed": 0,
                "iterations_skipped": 0,
                "replay_host_seconds": 0.0,
            }
        report.metrics = engine.metrics
        if injector is not None:
            report.faults = list(injector.log)
            report.stats["faults"] = report.faults
            for _, kind, _fields in report.faults:
                engine.metrics.inc("faults_total", kind=kind)
        if trace_out is not None and tracer is not None:
            from .sim import write_chrome_trace

            try:
                report.trace_path = write_chrome_trace(tracer, trace_out)
            except OSError:
                # A rank's failure is the error to report; a trace that
                # could not be written on top of it is not.
                if not failed:
                    raise
        # Everything has been read: the finished job frees by reference
        # count (docs/MODEL.md section 7, "Memory: who frees what").
        job.close()
        if cap_rt is not None:
            cap_rt.close()
        engine.sanitizer = engine.capture = engine.fault_injector = None
        engine.trace_hook = engine.coll = None


def _make_injector(engine, cluster, fault_plan, fault_seed):
    """Resolve launch()'s fault arguments into an installed FaultInjector,
    or None for healthy runs."""
    if fault_plan is None:
        return None
    from .sim.faults import FaultInjector, FaultPlan

    if isinstance(fault_plan, str):
        fault_plan = FaultPlan.parse(fault_plan)
    if fault_plan.empty():
        return None
    return FaultInjector(fault_plan, seed=fault_seed or 0).install(engine, cluster)
