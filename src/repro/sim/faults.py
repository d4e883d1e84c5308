"""Deterministic, seed-driven fault injection on the virtual clock.

A :class:`FaultPlan` declares *what* can go wrong — transient link outages
and bandwidth-degradation windows, message drop/corruption on matching
transfers, rank crashes at a virtual time, straggler GPUs — and a
:class:`FaultInjector` binds one plan plus one seed to one engine/cluster
for one job. Everything is reproducible: the engine's interleaving is
deterministic, the injector's RNG is seeded, and all decisions are drawn in
simulation order, so the same (plan, seed, program) produces the identical
fault schedule, identical virtual-time results, and an identical trace.

The layer is free when idle: with no plan installed every hook is a single
``engine.fault_injector is None`` (or equivalent) check, no timers are
scheduled, and traces stay byte-identical to a build without this module
(``tests/sim/test_fastpath.py`` asserts this). An installed plan that never
fires is not quite free: like a watchdog or capture it makes the engine
sleep host charges where they are made instead of deferring them
(``Engine.run``) — the same timeline through more handoffs, which is what
those tests use as the eager twin of a default run.

Spec grammar (``FaultPlan.parse``), clauses separated by ``;``, fields by
``,``, first token is the clause kind::

    down,link=nic-out[0],start=1e-3,end=2e-3       # link carries nothing
    degrade,link=nvlink*,factor=4,start=0,end=1    # serialization x factor
    drop,src=0,dst=1,tag=0,p=0.5,start=0,end=1e-3  # MPI wire drop
    corrupt,src=0,dst=1,p=0.1                      # detected via checksum
    crash,rank=2,at=5e-4                           # rank dies at t
    straggler,gpu=1,factor=2                       # kernels run x factor
    retry,base=2e-5,max=6                          # MPI backoff parameters
    watchdog,timeout=0.5                           # engine watchdog (s)

``link`` values are exact :class:`Link` names or :mod:`fnmatch` patterns
over them (exact names win, so the literal brackets in ``nic-out[0]`` are
not parsed as a character class); ``src``/``dst``/``tag`` are optional
filters (omitted = any) over *global* ranks and MPI tags; ``p`` is a
per-attempt probability drawn from the seeded RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Any, List, Optional, Tuple

from ..errors import FaultInjectionError
from .engine import Engine

__all__ = [
    "LinkFault",
    "MessageFault",
    "RankCrash",
    "Straggler",
    "FaultPlan",
    "FaultInjector",
    "SPEC_GRAMMAR",
]

_INF = float("inf")


def _link_matches(name: str, pattern: str) -> bool:
    """Exact-name match first, then :func:`fnmatchcase`.

    Link names contain literal brackets (``nvlink[1->2]``, ``nic-out[0]``),
    which :mod:`fnmatch` would otherwise parse as character classes — so the
    obvious spec ``down,link=nic-out[0]`` would silently match nothing.
    Exact names always work; glob metacharacters keep their meaning.
    """
    return name == pattern or fnmatchcase(name, pattern)

#: Human-readable spec grammar, appended to every parse error so a bad token
#: is diagnosable (and fixable) from the error text alone.
SPEC_GRAMMAR = """\
valid fault spec grammar (clauses separated by ';', fields by ','):
  down,link=<name|pattern>[,start=<s>][,end=<s>]
  degrade,link=<name|pattern>,factor=<f>[,start=<s>][,end=<s>]
  drop[,src=<rank>][,dst=<rank>][,tag=<tag>][,p=<prob>][,start=<s>][,end=<s>]
  corrupt[,src=<rank>][,dst=<rank>][,tag=<tag>][,p=<prob>][,start=<s>][,end=<s>]
  crash,rank=<rank>,at=<s>
  straggler,gpu=<gpu>,factor=<f>
  retry[,base=<s>][,max=<n>][,mult=<f>][,jitter=<f>][,timeout=<s>]
  watchdog,timeout=<s>"""


@dataclass(frozen=True)
class LinkFault:
    """A window during which a link is down or degraded.

    ``kind="down"``: the link carries nothing during ``[start, end)``;
    transfers arriving in the window wait for it to end (the physical layer
    recovers by itself, at a virtual-time cost). ``kind="degrade"``:
    serialization time is multiplied by ``factor`` for transfers starting in
    the window.
    """

    link: str  # fnmatch pattern over Link.name
    start: float
    end: float
    kind: str = "down"  # "down" | "degrade"
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("down", "degrade"):
            raise FaultInjectionError(f"unknown link fault kind {self.kind!r}")
        if self.end <= self.start:
            raise FaultInjectionError(f"empty fault window [{self.start}, {self.end})")
        if self.kind == "degrade" and self.factor < 1.0:
            raise FaultInjectionError(f"degrade factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class MessageFault:
    """Drop or corrupt matching MPI wire transfers inside a window.

    ``None`` filters match anything. Corruption is detected by the modelled
    transport checksum, so both kinds trigger the retransmission path; they
    differ only in the recorded event kind.
    """

    kind: str  # "drop" | "corrupt"
    src: Optional[int] = None  # global rank filters
    dst: Optional[int] = None
    tag: Optional[int] = None
    start: float = 0.0
    end: float = _INF
    p: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "corrupt"):
            raise FaultInjectionError(f"unknown message fault kind {self.kind!r}")
        if not 0.0 < self.p <= 1.0:
            raise FaultInjectionError(f"fault probability must be in (0, 1], got {self.p}")

    def matches(self, src: int, dst: int, tag: int, now: float) -> bool:
        """True when this fault's filters and window cover the transfer."""
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        if self.tag is not None and self.tag != tag:
            return False
        return self.start <= now < self.end


@dataclass(frozen=True)
class RankCrash:
    """Kill one rank's simulated process at a virtual time."""

    rank: int
    at: float


@dataclass(frozen=True)
class Straggler:
    """Scale one GPU's kernel/launch costs by ``factor`` (>= 1)."""

    gpu: int
    factor: float

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise FaultInjectionError(f"straggler factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative schedule of faults plus the recovery parameters."""

    link_faults: Tuple[LinkFault, ...] = ()
    message_faults: Tuple[MessageFault, ...] = ()
    crashes: Tuple[RankCrash, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    retry_base: float = 2e-5  # first retransmission backoff (s)
    max_retries: int = 6  # retransmission budget per transfer
    retry_multiplier: float = 2.0  # backoff growth per attempt
    retry_jitter: float = 0.0  # seeded random slack, fraction of backoff
    retry_timeout: Optional[float] = None  # give up after this much time (s)
    watchdog: Optional[float] = None  # engine watchdog timeout (s)

    def empty(self) -> bool:
        """True when the plan injects nothing and installs no watchdog."""
        return not (
            self.link_faults
            or self.message_faults
            or self.crashes
            or self.stragglers
            or self.watchdog is not None
        )

    def retry_policy(self):
        """The plan's retransmission knobs as a unified RetryPolicy."""
        from ..resilience import RetryPolicy

        return RetryPolicy(
            base=self.retry_base,
            max_retries=self.max_retries,
            multiplier=self.retry_multiplier,
            jitter=self.retry_jitter,
            timeout=self.retry_timeout,
        )

    def spec_string(self) -> str:
        """Canonical re-serialization: equivalent plans — any clause
        order, any float spelling (``1e-4`` vs ``0.0001``), any field
        order — produce the identical string, so config hashes built on
        it never cache-miss on formatting differences.

        Round trip: ``FaultPlan.parse(p.spec_string()).spec_string() ==
        p.spec_string()`` for every plan (floats render via :func:`repr`,
        which is lossless in Python 3).
        """
        def none_low(v):
            return (v is None, v if v is not None else 0)

        plan = replace(
            self,
            link_faults=tuple(sorted(
                self.link_faults,
                key=lambda lf: (lf.kind, lf.link, lf.start, lf.end, lf.factor))),
            message_faults=tuple(sorted(
                self.message_faults,
                key=lambda mf: (mf.kind, none_low(mf.src), none_low(mf.dst),
                                none_low(mf.tag), mf.start, mf.end, mf.p))),
            crashes=tuple(sorted(self.crashes, key=lambda cr: (cr.at, cr.rank))),
            stragglers=tuple(sorted(
                self.stragglers, key=lambda st: (st.gpu, st.factor))),
        )
        return plan._spec()

    def _spec(self) -> str:
        """Render this plan as a spec string, in its clause order."""
        clauses: List[str] = []
        for lf in self.link_faults:
            c = f"{lf.kind},link={lf.link}"
            if lf.kind == "degrade":
                c += f",factor={float(lf.factor)!r}"
            if lf.start != 0.0:
                c += f",start={float(lf.start)!r}"
            if lf.end != _INF:
                c += f",end={float(lf.end)!r}"
            clauses.append(c)
        for mf in self.message_faults:
            c = mf.kind
            for name in ("src", "dst", "tag"):
                value = getattr(mf, name)
                if value is not None:
                    c += f",{name}={value}"
            if mf.p != 1.0:
                c += f",p={float(mf.p)!r}"
            if mf.start != 0.0:
                c += f",start={float(mf.start)!r}"
            if mf.end != _INF:
                c += f",end={float(mf.end)!r}"
            clauses.append(c)
        for cr in self.crashes:
            clauses.append(f"crash,rank={cr.rank},at={float(cr.at)!r}")
        for st in self.stragglers:
            clauses.append(f"straggler,gpu={st.gpu},factor={float(st.factor)!r}")
        defaults = FaultPlan()
        retry_fields = []
        if self.retry_base != defaults.retry_base:
            retry_fields.append(f"base={float(self.retry_base)!r}")
        if self.max_retries != defaults.max_retries:
            retry_fields.append(f"max={self.max_retries}")
        if self.retry_multiplier != defaults.retry_multiplier:
            retry_fields.append(f"mult={float(self.retry_multiplier)!r}")
        if self.retry_jitter != defaults.retry_jitter:
            retry_fields.append(f"jitter={float(self.retry_jitter)!r}")
        if self.retry_timeout is not None:
            retry_fields.append(f"timeout={float(self.retry_timeout)!r}")
        if retry_fields:
            clauses.append("retry," + ",".join(retry_fields))
        if self.watchdog is not None:
            clauses.append(f"watchdog,timeout={float(self.watchdog)!r}")
        return ";".join(clauses)

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Build a plan from the compact CLI spec string (see module doc).

        Any malformed spec raises :class:`FaultInjectionError` (which is
        also a :class:`ValueError`) naming the offending token and listing
        the full grammar.
        """
        plan = FaultPlan()
        links: List[LinkFault] = []
        messages: List[MessageFault] = []
        crashes: List[RankCrash] = []
        stragglers: List[Straggler] = []
        for clause in filter(None, (c.strip() for c in spec.split(";"))):
            parts = [p.strip() for p in clause.split(",")]
            kind, kv = parts[0], {}
            for item in parts[1:]:
                if "=" not in item:
                    raise FaultInjectionError(
                        f"malformed fault field {item!r} in clause {clause!r} "
                        f"(expected key=value)\n{SPEC_GRAMMAR}"
                    )
                key, value = item.split("=", 1)
                kv[key.strip()] = value.strip()
            try:
                if kind in ("down", "degrade"):
                    links.append(LinkFault(
                        link=kv.pop("link"),
                        start=float(kv.pop("start", 0.0)),
                        end=float(kv.pop("end", _INF)),
                        kind=kind,
                        factor=float(kv.pop("factor", 1.0)),
                    ))
                elif kind in ("drop", "corrupt"):
                    messages.append(MessageFault(
                        kind=kind,
                        src=int(kv.pop("src")) if "src" in kv else None,
                        dst=int(kv.pop("dst")) if "dst" in kv else None,
                        tag=int(kv.pop("tag")) if "tag" in kv else None,
                        start=float(kv.pop("start", 0.0)),
                        end=float(kv.pop("end", _INF)),
                        p=float(kv.pop("p", 1.0)),
                    ))
                elif kind == "crash":
                    crashes.append(RankCrash(rank=int(kv.pop("rank")), at=float(kv.pop("at"))))
                elif kind == "straggler":
                    stragglers.append(Straggler(gpu=int(kv.pop("gpu")), factor=float(kv.pop("factor"))))
                elif kind == "retry":
                    timeout = kv.pop("timeout", None)
                    plan = replace(plan,
                                   retry_base=float(kv.pop("base", plan.retry_base)),
                                   max_retries=int(kv.pop("max", plan.max_retries)),
                                   retry_multiplier=float(kv.pop("mult", plan.retry_multiplier)),
                                   retry_jitter=float(kv.pop("jitter", plan.retry_jitter)),
                                   retry_timeout=float(timeout) if timeout is not None else plan.retry_timeout)
                elif kind == "watchdog":
                    plan = replace(plan, watchdog=float(kv.pop("timeout")))
                else:
                    raise FaultInjectionError(
                        f"unknown fault clause kind {kind!r} in clause {clause!r}\n{SPEC_GRAMMAR}"
                    )
            except KeyError as exc:
                raise FaultInjectionError(
                    f"fault clause {clause!r} is missing required field {exc.args[0]!r}"
                    f"\n{SPEC_GRAMMAR}"
                ) from None
            except FaultInjectionError:
                raise
            except ValueError as exc:
                raise FaultInjectionError(
                    f"bad value in fault clause {clause!r}: {exc}\n{SPEC_GRAMMAR}"
                ) from None
            if kv:
                raise FaultInjectionError(
                    f"unknown field(s) {sorted(kv)} in fault clause {clause!r}\n{SPEC_GRAMMAR}"
                )
        return replace(plan,
                       link_faults=tuple(links),
                       message_faults=tuple(messages),
                       crashes=tuple(crashes),
                       stragglers=tuple(stragglers))


class FaultInjector:
    """One plan + one seed bound to one engine/cluster for one job.

    The injector is the single consultation point for every layer: the
    hardware model asks for link windows at install time, the MPI matcher
    asks :meth:`message_verdict` per wire attempt, GPUCCL asks
    :meth:`crashed_among`, devices ask :meth:`straggler_factor`. Every
    injected event and recovery is appended to :attr:`log` and emitted as a
    ``fault.*`` trace record, so injected faults are visible in the Chrome
    trace next to the traffic they perturb.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self.rng = random.Random(seed)
        self.crashed_ranks: set = set()
        self.log: List[Tuple[float, str, dict]] = []
        self.engine: Optional[Engine] = None
        # Callbacks fired after a rank crash lands (rank: int) -> None.
        # The recovery runtime hangs consensus wake-ups off these.
        self.crash_hooks: List[Any] = []
        # (gpu_ids, active persistent downs) -> frozenset of dead rank pairs.
        self._dead_cache: dict = {}

    def describe(self) -> str:
        """One-line provenance, embedded in hang reports: spec + seed."""
        return f"fault spec {self.plan.spec_string()!r} seed={self.seed}"

    # ------------------------------------------------------------------ #
    # Installation.
    # ------------------------------------------------------------------ #

    def install(self, engine: Engine, cluster: Any = None) -> "FaultInjector":
        """Attach to an engine (and optionally its cluster); returns self."""
        if self.engine is not None:
            raise FaultInjectionError("fault injector already installed")
        self.engine = engine
        engine.fault_injector = self
        if self.plan.watchdog is not None:
            engine.watchdog_timeout = self.plan.watchdog
        if cluster is not None and self.plan.link_faults:
            cluster.link_fault_hook = self._decorate_link
            for links in (cluster._loop, cluster._intra, cluster._nic_out, cluster._nic_in):
                for link in links.values():
                    self._decorate_link(link)
            for path in cluster._paths.values():
                path.refresh_fault_check()
        for crash in self.plan.crashes:
            engine.schedule(crash.at, lambda c=crash: self._crash(c))
        # Window markers: injected faults show up on the trace timeline even
        # when no transfer happens to sample them.
        for lf in self.plan.link_faults:
            engine.schedule(lf.start, lambda f=lf: self.record(
                f"fault.link_{f.kind}", link=f.link, factor=f.factor, until=f.end))
            if lf.end != _INF:
                engine.schedule(lf.end, lambda f=lf: self.record(
                    "fault.link_restored", link=f.link))
        return self

    def _decorate_link(self, link: Any) -> None:
        """Attach this plan's matching fault windows to one link."""
        windows = sorted(
            (f.start, f.end, f.kind, f.factor)
            for f in self.plan.link_faults
            if _link_matches(link.name, f.link)
        )
        if windows:
            link.fault_windows = windows

    # ------------------------------------------------------------------ #
    # Queries (one per subsystem).
    # ------------------------------------------------------------------ #

    @property
    def has_message_faults(self) -> bool:
        """True when the MPI matcher must route through the fault path."""
        return bool(self.plan.message_faults)

    def message_verdict(self, src: int, dst: int, tag: int, now: float) -> Optional[str]:
        """Fate of one MPI wire attempt: ``"drop"``, ``"corrupt"`` or None.

        Probabilities are drawn from the seeded RNG in simulation order, so
        the verdict stream is reproducible run to run.
        """
        for fault in self.plan.message_faults:
            if fault.matches(src, dst, tag, now):
                if fault.p >= 1.0 or self.rng.random() < fault.p:
                    return fault.kind
        return None

    def straggler_factor(self, gpu: int) -> float:
        """Kernel-time multiplier for one GPU (1.0 = healthy)."""
        factor = 1.0
        for s in self.plan.stragglers:
            if s.gpu == gpu:
                factor = max(factor, s.factor)
        return factor

    def crashed_among(self, ranks) -> List[int]:
        """The subset of ``ranks`` that have crashed so far, sorted."""
        return sorted(r for r in ranks if r in self.crashed_ranks)

    def dead_pairs_for(self, topo) -> Optional[frozenset]:
        """Rank pairs of ``topo`` whose path crosses a *permanently* down
        link that is active at the current virtual time, or None.

        This is what lets :class:`repro.coll.CollPolicy` regenerate
        collective schedules around a dead link (ring -> tree fallback)
        instead of waiting forever on it. Transient outages (finite
        ``end``) are the physical layer's problem and are not rerouted.
        Cached per (placement, active-fault set); cheap when the plan has
        no persistent ``down`` clauses.
        """
        now = self.engine.now if self.engine is not None else 0.0
        active = tuple(
            (f.link, f.start)
            for f in self.plan.link_faults
            if f.kind == "down" and f.end == _INF and f.start <= now
        )
        if not active:
            return None
        key = (tuple(topo.gpu_ids), active)
        dead = self._dead_cache.get(key)
        if dead is None:
            patterns = [p for p, _ in active]

            def link_dead(link) -> bool:
                return any(_link_matches(link.name, p) for p in patterns)

            pairs = set()
            for a in range(topo.nranks):
                for b in range(topo.nranks):
                    if a == b:
                        continue
                    path = topo.cluster.path(topo.gpu_ids[a], topo.gpu_ids[b])
                    if any(link_dead(l) for l in path.links):
                        pairs.add((a, b))
            dead = frozenset(pairs)
            self._dead_cache[key] = dead
        return dead or None

    # ------------------------------------------------------------------ #
    # Event recording.
    # ------------------------------------------------------------------ #

    def record(self, kind: str, **fields: Any) -> None:
        """Append to the fault log and emit a ``fault.*`` trace record."""
        engine = self.engine
        self.log.append((engine.now if engine else 0.0, kind, dict(fields)))
        if engine is not None:
            engine.trace(kind, **fields)

    def _crash(self, crash: RankCrash) -> None:
        """Kill the rank's task: it stops dead, releasing nothing."""
        self.crashed_ranks.add(crash.rank)
        self.record("fault.crash", rank=crash.rank)
        engine = self.engine
        name = f"rank{crash.rank}"
        for task in list(engine._tasks):
            if task.name == name:
                task.poisoned = True
                task.make_ready()
                break
        for hook in list(self.crash_hooks):
            hook(crash.rank)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector seed={self.seed} events={len(self.log)}>"
