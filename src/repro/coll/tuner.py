"""Algorithm selection: tuning tables, runtime policy, and the tuner.

Three layers (docs/COLLECTIVES.md):

- :class:`CollTable` — a persisted selection table: per topology
  signature, backend and collective kind, a list of
  ``[ceiling_nbytes, algorithm, protocol, channels]`` size bands
  (exclusive ceilings, last band open-ended). JSON round-trips through
  :mod:`repro.coll.schema` validation; any version but the current one
  is rejected.
- :class:`CollPolicy` — what backends consult at run time via
  ``engine.coll``; ``None`` (the default) means "no engine installed" and
  costs the backends a single attribute check. A policy runs in one of
  three modes: a *fixed* selection, a *table* lookup, or *auto* (score
  the catalogue on demand with the per-backend cost models and cache the
  winner). Selections are counted in the ``repro.obs`` metrics registry
  as ``coll_selected_total``.
- :class:`CollTuner` — builds tables offline by scoring
  (algorithm x protocol x channels) combinations over a probe-size grid
  on a synthetic cluster (``repro tune --coll``).
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .algorithms import DEFAULT_ALGORITHM, candidates, is_applicable
from .cost import CHANNEL_COUNTS, PROTOCOLS, Topology
from .models import CANONICAL_SHMEM_KINDS, model_for
from .schema import (SCHEMA_NAME, SCHEMA_VERSION, CollTableError,
                     validate_table)

__all__ = ["CollSelection", "CollTable", "CollPolicy", "CollTuner",
           "resolve_policy"]

#: Canonical kind -> the native kind name each backend model prices.
_SHMEM_NATIVE = {v: k for k, v in CANONICAL_SHMEM_KINDS.items()}

_TUNABLE_KINDS = ("all_reduce", "all_gather", "broadcast", "reduce_scatter")


class CollSelection(str):
    """An algorithm pick plus its wire protocol and channel count.

    A ``str`` subclass so every existing consumer that compares the
    selection against an algorithm name (slot mismatch checks, metric
    labels, ``algorithm == "ring"`` fast paths) keeps working unchanged;
    the protocol/channel knobs ride along as attributes. ``protocol`` is
    ``None`` for the backend's legacy wire behaviour and ``channels`` is
    ``1`` for a single rail — ``CollSelection("ring")`` is
    indistinguishable from the plain string ``"ring"`` downstream.
    """

    __slots__ = ("protocol", "channels")

    def __new__(cls, algorithm: str, protocol: Optional[str] = None,
                channels: int = 1) -> "CollSelection":
        self = super().__new__(cls, algorithm)
        self.protocol = protocol
        self.channels = int(channels)
        return self

    def describe(self) -> str:
        """``algo[+protocol][/channels]``, the CLI/doc spelling."""
        out = str(self)
        if self.protocol is not None:
            out += f"+{self.protocol}"
        if self.channels != 1:
            out += f"/{self.channels}"
        return out

    def spec_string(self) -> str:
        """Canonical re-serialization: every spelling of the same
        selection (``ring/1``, ``ring``) renders identically, so config
        hashes built on it never cache-miss on formatting differences.
        Round trip: ``CollSelection.parse(s.spec_string()) == s``."""
        return self.describe()

    @classmethod
    def parse(cls, text: str) -> "CollSelection":
        """Inverse of :meth:`describe` (``ring+LL/2`` etc.)."""
        algo, channels = text, 1
        if "/" in algo:
            algo, _, tail = algo.partition("/")
            channels = int(tail)
            if channels < 1:
                raise ValueError(
                    f"channel count must be >= 1 in {text!r}, got {channels}")
        protocol = None
        if "+" in algo:
            algo, _, protocol = algo.partition("+")
            if protocol not in PROTOCOLS:
                raise ValueError(
                    f"unknown protocol {protocol!r} in {text!r}; "
                    f"expected one of {PROTOCOLS}")
        return cls(algo, protocol, channels)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CollSelection {self.describe()}>"


#: The ``coll_selected_total`` labels of "no selection: legacy path".
_NO_SELECTION = CollSelection("default")


def _score(model, backend: str, kind: str, selection: CollSelection,
           nbytes: int) -> float:
    if backend == "gpushmem":
        kind = _SHMEM_NATIVE[kind]
    return model.duration(kind, nbytes, str(selection), selection.protocol,
                          selection.channels)


def _best(model, backend: str, kind: str, nbytes: int,
          combos: Sequence[CollSelection],
          surcharge: Optional[Callable[[CollSelection], float]] = None
          ) -> Tuple[CollSelection, float]:
    """(winner, predicted seconds) over ``combos``, each priced by the
    backend model plus an optional per-candidate ``surcharge``; ties go to
    the earliest combination, so a leading legacy default wins exact
    draws."""
    best_sel, best_cost = None, None
    for sel in combos:
        cost = _score(model, backend, kind, sel, nbytes)
        if surcharge is not None:
            cost += surcharge(sel)
        if best_cost is None or cost < best_cost:
            best_sel, best_cost = sel, cost
    return best_sel, best_cost


def _algorithms(backend: str, kind: str, nranks: int,
                topo: Optional[Topology]) -> List[str]:
    """The backend's legacy default, then every other applicable algorithm."""
    default = DEFAULT_ALGORITHM[backend]
    return [default] + [a for a in candidates(kind, nranks, topo)
                        if a != default]


def _combos(backend: str, kind: str, nranks: int,
            topo: Optional[Topology]) -> List[CollSelection]:
    """The (algorithm x protocol x channels) space one backend tunes over.

    The first entry is always the backend's legacy default (no explicit
    protocol, one channel) so ties preserve historical behaviour. MPI has
    no GPU wire protocols — it tunes (algorithm x channels) only — and
    its ``native`` path ignores both knobs, so it appears exactly once.
    """
    algos = _algorithms(backend, kind, nranks, topo)
    combos = [CollSelection(algos[0])]
    if backend == "mpi":
        for algo in algos[1:]:
            for channels in CHANNEL_COUNTS:
                combos.append(CollSelection(algo, None, channels))
        return combos
    for algo in algos:
        for protocol in PROTOCOLS:
            for channels in CHANNEL_COUNTS:
                combos.append(CollSelection(algo, protocol, channels))
    return combos


class CollTable:
    """Banded (algorithm, protocol, channels) selections per topology.

    Band ceilings are *exclusive* (``nbytes < ceiling`` selects the band)
    and agree with :meth:`CollTuner.best` at every probe size: a band's
    ceiling is the first message size the next band's winner wins.
    """

    def __init__(self, machine: str = "", entries: Optional[Dict] = None):
        self.machine = machine
        # sig -> backend -> kind ->
        #   [[ceiling_nbytes|None, algorithm, protocol|None, channels], ...]
        self.entries: Dict[str, Dict[str, Dict[str, List]]] = entries or {}

    def set_bands(self, sig: str, backend: str, kind: str,
                  bands: Sequence[Sequence]) -> None:
        """Install bands; each entry is ``(ceiling, selection)`` where the
        selection may be a :class:`CollSelection`, a plain algorithm name
        (legacy protocol, one channel), or an explicit
        ``(ceiling, algorithm, protocol, channels)`` quadruple."""
        normalized = []
        for band in bands:
            if len(band) == 2:
                ceiling, sel = band
                if not isinstance(sel, CollSelection):
                    sel = CollSelection(sel)
                normalized.append([ceiling, str(sel), sel.protocol,
                                   sel.channels])
            elif len(band) == 4:
                ceiling, algo, protocol, channels = band
                normalized.append([ceiling, str(algo), protocol,
                                   int(channels)])
            else:
                raise CollTableError(
                    f"band {band!r} must be (ceiling, selection) or "
                    "(ceiling, algorithm, protocol, channels)")
        self.entries.setdefault(sig, {}).setdefault(backend, {})[kind] = \
            normalized

    def lookup(self, sig: str, backend: str, kind: str,
               nbytes: int) -> Optional[CollSelection]:
        bands = self.entries.get(sig, {}).get(backend, {}).get(kind)
        if not bands:
            return None
        for ceiling, algo, protocol, channels in bands:
            if ceiling is None or nbytes < ceiling:
                return CollSelection(algo, protocol, channels)
        return None

    def covers(self, sig: str) -> bool:
        """Whether this table was tuned for topology signature ``sig``."""
        return sig in self.entries

    # ------------------------------------------------------------------ #

    def to_doc(self) -> Dict[str, Any]:
        return validate_table({
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "machine": self.machine,
            "entries": self.entries,
        })

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "CollTable":
        """Build from a JSON document; anything :func:`validate_table`
        rejects (including any version but the current one) raises
        :class:`CollTableError`."""
        validate_table(doc)
        return cls(machine=doc["machine"], entries=doc["entries"])

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CollTable":
        with open(path) as fh:
            return cls.from_doc(json.load(fh))


class CollPolicy:
    """Runtime algorithm selector installed as ``engine.coll``."""

    def __init__(self, *, mode: str, algorithm: Optional[str] = None,
                 table: Optional[CollTable] = None):
        if mode not in ("fixed", "table", "auto"):
            raise ValueError(f"unknown policy mode {mode!r}")
        self.mode = mode
        self.algorithm = algorithm
        self.table = table
        self._cache: Dict[Tuple[str, str, str, int], Optional[str]] = {}
        # Degraded-topology selections (persistent link down): keyed with
        # the dead-pair set so the same policy serves healthy and degraded
        # phases of one run without mixing caches.
        self._degraded: Dict[Tuple, Optional[str]] = {}

    @classmethod
    def fixed(cls, algorithm: str, protocol: Optional[str] = None,
              channels: int = 1) -> "CollPolicy":
        if not isinstance(algorithm, CollSelection):
            algorithm = CollSelection(algorithm, protocol, channels)
        return cls(mode="fixed", algorithm=algorithm)

    @classmethod
    def from_table(cls, table: CollTable) -> "CollPolicy":
        return cls(mode="table", table=table)

    @classmethod
    def auto(cls) -> "CollPolicy":
        return cls(mode="auto")

    # ------------------------------------------------------------------ #

    def _auto_select(self, backend: str, kind: str, nbytes: int,
                     topo: Topology) -> Optional[CollSelection]:
        model = model_for(backend, topo)
        if model is None:
            return None
        return _best(model, backend, kind, nbytes,
                     _combos(backend, kind, topo.nranks, topo))[0]

    # ------------------------------------------------------------------ #
    # Degraded-topology rescheduling (repro.resilience).
    # ------------------------------------------------------------------ #

    #: Cost surcharge for a schedule that sends over a dead pair: any live
    #: alternative wins, however slow the alpha-beta model prices it.
    DEAD_PAIR_PENALTY = 1e6

    def _dead_penalty(self, algorithm: str, backend: str, kind: str,
                      nbytes: int, topo: Topology, dead) -> float:
        """0.0 when the algorithm's generated schedule avoids every dead
        pair, else :data:`DEAD_PAIR_PENALTY`. Schedules are rooted at 0:
        ``select`` is not told the root."""
        from .schedule import SEND

        sched = topo.schedule(algorithm, kind, max(1, int(nbytes)))
        if sched is None:
            return self.DEAD_PAIR_PENALTY
        _, rank, code, peer, _, _ = sched.columns
        sending = code == SEND
        sends = zip(rank[sending].tolist(), peer[sending].tolist())
        return 0.0 if dead.isdisjoint(sends) else self.DEAD_PAIR_PENALTY

    def _select_degraded(self, backend: str, kind: str, nbytes: int,
                         topo: Topology, dead, engine) -> Optional[str]:
        """Re-run selection over the degraded topology: every candidate is
        re-priced with the alpha-beta model plus a prohibitive surcharge
        for schedules that communicate over a dead pair — the ring->tree
        fallback when a ring link dies. Applies in every policy mode (a
        fixed "ring" policy must not stay wedged on a dead ring)."""
        key = (backend, topo.signature(), kind, int(nbytes), dead)
        if key not in self._degraded:
            algo: Optional[CollSelection] = None
            model = model_for(backend, topo)
            if model is not None:
                algo = _best(
                    model, backend, kind, nbytes,
                    [CollSelection(a) for a in
                     _algorithms(backend, kind, topo.nranks, topo)],
                    lambda sel: self._dead_penalty(str(sel), backend, kind,
                                                   nbytes, topo, dead))[0]
            self._degraded[key] = algo
            if engine is not None:
                if engine.metrics.enabled:
                    engine.metrics.inc(
                        "reschedules_total", backend=backend, kind=kind,
                        cause="link_down",
                    )
                injector = engine.fault_injector
                if injector is not None:
                    # "coll" not "kind": record() owns the kind parameter.
                    injector.record(
                        "recover.reschedule", backend=backend, coll=kind,
                        algorithm=algo, dead_pairs=sorted(dead),
                    )
        return self._count(engine, backend, kind, nbytes, self._degraded[key])

    # ------------------------------------------------------------------ #

    def _count(self, engine, backend: str, kind: str, nbytes: int,
               algo: Optional[CollSelection]) -> Optional[CollSelection]:
        if engine is not None and engine.metrics.enabled:
            from ..obs import size_class

            label = algo if algo is not None else _NO_SELECTION
            engine.metrics.inc(
                "coll_selected_total", backend=backend, kind=kind,
                algorithm=label, protocol=label.protocol or "-",
                channels=str(label.channels), size=size_class(int(nbytes)),
            )
        return algo

    def select(self, backend: str, kind: str, nbytes: int, topo: Topology,
               engine=None) -> Optional[CollSelection]:
        """The selection to run, or None to stay on the legacy path."""
        if topo.nranks <= 1:
            return None
        if engine is not None:
            injector = engine.fault_injector
            if injector is not None and injector.plan.link_faults:
                dead = injector.dead_pairs_for(topo)
                if dead:
                    return self._select_degraded(
                        backend, kind, int(nbytes), topo, dead, engine)
        key = (backend, topo.signature(), kind, int(nbytes))
        if key in self._cache:
            algo = self._cache[key]
        else:
            if self.mode == "fixed":
                algo = self.algorithm
                if algo != DEFAULT_ALGORITHM[backend] and not is_applicable(
                        str(algo), kind, topo.nranks, topo):
                    algo = None
            elif self.mode == "table":
                algo = self.table.lookup(topo.signature(), backend, kind,
                                         int(nbytes))
                if algo is not None and algo != DEFAULT_ALGORITHM[backend] \
                        and not is_applicable(str(algo), kind, topo.nranks,
                                              topo):
                    algo = None
            else:
                algo = self._auto_select(backend, kind, int(nbytes), topo)
            self._cache[key] = algo
        return self._count(engine, backend, kind, nbytes, algo)


class CollTuner:
    """Builds tuning tables by scoring the catalogue on a synthetic cluster."""

    #: Probe grid: message sizes the table is scored at (bytes).
    PROBE_SIZES = (64, 1 << 10, 8 << 10, 64 << 10, 512 << 10, 4 << 20, 32 << 20)

    def __init__(self, machine, n_gpus: int, n_nodes: Optional[int] = None):
        from ..hardware.cluster import Cluster
        from ..hardware.machines import get_machine

        spec = get_machine(machine) if isinstance(machine, str) else machine
        if n_nodes is None:
            n_nodes = -(-n_gpus // spec.gpus_per_node)
        self.machine = spec
        self.cluster = Cluster(spec, n_nodes)
        self.topo = Topology(self.cluster, list(range(n_gpus)))

    def model(self, backend: str):
        return model_for(backend, self.topo)

    def backends(self) -> List[str]:
        return [b for b in ("mpi", "gpuccl", "gpushmem")
                if self.model(b) is not None]

    def best(self, backend: str, kind: str,
             nbytes: int) -> Tuple[CollSelection, float]:
        """(winner, predicted seconds) over (algorithm x protocol x
        channels); ties go to the earliest combination, so the backend's
        legacy default wins exact draws."""
        return _best(self.model(backend), backend, kind, nbytes,
                     _combos(backend, kind, self.topo.nranks, self.topo))

    @staticmethod
    def _key(sel: CollSelection) -> Tuple:
        return (str(sel), sel.protocol, sel.channels)

    def build_table(self, kinds: Sequence[str] = _TUNABLE_KINDS,
                    sizes: Optional[Sequence[int]] = None) -> CollTable:
        """Probe the size grid and emit bands with *exclusive* ceilings: a
        band closes at the first probe size its successor wins, so
        ``CollTable.lookup`` agrees with :meth:`best` at every probe."""
        sizes = sorted(sizes or self.PROBE_SIZES)
        table = CollTable(machine=self.machine.name)
        sig = self.topo.signature()
        for backend in self.backends():
            for kind in kinds:
                winners = [self.best(backend, kind, s)[0] for s in sizes]
                bands: List[Tuple[Optional[int], CollSelection]] = []
                current = winners[0]
                for size, winner in zip(sizes[1:], winners[1:]):
                    if self._key(winner) != self._key(current):
                        bands.append((size, current))
                        current = winner
                bands.append((None, current))
                table.set_bands(sig, backend, kind, bands)
        return table

    def crossovers(self, backend: str, kind: str,
                   sizes: Optional[Sequence[int]] = None
                   ) -> List[Tuple[int, CollSelection, CollSelection]]:
        """(boundary_nbytes, smaller_side, larger_side) switches; the
        boundary is the first probe size the larger-side winner wins
        (the exclusive band ceiling it induces in the table)."""
        sizes = sorted(sizes or self.PROBE_SIZES)
        winners = [self.best(backend, kind, s)[0] for s in sizes]
        out = []
        for cur_size, prev, cur in zip(sizes[1:], winners, winners[1:]):
            if self._key(prev) != self._key(cur):
                out.append((cur_size, prev, cur))
        return out


def resolve_policy(coll) -> Optional[CollPolicy]:
    """Map ``launch(coll=...)`` to a policy (or None).

    Accepts: None/False/"off" (no policy: every backend keeps its legacy
    algorithm), "auto" (cost-model policy), an algorithm name or a
    fixed-selection string ``algo[+protocol][/channels]`` (e.g.
    ``ring+LL/2``), a :class:`CollTable`, a table path, or a ready
    :class:`CollPolicy`. A table whose signature misses the running
    topology selects nothing (legacy path).
    """
    if coll is None or coll is False or coll == "off":
        return None
    if isinstance(coll, CollPolicy):
        return coll
    if isinstance(coll, CollTable):
        return CollPolicy.from_table(coll)
    if isinstance(coll, str):
        if coll == "auto":
            return CollPolicy.auto()
        from .algorithms import ALGORITHMS

        known = set(ALGORITHMS) | set(DEFAULT_ALGORITHM.values())
        if coll in known:
            return CollPolicy.fixed(coll)
        if ("+" in coll or "/" in coll) and not os.path.exists(coll):
            try:
                sel = CollSelection.parse(coll)
            except ValueError:
                sel = None
            if sel is not None and str(sel) in known:
                return CollPolicy.fixed(sel)
        if os.path.exists(coll):
            return CollPolicy.from_table(CollTable.load(coll))
        raise ValueError(f"unknown coll policy {coll!r}")
    raise TypeError(f"coll must be None, str, CollTable or CollPolicy, "
                    f"got {type(coll).__name__}")
