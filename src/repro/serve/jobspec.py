"""JobSpec: a frozen, canonically-hashed description of one simulation.

A spec captures everything that determines a run's outcome — app, backend
variant, machine, job size, iteration counts, fault plan + seed, collective
policy, capture/sanitize/obs flags — and nothing that doesn't (no store
paths, no worker counts, no timestamps). Two specs that describe the same
simulation hash identically even when they were spelled differently:

- field values are normalized at construction (``uniconn:<backend>[:<mode>]``
  splits into ``backend`` and ``mode``, fault specs re-serialize through
  :meth:`~repro.sim.faults.FaultPlan.spec_string`, collective selections
  through :meth:`~repro.coll.CollSelection.spec_string`);
- :meth:`config_hash` is SHA-256 over the sorted-key JSON of
  :meth:`to_dict`, so kwargs/dict ordering can never leak into the hash;
- defaults are literals, so the hash is stable across processes and
  interpreter invocations.

The hash also covers :func:`model_fingerprint` — the simulator's own
source bytes — so a result cached under one cost model is never served by
another.

This module imports no simulator code: a spec that carries a fault plan
or a collective selection imports what canonicalising it needs, and every
other spec is validated and hashed without it (docs/SERVE.md, "What a
submit costs").
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any, Dict, Optional

from ..apps import OSU_DEVICE_VARIANT, parse_variant, variant_name
from ..options import APPS, CAPTURE_MODES, CG_MIN_ROWS, LAUNCH_MODES, OBS_LEVELS

__all__ = ["JobSpec", "SPEC_SCHEMA", "canonical_coll", "canonical_fault_spec",
           "model_fingerprint"]

SPEC_SCHEMA = "repro.serve.jobspec/2"

#: Per app, the fields its runner cannot honour: a non-default value would
#: hash (and cache) a run that never applied it, so it is rejected. (An OSU
#: variant carries a device launch mode in its name; CG annotates no region;
#: an OSU run reports no metrics or spans.)
_OSU = ("latency", "bandwidth")
_OSU_IGNORED = ("mode", "fault_spec", "coll", "capture", "sanitize", "obs", "collect")
_IGNORED = {"jacobi": (), "cg": ("capture",),
            "latency": _OSU_IGNORED, "bandwidth": _OSU_IGNORED}
_INT_FIELDS = ("ranks", "size", "iters", "seed", "fault_seed")
_STR_FIELDS = ("backend", "machine")
_BOOL_FIELDS = ("sanitize", "collect")

#: Not part of the model: the service envelope, the CLI and the benchmark
#: harness (report tables, shape checks, the SLOC counter) can change
#: without invalidating a single cached result.
_NOT_MODEL = ("serve", "bench", "cli.py", "__main__.py")


@lru_cache(maxsize=None)
def model_fingerprint() -> str:
    """SHA-256 over the simulator's source files (hex), once per process.

    Every ``*.py`` under the ``repro`` package except ``serve/``,
    ``bench/``, ``cli.py`` and ``__main__.py``, as (sorted relative path,
    bytes). The files are read, never imported, so fingerprinting costs a
    few milliseconds and loads nothing; mtimes and ``__pycache__`` do not
    enter. Falls back to ``__version__`` when no source is readable (a
    bytecode-only install).
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sources = []
    for base, dirs, files in os.walk(root):
        if base == root:
            dirs[:] = [d for d in dirs if d not in _NOT_MODEL]
            files = [f for f in files if f not in _NOT_MODEL]
        sources += [os.path.relpath(os.path.join(base, f), root).replace(os.sep, "/")
                    for f in files if f.endswith(".py")]
    digest = hashlib.sha256()
    try:
        for name in sorted(sources):
            with open(os.path.join(root, name), "rb") as fh:
                data = fh.read()
            digest.update(f"{name}\0{len(data)}\0".encode())
            digest.update(data)
    except OSError:
        sources = []
    if not sources:
        from .. import __version__

        return f"version:{__version__}"
    return digest.hexdigest()


def canonical_fault_spec(spec: Optional[str]) -> Optional[str]:
    """Normalize a fault spec string to its canonical serialization.

    ``"crash, rank=1, at=0.0001"`` and ``"crash,rank=1,at=1e-4"`` (and any
    clause reordering) all map to the same string, so equivalent plans hash
    identically instead of cache-missing on formatting differences. An
    empty plan normalizes to None.
    """
    if spec is None:
        return None
    from ..sim.faults import FaultPlan

    if isinstance(spec, str):
        spec = FaultPlan.parse(spec)
    elif not isinstance(spec, FaultPlan):
        raise ValueError(f"fault_spec must be a fault spec string, got {spec!r}")
    return spec.spec_string() or None


def canonical_coll(coll: Any) -> Optional[str]:
    """Normalize a collective policy to its canonical spec string.

    None/False/"off" -> None (backend legacy algorithms); "auto" stays
    "auto" (cost-model selection); an algorithm or full wire selection
    ("ring", "ring+LL/2", "tree/1") -> ``CollSelection.spec_string()``.
    Table objects/paths are rejected: a path is not content-addressed, so
    it cannot participate in a config hash that must be stable across
    machines.
    """
    if coll is None or coll is False or coll == "off":
        return None
    if coll == "auto":
        return "auto"
    if not isinstance(coll, str):
        raise ValueError(
            f"JobSpec coll must be None, 'auto', an algorithm name or a "
            f"selection string (got {type(coll).__name__}); tuning tables "
            f"are not hashable job inputs")
    from ..coll import CollSelection
    from ..coll.algorithms import ALGORITHMS, DEFAULT_ALGORITHM

    sel = CollSelection.parse(coll)
    known = set(ALGORITHMS) | set(DEFAULT_ALGORITHM.values())
    if str(sel) not in known:
        raise ValueError(f"unknown collective algorithm {str(sel)!r} in "
                         f"coll spec {coll!r}; known: {sorted(known)}")
    return sel.spec_string()


def _integer(name: str, value: Any) -> int:
    """``value`` as an int, or ValueError naming the field: ``32.9`` must
    not hash as ``32``, and ``True`` is not a rank count."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class JobSpec:
    """One simulation request; every field is part of the config hash.

    ``size`` is the app's characteristic size: the grid edge for jacobi,
    the matrix rows for cg, the largest message for the OSU sweeps.
    ``backend`` accepts a backend name (``options.BACKENDS``) or a full
    variant ("elastic:mpi", "gpuccl-native", "uniconn:gpushmem:PureDevice")
    and composes with ``mode`` the same way the CLI does
    (:func:`repro.apps.parse_variant`): a Uniconn variant is stored as its
    bare backend and its mode, and a pair no app can run is a ValueError,
    so each simulation has one spelling and one hash.
    """

    app: str = "jacobi"
    backend: str = "mpi"
    mode: str = "PureHost"
    machine: str = "perlmutter"
    ranks: int = 4
    size: int = 64
    iters: int = 8
    # Problem seed (cg matrix). Sweep-wide by design: every app accepts and
    # hashes it, so one `--seed` can ride a sweep that mixes apps.
    seed: int = 0
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    coll: Optional[str] = None
    capture: str = "off"
    sanitize: bool = False
    obs: str = "metrics"
    collect: bool = False  # gather per-rank payloads into the summary digest

    def __post_init__(self) -> None:
        # Normalize first, so the range checks below see integers and
        # equality and hashing agree for every spelling of one simulation.
        for name in _INT_FIELDS:
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not (isinstance(value, int) and value in (0, 1)):
                raise ValueError(f"{name} must be a boolean, got {value!r}")
            object.__setattr__(self, name, bool(value))
        for name in _STR_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, "
                                 f"got {getattr(self, name)!r}")
        if self.app not in APPS:
            raise ValueError(f"unknown app {self.app!r} (expected one of {APPS})")
        if self.mode not in LAUNCH_MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {LAUNCH_MODES})")
        if self.obs not in OBS_LEVELS:
            raise ValueError(f"unknown obs level {self.obs!r} (expected one of {OBS_LEVELS})")
        if self.capture not in CAPTURE_MODES:
            raise ValueError(f"unknown capture mode {self.capture!r} "
                             f"(expected one of {CAPTURE_MODES})")
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.size < 1 or self.iters < 1:
            raise ValueError(f"size/iters must be >= 1, got {self.size}/{self.iters}")
        if self.app == "cg" and self.size < CG_MIN_ROWS:
            raise ValueError(f"size is the cg matrix's rows and must be >= "
                             f"{CG_MIN_ROWS}, got {self.size}")
        object.__setattr__(self, "fault_spec", canonical_fault_spec(self.fault_spec))
        if self.fault_spec is None:  # no plan, no injector: the seed is inert
            object.__setattr__(self, "fault_seed", 0)
        object.__setattr__(self, "coll", canonical_coll(self.coll))
        for name in _IGNORED[self.app]:
            # (a field's default is its class attribute)
            if getattr(self, name) != getattr(JobSpec, name):
                raise ValueError(f"JobSpec field {name!r} does not apply to "
                                 f"app {self.app!r} (got {getattr(self, name)!r})")
        if not (self.app in _OSU and self.backend == OSU_DEVICE_VARIANT):
            family, backend, mode = parse_variant(self.backend, self.mode)
            # (an OSU spec's own mode is PureHost by now)
            if self.app in _OSU and (family == "elastic" or mode != self.mode):
                raise ValueError(f"backend {self.backend!r} names no {self.app} variant "
                                 f"(expected <library>-native, a backend or "
                                 f"{OSU_DEVICE_VARIANT})")
            if family == "uniconn":  # one spelling: the bare backend and the mode
                object.__setattr__(self, "backend", backend)
                object.__setattr__(self, "mode", mode)
        if self.app in _OSU and self.ranks not in (2, 4):
            # One pair of GPUs: ranks says only whether it spans two nodes.
            raise ValueError(f"ranks for app {self.app!r} must be 2 (an intra-node "
                             f"pair) or 4 (an inter-node pair), got {self.ranks}")

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-safe form (field order is fixed, values
        normalized); :meth:`from_dict` accepts any key order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown JobSpec field(s) {sorted(unknown)} "
                             f"(known: {sorted(known)})")
        return cls(**d)

    def config_hash(self) -> str:
        """Deterministic content hash of this spec (hex SHA-256).

        Stable across processes, dict orderings and equivalent spec-string
        spellings; any semantic field change — and any change to the
        simulator's sources (:func:`model_fingerprint`) — changes the hash.
        """
        doc = {"schema": SPEC_SCHEMA, "model": model_fingerprint(),
               **self.to_dict()}
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    @property
    def short_hash(self) -> str:
        return self.config_hash()[:12]

    def variant(self) -> str:
        """The app-level variant string this spec resolves to."""
        return variant_name(self.backend, self.mode)

    def describe(self) -> str:
        """One-line human label for tables and progress events."""
        parts = [self.app, self.variant(), self.machine,
                 f"x{self.ranks}", f"size={self.size}", f"iters={self.iters}"]
        if self.fault_spec:
            parts.append(f"faults[{self.fault_seed}]")
        if self.coll:
            parts.append(f"coll={self.coll}")
        if self.capture != "off":
            parts.append(f"capture={self.capture}")
        if self.sanitize:
            parts.append("sanitize")
        return " ".join(parts)
