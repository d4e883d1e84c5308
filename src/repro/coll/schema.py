"""Schema for the ``repro tune --coll --dump`` tuning-table JSON document.

Mirrors :mod:`repro.obs.schema`: hand-rolled structural validation, a
:class:`CollTableError` naming the first offending field, and a version
bump whenever a required field changes shape. The CI ``coll-smoke`` lane
round-trips a dumped table through :func:`validate_table`;
``CollTable.load`` validates before a policy is installed.

Version 2 (the only one read): bands are ``[ceiling_nbytes, algorithm,
protocol, channels]`` quadruples with *exclusive* ceilings (``nbytes <
ceiling``), matching the tuner's "first size the next winner wins"
convention; ``protocol`` is an NCCL-style wire protocol name or ``null``
(backend legacy) and ``channels`` the parallel-rail count. Version 1
(``[max_nbytes, algorithm]`` pairs, inclusive ceilings) is rejected.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "CollTableError",
    "validate_table",
]

SCHEMA_NAME = "repro.coll.table"
SCHEMA_VERSION = 2

_BACKENDS = ("mpi", "gpuccl", "gpushmem")
_KINDS = ("all_reduce", "all_gather", "broadcast", "reduce", "reduce_scatter")
_PROTOCOLS = ("LL", "LL128", "Simple")


class CollTableError(ValueError):
    """A tuning-table document failed validation or version dispatch."""


def _fail(msg: str) -> None:
    raise CollTableError(f"invalid {SCHEMA_NAME} document: {msg}")


def _check_band(where: str, band: Any) -> None:
    if not isinstance(band, (list, tuple)) or len(band) != 4:
        _fail(f"{where} must be a [ceiling_nbytes, algorithm, protocol, "
              "channels] quadruple")
    ceiling, algo, protocol, channels = band
    if ceiling is not None and not isinstance(ceiling, int):
        _fail(f"{where}: ceiling_nbytes must be an int or null")
    if not isinstance(algo, str) or not algo:
        _fail(f"{where}: algorithm must be a non-empty string")
    if protocol is not None and protocol not in _PROTOCOLS:
        _fail(f"{where}: protocol must be null or one of {_PROTOCOLS}")
    if not isinstance(channels, int) or isinstance(channels, bool) \
            or channels < 1:
        _fail(f"{where}: channels must be a positive int")


def validate_table(doc: Any) -> Dict[str, Any]:
    """Validate a v2 tuning table; returns it unchanged or raises
    :class:`CollTableError`. Any other version is rejected up front so a
    stale or future table never half-loads."""
    if not isinstance(doc, dict):
        _fail(f"expected object, got {type(doc).__name__}")
    if doc.get("schema") != SCHEMA_NAME:
        _fail(f"schema is {doc.get('schema')!r}, expected {SCHEMA_NAME!r}")
    if doc.get("version") != SCHEMA_VERSION:
        _fail(f"version is {doc.get('version')!r}, expected {SCHEMA_VERSION}")
    if not isinstance(doc.get("machine"), str):
        _fail("machine must be a string")
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        _fail("entries must be an object")
    for sig, backends in entries.items():
        if not isinstance(sig, str) or not sig:
            _fail("topology signatures must be non-empty strings")
        if not isinstance(backends, dict):
            _fail(f"entries[{sig!r}] must be an object")
        for backend, kinds in backends.items():
            if backend not in _BACKENDS:
                _fail(f"entries[{sig!r}]: unknown backend {backend!r}")
            if not isinstance(kinds, dict):
                _fail(f"entries[{sig!r}].{backend} must be an object")
            for kind, bands in kinds.items():
                if kind not in _KINDS:
                    _fail(f"entries[{sig!r}].{backend}: unknown kind {kind!r}")
                if not isinstance(bands, list) or not bands:
                    _fail(f"entries[{sig!r}].{backend}.{kind} must be a "
                          "non-empty list of band quadruples")
                for i, band in enumerate(bands):
                    _check_band(f"entries[{sig!r}].{backend}.{kind}[{i}]",
                                band)
                if bands[-1][0] is not None:
                    _fail(f"entries[{sig!r}].{backend}.{kind}: last band "
                          "must be open-ended (null ceiling)")
    return doc

