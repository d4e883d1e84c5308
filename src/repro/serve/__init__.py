"""repro.serve — a job-queue simulation service (ROADMAP item 4(b)).

The subsystem turns one-off ``launch()`` calls into cacheable, parallel
*jobs* (docs/SERVE.md):

- :class:`JobSpec` — a frozen, canonically-serialized description of one
  simulation whose :meth:`~JobSpec.config_hash` is stable across
  processes, dict orderings and spec-string formatting;
- :class:`ResultStore` — a content-addressed result cache keyed by config
  hash, persisting the JSON form of each run's
  :class:`~repro.launcher.RunReport` (hits/misses/invalidations counted
  in a :class:`~repro.obs.MetricsRegistry`);
- :class:`WorkerPool` — a generic ``multiprocessing`` fan-out with
  per-job timeouts, crash isolation (a dying worker fails only its job
  and is respawned), bounded retry and streamed progress events;
- :class:`JobService` — cache check -> pool dispatch -> store write,
  driving the ``repro serve`` / ``repro submit`` / ``repro jobs`` CLI
  verbs;
- :func:`expand_matrix` — deterministic sweep-matrix expansion shared
  with the benchmark harnesses (``benchmarks/_common.py``).

Everything in a cached result is bit-identical to a fresh run: the
simulation itself is deterministic, and the store round-trips reports
through ``RunReport.to_dict()`` with sorted-key JSON.
"""

from importlib import import_module

from .jobspec import JobSpec, canonical_coll, canonical_fault_spec
from .matrix import expand_matrix, parse_sweep
from .service import JobService
from .store import DEFAULT_STORE_ENV, ResultStore, default_store_path

#: The execution half loads on first use: the front half above answers a
#: request from the store without multiprocessing, numpy or the simulator
#: (docs/SERVE.md, "What a submit costs").
_ON_FIRST_USE = {"JobOutcome": "pool", "WorkerPool": "pool",
                 "execute_job": "runner"}

__all__ = [
    "JobSpec",
    "canonical_coll",
    "canonical_fault_spec",
    "expand_matrix",
    "parse_sweep",
    "JobOutcome",
    "WorkerPool",
    "execute_job",
    "JobService",
    "ResultStore",
    "DEFAULT_STORE_ENV",
    "default_store_path",
]


def __getattr__(name: str):
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ON_FIRST_USE[name]}"), name)
    globals()[name] = value
    return value
