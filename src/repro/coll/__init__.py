"""repro.coll: the topology-aware collective algorithm engine.

A backend-independent :class:`~repro.coll.schedule.Schedule` IR, the
algorithm catalogue (:mod:`repro.coll.algorithms`), an alpha-beta cost
model over Cluster paths (:mod:`repro.coll.cost`), per-backend duration
models (:mod:`repro.coll.models`) and the autotuner / runtime policy
(:mod:`repro.coll.tuner`). See docs/COLLECTIVES.md.

Backends consult ``engine.coll`` (a :class:`CollPolicy`, or None when no
engine is installed — the default, which keeps every legacy code path and
trace byte-identical). This package never imports the backends; they
import it.
"""

from .algorithms import (ALGORITHMS, CATALOGUE_KINDS, DEFAULT_ALGORITHM,
                         candidates, generate, is_applicable)
from .cost import (CHANNEL_COUNTS, PROTOCOL_SPECS, PROTOCOLS, ProtocolSpec,
                   Topology, protocol_spec, schedule_cost)
from .models import (CANONICAL_SHMEM_KINDS, GpucclModel, MpiModel, ShmemModel,
                     model_for)
from .schedule import (KINDS, Copy, Recv, RecvReduce, Schedule, Send,
                       chunk_layout, execute_schedule, reference_collective,
                       ring_neighbors, ring_path_params)
from .schema import (SCHEMA_NAME, SCHEMA_VERSION, CollTableError,
                     validate_table)
from .tuner import (CollPolicy, CollSelection, CollTable,
                    CollTuner, resolve_policy)

__all__ = [
    "ALGORITHMS",
    "CATALOGUE_KINDS",
    "DEFAULT_ALGORITHM",
    "CANONICAL_SHMEM_KINDS",
    "CHANNEL_COUNTS",
    "PROTOCOLS",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "protocol_spec",
    "CollSelection",
    "CollTableError",
    "KINDS",
    "Schedule",
    "Send",
    "Recv",
    "RecvReduce",
    "Copy",
    "Topology",
    "GpucclModel",
    "MpiModel",
    "ShmemModel",
    "CollPolicy",
    "CollTable",
    "CollTuner",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "candidates",
    "chunk_layout",
    "execute_schedule",
    "generate",
    "is_applicable",
    "model_for",
    "reference_collective",
    "resolve_policy",
    "ring_neighbors",
    "ring_path_params",
    "schedule_cost",
    "validate_table",
]
