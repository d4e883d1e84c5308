"""Per-backend duration models for generated collective schedules.

Each model answers one question for its backend: "how long does collective
``kind`` over ``nbytes`` take under ``algorithm``?" Every answer is the
backend's fixed charges plus :func:`~repro.coll.cost.schedule_cost` of the
algorithm's generated schedule; with no algorithm named, that is the
backend's default (:data:`~repro.coll.algorithms.DEFAULT_ALGORITHM`), so
installing a policy that picks the default changes nothing.

These classes live here (not in the backends) so the tuner can score all
three backends without importing any of them; the backends import *this*
module. Constructors take ``(topo, profile)``: a model never builds its
own :class:`~repro.coll.cost.Topology`, it prices the schedules the
communicator's Topology owns. :func:`model_for` is how everyone — the
backends, :class:`~repro.coll.tuner.CollPolicy`, the tuner — gets one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from .algorithms import DEFAULT_ALGORITHM
from .cost import Topology, protocol_spec, schedule_cost
from .schedule import ring_path_params

__all__ = ["GpucclModel", "ShmemModel", "MpiModel", "model_for",
           "CANONICAL_SHMEM_KINDS"]


#: GPUSHMEM native collective kind -> canonical schedule kind (the
#: barrier has no schedule counterpart; alltoall is priced, never selected).
CANONICAL_SHMEM_KINDS = {
    "broadcast": "broadcast", "reduce": "reduce", "allreduce": "all_reduce",
    "fcollect": "all_gather", "reduce_scatter": "reduce_scatter",
    "alltoall": "all_to_all",
}

#: GPUCCL kinds whose single-rank kernel still reduces its input locally.
_REDUCING = ("all_reduce", "reduce", "reduce_scatter")


class _ScheduleModel:
    """What the three models share: ``duration`` is ``_price`` of the
    algorithm's schedule (the default's when None), cached."""

    backend = ""

    def __init__(self, topo: Topology, profile):
        self.topo = topo
        self.profile = profile
        self.p = topo.nranks
        self._cache: Dict[Tuple, float] = {}

    def duration(self, kind: str, nbytes: int, algorithm: Optional[str] = None,
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        if algorithm is None:
            algorithm = DEFAULT_ALGORITHM[self.backend][kind]
        spec = protocol_spec(protocol)
        key = (kind, algorithm, spec.name if spec else None, channels, nbytes)
        cached = self._cache.get(key)
        if cached is None:
            sched = self.topo.schedule(algorithm, kind, nbytes)
            if sched is None:
                raise ValueError(f"{algorithm!r} generates no {kind} "
                                 f"schedule for {self.p} ranks")
            cached = self._cache[key] = self._price(sched, spec, channels)
        return cached


class GpucclModel(_ScheduleModel):
    """Fused-kernel timing for GPUCCL collectives, any catalogue algorithm.

    A collective costs the kernel launch, the protocol's share of the
    fixed protocol machinery, one FIFO-arming charge per channel, and its
    schedule with every send at the ring efficiency. ``protocol=None``
    prices sends with no wire-protocol framing.
    """

    backend = "gpuccl"

    def duration(self, kind: str, nbytes: int, algorithm: Optional[str] = None,
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        """Kernel duration for one collective under ``algorithm`` (the
        default ring when None). One rank moves nothing: it pays the
        launch, the protocol machinery and any local reduction."""
        if self.p == 1:
            local = (nbytes / self.topo.local_bandwidth()
                     if kind in _REDUCING else 0.0)
            return (self.profile.comm_launch_overhead
                    + self.profile.protocol_overhead + local)
        return super().duration(kind, nbytes, algorithm, protocol, channels)

    def _price(self, sched, spec, channels: int) -> float:
        profile = self.profile
        ov_factor = 1.0 if spec is None else spec.overhead_factor
        return (profile.comm_launch_overhead
                + ov_factor * profile.protocol_overhead
                + channels * profile.channel_launch_overhead
                + schedule_cost(sched, self.topo, 1,
                                bw_scale=profile.ring_efficiency,
                                protocol=spec, channels=channels))


class ShmemModel(_ScheduleModel):
    """Put-composed collective timing for GPUSHMEM teams.

    A collective costs one proxy post per rail, its schedule with the host
    post overhead on every put round, and the closing team barrier.
    ``duration`` takes the library's own kind names (``allreduce``,
    ``fcollect``, ...; :data:`CANONICAL_SHMEM_KINDS`) and ``barrier``.
    """

    backend = "gpushmem"

    def __init__(self, topo: Topology, profile):
        super().__init__(topo, profile)
        self.hop_latency = ring_path_params(topo.cluster, topo.gpu_ids)[0]
        self.rounds = max(1, math.ceil(math.log2(max(self.p, 2))))

    def barrier_time(self) -> float:
        """Modelled duration of one team barrier."""
        return self.rounds * (self.hop_latency + self.profile.barrier_overhead)

    def duration(self, kind: str, nbytes: int, algorithm: Optional[str] = None,
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        """Duration of one *native-kind* collective under ``algorithm``
        (the kind's default when None). An explicit protocol applies
        LL/LL128/Simple framing to every put round."""
        canonical = CANONICAL_SHMEM_KINDS.get(kind)
        if canonical is None and kind != "barrier":
            from ..errors import GpushmemError

            raise GpushmemError(f"unknown collective kind {kind!r}")
        if self.p == 1:
            return self.profile.host_post_overhead
        if canonical is None:
            return self.barrier_time()
        return super().duration(canonical, nbytes, algorithm, protocol,
                                channels)

    def _price(self, sched, spec, channels: int) -> float:
        return (channels * self.profile.channel_post_overhead
                + schedule_cost(sched, self.topo, 1,
                                per_round_overhead=self.profile.host_post_overhead,
                                protocol=spec, channels=channels)
                + self.barrier_time())


class MpiModel(_ScheduleModel):
    """Tuner-side estimate of MPI collective latency.

    MPI *executes* every data collective as a generated schedule — its
    ``native`` algorithms included — as real isend/irecv programs, so this
    model prices each candidate, ``native`` too, over the very schedule the
    executor runs: :func:`~repro.coll.cost.schedule_cost` with per-round
    host call overhead and eager bounce-buffer staging above the threshold.
    (A native allgather runs as a gather-v plus a public broadcast, which
    is selected on its own; its price assumes that broadcast is native.)

    MPI has no GPU wire protocols — ``protocol`` is accepted for API
    symmetry, and the tuner pins it to ``None`` for this backend.
    ``channels`` models striping every send into that many isend/irecv
    chunks: each chunk pays its own host calls and per-message overhead,
    and there is no idle wire bandwidth to recover, so extra channels only
    ever help when the executor's real per-chunk pipelining (not modelled
    here) wins.
    """

    backend = "mpi"

    def __init__(self, topo: Topology, profile):
        super().__init__(topo, profile)
        self._staging_inv_bw = (
            0.0 if profile.collective_gpu_direct else 1.0 / profile.eager_copy_bandwidth
        )

    def _price(self, sched, spec, channels: int) -> float:
        return self.profile.collective_call_overhead + schedule_cost(
            sched, self.topo, 1,
            per_round_overhead=2 * self.profile.host_call_overhead * channels,
            staging_threshold=self.profile.eager_threshold,
            staging_inv_bw=self._staging_inv_bw,
            protocol=spec, channels=channels,
        )


_MODELS = {"gpuccl": GpucclModel, "mpi": MpiModel, "gpushmem": ShmemModel}


def model_for(backend: str, topo: Topology):
    """The run's one ``backend`` duration model over ``topo``.

    Built on first use and kept on the Topology, so the backend that times
    its collectives with it, the policy that ranks candidates with it and
    the tuner share one set of cached durations. None when the machine has
    no profile for the backend (no GPUSHMEM on that preset).
    """
    if backend not in topo.models:
        if backend not in _MODELS:
            raise ValueError(f"unknown backend {backend!r}")
        profile = getattr(topo.cluster.machine, backend)
        topo.models[backend] = (
            None if profile is None else _MODELS[backend](topo, profile))
    return topo.models[backend]
