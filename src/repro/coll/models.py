"""Per-backend duration models for generated collective schedules.

Each model answers one question for its backend: "how long does collective
``kind`` over ``nbytes`` take under ``algorithm``?" The *default*
algorithm of each backend reproduces that backend's legacy analytic
formula bit-for-bit (GPUCCL's fused ring kernel, GPUSHMEM's put-tree),
so installing a policy that picks the default changes nothing; every
other algorithm — and every MPI algorithm, ``native`` included — is priced
by :func:`~repro.coll.cost.schedule_cost` over the generated schedule.

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

from .cost import Topology, protocol_spec, schedule_cost
from .schedule import ring_path_params

__all__ = ["GpucclModel", "ShmemModel", "MpiModel", "model_for",
           "CANONICAL_SHMEM_KINDS"]


#: GPUSHMEM native collective kind -> canonical schedule kind (barrier and
#: alltoall have no schedule counterpart and stay on the legacy path).
CANONICAL_SHMEM_KINDS = {
    "broadcast": "broadcast",
    "reduce": "reduce",
    "allreduce": "all_reduce",
    "fcollect": "all_gather",
    "reduce_scatter": "reduce_scatter",
}


class GpucclModel:
    """Fused-kernel timing for GPUCCL collectives, any catalogue algorithm.

    The ``ring`` algorithm is the backend's historical `RingModel` —
    formulas and attribute names are preserved exactly so default traces
    stay byte-identical and existing callers (`shared.ring.allreduce_time`
    etc.) keep working.
    """

    def __init__(self, topo: Topology, profile):
        self.topo = topo
        self.profile = profile
        self.p = topo.nranks
        self.hop_latency, bottleneck = ring_path_params(topo.cluster,
                                                        topo.gpu_ids)
        self.ring_bandwidth = bottleneck * profile.ring_efficiency
        # Local reduction/copy speed inside the fused kernel.
        self.local_bandwidth = topo.local_bandwidth()
        self._cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------ #
    # The legacy ring formulas (the "ring" algorithm).
    # ------------------------------------------------------------------ #

    def _base(self) -> float:
        return self.profile.comm_launch_overhead + self.profile.protocol_overhead

    def _steps(self, n_steps: int, step_bytes: float) -> float:
        return n_steps * (step_bytes / self.ring_bandwidth + self.hop_latency)

    def allreduce_time(self, nbytes: int) -> float:
        """Ring allreduce: reduce-scatter + allgather, 2(p-1) chunk steps."""
        if self.p == 1:
            return self._base() + nbytes / self.local_bandwidth
        chunk = nbytes / self.p
        return self._base() + self._steps(2 * (self.p - 1), chunk)

    def reduce_time(self, nbytes: int) -> float:
        """Pipelined ring reduce to the root."""
        if self.p == 1:
            return self._base() + nbytes / self.local_bandwidth
        return self._base() + nbytes / self.ring_bandwidth + (self.p - 1) * self.hop_latency

    def broadcast_time(self, nbytes: int) -> float:
        """Pipelined ring broadcast from the root."""
        if self.p == 1:
            return self._base()
        return self._base() + nbytes / self.ring_bandwidth + (self.p - 1) * self.hop_latency

    def allgather_time(self, per_rank_nbytes: int) -> float:
        """Ring allgather: p-1 steps, each moving one rank's block."""
        if self.p == 1:
            return self._base()
        return self._base() + self._steps(self.p - 1, per_rank_nbytes)

    def reduce_scatter_time(self, per_rank_nbytes: int) -> float:
        """Ring reduce-scatter: p-1 chunk steps plus local reductions."""
        if self.p == 1:
            return self._base() + per_rank_nbytes / self.local_bandwidth
        return self._base() + self._steps(self.p - 1, per_rank_nbytes)

    # ------------------------------------------------------------------ #

    _RING_TIMES = {
        "all_reduce": "allreduce_time",
        "broadcast": "broadcast_time",
        "reduce": "reduce_time",
        "all_gather": "allgather_time",
        "reduce_scatter": "reduce_scatter_time",
    }

    def duration(self, kind: str, nbytes: int, algorithm: str = "ring",
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        """Kernel duration for one collective under ``algorithm``.

        With ``protocol=None`` and ``channels=1`` this is the historical
        model bit-for-bit (closed-form ring, schedule cost otherwise).
        An explicit protocol prices even ``ring`` over its generated
        schedule so LL/LL128/Simple framing applies per send, with a base
        of the kernel launch, the protocol's share of the fixed protocol
        machinery, and one FIFO-arming charge per channel.
        """
        legacy = protocol is None and channels == 1
        if self.p == 1 or (legacy and algorithm == "ring"):
            return getattr(self, self._RING_TIMES[kind])(nbytes)
        spec = protocol_spec(protocol)
        key = (kind, algorithm, spec.name if spec else None, channels, nbytes)
        cached = self._cache.get(key)
        if cached is None:
            sched = self.topo.schedule(algorithm, kind, nbytes)
            if sched is None:
                return getattr(self, self._RING_TIMES[kind])(nbytes)
            if legacy:
                base = self._base()
            else:
                ov_factor = 1.0 if spec is None else spec.overhead_factor
                base = (self.profile.comm_launch_overhead
                        + ov_factor * self.profile.protocol_overhead
                        + channels * self.profile.channel_launch_overhead)
            cached = self._cache[key] = base + schedule_cost(
                sched, self.topo, 1, bw_scale=self.profile.ring_efficiency,
                protocol=spec, channels=channels,
            )
        return cached


class ShmemModel:
    """Put-composed collective timing for GPUSHMEM teams.

    The ``tree`` algorithm is the backend's historical `TeamModel` put-tree
    formula, preserved exactly; other algorithms cost their schedule plus
    the per-round host post overhead and the closing barrier the backend's
    composed collectives always pay.
    """

    def __init__(self, topo: Topology, profile):
        self.topo = topo
        self.profile = profile
        self.p = topo.nranks
        self.hop_latency, self.bandwidth = ring_path_params(topo.cluster,
                                                            topo.gpu_ids)
        self.rounds = max(1, math.ceil(math.log2(max(self.p, 2))))
        self._cache: Dict[Tuple, float] = {}

    def barrier_time(self) -> float:
        """Modelled duration of one team barrier."""
        return self.rounds * (self.hop_latency + self.profile.barrier_overhead)

    def _tree(self, nbytes: float) -> float:
        per_round = self.hop_latency + nbytes / self.bandwidth + self.profile.host_post_overhead
        return self.rounds * per_round + self.barrier_time()

    def collective_time(self, kind: str, nbytes: int) -> float:
        """Modelled duration of one collective of a given kind/size."""
        if self.p == 1:
            return self.profile.host_post_overhead
        if kind == "barrier":
            return self.barrier_time()
        if kind in ("broadcast", "reduce", "allreduce"):
            return self._tree(nbytes)
        if kind in ("fcollect", "alltoall", "reduce_scatter"):
            # p-1 put rounds of one block each, plus the closing barrier.
            per_round = self.hop_latency + nbytes / self.bandwidth
            return (self.p - 1) * per_round + self.barrier_time()
        from ..errors import GpushmemError

        raise GpushmemError(f"unknown collective kind {kind!r}")

    def duration(self, kind: str, nbytes: int, algorithm: str = "tree",
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        """Duration of one *native-kind* collective under ``algorithm``.

        ``protocol=None, channels=1`` reproduces the historical put-tree /
        schedule-cost split exactly. An explicit protocol prices even
        ``tree`` over its generated schedule, applying LL/LL128/Simple
        framing to every put round plus one proxy post per extra rail.
        """
        canonical = CANONICAL_SHMEM_KINDS.get(kind)
        legacy = protocol is None and channels == 1
        if canonical is None or self.p == 1 or (legacy and algorithm == "tree"):
            return self.collective_time(kind, nbytes)
        spec = protocol_spec(protocol)
        key = (kind, algorithm, spec.name if spec else None, channels, nbytes)
        cached = self._cache.get(key)
        if cached is None:
            sched = self.topo.schedule(algorithm, canonical, nbytes)
            if sched is None:
                return self.collective_time(kind, nbytes)
            cost = schedule_cost(
                sched, self.topo, 1,
                per_round_overhead=self.profile.host_post_overhead,
                protocol=spec, channels=channels,
            )
            if not legacy:
                cost = channels * self.profile.channel_post_overhead + cost
            cached = self._cache[key] = cost + self.barrier_time()
        return cached


class MpiModel:
    """Tuner-side estimate of MPI collective latency.

    MPI *executes* every data collective as a generated schedule — its
    ``native`` algorithms included — as real isend/irecv programs, so this
    model prices each candidate, ``native`` too, over the very schedule the
    executor runs: :func:`~repro.coll.cost.schedule_cost` with per-round
    host call overhead and eager bounce-buffer staging above the threshold.
    (A native allgather runs as a gather-v plus a public broadcast, which
    is selected on its own; its price assumes that broadcast is native.)
    """

    def __init__(self, topo: Topology, profile):
        self.topo = topo
        self.profile = profile
        self.p = topo.nranks
        self._staging_inv_bw = (
            0.0 if profile.collective_gpu_direct else 1.0 / profile.eager_copy_bandwidth
        )
        self._cache: Dict[Tuple, float] = {}

    def duration(self, kind: str, nbytes: int, algorithm: str = "native",
                 protocol: Optional[str] = None, channels: int = 1) -> float:
        """Estimated latency of one collective under ``algorithm``.

        MPI has no GPU wire protocols — ``protocol`` is accepted for API
        symmetry, and the tuner pins it to ``None`` for this backend.
        ``channels`` models striping every send into that many isend/irecv
        chunks: each chunk pays its own host calls and per-message
        overhead, and there is no idle wire bandwidth to recover, so extra
        channels only ever help when the executor's real per-chunk
        pipelining (not modelled here) wins.
        """
        spec = protocol_spec(protocol)
        key = (kind, algorithm, spec.name if spec else None, channels, nbytes)
        cached = self._cache.get(key)
        if cached is None:
            sched = self.topo.schedule(algorithm, kind, nbytes)
            cached = self._cache[key] = schedule_cost(
                sched, self.topo, 1,
                per_round_overhead=2 * self.profile.host_call_overhead * channels,
                staging_threshold=self.profile.eager_threshold,
                staging_inv_bw=self._staging_inv_bw,
                protocol=spec, channels=channels,
            )
        return self.profile.collective_call_overhead + cached


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
