"""The Uniconn Communicator (paper Section IV-C).

Encapsulates the backend's own communicator/team object behind one
interface: global size/rank, split, host/device barriers, and
``to_device()`` for device-side use. Creation requires the GPU to be
selected already (GPUCCL and GPUSHMEM both need it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..backends.gpuccl import GpucclComm, GpucclUniqueId
from ..errors import CommRevokedError, GpucclError, UniconnError
from ..gpu.stream import Stream
from ..obs.spans import Span
from .backend import GpucclBackend, GpushmemBackend, MPIBackend
from .environment import Environment

__all__ = ["CommHealth", "Communicator", "DeviceComm"]

from contextlib import nullcontext

_NULL = nullcontext()


@dataclass(frozen=True)
class CommHealth:
    """Snapshot of a communicator's liveness (see ``Communicator.health``)."""

    ok: bool
    crashed_ranks: Tuple[int, ...] = ()
    detail: str = ""


class DeviceComm:
    """Device-side communicator handle (valid inside GPU kernels)."""

    __slots__ = ("team", "size", "rank", "pes")

    def __init__(self, team, size: int, rank: int, pes: dict):
        self.team = team
        self.size = size
        self.rank = rank
        self.pes = pes


class _Latch:
    """Revocation and abort state shared by every member's handle on one
    communicator, like NCCL's shared comm error."""

    __slots__ = ("revoked", "aborted")

    def __init__(self):
        self.revoked: Optional[Tuple[str, float]] = None  # (reason, virtual time)
        self.aborted: Optional[str] = None  # the abort's detail

    def error(self) -> CommRevokedError:
        reason, when = self.revoked
        return CommRevokedError(f"communicator revoked at t={when:.9g}s: {reason}",
                                reason=reason, when=when)


class Communicator:
    """Backend-agnostic process group, bound at construction: ``native`` is
    the backend's own communicator or team, ``size``/``rank`` its size and
    this process's rank, ``pes`` (GPUSHMEM) maps a rank to its world PE and
    ``latch`` is the revocation state every op reads (the Coordinator too)."""

    def __init__(self, env: Environment, _parts=None, _kind: Optional[str] = None):
        self.env = env
        self.backend = backend = env.backend
        self.engine = env.engine
        if _parts is not None:
            self._mpi_comm, self.native = _parts
        else:
            # The CPU-side communicator: the only one on MPI, the one the
            # other backends coordinate through (latch, consensus, split).
            self._mpi_comm = env.mpi.comm_world
            if backend is GpucclBackend:
                uid = GpucclUniqueId.__new__(GpucclUniqueId)
                uid.value = env.bootstrap_gpuccl_uid()
                self.native = GpucclComm(env.rank_ctx, uid, env.world_size(), env.world_rank())
            elif backend is GpushmemBackend:
                self.native = env.shmem.team_world
            else:
                self.native = self._mpi_comm
        self.size = self.native.size
        self.rank = self.native.my_pe if backend is GpushmemBackend else self.native.rank
        # A dict, not a list: a peer out of range raises instead of wrapping.
        self.pes = dict(enumerate(self.native.members)) if backend is GpushmemBackend else None
        self._closed = False
        self.latch = env.rank_ctx.job.shared_state(
            ("uniconn_comm_flags", self._mpi_comm.comm_id), _Latch
        )
        self._res_seq = 0  # agree/shrink round counter (lockstep by contract)
        metrics = self.engine.metrics
        metrics.inc(
            "communicator_init_total",
            backend=backend.name,
            rank=env.world_rank(),
            kind=_kind or ("split" if _parts is not None else "world"),
        )
        self._barrier_calls = metrics.bind_counter(
            "uniconn_calls_total", op="barrier", backend=backend.name, rank=self.rank,
        )

    # ------------------------------------------------------------------ #

    def global_size(self) -> int:
        """Process count of this communicator (paper GlobalSize)."""
        return self.size

    def global_rank(self) -> int:
        """This process's rank in the communicator (paper GlobalRank)."""
        return self.rank

    # ------------------------------------------------------------------ #

    def barrier(self, *, stream: Optional[Stream] = None) -> None:
        """Synchronize all processes of the communicator.

        MPI: host barrier (after draining the stream — MPI is not stream
        aware). GPUCCL: a stream-ordered zero-payload allreduce. GPUSHMEM:
        the communicator's team barrier (stream-ordered when a stream is
        given), so split sub-communicators synchronize only their members.
        """
        if self.latch.revoked:
            raise self.latch.error()
        self._barrier_calls.inc()
        with self._span("barrier", "sync"):
            self.engine.defer_busy(self.env.costs.dispatch)
            if self.backend is MPIBackend:
                if stream is not None:
                    stream.synchronize()
                self.native.barrier()
            elif self.backend is GpucclBackend:
                s = stream if stream is not None else self.env.device.default_stream
                token = np.zeros(1, np.float32)
                self.native.all_reduce(token, token, 1, "sum", s)
                if stream is None:
                    s.synchronize()
            else:
                self.native.run_collective("barrier", None, None, 0, stream=stream)

    def split(self, color: int, *, key: int = 0) -> "Communicator":
        """Create a sub-communicator (collective over all members)."""
        if self.latch.revoked:
            raise self.latch.error()
        self.engine.defer_busy(self.env.costs.dispatch)
        sub_mpi = self._mpi_comm.split(color, key)
        if self.backend is MPIBackend:
            return Communicator(self.env, _parts=(sub_mpi, sub_mpi))
        return Communicator(self.env, _parts=(sub_mpi, self.native.split(color, key)))

    def to_device(self) -> DeviceComm:
        """A communicator handle usable inside device kernels.

        Only meaningful for backends with a device API (GPUSHMEM); the
        paper's host-only backends have no device-side communicator.
        """
        if not self.backend.supports_device_api:
            raise UniconnError(
                f"backend {self.backend.name} has no device API; "
                f"to_device() requires GPUSHMEM"
            )
        return DeviceComm(self.native, self.size, self.rank, self.pes)

    # ------------------------------------------------------------------ #
    # Robustness (fault injection, repro.sim.faults).
    # ------------------------------------------------------------------ #

    def health(self) -> CommHealth:
        """Nonblocking liveness probe of the communicator's members.

        Consults the backend's asynchronous error state (GPUCCL
        ``async_error_query``), the shared abort/revocation latch (all
        backends — so ``health()`` after ``abort()`` reports ``ok=False``
        uniformly), and the installed fault injector, scoped to *this
        communicator's members*: a shrunken communicator is healthy again
        even though the world has crashed ranks. A healthy, fault-free run
        always returns ``ok=True`` with no overhead beyond the checks.
        """
        injector = self.engine.fault_injector
        crashed = (
            tuple(injector.crashed_among(self._mpi_comm.members))
            if injector is not None and injector.crashed_ranks
            else ()
        )
        if self.backend is GpucclBackend:
            error = self.native.async_error_query()
            if error is not None:
                return CommHealth(ok=False, crashed_ranks=crashed, detail=str(error))
        aborted = self.latch.aborted
        if aborted is not None:
            return CommHealth(
                ok=False, crashed_ranks=crashed, detail=f"communicator aborted: {aborted}"
            )
        revoked = self.latch.revoked
        if revoked is not None:
            return CommHealth(
                ok=False, crashed_ranks=crashed, detail=f"communicator revoked: {revoked[0]}"
            )
        if crashed:
            return CommHealth(
                ok=False,
                crashed_ranks=crashed,
                detail=f"rank(s) {list(crashed)} crashed "
                f"(observed at t={self.engine.now:.9g}s)",
            )
        return CommHealth(ok=True)

    def abort(self, reason: str = "") -> None:
        """Tear the communicator down with diagnostics instead of hanging.

        Latches the abort into the communicator's shared state (so
        ``health()`` reports ``ok=False`` on every member afterwards, on
        every backend), tears down the GPUCCL comm when one exists, and
        raises :class:`UniconnError` carrying the reason. Always raises.
        """
        health = self.health()
        detail = reason or health.detail or "application abort"
        if self.latch.aborted is None:
            self.latch.aborted = detail
        message = (
            f"communicator aborted by rank {self.rank}/"
            f"{self.size} at t={self.engine.now:.9g}s: {detail}"
        )
        if self.backend is GpucclBackend:
            try:
                self.native.abort(detail)
            except GpucclError as exc:
                raise UniconnError(message) from exc
        raise UniconnError(message)

    # ------------------------------------------------------------------ #
    # Recovery (ULFM-style revoke/agree/shrink; repro.resilience).
    # ------------------------------------------------------------------ #

    @property
    def revoked(self) -> bool:
        """True once any member revoked this communicator."""
        return self.latch.revoked is not None

    def revoke(self, reason: str = "") -> None:
        """Revoke the communicator (ULFM ``MPI_Comm_revoke`` analogue).

        Non-collective: the first caller latches the revocation for every
        member; subsequent communication on this communicator raises
        :class:`~repro.errors.CommRevokedError` everywhere, while the
        recovery operations (``health``/``agree``/``shrink``) stay usable.
        On GPUCCL the shared comm error is latched too, so peers polling
        ``async_error_query`` observe the revocation like any async error.
        Idempotent.
        """
        if self.latch.revoked is not None:
            return
        detail = reason or "communicator revoked"
        when = self.engine.now
        self.latch.revoked = (detail, when)
        # Tear down in-flight traffic: any payload still on the wire (for
        # example stuck behind a downed link) must never land in buffers a
        # post-shrink generation rebuilds. Latched above, so the epoch
        # advances exactly once per revocation.
        self.engine.fence()
        if self.backend is GpucclBackend and self.native.shared.error is None:
            self.native.shared.error = GpucclError(
                f"gpuccl comm revoked at t={when:.9g}s: {detail}"
            )
        self.engine.metrics.inc(
            "comm_revoked_total", backend=self.backend.name, rank=self.rank
        )
        injector = self.engine.fault_injector
        if injector is not None:
            injector.record("recover.revoke", rank=self.rank, reason=detail)
        else:
            self.engine.trace("recover.revoke", rank=self.rank, reason=detail)

    def _retry_policy(self):
        injector = self.engine.fault_injector
        if injector is not None:
            return injector.plan.retry_policy()
        from ..resilience import RetryPolicy

        return RetryPolicy()

    def _consensus(self, flag: bool):
        """One agree/shrink vote round over this comm's members."""
        from ..resilience.consensus import consensus_round, consensus_state

        state = consensus_state(
            self.env.rank_ctx.job,
            self._mpi_comm.comm_id,
            self.engine,
            self._mpi_comm.members,
        )
        self._res_seq += 1
        return consensus_round(
            state, self._res_seq, self.env.world_rank(), flag, self._retry_policy()
        )

    def agree(self, flag: bool = True) -> bool:
        """Fault-tolerant consensus (ULFM ``MPI_Comm_agree`` analogue).

        Collective over the live members. Returns True iff *every* member
        contributed ``flag=True`` and none crashed: a crash anywhere in
        the communicator fails the vote, so callers learn about a dead
        peer at the next agreement point instead of committing an
        iteration built on stale data. Works on revoked communicators
        (it is the recovery path). Deterministic per (fault spec, seed).
        """
        self.engine.metrics.inc(
            "uniconn_calls_total",
            op="agree",
            backend=self.backend.name,
            rank=self.rank,
        )
        ok, _ = self._consensus(bool(flag))
        return ok

    def shrink(self) -> "Communicator":
        """Build a new communicator over the surviving ranks (ULFM
        ``MPI_Comm_shrink`` analogue).

        Collective over the survivors: consensus determines the survivor
        list, then every backend part is reconstructed over it — a fresh
        MPI communicator, a GPUCCL group re-init from a new unique id, a
        GPUSHMEM team rebuilt over the surviving PEs. The caller should
        build a fresh stream/Coordinator on the result: operations stuck
        on the old communicator's streams stay abandoned there.
        """
        with self._span("shrink", "recover"):
            _, survivors = self._consensus(True)
            members = list(survivors)
            me = self.env.world_rank()
            lost = len(self._mpi_comm.members) - len(members)
            key = ("uniconn_shrink", self._mpi_comm.comm_id, self._res_seq)
            ctx = self.env.mpi
            from ..backends.mpi.comm import MpiCommunicator

            new_id = ctx.world.alloc_comm_ids(key, 1)
            new_mpi = native = MpiCommunicator(ctx, new_id, members)
            if self.backend is GpucclBackend:
                uid = self.env.rank_ctx.job.shared_state(
                    ("gpuccl_uid",) + key, GpucclUniqueId
                )
                native = GpucclComm(self.env.rank_ctx, uid, len(members), members.index(me))
            elif self.backend is GpushmemBackend:
                from ..backends.gpushmem.collectives import ShmemTeam

                native = ShmemTeam(self.native.world, members, me, key)
            if me == members[0]:
                # Run-level bookkeeping lands once per shrink, not per rank.
                if lost > 0:
                    self.engine.metrics.inc(
                        "ranks_lost_total", lost, backend=self.backend.name
                    )
                injector = self.engine.fault_injector
                if injector is not None:
                    injector.record(
                        "recover.shrink",
                        comm=self._mpi_comm.comm_id,
                        survivors=members,
                        lost=lost,
                    )
                else:
                    self.engine.trace(
                        "recover.shrink",
                        comm=self._mpi_comm.comm_id,
                        survivors=members,
                        lost=lost,
                    )
            return Communicator(self.env, _parts=(new_mpi, native), _kind="shrink")

    # ------------------------------------------------------------------ #
    # Structured teardown (context-manager form of the paper's RAII).
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release backend communicator state (idempotent).

        Destroys the underlying GPUCCL communicator when this communicator
        owns one; MPI communicators and GPUSHMEM teams are torn down with
        the Environment.
        """
        if self._closed:
            return
        self._closed = True
        if self.backend is GpucclBackend and not self.native.destroyed:
            self.native.destroy()

    def __enter__(self) -> "Communicator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._closed = True  # skip backend teardown during unwind

    def _span(self, name: str, cat: str, **fields):
        """A span context for one communicator operation (no-op unless the
        run opted into span tracing)."""
        engine = self.engine
        if engine.obs_spans and engine.trace_hook is not None:
            device = self.env.rank_ctx.device
            if device is not None:
                fields.setdefault("gpu", device.gpu_id)
            return Span(engine, name, cat, {"rank": self.rank,
                                            "backend": self.backend.name, **fields})
        return _NULL

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Communicator backend={self.backend.name} rank={self.rank}/{self.size}>"
