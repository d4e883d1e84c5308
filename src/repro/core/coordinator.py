"""The Uniconn Coordinator (paper Sections IV-E to IV-G).

One Coordinator per solver phase owns a GPU stream, the kernel bound for
the active :class:`LaunchMode`, and the host-side communication primitives
(`post`/`acknowledge`, collectives, `comm_start`/`comm_end` grouping), each
mapped onto the selected backend with that backend's own semantics
(paper Section V-A):

====================  ======================  =====================  =========================
 primitive             MPI                     GPUCCL                 GPUSHMEM
====================  ======================  =====================  =========================
 post                  Send / Isend (group)    ncclSend on stream     put-with-signal on stream
 acknowledge           Recv / Irecv (group)    ncclRecv on stream     signal wait on stream
 comm_start/comm_end   switch to nonblocking   group start/end        (one-sided: no-op)
                       + waitall
 collectives           MPI collectives after   native or grouped      native team ops or
                       draining the stream     P2P composition        puts + barrier
====================  ======================  =====================  =========================

The MPI column also reproduces the overhead sources the paper measured:
each call runs the blocking/non-blocking decision logic and queries the GPU
stream (MPI has no stream integration), charged from the machine's
:class:`~repro.hardware.profiles.UniconnCosts` (``MachineSpec.uniconn``).

Backend and launch mode are the paper's template parameters and are
resolved like them, once: ``Coordinator(env, ...)`` builds the class for
``env``'s backend (one per column above, GPUSHMEM one per launch mode) with
costs, runtimes and metric series looked up in ``__init__``; it reads the
backend object, ranks and revocation latch a :class:`Communicator` bound at
its construction, so ``post``/``acknowledge``/``comm_start``/``comm_end``
are each one frame into the backend, and a collective is one
``_collective`` over the binding's kind -> native-call table. Span tracing
(``launch(obs="spans")``) is a layer around it that other runs never build.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..backends.common import as_array
from ..backends.gpuccl import GpucclComm
from ..backends.gpuccl import group_end as _ccl_group_end, group_start as _ccl_group_start
from ..backends.gpushmem import ShmemContext, SymBuffer
from ..backends.mpi import MpiCommunicator, waitall as _mpi_waitall
from ..errors import UniconnError
from ..gpu.kernel import DeviceCtx, KernelSpec
from ..gpu.stream import Stream
from ..obs import SeriesBy
from ..obs.spans import Span, begin_span, end_span
from .backend import GpucclBackend, MPIBackend
from .communicator import Communicator
from .device import attach_device_api
from .environment import Environment
from .launch_mode import LaunchMode, resolve_launch_mode
from .memory import RmaBuffer
from .reduction import resolve_op

__all__ = ["Coordinator", "IN_PLACE"]

# Sentinel for the paper's "+In-Place" collective variants.
IN_PLACE = object()


class _Binding(NamedTuple):
    kernel: KernelSpec
    grid: Any
    block: Any
    args: Any


class Coordinator:
    """Kernel-launch and communication coordinator for one stream."""

    #: True when Post/Acknowledge run one-sided and need signal words from
    #: ``Memory.alloc`` (GPUSHMEM, and the ``mpi-rma`` backend): the test an
    #: app uses to decide whether to allocate them.
    uses_signals = False

    def __new__(cls, env: Environment, *, stream=None, launch_mode=None):
        if cls is Coordinator:
            cls = _implementation(env, resolve_launch_mode(launch_mode))
        return super().__new__(cls)

    def __init__(self, env: Environment, *, stream: Optional[Stream] = None,
                 launch_mode: Union[str, LaunchMode, None] = None):
        self.env = env
        self.backend = env.backend
        self.engine = env.engine
        self.stream = stream if stream is not None else env.device.default_stream
        self.launch_mode = resolve_launch_mode(launch_mode)
        self._binding: Optional[_Binding] = None
        self._grouping = False
        self._dispatch = env.costs.dispatch
        self._launch = env.device.launch
        self._calls = SeriesBy(  # one counter per op, bound at the op's first call
            self.engine.metrics.bind_counter, "uniconn_calls_total", "op",
            backend=self.backend.name, rank=env.world_rank())

    # Kernel management (paper Section IV-E2).

    def bind_kernel(self, mode: Union[str, LaunchMode], kernel: KernelSpec, grid, block,
                    *, shmem_bytes: int = 0, args: Sequence[Any] = ()) -> None:
        """Store launch parameters if ``mode`` matches this Coordinator.

        Like the paper's ``BindKernel<LaunchMode::X>``, an application binds
        one kernel per mode; only the binding matching the Coordinator's
        mode takes effect. ``args`` may be a callable evaluated at each
        launch — the analogue of CUDA's launch-time capture of the host
        variables the ``kernelArgs`` array points at (which is how the
        paper's bind-once pattern survives pointer swaps in the time loop).
        """
        mode = resolve_launch_mode(mode)
        if mode is not self.launch_mode:
            return
        wants_device = mode.uses_device_api
        if wants_device and not kernel.uses_device_comm:
            raise UniconnError(f"{mode.name} needs a @device_kernel; {kernel.name} is compute-only")
        if not wants_device and kernel.uses_device_comm:
            raise UniconnError(f"PureHost needs a compute-only kernel; {kernel.name} uses device comm")
        self._binding = _Binding(
            self._launchable(kernel), grid, block, args if callable(args) else tuple(args)
        )

    def _launchable(self, kernel: KernelSpec) -> KernelSpec:
        return kernel

    def launch_kernel(self) -> None:
        """Launch the bound kernel with the backend-appropriate mechanism."""
        b = self._binding
        if b is None:
            raise UniconnError(f"no kernel bound for launch mode {self.launch_mode.name}")
        self._calls["launch_kernel"].inc()
        self.engine.defer_busy(self._dispatch)
        self._launch(
            b.kernel, b.grid, b.block,
            args=b.args() if callable(b.args) else b.args, stream=self.stream,
        )

    # Operation grouping (paper Section IV-G). These are the one-sided
    # bindings' (nothing to complete); the two-sided ones override them.

    def comm_start(self) -> None:
        """Begin a non-blocking group of communication operations."""
        if self._grouping:
            raise UniconnError("comm_start inside an open group")
        self._calls["comm_start"].inc()
        self.engine.defer_busy(self._dispatch)
        self._grouping = True

    def comm_end(self) -> None:
        """Complete all operations registered since :meth:`comm_start`."""
        if not self._grouping:
            raise UniconnError("comm_end without comm_start")
        self._calls["comm_end"].inc()
        self.engine.defer_busy(self._dispatch)
        self._grouping = False

    # P2P primitives (paper Section IV-F2). Every op of every binding counts
    # the call, pays its charge, then raises if ``comm`` is revoked.

    def post(self, sendbuf, recvbuf, count: int, sig, sig_val: int, dest: int,
             comm: Communicator, *, tag: int = 0) -> None:
        """Send ``count`` elements to ``dest``.

        ``recvbuf`` is the (symmetric) destination address and ``sig`` the
        signal location — both used by the one-sided backend and ignored by
        the two-sided ones, so one call site serves every backend.
        """
        raise NotImplementedError

    def acknowledge(self, recvbuf, count: int, sig, sig_val: int, src: int,
                    comm: Communicator, *, tag: int = 0) -> None:
        """Complete the reception of a matching :meth:`post`."""
        raise NotImplementedError

    # Collectives (paper Section IV-F3; mapping per Section V-A). The public
    # method resolves IN_PLACE where the op accepts it and hands the
    # binding's ``_collective(kind, comm, args, buf, count, root=None)`` the
    # native-order arguments; ``buf``, ``count`` and ``root`` say what the
    # op moves (the span layer's fields).

    def all_reduce(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn AllReduce (paper Listing 7; IN_PLACE accepted)."""
        send = recvbuf if sendbuf is IN_PLACE else sendbuf
        self._collective("all_reduce", comm, (send, recvbuf, count, resolve_op(op)), recvbuf, count)

    def reduce(self, sendbuf, recvbuf, count: int, op, root: int, comm: Communicator) -> None:
        """Uniconn Reduce to a root (IN_PLACE accepted)."""
        send = recvbuf if sendbuf is IN_PLACE else sendbuf
        self._collective("reduce", comm, (send, recvbuf, count, resolve_op(op), root),
                         recvbuf, count, root)

    def broadcast(self, buf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Broadcast from a root."""
        self._collective("broadcast", comm, (buf, count, root), buf, count, root)

    def all_gather(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AllGather (equal counts)."""
        self._collective("all_gather", comm, (sendbuf, recvbuf, count), sendbuf, count)

    def reduce_scatter(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn ReduceScatter: each rank keeps its ``count``-element
        chunk of the reduced ``size * count`` vector (IN_PLACE accepted)."""
        send = recvbuf if sendbuf is IN_PLACE else sendbuf
        self._collective("reduce_scatter", comm, (send, recvbuf, count, resolve_op(op)),
                         recvbuf, count)

    def all_gather_v(self, sendbuf, sendcount: int, recvbuf, counts: Sequence[int],
                     displs: Sequence[int], comm: Communicator) -> None:
        """Vectorized allgather (the CG solver's exchange primitive)."""
        self._collective("all_gather_v", comm, (sendbuf, sendcount, recvbuf, counts, displs),
                         sendbuf, sendcount)

    def gather(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Gather (equal counts) to a root."""
        p = comm.size
        self.gather_v(sendbuf, count, recvbuf, [count] * p, [i * count for i in range(p)], root, comm)

    def gather_v(self, sendbuf, sendcount: int, recvbuf, counts: Sequence[int],
                 displs: Sequence[int], root: int, comm: Communicator) -> None:
        """Uniconn vectorized Gather (+Vectorized in Listing 7; IN_PLACE accepted)."""
        if sendbuf is IN_PLACE:
            sendbuf = _slice(recvbuf, displs[comm.rank], counts[comm.rank])
        self._collective("gather_v", comm, (sendbuf, sendcount, recvbuf, counts, displs, root),
                         recvbuf, sendcount, root)

    def scatter(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Scatter (equal counts) from a root."""
        p = comm.size
        self.scatter_v(sendbuf, [count] * p, [i * count for i in range(p)], recvbuf, count, root, comm)

    def scatter_v(self, sendbuf, counts: Sequence[int], displs: Sequence[int], recvbuf,
                  recvcount: int, root: int, comm: Communicator) -> None:
        """Uniconn vectorized Scatter."""
        self._collective("scatter_v", comm, (sendbuf, counts, displs, recvbuf, recvcount, root),
                         recvbuf, recvcount, root)

    def all_to_all(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AlltoAll."""
        self._collective("all_to_all", comm, (sendbuf, recvbuf, count), sendbuf, count)


def _slice(buf, start: int, count: int):
    if isinstance(buf, np.ndarray):
        return buf.reshape(-1)[start : start + count]
    if isinstance(buf, SymBuffer):
        return buf.offset_by(start, count)
    return buf.offset(start, count)  # DeviceBuffer


def _reject_in_place(kind: str, args: tuple) -> None:
    """IN_PLACE left among a collective's arguments: an op that does not
    accept it (only all_reduce, reduce, reduce_scatter and gather_v do)."""
    for arg in args:
        if arg is IN_PLACE:
            raise UniconnError(f"{kind} does not accept IN_PLACE")


# MPI: host-driven, two-sided, not stream-aware. Every collective is native.


_MPI_COLLECTIVES = {
    "all_reduce": MpiCommunicator.allreduce, "reduce": MpiCommunicator.reduce,
    "broadcast": MpiCommunicator.bcast, "all_gather": MpiCommunicator.allgather,
    "reduce_scatter": MpiCommunicator.reduce_scatter,
    "all_gather_v": MpiCommunicator.allgatherv, "gather_v": MpiCommunicator.gatherv,
    "scatter_v": MpiCommunicator.scatterv, "all_to_all": MpiCommunicator.alltoall,
}


class _MpiCoordinator(Coordinator):
    """Send/Recv, Isend/Irecv + waitall inside a group. Every call first
    pays the overhead path the paper analyzes: Uniconn's decision logic plus
    the GPU-stream query each blocking MPI call performs, then the mandatory
    stream drain (MPI is not stream-aware)."""

    def __init__(self, env, **options):
        super().__init__(env, **options)
        costs = env.costs
        self._pre_cost = costs.dispatch + costs.mpi_decision + costs.mpi_stream_query
        self._pending: List = []  # requests collected inside a group

    def _drain(self) -> None:
        self.stream.synchronize()

    def comm_end(self) -> None:
        if not self._grouping:
            raise UniconnError("comm_end without comm_start")
        self._calls["comm_end"].inc()
        self.engine.defer_busy(self._dispatch)
        self._grouping = False
        reqs, self._pending = self._pending, []
        _mpi_waitall(reqs)

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        if comm.latch.revoked:
            raise comm.latch.error()
        if self._grouping:
            self._pending.append(comm.native.isend(sendbuf, count, dest, tag))
        else:
            comm.native.send(sendbuf, count, dest, tag)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        if comm.latch.revoked:
            raise comm.latch.error()
        if self._grouping:
            self._pending.append(comm.native.irecv(recvbuf, count, src, tag))
        else:
            comm.native.recv(recvbuf, count, src, tag)

    def _collective(self, kind, comm, args, buf, count, root=None) -> None:
        _reject_in_place(kind, args)
        self._calls[kind].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        if comm.latch.revoked:
            raise comm.latch.error()
        _MPI_COLLECTIVES[kind](comm.native, *args)


class _MpiRmaCoordinator(_MpiCoordinator):
    """One-sided Post/Acknowledge (paper Section V-A future work, the
    ``mpi-rma`` backend): MPI_Put of the payload followed by a put
    of the signal word; per-target delivery order makes the signal trail
    the data, like NVSHMEM's put-with-signal."""

    uses_signals = True

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        if comm.latch.revoked:
            raise comm.latch.error()
        if not (isinstance(recvbuf, RmaBuffer) and isinstance(sig, RmaBuffer)):
            raise _not_in_a_window("post")
        recvbuf.window.put(sendbuf, count, dest, recvbuf.disp)
        sig.window.put(np.array([sig_val], sig.dtype), 1, dest, sig.disp)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        if comm.latch.revoked:
            raise comm.latch.error()
        if not (isinstance(recvbuf, RmaBuffer) and isinstance(sig, RmaBuffer)):
            raise _not_in_a_window("acknowledge")
        sig.window.wait_value(lambda a, d=sig.disp, v=sig_val: a[d] >= v)


def _not_in_a_window(what: str) -> UniconnError:
    return UniconnError(
        f"{what} over one-sided MPI needs window-backed destination and "
        f"signal buffers (allocate them with Memory.alloc on the mpi-rma backend)"
    )


# GPUCCL: stream-ordered, two-sided, group semantics. Collectives are native
# where NCCL has them, grouped P2P compositions where it does not; each
# takes (the GPUCCL communicator, the op's arguments..., the stream).


def _ccl_all_gather_v(ccl, sendbuf, sendcount, recvbuf, counts, displs, stream) -> None:
    # No native allgatherv: grouped P2P composition. The self pair is
    # skipped when the exchange is in place: a self send/recv lands
    # asynchronously on the region the other sends are still
    # snapshotting, which is a data race (the local block is already in
    # position anyway).
    p, me = ccl.size, ccl.rank
    my_view = _slice(recvbuf, displs[me], counts[me])
    in_place = np.shares_memory(as_array(sendbuf, sendcount), as_array(my_view, counts[me]))
    _ccl_group_start()
    for dst in range(p):
        if not (in_place and dst == me):
            ccl.send(sendbuf, sendcount, dst, stream)
    for src in range(p):
        if not (in_place and src == me):
            ccl.recv(_slice(recvbuf, displs[src], counts[src]), counts[src], src, stream)
    _ccl_group_end()


def _ccl_gather_v(ccl, sendbuf, sendcount, recvbuf, counts, displs, root, stream) -> None:
    _ccl_group_start()
    ccl.send(sendbuf, sendcount, root, stream)
    if ccl.rank == root:
        for src in range(ccl.size):
            ccl.recv(_slice(recvbuf, displs[src], counts[src]), counts[src], src, stream)
    _ccl_group_end()


def _ccl_scatter_v(ccl, sendbuf, counts, displs, recvbuf, recvcount, root, stream) -> None:
    _ccl_group_start()
    if ccl.rank == root:
        for dst in range(ccl.size):
            ccl.send(_slice(sendbuf, displs[dst], counts[dst]), counts[dst], dst, stream)
    ccl.recv(recvbuf, recvcount, root, stream)
    _ccl_group_end()


def _ccl_all_to_all(ccl, sendbuf, recvbuf, count, stream) -> None:
    _ccl_group_start()
    for dst in range(ccl.size):
        ccl.send(_slice(sendbuf, dst * count, count), count, dst, stream)
    for src in range(ccl.size):
        ccl.recv(_slice(recvbuf, src * count, count), count, src, stream)
    _ccl_group_end()


_CCL_COLLECTIVES = {
    "all_reduce": GpucclComm.all_reduce, "reduce": GpucclComm.reduce,
    "broadcast": lambda ccl, buf, count, root, stream: ccl.broadcast(buf, buf, count, root, stream),
    "all_gather": GpucclComm.all_gather, "reduce_scatter": GpucclComm.reduce_scatter,
    "all_gather_v": _ccl_all_gather_v, "gather_v": _ccl_gather_v,
    "scatter_v": _ccl_scatter_v, "all_to_all": _ccl_all_to_all,
}


class _GpucclCoordinator(Coordinator):
    """ncclSend/ncclRecv on the stream inside ncclGroupStart/End."""

    def comm_start(self) -> None:
        if self._grouping:
            raise UniconnError("comm_start inside an open group")
        self._calls["comm_start"].inc()
        self.engine.defer_busy(self._dispatch)
        self._grouping = True
        _ccl_group_start()

    def comm_end(self) -> None:
        if not self._grouping:
            raise UniconnError("comm_end without comm_start")
        self._calls["comm_end"].inc()
        self.engine.defer_busy(self._dispatch)
        self._grouping = False
        _ccl_group_end()

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        comm.native.send(sendbuf, count, dest, self.stream)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        comm.native.recv(recvbuf, count, src, self.stream)

    def _collective(self, kind, comm, args, buf, count, root=None) -> None:
        _reject_in_place(kind, args)
        self._calls[kind].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        _CCL_COLLECTIVES[kind](comm.native, *args, self.stream)


# GPUSHMEM: one-sided, stream-ordered host API plus a device API. Collectives
# are native team ops, or puts + a team barrier for the vector kinds; each
# takes (the GPUSHMEM runtime, the op's arguments..., team=, stream=). The
# barrier is scoped to the communicator's team so split sub-communicators
# don't synchronize the whole world.


def _shmem_all_gather_v(shmem, sendbuf, sendcount, recvbuf, counts, displs, *, team,
                        stream) -> None:
    # Put my block into every PE's symmetric recv buffer, then a
    # stream-ordered team barrier closes the round.
    p, me = team.size, team.my_pe
    if not isinstance(recvbuf, SymBuffer):
        raise _not_symmetric("all_gather_v")
    window = recvbuf.offset_by(displs[me], sendcount)
    in_place = np.shares_memory(as_array(sendbuf, sendcount), as_array(window, sendcount))
    for shift in range(p):
        pe = (me + shift) % p
        # Putting a window onto itself races with the forward puts
        # reading it; the block is already in place.
        if not (in_place and pe == me):
            shmem.put_on_stream(window, sendbuf, sendcount, team.translate(pe), stream)
    team.run_collective("barrier", None, None, 0, stream=stream)


def _shmem_gather_v(shmem, sendbuf, sendcount, recvbuf, counts, displs, root, *, team,
                    stream) -> None:
    if not isinstance(recvbuf, SymBuffer):
        raise _not_symmetric("gather_v")
    window = recvbuf.offset_by(displs[team.my_pe], sendcount)
    shmem.put_on_stream(window, sendbuf, sendcount, team.translate(root), stream)
    team.run_collective("barrier", None, None, 0, stream=stream)


def _shmem_scatter_v(shmem, sendbuf, counts, displs, recvbuf, recvcount, root, *, team,
                     stream) -> None:
    if not isinstance(recvbuf, SymBuffer):
        raise _not_symmetric("scatter_v")
    if team.my_pe == root:
        for dst in range(team.size):
            shmem.put_on_stream(recvbuf, _slice(sendbuf, displs[dst], counts[dst]),
                                counts[dst], team.translate(dst), stream)
    team.run_collective("barrier", None, None, 0, stream=stream)


_SHMEM_COLLECTIVES = {
    "all_reduce": ShmemContext.allreduce, "reduce": ShmemContext.reduce,
    "broadcast": lambda shmem, buf, count, root, **on: shmem.broadcast(buf, buf, count, root, **on),
    "all_gather": ShmemContext.fcollect, "reduce_scatter": ShmemContext.reduce_scatter,
    "all_gather_v": _shmem_all_gather_v, "gather_v": _shmem_gather_v,
    "scatter_v": _shmem_scatter_v, "all_to_all": ShmemContext.alltoall,
}


class _GpushmemCoordinator(Coordinator):
    """PureHost over GPUSHMEM: put-with-signal and signal wait on the
    stream; stream-ordered one-sided ops need no group completion."""

    uses_signals = True

    def __init__(self, env, **options):
        super().__init__(env, **options)
        self._shmem = env.shmem

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        if not isinstance(recvbuf, SymBuffer):
            raise _not_symmetric("post")
        self._shmem.put_signal_on_stream(recvbuf, sendbuf, count, sig, sig_val, comm.pes[dest],
                                         self.stream)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        self._shmem.signal_wait_until_on_stream(sig, "ge", sig_val, self.stream)

    def _collective(self, kind, comm, args, buf, count, root=None) -> None:
        _reject_in_place(kind, args)
        self._calls[kind].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        _SHMEM_COLLECTIVES[kind](self._shmem, *args, team=comm.native, stream=self.stream)


class _DeviceModeCoordinator(_GpushmemCoordinator):
    """Device launch modes: kernels get the Uniconn device API
    (``ctx.uniconn``) injected and are launched collectively; host
    collectives behave like PureHost."""

    def __init__(self, env, **options):
        super().__init__(env, **options)
        self._launch = self._shmem.collective_launch

    def _launchable(self, kernel: KernelSpec) -> KernelSpec:
        inner, env = kernel.fn, self.env

        def wrapped(ctx: DeviceCtx, *a):
            attach_device_api(ctx, env)
            return inner(ctx, *a)

        return KernelSpec(fn=wrapped, name=kernel.name, uses_device_comm=True)


class _PartialDeviceCoordinator(_DeviceModeCoordinator):
    """The kernel already sent the payload with device puts; the host's
    Post closes the iteration with an ordered signal-only put."""

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()
        if not isinstance(recvbuf, SymBuffer):
            raise _not_symmetric("post")
        self._shmem.put_signal_on_stream(recvbuf[0:0], np.empty(0, recvbuf.dtype), 0, sig,
                                         sig_val, comm.pes[dest], self.stream)


class _PureDeviceCoordinator(_DeviceModeCoordinator):
    """Communication runs fully inside the kernel: the host's
    Post/Acknowledge only pay their dispatch."""

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._dispatch)
        if comm.latch.revoked:
            raise comm.latch.error()


def _not_symmetric(what: str) -> UniconnError:
    return UniconnError(
        f"{what} over GPUSHMEM needs a symmetric destination buffer "
        f"(allocate it with Memory.alloc)"
    )


# Span tracing (repro.obs), layered on in runs with ``obs="spans"``.


def _nbytes(buf, count: int) -> int:
    try:
        return int(count) * int(np.dtype(buf.dtype).itemsize)
    except (TypeError, AttributeError, ValueError):
        return 0


class _Spans:
    """Brackets every operation of the implementation behind it in the MRO
    with begin/end span records: ``comm`` spans carrying ``peer`` /
    ``nbytes`` / ``root``, a ``dispatch`` span per launch, a ``sync`` span
    around the MPI stream drain, ``comm_group`` from comm_start to comm_end."""

    def __init__(self, env, **options):
        super().__init__(env, **options)
        self._span_fields = dict(rank=env.world_rank(), gpu=self.stream.gpu_id,
                                 backend=self.backend.name)

    def launch_kernel(self) -> None:
        b = self._binding
        if b is None:
            return super().launch_kernel()  # raises
        with Span(self.engine, f"launch:{b.kernel.name}", "dispatch", self._span_fields):
            super().launch_kernel()

    def comm_start(self) -> None:
        if not self._grouping:  # misuse raises below, before any record
            begin_span(self.engine, "comm_group", cat="comm", **self._span_fields)
        super().comm_start()

    def comm_end(self) -> None:
        if not self._grouping:
            return super().comm_end()
        try:
            super().comm_end()
        finally:
            end_span(self.engine, "comm_group", cat="comm", **self._span_fields)

    def _drain(self) -> None:
        with Span(self.engine, "stream.sync", "sync", self._span_fields):
            super()._drain()

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        with Span(self.engine, "post", "comm", {**self._span_fields, "peer": dest,
                                                "nbytes": _nbytes(sendbuf, count)}):
            super().post(sendbuf, recvbuf, count, sig, sig_val, dest, comm, tag=tag)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        with Span(self.engine, "acknowledge", "comm", {**self._span_fields, "peer": src,
                                                       "nbytes": _nbytes(recvbuf, count)}):
            super().acknowledge(recvbuf, count, sig, sig_val, src, comm, tag=tag)

    def _collective(self, kind, comm, args, buf, count, root=None) -> None:
        fields = {**self._span_fields, "nbytes": _nbytes(buf, count)}
        if root is not None:
            fields["root"] = root
        with Span(self.engine, kind, "comm", fields):
            super()._collective(kind, comm, args, buf, count, root)


_GPUSHMEM_MODES = {
    LaunchMode.PureHost: _GpushmemCoordinator,
    LaunchMode.PartialDevice: _PartialDeviceCoordinator,
    LaunchMode.PureDevice: _PureDeviceCoordinator,
}
_WITH_SPANS = {
    implementation: type(f"{implementation.__name__}WithSpans", (_Spans, implementation), {})
    for implementation in (_MpiCoordinator, _MpiRmaCoordinator, _GpucclCoordinator,
                           *_GPUSHMEM_MODES.values())
}


def _implementation(env: Environment, mode: LaunchMode) -> type:
    """The Coordinator class for ``env``'s backend, ``mode`` and obs level."""
    backend = env.backend
    if mode.uses_device_api and not backend.supports_device_api:
        raise UniconnError(
            f"launch mode {mode.name} requires a device-API backend "
            f"(GPUSHMEM); got {backend.name}"
        )
    if backend is MPIBackend:
        implementation = _MpiRmaCoordinator if env.mpi_rma else _MpiCoordinator
    elif backend is GpucclBackend:
        implementation = _GpucclCoordinator
    else:
        implementation = _GPUSHMEM_MODES[mode]
    return _WITH_SPANS[implementation] if env.engine.obs_spans else implementation
