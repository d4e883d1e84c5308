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
costs, runtimes and metric series looked up in ``__init__``; span tracing
(``launch(obs="spans")``) is a layer around it that other runs never build.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..backends.common import as_array
from ..backends.gpuccl import group_end as _ccl_group_end, group_start as _ccl_group_start
from ..backends.gpushmem import SymBuffer
from ..backends.mpi import waitall as _mpi_waitall
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

    # Operation grouping (paper Section IV-G).

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

    # P2P primitives (paper Section IV-F2).

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

    # Collectives (paper Section IV-F3; mapping per Section V-A). The
    # public method normalizes arguments and counts the call; ``_<name>``
    # is the backend's own mapping.

    def all_reduce(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn AllReduce (paper Listing 7; IN_PLACE accepted)."""
        op = resolve_op(op)
        self._calls["all_reduce"].inc()
        self._all_reduce(recvbuf if sendbuf is IN_PLACE else sendbuf, recvbuf, count, op, comm)

    def reduce(self, sendbuf, recvbuf, count: int, op, root: int, comm: Communicator) -> None:
        """Uniconn Reduce to a root (IN_PLACE accepted)."""
        op = resolve_op(op)
        self._calls["reduce"].inc()
        self._reduce(recvbuf if sendbuf is IN_PLACE else sendbuf, recvbuf, count, op, root, comm)

    def broadcast(self, buf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Broadcast from a root."""
        self._calls["broadcast"].inc()
        self._broadcast(buf, count, root, comm)

    def all_gather(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AllGather (equal counts)."""
        self._calls["all_gather"].inc()
        self._all_gather(sendbuf, recvbuf, count, comm)

    def reduce_scatter(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn ReduceScatter: each rank keeps its ``count``-element
        chunk of the reduced ``size * count`` vector (IN_PLACE accepted)."""
        op = resolve_op(op)
        self._calls["reduce_scatter"].inc()
        self._reduce_scatter(recvbuf if sendbuf is IN_PLACE else sendbuf, recvbuf, count, op, comm)

    def all_gather_v(self, sendbuf, sendcount: int, recvbuf, counts: Sequence[int],
                     displs: Sequence[int], comm: Communicator) -> None:
        """Vectorized allgather (the CG solver's exchange primitive)."""
        self._calls["all_gather_v"].inc()
        self._all_gather_v(sendbuf, sendcount, recvbuf, counts, displs, comm)

    def gather(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Gather (equal counts) to a root."""
        p = comm.global_size()
        self.gather_v(sendbuf, count, recvbuf, [count] * p, [i * count for i in range(p)], root, comm)

    def gather_v(self, sendbuf, sendcount: int, recvbuf, counts: Sequence[int],
                 displs: Sequence[int], root: int, comm: Communicator) -> None:
        """Uniconn vectorized Gather (+Vectorized in Listing 7)."""
        if sendbuf is IN_PLACE:
            me = comm.global_rank()
            sendbuf = _slice(recvbuf, displs[me], counts[me])
        self._calls["gather_v"].inc()
        self._gather_v(sendbuf, sendcount, recvbuf, counts, displs, root, comm)

    def scatter(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Scatter (equal counts) from a root."""
        p = comm.global_size()
        self.scatter_v(sendbuf, [count] * p, [i * count for i in range(p)], recvbuf, count, root, comm)

    def scatter_v(self, sendbuf, counts: Sequence[int], displs: Sequence[int], recvbuf,
                  recvcount: int, root: int, comm: Communicator) -> None:
        """Uniconn vectorized Scatter."""
        self._calls["scatter_v"].inc()
        self._scatter_v(sendbuf, counts, displs, recvbuf, recvcount, root, comm)

    def all_to_all(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AlltoAll."""
        self._calls["all_to_all"].inc()
        self._all_to_all(sendbuf, recvbuf, count, comm)


def _slice(buf, start: int, count: int):
    if isinstance(buf, np.ndarray):
        return buf.reshape(-1)[start : start + count]
    if isinstance(buf, SymBuffer):
        return buf.offset_by(start, count)
    return buf.offset(start, count)  # DeviceBuffer


# MPI: host-driven, two-sided, not stream-aware.


def _mpi_collective(name: str):
    """``_<collective>`` of the MPI column: the overhead path, then the MPI
    collective ``name`` on the communicator (the last argument) with the rest."""

    def collective(self, *args) -> None:
        getattr(self._pre(args[-1]), name)(*args[:-1])

    return collective


class _MpiCoordinator(Coordinator):
    """Send/Recv, Isend/Irecv + waitall inside a group; every call pays the
    decision logic, the stream query and a stream drain first."""

    def __init__(self, env, **options):
        super().__init__(env, **options)
        costs = env.costs
        self._pre_cost = costs.dispatch + costs.mpi_decision + costs.mpi_stream_query
        self._pending: List = []  # requests collected inside a group

    def _pre(self, comm: Communicator):
        """Charges + stream drain before any host MPI call; returns the MPI
        communicator to make it on.

        This is the overhead path the paper analyzes: Uniconn's decision
        logic plus the GPU-stream query each blocking MPI call performs,
        and the mandatory stream synchronization (MPI is not stream-aware).
        """
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        return comm.mpi

    def _drain(self) -> None:
        self.stream.synchronize()

    def comm_end(self) -> None:
        super().comm_end()
        reqs, self._pending = self._pending, []
        _mpi_waitall(reqs)

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        mpi = self._pre(comm)
        if self._grouping:
            self._pending.append(mpi.isend(sendbuf, count, dest, tag))
        else:
            mpi.send(sendbuf, count, dest, tag)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        mpi = self._pre(comm)
        if self._grouping:
            self._pending.append(mpi.irecv(recvbuf, count, src, tag))
        else:
            mpi.recv(recvbuf, count, src, tag)

    # MPI has every collective natively, under these names.
    _all_reduce = _mpi_collective("allreduce")
    _reduce = _mpi_collective("reduce")
    _broadcast = _mpi_collective("bcast")
    _all_gather = _mpi_collective("allgather")
    _reduce_scatter = _mpi_collective("reduce_scatter")
    _all_gather_v = _mpi_collective("allgatherv")
    _gather_v = _mpi_collective("gatherv")
    _scatter_v = _mpi_collective("scatterv")
    _all_to_all = _mpi_collective("alltoall")


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
        _require_rma(recvbuf, sig, "post")
        recvbuf.window.put(sendbuf, count, dest, recvbuf.disp)
        sig.window.put(np.array([sig_val], sig.dtype), 1, dest, sig.disp)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self.engine.defer_busy(self._pre_cost)
        self._drain()
        _require_rma(recvbuf, sig, "acknowledge")
        sig.window.wait_value(lambda a, d=sig.disp, v=sig_val: a[d] >= v)


def _require_rma(recvbuf, sig, what: str) -> None:
    if not isinstance(recvbuf, RmaBuffer) or not isinstance(sig, RmaBuffer):
        raise UniconnError(
            f"{what} over one-sided MPI needs window-backed destination and "
            f"signal buffers (allocate them with Memory.alloc on the mpi-rma backend)"
        )


# GPUCCL: stream-ordered, two-sided, group semantics.


class _GpucclCoordinator(Coordinator):
    """ncclSend/ncclRecv on the stream; collectives native where NCCL has
    them, grouped P2P compositions where it does not."""

    def _ccl(self, comm: Communicator):
        """Pay the wrapper's dispatch; returns the GPUCCL communicator."""
        self.engine.defer_busy(self._dispatch)
        return comm.ccl

    def comm_start(self) -> None:
        super().comm_start()
        _ccl_group_start()

    def comm_end(self) -> None:
        super().comm_end()
        _ccl_group_end()

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self._ccl(comm).send(sendbuf, count, dest, self.stream)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self._ccl(comm).recv(recvbuf, count, src, self.stream)

    def _all_reduce(self, sendbuf, recvbuf, count, op, comm) -> None:
        self._ccl(comm).all_reduce(sendbuf, recvbuf, count, op, self.stream)

    def _reduce(self, sendbuf, recvbuf, count, op, root, comm) -> None:
        self._ccl(comm).reduce(sendbuf, recvbuf, count, op, root, self.stream)

    def _broadcast(self, buf, count, root, comm) -> None:
        self._ccl(comm).broadcast(buf, buf, count, root, self.stream)

    def _all_gather(self, sendbuf, recvbuf, count, comm) -> None:
        self._ccl(comm).all_gather(sendbuf, recvbuf, count, self.stream)

    def _reduce_scatter(self, sendbuf, recvbuf, count, op, comm) -> None:
        self._ccl(comm).reduce_scatter(sendbuf, recvbuf, count, op, self.stream)

    def _all_gather_v(self, sendbuf, sendcount, recvbuf, counts, displs, comm) -> None:
        # No native allgatherv: grouped P2P composition. The self pair is
        # skipped when the exchange is in place: a self send/recv lands
        # asynchronously on the region the other sends are still
        # snapshotting, which is a data race (the local block is already in
        # position anyway).
        ccl, stream = self._ccl(comm), self.stream
        p, me = comm.global_size(), comm.global_rank()
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

    def _gather_v(self, sendbuf, sendcount, recvbuf, counts, displs, root, comm) -> None:
        p, ccl, stream = comm.global_size(), self._ccl(comm), self.stream
        _ccl_group_start()
        ccl.send(sendbuf, sendcount, root, stream)
        if comm.global_rank() == root:
            for src in range(p):
                ccl.recv(_slice(recvbuf, displs[src], counts[src]), counts[src], src, stream)
        _ccl_group_end()

    def _scatter_v(self, sendbuf, counts, displs, recvbuf, recvcount, root, comm) -> None:
        p, ccl, stream = comm.global_size(), self._ccl(comm), self.stream
        _ccl_group_start()
        if comm.global_rank() == root:
            for dst in range(p):
                ccl.send(_slice(sendbuf, displs[dst], counts[dst]), counts[dst], dst, stream)
        ccl.recv(recvbuf, recvcount, root, stream)
        _ccl_group_end()

    def _all_to_all(self, sendbuf, recvbuf, count, comm) -> None:
        p, ccl, stream = comm.global_size(), self._ccl(comm), self.stream
        _ccl_group_start()
        for dst in range(p):
            ccl.send(_slice(sendbuf, dst * count, count), count, dst, stream)
        for src in range(p):
            ccl.recv(_slice(recvbuf, src * count, count), count, src, stream)
        _ccl_group_end()


# GPUSHMEM: one-sided, stream-ordered host API plus a device API.


class _GpushmemCoordinator(Coordinator):
    """PureHost over GPUSHMEM: put-with-signal and signal wait on the
    stream; stream-ordered one-sided ops need no group completion."""

    uses_signals = True

    def __init__(self, env, **options):
        super().__init__(env, **options)
        self._shmem = env.shmem

    def _host(self):
        """Pay the wrapper's dispatch; returns the GPUSHMEM runtime."""
        self.engine.defer_busy(self._dispatch)
        return self._shmem

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        shmem, dest_pe = self._host(), comm.team.translate(dest)
        _require_sym(recvbuf, "post")
        shmem.put_signal_on_stream(recvbuf, sendbuf, count, sig, sig_val, dest_pe, self.stream)

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self._host().signal_wait_until_on_stream(sig, "ge", sig_val, self.stream)

    def _all_reduce(self, sendbuf, recvbuf, count, op, comm) -> None:
        self._host().allreduce(sendbuf, recvbuf, count, op, team=comm.team, stream=self.stream)

    def _reduce(self, sendbuf, recvbuf, count, op, root, comm) -> None:
        self._host().reduce(sendbuf, recvbuf, count, op, root, team=comm.team, stream=self.stream)

    def _broadcast(self, buf, count, root, comm) -> None:
        self._host().broadcast(buf, buf, count, root, team=comm.team, stream=self.stream)

    def _all_gather(self, sendbuf, recvbuf, count, comm) -> None:
        self._host().fcollect(sendbuf, recvbuf, count, team=comm.team, stream=self.stream)

    def _reduce_scatter(self, sendbuf, recvbuf, count, op, comm) -> None:
        self._host().reduce_scatter(sendbuf, recvbuf, count, op, team=comm.team, stream=self.stream)

    def _all_gather_v(self, sendbuf, sendcount, recvbuf, counts, displs, comm) -> None:
        # Put my block into every PE's symmetric recv buffer, then a
        # stream-ordered team barrier closes the round (put/get + barriers).
        # The barrier is scoped to the communicator's team so split
        # sub-communicators don't synchronize the whole world.
        shmem, p, me = self._host(), comm.global_size(), comm.global_rank()
        _require_sym(recvbuf, "all_gather_v")
        window = recvbuf.offset_by(displs[me], sendcount)
        in_place = np.shares_memory(as_array(sendbuf, sendcount), as_array(window, sendcount))
        for shift in range(p):
            pe = (me + shift) % p
            # Putting a window onto itself races with the forward puts
            # reading it; the block is already in place.
            if not (in_place and pe == me):
                shmem.put_on_stream(window, sendbuf, sendcount, comm.team.translate(pe), self.stream)
        comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def _gather_v(self, sendbuf, sendcount, recvbuf, counts, displs, root, comm) -> None:
        shmem = self._host()
        _require_sym(recvbuf, "gather_v")
        window = recvbuf.offset_by(displs[comm.global_rank()], sendcount)
        shmem.put_on_stream(window, sendbuf, sendcount, comm.team.translate(root), self.stream)
        comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def _scatter_v(self, sendbuf, counts, displs, recvbuf, recvcount, root, comm) -> None:
        shmem = self._host()
        _require_sym(recvbuf, "scatter_v")
        if comm.global_rank() == root:
            for dst in range(comm.global_size()):
                shmem.put_on_stream(recvbuf, _slice(sendbuf, displs[dst], counts[dst]),
                                    counts[dst], comm.team.translate(dst), self.stream)
        comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def _all_to_all(self, sendbuf, recvbuf, count, comm) -> None:
        self._host().alltoall(sendbuf, recvbuf, count, team=comm.team, stream=self.stream)


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
        shmem, dest_pe = self._host(), comm.team.translate(dest)
        _require_sym(recvbuf, "post")
        shmem.put_signal_on_stream(
            recvbuf[0:0], np.empty(0, recvbuf.dtype), 0, sig, sig_val, dest_pe, self.stream
        )


class _PureDeviceCoordinator(_DeviceModeCoordinator):
    """Communication runs fully inside the kernel: the host's
    Post/Acknowledge only pay their dispatch."""

    def post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, *, tag=0) -> None:
        self._calls["post"].inc()
        self._host()

    def acknowledge(self, recvbuf, count, sig, sig_val, src, comm, *, tag=0) -> None:
        self._calls["acknowledge"].inc()
        self._host()


def _require_sym(buf, what: str) -> None:
    if not isinstance(buf, SymBuffer):
        raise UniconnError(
            f"{what} over GPUSHMEM needs a symmetric destination buffer "
            f"(allocate it with Memory.alloc)"
        )


# Span tracing (repro.obs), layered on in runs with ``obs="spans"``.


def _nbytes(buf, count: int) -> int:
    try:
        return int(count) * int(np.dtype(buf.dtype).itemsize)
    except (TypeError, AttributeError, ValueError):
        return 0


#: Where a collective's span fields sit among the arguments of its ``_<name>``
#: method: the buffer and the count that size it, and the root if it has one.
_COLLECTIVE_SPANS = {
    "_all_reduce": (1, 2), "_reduce": (1, 2, 4), "_broadcast": (0, 1, 2),
    "_all_gather": (0, 2), "_reduce_scatter": (1, 2), "_all_gather_v": (0, 1),
    "_gather_v": (2, 1, 5), "_scatter_v": (3, 4, 5), "_all_to_all": (0, 2),
}


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


def _bracketed(name: str, buf: int, count: int, root: Optional[int] = None):
    """The ``_Spans`` method bracketing collective ``name`` (a method of the
    class, not a closure on the instance: that would tie a knot per
    coordinator)."""
    label = name[1:]

    def bracketed(self, *args) -> None:
        fields = {**self._span_fields, "nbytes": _nbytes(args[buf], args[count])}
        if root is not None:
            fields["root"] = args[root]
        with Span(self.engine, label, "comm", fields):
            getattr(super(_Spans, self), name)(*args)

    return bracketed


for _name, _where in _COLLECTIVE_SPANS.items():
    setattr(_Spans, _name, _bracketed(_name, *_where))


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
