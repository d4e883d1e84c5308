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
stream (MPI has no stream integration), charged from
:class:`~repro.hardware.profiles.UniconnCosts`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

import numpy as np

from contextlib import nullcontext

from ..backends.common import as_array
from ..backends.gpuccl import group_end as _ccl_group_end, group_start as _ccl_group_start
from ..backends.gpushmem import SymBuffer
from ..backends.mpi import waitall as _mpi_waitall
from ..errors import UniconnError
from ..gpu.kernel import DeviceCtx, KernelSpec
from ..gpu.stream import Stream, TimedOp
from ..obs import begin_span, end_span, span
from .backend import GpucclBackend, GpushmemBackend, MPIBackend
from .communicator import Communicator
from .environment import Environment
from .launch_mode import LaunchMode, resolve_launch_mode
from .reduction import resolve_op

__all__ = ["Coordinator", "IN_PLACE"]

_NULL = nullcontext()

# Sentinel for the paper's "+In-Place" collective variants.
IN_PLACE = object()


class _Binding:
    __slots__ = ("kernel", "grid", "block", "shmem_bytes", "args")

    def __init__(self, kernel: KernelSpec, grid, block, shmem_bytes: int, args):
        self.kernel = kernel
        self.grid = grid
        self.block = block
        self.shmem_bytes = shmem_bytes
        self.args = args


class Coordinator:
    """Kernel-launch and communication coordinator for one stream."""

    def __init__(
        self,
        env: Environment,
        *,
        stream: Optional[Stream] = None,
        launch_mode: Union[str, LaunchMode, None] = None,
    ):
        self.env = env
        self.backend = env.backend
        self.engine = env.engine
        self.stream = stream if stream is not None else env.device.default_stream
        self.launch_mode = resolve_launch_mode(launch_mode)
        if self.launch_mode.uses_device_api and not self.backend.supports_device_api:
            raise UniconnError(
                f"launch mode {self.launch_mode.name} requires a device-API backend "
                f"(GPUSHMEM); got {self.backend.name}"
            )
        self._binding: Optional[_Binding] = None
        self._grouping = False
        self._pending: List = []  # MPI requests collected inside a group
        self._graph_open: Optional[str] = None  # open graph_begin region name
        from ..config import get_config

        self._mpi_one_sided = self.backend is MPIBackend and get_config().mpi_rma

    @property
    def uses_signals(self) -> bool:
        """True when Post/Acknowledge run one-sided and need signal words
        (GPUSHMEM always; MPI under the experimental ``mpi_rma`` config)."""
        return self.backend.supports_device_api or self._mpi_one_sided

    # ------------------------------------------------------------------ #
    # Observability (repro.obs).
    # ------------------------------------------------------------------ #

    def _span(self, name: str, cat: str, **fields):
        """Span context for one coordinator operation; no-op unless the run
        opted into span tracing (launch(obs="spans"))."""
        engine = self.engine
        if engine.obs_spans and engine.trace_hook is not None:
            return span(
                engine,
                name,
                cat=cat,
                rank=self.env.world_rank(),
                gpu=self.stream.device.gpu_id,
                backend=self.backend.name,
                **fields,
            )
        return _NULL

    def _rec(self, op: str) -> None:
        """Count one Uniconn call in the engine's metrics registry."""
        metrics = self.engine.metrics
        if metrics.enabled:
            metrics.inc(
                "uniconn_calls_total",
                op=op,
                backend=self.backend.name,
                rank=self.env.world_rank(),
            )

    @staticmethod
    def _nbytes(buf, count: int) -> int:
        try:
            return int(count) * int(np.dtype(buf.dtype).itemsize)
        except (TypeError, AttributeError, ValueError):
            return 0

    # ------------------------------------------------------------------ #
    # Kernel management (paper Section IV-E2).
    # ------------------------------------------------------------------ #

    def bind_kernel(
        self,
        mode: Union[str, LaunchMode],
        kernel: KernelSpec,
        grid,
        block,
        *,
        shmem_bytes: int = 0,
        args: Sequence[Any] = (),
    ) -> None:
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
            raise UniconnError(
                f"{mode.name} needs a @device_kernel; {kernel.name} is compute-only"
            )
        if not wants_device and kernel.uses_device_comm:
            raise UniconnError(
                f"PureHost needs a compute-only kernel; {kernel.name} uses device comm"
            )
        self._binding = _Binding(
            kernel, grid, block, shmem_bytes, args if callable(args) else tuple(args)
        )

    def launch_kernel(self) -> None:
        """Launch the bound kernel with the backend-appropriate mechanism."""
        b = self._binding
        if b is None:
            raise UniconnError(
                f"no kernel bound for launch mode {self.launch_mode.name}"
            )
        self._rec("launch_kernel")
        with self._span(f"launch:{b.kernel.name}", "dispatch"):
            self.engine.defer_busy(self.env.costs.dispatch)
            launch_args = b.args() if callable(b.args) else b.args
            if self.launch_mode is LaunchMode.PureHost:
                self.env.device.launch(
                    b.kernel, b.grid, b.block, args=launch_args, stream=self.stream
                )
                return
            # Device modes: inject the Uniconn device API and launch collectively.
            from .device import attach_device_api

            inner = b.kernel.fn
            env = self.env

            def wrapped(ctx: DeviceCtx, *a):
                attach_device_api(ctx, env)
                return inner(ctx, *a)

            spec = KernelSpec(fn=wrapped, name=b.kernel.name, uses_device_comm=True)
            self.env.shmem.collective_launch(
                spec, b.grid, b.block, args=launch_args, stream=self.stream
            )

    # ------------------------------------------------------------------ #
    # Graph capture regions (repro.sim.capture).
    # ------------------------------------------------------------------ #

    def graph_begin(
        self,
        name: str,
        *,
        iteration: int,
        total: Optional[int] = None,
        replay_safe: bool = True,
        parity: int = 1,
        min_period: int = 1,
    ) -> int:
        """Mark the top of one steady-state loop iteration.

        Returns the number of iterations the caller must *skip* (0 when
        executing live). When the capture runtime has verified that the
        region repeats with a stable fingerprint, it replays whole periods
        as a fused pre-resolved schedule and tells the loop to jump ahead::

            i = 0
            while i < n:
                i += coord.graph_begin("solve", iteration=i, total=n)
                if i >= n:
                    break
                ...one iteration...
                coord.graph_end()
                i += 1

        ``total`` is required for replay (it bounds how far ahead the
        schedule may run); without it the region only records. ``parity``
        declares the iteration period of any pointer-swap scheme (2 for
        double buffering), and ``replay_safe=False`` marks loops whose
        payload effects cannot be replayed (the region then only
        fingerprints). No-op unless the run enabled ``capture=``.
        """
        cap = self.engine.capture
        if cap is None or total is None:
            return 0
        region = cap.region(
            f"coord:{name}",
            replay_safe=replay_safe,
            parity=parity,
            min_period=min_period,
        )
        skip = region.boundary(self.env.world_rank(), iteration, total)
        # Replay or not, the caller's next live iteration (if any) runs
        # right after this boundary, so its graph_end must find the region
        # open; a skip that exhausts the loop leaves it open harmlessly.
        self._graph_open = name
        return skip

    def graph_end(self) -> None:
        """Mark the bottom of the iteration opened by :meth:`graph_begin`."""
        if self._graph_open is None and self.engine.capture is not None:
            raise UniconnError("graph_end without a matching graph_begin")
        self._graph_open = None

    # ------------------------------------------------------------------ #
    # Operation grouping (paper Section IV-G).
    # ------------------------------------------------------------------ #

    def comm_start(self) -> None:
        """Begin a non-blocking group of communication operations."""
        if self._grouping:
            raise UniconnError("comm_start inside an open group")
        self._rec("comm_start")
        begin_span(
            self.engine,
            "comm_group",
            cat="comm",
            rank=self.env.world_rank(),
            gpu=self.stream.device.gpu_id,
            backend=self.backend.name,
        )
        self.engine.defer_busy(self.env.costs.dispatch)
        self._grouping = True
        if self.backend is GpucclBackend:
            _ccl_group_start()

    def comm_end(self) -> None:
        """Complete all operations registered since :meth:`comm_start`."""
        if not self._grouping:
            raise UniconnError("comm_end without comm_start")
        self._rec("comm_end")
        self.engine.defer_busy(self.env.costs.dispatch)
        self._grouping = False
        try:
            if self.backend is GpucclBackend:
                _ccl_group_end()
            elif self.backend is MPIBackend:
                reqs, self._pending = self._pending, []
                _mpi_waitall(reqs)
            # GPUSHMEM: stream-ordered one-sided ops need no group completion.
        finally:
            end_span(
                self.engine,
                "comm_group",
                cat="comm",
                rank=self.env.world_rank(),
                gpu=self.stream.device.gpu_id,
                backend=self.backend.name,
            )

    # ------------------------------------------------------------------ #
    # P2P primitives (paper Section IV-F2).
    # ------------------------------------------------------------------ #

    def post(
        self,
        sendbuf,
        recvbuf,
        count: int,
        sig,
        sig_val: int,
        dest: int,
        comm: Communicator,
        *,
        tag: int = 0,
    ) -> None:
        """Send ``count`` elements to ``dest``.

        ``recvbuf`` is the (symmetric) destination address and ``sig`` the
        signal location — both used by the one-sided backend and ignored by
        the two-sided ones, so one call site serves every backend.
        """
        self._rec("post")
        with self._span(
            "post", "comm", peer=dest, nbytes=self._nbytes(sendbuf, count)
        ):
            self._post(sendbuf, recvbuf, count, sig, sig_val, dest, comm, tag)

    def _post(self, sendbuf, recvbuf, count, sig, sig_val, dest, comm, tag) -> None:
        costs = self.env.costs
        if self.backend is MPIBackend:
            self._mpi_pre()
            if self._mpi_one_sided:
                # Experimental one-sided path (paper Section V-A future
                # work): MPI_Put of the payload followed by a put of the
                # signal word; per-target delivery order makes the signal
                # trail the data, like NVSHMEM's put-with-signal.
                self._require_rma(recvbuf, sig, "post")
                recvbuf.window.put(sendbuf, count, dest, recvbuf.disp)
                sig.window.put(np.array([sig_val], sig.dtype), 1, dest, sig.disp)
                return
            if self._grouping:
                self._pending.append(comm.mpi.isend(sendbuf, count, dest, tag))
            else:
                comm.mpi.send(sendbuf, count, dest, tag)
            return
        self.engine.defer_busy(costs.dispatch)
        if self.backend is GpucclBackend:
            comm.ccl.send(sendbuf, count, dest, self.stream)
            return
        # GPUSHMEM host API.
        if self.launch_mode is LaunchMode.PureDevice:
            return  # communication fully inside the kernel
        dest_pe = comm.team.translate(dest)
        if self.launch_mode is LaunchMode.PartialDevice:
            # The kernel already sent the payload with device puts; the host
            # closes the iteration with an ordered signal-only put.
            self._require_sym(recvbuf, "post")
            self.env.shmem.put_signal_on_stream(
                recvbuf[0:0], np.empty(0, recvbuf.dtype), 0, sig, sig_val, dest_pe, self.stream
            )
            return
        self._require_sym(recvbuf, "post")
        self.env.shmem.put_signal_on_stream(
            recvbuf, sendbuf, count, sig, sig_val, dest_pe, self.stream
        )

    def acknowledge(
        self,
        recvbuf,
        count: int,
        sig,
        sig_val: int,
        src: int,
        comm: Communicator,
        *,
        tag: int = 0,
    ) -> None:
        """Complete the reception of a matching :meth:`post`."""
        self._rec("acknowledge")
        with self._span(
            "acknowledge", "comm", peer=src, nbytes=self._nbytes(recvbuf, count)
        ):
            self._acknowledge(recvbuf, count, sig, sig_val, src, comm, tag)

    def _acknowledge(self, recvbuf, count, sig, sig_val, src, comm, tag) -> None:
        costs = self.env.costs
        if self.backend is MPIBackend:
            self._mpi_pre()
            if self._mpi_one_sided:
                self._require_rma(recvbuf, sig, "acknowledge")
                target = sig_val
                sig.window.wait_value(
                    lambda a, d=sig.disp, v=target: a[d] >= v
                )
                return
            if self._grouping:
                self._pending.append(comm.mpi.irecv(recvbuf, count, src, tag))
            else:
                comm.mpi.recv(recvbuf, count, src, tag)
            return
        self.engine.defer_busy(costs.dispatch)
        if self.backend is GpucclBackend:
            comm.ccl.recv(recvbuf, count, src, self.stream)
            return
        if self.launch_mode is LaunchMode.PureDevice:
            return
        self.env.shmem.signal_wait_until_on_stream(sig, "ge", sig_val, self.stream)

    # ------------------------------------------------------------------ #
    # Collectives (paper Section IV-F3; mapping per Section V-A).
    # ------------------------------------------------------------------ #

    def all_reduce(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn AllReduce (paper Listing 7; IN_PLACE accepted)."""
        op = resolve_op(op)
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        self._rec("all_reduce")
        with self._span("all_reduce", "comm", nbytes=self._nbytes(recvbuf, count)):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.allreduce(sendbuf, recvbuf, count, op)
            elif self.backend is GpucclBackend:
                self.engine.defer_busy(self.env.costs.dispatch)
                comm.ccl.all_reduce(sendbuf, recvbuf, count, op, self.stream)
            else:
                self.engine.defer_busy(self.env.costs.dispatch)
                self.env.shmem.allreduce(
                    sendbuf, recvbuf, count, op, team=comm.team, stream=self.stream
                )

    def reduce(self, sendbuf, recvbuf, count: int, op, root: int, comm: Communicator) -> None:
        """Uniconn Reduce to a root (IN_PLACE accepted)."""
        op = resolve_op(op)
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        self._rec("reduce")
        with self._span("reduce", "comm", nbytes=self._nbytes(recvbuf, count), root=root):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.reduce(sendbuf, recvbuf, count, op, root)
            elif self.backend is GpucclBackend:
                self.engine.defer_busy(self.env.costs.dispatch)
                comm.ccl.reduce(sendbuf, recvbuf, count, op, root, self.stream)
            else:
                self.engine.defer_busy(self.env.costs.dispatch)
                self.env.shmem.reduce(
                    sendbuf, recvbuf, count, op, root, team=comm.team, stream=self.stream
                )

    def broadcast(self, buf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Broadcast from a root."""
        self._rec("broadcast")
        with self._span("broadcast", "comm", nbytes=self._nbytes(buf, count), root=root):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.bcast(buf, count, root)
            elif self.backend is GpucclBackend:
                self.engine.defer_busy(self.env.costs.dispatch)
                comm.ccl.broadcast(buf, buf, count, root, self.stream)
            else:
                self.engine.defer_busy(self.env.costs.dispatch)
                self.env.shmem.broadcast(
                    buf, buf, count, root, team=comm.team, stream=self.stream
                )

    def all_gather(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AllGather (equal counts)."""
        self._rec("all_gather")
        with self._span("all_gather", "comm", nbytes=self._nbytes(sendbuf, count)):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.allgather(sendbuf, recvbuf, count)
            elif self.backend is GpucclBackend:
                self.engine.defer_busy(self.env.costs.dispatch)
                comm.ccl.all_gather(sendbuf, recvbuf, count, self.stream)
            else:
                self.engine.defer_busy(self.env.costs.dispatch)
                self.env.shmem.fcollect(
                    sendbuf, recvbuf, count, team=comm.team, stream=self.stream
                )

    def reduce_scatter(self, sendbuf, recvbuf, count: int, op, comm: Communicator) -> None:
        """Uniconn ReduceScatter: each rank keeps its ``count``-element
        chunk of the reduced ``size * count`` vector (IN_PLACE accepted)."""
        op = resolve_op(op)
        if sendbuf is IN_PLACE:
            sendbuf = recvbuf
        self._rec("reduce_scatter")
        with self._span("reduce_scatter", "comm", nbytes=self._nbytes(recvbuf, count)):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.reduce_scatter(sendbuf, recvbuf, count, op)
            elif self.backend is GpucclBackend:
                self.engine.defer_busy(self.env.costs.dispatch)
                comm.ccl.reduce_scatter(sendbuf, recvbuf, count, op, self.stream)
            else:
                self.engine.defer_busy(self.env.costs.dispatch)
                self.env.shmem.reduce_scatter(
                    sendbuf, recvbuf, count, op, team=comm.team, stream=self.stream
                )

    def all_gather_v(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: Sequence[int],
        displs: Sequence[int],
        comm: Communicator,
    ) -> None:
        """Vectorized allgather (the CG solver's exchange primitive)."""
        self._rec("all_gather_v")
        with self._span(
            "all_gather_v", "comm", nbytes=self._nbytes(sendbuf, sendcount)
        ):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.allgatherv(sendbuf, sendcount, recvbuf, counts, displs)
                return
            self.engine.defer_busy(self.env.costs.dispatch)
            p = comm.global_size()
            me = comm.global_rank()
            if self.backend is GpucclBackend:
                # No native allgatherv: grouped P2P composition. The self
                # pair is skipped when the exchange is in place: a self
                # send/recv lands asynchronously on the region the other
                # sends are still snapshotting, which is a data race (the
                # local block is already in position anyway).
                ccl = comm.ccl
                my_view = self._slice(recvbuf, displs[me], counts[me])
                in_place = np.shares_memory(
                    as_array(sendbuf, sendcount), as_array(my_view, counts[me])
                )
                _ccl_group_start()
                for dst in range(p):
                    if in_place and dst == me:
                        continue
                    ccl.send(sendbuf, sendcount, dst, self.stream)
                for src in range(p):
                    if in_place and src == me:
                        continue
                    view = self._slice(recvbuf, displs[src], counts[src])
                    ccl.recv(view, counts[src], src, self.stream)
                _ccl_group_end()
                return
            # GPUSHMEM: put my block into every PE's symmetric recv buffer,
            # then a stream-ordered team barrier closes the round (put/get +
            # barriers). The barrier is scoped to the communicator's team so
            # split sub-communicators don't synchronize the whole world.
            self._require_sym(recvbuf, "all_gather_v")
            window = recvbuf.offset_by(displs[me], sendcount)
            in_place = np.shares_memory(
                as_array(sendbuf, sendcount), as_array(window, sendcount)
            )
            for shift in range(p):
                pe = (me + shift) % p
                if in_place and pe == me:
                    # Putting a window onto itself races with the forward
                    # puts reading it; the block is already in place.
                    continue
                self.env.shmem.put_on_stream(
                    window, sendbuf, sendcount, comm.team.translate(pe), self.stream
                )
            comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def gather(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Gather (equal counts) to a root."""
        p = comm.global_size()
        self.gather_v(sendbuf, count, recvbuf, [count] * p, [i * count for i in range(p)], root, comm)

    def gather_v(
        self,
        sendbuf,
        sendcount: int,
        recvbuf,
        counts: Sequence[int],
        displs: Sequence[int],
        root: int,
        comm: Communicator,
    ) -> None:
        """Uniconn vectorized Gather (+Vectorized in Listing 7)."""
        me = comm.global_rank()
        if sendbuf is IN_PLACE:
            sendbuf = self._slice(recvbuf, displs[me], counts[me])
        self._rec("gather_v")
        with self._span(
            "gather_v", "comm", nbytes=self._nbytes(recvbuf, sendcount), root=root
        ):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.gatherv(sendbuf, sendcount, recvbuf, counts, displs, root)
                return
            self.engine.defer_busy(self.env.costs.dispatch)
            p = comm.global_size()
            if self.backend is GpucclBackend:
                ccl = comm.ccl
                _ccl_group_start()
                ccl.send(sendbuf, sendcount, root, self.stream)
                if me == root:
                    for src in range(p):
                        view = self._slice(recvbuf, displs[src], counts[src])
                        ccl.recv(view, counts[src], src, self.stream)
                _ccl_group_end()
                return
            self._require_sym(recvbuf, "gather_v")
            window = recvbuf.offset_by(displs[me], sendcount)
            self.env.shmem.put_on_stream(
                window, sendbuf, sendcount, comm.team.translate(root), self.stream
            )
            comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def scatter(self, sendbuf, recvbuf, count: int, root: int, comm: Communicator) -> None:
        """Uniconn Scatter (equal counts) from a root."""
        p = comm.global_size()
        self.scatter_v(sendbuf, [count] * p, [i * count for i in range(p)], recvbuf, count, root, comm)

    def scatter_v(
        self,
        sendbuf,
        counts: Sequence[int],
        displs: Sequence[int],
        recvbuf,
        recvcount: int,
        root: int,
        comm: Communicator,
    ) -> None:
        """Uniconn vectorized Scatter."""
        me = comm.global_rank()
        self._rec("scatter_v")
        with self._span(
            "scatter_v", "comm", nbytes=self._nbytes(recvbuf, recvcount), root=root
        ):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.scatterv(sendbuf, counts, displs, recvbuf, recvcount, root)
                return
            self.engine.defer_busy(self.env.costs.dispatch)
            p = comm.global_size()
            if self.backend is GpucclBackend:
                ccl = comm.ccl
                _ccl_group_start()
                if me == root:
                    for dst in range(p):
                        view = self._slice(sendbuf, displs[dst], counts[dst])
                        ccl.send(view, counts[dst], dst, self.stream)
                ccl.recv(recvbuf, recvcount, root, self.stream)
                _ccl_group_end()
                return
            self._require_sym(recvbuf, "scatter_v")
            if me == root:
                for dst in range(p):
                    view = self._slice(sendbuf, displs[dst], counts[dst])
                    self.env.shmem.put_on_stream(
                        recvbuf, view, counts[dst], comm.team.translate(dst), self.stream
                    )
            comm.team.run_collective("barrier", None, None, 0, stream=self.stream)

    def all_to_all(self, sendbuf, recvbuf, count: int, comm: Communicator) -> None:
        """Uniconn AlltoAll."""
        self._rec("all_to_all")
        with self._span("all_to_all", "comm", nbytes=self._nbytes(sendbuf, count)):
            if self.backend is MPIBackend:
                self._mpi_pre()
                comm.mpi.alltoall(sendbuf, recvbuf, count)
                return
            self.engine.defer_busy(self.env.costs.dispatch)
            p = comm.global_size()
            if self.backend is GpucclBackend:
                ccl = comm.ccl
                _ccl_group_start()
                for dst in range(p):
                    ccl.send(self._slice(sendbuf, dst * count, count), count, dst, self.stream)
                for src in range(p):
                    ccl.recv(self._slice(recvbuf, src * count, count), count, src, self.stream)
                _ccl_group_end()
                return
            self.env.shmem.alltoall(
                sendbuf, recvbuf, count, team=comm.team, stream=self.stream
            )

    # ------------------------------------------------------------------ #
    # Internals.
    # ------------------------------------------------------------------ #

    def _mpi_pre(self) -> None:
        """Charges + stream drain before any host MPI call.

        This is the overhead path the paper analyzes: Uniconn's decision
        logic plus the GPU-stream query each blocking MPI call performs,
        and the mandatory stream synchronization (MPI is not stream-aware).
        """
        costs = self.env.costs
        self.engine.defer_busy(costs.dispatch + costs.mpi_decision + costs.mpi_stream_query)
        with self._span("stream.sync", "sync"):
            self.stream.synchronize()

    @staticmethod
    def _slice(buf, start: int, count: int):
        if isinstance(buf, np.ndarray):
            return buf.reshape(-1)[start : start + count]
        if isinstance(buf, SymBuffer):
            return buf.offset_by(start, count)
        return buf.offset(start, count)  # DeviceBuffer

    @staticmethod
    def _require_rma(recvbuf, sig, what: str) -> None:
        from .memory import RmaBuffer

        if not isinstance(recvbuf, RmaBuffer) or not isinstance(sig, RmaBuffer):
            raise UniconnError(
                f"{what} over one-sided MPI needs window-backed destination and "
                f"signal buffers (allocate them with Memory.alloc under mpi_rma)"
            )

    @staticmethod
    def _require_sym(buf, what: str) -> None:
        if not isinstance(buf, SymBuffer):
            raise UniconnError(
                f"{what} over GPUSHMEM needs a symmetric destination buffer "
                f"(allocate it with Memory.alloc)"
            )
