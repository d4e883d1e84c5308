"""Jacobi GPU kernels shared by every variant (native and Uniconn).

Buffer scheme (the paper's Listing 4 layout):

- ``a``/``anew``: (chunk+2) x nx slabs in plain device memory, swapped each
  iteration;
- ``halo_in[0..1]``: two 2*nx staging buffers (double-buffered by iteration
  parity) that neighbours' halo rows arrive in — allocated through
  Uniconn's ``Memory`` (symmetric for GPUSHMEM): [0:nx] holds the row from
  the top neighbour, [nx:2nx] the row from the bottom neighbour;
- ``bound_out``: 2*nx staging that the kernel packs outgoing boundary rows
  into: [0:nx] goes to the top neighbour, [nx:2nx] to the bottom;
- ``sig``: 4 signal words, slot ``2*parity + {0: from top, 1: from bottom}``.

One iteration ``it`` (paper Listing 4's time loop):

1. kernel: unpack ``halo_in[it % 2]``, 5-point update, pack ``bound_out``;
2. post boundary rows into the *next* parity slot on each neighbour with
   signal value ``it + 1``; acknowledge this iteration's incoming halos;
3. swap ``a``/``anew``.

The kernel reads its buffers through a mutable :class:`JacobiState`, which
is how the bind-once/launch-every-iteration pattern of ``BindKernel`` works
while pointers are swapped between iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ...gpu.kernel import DeviceCtx, KernelSpec, device_kernel, kernel
from .domain import Partition, stencil_cost

__all__ = ["JacobiState", "jacobi_kernel", "unpack_compute_pack", "jacobi_pure_device_body"]


@dataclass
class JacobiState:
    """Mutable per-rank solver state read by the kernels at launch time."""

    part: Partition
    a: object  # DeviceBuffer
    anew: object  # DeviceBuffer
    halo_in: Tuple[object, object]  # staging pair (Memory buffers)
    bound_out: object  # staging (Memory buffer)
    sig: Optional[object] = None  # 4 signal words (GPUSHMEM only)
    it: int = 0
    # Kernel-side cache of reshaped/sliced numpy views, keyed by which
    # buffer is currently ``a`` (two arrangements alternate under swap).
    # Shared by reference across freeze() snapshots.
    views: dict = field(default_factory=dict)

    def swap(self) -> None:
        """End-of-iteration pointer swap (std::swap(a, a_new))."""
        self.a, self.anew = self.anew, self.a
        self.it += 1

    @property
    def parity(self) -> int:
        """Double-buffer parity of the current iteration."""
        return self.it % 2

    def freeze(self) -> "JacobiState":
        """Snapshot for launch-time argument capture.

        CUDA copies kernel argument *values* at launch; since the host swaps
        ``a``/``anew`` while kernels may still be queued, every launch must
        capture the current pointers, exactly like ``cudaLaunchKernel`` does.
        """
        return JacobiState(self.part, self.a, self.anew, self.halo_in,
                           self.bound_out, self.sig, self.it, self.views)


def unpack_compute_pack(state: JacobiState) -> None:
    """The raw math of one kernel execution (shared host/device).

    The hot lane caches reshapes/slices per (a, anew) arrangement and adds
    in place through one scratch row block — same left-associated order and
    multiply-last as the slow lane, so results stay bitwise identical to
    :func:`~.domain.serial_jacobi`. The sanitizer lane goes through
    ``.data`` so every buffer access is recorded.
    """
    part = state.part
    if (state.a.device.engine.sanitizer is not None
            or state.a.root.freed or state.anew.root.freed):
        return _unpack_compute_pack_checked(state)
    nx, chunk = part.nx, part.chunk
    v = state.views.get(state.a)
    if v is None:
        a = state.a.raw.reshape(chunk + 2, nx)
        anew = state.anew.raw.reshape(chunk + 2, nx)
        v = (
            a, anew,
            a[0:chunk, 1:-1], a[2 : chunk + 2, 1:-1],
            a[1 : chunk + 1, 0:-2], a[1 : chunk + 1, 2:],
            anew[1 : chunk + 1, 1 : nx - 1],
            np.empty((chunk, nx - 2), dtype=state.a.raw.dtype),
            (state.halo_in[0].raw, state.halo_in[1].raw),
            state.bound_out.raw,
            part.has_top, part.has_bottom,
        )
        state.views[state.a] = v
    a, anew, top, bottom, left, right, target, s, halos, out, has_top, has_bottom = v
    halo = halos[state.it % 2]
    if has_top:
        a[0, :] = halo[0:nx]
    if has_bottom:
        a[chunk + 1, :] = halo[nx : 2 * nx]
    np.add(top, bottom, out=s)
    s += left
    s += right
    s *= 0.25
    target[:] = s
    out[0:nx] = anew[1, :]
    out[nx : 2 * nx] = anew[chunk, :]


def _unpack_compute_pack_checked(state: JacobiState) -> None:
    """Sanitizer-visible lane: identical math through recorded accesses."""
    part = state.part
    nx, chunk = part.nx, part.chunk
    a = state.a.data.reshape(chunk + 2, nx)
    anew = state.anew.data.reshape(chunk + 2, nx)
    halo = state.halo_in[state.parity].data
    if part.has_top:
        a[0, :] = halo[0:nx]
    if part.has_bottom:
        a[chunk + 1, :] = halo[nx : 2 * nx]
    anew[1 : chunk + 1, 1 : nx - 1] = 0.25 * (
        a[0:chunk, 1:-1] + a[2 : chunk + 2, 1:-1]
        + a[1 : chunk + 1, 0:-2] + a[1 : chunk + 1, 2:]
    )
    out = state.bound_out.data
    out[0:nx] = anew[1, :]
    out[nx : 2 * nx] = anew[chunk, :]


def _cost(ctx: DeviceCtx, state: JacobiState):
    return stencil_cost(state.part.chunk, state.part.nx)


@kernel(name="jacobi_kernel", cost=_cost)
def jacobi_kernel(ctx: DeviceCtx, state: JacobiState) -> None:
    """Compute-only kernel (PureHost mode and all native host variants)."""
    unpack_compute_pack(state)


def jacobi_pure_device_body(comm_post, comm_wait, state: JacobiState) -> None:
    """The communication half of one PureDevice iteration.

    ``comm_post(src_view, dest_slot, sig_slot, value, neighbor)`` issues the
    device put; ``comm_wait(sig_slot, value)`` blocks on the signal. The
    exact wiring differs between the native NVSHMEM variant and the Uniconn
    device API, so it is injected.
    """
    part = state.part
    nx = part.nx
    next_parity = (state.it + 1) % 2
    value = state.it + 1
    out = state.bound_out
    if part.has_top:
        # My first interior row -> top neighbour's "from bottom" slot.
        comm_post(out.offset_by(0, nx), (next_parity, nx), 2 * next_parity + 1, value, part.top)
    if part.has_bottom:
        comm_post(out.offset_by(nx, nx), (next_parity, 0), 2 * next_parity + 0, value, part.bottom)
    if part.has_top:
        comm_wait(2 * next_parity + 0, value)
    if part.has_bottom:
        comm_wait(2 * next_parity + 1, value)


@device_kernel(name="jacobi_f_dev")
def jacobi_f_dev(ctx: DeviceCtx, state: JacobiState, post_fn, wait_fn) -> None:
    """PureDevice kernel skeleton: compute, then exchange inside the kernel.

    ``post_fn(ctx, ...)``/``wait_fn(ctx, ...)`` are bound by the variant
    (native GPUSHMEM device vs Uniconn device API).
    """
    ctx.compute(stencil_cost(state.part.chunk, state.part.nx))
    unpack_compute_pack(state)
    jacobi_pure_device_body(
        lambda src, dest_slot, sig_slot, value, peer: post_fn(ctx, src, dest_slot, sig_slot, value, peer),
        lambda sig_slot, value: wait_fn(ctx, sig_slot, value),
        state,
    )
