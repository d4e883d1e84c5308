"""Conjugate Gradient: problem setup, serial reference, shared kernels.

The distributed algorithm follows the paper's Section VI-D: rows of A are
split into equal-length blocks; each iteration exchanges the full search
direction with **AllGatherv**, multiplies the local rows, and reduces two
dot products with **AllReduce**. Scalars (alpha/beta/residual) live in
device memory so that stream-ordered backends never synchronize the host
inside the loop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from ...gpu.kernel import DeviceCtx, kernel
from ...hardware.gpu import KernelCost

__all__ = [
    "CgConfig", "CgProblem", "CgState", "make_problem", "row_partition", "row_block",
    "serial_cg", "k_spmv", "k_dot_pq", "k_update", "k_pupdate", "final_residual",
]


@dataclass(frozen=True)
class CgConfig:
    """One CG experiment (paper: 10K iterations, no warm-up, 8 GPUs)."""

    n: int = 4096
    nnz_per_row: int = 33
    iters: int = 30
    seed: int = 7


@dataclass(frozen=True)
class CgProblem:
    """``A x = b`` with its known solution (see :func:`make_problem`)."""

    a: sp.csr_matrix
    b: np.ndarray
    x_true: np.ndarray


#: The problem make_problem built last, under its (n, nnz_per_row, seed).
_held: Dict[Tuple[int, int, int], CgProblem] = {}
_held_lock = threading.Lock()


def make_problem(cfg: CgConfig, matrix: sp.spmatrix | sp.sparray = None) -> CgProblem:
    """Build A (or take it) and a right-hand side with a known solution.

    A problem built from ``cfg`` alone is shared and immutable. The process
    keeps the one it built last, keyed by ``(n, nnz_per_row, seed)`` —
    ``iters`` does not shape it — and returns that same object for the next
    call with an equal key. A different key builds a new problem and lets
    the old one go, so at most one is held. Its ``a.data``, ``a.indices``,
    ``a.indptr``, ``b`` and ``x_true`` are not writeable: copy before
    changing one. ``matrix=`` builds from the caller's matrix, is never
    cached and leaves that matrix as it was; it may be any scipy sparse
    format (a CSR one is used as it is, another is converted once).
    """
    if matrix is not None:
        return _with_solution(cfg, matrix if matrix.format == "csr" else matrix.tocsr())
    key = (cfg.n, cfg.nnz_per_row, cfg.seed)
    with _held_lock:
        problem = _held.get(key)
        if problem is None:
            from .matrices import synthetic_spd

            _held.clear()  # before building: never two problems at once
            problem = _with_solution(cfg, synthetic_spd(*key))
            a = problem.a
            for array in (a.data, a.indices, a.indptr, problem.b, problem.x_true):
                array.flags.writeable = False
            _held[key] = problem
    return problem


def _with_solution(cfg: CgConfig, a: sp.csr_matrix) -> CgProblem:
    rng = np.random.default_rng(cfg.seed + 1)
    x_true = rng.normal(size=a.shape[0])
    x_true /= np.linalg.norm(x_true)
    return CgProblem(a, a @ x_true, x_true)


def row_partition(n: int, nranks: int) -> Tuple[List[int], List[int]]:
    """Equal-length row blocks (paper: 'equally in length', ignoring nnz)."""
    base, extra = divmod(n, nranks)
    counts = [base + (1 if r < extra else 0) for r in range(nranks)]
    displs = [sum(counts[:r]) for r in range(nranks)]
    return counts, displs


def row_block(a: sp.csr_matrix, lo: int, cnt: int) -> sp.csr_matrix:
    """Rows ``[lo, lo + cnt)`` of CSR ``a`` as a CSR view: its data and
    indices are slices of ``a``'s (no copy; read-only when ``a`` is)."""
    s, e = a.indptr[lo], a.indptr[lo + cnt]
    block = type(a)((cnt, a.shape[1]), dtype=a.dtype)
    # Set after construction: the constructor copies a slice of a much
    # larger array.
    block.data, block.indices = a.data[s:e], a.indices[s:e]
    block.indptr = a.indptr[lo : lo + cnt + 1] - s
    return block


def serial_cg(problem: CgProblem, iters: int) -> Tuple[np.ndarray, float]:
    """Single-process reference with the same update order."""
    a, b = problem.a, problem.b
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for _ in range(iters):
        q = a @ p
        alpha = rs / float(p @ q)
        x += alpha * p
        r -= alpha * q
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, float(np.linalg.norm(b - a @ x))


# --------------------------------------------------------------------- #
# Distributed state + kernels (shared by every variant).
# --------------------------------------------------------------------- #


@dataclass
class CgState:
    """One rank's CG data. ``p_full`` is the communication buffer (the
    AllGatherv target, symmetric under GPUSHMEM); the local search segment
    is its slice at this rank's displacement."""

    a_local: sp.csr_matrix
    p_full: object  # n elements (Memory buffer)
    q: object  # local rows
    x: object
    r: object
    pq: object  # scalar buffers (1 element each)
    rs: object
    rs_new: object
    counts: List[int]
    displs: List[int]
    me: int

    @property
    def n_local(self) -> int:
        """Number of matrix rows this rank owns."""
        return self.counts[self.me]

    @property
    def my_offset(self) -> int:
        """This rank's row displacement in the global vector."""
        return self.displs[self.me]

    def p_local_view(self) -> np.ndarray:
        """This rank's slice of the search-direction vector.

        Sliced at the buffer level (not on the numpy view) so kernel access
        recording covers only the local segment — the rest of ``p_full`` is
        legitimately rewritten by incoming allgather puts.
        """
        return self.p_full.offset_by(self.my_offset, self.n_local).data


def _spmv_cost(ctx: DeviceCtx, state: CgState) -> KernelCost:
    nnz = state.a_local.nnz
    return KernelCost(bytes_moved=12.0 * nnz + 8.0 * state.n_local, flops=2.0 * nnz)


def _vec_cost_factory(words_per_elem: float):
    def cost(ctx: DeviceCtx, state: CgState) -> KernelCost:
        n = state.n_local
        return KernelCost(bytes_moved=words_per_elem * 8.0 * n, flops=2.0 * n)

    return cost


@kernel(name="cg_spmv", cost=_spmv_cost)
def k_spmv(ctx: DeviceCtx, state: CgState) -> None:
    """q = A_local @ p_full."""
    state.q.data[:] = state.a_local @ state.p_full.data


@kernel(name="cg_dot_pq", cost=_vec_cost_factory(2))
def k_dot_pq(ctx: DeviceCtx, state: CgState) -> None:
    """pq = <p_local, q> (local part; AllReduce completes it)."""
    state.pq.data[0] = float(state.p_local_view() @ state.q.data)


@kernel(name="cg_update", cost=_vec_cost_factory(6))
def k_update(ctx: DeviceCtx, state: CgState) -> None:
    """alpha = rs/pq; x += alpha p; r -= alpha q; rs_new = <r,r> local."""
    alpha = state.rs.data[0] / state.pq.data[0]
    state.x.data[:] += alpha * state.p_local_view()
    state.r.data[:] -= alpha * state.q.data
    state.rs_new.data[0] = float(state.r.data @ state.r.data)


@kernel(name="cg_pupdate", cost=_vec_cost_factory(4))
def k_pupdate(ctx: DeviceCtx, state: CgState) -> None:
    """beta = rs_new/rs; p = r + beta p; rs = rs_new."""
    beta = state.rs_new.data[0] / state.rs.data[0]
    p_local = state.p_local_view()
    p_local[:] = state.r.data + beta * p_local
    state.rs.data[0] = state.rs_new.data[0]


def final_residual(problem: CgProblem, x_full: np.ndarray) -> float:
    """||b - A x|| of an assembled solution."""
    return float(np.linalg.norm(problem.b - problem.a @ x_full))
