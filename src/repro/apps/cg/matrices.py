"""Sparse SPD test matrices.

The paper uses Serena (1,391,349 rows, ~33 nnz/row) and Queen_4147
(4,147,110 rows, ~80 nnz/row) from the SuiteSparse collection. SuiteSparse
is not available offline, so we generate *structurally matched* synthetic
substitutes: symmetric positive-definite, banded (FEM-like locality) plus
random long-range couplings, with the same nnz/row density — the two
properties that drive both SpMV cost and the AllGatherv exchange volume.
Sizes are scaled down (configurable) to laptop scale; DESIGN.md documents
the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ...options import CG_MIN_ROWS

__all__ = ["MatrixSpec", "synthetic_spd", "serena_like", "queen_like", "MATRICES"]


@dataclass(frozen=True)
class MatrixSpec:
    """A named matrix recipe."""

    name: str
    n: int
    target_nnz_per_row: int
    seed: int

    def build(self) -> sp.csr_matrix:
        """Materialize the matrix for this spec."""
        return synthetic_spd(self.n, self.target_nnz_per_row, self.seed)


def synthetic_spd(n: int, nnz_per_row: int, seed: int = 0) -> sp.csr_matrix:
    """A symmetric positive-definite matrix with ~``nnz_per_row`` per row.

    Structure: tri-diagonal core + two FEM-like bands at ±k and ±k^2-ish
    offsets + random symmetric couplings to reach the target density; made
    strictly diagonally dominant (hence SPD).
    """
    if n < CG_MIN_ROWS:
        raise ValueError(f"matrix too small: n={n} (minimum {CG_MIN_ROWS})")
    rng = np.random.default_rng(seed)
    k = max(2, int(np.sqrt(n)))
    offsets = [1, k, min(k * 7, n - 1)]
    rows, cols, vals = [], [], []
    for off in offsets:
        idx = np.arange(n - off)
        rows.append(idx)
        cols.append(idx + off)
        vals.append(-np.abs(rng.normal(1.0, 0.2, size=n - off)).astype(np.float64))
    # Random long-range couplings to hit the density target.
    structured = 2 * sum(len(r) for r in rows)  # symmetric counterparts
    want = max(0, n * nnz_per_row - structured - n) // 2
    if want > 0:
        rr = rng.integers(0, n, size=want)
        cc = rng.integers(0, n, size=want)
        lo, hi = np.minimum(rr, cc), np.maximum(rr, cc)
        keep = lo < hi  # drop accidental diagonal hits
        rows.append(lo[keep])
        cols.append(hi[keep])
        vals.append(-np.abs(rng.normal(0.3, 0.1, size=int(keep.sum()))))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    v = np.concatenate(vals)
    upper = sp.coo_matrix((v, (r, c)), shape=(n, n))
    a = (upper + upper.T).tocsr()
    a.sum_duplicates()
    # Strict diagonal dominance -> SPD.
    row_abs = np.abs(a).sum(axis=1).A1
    a = a + sp.diags(row_abs + 1.0)
    out = a.tocsr().astype(np.float64)
    out.sort_indices()
    return out


def serena_like(n: int = 8192, seed: int = 7) -> MatrixSpec:
    """Scaled-down structural analogue of SuiteSparse Serena (~33 nnz/row)."""
    return MatrixSpec("serena-like", n, 33, seed)


def queen_like(n: int = 8192, seed: int = 11) -> MatrixSpec:
    """Scaled-down structural analogue of Queen_4147 (~80 nnz/row)."""
    return MatrixSpec("queen-like", n, 80, seed)


MATRICES = {"serena": serena_like, "queen": queen_like}
