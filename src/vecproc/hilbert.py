"""Orthonormal bases of the truncated output Hilbert space.

A point of the (possibly infinite-dimensional) output space is its first
d_Y coordinates in a fixed orthonormal basis: a finite float array, and its
inner products and norms are numpy's. The coordinates of points `values`
(..., d_Y) in another orthonormal basis are `values @ basis.columns`. This
module holds the basis type, Gram-Schmidt and a random basis. Truncation
level d_Y is a declared parameter of every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthonormality tolerance: double-precision head-room.
ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class OrthonormalBasis:
    """d_Y orthonormal columns; the j-th basis vector is columns[:, j]."""

    columns: np.ndarray

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[0] != cols.shape[1]:
            raise ValueError("basis must be a square matrix of column vectors")
        gram = cols.T @ cols
        if not np.allclose(gram, np.eye(cols.shape[1]), atol=ORTHO_TOL, rtol=0.0):
            raise ValueError("columns are not orthonormal to 1e-12")
        object.__setattr__(self, "columns", cols)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @staticmethod
    def identity(dim: int) -> "OrthonormalBasis":
        return OrthonormalBasis(np.eye(dim))


def gram_schmidt(mat) -> OrthonormalBasis:
    """Orthonormal basis from the columns of a full-rank square matrix."""
    mat = np.asarray(mat, dtype=float)
    q, r = np.linalg.qr(mat)
    if np.any(np.abs(np.diag(r)) < 1e-10):
        raise ValueError("matrix columns are not linearly independent")
    # Fix signs so the result is a deterministic function of the input.
    q = q * np.sign(np.diag(r))
    return OrthonormalBasis(q)


def random_orthonormal_basis(dim: int, rng: np.random.Generator) -> OrthonormalBasis:
    while True:
        mat = rng.standard_normal((dim, dim))
        try:
            return gram_schmidt(mat)
        except ValueError:  # pragma: no cover - essentially impossible draw
            continue
