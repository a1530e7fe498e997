"""Orthonormal bases of the truncated output Hilbert space.

A point of the (possibly infinite-dimensional) output space is its first
d_Y coordinates in a fixed orthonormal basis: a finite float array, and its
inner products are numpy's. The coordinates of points `values` (..., d_Y)
in another orthonormal basis are `values @ basis.columns`. This module
holds the basis type, Gram-Schmidt, a random basis and the two output
norms, which share one coordinate loop: `distances` and `clipped_loss`,
the loss min(||y - yhat||, c) of the learning application. Truncation
level d_Y is a declared parameter of every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Orthonormality tolerance: double-precision head-room.
ORTHO_TOL = 1e-12
# Below 8 coordinates numpy's add.reduce sums left to right; from 8 on it
# keeps eight interleaved partial sums and adds them pairwise.
_PAIRWISE_WIDTH = 8


def _root_sum_squares(a, b, width) -> np.ndarray:
    """||a - b|| over the first `width` coordinates of the last axis: each
    difference is squared and added, left to right, over whole slices into
    one buffer, with a second for the next square, and the sum is rooted in
    place. A width-1 axis or a 0-d operand broadcasts."""
    def column(x, j):
        return x[..., j % x.shape[-1]] if x.ndim else x

    sq = np.asarray(np.subtract(column(a, 0), column(b, 0)))
    sq *= sq
    if width > 1:
        tmp = np.empty_like(sq)
        for j in range(1, width):
            np.subtract(column(a, j), column(b, j), out=tmp)
            tmp *= tmp
            sq += tmp
    return np.sqrt(sq, out=sq)


def distances(a, b) -> np.ndarray:
    """||a - b|| over the last axis, a and b broadcast: bitwise
    np.linalg.norm(a - b, axis=-1) at every width.

    Below _PAIRWISE_WIDTH coordinates _root_sum_squares sums left to right
    over whole slices, which is numpy's own order there; numpy instead runs
    one short reduce per row. Wider axes, width 0 and a single vector go to
    np.linalg.norm itself.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    wa, wb = (x.shape[-1] if x.ndim else 1 for x in (a, b))
    width = wb if wa == 1 else wa
    if not 0 < width < _PAIRWISE_WIDTH or wb not in (1, width) \
            or max(a.ndim, b.ndim) < 2:
        return np.linalg.norm(a - b, axis=-1)
    return _root_sum_squares(a, b, width)


def clipped_loss(y: np.ndarray, yhat: np.ndarray, cap: float,
                 lipschitz: float) -> np.ndarray:
    """lipschitz * min(||y - yhat||, cap): bounded by lipschitz * cap and
    lipschitz-Lipschitz in yhat. The one clipped loss of the package.

    y and yhat broadcast over their leading axes; the last axis is the
    output space. The norm is _root_sum_squares at every width, so the
    difference is never formed: below _PAIRWISE_WIDTH coordinates it is
    bitwise distances(y, yhat); from there on it keeps its left-to-right
    sum, and numpy's eight interleaved partial sums may differ from it in
    the last bits. A pair of vectors gives a scalar.
    """
    loss = _root_sum_squares(y, yhat, np.shape(y)[-1])
    np.minimum(loss, cap, out=loss)
    loss *= lipschitz
    return loss if loss.ndim else loss[()]


def sup_sign_norms(signs, values) -> np.ndarray:
    """max_k ||(1/n) sum_i s_i values[k, i]|| for each sign row s.

    signs is (C, n), values (K, n, d_Y). One GEMM of the signs against the
    values flattened to (n, K d_Y) sums every member's coordinates; at
    d_Y = 1 the norm is the absolute value bitwise, sqrt(x x) = |x|.
    """
    k, n, d_y = values.shape
    sums = signs @ values.transpose(1, 0, 2).reshape(n, k * d_y)
    sums /= n
    return distances(sums.reshape(len(signs), k, d_y), 0.0).max(axis=1)


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
