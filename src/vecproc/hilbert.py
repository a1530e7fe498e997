"""Orthonormal bases of the truncated output Hilbert space.

A point of the (possibly infinite-dimensional) output space is its first
d_Y coordinates in a fixed orthonormal basis: a finite float array, and its
inner products are numpy's. The coordinates of points `values` (..., d_Y)
in another orthonormal basis are `values @ basis.columns`. This module
holds the basis type, Gram-Schmidt, a random basis and the two output
norms, which share one coordinate loop: `distances` and `clipped_loss`,
the loss min(||y - yhat||, c) of the learning application. Every
Monte-Carlo statistic that turns a class's coefficient columns into its
members' output norms goes through one kernel, `member_norms`, a slab of
whole members at a time. Truncation level d_Y is a declared parameter of
every experiment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import GEMM_FLOOR

# Orthonormality tolerance: double-precision head-room.
ORTHO_TOL = 1e-12
# Below 8 coordinates numpy's add.reduce sums left to right; from 8 on it
# keeps eight interleaved partial sums and adds them pairwise.
_PAIRWISE_WIDTH = 8
# Most values one member_norms product holds where lcm(d_Y, 8) of its
# columns fit: a wider product is taken in slabs of whole members.
_SLAB_VALUES = 2 ** 20


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
    np.linalg.norm itself, handed a alone when b is the scalar 0 (no copy).
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    wa, wb = (x.shape[-1] if x.ndim else 1 for x in (a, b))
    width = wb if wa == 1 else wa
    if not 0 < width < _PAIRWISE_WIDTH or wb not in (1, width) \
            or max(a.ndim, b.ndim) < 2:
        return np.linalg.norm(a - b if b.ndim or b else a, axis=-1)
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


def member_norms(rows, coefs, d_y, divisor, sup=True) -> np.ndarray:
    """||rows[r] @ C_k|| / divisor for every row r and member k, (rows, K),
    or its max over k when sup; C_k is member k's d_Y columns of coefs
    (., K d_Y). Sign statistics pass sign rows against the members' values
    flattened to (n, K d_Y) and divisor n; moment statistics pass feature
    means against the class's coefficients and divisor 1, which is exact.
    At d_Y = 1 the norm is the absolute value bitwise, sqrt(x x) = |x|.

    The product is divided in place and taken in slabs of whole members
    and whole 8-column groups, at most _SLAB_VALUES values where lcm(d_Y,
    8) columns fit, so no product grows with K; a last slab of at most
    GEMM_FLOOR multiply-adds joins the one before. So every slab clears
    rng.row_tiles' GEMM floor: the others hold over _SLAB_VALUES / 2 = 2^19
    values of len(coefs) terms, over GEMM_FLOOR multiply-adds from two
    terms on (a one-term sum is one rounded product in any kernel). On
    OpenBLAS 0.3.31 (numpy 2.4.6) slabs kept the one-slab product's bits
    except, where K d_Y is no multiple of 8 and the product is wider than
    about 190 columns, in its last K d_Y mod 8 columns, which a wide product
    computes by another path (9 of 27 split sign shapes, all at n = 5, 16).
    """
    cols, unit = coefs.shape[1], math.lcm(d_y, 8)
    step = max(1, _SLAB_VALUES // (len(rows) * unit)) * unit
    edges = list(range(0, cols, step)) + [cols]
    if len(edges) > 2 and (cols - edges[-2]) * rows.size <= GEMM_FLOOR:
        del edges[-2]

    def slabs():
        for lo, hi in zip(edges, edges[1:]):
            prod = rows @ coefs[:, lo:hi]
            prod /= divisor
            yield distances(prod.reshape(len(rows), -1, d_y), 0.0)

    if sup:
        return functools.reduce(np.maximum, (s.max(axis=1) for s in slabs()))
    return np.hstack(list(slabs()))


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
