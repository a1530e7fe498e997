"""Samplers and validators for concentration inequalities in Hilbert space.

Monte-Carlo checks compare empirical exceedance frequencies against the
theoretical tail bounds with a slack of three binomial standard errors;
moment-generating-function inequalities for Gaussians are verified
deterministically through their finite-spectrum product form, with no
sampling noise at all. Replicates are partitioned into fixed blocks with
counter-derived seeds and averaged in block order by `reports.mc_mean`, so
results depend only on (seed, reps), never on the worker count. A block's
memory does not grow with n: the sign-sum check, which draws a (replicates,
n) sign matrix, runs sample_block(n) replicates per block, and the
bounded-vector and cosh checks draw one row of replicates at a time.

The bounded-vector checks read only ||S_n||, S_n = sum_i eps_i c_i U_i with
U_i uniform on the unit sphere of R^d_y. The signs are absorbed into U_i,
whose law they keep, and ||S_k||^2 = ||S_{k-1}||^2 + c_k^2
+ 2 c_k ||S_{k-1}|| T_k exactly, where T_k = <U_k, S_{k-1}/||S_{k-1}||> is,
by rotation invariance, independent of S_{k-1} with the law of one
coordinate of U_k. Two coordinates of U_k have a density proportional to
(1 - r^2)^((d_y - 4)/2) on the unit disk (d_y >= 3), so their radius has
r^2 = 1 - U^(2/(d_y - 2)) and their angle is uniform: T_k is
sqrt(1 - U^(2/(d_y - 2))) cos(2 pi V) for independent uniforms U and V,
cos(2 pi V) when d_y = 2 and a random sign when d_y = 1.

A Gaussian covariance is given in its eigenbasis, by its nonincreasing
eigenvalues; its draws are sum_j sqrt(lambda_j) xi_j e_j, so the output
coordinates are the eigen-coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import distances
from .reports import (MC_SES, TailReport, fields_json, mc_mean, passes,
                      tail_check)
from .rng import sample_block, sign_bytes, sign_rows, unpack_signs

_TAG_REAL = 301
_TAG_HILBERT = 302
_TAG_COSH = 303
_TAG_GAUSS_TAIL = 304


@dataclass(frozen=True)
class CovarianceSpectrum:
    """Eigenvalues (nonincreasing, nonnegative) of a covariance operator,
    whose eigenvectors are the coordinate axes."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, float)
        if ev.ndim != 1 or ev.size == 0:
            raise ValueError("eigenvalues must be a nonempty vector")
        if np.any(ev < 0) or not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues must be finite and nonnegative")
        if np.any(np.diff(ev) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def d_y(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    @staticmethod
    def geometric(n_modes: int) -> "CovarianceSpectrum":
        """lambda_j proportional to 2^-j, normalised to trace 1."""
        ev = 0.5 ** np.arange(1, n_modes + 1)
        return CovarianceSpectrum(ev / ev.sum())

    @staticmethod
    def uniform(n_modes: int) -> "CovarianceSpectrum":
        return CovarianceSpectrum(np.full(n_modes, 1.0 / n_modes))

    @staticmethod
    def single() -> "CovarianceSpectrum":
        return CovarianceSpectrum(np.array([1.0]))


def sample_gaussian_batch(spectrum: CovarianceSpectrum, rng: np.random.Generator,
                          size: int) -> np.ndarray:
    """Zero-mean draws sum_j sqrt(lambda_j) xi_j e_j, shape (size, d_y)."""
    xi = rng.standard_normal((size, spectrum.d_y))
    return xi * np.sqrt(spectrum.eigenvalues)


def _per_sample_bounds(c, n: int, d_y: int = 1) -> np.ndarray:
    if d_y < 1:
        raise ValueError("d_y must be at least 1")
    c = np.asarray(c, float)
    if c.ndim == 0:
        c = np.full(n, float(c))
    if c.shape != (n,) or not np.all((c > 0) & np.isfinite(c)):
        raise ValueError("need n positive bounds c_i")
    return c


def hoeffding_real_check(c, n: int, t_grid, reps: int, seed: int,
                         threads: int = 1) -> TailReport:
    """P(S_n >= b sqrt(2t)) <= e^-t for S_n a sum of symmetric +-c_i signs."""
    c = _per_sample_bounds(c, n)
    b = math.sqrt(float(np.sum(c ** 2)))
    ts = np.asarray(t_grid, float)

    def stat(rng, size):    # one tile: a block has under GEMM_FLOOR / n rows
        return np.concatenate([s @ c for s in sign_rows(rng, size, n, 1)])

    return tail_check(stat, b * np.sqrt(2.0 * ts), ts, np.exp(-ts), reps,
                      threads, seed, _TAG_REAL, block=sample_block(n))


def _sum_norms(rng, size, n, d_y, c):
    """||S_n|| for `size` replicates, by the radial recursion above from
    ||S_1|| = c_1, so only T_2..T_n are drawn, one row of `size` at a time:
    a sign when d_y = 1, else cos(2 pi V) from a row of uniforms, times,
    when d_y >= 3, the radius factor sqrt(-expm1(log(U) 2/(d_y - 2))) from
    a second row. expm1 keeps 1 - U^a exact as U -> 1, and U = 0 gives the
    factor 1. No sign eps_i is drawn: eps_i c_i U_i has the law of
    c_i U_i. Memory is O(size), whatever n and d_y are."""
    tk = np.empty(size)
    radius = np.empty(size) if d_y > 2 else None
    sq = np.full(size, c[0] * c[0])
    with np.errstate(divide="ignore"):    # log 0 = -inf: a radius of 1
        for ck in c[1:]:
            if d_y == 1:
                unpack_signs(sign_bytes(rng, size), 0, size, tk)
            else:
                rng.random(out=tk)
                tk *= 2.0 * math.pi
                np.cos(tk, out=tk)
            if radius is not None:
                rng.random(out=radius)
                np.log(radius, out=radius)
                radius *= 2.0 / (d_y - 2)
                np.expm1(radius, out=radius)
                np.negative(radius, out=radius)
                tk *= np.sqrt(radius, out=radius)
            sq += ck * (ck + 2.0 * np.sqrt(sq) * tk)
            np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq)


def hoeffding_hilbert_check(c, n: int, d_y: int, t_grid, reps: int, seed: int,
                            threads: int = 1) -> TailReport:
    """P(||S_n|| >= 2b sqrt(t)) <= 2 e^-t for bounded zero-mean vectors."""
    c = _per_sample_bounds(c, n, d_y)
    b = math.sqrt(float(np.sum(c ** 2)))
    ts = np.asarray(t_grid, float)
    return tail_check(lambda rng, size: _sum_norms(rng, size, n, d_y, c),
                      2.0 * b * np.sqrt(ts), ts, 2.0 * np.exp(-ts), reps,
                      threads, seed, _TAG_HILBERT)


@dataclass(frozen=True)
class MomentRow:
    lam: float = field(metadata={"json": "lambda"})
    lhs: float
    rel_se: float
    rhs: float
    status: str   # "ok" | "fail" | "inconclusive"


@dataclass(frozen=True)
class MomentReport:
    rows: tuple
    reps: int
    seed: int

    @property
    def all_ok(self) -> bool:
        return all(r.status != "fail" for r in self.rows)

    def to_json(self):
        return {**fields_json(self), "all_ok": self.all_ok}


def cosh_moment_check(c, n: int, lambda_grid, reps: int, seed: int, d_y: int = 5,
                      threads: int = 1) -> MomentReport:
    """E[cosh(lambda ||S_n||)] <= prod_i exp(lambda^2 c_i^2).

    Thresholds where the Monte-Carlo estimator is too noisy (relative
    standard error above 0.2) are flagged inconclusive rather than failed.
    """
    c = _per_sample_bounds(c, n, d_y)
    lams = np.asarray(lambda_grid, float)
    if np.any(lams <= 0):
        raise ValueError("lambda values must be positive")
    with np.errstate(over="ignore"):
        rhs = np.exp(lams ** 2 * float(np.sum(c ** 2)))
    if not np.all(np.isfinite(rhs)):
        raise ValueError("the cosh bound exp(lambda^2 sum c_i^2) overflows "
                         "a float")

    def cosh(rng, size):
        return np.cosh(lams * _sum_norms(rng, size, n, d_y, c)[:, None])

    mean, se = mc_mean(cosh, reps, threads, seed, _TAG_COSH)
    rows = []
    for lam, lhs, s, r in zip(lams, mean, se, rhs):
        rel = s / lhs if lhs > 0 else 0.0
        status = ("inconclusive" if rel > 0.2 else
                  "ok" if passes(lhs, r * (1.0 + MC_SES * rel)) else "fail")
        rows.append(MomentRow(lam=float(lam), lhs=float(lhs), rel_se=float(rel),
                              rhs=float(r), status=status))
    return MomentReport(rows=tuple(rows), reps=reps, seed=seed)


@dataclass(frozen=True)
class MgfRow:
    lam: float = field(metadata={"json": "lambda"})
    product: float
    bound: float
    ok: bool


def gaussian_mgf_check(spectrum: CovarianceSpectrum, lambda_grid):
    """Deterministic: prod_j (1-2 lambda lambda_j)^{-1/2} <= (1-2 lambda Tr)^{-1/2}.

    Evaluates the proof's exact product form for the finite spectrum; no
    Monte Carlo involved. Requires trace 1 and lambda < 1/2.
    """
    if abs(spectrum.trace - 1.0) > 1e-9:
        raise ValueError("spectrum must have trace 1")
    lam_max = float(spectrum.eigenvalues[0])
    rows = []
    for lam in np.asarray(lambda_grid, float):
        if lam <= 0 or lam >= 0.5:
            raise ValueError("lambda must lie in (0, 1/2)")
        if lam >= 1.0 / (2.0 * lam_max):
            raise ValueError("divergent product: lambda >= 1/(2 max eigenvalue)")
        product = float(np.prod((1.0 - 2.0 * lam * spectrum.eigenvalues) ** -0.5))
        bound = (1.0 - 2.0 * lam * spectrum.trace) ** -0.5
        rows.append(MgfRow(lam=float(lam), product=product, bound=bound,
                           ok=passes(product, bound * (1.0 + 1e-12))))
    return rows


def gaussian_tail_check(spectrum: CovarianceSpectrum, a_grid, reps: int,
                        seed: int, threads: int = 1) -> TailReport:
    """P(||Y|| >= a) <= 2 exp(-3 a^2 / (8 Tr Phi)) for zero-mean Gaussian Y."""
    if reps < 10 ** 4:
        raise ValueError("need at least 10^4 replicates")
    a_vals = np.asarray(a_grid, float)

    def stat(rng, size):
        return distances(sample_gaussian_batch(spectrum, rng, size), 0.0)

    bounds = 2.0 * np.exp(-3.0 * a_vals ** 2 / (8.0 * spectrum.trace))
    return tail_check(stat, a_vals, a_vals, bounds, reps, threads, seed,
                      _TAG_GAUSS_TAIL, label="a")
