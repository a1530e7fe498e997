"""Norm-form and coordinate-wise Rademacher complexities.

The norm form E_sigma sup_g ||(1/n) sum_i sigma_i g(X_i)|| is basis-free;
the coordinate-wise form (one sign per sample per output coordinate) is not,
and the fixed two-projection fixture reproduces that failure exactly.

Two coordinate-wise conventions are implemented. The "pattern sum" follows
the counterexample's own arithmetic: sign variables whose coefficient is
identical across all members contribute the same amount to every member's
statistic and average to zero, so they are dropped, and the supremum is then
summed (not averaged) over the remaining sign patterns. The normalized form
averages over sign patterns and divides by n, matching the displayed
definition. Both are reported; they differ by bookkeeping only:
pattern_sum = 2^{#effective signs} * pattern mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .empirical_process import build_chaining_plan
from .function_class import EmpiricalDesign, FunctionClass
from .hilbert import OrthonormalBasis, member_norms
from .reports import MC_SES, mc_mean, passes
from .rng import sign_rows

_TAG_NORM_MC = 601
_TAG_COORD_MC = 602


@dataclass(frozen=True)
class RademacherEstimate:
    value: float
    mode: str                 # "exact_enumeration" | "monte_carlo"
    form: str                 # "norm" | "coordinatewise" | "pattern_sum_coordinatewise"
    n_patterns: int = 0       # patterns enumerated (exact) or sampled (MC)
    se: float = 0.0


def _sign_matrix(start: int, count: int, n_bits: int) -> np.ndarray:
    """Rows start..start+count-1 of the full +-1 pattern enumeration."""
    ints = np.arange(start, start + count, dtype=np.int64)
    bits = (ints[:, None] >> np.arange(n_bits)[None, :]) & 1
    return 2.0 * bits - 1.0


def _sign_expectation(stat, n_bits: int, columns: int, form: str, mode: str,
                      reps: int, seed: int, tag: int,
                      threads: int) -> RademacherEstimate:
    """E stat(signs) over n_bits Rademacher signs (stat maps a (rows,
    n_bits) sign matrix to one value per row by a GEMM against `columns`
    columns). mode "exact" averages all 2^n_bits patterns, enumerated in
    chunks of 2^14 rows; mode "mc" averages reps rows drawn tile by tile
    (sign_rows) and reports the standard error.
    """
    if mode == "exact":
        if n_bits > 20:
            raise ValueError("exact enumeration limited to 2^20 sign patterns")
        n_patterns = 1 << n_bits
        chunk = min(n_patterns, 1 << 14)
        total = 0.0
        for start in range(0, n_patterns, chunk):
            signs = _sign_matrix(start, min(chunk, n_patterns - start), n_bits)
            total += float(stat(signs).sum())
        return RademacherEstimate(value=total / n_patterns,
                                  mode="exact_enumeration", form=form,
                                  n_patterns=n_patterns)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")

    def rows(rng, size):
        return np.concatenate([stat(signs) for signs in
                               sign_rows(rng, size, n_bits, columns)])

    mean, se = mc_mean(rows, reps, threads, seed, tag)
    return RademacherEstimate(value=mean, mode="monte_carlo", form=form,
                              n_patterns=reps, se=se)


def norm_rademacher_values(values: np.ndarray, mode: str = "exact",
                           reps: int = 100_000, seed: int = 0,
                           threads: int = 1) -> RademacherEstimate:
    """E_sigma sup_g ||(1/n) sum_i sigma_i g(X_i)|| from a (K, n, d_Y) tensor."""
    k, n, d_y = values.shape
    if k == 0:
        raise ValueError("class must be nonempty")
    flat = values.transpose(1, 0, 2).reshape(n, k * d_y)
    return _sign_expectation(lambda signs: member_norms(signs, flat, d_y, n),
                             n, k * d_y, "norm", mode, reps, seed,
                             _TAG_NORM_MC, threads)


def _effective_signs(coords: np.ndarray):
    """Split the n*d_Y sign variables into member-constant and effective.

    coords has shape (K, n, d_Y); a sign variable (i, j) is degenerate when
    every member shares the coefficient g_j(X_i): it shifts all members
    equally and integrates to zero.
    """
    k = coords.shape[0]
    flat = coords.reshape(k, -1)
    spread = flat.max(axis=0) - flat.min(axis=0)
    effective = np.where(spread > 1e-12)[0]
    return flat, effective


def coordinatewise_rademacher_values(coords: np.ndarray, normalized: bool,
                                     mode: str = "exact", reps: int = 100_000,
                                     seed: int = 0,
                                     threads: int = 1) -> RademacherEstimate:
    """Coordinate-wise complexity from a (K, n, d_Y) coordinate tensor.

    normalized=False returns the pattern sum over effective signs (the
    counterexample's arithmetic); normalized=True returns the expectation
    over all sign patterns divided by n (Monte Carlo divides each row, so
    its standard error is in that scale too).
    """
    k, n, d_y = coords.shape
    if k == 0:
        raise ValueError("class must be nonempty")
    if mode == "mc" and not normalized:
        raise ValueError("the pattern-sum form requires exact enumeration")
    flat, effective = _effective_signs(coords)
    eff = flat[:, effective]                      # (K, E)
    per_row = n if mode == "mc" else 1
    est = _sign_expectation(lambda signs: (signs @ eff.T).max(axis=1) / per_row,
                            effective.size, k, "coordinatewise", mode, reps,
                            seed, _TAG_COORD_MC, threads)
    if mode != "exact":
        return est
    if normalized:
        return replace(est, value=est.value / n)
    return replace(est, value=est.value * est.n_patterns,
                   form="pattern_sum_coordinatewise")


# --------------------------------------------------------------------------
# the basis-dependence counterexample


def counterexample_values() -> np.ndarray:
    """Fixture: X1 = e1, X2 = e2; g1, g2 orthogonal projections onto the
    lines y = x and y = -x; values tensor (2 members, 2 samples, 2 coords)."""
    g1 = np.array([[0.5, 0.5], [0.5, 0.5]])
    g2 = np.array([[0.5, -0.5], [-0.5, 0.5]])
    return np.stack([g1, g2])


def rotated_basis() -> OrthonormalBasis:
    s = 1.0 / math.sqrt(2.0)
    return OrthonormalBasis(np.array([[s, -s], [s, s]]))


@dataclass(frozen=True)
class CounterexampleReport:
    standard: float            # pattern sum, standard basis
    rotated: float             # pattern sum, rotated basis
    normalized_standard: float  # pattern mean, standard basis
    normalized_rotated: float
    norm_form_standard: float
    norm_form_rotated: float
    dependent: bool


def basis_dependence_demo() -> CounterexampleReport:
    """Exact enumeration of the two-projection counterexample.

    The coordinate-wise pattern sums are 2 (standard basis) and 6 sqrt(2)
    (rotated basis); the norm-form complexity is identical in both bases.
    """
    values = counterexample_values()
    std = OrthonormalBasis.identity(2)
    rot = rotated_basis()
    out = {}
    for tag, basis in (("standard", std), ("rotated", rot)):
        coords = values @ basis.columns
        ps = coordinatewise_rademacher_values(coords, normalized=False)
        out[tag] = (ps.value, ps.value / ps.n_patterns)
    norm_std = norm_rademacher_values(values).value
    norm_rot = norm_rademacher_values(values @ rot.columns).value
    dependent = (abs(out["standard"][0] - out["rotated"][0]) > 1e-9
                 and abs(out["standard"][1] - out["rotated"][1]) > 1e-9)
    return CounterexampleReport(
        standard=out["standard"][0], rotated=out["rotated"][0],
        normalized_standard=out["standard"][1],
        normalized_rotated=out["rotated"][1],
        norm_form_standard=norm_std, norm_form_rotated=norm_rot,
        dependent=dependent)


# --------------------------------------------------------------------------
# entropy bound (chaining) on the norm-form complexity


@dataclass(frozen=True)
class EntropyBoundReport:
    estimate: float
    bound: float
    r_n: float
    j_n: float
    s_levels: int
    ok: bool


def rademacher_entropy_bound_check(cls: FunctionClass, design: EmpiricalDesign,
                                   s_levels: int, mode: str = "exact",
                                   reps: int = 100_000, seed: int = 0,
                                   threads: int = 1) -> EntropyBoundReport:
    """Norm-form complexity against 2^-(S+1) R_n + 2 J_n / sqrt(n)."""
    plan = build_chaining_plan(cls, design, s_levels)
    bound = 0.5 ** (s_levels + 1) * plan.r_n + 2.0 * plan.j_n / math.sqrt(design.n)
    est = norm_rademacher_values(cls.values_on(design), mode=mode, reps=reps,
                                 seed=seed, threads=threads)
    slack = MC_SES * est.se if est.mode == "monte_carlo" else 1e-12
    return EntropyBoundReport(estimate=est.value, bound=bound, r_n=plan.r_n,
                              j_n=plan.j_n, s_levels=s_levels,
                              ok=passes(est.value, bound, slack))
