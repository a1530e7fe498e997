"""Closed-form entropy bounds for smooth vector-valued function classes.

Each evaluator returns the pre-simplification expression from the end of the
corresponding proof chain rather than an opaque constant K, with the grid
count K2 * delta^{-d/m} replaced by the exact net size
L = ceil(sqrt(d) (4 K1 / delta)^{1/m})^d, so bound values are reproducible
and directly comparable against measured cover entropies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import (EXACT_COVER_MAX, PointCloud, exact_cover_number,
                       smooth_cover_constants)
from .function_class import EmpiricalDesign, FunctionClass
from .hilbert import clipped_loss
from .reports import passes


def bound_assouad(d: int, m: int, k_b: float, delta: float, big_m: float,
                  tau_asd: float) -> float:
    """Entropy bound for a homogeneous range set; affine in tau_asd.

    L-cell term counts the per-net-point level choices, the additive term
    the unconstrained choices at the first net point.
    """
    _validate(d, m, k_b, delta)
    if big_m < 1 or tau_asd <= 0:
        raise ValueError("need M >= 1 and tau_asd > 0")
    big_l = smooth_cover_constants(d, m, k_b, delta)[3]
    per_cell = math.log(big_m) + tau_asd * math.log(math.exp(d) + 3.0)
    first = math.log(big_m) + tau_asd * math.log(4.0 * math.exp(d) * k_b / delta)
    return m ** d * big_l * per_cell + m ** d * first


def bound_box(d: int, m: int, k_b: float, delta: float, tau_box: float) -> float:
    """Entropy bound for a range set of finite upper box-counting dimension."""
    _validate(d, m, k_b, delta)
    if tau_box < 0:
        raise ValueError("tau_box must be nonnegative")
    big_l = smooth_cover_constants(d, m, k_b, delta)[3]
    return (tau_box + 1.0) * m ** d * big_l * math.log(2.0 * math.exp(d) / delta)


def bound_exp(d: int, m: int, k_b: float, delta: float, big_m: float,
              tau_exp: float) -> float:
    """Entropy bound for exponentially growing range-set covering numbers."""
    _validate(d, m, k_b, delta)
    if big_m <= 0 or tau_exp <= 0:
        raise ValueError("need M > 0 and tau_exp > 0")
    big_l = smooth_cover_constants(d, m, k_b, delta)[3]
    try:
        return big_m * (2.0 * math.exp(d) / delta) ** tau_exp * m ** d * big_l
    except OverflowError:      # a float power raises; a product gives inf
        raise ValueError("the exponential entropy bound overflows a float") \
            from None


def bound_rkhs(d: int, m: int, k_b: float, delta: float, big_m: float,
               h: float) -> float:
    """Smooth-kernel RKHS ball range set: exponential variant, tau = 2d/h."""
    if h <= d:
        raise ValueError("need h > d")
    return bound_exp(d, m, k_b, delta, big_m, 2.0 * d / h)


def _validate(d, m, k_b, delta):
    if min(d, m) < 1 or not 0 < k_b < math.inf:
        raise ValueError("need d, m >= 1 and finite K_B > 0")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def bound(variant: str, d: int, m: int, k_b: float, delta: float,
          big_m: float, tau: float) -> float:
    """The entropy bound of one variant (assouad | box | exponential |
    rkhs); tau is tau_asd, tau_box or tau_exp, and h for rkhs."""
    if variant == "assouad":
        return bound_assouad(d, m, k_b, delta, big_m, tau)
    if variant == "box":
        return bound_box(d, m, k_b, delta, tau)
    if variant == "exponential":
        return bound_exp(d, m, k_b, delta, big_m, tau)
    if variant == "rkhs":
        return bound_rkhs(d, m, k_b, delta, big_m, tau)
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class ContractionRow:
    delta: float
    n_loss: int
    n_class: int
    ok: bool


def lipschitz_contraction_check(cls: FunctionClass, loss_c: float,
                                design: EmpiricalDesign, targets, delta_grid):
    """N(c delta, L o G, ||.||_{2,P_n}) <= N(delta, G, ||.||_{2,P_n}), exactly.

    The loss is the clipped distance loss_c * min(||y - yhat||, 1), which
    is loss_c-Lipschitz in yhat; both covering numbers are exact, so the
    contraction inequality is tested with no slack.
    """
    if loss_c <= 0:
        raise ValueError("Lipschitz constant must be positive")
    if len(cls) > EXACT_COVER_MAX:
        raise ValueError("exact contraction check limited to "
                         f"{EXACT_COVER_MAX} members")
    targets = np.atleast_2d(np.asarray(targets, float))
    if targets.shape != (design.n, cls.d_y):
        raise ValueError("targets must have shape (n, d_y)")
    vals = cls.values_on(design)                       # (K, n, d_Y)
    class_cloud = PointCloud.from_values(vals)
    loss_cloud = PointCloud.from_values(clipped_loss(targets, vals, 1.0,
                                                     loss_c))  # (K, n)
    rows = []
    for delta in np.asarray(delta_grid, float):
        n_loss = exact_cover_number(loss_cloud, loss_c * delta)
        n_class = exact_cover_number(class_cloud, delta)
        rows.append(ContractionRow(delta=float(delta), n_loss=n_loss,
                                   n_class=n_class, ok=passes(n_loss, n_class)))
    return rows
