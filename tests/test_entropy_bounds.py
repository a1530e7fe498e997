import math

import numpy as np
import pytest

from vecproc import covering as cov
from vecproc import entropy_bounds as eb
from vecproc import function_class as fc
from vecproc import regression as reg
from vecproc.rng import substream


def test_assouad_positive_finite():
    val = eb.bound_assouad(1, 1, 1.0, 0.1, big_m=2.0, tau_asd=1.0)
    assert 0 < val < math.inf


def test_assouad_affine_in_tau():
    base = dict(d=1, m=1, k_b=1.0, delta=0.1, big_m=2.0)
    b1 = eb.bound_assouad(tau_asd=1.0, **base)
    b2 = eb.bound_assouad(tau_asd=2.0, **base)
    b3 = eb.bound_assouad(tau_asd=3.0, **base)
    assert (b2 - b1) == pytest.approx(b3 - b2, abs=1e-9)


def test_assouad_log_slope_is_d_over_m():
    for d, m in ((1, 1), (1, 2), (2, 1)):
        deltas = np.geomspace(1e-2, 1e-4, 30)
        vals = [eb.bound_assouad(d, m, 1.0, dd, 2.0, 1.0) for dd in deltas]
        slope = np.polyfit(np.log(1.0 / deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(d / m, abs=0.05)


def test_box_log_slope_and_extra_log_factor():
    deltas = np.geomspace(1e-2, 1e-4, 30)
    ratios = [eb.bound_box(1, 1, 1.0, dd, 1.0)
              / eb.bound_assouad(1, 1, 1.0, dd, 2.0, 1.0) for dd in deltas]
    # extra log(1/delta) factor: the ratio keeps growing as delta shrinks
    assert all(a < b + 1e-12 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 1.5 * ratios[0]


def test_box_tau_zero_keeps_unit_factor():
    v0 = eb.bound_box(1, 1, 1.0, 0.1, 0.0)
    v1 = eb.bound_box(1, 1, 1.0, 0.1, 1.0)
    assert v0 > 0
    assert v1 == pytest.approx(2.0 * v0, abs=1e-9)


def test_exp_log_slope():
    for tau in (0.5, 1.0):
        deltas = np.geomspace(1e-2, 1e-4, 30)
        vals = [eb.bound_exp(1, 1, 1.0, dd, 1.0, tau) for dd in deltas]
        slope = np.polyfit(np.log(1.0 / deltas), np.log(vals), 1)[0]
        assert slope == pytest.approx(1.0 + tau, abs=0.02)


def test_exp_small_tau_approaches_base_rate():
    deltas = np.geomspace(1e-2, 1e-4, 30)
    vals = [eb.bound_exp(1, 1, 1.0, dd, 1.0, 1e-4) for dd in deltas]
    slope = np.polyfit(np.log(1.0 / deltas), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.02)


def test_rkhs_exponent():
    d, m, h = 1, 1, 3.0
    deltas = np.geomspace(1e-2, 1e-4, 30)
    vals = [eb.bound_rkhs(d, m, 1.0, dd, 1.0, h) for dd in deltas]
    slope = np.polyfit(np.log(1.0 / deltas), np.log(vals), 1)[0]
    assert slope == pytest.approx(d / m + 2 * d / h, abs=0.02)
    with pytest.raises(ValueError):
        eb.bound_rkhs(2, 1, 1.0, 0.1, 1.0, 1.5)


def test_bounds_monotone():
    base = dict(m=1, k_b=1.0, big_m=2.0, tau_asd=1.0)
    assert eb.bound_assouad(d=1, delta=0.05, **base) \
        >= eb.bound_assouad(d=1, delta=0.1, **base)
    assert eb.bound_assouad(d=2, delta=0.1, **base) \
        >= eb.bound_assouad(d=1, delta=0.1, **base)
    assert eb.bound_assouad(1, 1, 2.0, 0.1, 2.0, 1.0) \
        >= eb.bound_assouad(1, 1, 1.0, 0.1, 2.0, 1.0)
    assert eb.bound_assouad(1, 1, 1.0, 0.1, 2.0, 2.0) \
        >= eb.bound_assouad(1, 1, 1.0, 0.1, 2.0, 1.0)
    assert eb.bound_box(1, 1, 1.0, 0.1, 2.0) >= eb.bound_box(1, 1, 1.0, 0.1, 1.0)
    assert eb.bound_exp(1, 1, 1.0, 0.1, 1.0, 2.0) \
        >= eb.bound_exp(1, 1, 1.0, 0.1, 1.0, 1.0)


def test_delta_validation():
    with pytest.raises(ValueError):
        eb.bound_assouad(1, 1, 1.0, 1.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        eb.bound_box(1, 1, 1.0, 0.0, 1.0)


def test_combined_smooth_exponent():
    # -1/(2 + d/m + d'/m'), with d'/m' = 0 for a finite-dimensional output
    ball = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 1, 0,
                                             resolution=129)
    assert reg.smoothness_exponent(ball) == -1.0 / 3.0
    for d, m, d_out, m_out in ((1, 1, 1, 1), (2, 4, 2, 4)):
        cls = fc.generate_smooth_output_class(d, m, d_out, m_out, 1.0, 5, 1,
                                              seed=0, resolution=5)
        assert reg.smoothness_exponent(cls) == pytest.approx(
            -1.0 / (2.0 + d / m + d_out / m_out), rel=1e-15)


def test_infinite_k_b_rejected():
    with pytest.raises(ValueError):
        eb.bound_assouad(1, 1, math.inf, 0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        eb.bound_box(1, 1, math.nan, 0.1, 1.0)
    with pytest.raises(ValueError):
        cov.smooth_cover_constants(1, 1, math.inf, 0.1)


def test_bound_params_dispatch():
    assert eb.bound("assouad", 1, 1, 1.0, 0.1, 2.0, 1.0) == \
        eb.bound_assouad(1, 1, 1.0, 0.1, 2.0, 1.0)
    assert eb.bound("box", 1, 1, 1.0, 0.1, 2.0, 1.5) == \
        eb.bound_box(1, 1, 1.0, 0.1, 1.5)
    assert eb.bound("exponential", 1, 1, 1.0, 0.1, 2.0, 1.0) == \
        eb.bound_exp(1, 1, 1.0, 0.1, 2.0, 1.0)
    assert eb.bound("rkhs", 1, 1, 1.0, 0.1, 2.0, 4.0) == \
        eb.bound_rkhs(1, 1, 1.0, 0.1, 2.0, 4.0)
    with pytest.raises(ValueError):
        eb.bound("bogus", 1, 1, 1.0, 0.1, 1.0, 1.0)


def test_measured_entropy_below_bounds():
    # the substance of the closed-form bounds: a generated class's measured
    # sup-norm cover entropy never exceeds them
    cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 40, seed=3,
                                            resolution=257)
    cloud = cov.PointCloud(cls.grid(), metric="sup")
    for delta in (0.3, 0.2, 0.1):
        measured = cov.entropy(cloud, delta)
        assert measured <= eb.bound_assouad(1, 2, 1.0, delta, 5.0 ** 3, 3.0)
        assert measured <= eb.bound_box(1, 2, 1.0, delta, 3.0)
        assert measured <= eb.bound_exp(1, 2, 1.0, delta, 9.0, 1.0)


# ------------------------------------------------------ Lipschitz contraction


def _class_and_targets(count, n, seed):
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, count, seed,
                                            resolution=65)
    design = fc.EmpiricalDesign.uniform(n, 1, substream(seed, 61))
    targets = cls.values_on(design)[0] + 0.05
    return cls, design, targets


def test_contraction_singleton():
    cls, design, targets = _class_and_targets(1, 10, seed=1)
    rows = eb.lipschitz_contraction_check(cls, 1.0, design, targets, [0.1])
    assert rows[0].n_loss == 1 and rows[0].n_class == 1 and rows[0].ok


def test_contraction_ten_member_sweep():
    cls, design, targets = _class_and_targets(10, 12, seed=2)
    deltas = np.geomspace(0.5, 0.01, 8)
    rows = eb.lipschitz_contraction_check(cls, 2.0, design, targets, deltas)
    assert len(rows) == 8
    assert all(r.ok for r in rows)


def test_contraction_validation():
    cls, design, targets = _class_and_targets(3, 5, seed=3)
    with pytest.raises(ValueError):
        eb.lipschitz_contraction_check(cls, 0.0, design, targets, [0.1])
    big = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 21, 0, resolution=65)
    with pytest.raises(ValueError):
        eb.lipschitz_contraction_check(big, 1.0, design, np.zeros((5, 3)), [0.1])
