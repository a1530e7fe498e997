import itertools
import math
import tracemalloc

import numpy as np
import pytest

from vecproc import empirical_process as ep
from vecproc import function_class as fc
from vecproc import rademacher as rad
from vecproc.hilbert import random_orthonormal_basis
from vecproc.rng import substream


def ball_class(count, seed, d_y=3, n_terms=6, resolution=65):
    return fc.generate_finite_dim_ball_class(1, 1, d_y, 1.0, count, seed,
                                             resolution=resolution,
                                             n_terms=n_terms)


def brute_norm_rademacher(values):
    """Independent oracle: direct loop over every sign pattern."""
    k, n, d_y = values.shape
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        s = np.array(signs)
        best = max(np.linalg.norm(s @ values[i] / n) for i in range(k))
        total += best
    return total / 2 ** n


def test_norm_rademacher_zero_class():
    values = np.zeros((1, 4, 2))
    est = rad.norm_rademacher_values(values)
    assert est.value == 0.0


def test_norm_rademacher_singleton_one_sample():
    values = np.array([[[3.0, 4.0]]])   # one member, one sample
    est = rad.norm_rademacher_values(values)
    assert est.value == pytest.approx(5.0, abs=1e-12)


def test_norm_rademacher_matches_brute_force():
    rng = substream(1, 1)
    values = rng.standard_normal((4, 6, 2))
    est = rad.norm_rademacher_values(values)
    assert est.value == pytest.approx(brute_norm_rademacher(values), abs=1e-12)


def test_norm_rademacher_mc_matches_exact():
    cls = ball_class(10, seed=5)
    design = fc.EmpiricalDesign.uniform(8, 1, substream(1, 2))
    values = cls.values_on(design)
    exact = rad.norm_rademacher_values(values, mode="exact")
    mc = rad.norm_rademacher_values(values, mode="mc", reps=100_000, seed=3)
    assert abs(mc.value - exact.value) <= 3 * mc.se + 1e-6


def test_norm_rademacher_exact_cap():
    values = np.zeros((1, 21, 1))
    with pytest.raises(ValueError):
        rad.norm_rademacher_values(values, mode="exact")


def test_norm_rademacher_scaling():
    rng = substream(1, 3)
    values = rng.standard_normal((3, 5, 2))
    base = rad.norm_rademacher_values(values).value
    scaled = rad.norm_rademacher_values(2.5 * values).value
    assert scaled == pytest.approx(2.5 * base, abs=1e-12)


def test_norm_rademacher_basis_invariant():
    rng = substream(1, 4)
    values = rng.standard_normal((4, 5, 3))
    base = rad.norm_rademacher_values(values).value
    basis = random_orthonormal_basis(3, substream(1, 5))
    rotated = rad.norm_rademacher_values(values @ basis.columns).value
    assert rotated == pytest.approx(base, abs=1e-12)


# ------------------------------------------------------------ sign driver


def square_sum(signs):
    return signs.sum(axis=1) ** 2     # E = number of signs


def test_sign_expectation_exact_enumerates_every_pattern():
    est = rad._sign_expectation(square_sum, 6, 1, "norm", "exact", 0, 0, 0, 1)
    assert (est.value, est.mode, est.form, est.n_patterns, est.se) == (
        6.0, "exact_enumeration", "norm", 64, 0.0)
    # 2^20 patterns is the one limit, for every form
    rows = []

    def last_sign(signs):
        rows.append(len(signs))
        return signs[:, -1]

    est = rad._sign_expectation(last_sign, 20, 1, "coordinatewise", "exact",
                                0, 0, 0, 1)
    assert est.value == 0.0 and sum(rows) == est.n_patterns == 1 << 20
    with pytest.raises(ValueError, match="2\\^20"):
        rad._sign_expectation(square_sum, 21, 1, "norm", "exact", 0, 0, 0, 1)


def test_sign_expectation_monte_carlo():
    est = rad._sign_expectation(square_sum, 6, 1, "norm", "mc", 40_000, 3,
                                601, 1)
    assert est.mode == "monte_carlo" and est.n_patterns == 40_000
    assert 0.0 < est.se and abs(est.value - 6.0) <= 4 * est.se
    again = rad._sign_expectation(square_sum, 6, 1, "norm", "mc", 40_000, 3,
                                  601, 2)
    assert again == est
    for reps in (0, 1):
        with pytest.raises(ValueError, match="reps"):
            rad._sign_expectation(square_sum, 6, 1, "norm", "mc", reps, 3,
                                  601, 1)
    with pytest.raises(ValueError, match="mode"):
        rad._sign_expectation(square_sum, 6, 1, "norm", "sampled", 10, 3,
                              601, 1)


def test_public_estimates_share_the_driver_checks():
    values = substream(1, 6).standard_normal((3, 4, 2))
    for reps in (0, 1):
        with pytest.raises(ValueError, match="reps"):
            rad.norm_rademacher_values(values, mode="mc", reps=reps)
        with pytest.raises(ValueError, match="reps"):
            rad.coordinatewise_rademacher_values(values, normalized=True,
                                                 mode="mc", reps=reps)
    with pytest.raises(ValueError, match="mode"):
        rad.norm_rademacher_values(values, mode="sampled")
    with pytest.raises(ValueError, match="exact enumeration"):
        rad.coordinatewise_rademacher_values(values, normalized=False,
                                             mode="mc")


@pytest.mark.parametrize("path", ["mc", "exact", "chain"])
def test_sign_paths_peak_memory_flat_in_class_size(path):
    # n = 16 and d_Y = 20: 10 members (9 chain tops) against 100 (77 tops),
    # one block of 8192 sign rows or the 2^14-row exact chunks; a product of
    # the whole class held 8192 x 2000 values at 100 members
    design = fc.EmpiricalDesign.midpoint_grid(16, 1)

    def peak(count):
        cls = ball_class(count, seed=22, d_y=20)
        values = cls.values_on(design)
        plan = ep.build_chaining_plan(cls, design)
        run = {"mc": lambda: rad.norm_rademacher_values(values, "mc", 8192,
                                                        seed=1),
               "exact": lambda: rad.norm_rademacher_values(values),
               "chain": lambda: ep.chaining_tail_check(plan, cls, design,
                                                       [1.0], 8192, seed=1)}
        tracemalloc.start()
        try:
            run[path]()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100) < 1.25 * peak(10)


# ----------------------------------------------------------- coordinate-wise


def test_coordinatewise_zero_class():
    values = np.zeros((1, 2, 2))
    ps = rad.coordinatewise_rademacher_values(values, normalized=False)
    nm = rad.coordinatewise_rademacher_values(values, normalized=True)
    assert ps.value == 0.0 and nm.value == 0.0


def test_counterexample_standard_pattern_sum():
    values = rad.counterexample_values()
    est = rad.coordinatewise_rademacher_values(values, normalized=False)
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert est.n_patterns == 4      # two member-constant signs are dropped


def test_counterexample_rotated_full_enumeration():
    # independent oracle: enumerate all 16 sign patterns directly
    values = rad.counterexample_values()
    coords = values @ rad.rotated_basis().columns
    flat = coords.reshape(2, -1)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        total += max(float(np.dot(signs, flat[0])), float(np.dot(signs, flat[1])))
    est = rad.coordinatewise_rademacher_values(coords, normalized=False)
    assert est.n_patterns == 16
    assert est.value == pytest.approx(total, abs=1e-12)
    assert est.value == pytest.approx(6.0 * math.sqrt(2.0), abs=1e-12)


def test_counterexample_demo_report():
    rep = rad.basis_dependence_demo()
    assert rep.standard == pytest.approx(2.0, abs=1e-9)
    assert rep.normalized_standard == pytest.approx(0.5, abs=1e-12)
    assert rep.normalized_rotated == pytest.approx(
        rep.rotated / 16.0, abs=1e-12)
    assert rep.dependent
    assert abs(rep.standard - rep.rotated) > 1e-9
    assert abs(rep.normalized_standard - rep.normalized_rotated) > 1e-9
    assert rep.norm_form_standard == pytest.approx(rep.norm_form_rotated,
                                                   abs=1e-12)


def test_coordinatewise_bookkeeping_identity():
    # pattern sum = 2^{#effective signs} x pattern mean; /n for the display
    cls = ball_class(3, seed=9, d_y=2)
    design = fc.EmpiricalDesign.uniform(3, 1, substream(2, 1))
    coords = cls.values_on(design)
    ps = rad.coordinatewise_rademacher_values(coords, normalized=False)
    nm = rad.coordinatewise_rademacher_values(coords, normalized=True)
    assert nm.value == pytest.approx(ps.value / ps.n_patterns / design.n,
                                     abs=1e-12)


def test_coordinatewise_exact_sign_cap():
    values = substream(3, 1).standard_normal((2, 11, 2))   # 22 sign variables
    with pytest.raises(ValueError):
        rad.coordinatewise_rademacher_values(values, normalized=False)


def test_coordinatewise_mc_close_to_exact():
    values = substream(3, 2).standard_normal((4, 4, 3))
    exact = rad.coordinatewise_rademacher_values(values, normalized=True)
    mc = rad.coordinatewise_rademacher_values(values, normalized=True,
                                              mode="mc", reps=200_000, seed=5)
    assert abs(mc.value - exact.value) <= 3 * mc.se + 1e-6


# ------------------------------------------------------------- entropy bound


def test_entropy_bound_zero_class():
    g = fc.GridFunction.from_terms(1, 1, 2, np.zeros((0, 1), int),
                                   np.zeros((0, 1)), np.zeros(0),
                                   np.zeros((0, 2)))
    cls = fc.FunctionClass(members=(g,), b_descriptor=fc.BallDescriptor(1.0),
                           d=1, m=1, d_y=2, resolution=33)
    design = fc.EmpiricalDesign.uniform(8, 1, substream(4, 1))
    rep = rad.rademacher_entropy_bound_check(cls, design, 3)
    assert rep.estimate == 0.0
    assert rep.ok


def test_entropy_bound_fifteen_members():
    cls = ball_class(15, seed=2)
    design = fc.EmpiricalDesign.uniform(16, 1, substream(4, 2))
    rep = rad.rademacher_entropy_bound_check(cls, design, 5)
    assert rep.ok
    assert rep.estimate <= rep.bound


def test_entropy_bound_twenty_seeded_classes():
    for seed in range(20):
        cls = ball_class(15, seed=seed)
        design = fc.EmpiricalDesign.uniform(16, 1, substream(seed, 42))
        rep = rad.rademacher_entropy_bound_check(cls, design, 5)
        assert rep.ok, f"seed {seed}: {rep.estimate} > {rep.bound}"
