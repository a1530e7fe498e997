import math
import tracemalloc

import numpy as np
import pytest

from vecproc import concentration as conc
from vecproc import reports
from vecproc.rng import sample_block, substream

from sign_reference import rademacher_signs


def test_spectrum_validation():
    with pytest.raises(ValueError):
        conc.CovarianceSpectrum(np.array([0.1, 0.5]))   # increasing
    with pytest.raises(ValueError):
        conc.CovarianceSpectrum(np.array([-0.1]))
    spec = conc.CovarianceSpectrum.geometric(30)
    assert spec.trace == pytest.approx(1.0, abs=1e-12)
    assert conc.CovarianceSpectrum.uniform(10).trace == pytest.approx(1.0)
    assert conc.CovarianceSpectrum.single().d_y == 1


def test_sample_gaussian_zero_spectrum_returns_mean():
    # a zero spectrum leaves every draw at the mean, which is zero
    spec = conc.CovarianceSpectrum(np.zeros(3))
    out = conc.sample_gaussian_batch(spec, substream(0, 1), 4)
    assert np.array_equal(out, np.zeros((4, 3)))


def test_sample_gaussian_moments():
    rng = substream(1, 2)
    spec = conc.CovarianceSpectrum.single()
    draws = conc.sample_gaussian_batch(spec, rng, 100_000)
    assert draws.var() == pytest.approx(1.0, abs=0.02)

    spec = conc.CovarianceSpectrum.geometric(12)
    draws = conc.sample_gaussian_batch(spec, substream(1, 3), 100_000)
    sq = np.sum(draws ** 2, axis=1)
    se = sq.std() / math.sqrt(draws.shape[0])
    assert abs(sq.mean() - spec.trace) <= 3 * se


def test_sample_gaussian_projection_variance():
    # defining property: <Y, y> is Gaussian with variance <Phi y, y>
    spec = conc.CovarianceSpectrum(np.array([0.5, 0.3, 0.2]))
    draws = conc.sample_gaussian_batch(spec, substream(2, 4), 100_000)
    rng = substream(2, 5)
    for _ in range(10):
        y = rng.standard_normal(3)
        proj = draws @ y
        want = float(np.sum(spec.eigenvalues * y ** 2))
        assert proj.var() == pytest.approx(want, rel=0.05)


def test_hoeffding_real():
    rep = conc.hoeffding_real_check(1.0, 100, [0.0, 0.5, 2.0], 20_000, seed=5)
    assert rep.bounds[0] == 1.0          # t = 0: trivial bound
    assert rep.all_ok


@pytest.mark.parametrize("n", [1, 7, 50, 1000, 100_000])
def test_hoeffding_real_block_is_one_sign_draw(monkeypatch, n):
    # at one column a sign tile takes over GEMM_FLOOR / n rows, more than a
    # block's sample_block(n): every block is the one-shot product signs @ c
    stats, real = [], conc.tail_check

    def spy(stat, *args, **kw):
        stats.append(stat)
        return real(stat, *args, **kw)

    monkeypatch.setattr(conc, "tail_check", spy)
    c = np.random.default_rng(n).uniform(0.1, 2.0, n)
    conc.hoeffding_real_check(c, n, [1.0], reps=2, seed=0)
    size = sample_block(n)
    want = rademacher_signs(substream(4, n), (size, n)) @ c
    assert stats[0](substream(4, n), size).tobytes() == want.tobytes()


def test_hoeffding_real_support_bound():
    # n=1, c=1: threshold sqrt(1.2) exceeds the support, frequency must be 0
    rep = conc.hoeffding_real_check(1.0, 1, [0.6], 10_000, seed=6)
    assert rep.freqs[0] == 0.0
    assert rep.all_ok


def test_hoeffding_hilbert():
    rep = conc.hoeffding_hilbert_check(1.0, 50, 20, [0.5, 1.0, 2.0, 4.0],
                                       20_000, seed=7)
    assert rep.all_ok
    small_t = conc.hoeffding_hilbert_check(1.0, 10, 3, [0.1], 10_000, seed=8)
    assert small_t.bounds[0] >= 1.0      # t <= log 2: bound exceeds one


def test_hoeffding_hilbert_dim_one_consistency():
    # d_Y = 1 reduces to a two-sided sign sum: ||S|| >= 2b sqrt(t) happens
    # about twice as often as the one-sided event at matched threshold
    t = 0.8
    rep_h = conc.hoeffding_hilbert_check(1.0, 40, 1, [t], 40_000, seed=9)
    rep_r = conc.hoeffding_real_check(1.0, 40, [2 * t], 40_000, seed=10)
    se = math.sqrt(max(rep_h.freqs[0], rep_r.freqs[0], 1e-4) / 40_000)
    assert abs(rep_h.freqs[0] - 2 * rep_r.freqs[0]) <= 6 * se + 1e-3


def test_cosh_moment_check():
    rep = conc.cosh_moment_check(1.0, 10, [0.01, 0.3], 20_000, seed=11)
    assert rep.all_ok
    lhs_small = rep.rows[0].lhs
    assert lhs_small == pytest.approx(1.0, abs=0.01)
    assert rep.rows[1].rhs == pytest.approx(math.exp(0.9), abs=1e-12)


def test_cosh_moment_deterministic_unit_vector():
    # n = 1: ||S_1|| = 1 surely, so the estimator is exactly cosh(lambda)
    for lam in (0.5, 1.0, 2.0):
        rep = conc.cosh_moment_check(1.0, 1, [lam], 5_000, seed=12)
        row = rep.rows[0]
        assert row.lhs == pytest.approx(math.cosh(lam), abs=1e-9)
        assert row.lhs <= math.exp(lam ** 2)
        assert row.status == "ok"


def test_cosh_inconclusive_when_estimator_noisy():
    # large lambda: the cosh estimator's relative error explodes and the
    # threshold is flagged inconclusive rather than failed
    rep = conc.cosh_moment_check(1.0, 30, [4.0], 10_000, seed=16)
    assert rep.rows[0].status == "inconclusive"
    assert rep.all_ok


def test_cosh_overflowing_bound_is_refused(monkeypatch):
    # rhs = exp(0.4^2 70^2) overflows a float: no verdict can be reached, so
    # the check refuses before any draw
    monkeypatch.setattr(reports, "map_blocks", None)
    with pytest.raises(ValueError, match="cosh bound .* overflows a float"):
        conc.cosh_moment_check(70.0, 1, [0.4], 100, seed=0, d_y=1)


def test_cosh_lambda_validation():
    with pytest.raises(ValueError):
        conc.cosh_moment_check(1.0, 5, [0.0], 1000, seed=0)


def test_gaussian_mgf_single_mode_equality():
    rows = conc.gaussian_mgf_check(conc.CovarianceSpectrum.single(),
                                   [0.1, 0.25, 0.4])
    for r in rows:
        assert r.product == pytest.approx(r.bound, abs=1e-12)
        assert r.ok


def test_gaussian_mgf_geometric_and_uniform():
    rows = conc.gaussian_mgf_check(conc.CovarianceSpectrum.geometric(30), [0.25])
    assert rows[0].product < math.sqrt(2.0)
    assert rows[0].ok
    rows = conc.gaussian_mgf_check(conc.CovarianceSpectrum.uniform(10), [0.4])
    assert rows[0].product <= 0.2 ** -0.5
    assert rows[0].ok


def test_gaussian_mgf_validation():
    spec = conc.CovarianceSpectrum.single()
    with pytest.raises(ValueError):
        conc.gaussian_mgf_check(spec, [0.6])
    with pytest.raises(ValueError):
        conc.gaussian_mgf_check(conc.CovarianceSpectrum(np.array([2.0])), [0.1])


def test_gaussian_tail():
    spec = conc.CovarianceSpectrum.geometric(10)
    rep = conc.gaussian_tail_check(spec, [0.0, 1.0, 2.0, 3.0], 20_000, seed=13)
    assert rep.bounds[0] == 2.0
    assert rep.all_ok
    with pytest.raises(ValueError):
        conc.gaussian_tail_check(spec, [1.0], 5_000, seed=0)


def test_gaussian_mgf_random_spectra_property():
    # the finite-product inequality holds for every trace-1 spectrum
    for seed in range(30):
        rng = substream(17, seed)
        ev = np.sort(rng.uniform(0.05, 1.0, size=int(rng.integers(1, 12))))[::-1]
        spec = conc.CovarianceSpectrum(ev / ev.sum())
        lam = float(rng.uniform(0.01, 0.49))
        rows = conc.gaussian_mgf_check(spec, [lam])
        assert rows[0].ok


def test_reports_deterministic_across_threads():
    a = conc.hoeffding_hilbert_check(1.0, 20, 5, [1.0, 2.0], 30_000, seed=14,
                                     threads=1)
    b = conc.hoeffding_hilbert_check(1.0, 20, 5, [1.0, 2.0], 30_000, seed=14,
                                     threads=4)
    assert np.array_equal(a.freqs, b.freqs)
    c = conc.gaussian_tail_check(conc.CovarianceSpectrum.uniform(5), [1.0],
                                 20_000, seed=15, threads=3)
    d = conc.gaussian_tail_check(conc.CovarianceSpectrum.uniform(5), [1.0],
                                 20_000, seed=15, threads=1)
    assert np.array_equal(c.freqs, d.freqs)


def explicit_vector_norms(rng, size, n, d_y, c, rows=1024):
    """||sum_i eps_i c_i U_i|| built from the vectors: normalised Gaussian
    directions, Rademacher signs and the bounds c_i, `rows` replicates at a
    time."""
    out = np.empty(size)
    for lo in range(0, size, rows):
        dirs = rng.standard_normal((min(rows, size - lo), n, d_y))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        dirs *= rademacher_signs(rng, (len(dirs), n, 1)) * c[None, :, None]
        out[lo:lo + len(dirs)] = np.linalg.norm(dirs.sum(axis=1), axis=1)
    return out


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


@pytest.mark.parametrize("n, d_y", [(50, 20), (50, 5), (7, 2), (3, 20)])
def test_sum_norms_has_the_law_of_the_vector_sum(n, d_y):
    size = 20_000
    c = np.linspace(0.5, 1.5, n)
    got = conc._sum_norms(substream(21, n, d_y), size, n, d_y, c)
    ref = explicit_vector_norms(substream(22, n, d_y), size, n, d_y, c)
    # two-sample KS critical value at level 0.001
    assert ks_distance(got, ref) <= 1.95 * math.sqrt(2.0 / size)
    sq = got ** 2
    se = sq.std() / math.sqrt(size)
    assert abs(sq.mean() - np.sum(c ** 2)) <= 4 * se


@pytest.mark.parametrize("d_y", [1, 2, 20])
def test_sum_norms_of_one_vector_is_its_bound(d_y):
    got = conc._sum_norms(substream(23, d_y), 4096, 1, d_y, np.array([0.37]))
    assert np.all(got == 0.37)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_sum_norms_of_unit_signs_is_an_integer_of_the_parity_of_n(n):
    got = conc._sum_norms(substream(24, n), 4096, n, 1, np.ones(n))
    assert np.all(got == np.round(got))
    assert np.all((n - got) % 2 == 0)
    assert np.all(got <= n)


@pytest.mark.parametrize("n, d_y", [(2, 2), (2, 3), (50, 2), (400, 20)])
def test_sum_norms_is_never_nan(n, d_y):
    # equal bounds: S_2 nearly cancels when T_2 is close to -1, where the
    # rounded ||S||^2 can dip below zero before it is clamped
    got = conc._sum_norms(substream(25, n, d_y), 8192, n, d_y, np.ones(n))
    assert np.all(np.isfinite(got))
    assert np.all(got >= 0.0)


def test_hilbert_block_memory_does_not_grow_with_dimension():
    def peak(d_y):
        tracemalloc.start()
        try:
            conc.hoeffding_hilbert_check(1.0, 50, d_y, [1.0], 8192, seed=26)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) < 1.5 * peak(2)


def test_dimension_and_bounds_validation():
    with pytest.raises(ValueError, match="d_y must be at least 1"):
        conc.hoeffding_hilbert_check(1.0, 5, 0, [1.0], 1000, seed=0)
    with pytest.raises(ValueError, match="d_y must be at least 1"):
        conc.cosh_moment_check(1.0, 5, [0.1], 1000, seed=0, d_y=0)
    for c in (math.inf, math.nan, [1.0, math.inf]):
        with pytest.raises(ValueError, match="need n positive bounds"):
            conc.hoeffding_hilbert_check(c, 2, 3, [1.0], 1000, seed=0)


def two_step_cosines(d_y, size, seed):
    """T_2 of `size` replicates of _sum_norms at n = 2, c = (1, 1), read
    back from ||S_2||^2 = 2 + 2 T_2."""
    got = conc._sum_norms(substream(27, seed, d_y), size, 2, d_y, np.ones(2))
    return (got ** 2 - 2.0) / 2.0


def ks_one_sample(draws, cdf):
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|."""
    x = np.sort(draws)
    f = cdf(x)
    grid = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(grid - f), np.max(f - grid + 1.0 / x.size)))


@pytest.mark.parametrize("d_y, cdf", [
    (3, lambda t: (1.0 + t) / 2.0),                  # uniform on [-1, 1]
    (5, lambda t: (2.0 + 3.0 * t - t ** 3) / 4.0),   # density 3 (1 - t^2) / 4
])
def test_sum_norms_step_has_the_law_of_a_sphere_coordinate(d_y, cdf):
    size = 200_000
    t = two_step_cosines(d_y, size, 0)
    # one-sample KS critical value at level 0.001
    assert ks_one_sample(np.clip(t, -1.0, 1.0), cdf) <= 1.95 / math.sqrt(size)


@pytest.mark.parametrize("d_y", [2, 3, 4, 20, 200])
def test_sum_norms_step_moments(d_y):
    # a coordinate T of a uniform unit vector of R^d: E T^2 = 1/d and
    # E T^4 = 3 / (d (d + 2))
    size = 200_000
    t2 = two_step_cosines(d_y, size, 1) ** 2
    for draws, want in ((t2, 1.0 / d_y), (t2 ** 2, 3.0 / (d_y * (d_y + 2)))):
        se = draws.std() / math.sqrt(size)
        assert abs(draws.mean() - want) <= 4 * se


def test_hilbert_block_memory_does_not_grow_with_n():
    def peak(n):
        tracemalloc.start()
        try:
            conc.hoeffding_hilbert_check(1.0, n, 3, [1.0], 4096, seed=28)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < 1.5 * peak(200)
