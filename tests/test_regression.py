import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from vecproc import empirical_process as ep
from vecproc import function_class as fc
from vecproc import hilbert
from vecproc import rademacher as rad
from vecproc import regression as reg
from vecproc.concentration import CovarianceSpectrum, sample_gaussian_batch
from vecproc.covering import PointCloud, greedy_cover
from vecproc.rng import (BLOCK_SIZE, block_sizes, rademacher_signs, row_tiles,
                         substream)


def ball_class(count, seed, d_y=3, resolution=129, **kw):
    return fc.generate_finite_dim_ball_class(1, 1, d_y, 1.0, count, seed,
                                             resolution=resolution, **kw)


# -------------------------------------------------------------- solve_delta_n


def test_solve_delta_n_zero_entropy_closed_form():
    for n, t in ((100, 2.0), (10_000, 0.5)):
        got = reg.solve_delta_n(lambda d: 0.0, n, t)
        want = 8.0 * (4 * math.sqrt(1 + t) + math.sqrt(8 * t / 3)) / math.sqrt(n)
        assert got == pytest.approx(want, rel=1e-5)


def test_solve_delta_n_linear_curve():
    t = 1.0
    n = 400
    got = reg.solve_delta_n(lambda d: d, n, t)
    coef = 4 * math.sqrt(1 + t) + math.sqrt(8 * t / 3)
    want = 8.0 * (1 + coef) / math.sqrt(n)
    assert got == pytest.approx(want, rel=1e-5)


def test_solve_delta_n_sqrt_curve_residual():
    j = lambda d: 2.0 * math.sqrt(d)
    n, t = 10_000, 1.0
    delta = reg.solve_delta_n(j, n, t)
    coef = 4 * math.sqrt(1 + t) + math.sqrt(8 * t / 3)
    residual = math.sqrt(n) * delta ** 2 - 8 * (j(delta) + coef * delta)
    assert residual >= -1e-9
    # just below the root the inequality must fail
    d2 = delta / (1 + 1e-3)
    assert math.sqrt(n) * d2 ** 2 - 8 * (j(d2) + coef * d2) < 0


def test_solve_delta_n_validation():
    with pytest.raises(ValueError):
        reg.solve_delta_n(lambda d: 0.0, 100, 0.2)       # t below 3/8
    with pytest.raises(ValueError):
        reg.solve_delta_n(lambda d: d ** 3, 100, 1.0)    # J/d^2 increasing
    with pytest.raises(ValueError):
        # enormous J: no feasible delta below the default bracket end
        reg.solve_delta_n(lambda d: 1e9, 4, 1.0)


def test_measured_entropy_integral_envelope():
    rng = substream(3, 1)
    pts = rng.uniform(size=(40, 3))
    dm = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    j = reg.measured_entropy_integral(dm)
    deltas = np.geomspace(1e-3, 2.0, 30)
    vals = np.array([j(d) for d in deltas])
    assert np.all(vals >= 0)
    ratios = vals / deltas ** 2
    assert np.all(np.diff(ratios) <= 1e-9 + 1e-6 * ratios[:-1])


# ------------------------------------------------------------ rate experiment


def test_rate_experiment_structure():
    pool = reg.default_rate_pool(seed=11)
    noise = CovarianceSpectrum.uniform(3)
    fit = reg.rate_experiment(pool, noise, [64, 256], reps=50, seed=0)
    assert fit.basic_ok
    assert np.all(fit.coverage_ok)
    assert np.all(fit.median_errors > 0)
    assert np.all(fit.delta_n > 0)
    assert fit.theoretical_exponent == pytest.approx(-1.0 / 3.0)


def test_rate_pool_membership_and_anchor():
    pool = reg.default_rate_pool(seed=11)
    sub = fc.FunctionClass(members=pool.members[:40],
                           b_descriptor=pool.b_descriptor, d=1, m=1,
                           d_y=3, resolution=pool.resolution)
    assert sub.validate_membership()
    assert fc.sup_norm(pool[0], pool.resolution) < 0.05


@pytest.mark.parametrize("k_b", [1.0, 20.0, 60.0, 250.0])
def test_rate_pool_shells_scale_with_k_b(k_b):
    pool = reg.default_rate_pool(k_b=k_b)
    assert pool.b_descriptor.k_b == k_b
    counts = reg.DEFAULT_SHELL_COUNTS
    assert len(pool) == 150 + sum(counts)
    # every shell is filled, largest radius first, at radius * k_b / 250
    radii = np.repeat(np.asarray(reg.DEFAULT_SHELL_RADII) * (k_b / 250.0),
                      counts)
    shells = [fc.l2_distance_uniform(g, pool[0]) for g in pool.members[150:]]
    assert np.allclose(np.sort(shells)[::-1], np.sort(radii)[::-1],
                       rtol=1e-9, atol=0.0)


def terms_digest(cls) -> str:
    """sha256 of a class's shape and every member's terms."""
    h = hashlib.sha256(json.dumps([cls.d, cls.m, cls.d_y, cls.resolution,
                                   len(cls)]).encode())
    for g in cls.members:
        for arr in (g.freqs.astype(float), g.phases, g.amps, g.dirs):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed, base_count, sha", [
    (0, 20, "274156a34091a0f706aae10339862214bb651b9f7fa992e77b488568bf35a234"),
    (0, 150, "f2ebb9c01b58b2c8c29c8d0a9c0ce1660a217e5316f81cb3b92b209efdf7bedd"),
    (11, 20, "bf94c95ddfbb766f1fdd23a23375535e08cc4adf2bd45313f8511a198a7e8dd9"),
    (11, 150, "82f506d9b5dc535d5f2e816482c0285a4e311cb3f9930f292d11a42d93f639ee"),
])
def test_rate_pool_draws_only_the_partners_it_reads(monkeypatch, seed,
                                                    base_count, sha):
    # the pins are the pools built from all 8 x 106 partners up front; the
    # shell loop reads partner i of every frequency in turn and stops once
    # the shells are full, so the last partner drawn is the one blended last
    drawn = []

    def counted(*args, **kw):
        for g in fc.ball_members(*args, **kw):
            drawn.append(g)
            yield g

    monkeypatch.setattr(reg, "ball_members", counted)
    pool = reg.default_rate_pool(seed=seed, base_count=base_count)
    assert terms_digest(pool) == sha
    assert np.array_equal(pool[-1].phases[-2:], drawn[-1].phases)
    assert len(pool) - base_count <= len(drawn) < 8 * 106


def test_rate_experiment_rejects_bad_noise():
    pool = reg.default_rate_pool(seed=11)
    with pytest.raises(ValueError):
        reg.rate_experiment(pool, CovarianceSpectrum(np.ones(3)), [64],
                            reps=10, seed=0)


# ----------------------------------------------------------- gaussian chains


def test_gaussian_chaining_check():
    cls = ball_class(20, seed=7)
    design = fc.EmpiricalDesign.uniform(100, 1, substream(4, 1))
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.gaussian_chaining_check(cls, design, noise, [0.5, 1.0, 2.0],
                                      5000, seed=1)
    assert rep.all_ok


def test_gaussian_chaining_singleton():
    cls = ball_class(1, seed=9)
    design = fc.EmpiricalDesign.uniform(40, 1, substream(4, 2))
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.gaussian_chaining_check(cls, design, noise, [0.5], 2000, seed=2)
    assert rep.all_ok


# --------------------------------------------------------------- ERM


def test_clipped_loss_lipschitz():
    rng = substream(5, 1)
    y = rng.standard_normal(3)
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    la = hilbert.clipped_loss(y, a, cap=1.0, lipschitz=2.0)
    lb = hilbert.clipped_loss(y, b, cap=1.0, lipschitz=2.0)
    assert abs(la - lb) <= 2.0 * np.linalg.norm(a - b) + 1e-12
    assert la <= 2.0


def scaled_normals(rng, shape):
    """Normals scaled so ||y - yhat|| falls on both sides of the cap 0.8
    at every width: a capped value would hide how the norm was summed."""
    return 0.5 / math.sqrt(shape[-1]) * rng.standard_normal(shape)


@pytest.mark.parametrize("d_y", [1, 2, 3, 5, 7])
def test_clipped_loss_matches_linalg_norm(d_y):
    rng = substream(5, 2, d_y)
    y = scaled_normals(rng, (40, 1, d_y))
    yhat = scaled_normals(rng, (1, 30, d_y))
    ref = 1.5 * np.minimum(np.linalg.norm(y - yhat, axis=-1), 0.8)
    assert np.array_equal(hilbert.clipped_loss(y, yhat, cap=0.8,
                                               lipschitz=1.5), ref)


def formula_clipped_loss(y, yhat, cap, lipschitz):
    """clipped_loss as a fresh expression per coordinate, no buffers: the
    squares are added left to right at every width."""
    sq = (y[..., 0] - yhat[..., 0]) ** 2
    for j in range(1, np.shape(y)[-1]):
        sq = sq + (y[..., j] - yhat[..., j]) ** 2
    return lipschitz * np.minimum(np.sqrt(sq), cap)


@pytest.mark.parametrize("d_y", [1, 2, 3, 5, 7, 8, 20])
def test_in_place_clipped_loss_matches_formula(d_y):
    rng = substream(5, 3, d_y)
    a = scaled_normals(rng, (40, 1, d_y))
    b = scaled_normals(rng, (1, 30, d_y))
    for y, yhat in ((a, b), (b, a)):
        ref = formula_clipped_loss(y, yhat, 0.8, 1.5)
        assert np.array_equal(hilbert.clipped_loss(y, yhat, 0.8, 1.5), ref)
    # one pair of vectors gives a scalar, as the formula does
    got = hilbert.clipped_loss(a[0, 0], b[0, 0], 0.8, 1.5)
    assert np.ndim(got) == 0 and got == formula_clipped_loss(a[0, 0], b[0, 0],
                                                             0.8, 1.5)


@pytest.mark.parametrize("n", [1, 2, 7, 70, 141, 316])
def test_gauss_legendre_matches_leggauss(n):
    x, w = reg._gauss_legendre(n, -1.0, 1.0)
    order = np.argsort(x)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x[order], ref_x, rtol=0, atol=5e-15)
    np.testing.assert_allclose(w[order], ref_w, rtol=0, atol=5e-15)
    # an interval other than (-1, 1): exact for x^(2n - 1) on [0.5, 2]
    x, w = reg._gauss_legendre(n, 0.5, 2.0)
    assert w @ x ** (2 * n - 1) == pytest.approx(
        (2.0 ** (2 * n) - 0.5 ** (2 * n)) / (2 * n), rel=1e-13)


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def clipped_abs_normal_mean(r, c):
    """E min(|a|, c) for a ~ N(r, 1), through math.erf: E[|a|; |a| < c]
    + c P(|a| >= c), with E[a; lo < a < hi] = r (Phi(hi - r) - Phi(lo - r))
    + phi(lo - r) - phi(hi - r)."""
    def phi(z):
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    def part(lo, hi):
        return (r * (normal_cdf(hi - r) - normal_cdf(lo - r))
                + phi(lo - r) - phi(hi - r))

    outside = 0.5 * (math.erfc((c - r) / math.sqrt(2.0))
                     + math.erfc((c + r) / math.sqrt(2.0)))
    return part(0.0, c) - part(-c, 0.0) + c * outside


@pytest.mark.parametrize("cap", [1e-3, 1.0, 10.0, 1e4, 1e300])
def test_clipped_norm_one_dimension_closed_form(cap):
    radii = np.array([0.0, 0.3, 0.9, 1.5, 4.0])
    got = reg.expected_clipped_norm(radii, 1.0, 1, cap, 141)
    want = [clipped_abs_normal_mean(float(r), cap) for r in radii]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("cap", [1e-320, 0.1, 1.0, 3.0, 1e4, 1e300])
def test_clipped_norm_two_dimensions_at_the_truth(cap):
    # ||xi|| is Rayleigh with P(||xi|| > t) = exp(-t^2) at variance 1/2
    got = reg.expected_clipped_norm(np.zeros(1), 0.5, 2, cap, 141)[0]
    assert got == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(cap),
                                rel=0, abs=1e-14)


def test_clipped_norm_three_dimensions_uncapped():
    # the noncentral chi_3 mean, sigma^2 = 1/3
    var = 1.0 / 3.0
    sd = math.sqrt(var)
    radii = np.array([1e-3, 0.3, 0.9, 1.5, 4.0])
    got = reg.expected_clipped_norm(radii, var, 3, 1e300, 141)
    want = [sd * math.sqrt(2 / math.pi) * math.exp(-r * r / (2 * var))
            + (r + var / r) * math.erf(r / (sd * math.sqrt(2)))
            for r in radii]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("d_y", [3, 5, 20])
def test_clipped_norm_matches_monte_carlo(d_y):
    # at cap 2 no radius saturates, even at d_Y = 20 where ||xi|| ~ 1
    radii = np.array([0.0, 0.3, 0.9, 1.5])
    cap, draws, chunk = 2.0, 1_000_000, 100_000
    gen = substream(17, d_y)
    total = np.zeros((2, radii.size))
    for _ in range(draws // chunk):
        xi = gen.standard_normal((chunk, d_y)) / math.sqrt(d_y)
        rest = np.sum(xi[:, 1:] ** 2, axis=1)
        loss = np.minimum(np.sqrt((xi[:, :1] + radii) ** 2
                                  + rest[:, None]), cap)
        total += loss.sum(axis=0), (loss ** 2).sum(axis=0)
    mean = total[0] / draws
    se = np.sqrt((total[1] / draws - mean ** 2) / draws)
    got = reg.expected_clipped_norm(radii, 1.0 / d_y, d_y, cap, 141)
    assert np.all(np.abs(got - mean) <= 4 * se), (got - mean) / se


@pytest.mark.parametrize("d_y", [1, 2, 3, 5, 8, 20])
def test_population_risk_bracket_is_tiny(d_y):
    cls = ball_class(6, seed=4, d_y=d_y)
    risks, bracket = reg.population_risks(
        cls, CovarianceSpectrum.uniform(d_y), 0.7, 1.3, noise_quad=20_000)
    assert np.all(np.isfinite(risks)) and bracket < 1e-12


@pytest.mark.parametrize("d_y", [1, 2, 3, 20])
def test_anderson_clipped_norm_nondecreasing(d_y):
    radii = np.linspace(0.0, 3.0, 601)
    for cap in (0.5, 2.0):
        phi = reg.expected_clipped_norm(radii, 1.0 / d_y, d_y, cap, 141)
        assert np.all(np.diff(phi) >= 0.0)
    assert np.diff(phi).min() > 0.0        # cap 2 is nowhere saturated


def test_anderson_truth_wins_on_the_readme_class():
    # `vecproc erm` defaults: ten members, class seed 3; members 1 and 5
    # lie about 2e-6 above the truth
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 10, 3)
    risks, bracket = reg.population_risks(
        cls, CovarianceSpectrum.uniform(3), 1.0, 1.0)
    assert int(np.argmin(risks)) == 0 and bracket < 1e-12
    assert np.all(risks[1:] - risks[0] > 1e-6)


def test_population_risks_need_isotropic_noise():
    cls = ball_class(3, seed=4)
    with pytest.raises(ValueError, match="isotropic"):
        reg.population_risks(cls, CovarianceSpectrum.geometric(3), 1.0, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        reg.population_risks(cls, CovarianceSpectrum.uniform(2), 1.0, 1.0)
    # the ERM study passes the trace-1 check on to the same message
    with pytest.raises(ValueError, match="isotropic"):
        reg.erm_lipschitz_experiment(cls, CovarianceSpectrum.geometric(3),
                                     [10], reps=2, seed=0)


def test_erm_singleton_class():
    cls = ball_class(1, seed=11)
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.erm_lipschitz_experiment(cls, noise, [50], reps=10, seed=0,
                                       noise_quad=20_000)
    assert rep.rows[0].median_excess == 0.0
    assert rep.all_ok


def test_erm_ten_member_bound_and_trend():
    cls = ball_class(10, seed=3, min_freq=1)
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.erm_lipschitz_experiment(cls, noise, [100, 500, 1600], reps=40,
                                       seed=0, noise_quad=40_000)
    assert rep.all_ok
    meds = [r.median_excess for r in rep.rows]
    assert meds[-1] <= meds[0] + 1e-12
    row = rep.rows[1]      # n = 500
    assert row.q95_excess <= row.bound + 3 * (2 * row.rad_se + rep.risk_se)
    assert row.decomposition_ok


@pytest.mark.parametrize("n", [1, 6, 7, 40])
@pytest.mark.parametrize("chunk", [32, 96, 256])   # whole 32-bit words
def test_chunked_sign_draws_match_one_shot(n, chunk):
    total = 2 * chunk + 1
    gen = substream(12, n, chunk)
    parts = [rademacher_signs(gen, (min(chunk, total - lo), n))
             for lo in range(0, total, chunk)]
    one = substream(12, n, chunk)
    assert np.array_equal(np.concatenate(parts),
                          rademacher_signs(one, (total, n)))
    assert gen.uniform() == one.uniform()      # the stream continues alike


def one_shot_erm(cls, noise, n_grid, reps, seed, cap=1.0, lipschitz=1.0,
                 noise_quad=100_000):
    """erm_lipschitz_experiment's replicate loop with one (patterns, n) sign
    draw per replicate, after every design and noise draw of the block;
    returns (risks, per-n excesses, rads, decomp)."""
    risks, _ = reg.population_risks(cls, noise, cap, lipschitz, noise_quad)
    g_star = int(np.argmin(risks))
    out = []
    for pos, n in enumerate(n_grid):
        def block(idx, size, n=n, pos=pos):
            rng = substream(seed, reg._TAG_ERM_RAD, pos, idx)
            excesses, rads, decomp = [], [], []
            draws = [(rng.uniform(size=(n, cls.d)),
                      sample_gaussian_batch(noise, rng, n)) for _ in range(size)]
            for x, eps in draws:
                vals = cls.values_on(fc.EmpiricalDesign(x))
                y = vals[0] + eps
                loss = hilbert.clipped_loss(y[None], vals, cap, lipschitz)
                emp = loss.mean(axis=1)
                ghat = int(np.argmin(emp))
                excesses.append(risks[ghat] - risks[g_star])
                decomp.append(excesses[-1] <= (np.max(risks - emp) + emp[g_star]
                                               - risks[g_star] + 1e-12))
                signs = rademacher_signs(rng, (reg._RAD_PATTERNS, n))
                rads.append(np.abs(signs @ loss.T / n).max(axis=1).mean())
            return excesses, rads, decomp

        parts = [block(idx, size)
                 for idx, size in enumerate(block_sizes(reps, 64))]
        out.append(tuple(sum((p[i] for p in parts), []) for i in range(3)))
    return risks, out


def test_erm_matches_one_shot_sign_reference():
    cls = ball_class(4, seed=6)
    noise = CovarianceSpectrum.uniform(3)
    kw = dict(noise_quad=3000)
    rep = reg.erm_lipschitz_experiment(cls, noise, [9, 40], reps=3, seed=2,
                                       **kw)
    risks, per_n = one_shot_erm(cls, noise, [9, 40], 3, 2, **kw)
    assert np.array_equal(rep.risks, risks)
    for row, (n, (excess, rads, decomp)) in zip(rep.rows, zip([9, 40], per_n)):
        assert row.median_excess == float(np.median(excess))
        assert row.q95_excess == float(np.quantile(excess, 0.95))
        assert row.rad_mean == float(np.mean(rads))
        assert row.rad_se == float(np.std(rads, ddof=1) / math.sqrt(3))
        assert row.decomposition_ok == all(decomp)


def spied(monkeypatch, module, name):
    """Record the arguments of every call to module.name, which still runs:
    the kernel closure a tail_check or map_blocks call is handed first."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kw):
        calls.append((args, kw))
        return real(*args, **kw)

    monkeypatch.setattr(module, name, spy)
    return calls


def per_block(fn, reps, seed, path, block=BLOCK_SIZE):
    """fn(generator, size) of every block, as map_blocks keys them."""
    return [fn(substream(seed, *path, i), size)
            for i, size in enumerate(block_sizes(reps, block))]


def chain_inputs(count=20, n=100):
    cls = ball_class(count, seed=8)
    design = fc.EmpiricalDesign.midpoint_grid(n, 1)
    tops = np.unique(ep.build_chaining_plan(cls, design).chains[:, -1])
    return cls, design, cls.values_on(design)[tops]


def test_erm_tiled_signs_match_one_shot_at_a_split_shape():
    # 2048 patterns of n = 1600 signs against K = 10 losses: tiles of 96
    # rows and a last one of 128
    cls = ball_class(10, seed=6)
    noise = CovarianceSpectrum.uniform(3)
    assert len(row_tiles(reg._RAD_PATTERNS, 1600, len(cls), 32)) > 1
    rep = reg.erm_lipschitz_experiment(cls, noise, [1600], reps=3, seed=2,
                                       noise_quad=3000)
    _, [(excess, rads, decomp)] = one_shot_erm(cls, noise, [1600], 3, 2,
                                               noise_quad=3000)
    row, = rep.rows
    assert row.rad_mean == float(np.mean(rads))
    assert row.rad_se == float(np.std(rads, ddof=1) / math.sqrt(3))
    assert row.median_excess == float(np.median(excess))


def assert_gaussian_chain_matches_one_shot(monkeypatch, n, reps):
    """Each block of gaussian_chaining_check (20 members, midpoint design
    of n points) has the bits of one noise draw of the block; the last
    block is split into more than one tile, whose row counts are
    returned."""
    cls, design, top_vals = chain_inputs(n=n)
    noise = CovarianceSpectrum.uniform(3)
    top_flat = top_vals.reshape(len(top_vals), -1)
    tiles = row_tiles(block_sizes(reps)[-1], top_flat.shape[1], len(top_vals),
                      1)
    assert len(tiles) > 1
    calls = spied(monkeypatch, reg, "tail_check")
    reg.gaussian_chaining_check(cls, design, noise, [1.0], reps=reps, seed=4)
    (stat, _, _, _, reps, _, seed, *path), _ = calls[0]

    def one_shot(rng, size):
        eps = sample_gaussian_batch(noise, rng, size * n).reshape(size, -1)
        return (eps @ top_flat.T / n).max(axis=1)

    for got, want in zip(per_block(stat, reps, seed, path),
                         per_block(one_shot, reps, seed, path)):
        assert got.tobytes() == want.tobytes()
    return tiles


def test_gaussian_chain_tiled_noise_matches_one_shot(monkeypatch):
    # 10,000 replicates: one block of 8192 and one of 1808, both tiled
    assert_gaussian_chain_matches_one_shot(monkeypatch, 100, 10_000)


def test_gaussian_chain_wide_row_tiles_match_one_shot(monkeypatch):
    # rows of n d_Y = 19,200 values: noise tiles of a few rows, not 32
    tiles = assert_gaussian_chain_matches_one_shot(monkeypatch, 6400, 40)
    assert max(tiles) < 32


def test_chaining_tail_tiled_signs_match_one_shot(monkeypatch):
    cls, design, top_vals = chain_inputs()
    n = design.n
    assert len(row_tiles(1808, n, top_vals[:, 0].size, 32)) > 1
    calls = spied(monkeypatch, ep, "tail_check")
    ep.chaining_tail_check(ep.build_chaining_plan(cls, design), cls, design,
                           [1.0], reps=10_000, seed=4)
    (stat, _, _, _, reps, _, seed, *path), _ = calls[0]

    def one_shot(rng, size):
        return hilbert.sup_sign_norms(rademacher_signs(rng, (size, n)),
                                      top_vals)

    for got, want in zip(per_block(stat, reps, seed, path),
                         per_block(one_shot, reps, seed, path)):
        assert got.tobytes() == want.tobytes()


def test_rate_experiment_tiled_noise_matches_one_shot(monkeypatch):
    # n = 1024 and d_Y = 3: tiles of 32 of the 200 replicates
    pool = reg.default_rate_pool(base_count=40)
    noise = CovarianceSpectrum.uniform(3)
    calls = spied(monkeypatch, reg, "map_blocks")
    reg.rate_experiment(pool, noise, [256, 1024], reps=200, seed=5)
    (block, reps, _, seed, *path), _ = calls[1]
    n, t = 1024, 2.0
    design = fc.EmpiricalDesign.midpoint_grid(n, 1)
    dist = PointCloud.from_empirical(pool, design).distance_matrix()
    delta_n = reg.solve_delta_n(reg.measured_entropy_integral(dist), n, t)
    cand = greedy_cover(PointCloud(dist, metric="matrix"), delta_n / 64.0,
                        start=0).center_indices
    vc = pool.values_on(design)[cand].reshape(len(cand), -1)
    assert len(row_tiles(reps, vc.shape[1], len(cand), 1)) > 1
    g_norm, a_cross = np.sum(vc ** 2, axis=1), vc @ vc[0]

    def one_shot(rng, size):
        eps = sample_gaussian_batch(noise, rng, size * n).reshape(size, -1)
        cross = eps @ vc.T
        pick = np.argmin(g_norm - 2.0 * (a_cross + cross), axis=1)
        errs = dist[0, cand[pick]]
        rhs = 2.0 * (cross[np.arange(size), pick] - cross[:, 0]) / n
        return errs, errs ** 2 <= rhs + 1e-9

    errs, basic = (np.concatenate(p) for p in zip(*per_block(
        block, reps, seed, path)[0]))
    (want_errs, want_basic), = per_block(one_shot, reps, seed, path)
    assert errs.tobytes() == want_errs.tobytes()
    assert np.array_equal(basic, want_basic)


def kernel_block(monkeypatch, kernel, n):
    """The block closure of one kernel at sample size n and the block size
    to call it with (two erm replicates, 2048 rows of the others)."""
    noise = CovarianceSpectrum.uniform(3)
    with monkeypatch.context() as m:
        if kernel == "erm":
            calls = spied(m, reg, "map_blocks")
            reg.erm_lipschitz_experiment(ball_class(10, seed=6), noise, [n],
                                         reps=2, seed=1, noise_quad=1000)
            return calls[0][0][0], 2
        if kernel == "rate":
            calls = spied(m, reg, "map_blocks")
            reg.rate_experiment(reg.default_rate_pool(base_count=40), noise,
                                [64, n], reps=10, seed=1)
            return calls[-1][0][0], 2048
        cls = ball_class(20, seed=8)
        design = fc.EmpiricalDesign.midpoint_grid(n, 1)
        if kernel == "rademacher":
            calls = spied(m, rad, "map_blocks")
            rad.norm_rademacher_values(cls.values_on(design), mode="mc",
                                       reps=10, seed=1)
        elif kernel == "gaussian_chain":
            calls = spied(m, reg, "tail_check")
            reg.gaussian_chaining_check(cls, design, noise, [1.0], reps=10,
                                        seed=1)
        else:
            calls = spied(m, ep, "tail_check")
            ep.chaining_tail_check(ep.build_chaining_plan(cls, design), cls,
                                   design, [1.0], reps=10, seed=1)
        return calls[0][0][0], 2048


def block_peak(fn, size):
    rng = substream(1, 2)
    tracemalloc.start()
    try:
        fn(rng, size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kernel, small, large", [
    ("erm", 400, 1600), ("gaussian_chain", 100, 800),
    ("chaining_tail", 100, 800), ("rate", 256, 800),
    ("gaussian_chain", 100, 6400), ("rademacher", 100, 800)])
def test_kernel_block_peak_memory_flat_in_n(monkeypatch, kernel, small,
                                            large):
    # one sign or noise tile at a time: at most about TILE_VALUES values at
    # these widths, where one draw of the block took rows x width (erm: a
    # replicate also holds its (10, n, 3) values and (10, n) losses); a
    # noise row of n = 6400 is 19,200 values, where a 32-row tile would
    # draw 4.9 MB
    peaks = [block_peak(*kernel_block(monkeypatch, kernel, n))
             for n in (small, large)]
    assert peaks[1] < (2.0 if kernel == "erm" else 1.5) * peaks[0]


def test_erm_excess_risks_do_not_depend_on_the_sign_sampler(monkeypatch):
    cls = ball_class(4, seed=6)
    noise = CovarianceSpectrum.uniform(3)
    kw = dict(reps=5, seed=2, noise_quad=3000)
    rep = reg.erm_lipschitz_experiment(cls, noise, [9, 40], **kw)
    # signs from one 64-bit draw each: another stream consumption
    monkeypatch.setattr(reg, "sign_rows",
                        lambda gen, rows, width, columns: [np.where(
                            gen.random((rows, width)) < 0.5, -1.0, 1.0)])
    other = reg.erm_lipschitz_experiment(cls, noise, [9, 40], **kw)
    assert np.array_equal(rep.risks, other.risks)
    for row, alt in zip(rep.rows, other.rows):
        assert row.median_excess == alt.median_excess
        assert row.q95_excess == alt.q95_excess
        assert row.decomposition_ok == alt.decomposition_ok
        assert row.rad_mean != alt.rad_mean
