import math

import numpy as np
import pytest

from vecproc import function_class as fc
from vecproc import hilbert
from vecproc import regression as reg
from vecproc.concentration import CovarianceSpectrum, sample_gaussian_batch
from vecproc.rng import block_sizes, rademacher_signs, substream


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
        out, scratch = np.empty((2, 40, 30))
        got = hilbert.clipped_loss(y, yhat, 0.8, 1.5, out=out,
                                   scratch=scratch)
        assert got is out and np.array_equal(got, ref)
    # one pair of vectors gives a scalar, as the formula does
    got = hilbert.clipped_loss(a[0, 0], b[0, 0], 0.8, 1.5)
    assert np.ndim(got) == 0 and got == formula_clipped_loss(a[0, 0], b[0, 0],
                                                             0.8, 1.5)


def stacked_population_risks(cls, noise, cap, lipschitz, seed, x_quad,
                             noise_quad):
    """population_risks as one (draws, x_quad, d_Y) tensor per member."""
    vals = cls.values_on(fc.EmpiricalDesign.midpoint_grid(x_quad, cls.d))
    truth = vals[0]

    def block(idx, size):
        eps = sample_gaussian_batch(noise, substream(seed, reg._TAG_ERM, idx),
                                    size)
        out_sum = np.zeros(len(cls))
        out_sq = np.zeros(len(cls))
        for k in range(len(cls)):
            diff = truth[None, :, :] - vals[k][None, :, :] + eps[:, None, :]
            loss = lipschitz * np.minimum(np.linalg.norm(diff, axis=2), cap)
            per_draw = loss.mean(axis=1)
            out_sum[k] = per_draw.sum()
            out_sq[k] = (per_draw ** 2).sum()
        return out_sum, out_sq

    parts = [block(idx, size)
             for idx, size in enumerate(block_sizes(noise_quad, 4096))]
    risks = np.sum([p[0] for p in parts], axis=0) / noise_quad
    risk_sq = np.sum([p[1] for p in parts], axis=0) / noise_quad
    se = np.sqrt(np.maximum(risk_sq - risks ** 2, 0.0) / noise_quad)
    return risks, float(se.max())


@pytest.mark.parametrize("d_y, x_quad", [(3, 300), (20, 64)])
def test_population_risks_match_stacked_reference(d_y, x_quad):
    # x_quad = 300 leaves a short last chunk; 9000 draws span three blocks
    cls = ball_class(6, seed=4, d_y=d_y)
    noise = CovarianceSpectrum.uniform(d_y)
    args = (cls, noise, 0.7, 1.3, 8)
    risks, se = reg.population_risks(*args, x_quad=x_quad, noise_quad=9000)
    ref_risks, ref_se = stacked_population_risks(*args, x_quad=x_quad,
                                                 noise_quad=9000)
    if d_y <= 7:
        assert np.array_equal(risks, ref_risks) and se == ref_se
    else:   # numpy sums long norm axes pairwise: a few ulp apart
        np.testing.assert_allclose(risks, ref_risks, rtol=1e-12, atol=0)
        assert se == pytest.approx(ref_se, rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 777, reg._LOSS_CHUNK])
def test_population_risks_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # ten members: the default chunk runs them in two groups of a 4096-draw
    # block, chunk 1 one draw and one member at a time
    cls = ball_class(10, seed=4)
    noise = CovarianceSpectrum.uniform(3)
    args = (cls, noise, 0.7, 1.3, 8)
    kw = dict(x_quad=64, noise_quad=5000)
    want = reg.population_risks(*args, **kw)
    monkeypatch.setattr(reg, "_LOSS_CHUNK", chunk)
    risks, se = reg.population_risks(*args, **kw)
    assert np.array_equal(risks, want[0]) and se == want[1]
    assert np.array_equal(risks, stacked_population_risks(*args, **kw)[0])


def test_population_risks_do_not_depend_on_threads():
    cls = ball_class(6, seed=4)
    noise = CovarianceSpectrum.uniform(3)
    args = (cls, noise, 0.7, 1.3, 8)
    runs = [reg.population_risks(*args, x_quad=64, noise_quad=9000,
                                 threads=threads) for threads in (1, 2, 3)]
    for risks, se in runs[1:]:
        assert risks.tobytes() == runs[0][0].tobytes() and se == runs[0][1]


def test_erm_singleton_class():
    cls = ball_class(1, seed=11)
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.erm_lipschitz_experiment(cls, noise, [50], reps=10, seed=0,
                                       rad_patterns=256, x_quad=128,
                                       noise_quad=20_000)
    assert rep.rows[0].median_excess == 0.0
    assert rep.all_ok


def test_erm_ten_member_bound_and_trend():
    cls = ball_class(10, seed=3, min_freq=1)
    noise = CovarianceSpectrum.uniform(3)
    rep = reg.erm_lipschitz_experiment(cls, noise, [100, 500, 1600], reps=40,
                                       seed=0, rad_patterns=512,
                                       x_quad=256, noise_quad=40_000)
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


def one_shot_erm(cls, noise, n_grid, reps, seed, rad_patterns, cap=1.0,
                 lipschitz=1.0, x_quad=512, noise_quad=100_000):
    """erm_lipschitz_experiment's replicate loop with one (patterns, n) sign
    draw per replicate, after every design and noise draw of the block;
    returns (risks, per-n excesses, rads, decomp)."""
    risks, _ = reg.population_risks(cls, noise, cap, lipschitz, seed,
                                    x_quad=x_quad, noise_quad=noise_quad)
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
                signs = rademacher_signs(rng, (rad_patterns, n))
                rads.append(np.abs(signs @ loss.T / n).max(axis=1).mean())
            return excesses, rads, decomp

        parts = [block(idx, size)
                 for idx, size in enumerate(block_sizes(reps, 64))]
        out.append(tuple(sum((p[i] for p in parts), []) for i in range(3)))
    return risks, out


@pytest.mark.parametrize("rad_patterns", [2048, 513, 300])
def test_erm_matches_one_shot_sign_reference(rad_patterns):
    cls = ball_class(4, seed=6)
    noise = CovarianceSpectrum.uniform(3)
    kw = dict(x_quad=64, noise_quad=3000)
    rep = reg.erm_lipschitz_experiment(cls, noise, [9, 40], reps=3, seed=2,
                                       rad_patterns=rad_patterns, **kw)
    risks, per_n = one_shot_erm(cls, noise, [9, 40], 3, 2, rad_patterns, **kw)
    assert np.array_equal(rep.risks, risks)
    for row, (n, (excess, rads, decomp)) in zip(rep.rows, zip([9, 40], per_n)):
        assert row.median_excess == float(np.median(excess))
        assert row.q95_excess == float(np.quantile(excess, 0.95))
        assert row.rad_mean == float(np.mean(rads))
        assert row.rad_se == float(np.std(rads, ddof=1) / math.sqrt(3))
        assert row.decomposition_ok == all(decomp)


def test_erm_excess_risks_do_not_depend_on_the_sign_sampler(monkeypatch):
    cls = ball_class(4, seed=6)
    noise = CovarianceSpectrum.uniform(3)
    kw = dict(reps=5, seed=2, rad_patterns=300, x_quad=64, noise_quad=3000)
    rep = reg.erm_lipschitz_experiment(cls, noise, [9, 40], **kw)
    # signs from one 64-bit draw each: another stream consumption
    monkeypatch.setattr(reg, "rademacher_signs",
                        lambda gen, shape, out=None: np.where(
                            gen.random(shape) < 0.5, -1.0, 1.0))
    other = reg.erm_lipschitz_experiment(cls, noise, [9, 40], **kw)
    assert np.array_equal(rep.risks, other.risks)
    for row, alt in zip(rep.rows, other.rows):
        assert row.median_excess == alt.median_excess
        assert row.q95_excess == alt.q95_excess
        assert row.decomposition_ok == alt.decomposition_ok
        assert row.rad_mean != alt.rad_mean
