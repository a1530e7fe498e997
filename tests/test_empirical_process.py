import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vecproc import empirical_process as ep
from vecproc import function_class as fc
from vecproc import regression as reg
from vecproc.covering import PointCloud, greedy_cover
from vecproc.rng import (BLOCK_POINTS, BLOCK_SIZE, TABLE_CHUNK, block_sizes,
                         rademacher_signs, sample_block, substream)


def ball_class(count, seed, d_y=3, m=1, resolution=129, d=1, **kw):
    return fc.generate_finite_dim_ball_class(d, m, d_y, 1.0, count, seed,
                                             resolution=resolution, **kw)


def zero_member(d=1, d_y=2):
    return fc.GridFunction.from_terms(d, 1, d_y,
                                      np.zeros((0, d), int), np.zeros((0, d)),
                                      np.zeros(0), np.zeros((0, d_y)))


def zero_class(d_y=2):
    return fc.FunctionClass(members=(zero_member(d_y=d_y),),
                            b_descriptor=fc.BallDescriptor(1.0), d=1, m=1,
                            d_y=d_y, resolution=33)


def oracle_class(d=1, d_y=3, count=4, seed=21, zero=False):
    """A generated ball class (K_B = 1), with a zero-term member in front
    when zero is set."""
    cls = ball_class(count, seed, d_y=d_y, d=d)
    if not zero:
        return cls
    members = (zero_member(d, d_y),) + cls.members
    return fc.FunctionClass(members=members, b_descriptor=cls.b_descriptor,
                            d=d, m=1, d_y=d_y, resolution=cls.resolution)


# the d = 1 cases keep their ids from before the d >= 2 and zero-term cases
ORACLE_CLASSES = [
    pytest.param(dict(d_y=1, count=4), id="1-4"),
    pytest.param(dict(d_y=3, count=9), id="3-9"),
    pytest.param(dict(d_y=7, count=5), id="7-5"),
    pytest.param(dict(d=2, d_y=3, count=5), id="d2"),
    pytest.param(dict(d=3, d_y=2, count=3), id="d3"),
    pytest.param(dict(d_y=3, count=4, zero=True), id="zero-term"),
    pytest.param(dict(d=2, d_y=1, count=3, zero=True), id="d2-dy1-zero-term"),
]


def rounding_tolerance(cls, n, reps=0):
    """Absolute bound on the gap rounding alone opens between two float64
    evaluations of one deviation statistic of a generated ball class: the
    per-member path of the stacked oracles below and the feature-moment
    path of the library. Both compute the same real number, in different
    orders, from the same inputs.

    Write u = eps/2 for the unit roundoff and gamma_N = N u / (1 - N u).
    (1) Member g = sum_j a_j u_j prod_l (alpha_jl c_jl + beta_jl s_jl) with
        c, s a cos/sin table entry and |alpha| + |beta| <= sqrt 2, so its
        expansion over the product features has, per output coordinate,
        sum_f |c_f| <= 2^{d/2} sum_j |a_j| ||u_j|| <= 2^{d/2} K_B =: A
        (the generator spends at most K_B of amplitude on unit u_j).
    (2) The per-member path reads libm's tables, whose entries are within
        one ulp of cos/sin and at most 1 in size. The library's feature
        tables come from empirical_process._trig_rows, whose entry at
        frequency k <= W is within 40 k u of libm's, so within
        e = 40 W u. A feature is a product of one entry per axis, so it
        moves by at most (1 + e)^d - 1 =: T and stays below (1 + e)^d in
        size; with (1), a coordinate of the library's exact-arithmetic
        statistic is within A T of the per-member one.
    (3) Each coordinate of (P_n - P) g, on either path, is a chain of at
        most N = n + F + J + 2W + 3d + 4 rounded operations over terms of
        absolute sum at most A (1 + e)^d: a sum over n points, products
        over d axes of table entries, a sum over the F features or over
        the J terms and 2W + 1 table rows, the centering and the 1/n.
        By the standard bound |fl(sum t) - sum t| <= gamma_N sum |t|, in
        any order, the two paths' coordinates differ by at most
        2 gamma_N A (1 + e)^d + A T.
    (4) A d_Y-norm of the difference is at most sqrt(d_Y) times that, and
        each norm rounds by at most gamma_{d_Y + 1} of sqrt(d_Y) 2 A
        (1 + e)^d. Maxima over members and order statistics are
        1-Lipschitz in the sup norm, and a median average rounds once more.
    (5) A mean (or standard error) over reps replicates of values at most
        sqrt(d_Y) 2 A (1 + e)^d rounds by at most gamma_reps of that on
        each side.
    Hence |gap| <= sqrt(d_Y) A (2 (1 + e)^d gamma_M + T),
    M = N + 2 d_Y + 2 reps + 4.
    """
    terms = max(g.amps.size for g in cls.members)
    m = (n + len(cls.features[0]) + terms + 2 * cls.width + 3 * cls.d + 4
         + 2 * cls.d_y + 2 * reps + 4)
    u = np.finfo(float).eps / 2
    a = 2.0 ** (cls.d / 2) * cls.b_descriptor.k_b
    e = 40 * cls.width * u
    t = math.expm1(cls.d * math.log1p(e))
    return math.sqrt(cls.d_y) * a * (2.0 * (1.0 + e) ** cls.d * m * u
                                     / (1.0 - m * u) + t)


def assert_close(got, want, tol):
    """Same shape; floats within tol of each other, every other item equal."""
    if isinstance(got, float):
        assert abs(got - want) <= tol, (got, want, tol)
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_close(a, b, tol)
    else:
        assert got == want


# ------------------------------------------------------------ feature tables


@pytest.mark.parametrize("width", [1, 2, 3, 8, 16])
def test_trig_rows_match_libm_within_the_rounding_bound(width):
    x = np.concatenate([substream(31, width).uniform(size=(10 ** 5, 2)),
                        [[0.0, 0.5], [0.5, 1.0 - 2.0 ** -53],
                         [1.0 - 2.0 ** -53, 0.0]]])
    got = ep._trig_rows(x, width)
    assert got.shape == (2, 2 * width + 1, len(x))
    assert np.all(got[:, 0] == 1.0)
    k = np.repeat(np.arange(1, width + 1), 2)[:, None]
    for rows, want in zip(got, fc.trig_tables(x, width)):
        assert np.all(np.abs(rows[1:] - want) <= 40 * k * 2.0 ** -53)
        assert np.array_equal(rows[1:3], want[:2])


def test_trig_rows_of_width_zero_are_the_constant_row():
    got = ep._trig_rows(substream(32).uniform(size=(7, 3)), 0)
    assert np.array_equal(got, np.ones((3, 1, 7)))


# ------------------------------------------------------------ symmetrization


def test_symmetrization_zero_class():
    rep = ep.symmetrization_check(zero_class(), 20, 200, seed=1)
    assert rep.mean_dev == 0.0 and rep.mean_rad == 0.0
    assert rep.all_ok


def test_symmetrization_pair_class():
    base = ball_class(1, seed=7, min_freq=1)
    g = base[0]
    cls = fc.FunctionClass(members=(g, g.scaled(-1.0)),
                           b_descriptor=base.b_descriptor, d=1, m=1, d_y=3,
                           resolution=129)
    rep = ep.symmetrization_check(cls, 50, 600, seed=2)
    assert rep.all_ok
    assert rep.mean_dev < 2 * rep.mean_rad  # strict slack


def test_symmetrization_generated_class():
    cls = ball_class(20, seed=7, min_freq=1)
    rep = ep.symmetrization_check(cls, 200, 800, seed=3)
    assert rep.ok_pair and rep.ok_rad


def stacked_symmetrization(cls, n, reps, seed):
    """symmetrization_check with every member stacked into (B, K, n, d_Y)."""
    means = ep.true_means(cls)

    def block(idx, size):
        rng = substream(seed, ep._TAG_SYM, idx)
        x = rng.uniform(size=(size, n, cls.d))
        x2 = rng.uniform(size=(size, n, cls.d))
        signs = rademacher_signs(rng, (size, 1, n, 1))
        vals = np.stack([g.evaluate(x.reshape(-1, cls.d)).reshape(size, n, cls.d_y)
                         for g in cls.members], axis=1)
        vals2 = np.stack([g.evaluate(x2.reshape(-1, cls.d)).reshape(size, n, cls.d_y)
                          for g in cls.members], axis=1)
        emp = vals.mean(axis=2)
        emp2 = vals2.mean(axis=2)
        dev = np.linalg.norm(emp - means[None], axis=2).max(axis=1)
        pair = np.linalg.norm(emp - emp2, axis=2).max(axis=1)
        rad = np.linalg.norm((vals * signs).mean(axis=2), axis=2).max(axis=1)
        return dev, pair, rad

    parts = [block(idx, size) for idx, size in enumerate(block_sizes(reps))]
    dev, pair, rad = (np.concatenate([p[i] for p in parts]) for i in range(3))
    return ep.SymmetrizationReport(
        mean_dev=float(dev.mean()), mean_pair=float(pair.mean()),
        mean_rad=float(rad.mean()),
        se_dev=float(dev.std(ddof=1) / math.sqrt(reps)),
        se_pair=float(pair.std(ddof=1) / math.sqrt(reps)),
        se_rad=float(rad.std(ddof=1) / math.sqrt(reps)),
        reps=reps, seed=seed)


@pytest.mark.parametrize("case", ORACLE_CLASSES)
def test_symmetrization_matches_stacked_reference(case):
    cls = oracle_class(**case)
    rep = ep.symmetrization_check(cls, 30, 700, seed=6)
    want = stacked_symmetrization(cls, 30, 700, seed=6)
    assert_close(dataclasses.astuple(rep), dataclasses.astuple(want),
                 rounding_tolerance(cls, 30, reps=700))


def test_symmetrization_peak_memory_flat_in_class_size():
    def peak(count):
        cls = ball_class(count, seed=22)
        tracemalloc.start()
        try:
            ep.symmetrization_check(cls, 50, 400, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) < 1.5 * peak(10)


def traced_peak(run):
    """Peak traced bytes of run(); first-use costs belong to an earlier
    call, so callers build the class's features before."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symmetrization_peak_memory_flat_in_class_size_at_d4():
    # at d = 4 the features grow with the class (F = 459 for 10 members,
    # 1445 for 40); besides one centered copy of the class's coefficient
    # tensor, a chunk tabulates at most TABLE_CHUNK // F points
    def peak(count):
        cls = ball_class(count, seed=22, d=4, resolution=9)
        tensor = cls.features[1].nbytes
        return traced_peak(lambda: ep.symmetrization_check(
            cls, 50, 400, seed=1)) - tensor

    assert peak(40) < 1.5 * peak(10)


def test_chaining_plan_peak_memory_below_one_value_tensor():
    # the benchmark's rate pool, 446 members at d_Y = 3: its values at
    # n = 4096 would take 43.8 MB, its feature coordinates 17 per output
    pool = reg.default_rate_pool(base_count=150)
    design = fc.EmpiricalDesign.midpoint_grid(4096, 1)
    pool.features
    tensor = len(pool) * design.n * pool.d_y * 8
    assert traced_peak(lambda: ep.build_chaining_plan(pool, design)) < tensor


def test_symmetrization_peak_memory_grows_only_with_its_draws():
    cls = ball_class(20, seed=22)
    cls.features
    reps = 200

    def peak(n):
        return traced_peak(lambda: ep.symmetrization_check(cls, n, reps,
                                                           seed=1))

    # x and x2 (d = 1) and the float64 signs: 8 bytes per point each
    extra_draws = 3 * 8 * reps * (1600 - 200)
    assert peak(1600) - peak(200) <= 1.5 * extra_draws


def test_symmetrization_peak_memory_flat_in_n():
    # x, x2 and the signs are read chunk by chunk: only the packed sign
    # bytes, one bit per point, grow with n
    cls = ball_class(20, seed=22)
    cls.features

    def peak(n):
        return traced_peak(lambda: ep.symmetrization_check(cls, n, 200,
                                                           seed=1))

    assert peak(1600) < 1.25 * peak(200)


def upfront_blocks(cls, n, a_grid):
    """The block kernels of symmetrization_check and
    symmetrization_probability_check drawing every point and sign of a
    block before they tabulate anything: x, x2 (plain kernel only) and the
    signs in turn from the block's generator."""
    coefs, centered = cls.features[1], ep._centered(cls)
    scale = np.r_[np.full(len(cls), 2.0), 1.0, 4.0][:, None]

    def plain(rng, size):
        x = rng.uniform(size=(size * n, cls.d))
        x2 = rng.uniform(size=(size * n, cls.d))
        signs = rademacher_signs(rng, (size * n,))
        groups = zip(ep._feature_means(cls, size, n, lambda a, b: x[a:b],
                                       lambda a, b: signs[a:b]),
                     ep._feature_means(cls, size, n, lambda a, b: x2[a:b]))
        return [np.concatenate(s) for s in zip(*(
            (ep._norms(emp, centered, cls.d_y),
             ep._norms(emp - emp2, centered, cls.d_y),
             ep._norms(rad, coefs, cls.d_y))
            for (emp, rad), (emp2,) in groups))]

    def probability(rng, size):
        x = rng.uniform(size=(size * n, cls.d))
        signs = rademacher_signs(rng, (size * n,))
        per_member, rad = (np.concatenate(s) for s in zip(*(
            (ep._norms(emp, centered, cls.d_y, sup=False),
             ep._norms(signed, coefs, cls.d_y)) for emp, signed in
            ep._feature_means(cls, size, n, lambda a, b: x[a:b],
                              lambda a, b: signs[a:b]))))
        stat = np.column_stack([per_member, per_member.max(axis=1),
                                rad])[:, :, None]
        return np.where(np.isnan(stat).any(axis=0), np.nan,
                        (stat > np.asarray(a_grid) / scale).sum(axis=0))

    return plain, probability


@pytest.mark.parametrize("case, n, reps", [
    # n above a chunk's points, so a replicate spans several chunks; in
    # each case some block's size n d is no multiple of 4, so its jumps end
    # inside a Philox counter step
    pytest.param(dict(d_y=3, count=4), None, 3, id="span"),
    pytest.param(dict(d=2, d_y=3, count=5), 301, 2000, id="d2"),
    pytest.param(dict(d_y=1, count=4, zero=True), 7, BLOCK_SIZE + 5,
                 id="two-blocks"),
])
def test_symmetrization_kernels_match_upfront_draws(monkeypatch, case, n,
                                                     reps):
    cls = oracle_class(**case)
    if n is None:
        n = 2 * (TABLE_CHUNK // len(cls.features[0])) + 5
    a_grid = [0.002, 0.02, 0.1]
    blocks = []
    real = ep.map_blocks

    def spy(fn, reps, threads, seed, *path, block):
        blocks.append((fn, seed, path, block))
        return real(fn, reps, threads, seed, *path, block=block)

    monkeypatch.setattr(ep, "map_blocks", spy)
    ep.symmetrization_check(cls, n, reps, seed=6)
    ep.symmetrization_probability_check(cls, n, a_grid, reps, seed=6)
    for (fn, seed, path, block), ref in zip(blocks,
                                            upfront_blocks(cls, n, a_grid)):
        assert block == sample_block(n)
        for i, size in enumerate(block_sizes(reps, block)):
            got = fn(substream(seed, *path, i), size)
            want = ref(substream(seed, *path, i), size)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("kernel", ["plain", "probability"])
def test_symmetrization_block_draws_do_not_grow_with_n(kernel):
    # four replicates of n points: one block at n = BLOCK_POINTS // 4, four
    # blocks of BLOCK_POINTS points at n = BLOCK_POINTS
    cls = ball_class(5, seed=11)
    cls.features

    def peak(n):
        if kernel == "plain":
            return traced_peak(lambda: ep.symmetrization_check(cls, n, 4, 1))
        return traced_peak(lambda: ep.symmetrization_probability_check(
            cls, n, [0.01], 4, 1))

    assert peak(BLOCK_POINTS) < 1.25 * peak(BLOCK_POINTS // 4)


def test_symmetrization_rejects_single_replicate_and_empty_class():
    with pytest.raises(ValueError, match="reps must be at least 2"):
        ep.symmetrization_check(zero_class(), 10, 1, seed=0)
    empty = ball_class(0, seed=1)
    with pytest.raises(ValueError, match="class must be nonempty"):
        ep.symmetrization_check(empty, 10, 100, seed=0)
    with pytest.raises(ValueError, match="class must be nonempty"):
        ep.symmetrization_probability_check(empty, 10, [0.1], 100, seed=0)
    with pytest.raises(ValueError, match="class must be nonempty"):
        ep.gc_decay_curve(empty, [10], 100, seed=0)


def test_symmetrization_probability_rows():
    cls = ball_class(10, seed=13, min_freq=1)
    rows = ep.symmetrization_probability_check(cls, 100, [0.002, 0.005, 0.02],
                                               600, seed=4)
    assert any(r["applicable"] for r in rows)
    assert all(r["ok"] for r in rows)


def test_symmetrization_probability_nan_member_fails_every_row():
    cls = ball_class(2, seed=13, min_freq=1)
    g = cls[1]
    bad = fc.GridFunction.from_terms(g.d, g.m, g.d_y, g.freqs, g.phases,
                                     np.where(g.amps > 0, np.nan, g.amps),
                                     g.dirs)
    three = fc.FunctionClass(members=(*cls.members, bad),
                             b_descriptor=cls.b_descriptor, d=1, m=1, d_y=3,
                             resolution=cls.resolution)
    rows = ep.symmetrization_probability_check(three, 100, [0.002, 0.02, 1.0],
                                               300, seed=4)
    assert all(np.isnan(r["premise_max"]) for r in rows)
    assert not any(r["ok"] or r["applicable"] for r in rows)


# ----------------------------------------------------------------- GC decay


def test_gc_decay_zero_class():
    rows, slope = ep.gc_decay_curve(zero_class(), [50, 100], 50, seed=1)
    assert all(r[1] == 0.0 for r in rows)
    assert slope == 0.0


def test_gc_decay_finite_class():
    cls = ball_class(5, seed=11, min_freq=1)
    rows, slope = ep.gc_decay_curve(cls, [100, 400, 1600, 6400], 120, seed=2)
    meds = [r[1] for r in rows]
    assert meds[-1] <= meds[0] / 2.0
    assert slope < 0


def stacked_gc_decay(cls, n_grid, reps, seed):
    """gc_decay_curve's per-n deviations with the members stacked."""
    means = ep.true_means(cls)
    out = []
    for pos, n in enumerate(n_grid):
        def block(idx, size, n=n, pos=pos):
            rng = substream(seed, ep._TAG_GC, pos, idx)
            x = rng.uniform(size=(size * n, cls.d))
            vals = np.stack([g.evaluate(x).reshape(size, n, cls.d_y)
                             for g in cls.members], axis=1)
            emp = vals.mean(axis=2)
            return np.linalg.norm(emp - means[None], axis=2).max(axis=1)

        devs = [block(idx, size) for idx, size in enumerate(block_sizes(reps))]
        out.append((int(n), float(np.median(np.concatenate(devs)))))
    return out


@pytest.mark.parametrize("case", [
    pytest.param(dict(d_y=2, count=6, seed=23), id="2-6"),
    pytest.param(dict(d_y=5, count=3, seed=23), id="5-3"),
    *ORACLE_CLASSES[3:],
    pytest.param(dict(d_y=1, count=4, seed=23), id="dy1"),
])
def test_gc_decay_matches_stacked_reference(case):
    cls = oracle_class(**case)
    rows, _ = ep.gc_decay_curve(cls, [7, 40], 900, seed=9)
    assert_close(rows, stacked_gc_decay(cls, [7, 40], 900, seed=9),
                 rounding_tolerance(cls, 40))


def test_kernels_match_references_when_replicates_span_chunks():
    # n above a chunk's points: a replicate is tabulated in pieces
    cls = oracle_class(d=2, d_y=2, count=3)
    chunk = TABLE_CHUNK // len(cls.features[0])
    n = chunk + 3
    rows, _ = ep.gc_decay_curve(cls, [chunk // 2 + 1, n], 5, seed=9)
    assert_close(rows, stacked_gc_decay(cls, [chunk // 2 + 1, n], 5, seed=9),
                 rounding_tolerance(cls, n))
    rep = ep.symmetrization_check(cls, n, 4, seed=6)
    assert_close(dataclasses.astuple(rep),
                 dataclasses.astuple(stacked_symmetrization(cls, n, 4, seed=6)),
                 rounding_tolerance(cls, n, reps=4))


def test_gc_decay_block_memory_does_not_grow_with_n():
    cls = ball_class(5, seed=11)
    cls.features

    def peak(n):
        return traced_peak(lambda: ep.gc_decay_curve(cls, [n // 4, n], 200,
                                                     seed=2))

    assert peak(6400) < 1.5 * peak(400)


def test_block_kernels_equal_across_threads():
    # two blocks, each ending in a table chunk of fewer whole replicates
    # than the others
    cls = ball_class(6, seed=5)
    reps = BLOCK_SIZE + 37

    def run(threads):
        return (ep.gc_decay_curve(cls, [3, 7], reps, seed=1, threads=threads),
                ep.symmetrization_check(cls, 7, reps, seed=1, threads=threads),
                ep.equicontinuity_curve(cls, 0, [0.1, 1.0], [7], reps, seed=1,
                                        threads=threads))

    assert run(1) == run(2)


def test_gc_decay_smooth_class():
    cls = fc.generate_finite_dim_ball_class(1, 2, 2, 1.0, 50, seed=3,
                                            resolution=129)
    rows, _ = ep.gc_decay_curve(cls, [100, 1600], 80, seed=5)
    assert rows[1][1] <= rows[0][1]


# ------------------------------------------------------------------ chaining


def test_chaining_plan_singleton():
    base = ball_class(1, seed=17)
    design = fc.EmpiricalDesign.uniform(32, 1, substream(2, 1))
    plan = ep.build_chaining_plan(base, design, 4)
    assert np.all(plan.n_s == 1)
    assert plan.j_n == 0.0
    assert plan.links_valid()


def test_chaining_plan_antipodal_pair():
    base = ball_class(1, seed=19, min_freq=1)
    g = base[0]
    cls = fc.FunctionClass(members=(g, g.scaled(-1.0)),
                           b_descriptor=base.b_descriptor, d=1, m=1, d_y=3,
                           resolution=129)
    design = fc.EmpiricalDesign.uniform(32, 1, substream(2, 2))
    s_levels = 3
    plan = ep.build_chaining_plan(cls, design, s_levels)
    assert np.all(plan.n_s[1:] == 2)
    expected = sum(0.5 ** s * plan.r_n * math.sqrt(2 * math.log(2))
                   for s in range(s_levels + 1))
    assert plan.j_n == pytest.approx(expected, abs=1e-12)


def test_chaining_links_and_jn_consistency():
    cls = ball_class(30, seed=23)
    design = fc.EmpiricalDesign.uniform(64, 1, substream(2, 3))
    plan = ep.build_chaining_plan(cls, design)
    assert plan.links_valid()
    # J_n recomputed from stored entropies matches to 1e-12
    s = plan.s_levels
    recomputed = float(np.sum(0.5 ** np.arange(s + 1) * plan.r_n
                              * np.sqrt(2 * plan.h_s[1:s + 2])))
    assert plan.j_n == pytest.approx(recomputed, abs=1e-12)
    # chain-link distances verified directly against the values
    vals = cls.values_on(design)
    flat = vals.reshape(len(cls), -1) / math.sqrt(design.n)
    radii = plan.link_radii()
    for k in range(len(cls)):
        for s in range(plan.s_levels + 1):
            a = plan.chains[k, s + 1]
            b = plan.chains[k, s]
            va = flat[a]
            vb = flat[b] if b >= 0 else np.zeros_like(va)
            assert np.linalg.norm(va - vb) <= radii[s] * (1 + 1e-9)


def test_chaining_levels_match_direct_greedy_covers():
    cls = ball_class(40, seed=29)
    design = fc.EmpiricalDesign.uniform(48, 1, substream(2, 4))
    plan = ep.build_chaining_plan(cls, design, 4)
    cloud = PointCloud(PointCloud.from_empirical(cls, design).distance_matrix(),
                       metric="matrix")
    for s in range(1, plan.s_levels + 2):
        direct = greedy_cover(cloud, plan.r_n * 0.5 ** s).center_indices
        assert np.array_equal(plan.level_centers[s], np.sort(direct))


@pytest.mark.parametrize("count, n, duplicates", [(400, 256, False),
                                                   (30, 64, True)],
                         ids=["400-members", "duplicates"])
def test_chaining_levels_cover_in_the_plan_matrix(count, n, duplicates):
    # the matrix the chains read is the one the covers are exact in
    cls = ball_class(count, seed=41)
    if duplicates:
        cls = dataclasses.replace(cls, members=cls.members + cls.members[::2])
    design = fc.EmpiricalDesign.uniform(n, 1, substream(2, 6))
    plan = ep.build_chaining_plan(cls, design)
    dist = PointCloud.from_empirical(cls, design).distance_matrix()
    for s in range(1, plan.s_levels + 2):
        reach = dist[:, plan.level_centers[s]].min(axis=1)
        assert np.all(reach <= plan.r_n * 0.5 ** s)


def test_chaining_tail_check():
    cls = ball_class(20, seed=7)
    design = fc.EmpiricalDesign.uniform(100, 1, substream(2, 4))
    plan = ep.build_chaining_plan(cls, design)
    rep = ep.chaining_tail_check(plan, cls, design, [0.5, 1.0, 2.0], 5000,
                                 seed=5)
    assert rep.all_ok
    # very large t: threshold unreachable, frequency zero
    rep_hi = ep.chaining_tail_check(plan, cls, design, [50.0], 2000, seed=6)
    assert rep_hi.freqs[0] == 0.0


def test_chaining_tail_singleton():
    cls = ball_class(1, seed=29)
    design = fc.EmpiricalDesign.uniform(50, 1, substream(2, 5))
    plan = ep.build_chaining_plan(cls, design)
    rep = ep.chaining_tail_check(plan, cls, design, [0.5, 2.0], 3000, seed=7)
    assert rep.all_ok


# --------------------------------------------------------- equicontinuity


def test_equicontinuity_zero_radius():
    cls = ball_class(10, seed=31)
    rows = ep.equicontinuity_curve(cls, 0, [0.0], [100], 20, seed=8)
    assert rows[0][3] == 0.0


def test_equicontinuity_shrinks_with_radius():
    cls = ball_class(30, seed=37, min_freq=1)
    rows = ep.equicontinuity_curve(cls, 0, [0.4, 0.2, 0.1], [10_000], 60,
                                   seed=9)
    meds = [r[3] for r in rows]
    assert meds[1] <= meds[0] * 1.1
    assert meds[2] <= meds[1] * 1.1


def test_equicontinuity_stable_in_n():
    cls = ball_class(15, seed=41, min_freq=1)
    rows = ep.equicontinuity_curve(cls, 0, [0.2], [1000, 10_000], 60, seed=10)
    med_small, med_large = rows[0][3], rows[1][3]
    assert med_large <= med_small * 1.5 + 1e-9


def per_radius_equicontinuity(cls, g0_index, radius_grid, n_grid, reps, seed):
    """equicontinuity_curve with one Monte-Carlo pass per radius."""
    g0 = cls[g0_index]
    dists = np.array([fc.l2_distance_uniform(g, g0) for g in cls.members])
    means = ep.true_means(cls)
    rows = []
    for radius in radius_grid:
        in_ball = np.where(dists <= radius)[0]
        for pos, n in enumerate(n_grid):
            if in_ball.size <= 1:
                rows.append((float(radius), int(n), int(in_ball.size), 0.0))
                continue
            stats = []
            for idx, size in enumerate(block_sizes(reps)):
                x = substream(seed, ep._TAG_EQUI, pos, idx).uniform(
                    size=(size * n, cls.d))
                g0_vals = g0.evaluate(x).reshape(size, n, cls.d_y)
                stat = np.zeros(size)
                for k in in_ball[in_ball != g0_index]:
                    diff = cls[k].evaluate(x).reshape(size, n, cls.d_y) - g0_vals
                    dev = diff.mean(axis=1) - (means[k] - means[g0_index])
                    stat = np.maximum(stat, np.linalg.norm(dev, axis=1))
                stats.append(math.sqrt(n) * stat)
            rows.append((float(radius), int(n), int(in_ball.size),
                         float(np.median(np.concatenate(stats)))))
    return rows


@pytest.mark.parametrize("g0_index, radii, n_grid, reps, threads", [
    (0, [0.05, 0.2, 1.0], [50, 200], 300, 1),
    (3, [0.5, 0.1, 2.0, 0.0], [40], 9000, 2),    # unsorted radii, two blocks
    (2, [1e-9, 0.3], [30, 60], 200, 1),          # a one-member ball
])
def test_equicontinuity_matches_per_radius_reference(g0_index, radii, n_grid,
                                                     reps, threads):
    cls = ball_class(12, seed=43, min_freq=1)
    assert_equicontinuity_matches(cls, g0_index, radii, n_grid, reps, threads)


@pytest.mark.parametrize("case", ORACLE_CLASSES[3:])
def test_equicontinuity_matches_per_radius_reference_beyond_d1(case):
    cls = oracle_class(**case)
    assert_equicontinuity_matches(cls, 1, [0.05, 0.3, 2.0], [20, 50], 150, 1)


def assert_equicontinuity_matches(cls, g0_index, radii, n_grid, reps, threads):
    """The statistic is sqrt(n) ||(P_n - P)(g - g0)||, and g - g0 has twice
    the coefficient budget of one member (see rounding_tolerance)."""
    got = ep.equicontinuity_curve(cls, g0_index, radii, n_grid, reps, seed=4,
                                  threads=threads)
    n = max(n_grid)
    assert_close(got, per_radius_equicontinuity(cls, g0_index, radii, n_grid,
                                                reps, seed=4),
                 2.0 * math.sqrt(n) * rounding_tolerance(cls, n))
