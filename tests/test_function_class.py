import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from vecproc import function_class as fc
from vecproc.covering import PointCloud, build_smooth_cover, verify_cover_validity
from vecproc.empirical_process import true_means
from vecproc import regression as reg
from vecproc.rng import substream


def constant_member(vec, d=1, m=1):
    vec = np.asarray(vec, float)
    return fc.GridFunction.from_terms(
        d, m, vec.size,
        freqs=np.zeros((1, d), dtype=int), phases=np.zeros((1, d)),
        amps=np.array([1.0]), dirs=vec[None, :])


def sine_member(m=1):
    # cos(2 pi x - pi/2) = sin(2 pi x)
    return fc.GridFunction.from_terms(
        1, m, 1,
        freqs=np.array([[1]]), phases=np.array([[-math.pi / 2]]),
        amps=np.array([1.0]), dirs=np.array([[1.0]]))


def zero_member(d=1, m=1, d_y=2):
    return fc.GridFunction.from_terms(
        d, m, d_y, freqs=np.zeros((0, d), dtype=int),
        phases=np.zeros((0, d)), amps=np.zeros(0), dirs=np.zeros((0, d_y)))


# ---------------------------------------------------------------- generators


def test_ball_class_single_member_bounds():
    cls = fc.generate_finite_dim_ball_class(1, 1, 1, 1.0, 1, seed=0,
                                            resolution=513)
    for p in fc.multi_indices(1, 1):
        assert np.all(np.linalg.norm(cls.grid(p)[0], axis=1) <= 1.0 + 1e-12)


def test_ball_class_empty():
    cls = fc.generate_finite_dim_ball_class(1, 1, 2, 1.0, 0, seed=0)
    assert len(cls) == 0


def test_ball_class_membership_scan():
    cls = fc.generate_finite_dim_ball_class(2, 2, 5, 2.0, 50, seed=7,
                                            resolution=17)
    assert len(cls) == 50
    # exhaustive grid scan of every derivative value
    for p in fc.multi_indices(2, 2):
        assert np.all(np.linalg.norm(cls.grid(p), axis=-1) <= 2.0 + 1e-9)
    assert cls.validate_membership()


def test_ball_class_deterministic():
    a = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 5, seed=3, resolution=65)
    b = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 5, seed=3, resolution=65)
    assert np.array_equal(a.grid(), b.grid())
    for ga, gb in zip(a.members, b.members):
        assert np.array_equal(ga.amps, gb.amps)


def test_span_class_one_dimensional():
    psi = np.array([[1.0, 0.0, 0.0]])
    cls = fc.generate_span_class(1, 1, psi, radius=1.0, count=4, seed=0,
                                 resolution=65)
    for p in fc.multi_indices(1, 1):
        arr = cls.grid(p)
        assert np.all(np.abs(arr[..., 1:]) < 1e-12)
        assert np.all(np.abs(arr[..., 0]) <= 1.0 + 1e-9)


def test_span_class_empty_basis_rejected():
    with pytest.raises(ValueError):
        fc.generate_span_class(1, 1, np.zeros((0, 3)), 1.0, 2, seed=0)


def test_span_class_dependent_basis_rejected():
    psi = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        fc.generate_span_class(1, 1, psi, 1.0, 2, seed=0)


def test_span_descriptors_compare_and_hash_by_identity():
    a, b = fc.SpanDescriptor(np.eye(2), 1.0), fc.SpanDescriptor(np.eye(2), 1.0)
    assert a == a and not a == b and a != b
    assert hash(a) != hash(b) and {a: 1}[a] == 1


def test_span_class_projection_residual():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((3, 10))
    cls = fc.generate_span_class(1, 2, psi, radius=2.0, count=20, seed=4,
                                 resolution=33)
    q, _ = np.linalg.qr(psi.T)
    for p in fc.multi_indices(1, 2):
        arr = cls.grid(p).reshape(-1, cls.d_y)
        resid = arr.T - q @ (q.T @ arr.T)
        assert np.max(np.linalg.norm(resid, axis=0)) <= 1e-9
    assert cls.validate_membership()


def test_smooth_output_rejects_order_zero():
    with pytest.raises(ValueError):
        fc.generate_smooth_output_class(1, 1, 1, 0, 1.0, 32, 2, seed=0)


def test_smooth_output_rejects_coarse_grid():
    with pytest.raises(ValueError):
        fc.generate_smooth_output_class(1, 1, 1, 3, 1.0, 3, 2, seed=0)


def test_smooth_output_finite_difference_slopes():
    cls = fc.generate_smooth_output_class(1, 1, 1, 1, 1.0, 32, 6, seed=2,
                                          resolution=33)
    desc = cls.b_descriptor
    h = 1.0 / 31
    grids = [cls.grid(p) for p in fc.multi_indices(1, 1)]
    for arr in grids:
        f = arr * math.sqrt(cls.d_y)
        slopes = np.diff(f, axis=-1) / h
        assert np.max(np.abs(slopes)) <= 1.05
    assert desc.max_difference_quotient(
        np.concatenate([grid[0] for grid in grids])) <= 1.05


def test_smooth_output_membership_reads_every_grid():
    # validate_membership checks every derivative grid through
    # SmoothOutputDescriptor.contains: the class passes, and a member scaled
    # past the bound's 5% tolerance fails
    cls = fc.generate_smooth_output_class(1, 1, 1, 2, 1.0, 8, 4, seed=2,
                                          resolution=33)
    assert cls.validate_membership()
    g = cls[1]
    worst = cls.b_descriptor.max_difference_quotient(
        np.concatenate([cls.grid(p)[1] for p in fc.multi_indices(1, 1)]))
    over = fc.FunctionClass(members=(cls[0], g.scaled(1.1 * 1.05 / worst)),
                            b_descriptor=cls.b_descriptor, d=1, m=1,
                            d_y=cls.d_y, resolution=33)
    assert not over.validate_membership()


def test_smooth_output_deterministic():
    a = fc.generate_smooth_output_class(1, 1, 1, 2, 1.0, 16, 5, seed=3,
                                        resolution=33)
    b = fc.generate_smooth_output_class(1, 1, 1, 2, 1.0, 16, 5, seed=3,
                                        resolution=33)
    assert np.array_equal(a.grid(), b.grid())


# ---------------------------------------------------------------- seminorms


def test_sup_norm_zero_and_constant():
    assert fc.sup_norm(zero_member(), 33) == 0.0
    c = constant_member([0.0, 2.0])
    assert fc.sup_norm(c, 65) == pytest.approx(2.0, abs=1e-12)


def test_sup_norm_sine_grid():
    g = sine_member()
    assert fc.sup_norm(g, 1025) == pytest.approx(1.0, abs=1e-4)


def test_sup_norm_dominates_lp_seminorm():
    # ||g||_{2,P_n} is the row norm of PointCloud.from_values
    cls = fc.generate_finite_dim_ball_class(1, 2, 2, 1.0, 8, seed=11,
                                            resolution=257)
    design = fc.EmpiricalDesign.uniform(60, 1, substream(0, 2))
    empirical = np.linalg.norm(
        PointCloud.from_values(cls.values_on(design)).points, axis=1)
    for g, norm in zip(cls.members, empirical):
        assert fc.sup_norm(g, cls.resolution) + 1e-9 >= norm


# ---------------------------------------------------------------- Taylor


def test_taylor_constant_function():
    c = constant_member([1.0, 2.0])
    rep = fc.taylor_remainder_check(c, [0.2], [0.5], k=1.0)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.ok


def test_taylor_cosine_hand_value():
    # order-1 expansion of cos(2 pi x) at 0: remainder is 1 - cos(2 pi h)
    g = fc.GridFunction.from_terms(1, 1, 1, np.array([[1]]),
                                   np.zeros((1, 1)), np.array([1.0]),
                                   np.array([[1.0]]))
    h = 0.25
    rep = fc.taylor_remainder_check(g, [0.0], [h])
    assert rep.lhs == pytest.approx(1.0 - math.cos(2 * math.pi * h), abs=1e-12)
    assert rep.rhs == pytest.approx(g.taylor_k * h ** 2 / 2.0, abs=1e-12)
    assert rep.ok


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_taylor_non_finite_bound_fails(k):
    # lhs 0 <= rhs would hold for k = inf; a bound that is not finite fails
    rep = fc.taylor_remainder_check(constant_member([1.0]), [0.2], [0.5], k=k)
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert not rep.ok


def test_taylor_segment_outside_cube_rejected():
    with pytest.raises(ValueError):
        fc.taylor_remainder_check(constant_member([1.0]), [0.8], [0.5])


def test_taylor_property_sweep():
    # random draws check the class-level bound K = d^{m+1} K_B
    for d, m in ((1, 1), (2, 2)):
        cls = fc.generate_finite_dim_ball_class(d, m, 3, 1.5, 10, seed=21,
                                                resolution=17)
        k_class = d ** (m + 1) * 1.5
        rng = substream(5, d, m)
        for _ in range(100):
            g = cls[int(rng.integers(0, len(cls)))]
            a = rng.uniform(0.0, 1.0, size=d)
            h = rng.uniform(-1.0, 1.0, size=d) * 0.3
            h = np.clip(a + h, 0.0, 1.0) - a
            rep = fc.taylor_remainder_check(g, a, h, k=k_class)
            assert rep.ok
            assert g.taylor_k <= k_class + 1e-9


# ------------------------------------------------------- moments / integrals


@pytest.mark.parametrize("d", [1, 2, 3])
def test_features_reproduce_member_values(d):
    cls = fc.generate_finite_dim_ball_class(d, 1, 2, 1.0, 6, seed=31 + d,
                                            resolution=9)
    rows, coefs = cls.features
    terms = sum(g.amps.size for g in cls.members)
    assert len(rows) <= 1 + min((2 * cls.width + 1) ** d, 2 ** d * terms)
    assert not rows[0].any() and len(np.unique(rows, axis=0)) == len(rows)
    x = substream(4, d).uniform(size=(50, d))
    tables = [np.vstack([np.ones(50), t]) for t in fc.trig_tables(x, cls.width)]
    phi = np.prod([t[r] for t, r in zip(tables, rows.T)], axis=0)
    assert np.array_equal(cls.features_on(fc.EmpiricalDesign(x)), phi.T)
    got = (phi.T @ coefs).reshape(50, len(cls), cls.d_y)
    want = cls.values_on(fc.EmpiricalDesign(x)).transpose(1, 0, 2)
    # both sides are chains of at most m roundings over terms of absolute
    # sum <= 2^{d/2} K_B (|cos| + |sin| <= sqrt 2 per axis), so they differ
    # by at most twice gamma_m of that (see the rounding argument in
    # test_empirical_process.rounding_tolerance)
    m = len(rows) + terms + 2 * cls.width + 3 * d + 4
    u = np.finfo(float).eps / 2
    assert np.allclose(got, want, rtol=0,
                       atol=2 * 2 ** (d / 2) * m * u / (1 - m * u))
    with pytest.raises(ValueError, match="class must be nonempty"):
        fc.generate_finite_dim_ball_class(d, 1, 2, 1.0, 0, seed=1).features


def per_member_features(cls):
    """FunctionClass.features built one member at a time: per member, one
    np.nonzero per axis over its own term matrices."""
    base = (2 * cls.width + 1) ** np.arange(cls.d)
    codes, owners, values = [], [], []
    for k, g in enumerate(cls.members):
        *axes, weights = g._coefficients((0,) * cls.d)
        if cls.d == 1:
            axes = [np.eye(len(weights))]
        term = np.arange(len(weights))
        code, factor = np.zeros(term.size, int), np.ones(term.size)
        for a, step in zip(axes, base):
            row, i = np.nonzero(a[:, term])
            code, term = code[i] + row * step, term[i]
            factor = factor[i] * a[row, term]
        codes.append(code)
        owners.append(np.full(term.size, k))
        values.append(factor[:, None] * weights[term])
    codes = np.concatenate(codes)
    active = np.union1d([0], codes)
    coefs = np.zeros((active.size, len(cls), cls.d_y))
    np.add.at(coefs, (np.searchsorted(active, codes), np.concatenate(owners)),
              np.concatenate(values))
    return active[:, None] // base % (2 * cls.width + 1), \
        coefs.reshape(active.size, -1)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_features_match_the_per_member_construction(d):
    cls = fc.generate_finite_dim_ball_class(d, 1, 3, 1.0, 12, seed=40 + d,
                                            resolution=9)
    # a member with a -0.0 output coordinate: its coefficients there are
    # -0.0 (d > 1) and np.add.at writes them as +0.0
    g = cls[3]
    dirs = g.dirs.copy()
    dirs[:, 1] = -0.0
    narrow = fc.GridFunction.from_terms(d, 1, 3, g.freqs[:1], g.phases[:1],
                                        g.amps[:1], g.dirs[:1])
    members = (*cls.members[:3], fc.GridFunction.from_terms(
        d, 1, 3, g.freqs, g.phases, g.amps, dirs), narrow, *cls.members[4:])
    cls = dataclasses.replace(cls, members=members)
    rows, coefs = cls.features
    want_rows, want_coefs = per_member_features(cls)
    assert np.array_equal(rows, want_rows)
    assert coefs.tobytes() == want_coefs.tobytes()
    assert not np.signbit(coefs[:, 3 * 3 + 1]).any()


def test_true_means_match_quadrature():
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 4, seed=13,
                                            resolution=65)
    xs = ((np.arange(200_000) + 0.5) / 200_000)[:, None]
    means = true_means(cls)
    for g, mean in zip(cls.members, means):
        quad = g.evaluate(xs).mean(axis=0)
        assert np.allclose(mean, quad, atol=1e-9)


def test_inner_uniform_matches_quadrature():
    cls = fc.generate_finite_dim_ball_class(1, 1, 2, 1.0, 3, seed=17,
                                            resolution=65)
    xs = ((np.arange(200_000) + 0.5) / 200_000)[:, None]
    vals = [g.evaluate(xs) for g in cls.members]
    for i in range(3):
        for j in range(3):
            quad = float(np.mean(np.sum(vals[i] * vals[j], axis=1)))
            assert fc.inner_uniform(cls[i], cls[j]) == pytest.approx(
                quad, abs=1e-9)


def test_l2_distance_uniform_2d():
    cls = fc.generate_finite_dim_ball_class(2, 1, 2, 1.0, 2, seed=19,
                                            resolution=9)
    side = 600
    grid = fc.grid_nodes(2, side + 1)[: (side + 1) ** 2]
    va, vb = cls[0].evaluate(grid), cls[1].evaluate(grid)
    quad = math.sqrt(np.mean(np.sum((va - vb) ** 2, axis=1)))
    exact = fc.l2_distance_uniform(cls[0], cls[1])
    assert exact == pytest.approx(quad, abs=5e-3)


def test_blend_members_stays_in_class():
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 4, seed=29,
                                            resolution=65)
    blend = fc.blend_members(cls[0], cls[1], 0.4)
    merged = fc.FunctionClass(members=(blend,), b_descriptor=cls.b_descriptor,
                              d=1, m=1, d_y=3, resolution=65)
    assert merged.validate_membership()
    mid = blend.evaluate(np.array([[0.3]]))
    direct = 0.6 * cls[0].evaluate(np.array([[0.3]])) \
        + 0.4 * cls[1].evaluate(np.array([[0.3]]))
    assert np.allclose(mid, direct, atol=1e-12)


def test_design_validation():
    with pytest.raises(ValueError):
        fc.EmpiricalDesign(np.array([[1.5]]))


def cos_product_terms(x, g, p):
    """D^p g as the product of the terms' own cosines, one angle per
    point, term and axis."""
    p = np.asarray(p, int)
    base = 2.0 * math.pi * g.freqs.astype(float)
    with np.errstate(divide="ignore"):
        factors = np.prod(np.where(p[None, :] > 0, base ** p[None, :], 1.0), axis=1)
    angle = base[None, :, :] * x[:, None, :] + g.phases[None, :, :] \
        + 0.5 * math.pi * p[None, None, :]
    return np.prod(np.cos(angle), axis=2) @ ((g.amps * factors)[:, None] * g.dirs)


def small_rate_pool():
    """Ten members of a rate pool: its scaled truth, five base members, and
    blends from its first and last shells."""
    pool = reg.default_rate_pool(base_count=6)
    return fc.FunctionClass(members=pool.members[:8] + pool.members[-2:],
                            b_descriptor=pool.b_descriptor, d=1, m=1,
                            d_y=pool.d_y, resolution=pool.resolution)


def kernel_cases():
    """Members of every kind the evaluation kernel serves."""
    for d, m in ((1, 2), (2, 2), (3, 1)):
        cls = fc.generate_finite_dim_ball_class(d=d, m=m, d_y=3, k_b=1.0,
                                                count=3, seed=5, resolution=5)
        yield f"ball d={d}", cls
    pool = small_rate_pool()
    assert pool.width == 8
    yield "rate pool", pool
    base = fc.generate_finite_dim_ball_class(2, 1, 2, 1.0, 2, seed=8,
                                             resolution=5)
    blend = fc.blend_members(base[0], base[1], 0.3)
    yield "blend", fc.FunctionClass(members=(blend,),
                                    b_descriptor=base.b_descriptor, d=2, m=1,
                                    d_y=2, resolution=5)


def test_kernel_matches_cos_product_formula():
    for name, cls in kernel_cases():
        x = substream(6, cls.d).uniform(size=(257, cls.d))
        for g in cls.members:
            for p in fc.multi_indices(cls.d, cls.m):
                np.testing.assert_allclose(g.evaluate_deriv(x, p),
                                           cos_product_terms(x, g, p),
                                           rtol=0, atol=1e-12, err_msg=name)
        nodes = fc.grid_nodes(cls.d, cls.resolution)
        for p in fc.multi_indices(cls.d, cls.m):
            for g, grid in zip(cls.members, cls.grid(p)):
                np.testing.assert_allclose(grid, cos_product_terms(nodes, g, p),
                                           rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("d", [1, 2])
def test_chunked_evaluation_matches_one_shot_formula(d):
    # a batch evaluated in pieces gives the bits of the batch at once, and
    # both agree with the one-shot cosine-product formula
    cls = fc.generate_finite_dim_ball_class(d=d, m=1, d_y=3, k_b=1.0, count=2,
                                            seed=5, resolution=9)
    x = substream(5, d).uniform(size=((1 << 14) + 1, d))
    pieces = np.array_split(x, [1000, 1 << 14])
    for g in cls.members:
        for p in fc.multi_indices(d, 1):
            whole = g.evaluate_deriv(x, p)
            chunked = np.concatenate([g.evaluate_deriv(c, p) for c in pieces])
            assert np.array_equal(whole, chunked)
            np.testing.assert_allclose(whole, cos_product_terms(x, g, p),
                                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 33, 5000])
def test_class_tables_give_the_member_values_bitwise(n):
    # the class's shared tables, wider than a member's own frequencies,
    # change no bit, for the values and for every derivative
    for name, cls in kernel_cases():
        x = substream(7, cls.d, n).uniform(size=(n, cls.d))
        design = fc.EmpiricalDesign(x)
        stacked = cls.values_on(design)
        for k, g in enumerate(cls.members):
            assert np.array_equal(stacked[k], g.evaluate(x)), name
        for p in fc.multi_indices(cls.d, cls.m):
            stacked = cls.values_on(design, p)
            for k, g in enumerate(cls.members):
                assert np.array_equal(stacked[k], g.evaluate_deriv(x, p)), name


SPAN_PSI = np.array([[1.0, 0.0, 0.5, 0.0], [0.0, 1.0, -0.5, 2.0]])


def class_digest(cls) -> str:
    """sha256 of a class's shape, then per member its terms and every
    derivative grid in multi_indices order, as little-endian float64."""
    h = hashlib.sha256(json.dumps([cls.d, cls.m, cls.d_y, cls.resolution,
                                   [int(g.amps.size) for g in cls.members]]
                                  ).encode())
    grids = [cls.grid(p) for p in fc.multi_indices(cls.d, cls.m)]
    for k, g in enumerate(cls.members):
        for arr in (g.freqs.astype(float), g.phases, g.amps, g.dirs,
                    *(grid[k] for grid in grids)):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("make, sha", [
    pytest.param(lambda: fc.generate_finite_dim_ball_class(
        2, 1, 3, 1.0, 12, seed=7, resolution=17),
        "30996469fac363fce0def55af1d10a2c85146d8b19afdf01279b02eb04bdebba",
        id="ball"),
    pytest.param(
        reg.default_rate_pool,
        "7b49b55745392bbce9d44cc6e621b23f79157720209e97d3ce9d2e4c07974ae9",
        id="rate_pool"),
    pytest.param(lambda: fc.generate_span_class(
        2, 1, SPAN_PSI, radius=1.5, count=6, seed=7, resolution=17),
        "7dbc7beaf6a8854817156a374a9377442c816ee764d6e64d14b8dcf5ecfa5321",
        id="span"),
    pytest.param(lambda: fc.generate_smooth_output_class(
        1, 2, 1, 2, 1.0, 8, 6, seed=7, resolution=65),
        "d2eb8214f888fb64883f5765183d167e194eddf99f6fec385ad65397d2513709",
        id="smooth_output"),
])
def test_seeded_classes_keep_their_bytes(make, sha):
    # a seed names one class: its draws, including the amplitude signs, must
    # not follow changes to the Monte-Carlo samplers, and its grids must not
    # follow changes to how or when they are tabulated
    assert class_digest(make()) == sha


def test_building_a_class_tabulates_no_grid():
    # 200 members' values and derivatives of order <= 2 on 1025 nodes would
    # take 14.8 MB; a member holds only its terms
    tracemalloc.start()
    try:
        cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 200, seed=5,
                                                resolution=1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cls) == 200
    assert peak < 2_000_000


def test_a_member_holds_only_its_terms():
    # the grid belongs to the class: after the cover check has evaluated
    # every member of a shared cell on it, a member still holds only its
    # terms and the coefficient matrices it evaluates with
    assert [f.name for f in dataclasses.fields(fc.GridFunction)] == [
        "d", "m", "d_y", "freqs", "phases", "amps", "dirs", "_coefs"]
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 200, seed=3)
    plan = build_smooth_cover(cls, 0.1)
    assert verify_cover_validity(cls, plan).pairs_checked > 0
    for g in cls.members:
        assert set(vars(g)) == {"d", "m", "d_y", "freqs", "phases", "amps",
                                "dirs", "_coefs"}
        assert set(g._coefs) == {(0,)}


def test_class_grid_is_values_on_the_grid_bitwise():
    # grid(p) evaluates every member on the class's grid nodes, with the
    # bits of values_on there and of each member's own evaluate_deriv
    for name, cls in kernel_cases():
        nodes = fc.grid_nodes(cls.d, cls.resolution)
        design = fc.EmpiricalDesign(nodes)
        assert np.array_equal(cls.grid(), cls.grid((0,) * cls.d)), name
        for p in fc.multi_indices(cls.d, cls.m):
            grid = cls.grid(p)
            assert grid.shape == (len(cls), len(nodes), cls.d_y), name
            assert np.array_equal(grid, cls.values_on(design, p)), name
            for g, values in zip(cls.members, grid):
                assert np.array_equal(values, g.evaluate_deriv(nodes, p)), name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_output_column_does_not_depend_on_the_batch(d):
    # with one point, d_Y = 1 or one term, a product would take BLAS's
    # matrix-vector path, which rounds a row by the batch size: a point's
    # value and derivatives must not depend on how many points its call has,
    # through a member or through its class
    x = substream(9, d).uniform(size=(3001, d))
    for d_y, n_terms in itertools.product((1, 3), (1, 6)):
        cls = fc.generate_finite_dim_ball_class(d, 1, d_y, 1.0, 3, seed=5,
                                                resolution=5, n_terms=n_terms)
        members = cls.members
        if n_terms == 1:    # frequencies from 0, constant terms included
            for seed in range(4):
                rng = substream(seed, 77, d)
                members += (fc.GridFunction.from_terms(
                    d, 1, d_y, rng.integers(0, 4, (1, d)),
                    rng.uniform(0, 6.3, (1, d)), rng.uniform(0.2, 1.0, 1),
                    rng.standard_normal((1, d_y))),)
        cls = fc.FunctionClass(members=members, b_descriptor=cls.b_descriptor,
                               d=d, m=1, d_y=d_y, resolution=5)
        for p in fc.multi_indices(d, 1):
            stacked = cls.values_on(fc.EmpiricalDesign(x), p)
            for row in (1, 2, 3, 17, 1000):
                pieces = [cls.values_on(fc.EmpiricalDesign(c), p)
                          for c in np.split(x, [row])]
                assert np.array_equal(np.concatenate(pieces, axis=1), stacked)
            for g, whole in zip(cls.members, stacked):
                assert np.array_equal(g.evaluate_deriv(x, p), whole)
                for row in (2, 3, 17, 256, 1000):
                    halves = [g.evaluate_deriv(c, p) for c in np.split(x, [row])]
                    assert np.array_equal(np.concatenate(halves), whole)
                singles = [g.evaluate_deriv(x[i:i + 1], p) for i in range(50)]
                assert np.array_equal(np.concatenate(singles), whole[:50])
