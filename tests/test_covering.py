import itertools
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from vecproc import covering as cov
from vecproc import entropy_bounds as eb
from vecproc import function_class as fc
from vecproc.rng import substream

from test_function_class import kernel_cases


def brute_force_min_cover(cloud, delta):
    """Independent oracle: smallest center subset covering the cloud under
    its distances_to rows."""
    rows = np.stack([cloud.distances_to(j) for j in range(cloud.size)])
    for k in range(1, cloud.size + 1):
        for centers in itertools.combinations(range(cloud.size), k):
            if np.all(rows[list(centers)].min(axis=0) <= delta):
                return k


def test_greedy_single_point():
    cloud = cov.PointCloud(np.array([[0.3, 0.3]]))
    res = cov.greedy_cover(cloud, 0.1)
    assert res.size == 1 and res.is_valid()


def test_greedy_three_points_on_line():
    cloud = cov.PointCloud(np.array([[0.0], [0.5], [1.0]]))
    res = cov.greedy_cover(cloud, 0.5)
    assert res.is_valid()
    assert res.size <= 2
    assert cov.exact_cover_number(cloud, 0.5) == 1


def test_greedy_random_cloud_validity():
    rng = substream(0, 3)
    cloud = cov.PointCloud(rng.uniform(size=(100, 3)))
    res = cov.greedy_cover(cloud, 0.2)
    assert res.is_valid()
    # every point's assigned center really is within the radius
    for i, c in enumerate(res.assignment):
        center = cloud.points[res.center_indices[c]]
        assert np.linalg.norm(cloud.points[i] - center) <= 0.2 * (1 + 1e-12)


def test_greedy_rejects_bad_delta():
    cloud = cov.PointCloud(np.zeros((2, 1)))
    with pytest.raises(ValueError):
        cov.greedy_cover(cloud, 0.0)


def test_greedy_rejects_bad_start_and_finer_radius():
    cloud = cov.PointCloud(np.array([[0.0], [1.0]]))
    for start in (-1, 2):
        with pytest.raises(ValueError):
            cov.greedy_cover(cloud, 0.5, start=start)
    for starts in ([0, 2], [1, 0, -1]):
        with pytest.raises(ValueError):
            cov._greedy_traversal(cloud, 0.5, starts)
    with pytest.raises(ValueError):
        cov.greedy_cover(cloud, 0.5).size_at(0.25)


def test_exact_two_points():
    cloud = cov.PointCloud(np.array([[0.0], [1.0]]))
    assert cov.exact_cover_number(cloud, 1.0) == 1
    assert cov.exact_cover_number(cloud, 0.4) == 2


def test_exact_cloud_size_cap():
    cloud = cov.PointCloud(np.zeros((21, 1)))
    with pytest.raises(ValueError):
        cov.exact_cover_number(cloud, 0.5)


def test_exact_matches_brute_force_and_bounds_greedy():
    rng = substream(1, 7)
    for trial in range(10):
        pts = rng.uniform(size=(9, 2))
        cloud = cov.PointCloud(pts)
        for delta in (0.15, 0.25, 0.4, 0.6, 0.9):
            exact = cov.exact_cover_number(cloud, delta)
            assert exact == brute_force_min_cover(cloud, delta)
            assert exact <= cov.greedy_cover(cloud, delta).size


def test_exact_cover_reads_the_rows_at_a_tie():
    # far from the origin the GEMM-form matrix rounds this tie the other way
    cloud = cov.PointCloud(np.array([[0.8, 0.1, 0.0], [0.8, 0.0, 0.5],
                                     [0.0, 0.2, 0.4]]) + 1e4)
    delta = min(cloud.distances_to(j).max() for j in range(3))
    assert cov.exact_cover_number(cloud, delta) == 1


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 8), st.floats(2.0, 6.0),
       st.data())
@settings(max_examples=60, deadline=None)
def test_exact_cover_matches_brute_force_at_ties_far_from_origin(
        seed, size, log_offset, data):
    cloud = cov.PointCloud(np.random.default_rng(seed).uniform(size=(size, 3))
                           + 10.0 ** log_offset)
    ties = sorted({float(v) for j in range(size)
                   for v in cloud.distances_to(j) if v > 0})
    delta = data.draw(st.sampled_from(ties))
    assert cov.exact_cover_number(cloud, delta) == \
        brute_force_min_cover(cloud, delta)


def test_packing_sandwich():
    rng = substream(2, 11)
    for trial in range(10):
        pts = rng.uniform(size=(10, 2))
        cloud = cov.PointCloud(pts)
        for delta in (0.2, 0.35, 0.5):
            n_delta = cov.exact_cover_number(cloud, delta)
            packing = cov.max_packing_size(cloud, delta)
            n_half = cov.exact_cover_number(cloud, delta / 2)
            assert n_delta <= packing <= n_half


@pytest.mark.parametrize("delta", [math.nan, -1.0, 0.0, math.inf])
def test_packing_rejects_bad_delta(delta):
    # a NaN radius compares false everywhere and would pack every point
    cloud = cov.PointCloud(np.array([[0.0], [0.1], [0.2]]))
    for count in (cov.max_packing_size, cov.exact_cover_number):
        with pytest.raises(ValueError, match="delta must be positive"):
            count(cloud, delta)


def test_entropy_modes():
    singleton = cov.PointCloud(np.array([[0.0, 0.0]]))
    assert cov.entropy(singleton, 0.3) == 0.0
    pair = cov.PointCloud(np.array([[0.0], [1.0]]))
    assert cov.entropy(pair, 0.4) == pytest.approx(math.log(2))
    exact = cov.exact_cover_number(pair, 0.4)
    assert cov.entropy(pair, 0.4) == math.log(exact)


def test_entropy_monotone_in_delta():
    rng = substream(3, 13)
    cloud = cov.PointCloud(rng.uniform(size=(60, 2)))
    deltas = np.geomspace(0.5, 0.02, 10)
    ent = [cov.entropy(cloud, d) for d in deltas]
    assert all(a <= b + 1e-12 for a, b in zip(ent, ent[1:]))


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14),
       st.floats(0.05, 1.5), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_greedy_cover_properties_random(seed, size, delta, dim):
    rng = np.random.default_rng(seed)
    cloud = cov.PointCloud(rng.uniform(size=(size, dim)))
    res = cov.greedy_cover(cloud, delta)
    assert res.is_valid()
    # centers are pairwise more than delta apart (greedy picks uncovered pts)
    centers = cloud.points[res.center_indices]
    if len(centers) > 1:
        dm = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(dm, np.inf)
        assert dm.min() > delta
    assert cov.exact_cover_number(cloud, delta) <= res.size


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 10), st.floats(0.1, 0.8))
@settings(max_examples=40, deadline=None)
def test_entropy_halving_sandwich_random(seed, size, delta):
    # N(delta) <= packing(delta) <= N(delta/2) for any finite metric set
    rng = np.random.default_rng(seed)
    cloud = cov.PointCloud(rng.uniform(size=(size, 2)))
    n_delta = cov.exact_cover_number(cloud, delta)
    packing = cov.max_packing_size(cloud, delta)
    n_half = cov.exact_cover_number(cloud, delta / 2)
    assert n_delta <= packing <= n_half


def _cloud(rng, size, metric):
    if metric == "sup":
        return cov.PointCloud(rng.uniform(size=(size, 4, 2)), metric="sup")
    cloud = cov.PointCloud(rng.uniform(size=(size, 2)))
    if metric == "matrix":
        return cov.PointCloud(cloud.distance_matrix(), metric="matrix")
    return cloud


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from(["euclidean", "sup", "matrix"]), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_cover_is_prefix_of_finest(seed, size, metric, data):
    # a greedy cover at r is the first size_at(r) centers of the same-start
    # cover at any finer radius, also at r equal to an insertion radius
    cloud = _cloud(np.random.default_rng(seed), size, metric)
    start = data.draw(st.integers(0, size - 1))
    radii = sorted(data.draw(st.lists(st.floats(0.01, 2.0), min_size=1,
                                      max_size=8)), reverse=True)
    fine = cov.greedy_cover(cloud, radii[-1], start=start)
    assert fine.center_indices[0] == start
    assert fine.size_at(radii[-1]) == fine.size
    for r in radii + [float(v) for v in fine.insertion_radii[1:]]:
        coarse = cov.greedy_cover(cloud, r, start=start)
        assert np.array_equal(fine.center_indices[:fine.size_at(r)],
                              coarse.center_indices)


def greedy_cover_one_start(cloud, delta, start=0):
    """The one-start farthest-point loop greedy_cover ran before its
    traversal advanced several starts in lockstep."""
    centers, radii = [start], [math.inf]
    mindist = cloud.distances_to(start)
    nearest = np.zeros(cloud.size, dtype=int)
    while True:
        far = int(np.argmax(mindist))
        if mindist[far] <= delta:
            break
        centers.append(far)
        radii.append(float(mindist[far]))
        dist = cloud.distances_to(far)
        closer = dist < mindist
        nearest[closer] = len(centers) - 1
        mindist = np.where(closer, dist, mindist)
    return cov.CoverResult(radius=float(delta),
                           center_indices=np.array(centers),
                           assignment=nearest, assignment_dist=mindist,
                           insertion_radii=np.array(radii))


def assert_same_cover(got, want):
    assert got.radius == want.radius
    for name in ("center_indices", "assignment", "assignment_dist",
                 "insertion_radii"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _traversal_cloud(rng, size, kind):
    """Clouds with duplicate points and exact distance ties: coordinates on
    a coarse integer grid, scaled, and repeated rows."""
    if kind == "sup":
        pts = rng.integers(0, 4, size=(size, 3, 2)) / 4.0
        return cov.PointCloud(pts, metric="sup")
    width = 2 if kind == "matrix" else kind
    pts = rng.integers(0, 4, size=(size, width)) / 4.0
    pts[rng.integers(0, size, size // 3)] = pts[0]       # duplicates
    cloud = cov.PointCloud(pts)
    if kind == "matrix":
        return cov.PointCloud(cloud.distance_matrix(), metric="matrix")
    return cloud


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40),
       st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 11, "sup", "matrix"]),
       st.floats(0.05, 1.2), st.data())
@settings(max_examples=150, deadline=None)
def test_lockstep_traversal_matches_one_start_loops(seed, size, kind, delta,
                                                    data):
    # each start's cover equals the plain one-start loop in all five
    # fields, bitwise, whichever other starts share its traversal and
    # whenever they finish; repeated starts are allowed
    cloud = _traversal_cloud(np.random.default_rng(seed), size, kind)
    starts = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                max_size=9))
    covers = cov._greedy_traversal(cloud, delta, starts)
    assert len(covers) == len(starts)
    for start, cover in zip(starts, covers):
        want = greedy_cover_one_start(cloud, delta, start)
        assert_same_cover(cover, want)
        assert_same_cover(cov.greedy_cover(cloud, delta, start=start), want)
    if len({c.size for c in covers}) > 1:
        event("starts finish at different steps")


def test_distance_rows_are_the_distances_to_rows():
    # the block path (several rows of a narrow euclidean cloud) and the
    # stacked path give each row bitwise
    rng = substream(5, 2)
    for width in (1, 4, 7, 8, 12):
        cloud = cov.PointCloud(rng.uniform(-3.0, 3.0, size=(257, width)))
        picks = [0, 256, 17, 17, 100]
        want = np.stack([cloud.distances_to(i) for i in picks])
        for rows in (picks, np.array(picks), picks[:1]):
            got = cloud.distance_rows(rows)
            assert np.array_equal(got, want[:len(got)]), width
    sup = cov.PointCloud(rng.uniform(size=(20, 5, 3)), metric="sup")
    matrix = cov.PointCloud(sup.distance_matrix(), metric="matrix")
    for cloud in (sup, matrix):
        assert np.array_equal(cloud.distance_rows([3, 9]),
                              np.stack([cloud.distances_to(i) for i in (3, 9)]))


def test_matrix_metric_cloud():
    rng = substream(4, 17)
    pts = rng.uniform(size=(15, 3))
    direct = cov.PointCloud(pts)
    viamat = cov.PointCloud(direct.distance_matrix(), metric="matrix")
    for d in (0.2, 0.4):
        assert cov.greedy_cover(direct, d).size == cov.greedy_cover(viamat, d).size
        assert cov.exact_cover_number(direct, d) == cov.exact_cover_number(viamat, d)


_ISOMETRY_PSI = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])


def _isometry_class(kind, d, count):
    max_freq = 3 if d < 4 else 1
    if kind == "ball":
        return fc.generate_finite_dim_ball_class(d, 1, 3, 1.0, count, seed=5,
                                                 resolution=5,
                                                 max_freq=max_freq)
    if kind == "span":
        return fc.generate_span_class(d, 1, _ISOMETRY_PSI, 1.0, count, seed=5,
                                      resolution=5, max_freq=max_freq)
    return fc.generate_smooth_output_class(d, 1, 1, 1, 1.0, 8, count, seed=5,
                                           resolution=5,
                                           max_freq=min(max_freq, 2))


@pytest.mark.parametrize("count", [2, 40])
@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("kind", ["ball", "span", "smooth_output"])
def test_empirical_cloud_is_isometric_to_the_values(kind, d, count):
    # 40 members always have fewer features than K d_Y coordinates; two
    # members do only at d = 1 with d_Y = 4 (span) or 8 (smooth output)
    cls = _isometry_class(kind, d, count)
    f = len(cls.features[0])
    coords = count == 40 or (d == 1 and kind != "ball")
    assert coords == (f < count * cls.d_y)
    for n in (max(1, f // 2), 3 * f):          # n < F and n > F
        design = fc.EmpiricalDesign(substream(3, d, n).uniform(size=(n, d)))
        cloud = cov.PointCloud.from_empirical(cls, design)
        assert cloud.points.shape == (count, (min(n, f) if coords else n)
                                      * cls.d_y)
        got = cloud.distance_matrix()
        want = cov.PointCloud.from_values(cls.values_on(design)) \
            .distance_matrix()
        assert np.all(np.abs(got - want) <= 1e-13 * want.max())
        if not coords:
            assert np.array_equal(got, want)


# ------------------------------------------------------------ smooth covers


def test_smooth_cover_constants_example():
    k1, cap_delta, n_side, big_l = cov.smooth_cover_constants(1, 1, 1.0, 0.1)
    assert k1 == 1.0
    assert cap_delta == pytest.approx(0.025)
    assert big_l == 40
    # first level radius delta_0 = delta / (2 e^d)
    cls = fc.generate_finite_dim_ball_class(1, 1, 2, 1.0, 2, seed=0,
                                            resolution=65)
    plan = cov.build_smooth_cover(cls, 0.1)
    assert plan.level_radii[0] == pytest.approx(0.1 / (2 * math.e))
    assert plan.n_net == 40


def test_smooth_cover_single_constant_member():
    g = fc.GridFunction.from_terms(1, 1, 2, np.zeros((1, 1), int),
                                   np.zeros((1, 1)), np.array([0.5]),
                                   np.array([[1.0, 0.0]]))
    cls = fc.FunctionClass(members=(g,), b_descriptor=fc.BallDescriptor(1.0),
                           d=1, m=1, d_y=2, resolution=65)
    plan = cov.build_smooth_cover(cls, 0.2)
    assert plan.occupied_cell_count() == 1


def test_smooth_cover_rejects_large_delta():
    cls = fc.generate_finite_dim_ball_class(1, 1, 2, 1.0, 2, seed=0,
                                            resolution=65)
    with pytest.raises(ValueError):
        cov.build_smooth_cover(cls, 1.0)


def _twin_class(count, seed, resolution=257, eps=1e-3):
    """Half random members, half slightly perturbed copies: guarantees
    same-signature pairs so validity is checked non-vacuously."""
    base = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, count, seed,
                                             resolution=resolution)
    members = list(base.members)
    twins = []
    for g in members[: count // 2]:
        twins.append(fc.GridFunction.from_terms(
            g.d, g.m, g.d_y, g.freqs, g.phases,
            g.amps * (1.0 - eps), g.dirs))
    return fc.FunctionClass(members=tuple(members + twins),
                            b_descriptor=base.b_descriptor, d=1, m=2, d_y=3,
                            resolution=resolution)


def test_smooth_cover_same_signature_implies_close():
    cls = _twin_class(30, seed=31)
    plan = cov.build_smooth_cover(cls, 0.1)
    report = cov.verify_cover_validity(cls, plan)
    assert report.pairs_checked > 0
    assert report.ok
    assert report.max_violation <= 1.0


def test_smooth_cover_cells_grow_as_delta_shrinks():
    cls = _twin_class(30, seed=37)
    occupied = []
    for delta in (0.2, 0.1, 0.05):
        plan = cov.build_smooth_cover(cls, delta)
        occupied.append(plan.occupied_cell_count())
        assert cov.verify_cover_validity(cls, plan).ok
    assert occupied[0] <= occupied[-1]


def test_smooth_cover_cell_assignment_is_first_cover():
    cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 20, seed=41,
                                            resolution=129)
    plan = cov.build_smooth_cover(cls, 0.1)
    p_list = fc.multi_indices(1, 1)
    keys = plan.signature_keys
    for col in (0, len(keys) // 2, len(keys) - 1):
        l, p = keys[col]
        level = plan.level_covers[sum(p)]
        radius = level.radius / 2.0
        x = plan.net_points[l][None, :]
        for member, cell in enumerate(plan.signatures[:, col]):
            val = cls[member].evaluate_deriv(x, p)[0]
            dists = np.linalg.norm(level.centers - val, axis=1)
            # the assigned cell is the first ball containing the value
            assert dists[cell] <= radius * (1 + 1e-9)
            assert np.all(dists[:cell] > radius * (1 - 1e-12))


def test_smooth_cover_entropy_below_closed_form_bounds():
    cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 50, seed=43,
                                            resolution=257)
    for delta in (0.1, 0.05):
        plan = cov.build_smooth_cover(cls, delta)
        log_occ = math.log(plan.occupied_cell_count())
        assert log_occ <= eb.bound_assouad(1, 2, 1.0, delta, 5.0 ** 3, 3.0)
        assert log_occ <= eb.bound_box(1, 2, 1.0, delta, 3.0)
        assert log_occ <= eb.bound_exp(1, 2, 1.0, delta, 9.0, 1.0)


def test_smooth_cover_two_dimensional_inputs():
    cls = fc.generate_finite_dim_ball_class(2, 1, 3, 1.0, 12, seed=3,
                                            resolution=17)
    k1, cap_delta, n_side, big_l = cov.smooth_cover_constants(2, 1, 1.0, 0.4)
    plan = cov.build_smooth_cover(cls, 0.4)
    assert plan.n_net == big_l == n_side ** 2
    assert cov.verify_cover_validity(cls, plan).ok
    # row-major net ordering: every net point has an axis-predecessor within
    # the net spacing (the ordering the construction relies on)
    side = 1.0 / n_side
    for l in range(1, plan.n_net):
        dists = np.linalg.norm(plan.net_points[:l] - plan.net_points[l], axis=1)
        assert dists.min() <= side + 1e-12 <= cap_delta


def verify_cover_validity_pairwise(cls, plan):
    """The per-pair loop verify_cover_validity replaced: (pairs, worst)."""
    pairs, worst = 0, 0.0
    values = cls.grid()
    for group in plan.groups():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                diff = values[group[a]] - values[group[b]]
                dist = float(np.max(np.linalg.norm(diff, axis=1)))
                worst = max(worst, dist / plan.delta)
                pairs += 1
    return pairs, worst


def first_cover_assign_per_center(points, centers, radius):
    """The per-center loop with np.linalg.norm that _first_cover_assign
    replaced."""
    cells = np.full(points.shape[0], -1, dtype=int)
    remaining = np.arange(points.shape[0])
    for j, c in enumerate(centers):
        d = np.linalg.norm(points[remaining] - c, axis=1)
        hit = d <= radius * (1 + 1e-12)
        cells[remaining[hit]] = j
        remaining = remaining[~hit]
    return cells


COVER_REFERENCE_CASES = [
    (lambda: _twin_class(30, seed=31), 0.1),
    (lambda: fc.generate_finite_dim_ball_class(2, 1, 3, 1.0, 12, seed=3,
                                               resolution=17), 0.4),
]


@pytest.mark.parametrize("make, delta", COVER_REFERENCE_CASES)
def test_cover_rows_match_the_pairwise_and_per_center_loops(make, delta):
    cls = make()
    plan = cov.build_smooth_cover(cls, delta)
    report = cov.verify_cover_validity(cls, plan)
    pairs, worst = verify_cover_validity_pairwise(cls, plan)
    assert pairs > 0
    assert (report.pairs_checked, report.max_violation) == (pairs, worst)
    column = {key: col for col, key in enumerate(plan.signature_keys)}
    for p in fc.multi_indices(cls.d, cls.m - 1):
        level = plan.level_covers[sum(p)]
        net_vals = np.stack([g.evaluate_deriv(plan.net_points, p)
                             for g in cls.members]).reshape(-1, cls.d_y)
        want = first_cover_assign_per_center(net_vals, level.centers,
                                             level.radius / 2.0)
        got = cov._first_cover_assign(net_vals, level.centers,
                                      level.radius / 2.0)
        assert np.array_equal(got, want)
        cells = [column[l, p] for l in range(plan.n_net)]
        assert np.array_equal(plan.signatures[:, cells].reshape(-1), want)


def test_blocked_cell_assignment_edges():
    # 40 centers 0.5 apart span three blocks; a value exactly at
    # radius (1 + 1e-12) from a center is inside, the next float is not,
    # and a value inside two balls, here across a block boundary, takes
    # the first
    radius = 0.3
    reach = radius * (1 + 1e-12)
    centers = 0.5 * np.arange(40.0)[:, None]
    points = np.array([[3.0 + reach], [np.nextafter(3.0 + reach, 9.0)],
                       [7.75], [7.9], [15.8], [19.5], [0.0]])
    assert points[0, 0] - 3.0 == reach
    points = np.vstack([points, centers[::-1]])
    got = cov._first_cover_assign(points, centers, radius)
    assert np.array_equal(got, first_cover_assign_per_center(points, centers,
                                                             radius))
    assert list(got[:7]) == [6, 7, 15, 16, 31, 39, 0]
    assert np.array_equal(got[7:], np.arange(40)[::-1])
    # at radius 1.2 every value lies in several balls
    wide = cov._first_cover_assign(points, centers, 1.2)
    assert np.array_equal(wide, first_cover_assign_per_center(points, centers,
                                                              1.2))
    assert wide[2] == 14
    with pytest.raises(RuntimeError, match="does not cover its own sample"):
        cov._first_cover_assign(np.array([[0.0], [1.5]]), centers[:1], 1.0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 60),
       st.sampled_from([1, 2, 3, 7, 8, 10]), st.floats(0.05, 0.6))
@settings(max_examples=80, deadline=None)
def test_blocked_cell_assignment_matches_the_per_center_loop(
        seed, n_points, n_centers, width, radius):
    rng = np.random.default_rng(seed)
    points = np.round(rng.uniform(size=(n_points, width)) * 4) / 4
    centers = np.vstack([np.round(rng.uniform(size=(n_centers, width)) * 4) / 4,
                         points])       # every point is some center
    want = first_cover_assign_per_center(points, centers, radius)
    assert np.array_equal(cov._first_cover_assign(points, centers, radius),
                          want)


def _triplet_class(base, eps=1e-3):
    """Each member of base with copies scaled by 1 + eps and 1 - eps: in a
    shared cell the worst pair is the two copies, not the first member."""
    members = []
    for g in base.members:
        members += [g, g.scaled(1.0 + eps), g.scaled(1.0 - eps)]
    return fc.FunctionClass(members=tuple(members),
                            b_descriptor=base.b_descriptor, d=base.d,
                            m=base.m, d_y=base.d_y,
                            resolution=base.resolution)


def _verify_cases():
    for name, cls in kernel_cases():
        for delta in (0.9, 0.5, 0.2):
            if cls.d < 3 or delta == 0.9:      # d = 3 nets grow as delta^-3
                yield name, cls, delta
    triplets = _triplet_class(fc.generate_finite_dim_ball_class(
        1, 1, 3, 1.0, 12, seed=7, resolution=129))
    for delta in (0.3, 0.1):
        yield "triplets", triplets, delta
    yield "twins", _twin_class(30, seed=31), 0.1


def test_pruned_cover_check_matches_the_pairwise_loop():
    # a pair the triangle bound clears still counts as checked, and the
    # maximum over the pairs that get their own row is bitwise the maximum
    # over all pairs
    shared = 0
    for name, cls, delta in _verify_cases():
        plan = cov.build_smooth_cover(cls, delta)
        report = cov.verify_cover_validity(cls, plan)
        pairs, worst = verify_cover_validity_pairwise(cls, plan)
        assert report.pairs_checked == pairs, (name, delta)
        assert report.max_violation == worst, (name, delta)
        shared += pairs > 0
    assert shared >= 5


def test_triplet_cells_have_their_worst_pair_after_the_first_member():
    cls = _triplet_class(fc.generate_finite_dim_ball_class(
        1, 1, 3, 1.0, 12, seed=7, resolution=129))
    plan = cov.build_smooth_cover(cls, 0.1)
    grid = cls.grid()
    later = 0
    for group in plan.groups():
        if len(group) < 3:
            continue
        sup = {(a, b): np.max(np.linalg.norm(grid[a] - grid[b], axis=1))
               for i, a in enumerate(group) for b in group[i + 1:]}
        later += group[0] not in max(sup, key=sup.get)
    assert later > 0


def test_cover_check_bound_clears_most_pairs(monkeypatch):
    # at benchmark-like sizes most same-cell pairs never get a grid row
    cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 200, seed=3,
                                            resolution=257)
    plan = cov.build_smooth_cover(cls, 0.1)
    rows = []
    real = cov.distances

    def counting(a, b):
        out = real(a, b)
        rows.append(len(out))
        return out

    monkeypatch.setattr(cov, "distances", counting)
    report = cov.verify_cover_validity(cls, plan)
    assert report.ok and report.pairs_checked > 100
    assert sum(rows) < report.pairs_checked / 2


def test_nan_grid_value_fails_the_cover_check():
    # a NaN amplitude makes a member's grid values NaN; checked against the
    # plan of the finite class, that must fail the check, not drop out of
    # the maximum
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 200, seed=3)
    plan = cov.build_smooth_cover(cls, 0.1)
    assert cov.verify_cover_validity(cls, plan).ok
    shared = next(group for group in plan.groups() if len(group) > 1)
    g = cls[shared[0]]
    bad = fc.GridFunction.from_terms(g.d, g.m, g.d_y, g.freqs, g.phases,
                                     np.where(np.arange(g.amps.size) == 0,
                                              np.nan, g.amps), g.dirs)
    members = list(cls.members)
    members[shared[0]] = bad
    cls = fc.FunctionClass(members=tuple(members),
                           b_descriptor=cls.b_descriptor, d=1, m=1, d_y=3,
                           resolution=cls.resolution)
    report = cov.verify_cover_validity(cls, plan)
    assert math.isnan(report.max_violation)
    assert not report.ok


def test_sup_and_matrix_distance_matrices_read_the_rows():
    vals = substream(3).uniform(size=(5, 4, 2))
    want = np.array([[np.max(np.linalg.norm(a - b, axis=-1)) for b in vals]
                     for a in vals])
    assert np.array_equal(cov.PointCloud(vals, metric="sup").distance_matrix(),
                          want)
    matrix = cov.PointCloud(want, metric="matrix")
    assert np.array_equal(matrix.distance_matrix(), want)
    assert np.array_equal(matrix.subset([3, 1]).points, want[np.ix_([3, 1],
                                                                    [3, 1])])


def test_greedy_cover_deterministic():
    rng = substream(9, 1)
    pts = rng.uniform(size=(50, 2))
    a = cov.greedy_cover(cov.PointCloud(pts), 0.2)
    b = cov.greedy_cover(cov.PointCloud(pts.copy()), 0.2)
    assert np.array_equal(a.center_indices, b.center_indices)
    assert np.array_equal(a.assignment, b.assignment)
