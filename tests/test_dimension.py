import itertools
import math

import numpy as np
import pytest

from vecproc import dimension as dim
from vecproc.covering import PointCloud, greedy_cover
from vecproc.rng import substream


def line_cloud(n=1024):
    t = np.linspace(0.0, 1.0, n)
    return PointCloud(np.stack([t, np.zeros(n), np.zeros(n)], axis=1))


def square_cloud(side=64):
    g = (np.arange(side) + 0.5) / side
    xx, yy = np.meshgrid(g, g)
    return PointCloud(np.stack([xx.ravel(), yy.ravel()], axis=1))


def spread_entropy(cloud, delta):
    # log of the smallest greedy cover at delta over eight spread starts
    return math.log(min(greedy_cover(cloud, delta, start=int(s)).size
                        for s in dim._spread_starts(cloud, 8)))


def brute_force_min_cover(dm, delta):
    n = dm.shape[0]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if np.all(dm[:, centers].min(axis=1) <= delta * (1 + 1e-12)):
                return k
    return n


def test_single_point_slope_zero():
    cloud = PointCloud(np.array([[0.2, 0.7]]))
    fit = dim.box_dimension_estimate(cloud, np.geomspace(0.3, 0.01, 5))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert np.all(fit.entropies == 0.0)


def test_line_dimension():
    fit = dim.box_dimension_estimate(line_cloud(), np.geomspace(0.1, 0.01, 12))
    assert 0.9 <= fit.slope <= 1.1


def test_square_dimension():
    fit = dim.box_dimension_estimate(square_cloud(), np.geomspace(0.2, 0.03, 12))
    assert 1.8 <= fit.slope <= 2.2


def test_grid_validation():
    cloud = line_cloud(50)
    with pytest.raises(ValueError):
        dim.box_dimension_estimate(cloud, [0.1, 0.2, 0.05, 0.01])
    with pytest.raises(ValueError):
        dim.box_dimension_estimate(cloud, [0.1, 0.05, 0.01])


def test_entropies_nonincreasing_in_delta():
    rng = substream(0, 31)
    cloud = PointCloud(rng.uniform(size=(200, 3)))
    fit = dim.box_dimension_estimate(cloud, np.geomspace(0.6, 0.05, 9))
    assert np.all(np.diff(fit.entropies) >= -1e-12)


def test_box_entropies_match_greedy_entropy():
    # one cover per start at the finest radius answers every radius
    rng = substream(3, 31)
    cloud = PointCloud(rng.uniform(size=(300, 2)))
    deltas = np.geomspace(0.5, 0.03, 10)
    fit = dim.box_dimension_estimate(cloud, deltas)
    assert np.array_equal(fit.entropies,
                          [spread_entropy(cloud, d) for d in deltas])


@pytest.mark.parametrize("width", [1, 2, 5, 9])
def test_smallest_cover_sizes_match_separate_one_start_covers(width):
    # one lockstep traversal of the spread starts gives, per radius, the
    # minimum over separate one-start covers
    rng = substream(4, 31, width)
    cloud = PointCloud(np.round(rng.uniform(size=(240, width)) * 8) / 8)
    deltas = np.geomspace(0.9, 0.1, 7) * math.sqrt(width)
    for n_starts in (1, 3, 8):
        covers = [greedy_cover(cloud, deltas[-1], start=int(s))
                  for s in dim._spread_starts(cloud, n_starts)]
        want = [min(c.size_at(d) for c in covers) for d in deltas]
        assert dim._smallest_cover_sizes(cloud, deltas, n_starts) == want


@pytest.mark.parametrize("n, width", [(1, 2), (300, 3), (1100, 2), (1030, 9)])
def test_median_nn_distance_matches_the_per_row_loop(n, width):
    # the rows come in bounded blocks; the median is the per-row loop's
    cloud = PointCloud(substream(6, n).uniform(size=(n, width)))
    idx = range(n) if n <= 1024 else np.linspace(0, n - 1, 512).astype(int)
    nearest = []
    for i in idx:
        d = cloud.distances_to(int(i))
        d[int(i)] = np.inf
        nearest.append(d.min())
    assert dim.median_nn_distance(cloud) == float(np.median(nearest))


def test_subset_entropy_below_superset():
    rng = substream(1, 31)
    pts = rng.uniform(size=(300, 2))
    sup_cloud = PointCloud(pts)
    sub_cloud = PointCloud(pts[:120])
    for delta in np.geomspace(0.4, 0.04, 6):
        assert spread_entropy(sub_cloud, delta) <= \
            spread_entropy(sup_cloud, delta) + 1e-12


def test_homogeneity_slack_bound_always_ok():
    rng = substream(2, 31)
    cloud = PointCloud(rng.uniform(size=(150, 2)))
    rep = dim.homogeneity_check(cloud, 1e6, 3.0, 30, seed=5)
    assert rep.all_ok


def test_homogeneity_overflowing_bound_fails():
    # M (R/r)^tau overflows to inf at M = 1e308, and an infinite bound fails
    cloud = PointCloud(substream(2, 31).uniform(size=(150, 2)))
    rep = dim.homogeneity_check(cloud, 1e308, 1.0, 5, seed=5)
    assert all(t.bound == math.inf and not t.ok for t in rep.trials)
    assert not rep.all_ok


def test_homogeneity_line_ok():
    # small balls so every local cover is exact (<= 20 points each)
    cloud = line_cloud(500)
    rep = dim.homogeneity_check(cloud, 2.0, 1.0, 50, seed=3,
                                radius_range=(0.008, 0.02))
    assert all(t.exact for t in rep.trials)
    assert rep.all_ok


def test_homogeneity_square_fails_with_line_exponent():
    rep = dim.homogeneity_check(square_cloud(), 2.0, 1.0, 50, seed=3)
    assert not rep.all_ok


def test_homogeneity_parameter_validation():
    with pytest.raises(ValueError):
        dim.homogeneity_check(line_cloud(20), 0.5, 1.0, 5, seed=0)
    with pytest.raises(ValueError):
        dim.homogeneity_check(line_cloud(20), 2.0, 0.0, 5, seed=0)


def test_homogeneity_exact_mode_matches_brute_force():
    cloud = line_cloud(500)
    rep = dim.homogeneity_check(cloud, 2.0, 1.0, 40, seed=9)
    checked = 0
    for t in rep.trials:
        if not t.exact or t.local_size > 12:
            continue
        d = cloud.distances_to(t.center)
        local = cloud.points[d <= t.radius_big]
        dm = np.linalg.norm(local[:, None] - local[None, :], axis=2)
        oracle = brute_force_min_cover(dm, t.radius_small)
        assert t.measured == oracle
        assert t.ok == (oracle <= t.bound * (1 + 1e-12))
        checked += 1
    assert checked > 0


def test_assouad_degenerate_cloud():
    cloud = PointCloud(np.tile([0.5, 0.5, 0.5], (20, 1)))
    m, tau = dim.assouad_estimate(cloud, seed=1)
    assert tau == pytest.approx(0.0)


def test_assouad_line_and_square():
    m_line, tau_line = dim.assouad_estimate(line_cloud(500), seed=1, n_trials=96)
    assert tau_line <= 1.3
    m_sq, tau_sq = dim.assouad_estimate(square_cloud(), seed=1, n_trials=96)
    assert 1.7 <= tau_sq <= 2.5
    # the returned pair is self-consistent on its own trials
    assert m_line >= 1.0 and m_sq >= 1.0


def test_assouad_needs_enough_points():
    with pytest.raises(ValueError):
        dim.assouad_estimate(PointCloud(np.zeros((5, 2))), seed=0)
