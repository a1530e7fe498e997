import math
import tracemalloc

import numpy as np
import pytest

from vecproc import empirical_process as ep
from vecproc import function_class as fc
from vecproc.covering import PointCloud, greedy_cover
from vecproc.rng import block_sizes, rademacher_signs, substream


def ball_class(count, seed, d_y=3, m=1, resolution=129, **kw):
    return fc.generate_finite_dim_ball_class(1, m, d_y, 1.0, count, seed,
                                             resolution=resolution, **kw)


def zero_class(d_y=2):
    g = fc.GridFunction.from_terms(1, 1, d_y, 33, np.zeros((0, 1), int),
                                   np.zeros((0, 1)), np.zeros(0),
                                   np.zeros((0, d_y)))
    return fc.FunctionClass(members=(g,), b_descriptor=fc.BallDescriptor(1.0),
                            d=1, m=1, d_y=d_y, resolution=33)


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


@pytest.mark.parametrize("d_y, count", [(1, 4), (3, 9), (7, 5)])
def test_symmetrization_matches_stacked_reference(d_y, count):
    cls = ball_class(count, seed=21, d_y=d_y)
    rep = ep.symmetrization_check(cls, 30, 700, seed=6)
    assert rep == stacked_symmetrization(cls, 30, 700, seed=6)


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


@pytest.mark.parametrize("d_y, count", [(2, 6), (5, 3)])
def test_gc_decay_matches_stacked_reference(d_y, count):
    cls = ball_class(count, seed=23, d_y=d_y)
    rows, _ = ep.gc_decay_curve(cls, [7, 40], 900, seed=9)
    assert rows == stacked_gc_decay(cls, [7, 40], 900, seed=9)


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
    cloud = PointCloud.from_empirical(cls, design)
    for s in range(1, plan.s_levels + 2):
        direct = greedy_cover(cloud, plan.r_n * 0.5 ** s).center_indices
        assert np.array_equal(plan.level_centers[s], np.sort(direct))


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
    got = ep.equicontinuity_curve(cls, g0_index, radii, n_grid, reps, seed=4,
                                  threads=threads)
    assert got == per_radius_equicontinuity(cls, g0_index, radii, n_grid,
                                            reps, seed=4)
