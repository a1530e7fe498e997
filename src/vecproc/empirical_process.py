"""Empirical measures, symmetrization, Glivenko-Cantelli decay, chaining.

The true mean Pg of every trig-sum member under the uniform input law is
closed form, so deviations ||P_n g - P g|| carry no oracle error. Chaining
plans are built once per (class, design) pair with deterministic greedy
covers and nearest-center chains; tail checks then Monte-Carlo the sign or
noise randomness conditionally on the design, exactly as the conditional
statements require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import PointCloud, greedy_cover
from .function_class import (EmpiricalDesign, FunctionClass,
                             l2_distance_uniform, mean_uniform)
from .reports import TailReport, fields_json, tail_check
from .rng import map_blocks, rademacher_signs

_TAG_SYM = 401
_TAG_GC = 402
_TAG_CHAIN = 403
_TAG_EQUI = 404
_TAG_SYMPROB = 405


def true_means(cls: FunctionClass) -> np.ndarray:
    """Pg for every member under the uniform law; exact, shape (K, d_Y)."""
    if len(cls) == 0:
        raise ValueError("class must be nonempty")
    return np.stack([mean_uniform(g) for g in cls.members])


# --------------------------------------------------------------------------
# symmetrization


@dataclass(frozen=True)
class SymmetrizationReport:
    mean_dev: float          # E||P_n - P||_G
    mean_pair: float         # E||P_n - P'_n||_G
    mean_rad: float          # E||P_n^sigma||_G
    se_dev: float
    se_pair: float
    se_rad: float
    reps: int
    seed: int

    @property
    def ok_pair(self) -> bool:
        slack = 3.0 * math.hypot(self.se_dev, self.se_pair)
        return self.mean_dev <= self.mean_pair + slack

    @property
    def ok_rad(self) -> bool:
        slack = 3.0 * math.hypot(self.se_dev, 2.0 * self.se_rad)
        return self.mean_dev <= 2.0 * self.mean_rad + slack

    @property
    def all_ok(self) -> bool:
        return self.ok_pair and self.ok_rad

    def to_json(self):
        return {**fields_json(self), "ok_pair": self.ok_pair,
                "ok_rad": self.ok_rad}


def symmetrization_check(cls: FunctionClass, n: int, reps: int, seed: int,
                         threads: int = 1) -> SymmetrizationReport:
    """Monte-Carlo check of both symmetrization inequalities.

    E||P_n - P||_G <= E||P_n - P'_n||_G and <= 2 E||P_n^sigma||_G, with
    three combined standard errors of slack. Members are evaluated one at a
    time and folded into running suprema, so a block holds one member's
    (B, n, d_Y) values, not the whole class.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    means = true_means(cls)

    def block(rng, size):
        x = rng.uniform(size=(size, n, cls.d)).reshape(-1, cls.d)
        x2 = rng.uniform(size=(size, n, cls.d)).reshape(-1, cls.d)
        signs = rademacher_signs(rng, (size, n, 1))
        tables, tables2 = cls.trig_tables(x), cls.trig_tables(x2)
        dev, pair, rad = np.zeros(size), np.zeros(size), np.zeros(size)
        for g, mean in zip(cls.members, means):
            vals = g.evaluate(x, tables).reshape(size, n, cls.d_y)
            emp = vals.mean(axis=1)
            emp2 = g.evaluate(x2, tables2).reshape(size, n, cls.d_y).mean(axis=1)
            dev = np.maximum(dev, np.linalg.norm(emp - mean, axis=1))
            pair = np.maximum(pair, np.linalg.norm(emp - emp2, axis=1))
            vals *= signs
            rad = np.maximum(rad, np.linalg.norm(vals.mean(axis=1), axis=1))
        return dev, pair, rad

    parts = map_blocks(block, reps, threads, seed, _TAG_SYM)
    dev, pair, rad = (np.concatenate(p) for p in zip(*parts))
    return SymmetrizationReport(
        mean_dev=float(dev.mean()), mean_pair=float(pair.mean()),
        mean_rad=float(rad.mean()),
        se_dev=float(dev.std(ddof=1) / math.sqrt(reps)),
        se_pair=float(pair.std(ddof=1) / math.sqrt(reps)),
        se_rad=float(rad.std(ddof=1) / math.sqrt(reps)),
        reps=reps, seed=seed)


def symmetrization_probability_check(cls: FunctionClass, n: int, a_grid,
                                     reps: int, seed: int,
                                     threads: int = 1):
    """P(||P_n - P||_G > a) <= 4 P(||P_n^sigma||_G > a/4) where the
    per-member premise P(||(P_n - P) g|| > a/2) <= 1/2 holds empirically.

    Returns rows (a, premise_max, lhs, rhs, applicable, ok).
    """
    means = true_means(cls)
    a_vals = np.asarray(a_grid, float)

    def block(rng, size):
        x = rng.uniform(size=(size, n, cls.d)).reshape(-1, cls.d)
        signs = rademacher_signs(rng, (size, n, 1))
        tables = cls.trig_tables(x)
        per_member = np.empty((size, len(cls)))
        rad = np.zeros(size)
        for k, (g, mean) in enumerate(zip(cls.members, means)):
            vals = g.evaluate(x, tables).reshape(size, n, cls.d_y)
            per_member[:, k] = np.linalg.norm(vals.mean(axis=1) - mean, axis=1)
            vals *= signs
            rad = np.maximum(rad, np.linalg.norm(vals.mean(axis=1), axis=1))
        dev = per_member.max(axis=1)
        prem = (per_member[:, :, None] > a_vals[None, None, :] / 2.0).sum(axis=0)
        lhs = (dev[:, None] > a_vals[None, :]).sum(axis=0)
        rhs = (rad[:, None] > a_vals[None, :] / 4.0).sum(axis=0)
        return prem, lhs, rhs

    parts = map_blocks(block, reps, threads, seed, _TAG_SYMPROB)
    # prem is (K, len(a)); lhs and rhs are (len(a),)
    prem, lhs, rhs = (np.sum(p, axis=0) / reps for p in zip(*parts))
    rows = []
    for j, a in enumerate(a_vals):
        premise_max = float(prem[:, j].max())
        applicable = premise_max <= 0.5
        se = math.sqrt(max(lhs[j] * (1 - lhs[j]), rhs[j] * (1 - rhs[j])) / reps)
        ok = (not applicable) or lhs[j] <= 4.0 * rhs[j] + 3.0 * se
        rows.append({"a": float(a), "premise_max": premise_max,
                     "lhs": float(lhs[j]), "rhs": float(rhs[j]),
                     "applicable": applicable, "ok": bool(ok)})
    return rows


# --------------------------------------------------------------------------
# Glivenko-Cantelli decay


def gc_decay_curve(cls: FunctionClass, n_grid, reps: int, seed: int,
                   threads: int = 1):
    """Median ||P_n - P||_G per sample size, with a log-log trend slope.

    Returns (rows, trend_slope); rows are (n, median deviation).
    """
    means = true_means(cls)
    rows = []
    for pos, n in enumerate(n_grid):
        def block(rng, size, n=n):
            x = rng.uniform(size=(size * n, cls.d))
            tables = cls.trig_tables(x)
            dev = np.zeros(size)
            for g, mean in zip(cls.members, means):
                emp = g.evaluate(x, tables).reshape(size, n, cls.d_y).mean(axis=1)
                dev = np.maximum(dev, np.linalg.norm(emp - mean, axis=1))
            return dev

        devs = np.concatenate(map_blocks(block, reps, threads, seed, _TAG_GC,
                                         pos))
        rows.append((int(n), float(np.median(devs))))
    meds = np.array([r[1] for r in rows])
    ns = np.array([r[0] for r in rows], float)
    if np.all(meds > 0):
        slope = float(np.polyfit(np.log(ns), np.log(meds), 1)[0])
    else:
        slope = float("nan") if np.any(meds > 0) else 0.0
    return rows, slope


# --------------------------------------------------------------------------
# chaining


def default_chain_levels(n: int) -> int:
    """S with 2^-(S-2) <= 1/sqrt(n), the choice used in the proofs."""
    return max(1, math.ceil(math.log2(math.sqrt(n))) + 2)


@dataclass(frozen=True)
class ChainingPlan:
    """Nested greedy covers at radii 2^-s R_n and per-member chains.

    chains[k, s] is the member index of g^s for member k (s = 1..S+1);
    chains[k, 0] = -1 encodes the zero function. level_centers[s] lists the
    member indices of the level-s covering set, ascending.
    """

    s_levels: int
    r_n: float
    level_centers: tuple
    n_s: np.ndarray
    h_s: np.ndarray
    chains: np.ndarray
    link_dist: np.ndarray    # (K, S+1): ||g^{s+1} - g^s||_{2,P_n}, s = 0..S
    j_n: float

    def link_radii(self) -> np.ndarray:
        return self.r_n * 0.5 ** np.arange(self.s_levels + 1)

    def links_valid(self) -> bool:
        return bool(np.all(self.link_dist <= self.link_radii()[None, :] * (1 + 1e-9)))

    def to_json(self):
        return {k: v for k, v in fields_json(self).items() if k != "link_dist"}


def build_chaining_plan(cls: FunctionClass, design: EmpiricalDesign,
                        s_levels: int | None = None) -> ChainingPlan:
    """Greedy nested covers of the class under ||.||_{2,P_n} plus chains.

    Level 0 is the singleton {0}; levels s >= 1 are greedy covers of the
    class at radius 2^-s R_n with centers inside the class. Each member is
    chained top-down through nearest centers, ties to the lowest member
    index. J_n = sum_{s=0}^S 2^-s R_n sqrt(2 H_{s+1}).
    """
    if len(cls) == 0:
        raise ValueError("class must be nonempty")
    k = len(cls)
    cloud = PointCloud.from_values(cls.values_on(design))
    norms = np.linalg.norm(cloud.points, axis=1)
    r_n = float(norms.max())
    if s_levels is None:
        s_levels = default_chain_levels(design.n)
    dist = cloud.distance_matrix()

    level_centers = [np.array([], dtype=int)]            # s = 0: the zero function
    if r_n == 0.0:
        level_centers += [np.array([0])] * (s_levels + 1)
    else:
        # each level is a prefix of the finest level's greedy traversal
        fine = greedy_cover(cloud, r_n * 0.5 ** (s_levels + 1))
        level_centers += [np.sort(fine.center_indices[:fine.size_at(r_n * 0.5 ** s)])
                          for s in range(1, s_levels + 2)]
    n_s = np.array([1] + [len(c) for c in level_centers[1:]])
    h_s = np.log(n_s.astype(float))

    chains = np.empty((k, s_levels + 2), dtype=int)
    chains[:, 0] = -1
    link_dist = np.empty((k, s_levels + 1))
    top_centers = level_centers[s_levels + 1]
    chains[:, s_levels + 1] = top_centers[np.argmin(dist[:, top_centers], axis=1)]
    for s in range(s_levels, 0, -1):
        centers = level_centers[s]
        nxt = chains[:, s + 1]
        chains[:, s] = centers[np.argmin(dist[np.ix_(nxt, centers)], axis=1)]
        link_dist[:, s] = dist[chains[:, s + 1], chains[:, s]]
    link_dist[:, 0] = norms[chains[:, 1]]

    powers = 0.5 ** np.arange(s_levels + 1)
    j_n = float(np.sum(powers * r_n * np.sqrt(2.0 * h_s[1:s_levels + 2])))
    return ChainingPlan(s_levels=s_levels, r_n=r_n,
                        level_centers=tuple(level_centers), n_s=n_s, h_s=h_s,
                        chains=chains, link_dist=link_dist, j_n=j_n)


def chaining_tail_check(plan: ChainingPlan, cls: FunctionClass,
                        design: EmpiricalDesign, t_grid, reps: int, seed: int,
                        threads: int = 1) -> TailReport:
    """Tail of sup_g ||sum_s P_n^sigma(g^{s+1} - g^s)|| against 2 e^-t.

    The chain telescopes to g^{S+1} (level 0 is the zero function), so the
    statistic is the largest symmetrized mean over realized chain tops; the
    threshold is sqrt(2) J_n / sqrt(n) + 6 R_n sqrt((1+t)/n).
    """
    n = design.n
    ts = np.asarray(t_grid, float)
    thresholds = math.sqrt(2.0) * plan.j_n / math.sqrt(n) \
        + 6.0 * plan.r_n * np.sqrt((1.0 + ts) / n)
    tops = np.unique(plan.chains[:, -1])
    top_vals = cls.values_on(design)[tops]    # (T, n, d_Y)

    def stat(rng, size):
        signs = rademacher_signs(rng, (size, n))
        sums = np.einsum("bn,tnd->btd", signs, top_vals) / n
        return np.linalg.norm(sums, axis=2).max(axis=1)

    return tail_check(stat, thresholds, ts, 2.0 * np.exp(-ts), reps, threads,
                      seed, _TAG_CHAIN)


# --------------------------------------------------------------------------
# asymptotic equicontinuity


def equicontinuity_curve(cls: FunctionClass, g0_index: int, radius_grid, n_grid,
                         reps: int, seed: int, threads: int = 1):
    """Median of sup_{||g-g0||_{2,P} <= delta} ||nu_n(g) - nu_n(g0)|| per (delta, n).

    Distances to g0 are exact L2(P) distances under the uniform law. The
    draws are keyed by (n position, block), so every radius sees the same
    points: each member is evaluated once per block and its deviation norm
    folded into the running supremum of every ball that holds it. Rows:
    (delta, n, members_in_ball, median statistic), radius-major; a ball
    holding at most one member has statistic 0.
    """
    if not 0 <= g0_index < len(cls):
        raise ValueError("g0_index out of range")
    g0 = cls[g0_index]
    dists = np.array([l2_distance_uniform(g, g0) for g in cls.members])
    means = true_means(cls)
    radii = np.asarray(radius_grid, float)
    in_ball = [int(np.sum(dists <= r)) for r in radii]
    live = np.array(in_ball) > 1
    members = [k for k in range(len(cls))
               if k != g0_index and np.any(dists[k] <= radii[live])]
    medians = np.zeros((len(radii), len(n_grid)))
    for pos, n in enumerate(n_grid if members else ()):
        def block(rng, size, n=n):
            x = rng.uniform(size=(size * n, cls.d))
            tables = cls.trig_tables(x)
            g0_vals = g0.evaluate(x, tables).reshape(size, n, cls.d_y)
            stat = np.zeros((len(radii), size))
            for k in members:
                diff = cls[k].evaluate(x, tables).reshape(size, n, cls.d_y) \
                    - g0_vals
                dev = diff.mean(axis=1) - (means[k] - means[g0_index])[None]
                holds = dists[k] <= radii
                stat[holds] = np.maximum(stat[holds], np.linalg.norm(dev, axis=1))
            return math.sqrt(n) * stat

        stats = np.concatenate(
            map_blocks(block, reps, threads, seed, _TAG_EQUI, pos), axis=1)
        for i in np.flatnonzero(live):
            medians[i, pos] = np.median(stats[i])
    return [(float(r), int(n), in_ball[i], float(medians[i, pos]))
            for i, r in enumerate(radii) for pos, n in enumerate(n_grid)]
