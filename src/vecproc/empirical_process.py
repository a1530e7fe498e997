"""Empirical measures, symmetrization, Glivenko-Cantelli decay, chaining.

The true mean Pg of every trig-sum member under the uniform input law is
closed form, so deviations ||P_n g - P g|| carry no oracle error. Chaining
plans are built once per (class, design) pair with deterministic greedy
covers and nearest-center chains, both read from one GEMM-form distance
matrix of `PointCloud.from_empirical`, which places the class in its
feature coordinates (isometric under ||.||_{2,P_n}) when it has fewer
features than K d_Y; tail checks then Monte-Carlo the sign or noise
randomness conditionally on the design, exactly as the conditional
statements require.

The Monte-Carlo kernels never evaluate a member at a point: every member
is linear in the class's product features (`FunctionClass.features`), so a
replicate is reduced to its feature means, TABLE_CHUNK // F points of a
class with F features at a time, and `hilbert.member_norms` then takes the
whole class, a slab of whole members at a time. A block's tables and
products grow neither with n nor with the class; what grows with the
class is its coefficient tensor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .covering import PointCloud, greedy_cover
from .function_class import (TWO_PI, EmpiricalDesign, FunctionClass,
                             l2_distance_uniform)
from .hilbert import distances, member_norms
from .reports import (MC_SES, TailReport, fields_json, mc_mean, passes,
                      tail_check)
from .rng import (TABLE_CHUNK, jump_ahead, map_blocks, sample_block,
                  sign_bytes, sign_rows, unpack_signs)

_TAG_SYM = 401
_TAG_GC = 402
_TAG_CHAIN = 403
_TAG_EQUI = 404
_TAG_SYMPROB = 405


def true_means(cls: FunctionClass) -> np.ndarray:
    """Pg for every member under the uniform law; exact, shape (K, d_Y)."""
    return cls.features[1][0].reshape(len(cls), cls.d_y)


def _trig_rows(x, width) -> np.ndarray:
    """The feature rows [1, cos 2 pi x_l, sin 2 pi x_l, ..., cos 2 pi W x_l,
    sin 2 pi W x_l] of every axis l of the points x (m, d), W = width, as
    one (d, 2W + 1, m) array. Only row 1 calls libm; row k >= 2 follows by
    angle addition, c_k = c_{k-1} c_1 - s_{k-1} s_1 and
    s_k = s_{k-1} c_1 + c_{k-1} s_1.

    Rounding, to first order in u = 2^-53, for x in [0, 1]: the argument
    TWO_PI x is off by at most 4 pi u and libm by u per entry, so (c_1, s_1)
    is rho (cos phi, sin phi) with |phi - 2 pi x| <= (4 pi + sqrt 2) u and
    |rho - 1| <= sqrt 2 u, and the exact recurrence is within
    (4 pi + 2 sqrt 2) k u of (cos, sin)(2 pi k x). Each step's two products
    and sum add at most 2 sqrt 2 u. trig_tables rounds its argument
    (TWO_PI k) x three times, which costs 6 pi k u, plus u from libm. So
    |row_k - trig_tables row_k| <= 40 k u, about 4.4e-15 k; at most
    15.5 k u was measured on 10^6 uniform points for k <= 64. The constant
    row and row 1 carry trig_tables' own bits.
    """
    table = np.empty((x.shape[1], 2 * width + 1, len(x)))
    table[:, 0] = 1.0
    if width:
        scratch = TWO_PI * x.T
        c1 = np.cos(scratch, out=table[:, 1])
        s1 = np.sin(scratch, out=table[:, 2])
        for k in range(2, width + 1):
            c, s, ck, sk = table[:, 2 * k - 3:2 * k + 1].swapaxes(0, 1)
            np.multiply(c, c1, out=ck)
            ck -= np.multiply(s, s1, out=scratch)
            np.multiply(s, c1, out=sk)
            sk += np.multiply(c, s1, out=scratch)
    return table


def _feature_means(cls: FunctionClass, size: int, n: int, points, signs=None):
    """Per group of whole replicates, in order: their feature means P_n phi
    and, with signs, their signed ones (1/n) sum_i sigma_i phi(x_i), each
    (replicates, F). points(start, stop) returns the block's points
    start..stop-1, replicate-major, and is called in order, one chunk of
    TABLE_CHUNK // F points at a time: whole replicates where they fit,
    else pieces of one whose sums are added in order; signs(start, stop)
    returns those points' signs the same way. A chunk's sums are
    one batched GEMM: the products of the features' rows on every axis but
    the last (their heads, one row for d = 1) against the last axis's
    table and its signed copy."""
    rows = cls.features[0]
    side, place = 2 * cls.width + 1, (2 * cls.width + 1) ** np.arange(cls.d - 1)
    heads, col = np.unique(rows[:, :-1] @ place, return_inverse=True)
    heads = heads[:, None] // place % side
    chunk = max(1, TABLE_CHUNK // len(rows))
    per, piece = max(1, chunk // n), min(n, chunk)
    for first in range(0, size, per):
        reps = min(per, size - first)
        sums = 0.0
        for lo in range(first * n, first * n + n, piece):
            stop = lo + reps * min(piece, first * n + n - lo)
            tables = _trig_rows(points(lo, stop), cls.width)
            head = np.ones((len(heads), stop - lo))
            for table, r in zip(tables, heads.T):
                head *= table[r]
            tail = tables[-1] if signs is None else np.vstack(
                [tables[-1], tables[-1] * signs(lo, stop)])
            out = np.matmul(head.reshape(len(head), reps, -1).transpose(1, 0, 2),
                            tail.reshape(len(tail), reps, -1).transpose(1, 2, 0))
            kinds = np.arange(len(tail) // side)[:, None]
            sums = sums + out[:, col, rows[:, -1] + side * kinds].swapaxes(0, 1)
        yield sums / n


def _uniform(rng, d):
    """points(start, stop) for _feature_means: the next stop - start uniform
    points of [0, 1]^d from rng, one 64-bit draw per coordinate."""
    return lambda start, stop: rng.uniform(size=(stop - start, d))


def _centered(cls: FunctionClass) -> np.ndarray:
    """The coefficients of every g - Pg, (F, K d_Y): (P_n - P) g is
    P_n (g - Pg), whose constant row is exactly 0, so nothing cancels."""
    coefs = cls.features[1].copy()
    coefs[0] -= true_means(cls).reshape(-1)
    return coefs


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
        return passes(self.mean_dev, self.mean_pair,
                      MC_SES * math.hypot(self.se_dev, self.se_pair))

    @property
    def ok_rad(self) -> bool:
        return passes(self.mean_dev, 2.0 * self.mean_rad,
                      MC_SES * math.hypot(self.se_dev, 2.0 * self.se_rad))

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
    three combined standard errors of slack. A replicate is reduced to its
    feature moments (P_n - P) phi, (P_n - P'_n) phi and P_n^sigma phi, the
    first and last from one table pass, and the class is one GEMM over them.
    A block of sample_block(n) replicates reads its three segments of one
    stream side by side, chunk by chunk: x from the block's generator, x2
    from a generator size n d draws ahead and the signs from the packed
    bytes (at most BLOCK_POINTS / 8) of one 2 size n d draws ahead, each
    continuing where one draw of x, x2 and the signs in turn would.
    """
    if reps < 2:
        raise ValueError("reps must be at least 2")
    coefs, centered = cls.features[1], _centered(cls)

    def block(rng, size):
        rng2 = jump_ahead(rng, size * n * cls.d)
        raw = sign_bytes(jump_ahead(rng, 2 * size * n * cls.d), size * n)
        groups = zip(_feature_means(cls, size, n, _uniform(rng, cls.d),
                                    functools.partial(unpack_signs, raw)),
                     _feature_means(cls, size, n, _uniform(rng2, cls.d)))
        return [np.concatenate(s) for s in zip(*(
            (member_norms(emp, centered, cls.d_y, 1),
             member_norms(emp - emp2, centered, cls.d_y, 1),
             member_norms(rad, coefs, cls.d_y, 1))
            for (emp, rad), (emp2,) in groups))]

    parts = map_blocks(block, reps, threads, seed, _TAG_SYM,
                       block=sample_block(n))
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

    Returns rows (a, premise_max, lhs, rhs, applicable, ok) of mc_mean
    frequencies, NaN (failing its rows) where a statistic is NaN. A block
    reads its points chunk by chunk and its signs from the packed bytes of a
    generator size n d draws ahead, as symmetrization_check.
    """
    coefs, centered = cls.features[1], _centered(cls)
    a_vals = np.asarray(a_grid, float)
    # statistic columns: each member's deviation, their max and the
    # symmetrized sup, counted against a/2, a and a/4
    scale = np.r_[np.full(len(cls), 2.0), 1.0, 4.0][:, None]

    def exceed(rng, size):
        raw = sign_bytes(jump_ahead(rng, size * n * cls.d), size * n)
        per_member, rad = (np.concatenate(s) for s in zip(*(
            (member_norms(emp, centered, cls.d_y, 1, sup=False),
             member_norms(signed, coefs, cls.d_y, 1)) for emp, signed in
            _feature_means(cls, size, n, _uniform(rng, cls.d),
                           functools.partial(unpack_signs, raw)))))
        stat = np.column_stack([per_member, per_member.max(axis=1),
                                rad])[:, :, None]
        return np.where(np.isnan(stat).any(axis=0), np.nan,
                        stat > a_vals / scale)

    freqs, _ = mc_mean(exceed, reps, threads, seed, _TAG_SYMPROB,
                       block=sample_block(n))
    prem, lhs, rhs = freqs[:-2], freqs[-2], freqs[-1]
    rows = []
    for j, a in enumerate(a_vals):
        premise_max = float(prem[:, j].max())
        applicable = premise_max <= 0.5
        se = math.sqrt(max(lhs[j] * (1 - lhs[j]), rhs[j] * (1 - rhs[j])) / reps)
        ok = premise_max > 0.5 or passes(lhs[j], 4.0 * rhs[j], MC_SES * se)
        rows.append({"a": float(a), "premise_max": premise_max,
                     "lhs": float(lhs[j]), "rhs": float(rhs[j]),
                     "applicable": applicable, "ok": bool(ok)})
    return rows


# --------------------------------------------------------------------------
# Glivenko-Cantelli decay


def gc_decay_curve(cls: FunctionClass, n_grid, reps: int, seed: int,
                   threads: int = 1):
    """Median ||P_n - P||_G per sample size, with a log-log trend slope.

    Each block draws its points chunk by chunk, as they are tabulated.
    Returns (rows, trend_slope); rows are (n, median deviation).
    """
    centered = _centered(cls)
    if len(set(n_grid)) < 2:
        raise ValueError("need at least two distinct sample sizes")
    rows = []
    for pos, n in enumerate(n_grid):
        def block(rng, size, n=n):
            return np.concatenate([member_norms(emp, centered, cls.d_y, 1)
                                   for emp, in _feature_means(
                cls, size, n, _uniform(rng, cls.d))])

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
        return bool(np.all(passes(self.link_dist, self.link_radii() * (1 + 1e-9))))

    def to_json(self):
        return {k: v for k, v in fields_json(self).items() if k != "link_dist"}


def build_chaining_plan(cls: FunctionClass, design: EmpiricalDesign,
                        s_levels: int | None = None) -> ChainingPlan:
    """Greedy nested covers of the class under ||.||_{2,P_n} plus chains.

    Level 0 is the singleton {0}; levels s >= 1 are greedy covers of the
    class at radius 2^-s R_n with centers inside the class. Covers, chains
    and links all read one distance matrix, so every level covers exactly
    in it. J_n = sum_{s=0}^S 2^-s R_n sqrt(2 H_{s+1}).
    """
    if len(cls) == 0:
        raise ValueError("class must be nonempty")
    k = len(cls)
    cloud = PointCloud.from_empirical(cls, design)
    norms = distances(cloud.points, 0.0)
    r_n = float(norms.max())
    if s_levels is None:
        s_levels = default_chain_levels(design.n)
    dist = cloud.distance_matrix()

    level_centers = [np.array([], dtype=int)]            # s = 0: the zero function
    if r_n == 0.0:
        level_centers += [np.array([0])] * (s_levels + 1)
    else:
        # each level is a prefix of the finest level's greedy traversal
        fine = greedy_cover(PointCloud(dist, metric="matrix"),
                            r_n * 0.5 ** (s_levels + 1))
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
    # the chain tops' values as (n, T d_Y): sample i's row holds every top
    flat = cls.values_on(design)[tops].transpose(1, 0, 2).reshape(n, -1)

    def stat(rng, size):
        return np.concatenate([member_norms(signs, flat, cls.d_y, n)
                               for signs in sign_rows(rng, size, n,
                                                      flat.shape[1])])

    return tail_check(stat, thresholds, ts, 2.0 * np.exp(-ts), reps, threads,
                      seed, _TAG_CHAIN)


# --------------------------------------------------------------------------
# asymptotic equicontinuity


def equicontinuity_curve(cls: FunctionClass, g0_index: int, radius_grid, n_grid,
                         reps: int, seed: int, threads: int = 1):
    """Median of sup_{||g-g0||_{2,P} <= delta} ||nu_n(g) - nu_n(g0)|| per (delta, n).

    Distances to g0 are exact L2(P) distances under the uniform law. The
    draws are keyed by (n position, block), so every radius sees the same
    points: a replicate is reduced to its centered feature means once, one
    GEMM with the coefficients of g - g0 gives every member's deviation,
    and each is folded into the supremum of every ball that holds it. Rows:
    (delta, n, members_in_ball, median statistic), radius-major; a ball
    holding at most one member has statistic 0.
    """
    if not 0 <= g0_index < len(cls):
        raise ValueError("g0_index out of range")
    g0 = cls[g0_index]
    dists = np.array([l2_distance_uniform(g, g0) for g in cls.members])
    radii = np.asarray(radius_grid, float)
    in_ball = [int(np.sum(dists <= r)) for r in radii]
    live = np.array(in_ball) > 1
    members = [k for k in range(len(cls))
               if k != g0_index and np.any(dists[k] <= radii[live])]
    coefs = _centered(cls).reshape(-1, len(cls), cls.d_y)
    diffs = (coefs[:, members] - coefs[:, [g0_index]]).reshape(len(coefs), -1)
    holds = dists[members][None, :] <= radii[:, None]
    medians = np.zeros((len(radii), len(n_grid)))
    for pos, n in enumerate(n_grid if members else ()):
        def block(rng, size, n=n):
            norms = np.concatenate([member_norms(emp, diffs, cls.d_y, 1,
                                                 sup=False)
                                    for emp, in _feature_means(
                cls, size, n, _uniform(rng, cls.d))])
            return math.sqrt(n) * np.array(
                [norms.max(axis=1, where=h, initial=0.0) for h in holds])

        stats = np.concatenate(
            map_blocks(block, reps, threads, seed, _TAG_EQUI, pos), axis=1)
        for i in np.flatnonzero(live):
            medians[i, pos] = np.median(stats[i])
    return [(float(r), int(n), in_ball[i], float(medians[i, pos]))
            for i, r in enumerate(radii) for pos, n in enumerate(n_grid)]
