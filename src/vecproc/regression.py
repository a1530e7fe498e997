"""Fixed-design least squares with Hilbert-valued Gaussian noise, the peeling
threshold, rate experiments, Gaussian chaining, and Lipschitz-loss ERM.

The estimator is always an exhaustive argmin over a finite candidate class (a
net of the smooth class; the infinite argmin is not computable), with the net
radius tied to the peeling threshold delta_n so discretization error stays
subdominant. Everything is a deterministic function of (seed, reps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import CovarianceSpectrum, sample_gaussian_batch
from .covering import PointCloud, greedy_cover
from .covering import greedy_cover as greedy_cover_from  # former name, kept for callers
from .empirical_process import build_chaining_plan
from .function_class import (EmpiricalDesign, FunctionClass,
                             SmoothOutputDescriptor, blend_members,
                             generate_finite_dim_ball_class,
                             l2_distance_uniform)
from .hilbert import clipped_loss, sup_sign_norms
from .reports import TailReport, fields_json, jsonable, tail_check
from .rng import map_blocks, rademacher_signs

_TAG_RATE = 502
_TAG_GCHAIN = 503
_TAG_ERM = 504
_TAG_ERM_RAD = 505


# --------------------------------------------------------------------------
# peeling threshold


# the search bracket for delta_n: the theorem places no ceiling on it, and
# small n with trace-1 noise pushes it well past the class diameter
_DELTA_BRACKET = (1e-8, 1e3)


def solve_delta_n(j_curve, n: int, t: float) -> float:
    """Smallest delta in _DELTA_BRACKET with sqrt(n) delta^2 >= 8 (J(delta)
    + 4 delta sqrt(1+t) + delta sqrt(8t/3)), located by bisection to
    relative precision 1e-6.

    The hypothesis that J(delta)/delta^2 is nonincreasing is checked on a
    24-point log grid over the bracket; under it the feasible set is an
    upper interval, so bisection finds the boundary.
    """
    if t < 3.0 / 8.0:
        raise ValueError("theorem requires t >= 3/8")
    lo, hi = _DELTA_BRACKET
    check_grid = np.geomspace(max(lo, 1e-6), hi, 24)
    ratios = np.array([j_curve(u) / u ** 2 for u in check_grid])
    if np.any(ratios < -1e-12):
        raise ValueError("J must be nonnegative")
    if np.any(np.diff(ratios) > 1e-9 + 1e-6 * np.abs(ratios[:-1])):
        raise ValueError("J(delta)/delta^2 must be nonincreasing on the check grid")
    coef = 4.0 * math.sqrt(1.0 + t) + math.sqrt(8.0 * t / 3.0)

    def feasible(delta):
        return math.sqrt(n) * delta ** 2 >= 8.0 * (j_curve(delta) + delta * coef)

    if not feasible(hi):
        raise ValueError("no feasible delta below the bracket upper end")
    if feasible(lo):
        return lo
    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def measured_entropy_integral(dist_matrix: np.ndarray):
    """Empirical J(delta) = 4 int_0^delta sqrt(2 H(u, ball(delta))) du.

    H is the greedy-cover entropy of the members within delta of member 0
    (the class shifted by g0), integrated on a 20-point log grid in u with the
    saturation value log(ball size) used below the grid; both choices only
    increase J, keeping any threshold solved from it valid. The returned
    callable is the nonincreasing-J/delta^2 envelope of the raw measurement,
    so the peeling hypothesis holds by construction.
    """
    norms = dist_matrix[0]
    cloud = PointCloud(dist_matrix, metric="matrix")
    positive = np.sort(norms[norms > 0])
    if positive.size == 0:
        return lambda delta: 0.0
    grid = np.geomspace(max(positive[0] * 0.5, 1e-9), positive[-1] * 1.001, 28)

    def raw_j(delta):
        inside = np.where(norms <= delta)[0]
        if inside.size <= 1:
            return 0.0
        sub = cloud.subset(inside)
        u_grid = np.geomspace(delta / 64.0, delta, 20)
        cover = greedy_cover(sub, u_grid[0])
        h_vals = np.array([math.log(cover.size_at(u)) for u in u_grid])
        head = u_grid[0] * math.sqrt(2.0 * math.log(inside.size))
        f = np.sqrt(2.0 * h_vals)
        # np.trapezoid's own expression; np.trapz is gone from numpy >= 2.4
        area = float(np.sum(np.diff(u_grid) * (f[1:] + f[:-1]) / 2.0))
        return 4.0 * (head + area)

    raw_vals = np.array([raw_j(u) for u in grid])
    env_ratio = np.maximum.accumulate((raw_vals / grid ** 2)[::-1])[::-1]

    def j_env(delta):
        if delta <= 0:
            return 0.0
        if delta >= grid[-1]:
            return float(raw_vals[-1])
        pos = int(np.searchsorted(grid, delta))
        ratio = env_ratio[min(pos, env_ratio.size - 1)]
        return float(min(ratio * delta ** 2, raw_vals[-1]))

    return j_env


# --------------------------------------------------------------------------
# rate experiment


@dataclass(frozen=True)
class RateFit:
    n_values: np.ndarray
    median_errors: np.ndarray
    slope: float
    theoretical_exponent: float
    delta_n: np.ndarray
    coverage_fail: np.ndarray       # P(error > delta_n) per n
    coverage_bound: float
    basic_ok: bool
    net_sizes: np.ndarray
    reps: int
    seed: int

    @property
    def coverage_ok(self) -> np.ndarray:
        se = np.sqrt(self.coverage_fail * (1 - self.coverage_fail) / self.reps)
        return self.coverage_fail <= self.coverage_bound + 3.0 * se

    def rows(self):
        return [{"n": int(n), "median_error": float(m), "delta_n": float(dn),
                 "coverage_fail": float(cf), "net_size": int(ns)}
                for n, m, dn, cf, ns in zip(self.n_values, self.median_errors,
                                            self.delta_n, self.coverage_fail,
                                            self.net_sizes)]

    def to_json(self):
        return {**fields_json(self), "coverage_ok": jsonable(self.coverage_ok)}


def smoothness_exponent(cls: FunctionClass) -> float:
    """-1/(2 + d/m + d'/m'); d'/m' = 0 for finite-dimensional output."""
    extra = 0.0
    if isinstance(cls.b_descriptor, SmoothOutputDescriptor):
        extra = cls.b_descriptor.d_out / cls.b_descriptor.m_out
    return -1.0 / (2.0 + cls.d / cls.m + extra)


# shells calibrated so the least-squares flip boundary tracks the predicted
# decay over n in [64, 4096] with trace-1 noise: quarter-octave radii, counts
# rising toward the bottom rung
DEFAULT_SHELL_RADII = tuple(0.6 * 0.8409 ** k for k in range(16))
DEFAULT_SHELL_COUNTS = (3, 3, 3, 3, 4, 4, 5, 6, 7, 9, 11, 14, 18, 24, 32, 150)


def default_rate_pool(seed: int = 11, d_y: int = 3, k_b: float = 250.0,
                      base_count: int = 150) -> FunctionClass:
    """Net-like pool on [0, 1] (d = m = 1): random members with eight terms
    of frequencies 1..8, on a 257-node grid, plus convex blends at fixed
    distances from member 0.

    The blends populate shells around the regression truth, with
    DEFAULT_SHELL_COUNTS[i] blends at the L2(P) radius DEFAULT_SHELL_RADII[i]
    * k_b / 250, realizing a local entropy profile dense enough for the
    least-squares error to track the peeling threshold instead of
    collapsing to zero once the raw pool's nearest-neighbour spacing is
    reached. Blends are convex combinations, so every pool member stays
    inside the class.
    """
    if base_count < 1:
        raise ValueError("base_count must be at least 1")
    resolution, max_freq = 257, 8
    base = generate_finite_dim_ball_class(1, 1, d_y, k_b, base_count, seed,
                                          resolution=resolution, n_terms=8,
                                          max_freq=max_freq, min_freq=1)
    # anchor the truth near the centre of the pool: rays from it toward the
    # other members then point in nearly uncorrelated directions
    g0 = base[0].scaled(0.02)
    members = [g0] + list(base.members[1:base_count])
    # single-frequency partners: one dominant frequency per partner keeps the
    # shell directions spread over the whole frequency range instead of
    # collapsing onto the lowest mode, so the local direction space widens
    # as the shell radius shrinks (the smooth-class geometry)
    per_freq = (2 * sum(DEFAULT_SHELL_COUNTS)) // max_freq + 32
    partner_pools = [
        generate_finite_dim_ball_class(1, 1, d_y, k_b, per_freq,
                                       seed + 7919 * k, resolution=resolution,
                                       n_terms=2, max_freq=k, min_freq=k)
        for k in range(1, max_freq + 1)
    ]
    partners = [pool[i] for i in range(per_freq) for pool in partner_pools]
    radii = np.asarray(DEFAULT_SHELL_RADII) * (k_b / 250.0)  # 1.0 at 250
    order = np.argsort(-radii)
    needs = {int(i): int(DEFAULT_SHELL_COUNTS[i]) for i in order}
    for partner in partners:
        if not any(needs.values()):
            break
        dist = l2_distance_uniform(partner, g0)
        # largest still-unfilled shell this partner can reach
        for i in order:
            radius = radii[i]
            if needs[int(i)] > 0 and dist > radius:
                members.append(blend_members(g0, partner, radius / dist))
                needs[int(i)] -= 1
                break
    unfilled = {float(radii[i]): c for i, c in needs.items() if c > 0}
    if unfilled:
        raise ValueError(f"could not fill shells {unfilled}: too few partners lie beyond them")
    return FunctionClass(members=tuple(members), b_descriptor=base.b_descriptor,
                         d=1, m=1, d_y=d_y, resolution=resolution)


def rate_experiment(pool: FunctionClass, noise: CovarianceSpectrum,
                    n_grid, reps: int, seed: int, t: float = 2.0,
                    net_fraction: float = 1.0 / 64.0,
                    threads: int = 1) -> RateFit:
    """Least-squares error decay over a shrinking net of the smooth class,
    with member 0 of the pool, g0, the regression truth.

    Per sample size: measure the localized entropy integral J of the shifted
    pool on the fixed midpoint design, solve the peeling threshold delta_n,
    thin the pool to a (net_fraction * delta_n)-net containing g0, then run
    noise replicates. Records median errors, the log-log slope, coverage of
    the delta_n guarantee at the given t, and the per-replicate basic
    inequality.

    With trace-1 noise the explicit-constant threshold delta_n exceeds the
    class diameter at moderate n, so a net pruned exactly at delta_n keeps
    only g0; the default net_fraction keeps the net a delta_n-net while
    retaining the local structure the error actually explores.
    """
    if abs(noise.trace - 1.0) > 1e-9:
        raise ValueError("noise covariance must have trace 1")
    n_values = np.asarray(n_grid, int)
    coverage_bound = (1.0 + 2.0 / (math.e - 1.0)) * math.exp(-t)
    medians, deltas, cov_fail, net_sizes = [], [], [], []
    basic_ok = True
    for pos, n in enumerate(n_values):
        design = EmpiricalDesign.midpoint_grid(int(n), pool.d)
        vals = pool.values_on(design)
        dist = PointCloud.from_values(vals).distance_matrix()

        j_curve = measured_entropy_integral(dist)
        delta_n = solve_delta_n(j_curve, int(n), t)
        net_radius = net_fraction * delta_n
        cloud = PointCloud(dist, metric="matrix")
        net = greedy_cover(cloud, net_radius)
        cand = net.center_indices          # g0 first
        vc = vals[cand].reshape(len(cand), -1)
        truth = vals[0].ravel()
        g_norm = np.sum(vc ** 2, axis=1)
        a_cross = vc @ truth

        def block(rng, size):
            eps = sample_gaussian_batch(noise, rng, size * int(n)) \
                .reshape(size, -1)
            cross = eps @ vc.T
            scores = g_norm[None, :] - 2.0 * (a_cross[None, :] + cross)
            pick = np.argmin(scores, axis=1)
            errs = dist[0, cand[pick]]
            rows = np.arange(size)
            rhs = 2.0 * (cross[rows, pick] - cross[rows, 0]) / n
            return errs, errs ** 2 <= rhs + 1e-9

        parts = map_blocks(block, reps, threads, seed, _TAG_RATE, pos)
        errs, basic = (np.concatenate(p) for p in zip(*parts))
        basic_ok = basic_ok and bool(np.all(basic))
        medians.append(float(np.median(errs)))
        deltas.append(delta_n)
        cov_fail.append(float(np.mean(errs > delta_n)))
        net_sizes.append(len(cand))
    medians = np.array(medians)
    if np.all(medians > 0):
        slope = float(np.polyfit(np.log(n_values.astype(float)),
                                 np.log(medians), 1)[0])
    else:
        slope = float("nan")
    return RateFit(n_values=n_values, median_errors=medians, slope=slope,
                   theoretical_exponent=smoothness_exponent(pool),
                   delta_n=np.array(deltas), coverage_fail=np.array(cov_fail),
                   coverage_bound=coverage_bound, basic_ok=basic_ok,
                   net_sizes=np.array(net_sizes), reps=reps, seed=seed)


# --------------------------------------------------------------------------
# Gaussian chaining (Hilbert noise against the chain of a class)


def gaussian_chaining_check(cls: FunctionClass, design: EmpiricalDesign,
                            noise: CovarianceSpectrum, t_grid, reps: int,
                            seed: int, s_levels: int | None = None,
                            threads: int = 1) -> TailReport:
    """Tail of sup_g sum_s <eps, g^{s+1} - g^s>_{2,P_n} against e^-t.

    Telescopes to <eps, g^{S+1}>_{2,P_n}; the threshold is
    J_n/sqrt(n) + 4 R_n sqrt((1+t)/n) with trace-1 Gaussian noise.
    """
    if abs(noise.trace - 1.0) > 1e-9:
        raise ValueError("noise covariance must have trace 1")
    if noise.d_y != cls.d_y:
        raise ValueError("noise dimension must match the output space")
    plan = build_chaining_plan(cls, design, s_levels)
    n = design.n
    ts = np.asarray(t_grid, float)
    thresholds = plan.j_n / math.sqrt(n) + 4.0 * plan.r_n * np.sqrt((1.0 + ts) / n)
    tops = np.unique(plan.chains[:, -1])
    top_flat = cls.values_on(design)[tops].reshape(len(tops), -1)

    def stat(rng, size):
        eps = sample_gaussian_batch(noise, rng, size * n).reshape(size, -1)
        return (eps @ top_flat.T / n).max(axis=1)

    return tail_check(stat, thresholds, ts, np.exp(-ts), reps, threads, seed,
                      _TAG_GCHAIN)


# --------------------------------------------------------------------------
# Lipschitz-loss empirical risk minimisation (random design)


# values per population-risk buffer: a chunk of noise draws fills one
# (draws, x_quad) tile per output coordinate and two loss buffers of about
# this many values (256 KB each, so they stay in cache), and a group of
# members holds at most this many per-draw means
_LOSS_CHUNK = 1 << 15


@dataclass(frozen=True)
class ErmRow:
    n: int
    median_excess: float
    q95_excess: float
    rad_mean: float          # Rademacher complexity of the loss class
    rad_se: float
    bound: float
    decomposition_ok: bool
    ok: bool


@dataclass(frozen=True)
class ErmReport:
    rows: tuple
    risks: np.ndarray
    g_star: int
    risk_se: float
    reps: int
    seed: int

    @property
    def all_ok(self) -> bool:
        return all(r.ok and r.decomposition_ok for r in self.rows)

    def to_json(self):
        return {**fields_json(self), "all_ok": self.all_ok}


def population_risks(cls: FunctionClass, noise: CovarianceSpectrum,
                     cap: float, lipschitz: float, seed: int,
                     x_quad: int = 512, noise_quad: int = 100_000,
                     threads: int = 1):
    """R(g) = E min-loss for every member, member 0 the regression truth:
    x-quadrature times common-random-number noise Monte Carlo; the shared
    noise sample keeps the member ordering exact and the recorded error
    estimate is the largest standard error across members.

    The residual y - g(x) = (g_true(x) - g(x)) + eps is formed by
    clipped_loss as eps - (g(x) - g_true(x)), the same float. A block's
    noise draws run in chunks of about _LOSS_CHUNK // x_quad draws (at
    least one): each chunk's draws are copied once into contiguous
    coordinate tiles, one (draws, x_quad) tile per output coordinate, and
    every member's loss is taken against them with its g - g_true row
    broadcast over the draws. Each draw's mean is over its whole x_quad
    row and a member's per-draw means are summed over the whole block, so
    no sum depends on the chunk size. Members run in groups whose per-draw
    means fill at most _LOSS_CHUNK values, so a block's buffers grow
    neither with the class nor with noise_quad.
    """
    xq = EmpiricalDesign.midpoint_grid(x_quad, cls.d)
    vals = cls.values_on(xq)                     # (K, xq, d_Y)
    neg_diff = np.ascontiguousarray(
        (vals - vals[0][None]).transpose(0, 2, 1))  # (K, d_Y, xq)
    rows = max(1, _LOSS_CHUNK // x_quad)

    def block(rng, size):
        eps = np.ascontiguousarray(sample_gaussian_batch(noise, rng, size).T)
        out_sum = np.zeros(len(cls))
        out_sq = np.zeros(len(cls))
        group = max(1, _LOSS_CHUNK // size)
        per_draw = np.empty((min(group, len(cls)), size))
        tiles = np.empty((cls.d_y, min(rows, size), x_quad))
        work = np.empty((2, min(rows, size), x_quad))
        for k0 in range(0, len(cls), group):
            members = range(k0, min(k0 + group, len(cls)))
            for lo in range(0, size, rows):
                hi = min(lo + rows, size)
                tile = tiles[:, :hi - lo]
                np.copyto(tile, eps[:, lo:hi, None])  # (d_Y, rows, xq)
                for i, k in enumerate(members):
                    loss = clipped_loss(tile.transpose(1, 2, 0),
                                        neg_diff[k].T[None], cap, lipschitz,
                                        out=work[0, :hi - lo],
                                        scratch=work[1, :hi - lo])
                    np.add.reduce(loss, axis=1, out=per_draw[i, lo:hi])
            per_draw /= x_quad                  # np.mean's own division
            for i, k in enumerate(members):
                out_sum[k] = per_draw[i].sum()
                out_sq[k] = (per_draw[i] ** 2).sum()
        return out_sum, out_sq

    parts = map_blocks(block, noise_quad, threads, seed, _TAG_ERM, block=4096)
    risks, risk_sq = (np.sum(p, axis=0) / noise_quad for p in zip(*parts))
    se = np.sqrt(np.maximum(risk_sq - risks ** 2, 0.0) / noise_quad)
    return risks, float(se.max())


def erm_lipschitz_experiment(cls: FunctionClass, noise: CovarianceSpectrum,
                             n_grid, reps: int, seed: int, cap: float = 1.0,
                             lipschitz: float = 1.0, rad_patterns: int = 2048,
                             x_quad: int = 512, noise_quad: int = 100_000,
                             threads: int = 1) -> ErmReport:
    """Excess-risk distribution of clipped-loss ERM against the Rademacher
    generalization bound 2 R_n(L o G) + 5c sqrt(2 log(8/delta)/n), delta =
    0.05, with member 0 the regression truth.

    The population risks use quadrature with common random numbers, so the
    per-replicate decomposition excess <= sup(R - Rhat) + Rhat(g*) - R(g*)
    holds exactly. The loss-class Rademacher complexity is averaged over
    replicates (random design), matching the unconditional bound.
    """
    if abs(noise.trace - 1.0) > 1e-9:
        raise ValueError("noise covariance must have trace 1")
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if not all(math.isfinite(v) and v > 0 for v in (cap, lipschitz)):
        raise ValueError("cap and Lipschitz constant must be finite and "
                         "positive")
    risks, risk_se = population_risks(cls, noise, cap, lipschitz, seed,
                                      x_quad=x_quad, noise_quad=noise_quad,
                                      threads=threads)
    g_star = int(np.argmin(risks))
    c_bound = lipschitz * cap
    rows = []
    for pos, n in enumerate(np.asarray(n_grid, int)):
        def block(rng, size, n=int(n)):
            excesses = np.empty(size)
            rads = np.empty(size)
            decomp = np.empty(size, dtype=bool)
            signs = np.empty((rad_patterns, n))     # refilled per replicate
            # every design and noise draw precedes the block's signs, so the
            # sign sampler cannot move the excess risks
            draws = [(rng.uniform(size=(n, cls.d)),
                      sample_gaussian_batch(noise, rng, n)) for _ in range(size)]
            for b, (x, eps) in enumerate(draws):
                vals = cls.values_on(EmpiricalDesign(x))
                y = vals[0] + eps
                loss = clipped_loss(y[None], vals, cap, lipschitz)  # (K, n)
                emp = loss.mean(axis=1)
                ghat = int(np.argmin(emp))
                excess = risks[ghat] - risks[g_star]
                excesses[b] = excess
                decomp[b] = excess <= (np.max(risks - emp)
                                       + emp[g_star] - risks[g_star] + 1e-12)
                rads[b] = sup_sign_norms(
                    rademacher_signs(rng, signs.shape, out=signs),
                    loss[:, :, None]).mean()
            return excesses, rads, decomp

        parts = map_blocks(block, reps, threads, seed, _TAG_ERM_RAD, pos,
                           block=64)
        excess, rad, decomp = (np.concatenate(p) for p in zip(*parts))
        decomp_ok = bool(np.all(decomp))
        rad_mean = float(rad.mean())
        rad_se = float(rad.std(ddof=1) / math.sqrt(reps))
        bound = 2.0 * rad_mean + 5.0 * c_bound * math.sqrt(
            2.0 * math.log(8.0 / 0.05) / n)
        q95 = float(np.quantile(excess, 0.95))
        ok = q95 <= bound + 3.0 * (2.0 * rad_se + risk_se)
        rows.append(ErmRow(n=int(n), median_excess=float(np.median(excess)),
                           q95_excess=q95, rad_mean=rad_mean, rad_se=rad_se,
                           bound=bound, decomposition_ok=decomp_ok, ok=ok))
    return ErmReport(rows=tuple(rows), risks=risks, g_star=g_star,
                     risk_se=risk_se, reps=reps, seed=seed)
