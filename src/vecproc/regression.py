"""Fixed-design least squares with Hilbert-valued Gaussian noise, the peeling
threshold, rate experiments, Gaussian chaining, and Lipschitz-loss ERM.

The estimator is always an exhaustive argmin over a finite candidate class (a
net of the smooth class; the infinite argmin is not computable), with the net
radius tied to the peeling threshold delta_n so discretization error stays
subdominant. Everything is a deterministic function of (seed, reps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .concentration import CovarianceSpectrum, sample_gaussian_batch
from .covering import PointCloud, greedy_cover
from .covering import greedy_cover as greedy_cover_from  # former name, kept for callers
from .empirical_process import build_chaining_plan
from .function_class import (EmpiricalDesign, FunctionClass,
                             SmoothOutputDescriptor, ball_members,
                             blend_members, generate_finite_dim_ball_class,
                             l2_distance_uniform)
from .hilbert import clipped_loss, distances, member_norms
from .reports import MC_SES, TailReport, fields_json, jsonable, passes, tail_check
from .rng import TILE_VALUES, map_blocks, row_tiles, sign_rows

_TAG_RATE = 502
_TAG_GCHAIN = 503
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
        return passes(self.coverage_fail, self.coverage_bound, MC_SES * se)

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
    # as the shell radius shrinks (the smooth-class geometry). Partner i of
    # every frequency in turn, each drawn only when the loop reaches it: the
    # shells fill long before the last of them
    per_freq = (2 * sum(DEFAULT_SHELL_COUNTS)) // max_freq + 32
    streams = [ball_members(1, 1, d_y, k_b, seed + 7919 * k, n_terms=2,
                            max_freq=k, min_freq=k)
               for k in range(1, max_freq + 1)]
    partners = (next(stream) for _ in range(per_freq) for stream in streams)
    radii = np.asarray(DEFAULT_SHELL_RADII) * (k_b / 250.0)  # 1.0 at 250
    order = np.argsort(-radii)
    needs = {int(i): int(DEFAULT_SHELL_COUNTS[i]) for i in order}
    for partner in partners:
        dist = l2_distance_uniform(partner, g0)
        # largest still-unfilled shell this partner can reach
        for i in order:
            radius = radii[i]
            if needs[int(i)] > 0 and dist > radius:
                members.append(blend_members(g0, partner, radius / dist))
                needs[int(i)] -= 1
                break
        if not any(needs.values()):
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
    retaining the local structure the error actually explores. A size
    whose net is g0 alone, or whose median error is 0, raises: the run
    would measure nothing there, and log 0 leaves the slope undefined. So
    does a grid of fewer than two distinct sizes, whose fit has no slope.
    """
    if abs(noise.trace - 1.0) > 1e-9:
        raise ValueError("noise covariance must have trace 1")
    if len(set(n_grid)) < 2:
        raise ValueError("need at least two distinct sample sizes")
    n_values = np.asarray(n_grid, int)
    coverage_bound = (1.0 + 2.0 / (math.e - 1.0)) * math.exp(-t)
    medians, deltas, cov_fail, net_sizes = [], [], [], []
    basic_ok = True
    for pos, n in enumerate(n_values):
        design = EmpiricalDesign.midpoint_grid(int(n), pool.d)
        dist = PointCloud.from_empirical(pool, design).distance_matrix()

        j_curve = measured_entropy_integral(dist)
        delta_n = solve_delta_n(j_curve, int(n), t)
        net_radius = net_fraction * delta_n
        cloud = PointCloud(dist, metric="matrix")
        net = greedy_cover(cloud, net_radius, start=0)
        if net.size == 1:
            raise ValueError(f"at n = {n} the net at net_fraction * delta_n "
                             f"(delta_n = {delta_n:.4g}) is g0 alone, so the "
                             "run would measure nothing")
        cand = net.center_indices          # g0 first
        # only the net's values: a member's are its bits in the whole pool's
        # table, since a table row does not depend on the width
        net_pool = replace(pool, members=tuple(pool[i] for i in cand))
        vc = net_pool.values_on(design).reshape(len(cand), -1)
        truth = vc[0]
        # each row's pairwise sum, a few rows at a time
        step = max(1, TILE_VALUES // vc.shape[1])
        g_norm = np.concatenate([np.sum(vc[lo:lo + step] ** 2, axis=1)
                                 for lo in range(0, len(vc), step)])
        a_cross = vc @ truth

        def tile(rng, rows):
            eps = sample_gaussian_batch(noise, rng, rows * int(n)) \
                .reshape(rows, -1)
            cross = eps @ vc.T
            scores = g_norm[None, :] - 2.0 * (a_cross[None, :] + cross)
            pick = np.argmin(scores, axis=1)
            errs = dist[0, cand[pick]]
            rhs = 2.0 * (cross[np.arange(rows), pick] - cross[:, 0]) / n
            return errs, passes(errs ** 2, rhs, 1e-9)

        def block(rng, size):
            return [tile(rng, rows)
                    for rows in row_tiles(size, vc.shape[1], len(cand), 1)]

        parts = sum(map_blocks(block, reps, threads, seed, _TAG_RATE, pos), [])
        errs, basic = (np.concatenate(p) for p in zip(*parts))
        basic_ok = basic_ok and bool(np.all(basic))
        medians.append(float(np.median(errs)))
        if medians[-1] == 0:
            raise ValueError(f"at n = {n} over half the replicates pick g0, "
                             "so the median error is 0 and the log-log "
                             "rate fit is undefined")
        deltas.append(delta_n)
        cov_fail.append(float(np.mean(errs > delta_n)))
        net_sizes.append(len(cand))
    medians = np.array(medians)
    slope = float(np.polyfit(np.log(n_values.astype(float)), np.log(medians),
                             1)[0])
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

    def tile(rng, rows):
        eps = sample_gaussian_batch(noise, rng, rows * n).reshape(rows, -1)
        return (eps @ top_flat.T / n).max(axis=1)

    def stat(rng, size):
        return np.concatenate([
            tile(rng, rows)
            for rows in row_tiles(size, top_flat.shape[1], len(tops), 1)])

    return tail_check(stat, thresholds, ts, np.exp(-ts), reps, threads, seed,
                      _TAG_GCHAIN)


# --------------------------------------------------------------------------
# Lipschitz-loss empirical risk minimisation (random design)


# population risks: the points of the midpoint rule in x, the tail exponent
# X of the noise windows (each drops at most e^-X of its law's mass; see
# expected_clipped_norm) and the radii per block of Gaussian weights
_X_QUAD = 512
_NOISE_TAIL = 100.0
_RADII_BLOCK = 512
_RAD_PATTERNS = 2048    # sign patterns per replicate of R_n(L o G)


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
    risk_se: float           # quadrature bracket of the risks
    reps: int
    seed: int

    @property
    def all_ok(self) -> bool:
        return all(r.ok and r.decomposition_ok for r in self.rows)

    def to_json(self):
        return {**fields_json(self), "all_ok": self.all_ok}


def _gauss_legendre(n: int, lo: float, hi: float):
    """n-point Gauss-Legendre nodes and weights on [lo, hi].

    Newton's method on the three-term recurrence of P_n, started from
    cos(pi (4k - 1) / (4n + 2)) (Hale & Townsend, SIAM J. Sci. Comput.
    2013); the weights are 2 / ((1 - x^2) P_n'(x)^2) at the converged
    nodes. No eigensolver, so no LAPACK workspace.
    """
    x = np.cos(np.pi * (4.0 * np.arange(1, n + 1) - 1.0) / (4.0 * n + 2.0))

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / ((x - 1.0) * (x + 1.0))

    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    dp = legendre(x)[1]
    half = 0.5 * (hi - lo)
    return (lo + half * (x + 1.0),
            half * 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp))


def expected_clipped_norm(radii, variance: float, d_y: int, cap: float,
                          nodes: int) -> np.ndarray:
    """E min(||r e_1 + xi||, cap) at every radius r >= 0 of `radii`, for
    xi ~ N(0, s^2 I) in d_y dimensions (s^2 = variance), by a
    Gauss-Legendre product rule of about `nodes` nodes per axis.

    Write a = r + xi_1 ~ N(r, s^2) and rho = ||(xi_2, ..., xi_dy)||, s times
    a chi variable with k = d_y - 1 degrees of freedom, of density f. The
    loss is c - (c - sqrt(a^2 + rho^2))_+, so its mean is
    c - int h(a) N(a; r, s^2) da with
    h(a) = int_0^top(a) (c - sqrt(a^2 + rho^2)) f(rho) drho,
    top(a) = min(sqrt(c^2 - a^2), rho_hi), and h(a) = c - |a| when
    d_y = 1. h is tabulated once, on a product rule:
      - outer: a = c sin(theta) removes the square-root kink at |a| = c;
        each side of a = 0 has its own rule, split where top(a) switches
        terms, and at d_y = 2, where h has an a^2 log|a| term, graded
        toward a = 0 as theta = end tau^2;
      - inner: rho = |a| sinh(v), so that sqrt(a^2 + rho^2) = |a| cosh(v),
        smooth in v however close a is to 0.
    Each radius then costs one Gaussian-weighted sum over the outer nodes,
    in blocks of _RADII_BLOCK radii. The outer rule has `nodes` nodes per
    2 t s of its window, so every Gaussian stays resolved.

    Windows: both integrals run only over W = {-t s <= a <= max r + t s,
    rho <= rho_hi}, with X = _NOISE_TAIL, t = sqrt(2X) and
    rho_hi = s sqrt(k + 2 sqrt(kX) + 2X). At every radius
    P(|a - r| > t s) <= erfc(t / sqrt 2) <= e^-X, and P(rho > rho_hi) <=
    e^-X (Laurent & Massart, Ann. Statist. 2000), so P(not W) <= 2 e^-X. The
    loss on W never exceeds s_max = max over W of ||(a, rho)||, so the cap
    is replaced by c = min(cap, s_max): nothing changes on W, and c - (...)
    stays of the size of the window at any cap. The result then differs
    from the mean by at most max(2c e^-X, sqrt(2 (r^2 + d_y s^2)) e^(-X/2)),
    the second term by Cauchy-Schwarz on the loss off W; at X = 100 that is
    below 1e-18 for r and c up to 1e3.
    """
    radii = np.asarray(radii, float)
    k, s = d_y - 1, math.sqrt(variance)
    if cap < 1e-17 * s:
        # P(||r e_1 + xi|| < cap) <= P(|a| < cap) < 1e-17, so the mean is
        # cap to double precision; the rule below would underflow
        return np.full(radii.shape, float(cap))
    ts = s * math.sqrt(2.0 * _NOISE_TAIL)
    rho_hi = s * math.sqrt(k + 2.0 * math.sqrt(k * _NOISE_TAIL)
                           + 2.0 * _NOISE_TAIL) if k else 0.0
    a_hi = float(radii.max(initial=0.0)) + ts
    c = min(cap, math.hypot(a_hi, rho_hi))
    a_lo, a_hi = max(-ts, -c), min(a_hi, c)
    # top(a) = rho_hi for |a| < knee, sqrt(c^2 - a^2) beyond it
    knee = math.sqrt(c * c - rho_hi * rho_hi) if rho_hi < c else c
    ends = np.arcsin([a_lo / c, a_hi / c])
    outer = nodes * math.ceil((a_hi - a_lo) / (2.0 * ts))
    p = 2 if k == 1 else 1
    th, w = [], []
    for end in ends:
        cuts = [0.0, 1.0]
        tau_knee = (math.asin(knee / c) / abs(end)) ** (1.0 / p)
        if tau_knee < 1.0:
            cuts.insert(1, tau_knee)
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            size = round(outer * (hi - lo) * abs(end) / (ends[1] - ends[0]))
            tau, wt = _gauss_legendre(max(1, size), lo, hi)
            th.append(end * tau ** p)
            w.append(p * abs(end) * tau ** (p - 1) * wt)
    th, w = np.concatenate(th), np.concatenate(w)
    a, cos = c * np.sin(th), np.cos(th)
    if k == 0:
        h = c - np.abs(a)
    else:
        abs_a = np.abs(a)[:, None]
        v_top = np.arcsinh(np.minimum(c * cos, rho_hi) / abs_a[:, 0])
        u, wu = _gauss_legendre(nodes, 0.0, 1.0)
        v = v_top[:, None] * u
        rho = abs_a * np.sinh(v)
        norm = abs_a * np.cosh(v)                       # also drho / dv
        log_f = ((k - 1) * np.log(rho) - rho * rho / (2.0 * variance)
                 + math.log(2.0) - 0.5 * k * math.log(2.0 * variance)
                 - math.lgamma(0.5 * k))
        h = v_top * (((c - norm) * norm * np.exp(log_f)) @ wu)
    # da = c cos(theta) dtheta, and the normalizer of N(a; r, s^2)
    g = w * c * cos * h / math.sqrt(2.0 * math.pi * variance)
    flat = radii.ravel()
    out = np.empty(flat.size)
    for lo in range(0, flat.size, _RADII_BLOCK):
        weight = a - flat[lo:lo + _RADII_BLOCK, None]
        weight *= weight
        weight *= -0.5 / variance
        out[lo:lo + _RADII_BLOCK] = c - np.exp(weight, out=weight) @ g
    return out.reshape(radii.shape)


def population_risks(cls: FunctionClass, noise: CovarianceSpectrum,
                     cap: float, lipschitz: float, noise_quad: int = 100_000):
    """R(g) = L E min(||y - g(x)||, c) for every member, member 0 the
    regression truth, and the error bracket of the noise quadrature.

    The noise must be isotropic, N(0, s^2 I). Then the loss at x depends
    on g only through r(x) = ||g(x) - g_true(x)||, and R(g) is the mean of
    L expected_clipped_norm(r(x)) over the _X_QUAD-point midpoint rule in
    x. The noise rule has about sqrt(noise_quad) nodes per axis, and the
    bracket is max_k |R_k(noise_quad) - R_k(noise_quad // 4)|: what halving
    the nodes per axis moves. The risks are deterministic; by Anderson's
    inequality (Proc. AMS 1955) the exact R(g) is smallest at the truth.
    """
    ev = noise.eigenvalues
    if noise.d_y != cls.d_y:
        raise ValueError("noise dimension must match the output space")
    if np.any(ev != ev[0]) or ev[0] <= 0:
        raise ValueError("population risks need isotropic noise: equal "
                         "positive eigenvalues")
    vals = cls.values_on(EmpiricalDesign.midpoint_grid(_X_QUAD, cls.d))
    radii = distances(vals, vals[0][None])             # (K, x_quad)
    fine, coarse = (lipschitz * expected_clipped_norm(
        radii, ev[0], cls.d_y, cap, max(1, math.isqrt(q))).mean(axis=1)
        for q in (noise_quad, noise_quad // 4))
    return fine, float(np.max(np.abs(fine - coarse)))


def erm_lipschitz_experiment(cls: FunctionClass, noise: CovarianceSpectrum,
                             n_grid, reps: int, seed: int, cap: float = 1.0,
                             lipschitz: float = 1.0, noise_quad: int = 100_000,
                             threads: int = 1) -> ErmReport:
    """Excess-risk distribution of clipped-loss ERM against the Rademacher
    generalization bound 2 R_n(L o G) + 5c sqrt(2 log(8/delta)/n), delta =
    0.05, with member 0 the regression truth.

    The population risks are one deterministic quadrature
    (population_risks, with its noise_quad) shared by every replicate, so
    the per-replicate decomposition excess <= sup(R - Rhat) + Rhat(g*) -
    R(g*) holds exactly; the verdict's slack adds three times their
    quadrature bracket. The loss-class Rademacher complexity is averaged
    over replicates (random design), matching the unconditional bound.
    """
    if abs(noise.trace - 1.0) > 1e-9:
        raise ValueError("noise covariance must have trace 1")
    if reps < 2:
        raise ValueError("reps must be at least 2")
    if not all(math.isfinite(v) and v > 0 for v in (cap, lipschitz)):
        raise ValueError("cap and Lipschitz constant must be finite and "
                         "positive")
    risks, risk_se = population_risks(cls, noise, cap, lipschitz, noise_quad)
    g_star = int(np.argmin(risks))
    c_bound = lipschitz * cap
    rows = []
    for pos, n in enumerate(np.asarray(n_grid, int)):
        def block(rng, size, n=int(n)):
            excesses = np.empty(size)
            rads = np.empty(size)
            decomp = np.empty(size, dtype=bool)
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
                decomp[b] = passes(excess, np.max(risks - emp) + emp[g_star]
                                   - risks[g_star], 1e-12)
                rads[b] = np.concatenate([
                    member_norms(signs, loss.T, 1, n) for signs in
                    sign_rows(rng, _RAD_PATTERNS, n, len(cls))]).mean()
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
        ok = passes(q95, bound, MC_SES * (2.0 * rad_se + risk_se))
        rows.append(ErmRow(n=int(n), median_excess=float(np.median(excess)),
                           q95_excess=q95, rad_mean=rad_mean, rad_se=rad_se,
                           bound=bound, decomposition_ok=decomp_ok, ok=ok))
    return ErmReport(rows=tuple(rows), risks=risks, g_star=g_star,
                     risk_se=risk_se, reps=reps, seed=seed)
