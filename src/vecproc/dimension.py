"""Box-counting dimension estimation and homogeneity / Assouad checks.

All estimates operate on finite samples, so the box dimension comes from a
least-squares fit of entropy against log(1/delta) over a declared window,
and the Assouad-type quantities are explicitly heuristic upper estimates: a
finite sample can refute homogeneity (a ball needing too many small balls)
but never certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .covering import (EXACT_COVER_MAX, PointCloud, _greedy_traversal,
                       exact_cover_number, greedy_cover)
from .reports import fields_json, passes
from .rng import substream

_TAG_TRIAL = 201
_NO_SCALE = "a cloud of fewer than two distinct points has no radius scale"


@dataclass(frozen=True)
class DimensionFit:
    delta_grid: np.ndarray
    entropies: np.ndarray
    slope: float
    intercept: float
    fit_range: tuple


def _spread_starts(cloud: PointCloud, n_starts: int) -> np.ndarray:
    """Deterministic well-separated start indices: a coarse greedy cover."""
    coarse = greedy_cover(cloud, max(approx_diameter(cloud), 1e-12) / 4.0)
    return coarse.center_indices[:n_starts]


def _smallest_cover_sizes(cloud: PointCloud, deltas, n_starts: int) -> list:
    """Per radius of the decreasing deltas, the smallest greedy cover over
    n_starts spread starts, read off one cover per start at the finest.

    Every restart yields a valid cover, so the minimum is a tighter upper
    bound on N(delta) than any single run; restarting from spread points
    also damps the drift a corner start induces across radii."""
    covers = _greedy_traversal(cloud, deltas[-1],
                               _spread_starts(cloud, n_starts))
    return [min(c.size_at(d) for c in covers) for d in deltas]


def box_dimension_estimate(cloud: PointCloud, delta_grid,
                           n_starts: int = 8) -> DimensionFit:
    """Fit H(delta) against log(1/delta) over the whole radius grid.

    Entropies are greedy-cover entropies (smallest cover over n_starts
    deterministic spread starting points), all read off one cover per start
    at the finest radius; the grid must be strictly decreasing with at
    least four radii.
    """
    deltas = np.asarray(delta_grid, float)
    if deltas.size < 4:
        raise ValueError("need at least 4 radii")
    if np.any(np.diff(deltas) >= 0):
        raise ValueError("delta grid must be strictly decreasing")
    if cloud.size == 0:
        raise ValueError("cloud must be nonempty")
    entropies = np.array([math.log(size) for size in
                          _smallest_cover_sizes(cloud, deltas, n_starts)])
    slope, intercept = np.polyfit(np.log(1.0 / deltas), entropies, 1)
    return DimensionFit(delta_grid=deltas, entropies=entropies,
                        slope=float(slope), intercept=float(intercept),
                        fit_range=(0, deltas.size))


def default_radius_window(cloud: PointCloud):
    """[2 x median nearest-neighbour distance, diameter / 4].

    Below the lower end discreteness dominates; above the upper end boundary
    effects dominate.
    """
    diam = approx_diameter(cloud)
    if diam == 0:
        raise ValueError(_NO_SCALE)
    lo = 2.0 * median_nn_distance(cloud)
    if lo == 0:
        raise ValueError("a cloud in which over half the points have a twin "
                         "has median nearest-neighbour distance 0, so no "
                         "default radius window; give the radii (--deltas)")
    return lo, diam / 4.0


# rows of distances median_nn_distance holds at once
_NN_BLOCK = 64


def median_nn_distance(cloud: PointCloud) -> float:
    n = cloud.size
    idx = np.arange(n) if n <= 1024 else np.linspace(0, n - 1, 512).astype(int)
    dists = []
    for lo in range(0, idx.size, _NN_BLOCK):
        block = idx[lo:lo + _NN_BLOCK]
        d = cloud.distance_rows(block)
        d[np.arange(block.size), block] = np.inf
        dists.append(d.min(axis=1))
    return float(np.median(np.concatenate(dists)))


def approx_diameter(cloud: PointCloud) -> float:
    """Two farthest-point sweeps; within a factor 2 of the true diameter."""
    d0 = cloud.distances_to(0)
    far = int(np.argmax(d0))
    d1 = cloud.distances_to(far)
    return float(max(d0.max(), d1.max()))


@dataclass(frozen=True)
class HomogeneityTrial:
    center: int
    radius_big: float = field(metadata={"json": "R"})
    radius_small: float = field(metadata={"json": "r"})
    local_size: int
    measured: int
    bound: float
    exact: bool
    ok: bool


@dataclass(frozen=True)
class HomogeneityReport:
    m: float
    tau: float
    trials: tuple

    @property
    def all_ok(self) -> bool:
        return all(t.ok for t in self.trials)

    def to_json(self):
        return {**fields_json(self), "all_ok": self.all_ok}


def _sample_trials(cloud: PointCloud, n_trials: int, seed: int,
                   radius_range=None):
    """Random (center, R, r) triples with R and r log-uniform, r <= R/2.

    radius_range optionally pins (R_lo, R_hi); the default spans twice the
    median nearest-neighbour distance up to a quarter of the diameter.
    """
    nn = max(median_nn_distance(cloud), 1e-12)
    d0 = cloud.distances_to(0)
    d_far = cloud.distances_to(int(np.argmax(d0)))
    diam = float(max(d0.max(), d_far.max()))    # approx_diameter's two sweeps
    if diam == 0:
        raise ValueError(_NO_SCALE)
    r_lo = 1.5 * nn
    if radius_range is not None:
        big_lo, big_hi = radius_range
    else:
        big_hi = max(diam / 4.0, 8.0 * nn)
        big_lo = min(4.0 * nn, big_hi / 2.0)
    # trial centres come from the central half of the cloud: local balls
    # around extreme points are clipped by the sample edge, which biases
    # local counts (and hence dimension estimates) downward
    d_far2 = cloud.distances_to(int(np.argmax(d_far)))
    centrality = np.maximum(d_far, d_far2)
    candidates = np.where(centrality <= np.median(centrality))[0]
    out = []
    for i in range(n_trials):
        rng = substream(seed, _TAG_TRIAL, i)
        z = int(candidates[rng.integers(0, candidates.size)])
        radius_big = math.exp(rng.uniform(math.log(big_lo), math.log(big_hi)))
        # favour large R/r (better scaling regime) while keeping r above the
        # discreteness floor
        ratio_hi = max(2.0, min(16.0, radius_big / r_lo))
        ratio = math.exp(rng.uniform(math.log(2.0), math.log(ratio_hi)))
        out.append((z, radius_big, radius_big / ratio))
    return out


def _local_cover_number(cloud: PointCloud, center: int, radius_big: float,
                        radius_small: float):
    """Covering number of the ball B(z, R) cap E at radius r.

    Exact when the local set is small enough to brute-force; otherwise the
    smallest greedy cover over eight spread starts, an upper bound (failures
    are then conservative evidence only).
    """
    dist = cloud.distances_to(center)
    local_idx = np.where(dist <= radius_big)[0]
    local = cloud.subset(local_idx)
    if local.size <= EXACT_COVER_MAX:
        return exact_cover_number(local, radius_small), True, local.size
    return _smallest_cover_sizes(local, [radius_small], 8)[0], False, local.size


def homogeneity_check(cloud: PointCloud, m: float, tau: float, n_trials: int,
                      seed: int, radius_range=None) -> HomogeneityReport:
    """Test N(r, B(z,R) cap E) <= M (R/r)^tau on random local balls."""
    if m < 1 or tau <= 0:
        raise ValueError("need M >= 1 and tau > 0")
    trials = []
    for z, radius_big, radius_small in _sample_trials(cloud, n_trials, seed,
                                                      radius_range):
        measured, exact, local_size = _local_cover_number(
            cloud, z, radius_big, radius_small)
        try:
            bound = m * (radius_big / radius_small) ** tau
        except OverflowError:      # a float power raises; a product gives inf
            raise ValueError("the homogeneity bound M (R/r)^tau overflows "
                             "a float") from None
        trials.append(HomogeneityTrial(center=z, radius_big=radius_big,
                                       radius_small=radius_small,
                                       local_size=local_size,
                                       measured=measured, bound=bound,
                                       exact=exact,
                                       ok=passes(measured, bound * (1 + 1e-12))))
    return HomogeneityReport(m=m, tau=tau, trials=tuple(trials))


def assouad_estimate(cloud: PointCloud, seed: int, n_trials: int = 64):
    """Heuristic upper estimate of (M, tau) from sampled local covers.

    tau is the least-squares slope of log N against log(R/r); M is then
    inflated so every sampled trial satisfies the homogeneity bound. A
    finite sample cannot certify homogeneity, so this is an estimate only.
    """
    if n_trials < 2:
        raise ValueError("the Assouad slope needs at least two trials")
    if cloud.size < 10:
        raise ValueError("need at least 10 points")
    if approx_diameter(cloud) == 0:     # one ball covers it at every radius
        return 1.0, 0.0
    counts, ratios = [], []
    for z, radius_big, radius_small in _sample_trials(cloud, n_trials, seed):
        measured, _, _ = _local_cover_number(cloud, z, radius_big, radius_small)
        counts.append(measured)
        ratios.append(radius_big / radius_small)
    counts = np.array(counts, float)
    ratios = np.array(ratios, float)
    if np.all(counts == 1):
        return 1.0, 0.0
    slope, _ = np.polyfit(np.log(ratios), np.log(counts), 1)
    tau = max(float(slope), 0.0)
    if tau == 0.0:
        return float(max(counts.max(), 1.0)), 0.0
    m = float(max(1.0, np.max(counts / ratios ** tau)))
    return m, tau
