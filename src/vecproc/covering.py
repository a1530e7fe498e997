"""Covering numbers of finite metric sets and the constructive smooth cover.

Two families of operations live here: generic covers of finite point clouds
(deterministic farthest-point greedy, exhaustive exact minimum, maximal
packing), and the piecewise-polynomial cover of a smooth vector-valued
function class built from a spatial net plus per-derivative-level covers of
the range set, with cells disjointified in greedy order.

A cover and its check read one distance formula. Chaining plans and nets,
which need every pair, cover a "matrix" cloud of the GEMM-form
`distance_matrix` they are checked in. A class cloud built for its
||.||_{2,P_n} distances (`PointCloud.from_empirical`) sits in feature
coordinates when the class has fewer features F than K d_Y: member k is
vec(R C_k), R from the QR of the feature matrix at the design, an isometry
into min(n, F) d_Y coordinates where the values take n d_Y. Everything
else reads rows bitwise equal to `distances_to`, through `distance_rows`,
which computes several rows of a euclidean cloud narrower than 8
coordinates as one block: the greedy traversal, which advances several
starts in lockstep, one row per active start and step, and exact covers
and packings, whose masks are then exact at ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .function_class import (EmpiricalDesign, FunctionClass, grid_nodes,
                             multi_indices, trig_tables)
from .hilbert import _PAIRWISE_WIDTH, distances
from .reports import passes


# --------------------------------------------------------------------------
# point clouds


@dataclass(frozen=True)
class PointCloud:
    """Finite metric set: coordinates, sup-metric tensors, or a distance matrix."""

    points: np.ndarray
    metric: str = "euclidean"  # "euclidean" | "sup" | "matrix"

    def __post_init__(self):
        pts = np.asarray(self.points, float)
        if self.metric == "euclidean":
            pts = np.atleast_2d(pts)
        elif self.metric == "sup":
            if pts.ndim != 3:
                raise ValueError("sup metric expects (N, nodes, d_Y) value tensors")
        elif self.metric == "matrix":
            if pts.ndim != 2 or pts.shape[0] != pts.shape[1]:
                raise ValueError("matrix metric expects a square distance matrix")
            if np.any(np.abs(pts - pts.T) > 1e-9) or np.any(np.diag(pts) > 1e-12):
                raise ValueError("distance matrix must be symmetric with zero diagonal")
        else:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("cloud contains non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def distances_to(self, index: int) -> np.ndarray:
        """Distances from every point to the point at `index`."""
        if self.metric == "matrix":
            return self.points[index].copy()
        dist = distances(self.points, self.points[index])
        return dist if self.metric == "euclidean" else dist.max(axis=1)

    def distance_rows(self, indices) -> np.ndarray:
        """The distances_to rows of `indices` as one (k, N) block, bitwise.

        Several rows of a euclidean cloud narrower than _PAIRWISE_WIDTH
        coordinates come from one `distances` call on a Fortran-ordered
        copy of the points, whose coordinate slices are contiguous: every
        entry is the same left-to-right sum of the same squares. A matrix
        cloud takes its rows; one row, and rows of sup and wide clouds,
        are distances_to's.
        """
        if self.metric == "matrix":
            return self.points.take(indices, axis=0)
        if len(indices) == 1:
            return self.distances_to(indices[0])[None]
        if self.metric == "euclidean" and self.points.shape[1] < _PAIRWISE_WIDTH:
            return distances(np.asfortranarray(self.points),
                             self.points[indices][:, None, :])
        return np.array([self.distances_to(i) for i in indices])

    def distance_matrix(self) -> np.ndarray:
        if self.metric == "euclidean":
            sq = np.sum(self.points ** 2, axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * self.points @ self.points.T
            out = np.sqrt(np.maximum(d2, 0.0))
            out = 0.5 * (out + out.T)
            np.fill_diagonal(out, 0.0)
            return out
        return self.distance_rows(np.arange(self.size))

    def subset(self, indices) -> "PointCloud":
        indices = np.asarray(indices, int)
        if self.metric == "matrix":
            return PointCloud(self.points[np.ix_(indices, indices)], metric="matrix")
        return PointCloud(self.points[indices], metric=self.metric)

    @staticmethod
    def from_values(vals: np.ndarray) -> "PointCloud":
        """(K, n) or (K, n, d_Y) design values under ||.||_{2,P_n}: rows
        flattened and scaled by 1/sqrt(n), so euclidean distance is the
        empirical norm."""
        return PointCloud(vals.reshape(vals.shape[0], -1) / math.sqrt(vals.shape[1]))

    @staticmethod
    def from_empirical(cls: FunctionClass, design: EmpiricalDesign) -> "PointCloud":
        """Members under ||.||_{2,P_n}, in the fewer coordinates of two
        isometric embeddings.

        Member k's values are Phi C_k, with Phi = cls.features_on(design),
        (n, F), and C_k its (F, d_Y) block of `cls.features`. With
        Phi / sqrt(n) = QR, Q has orthonormal columns, so
        ||g_k - g_l||_{2,P_n} = ||R (C_k - C_l)||: member k is vec(R C_k),
        min(n, F) d_Y coordinates, for any n. The values have rank at most
        min(F, K d_Y), and this one rule takes the smaller side: feature
        coordinates only when F < K d_Y, where Phi is smaller than the
        (K, n, d_Y) values it replaces; otherwise the QR of Phi costs more
        than the values (a d = 4 class of 40 members has F = 1541 against
        K d_Y = 120), and the cloud is from_values(cls.values_on(design)).
        F is read through its bound min((2W + 1)^d, 1 + 2^d J), J the
        class's terms (a feature picks one of 2W + 1 rows per axis, a term
        touches at most 2^d), so the values side never builds the
        coefficient tensor.
        """
        terms = sum(g.amps.size for g in cls.members)
        if min((2 * cls.width + 1) ** cls.d,
               1 + 2 ** cls.d * terms) >= len(cls) * cls.d_y:
            return PointCloud.from_values(cls.values_on(design))
        coefs = cls.features[1]
        r = np.linalg.qr(cls.features_on(design) / math.sqrt(design.n),
                         mode="r")
        coords = (r @ coefs).reshape(len(r), len(cls), cls.d_y)
        return PointCloud(coords.swapaxes(0, 1).reshape(len(cls), -1))


# --------------------------------------------------------------------------
# greedy and exact covers


@dataclass(frozen=True)
class CoverResult:
    radius: float
    center_indices: np.ndarray     # indices into the cloud
    assignment: np.ndarray         # per point, index into center_indices
    assignment_dist: np.ndarray = field(repr=False)
    insertion_radii: np.ndarray = field(repr=False)  # per center; inf for the first

    @property
    def size(self) -> int:
        return len(self.center_indices)

    def size_at(self, r: float) -> int:
        """Size of the greedy cover from the same start at any r >= radius.

        Insertion radii never increase, so that cover is exactly the first
        size_at(r) centers of this one.
        """
        if r < self.radius:
            raise ValueError("size_at needs r >= the cover radius")
        return int(np.count_nonzero(self.insertion_radii > r))

    def is_valid(self) -> bool:
        return bool(np.all(passes(self.assignment_dist, self.radius * (1 + 1e-12), 1e-12)))

    def to_json(self):
        return {"radius": self.radius,
                "center_indices": [int(i) for i in self.center_indices],
                "assignment": [int(i) for i in self.assignment]}


def greedy_cover(cloud: PointCloud, delta: float, start: int = 0) -> CoverResult:
    """Deterministic farthest-point cover with centers in the cloud.

    First center is point `start`; each next center is the farthest point
    from the current centers (ties broken by lowest index) until every point
    sits within `delta` of some center. Points are assigned to their nearest
    center, ties again to the lowest center position. The centers are a
    prefix of the farthest-point traversal from `start`, so one fine cover
    answers every coarser radius through `size_at`.
    """
    return _greedy_traversal(cloud, delta, [start])[0]


def _greedy_traversal(cloud: PointCloud, delta: float, starts) -> list:
    """greedy_cover from each of `starts`, the traversals run in lockstep.

    Each step, every active start takes its farthest point (a per-row
    argmax, lowest index on ties) and drops out once that gap is <= delta;
    the rows of all new centers are one `distance_rows` block. A start's
    rows and updates never read another's, so each cover is bitwise the
    one-start traversal, whatever the other starts are. Every active start
    adds one center per step, so the center of step t is at position t.
    """
    if not 0 < delta < math.inf:     # rejects NaN too
        raise ValueError("delta must be positive and finite")
    if cloud.size == 0:
        raise ValueError("cloud must be nonempty")
    if not all(0 <= s < cloud.size for s in starts):
        raise ValueError("start must index a point of the cloud")
    live = list(range(len(starts)))          # the active starts, by row
    centers = [[s] for s in starts]
    radii = [[math.inf] for s in starts]
    covers = [None] * len(starts)
    mindist = cloud.distance_rows(starts)    # (active, N)
    nearest = np.zeros(mindist.shape, dtype=int)
    step = 0
    while True:
        far = mindist.argmax(axis=1)       # lowest index on ties
        picks = far.tolist()
        gaps = [mindist.item(row, f) for row, f in enumerate(picks)]
        if min(gaps) <= delta:
            keep = [g > delta for g in gaps]
            for row, s in enumerate(live):
                if not keep[row]:
                    covers[s] = CoverResult(
                        radius=float(delta),
                        center_indices=np.array(centers[s]),
                        assignment=nearest[row].copy(),
                        assignment_dist=mindist[row].copy(),
                        insertion_radii=np.array(radii[s]))
            if not any(keep):
                return covers
            live, picks, gaps = ([x for x, k in zip(v, keep) if k]
                                 for v in (live, picks, gaps))
            mindist, nearest, far = mindist[keep], nearest[keep], far[keep]
        step += 1
        for s, f, g in zip(live, picks, gaps):
            centers[s].append(f)
            radii[s].append(g)
        dist = cloud.distance_rows(far)
        closer = dist < mindist
        np.copyto(nearest, step, where=closer)
        np.copyto(mindist, dist, where=closer)


def _ball_masks(cloud: PointCloud, delta: float) -> list:
    """Bitmask per point j of the points i with distances_to(j)[i] <= delta:
    the rows and the exact comparison greedy_cover reads."""
    bits = 1 << np.arange(cloud.size)
    rows = cloud.distance_rows(np.arange(cloud.size)) <= delta
    return [int(row @ bits) for row in rows]


# largest cloud exact_cover_number takes: its branch and bound is exponential
EXACT_COVER_MAX = 20


def exact_cover_number(cloud: PointCloud, delta: float) -> int:
    """Minimum number of radius-delta balls with centers in the cloud.

    Branch and bound over ball masks from the rows greedy_cover reads, with
    a greedy cover as the first bound; at most EXACT_COVER_MAX points.
    """
    if not 0 < delta < math.inf:     # rejects NaN too
        raise ValueError("delta must be positive and finite")
    n = cloud.size
    if n == 0:
        raise ValueError("cloud must be nonempty")
    if n > EXACT_COVER_MAX:
        raise ValueError("exact cover limited to clouds of at most "
                         f"{EXACT_COVER_MAX} points")
    masks = _ball_masks(cloud, delta)
    full = (1 << n) - 1
    best = len(greedy_cover(cloud, delta).center_indices)
    order = sorted(range(n), key=lambda j: -bin(masks[j]).count("1"))

    def search(covered: int, used: int):
        nonlocal best
        if used >= best:
            return
        if covered == full:
            best = used
            return
        # lowest uncovered point must be covered by one of its candidates
        low = (~covered & full) & -(~covered & full)
        for j in order:
            if masks[j] & low:
                search(covered | masks[j], used + 1)

    search(0, 0)
    return best


def max_packing_size(cloud: PointCloud, delta: float) -> int:
    """Largest subset with pairwise distances > delta (brute force, <= 16)."""
    if not 0 < delta < math.inf:     # rejects NaN too
        raise ValueError("delta must be positive and finite")
    n = cloud.size
    if n > 16:
        raise ValueError("brute-force packing limited to 16 points")
    conflict = [mask & ~(1 << i) for i, mask in enumerate(_ball_masks(cloud, delta))]
    best = 0
    for subset in range(1 << n):
        size = bin(subset).count("1")
        if size > best and not any(subset >> i & 1 and conflict[i] & subset
                                   for i in range(n)):
            best = size
    return best


def entropy(cloud: PointCloud, delta: float) -> float:
    """log of the greedy covering number at radius delta."""
    return math.log(greedy_cover(cloud, delta).size)


# --------------------------------------------------------------------------
# constructive cover of a smooth class


def smooth_cover_constants(d: int, m: int, k_b: float, delta: float):
    """Remainder constant K1, net spacing Delta, and grid-net size L.

    K1 = max(1, max_{0<=k<=m-1} d^{m-k} K_B / (m-k)!) bounds the order-
    (m-[p]) Taylor remainders of all D^p g; Delta = (delta/4K1)^{1/m}; the
    spatial net has ceil(sqrt(d)/Delta) cubes per axis.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < k_b < math.inf:
        raise ValueError("K_B must be finite and positive")
    k1 = max(1.0, max(d ** (m - k) * k_b / math.factorial(m - k)
                      for k in range(m)))
    cap_delta = (delta / (4.0 * k1)) ** (1.0 / m)
    n_side = math.ceil(math.sqrt(d) / cap_delta)
    return k1, cap_delta, n_side, n_side ** d


@dataclass(frozen=True)
class LevelCover:
    """Disjointified cover of the level-k derivative values of the class."""

    radius: float                  # delta_k: cell diameter bound
    centers: np.ndarray            # (N_k, d_Y) ball centers a^k_j


@dataclass(frozen=True)
class SmoothCoverPlan:
    delta: float
    k1: float
    cap_delta: float               # Delta = (delta/4K1)^{1/m}
    net_points: np.ndarray         # (L, d) cube centers, row-major
    level_radii: np.ndarray        # delta_k, k = 0..m-1
    level_covers: tuple            # LevelCover per k
    signatures: np.ndarray         # (members, L * #p) cell ids
    signature_keys: tuple          # (l, p) column order of `signatures`

    @property
    def n_net(self) -> int:
        return self.net_points.shape[0]

    def occupied_cell_count(self) -> int:
        """Number of distinct member signatures (occupied product cells)."""
        return len({tuple(row) for row in self.signatures})

    def groups(self):
        """Member indices grouped by identical signature."""
        buckets = {}
        for i, row in enumerate(self.signatures):
            buckets.setdefault(tuple(row), []).append(i)
        return list(buckets.values())

    def to_json(self):
        return {"delta": self.delta, "k1": self.k1, "cap_delta": self.cap_delta,
                "n_net": self.n_net,
                "level_radii": [float(r) for r in self.level_radii],
                "level_cells": [len(c.centers) for c in self.level_covers],
                "occupied_cells": self.occupied_cell_count()}


# centers _first_cover_assign tests against the remaining points at once
_ASSIGN_BLOCK = 16


def _first_cover_assign(points: np.ndarray, centers: np.ndarray, radius: float):
    """Cell of each point: first center (in order) within `radius`.

    Blocks of _ASSIGN_BLOCK centers meet the points not yet assigned; a
    point's first hit in a block is the argmax of its hit column."""
    cells = np.full(points.shape[0], -1, dtype=int)
    remaining = np.arange(points.shape[0])
    reach = radius * (1 + 1e-12)
    for lo in range(0, len(centers), _ASSIGN_BLOCK):
        if remaining.size == 0:
            break
        block = centers[lo:lo + _ASSIGN_BLOCK]
        hit = distances(points[remaining], block[:, None, :]) <= reach
        first = np.argmax(hit, axis=0)
        covered = hit[first, np.arange(remaining.size)]
        cells[remaining[covered]] = lo + first[covered]
        remaining = remaining[~covered]
    if remaining.size:
        raise RuntimeError("cover does not cover its own sample")
    return cells


def build_smooth_cover(cls: FunctionClass, delta: float) -> SmoothCoverPlan:
    """Constructive delta-cover of a smooth class under the sup norm.

    Builds the Delta/2 cube net, covers the level-k derivative values of
    the members at the net points at radius delta_k/2 (delta_k =
    delta/(2 Delta^k e^d)) with greedy covers, disjointifies cells in
    greedy center order, and assigns every member its cell signature over
    all net points and all multi-indices [p] <= m-1. Members sharing a
    signature are sup-distance at most delta apart.
    """
    if len(cls) == 0:
        raise ValueError("class must be nonempty")
    d, m = cls.d, cls.m
    k_b = cls.b_descriptor.k_b
    k1, cap_delta, n_side, _ = smooth_cover_constants(d, m, k_b, delta)
    design = EmpiricalDesign.midpoint_grid(n_side ** d, d)
    net = design.points
    level_radii = np.array([delta / (2.0 * cap_delta ** k * math.exp(d))
                            for k in range(m)])

    p_list = multi_indices(d, m - 1)
    # exact derivative values of every member at every net point, per level
    deriv_vals = {p: cls.values_on(design, p) for p in p_list}

    level_covers = []
    level_cells = {}
    for k in range(m):
        ps = [p for p in p_list if sum(p) == k]
        sample = np.concatenate([deriv_vals[p].reshape(-1, cls.d_y) for p in ps])
        cloud = PointCloud(sample)
        cover = greedy_cover(cloud, level_radii[k] / 2.0)
        centers = sample[cover.center_indices]
        level_covers.append(LevelCover(radius=float(level_radii[k]),
                                       centers=centers))
        for p in ps:
            flat = deriv_vals[p].reshape(-1, cls.d_y)
            cells = _first_cover_assign(flat, centers, level_radii[k] / 2.0)
            level_cells[p] = cells.reshape(len(cls), net.shape[0])

    keys = [(l, p) for l in range(net.shape[0]) for p in p_list]
    signatures = np.empty((len(cls), len(keys)), dtype=int)
    for col, (l, p) in enumerate(keys):
        signatures[:, col] = level_cells[p][:, l]
    return SmoothCoverPlan(delta=float(delta), k1=k1, cap_delta=cap_delta,
                           net_points=net, level_radii=level_radii,
                           level_covers=tuple(level_covers),
                           signatures=signatures, signature_keys=tuple(keys))


@dataclass(frozen=True)
class CoverValidityReport:
    pairs_checked: int
    max_violation: float   # max over same-signature pairs of supdist/delta
    ok: bool


def verify_cover_validity(cls: FunctionClass, plan: SmoothCoverPlan) -> CoverValidityReport:
    """Same cell signature must imply sup-distance at most delta.

    The members of each shared cell are evaluated on the grid from one
    node trig table (the values_on path). The cell's first member gets a
    row of sup-distances to the others; a later pair (a, b) gets its own
    row only when its triangle bound (d(0,a) + d(0,b))(1 + 1e-9) is not
    below the running maximum. A computed distance is within a few d_Y
    ulps of the exact one, far inside the 1e-9, so a pair the bound clears
    cannot raise the maximum: max_violation is bitwise the all-pairs one,
    and every pair counts as checked. A NaN bound is never below, so a NaN
    distance propagates to max_violation.
    """
    p = (0,) * cls.d
    tables = trig_tables(grid_nodes(cls.d, cls.resolution), cls.width)
    pairs = 0
    worst = 0.0                    # running max of raw sup-distances
    for group in plan.groups():
        if len(group) < 2:
            continue
        vals = np.stack([cls[i]._combine(tables, p) for i in group])
        first = distances(vals[1:], vals[0]).max(axis=1)   # d(0, b), b >= 1
        worst = np.maximum(worst, first.max())
        for a in range(1, len(group) - 1):
            bound = (first[a - 1] + first[a:]) * (1 + 1e-9)
            need = a + 1 + np.flatnonzero(~(bound < worst))
            if need.size:
                row = distances(vals[need], vals[a]).max(axis=1)
                worst = np.maximum(worst, row.max())
        pairs += len(group) * (len(group) - 1) // 2
    worst = float(worst / plan.delta)
    return CoverValidityReport(pairs_checked=pairs, max_violation=worst,
                               ok=passes(worst, 1.0, 1e-9))
