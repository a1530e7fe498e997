"""Smooth vector-valued function classes on the unit cube.

Members are finite trigonometric sums

    g(x) = sum_j  a_j * u_j * prod_l cos(2 pi k_{jl} x_l + theta_{jl}),

with integer frequencies k, so every partial derivative of every order is
again closed-form: differentiating one cosine factor multiplies by 2 pi k and
shifts the phase by pi/2. Amplitudes are scaled analytically so that all
derivative values up to total order m+1 stay inside the declared range set B;
no numerical differentiation happens anywhere in the class itself.

A member is its terms: they give exact values and derivatives anywhere,
exact means and exact L2 inner products under the uniform law on [0,1]^d,
and a member stores nothing else. The uniform grid that approximates
sup_x (the declared sup-norm approximation) is a setting of the class:
`FunctionClass.grid(p)` evaluates D^p of every member on it when asked and
keeps nothing. Covers of the class under the sup norm read its values,
membership checks every D^p.

Evaluation never forms a member's own cosines. By
cos(2 pi k x + phi) = cos(phi) cos(2 pi k x) - sin(phi) sin(2 pi k x), with
phi = theta + p pi/2 for D^p, a member is a small coefficient matrix over
tables of cos/sin(2 pi k x_l), k = 1..W, one per axis of a point set
(`trig_tables`, the one table builder), and its values are a product of
small GEMMs over them (one GEMM for d = 1). Callers pass points: a member
builds the tables at its own width, and `FunctionClass.values_on` builds
them once at the class width for every member. Both give the same bits,
since a table row does not depend on W.

A product of one such row per axis (or a constant) is a feature, and a
class is also one coefficient tensor over its features
(`FunctionClass.features`): the Monte-Carlo kernels evaluate it on feature
means, and its all-constant row holds the exact means.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import distances
from .reports import passes
from .rng import substream

_TAG_MEMBER = 101

TWO_PI = 2.0 * math.pi

# Acceptance-grade default grid resolutions (nodes per axis); 17 above d = 2.
_DEFAULT_RESOLUTION = {1: 1025, 2: 65}


def multi_indices(d: int, max_order: int):
    """All p in N_0^d with [p] <= max_order, in lexicographic order."""
    return [p for p in itertools.product(range(max_order + 1), repeat=d)
            if sum(p) <= max_order]


# --------------------------------------------------------------------------
# range-set descriptors


@dataclass(frozen=True)
class BallDescriptor:
    """B = closed ball of the given radius around the origin."""

    radius: float

    @property
    def k_b(self) -> float:
        return self.radius

    def contains(self, points: np.ndarray) -> bool:
        return bool(np.all(distances(points, 0.0) <= self.radius + 1e-9))


@dataclass(frozen=True, eq=False)
class SpanDescriptor:
    """B = span of the psi vectors, intersected with the radius-R ball.

    Compared and hashed by identity: field equality would compare arrays.
    """

    psi: np.ndarray  # (r, d_Y)
    radius: float

    @property
    def k_b(self) -> float:
        return self.radius

    def contains(self, points: np.ndarray) -> bool:
        pts = points.reshape(-1, points.shape[-1])
        if not np.all(distances(pts, 0.0) <= self.radius + 1e-9):
            return False
        coef, *_ = np.linalg.lstsq(self.psi.T, pts.T, rcond=None)
        resid = pts.T - self.psi.T @ coef
        return bool(np.all(distances(resid.T, 0.0) <= 1e-9))


@dataclass(frozen=True)
class SmoothOutputDescriptor:
    """B = m'-smooth real functions on a d'-dim grid, all derivatives <= M.

    Output-space coordinates are grid samples scaled by 1/sqrt(d_Y) so the
    Euclidean inner product of coordinates equals the L2 inner product under
    the uniform measure on the output grid.
    """

    d_out: int
    m_out: int
    bound: float
    grid_out: int

    @property
    def d_y(self) -> int:
        return self.grid_out ** self.d_out

    @property
    def k_b(self) -> float:
        return self.bound

    def contains(self, points: np.ndarray) -> bool:
        return bool(self.max_difference_quotient(points) <= self.bound * 1.05)

    def max_difference_quotient(self, points: np.ndarray) -> float:
        """Largest forward divided difference of order [q] <= m_out.

        Each coordinate vector is read back as a function on the output grid;
        iterated forward differences of a function with |D^q f| <= M are
        themselves bounded by M (mean value theorem), so this is a sound
        finite surrogate for derivative membership.
        """
        if self.grid_out <= self.m_out:
            raise ValueError(
                "output grid too coarse for the order-m' finite-difference check"
            )
        pts = points.reshape(-1, self.d_y)
        h = 1.0 / (self.grid_out - 1)
        worst = 0.0
        for row in pts:
            f = row.reshape((self.grid_out,) * self.d_out) * math.sqrt(self.d_y)
            worst = max(worst, float(np.max(np.abs(f))))
            for q in multi_indices(self.d_out, self.m_out):
                if sum(q) == 0:
                    continue
                diff = f
                for axis, order in enumerate(q):
                    for _ in range(order):
                        diff = np.diff(diff, axis=axis) / h
                if diff.size:
                    worst = max(worst, float(np.max(np.abs(diff))))
        return worst


# --------------------------------------------------------------------------
# grid functions


def grid_nodes(d: int, resolution: int) -> np.ndarray:
    """Row-major uniform grid on [0,1]^d including endpoints; (res^d, d)."""
    axes = [np.linspace(0.0, 1.0, resolution)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# --------------------------------------------------------------------------
# the shared trig basis (see the module docstring)


def _axis_table(col, width) -> np.ndarray:
    """Rows [cos(2 pi x), sin(2 pi x), ..., cos(2 pi W x), sin(2 pi W x)] at
    the points col, for W = width."""
    table = np.empty((2 * width, col.size))
    for k in range(1, width + 1):
        angle = (TWO_PI * k) * col
        np.cos(angle, out=table[2 * k - 2])
        np.sin(angle, out=table[2 * k - 1])
    return table


def trig_tables(x, width: int) -> tuple:
    """One (2 width, n) table per axis of the points x (n, d), shared by
    every member whose frequencies are at most width."""
    x = np.atleast_2d(np.asarray(x, float))
    return tuple(_axis_table(x[:, l], width) for l in range(x.shape[1]))


def _gemm(a, b) -> np.ndarray:
    """a @ b on BLAS's matrix-matrix path. A single row of a or column of b
    would take the vector path, which rounds a row depending on how many
    points the call has; it is doubled for the product and sliced back."""
    if len(a) == 1:
        return _gemm(np.repeat(a, 2, axis=0), b)[:1]
    if b.shape[1] == 1:
        return (a @ np.repeat(b, 2, axis=1))[:, :1].copy()
    return a @ b


@dataclass(frozen=True)
class GridFunction:
    """One member: its trig-sum terms."""

    d: int
    m: int
    d_y: int
    freqs: np.ndarray    # (J, d) nonnegative ints
    phases: np.ndarray   # (J, d)
    amps: np.ndarray     # (J,)
    dirs: np.ndarray     # (J, d_Y)
    # {p: _coefficients(p)}, filled on first use; two threads filling the
    # same entry store equal values
    _coefs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @classmethod
    def from_terms(cls, d, m, d_y, freqs, phases, amps, dirs):
        """The member with these terms."""
        return cls(d=d, m=m, d_y=d_y,
                   freqs=np.asarray(freqs, int), phases=np.asarray(phases, float),
                   amps=np.asarray(amps, float), dirs=np.asarray(dirs, float))

    @functools.cached_property
    def taylor_k(self) -> float:
        """Operator-norm bound for the (m+1)-st derivative: multinomial
        expansion of the directional derivative plus Cauchy-Schwarz gives
        sum_j |a_j| ||u_j|| (2 pi ||k_j||_2)^{m+1}."""
        knorm = np.linalg.norm(self.freqs.astype(float), axis=1)
        return float(np.sum(np.abs(self.amps) * distances(self.dirs, 0.0)
                            * (TWO_PI * knorm) ** (self.m + 1)))

    @property
    def width(self) -> int:
        """Highest frequency of any term: the trig-table width it needs."""
        return int(self.freqs.max()) if self.freqs.size else 0

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Exact values at arbitrary points x of shape (n, d); (n, d_Y)."""
        return self.evaluate_deriv(x, (0,) * self.d)

    def evaluate_deriv(self, x: np.ndarray, p) -> np.ndarray:
        """Exact D^p at the points x of shape (n, d); (n, d_Y)."""
        x = np.atleast_2d(np.asarray(x, float))
        if x.shape[1] != self.d:
            raise ValueError(f"points must have {self.d} coordinates")
        return self._combine(trig_tables(x, self.width), tuple(p))

    def scaled(self, factor: float) -> "GridFunction":
        """The member factor*g (same generator family)."""
        return GridFunction.from_terms(self.d, self.m, self.d_y, self.freqs,
                                       self.phases, self.amps * factor, self.dirs)

    def _coefficients(self, p) -> tuple:
        """D^p over the tables, kept in _coefs. Per axis a (2W+1, J)
        matrix: row 0 is each term's constant factor, row 2k-1 (2k) its cos
        (sin) coefficient at frequency k. Then the (J, d_Y) term weights;
        for d = 1 the product of the two, one (2W+1, d_Y) matrix."""
        if p in self._coefs:
            return self._coefs[p]
        pa = np.asarray(p, int)
        # factor per term: prod_l (2 pi k_l)^{p_l}, with 0^0 == 1
        factors = np.prod((TWO_PI * self.freqs.astype(float)) ** pa, axis=1)
        weights = (self.amps * factors)[:, None] * self.dirs
        phi = self.phases + 0.5 * math.pi * pa
        terms = np.arange(self.amps.size)
        axes = []
        for l in range(self.d):
            k = self.freqs[:, l]
            w = np.zeros((2 * self.width + 1, terms.size))
            w[np.maximum(2 * k - 1, 0), terms] = np.cos(phi[:, l])
            osc = k > 0
            w[2 * k[osc], terms[osc]] = -np.sin(phi[osc, l])
            axes.append(w)
        coef = (axes[0] @ weights,) if self.d == 1 else (*axes, weights)
        self._coefs[p] = coef
        return coef

    def _combine(self, tables, p: tuple) -> np.ndarray:
        """D^p at points x from trig_tables(x, W), any W >= width (a table
        row does not depend on W), and its _coefficients: per axis
        table.T @ W[1:] + W[0], multiplied over the axes, then @ weights;
        for d = 1 one GEMM plus a row. Both products go through _gemm, so a
        point's value does not depend on the batch it is evaluated in."""
        coef = self._coefficients(p)
        rows = 2 * self.width
        out = None
        for table, w in zip(tables, coef):
            factor = _gemm(table[:rows].T, w[1:])
            factor += w[0]
            out = factor if out is None else np.multiply(out, factor, out=out)
        return out if self.d == 1 else _gemm(out, coef[-1])


# --------------------------------------------------------------------------
# classes and designs


def _side_by_side(mats, rows: int) -> np.ndarray:
    """The matrices side by side, each padded with zero rows to `rows`."""
    out = np.zeros((rows, sum(a.shape[1] for a in mats)))
    col = 0
    for a in mats:
        out[:len(a), col:col + a.shape[1]] = a
        col += a.shape[1]
    return out


@dataclass(frozen=True)
class FunctionClass:
    members: tuple
    b_descriptor: object
    d: int
    m: int
    d_y: int
    resolution: int      # grid nodes per axis of the sup-norm approximation

    def __post_init__(self):
        for g in self.members:
            if (g.d, g.m, g.d_y) != (self.d, self.m, self.d_y):
                raise ValueError("members disagree on (d, m, d_y)")

    def __len__(self):
        return len(self.members)

    def __getitem__(self, i) -> GridFunction:
        return self.members[i]

    def validate_membership(self) -> bool:
        """Every derivative value of every member on the grid lies in B."""
        return all(self.b_descriptor.contains(self.grid(p))
                   for p in multi_indices(self.d, self.m))

    @functools.cached_property
    def width(self) -> int:
        """Highest frequency of any member: the shared table width."""
        return max((g.width for g in self.members), default=0)

    @functools.cached_property
    def features(self) -> tuple:
        """(rows, coefs), read-only: the active product features, (F, d),
        and the coefficient tensor, (F, K d_Y), from the members'
        _coefficients((0,)*d). Feature f is prod_l T_l[rows[f, l]](x_l) over
        the trig tables T with a constant row 0 in front, and member k is
        sum_f phi_f coefs[f, k d_Y:(k+1) d_Y]. A term touches at most 2^d
        features; row 0 is the all-constant one, so coefs[0] is the means."""
        if not self.members:
            raise ValueError("class must be nonempty")
        side = 2 * self.width + 1
        base = side ** np.arange(self.d)
        parts = [g._coefficients((0,) * self.d) for g in self.members]
        # every member's terms side by side: for d = 1 its one matrix,
        # whose rows are its features, stands for them
        weights = np.concatenate([p[-1] for p in parts])
        owner = np.repeat(np.arange(len(self)), [len(p[-1]) for p in parts])
        term = np.arange(len(weights))
        if self.d == 1:
            code = np.concatenate([np.arange(len(p[0])) for p in parts])
            values = weights
        else:
            # expand the terms over each axis's rows, all members at once;
            # a member's entries keep their order, so np.add.at sums each
            # (feature, member) slot as the member alone would
            code, factor = np.zeros(term.size, int), np.ones(term.size)
            for l, step in enumerate(base):
                a = _side_by_side([p[l] for p in parts], side)
                row, i = np.nonzero(a[:, term])
                code, term = code[i] + row * step, term[i]
                factor = factor[i] * a[row, term]
            values = factor[:, None] * weights[term]
        active = np.union1d([0], code)
        coefs = np.zeros((active.size, len(self), self.d_y))
        np.add.at(coefs, (np.searchsorted(active, code), owner[term]), values)
        rows = active[:, None] // base % side
        coefs = coefs.reshape(active.size, -1)
        rows.flags.writeable = coefs.flags.writeable = False
        return rows, coefs

    def features_on(self, design: "EmpiricalDesign") -> np.ndarray:
        """The features at the design points, (n, F): column f is
        prod_l T_l[rows[f, l]] over trig_tables(design.points, width), each
        with a constant row 0 in front, so member k's values are
        features_on(design) @ coefs[:, k d_Y:(k+1) d_Y]."""
        rows = self.features[0]
        out = np.ones((design.n, len(rows)))
        for table, r in zip(trig_tables(design.points, self.width), rows.T):
            out *= np.vstack([np.ones(design.n), table])[r].T
        return out

    def values_on(self, design: "EmpiricalDesign", p=None) -> np.ndarray:
        """D^p of every member at the design points, shape (K, n, d_Y); the
        values when p is None. One trig table serves every member, and each
        result is bitwise its evaluate_deriv(design.points, p)."""
        if not self.members:
            raise ValueError("class must be nonempty")
        p = (0,) * self.d if p is None else tuple(p)
        tables = trig_tables(design.points, self.width)
        out = np.empty((len(self), design.n, self.d_y))
        for k, g in enumerate(self.members):
            out[k] = g._combine(tables, p)
        return out

    def grid(self, p=None) -> np.ndarray:
        """D^p of every member on the uniform grid of `resolution` nodes
        per axis, (K, res^d, d_Y); evaluated on each call, kept nowhere."""
        nodes = grid_nodes(self.d, self.resolution)
        return self.values_on(EmpiricalDesign(nodes), p)


@dataclass(frozen=True)
class EmpiricalDesign:
    """Fixed evaluation points with uniform weights 1/n."""

    points: np.ndarray  # (n, d)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, float))
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("design points must lie in the unit cube")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @staticmethod
    def uniform(n: int, d: int, rng: np.random.Generator) -> "EmpiricalDesign":
        return EmpiricalDesign(rng.uniform(size=(n, d)))

    @staticmethod
    def midpoint_grid(n: int, d: int) -> "EmpiricalDesign":
        side = int(round(n ** (1.0 / d)))
        axes = [(np.arange(side) + 0.5) / side] * d
        mesh = np.meshgrid(*axes, indexing="ij")
        return EmpiricalDesign(np.stack([m.ravel() for m in mesh], axis=1))


# --------------------------------------------------------------------------
# generators


def _term_cap(freqs: np.ndarray, order: int) -> np.ndarray:
    """Per term, max over [p] <= order of prod_l (2 pi k_l)^{p_l}."""
    kmax = freqs.max(axis=1).astype(float)
    return np.maximum(1.0, (TWO_PI * kmax) ** order)


def _members(d, m, d_y, seed, k_b, n_terms, max_freq, min_freq, range_terms):
    """Members i = 0, 1, ... of a range set with budget k_b, each drawn when
    it is asked for. Member i draws, from the stream keyed
    (seed, _TAG_MEMBER, i): its terms; then range_terms(rng) -> (dirs, cap),
    the (J, d_Y) term directions and the range set's per-term factor of the
    derivative cap; then its amplitudes, with
    sum_j |a_j| _term_cap(k_j, m+1) cap_j <= K_B, which bounds every
    derivative of order <= m+1 (triangle inequality)."""
    for i in itertools.count():
        rng = substream(seed, _TAG_MEMBER, i)
        freqs = rng.integers(min_freq, max_freq + 1, size=(n_terms, d))
        # avoid the degenerate all-constant member: force one oscillating term
        if np.all(freqs == 0):
            freqs[0, rng.integers(0, d)] = 1 + rng.integers(0, max_freq)
        phases = rng.uniform(0.0, TWO_PI, size=(n_terms, d))
        # the amplitude signs are part of the seeded class definition, not a
        # Rademacher process: drawn with choice, so a seed keeps naming the
        # same class whatever the sign sampler (rng.sign_bytes) does
        raw = rng.uniform(0.3, 1.0, size=n_terms) * rng.choice([-1.0, 1.0],
                                                               size=n_terms)
        dirs, cap = range_terms(rng)
        # the budget K_B times a per-member draw in [0.35, 1] is split per
        # term rather than the joint sum normalised, which keeps
        # low-frequency terms at their full allowed size instead of letting
        # one high-frequency cap crush every amplitude
        share = np.abs(raw) / np.abs(raw).sum() * k_b * rng.uniform(0.35, 1.0)
        amps = np.sign(raw) * share / (_term_cap(freqs, m + 1) * cap)
        yield GridFunction.from_terms(d, m, d_y, freqs, phases, amps, dirs)


def _generate(d, m, d_y, count, resolution, descriptor,
              members) -> FunctionClass:
    """The class of the first `count` of `members`, in `descriptor`."""
    return FunctionClass(members=tuple(itertools.islice(members, count)),
                         b_descriptor=descriptor, d=d, m=m, d_y=d_y,
                         resolution=resolution or _DEFAULT_RESOLUTION.get(d, 17))


def ball_members(d, m, d_y, k_b, seed, n_terms, max_freq, min_freq):
    """The members of the seeded ball class in order, each drawn when it is
    asked for: generate_finite_dim_ball_class(d, m, d_y, k_b, count, seed,
    ...) holds the first `count` of them.

    The directions are unit vectors, so the amplitude budget bounds every
    derivative's norm by K_B.
    """
    def range_terms(rng):
        dirs = rng.standard_normal((n_terms, d_y))
        dirs /= distances(dirs, 0.0)[:, None]
        return dirs, 1.0

    return _members(d, m, d_y, seed, k_b, n_terms, max_freq, min_freq,
                    range_terms)


def generate_finite_dim_ball_class(d, m, d_y, k_b, count, seed, resolution=None,
                                   n_terms=6, max_freq=3,
                                   min_freq=0) -> FunctionClass:
    """Members with every D^p g, [p] <= m (indeed m+1), in the K_B ball."""
    if min(d, m, d_y) < 1 or k_b <= 0 or count < 0:
        raise ValueError("d, m, d_y must be >= 1, k_b > 0, count >= 0")
    return _generate(d, m, d_y, count, resolution, BallDescriptor(k_b),
                     ball_members(d, m, d_y, k_b, seed, n_terms, max_freq,
                                  min_freq))


def generate_span_class(d, m, psi_basis, radius, count, seed,
                        resolution=None, n_terms=6, max_freq=3) -> FunctionClass:
    """Members whose derivative values stay in span(psi) with norm <= R;
    d_Y is the length of the psi vectors."""
    psi = np.atleast_2d(np.asarray(psi_basis, float))
    if psi.shape[0] < 1 or psi.size == 0:
        raise ValueError("span basis must contain at least one vector")
    if np.linalg.matrix_rank(psi) < psi.shape[0]:
        raise ValueError("span basis is linearly dependent in the truncation")
    if radius <= 0 or count < 0 or min(d, m) < 1:
        raise ValueError("invalid parameters")
    psi_norms = distances(psi, 0.0)

    def range_terms(rng):
        idx = rng.integers(0, psi.shape[0], size=n_terms)
        return psi[idx], psi_norms[idx]

    return _generate(d, m, psi.shape[1], count, resolution,
                     SpanDescriptor(psi=psi, radius=radius),
                     _members(d, m, psi.shape[1], seed, radius, n_terms,
                              max_freq, 0, range_terms))


def generate_smooth_output_class(d, m, d_out, m_out, bound, grid_out, count, seed,
                                 resolution=None, n_terms=6, max_freq=2,
                                 max_freq_out=2) -> FunctionClass:
    """Members g(x) valued in m'-smooth functions on a d'-dim output grid.

    g(x)(x') = sum_j a_j phi_j(x) chi_j(x') with trig factors on both sides;
    amplitudes are scaled so |D^q_{x'} D^p_x g| <= M for [p] <= m+1 and
    [q] <= m'. Coordinates are output-grid samples scaled by 1/sqrt(d_Y).
    """
    if m_out < 1:
        raise ValueError("m' must be a positive integer")
    if grid_out <= m_out:
        raise ValueError("output grid too coarse for the order-m' finite-difference check")
    if min(d, m, d_out) < 1 or bound <= 0 or count < 0:
        raise ValueError("invalid parameters")
    descriptor = SmoothOutputDescriptor(d_out=d_out, m_out=m_out, bound=bound,
                                        grid_out=grid_out)
    out_nodes = grid_nodes(d_out, grid_out)

    def range_terms(rng):
        out_freqs = rng.integers(0, max_freq_out + 1, size=(n_terms, d_out))
        out_phases = rng.uniform(0.0, TWO_PI, size=(n_terms, d_out))
        angle = TWO_PI * out_freqs[:, None, :] * out_nodes[None, :, :] \
            + out_phases[:, None, :]
        chi = np.prod(np.cos(angle), axis=2)          # (J, d_Y)
        return chi / math.sqrt(descriptor.d_y), _term_cap(out_freqs, m_out)

    return _generate(d, m, descriptor.d_y, count, resolution, descriptor,
                     _members(d, m, descriptor.d_y, seed, bound, n_terms,
                              max_freq, 0, range_terms))


def blend_members(g0: GridFunction, g1: GridFunction, weight: float) -> GridFunction:
    """(1-w) g0 + w g1, again a trig-sum member of the same class.

    The derivative-budget constraint is a norm ball, hence convex, so convex
    combinations of members remain members; the blend concatenates the two
    term lists with reweighted amplitudes.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if (g0.d, g0.m, g0.d_y) != (g1.d, g1.m, g1.d_y):
        raise ValueError("members disagree on (d, m, d_y)")
    return GridFunction.from_terms(
        g0.d, g0.m, g0.d_y,
        np.vstack([g0.freqs, g1.freqs]),
        np.vstack([g0.phases, g1.phases]),
        np.concatenate([(1.0 - weight) * g0.amps, weight * g1.amps]),
        np.vstack([g0.dirs, g1.dirs]))


# --------------------------------------------------------------------------
# seminorms and checks


def sup_norm(g: GridFunction, resolution: int) -> float:
    """Grid approximation of sup_x ||g(x)||: max over the nodes of the
    uniform grid with `resolution` nodes per axis."""
    values = g.evaluate(grid_nodes(g.d, resolution))
    return float(np.max(distances(values, 0.0))) if values.size else 0.0


@dataclass(frozen=True)
class TaylorReport:
    lhs: float
    rhs: float
    ok: bool


def taylor_remainder_check(g: GridFunction, a, h, k: float | None = None) -> TaylorReport:
    """Order-m Taylor expansion at a, Lagrange remainder bound K||h||^{m+1}/(m+1)!.

    K defaults to the generator's own operator-norm bound on g^{(m+1)}.
    """
    a = np.asarray(a, float).reshape(1, -1)
    h = np.asarray(h, float).reshape(1, -1)
    b = a + h
    for pt in (a, b):
        if pt.min() < -1e-12 or pt.max() > 1 + 1e-12:
            raise ValueError("segment leaves the unit cube")
    if k is None:
        k = g.taylor_k
    approx = np.zeros((1, g.d_y))
    for p in multi_indices(g.d, g.m):
        hp = float(np.prod(h[0] ** np.asarray(p)))
        pfact = float(np.prod([math.factorial(c) for c in p]))
        approx += (hp / pfact) * g.evaluate_deriv(a, p)
    lhs = float(distances(g.evaluate(b), approx)[0])
    rhs = float(k * np.linalg.norm(h) ** (g.m + 1) / math.factorial(g.m + 1))
    return TaylorReport(lhs=lhs, rhs=rhs, ok=passes(lhs, rhs * (1 + 1e-9)))


# --------------------------------------------------------------------------
# exact moments under the uniform law on [0,1]^d


def inner_uniform(g1: GridFunction, g2: GridFunction) -> float:
    """<g1, g2>_{2,P} = int <g1(x), g2(x)> dx; exact for the trig family."""
    if g1.amps.size == 0 or g2.amps.size == 0:
        return 0.0
    k1, k2 = g1.freqs, g2.freqs
    t1, t2 = g1.phases, g2.phases
    prod = np.ones((k1.shape[0], k2.shape[0]))
    for axis in range(g1.d):
        ka = k1[:, axis][:, None]
        kb = k2[:, axis][None, :]
        ta = t1[:, axis][:, None]
        tb = t2[:, axis][None, :]
        both_zero = (ka == 0) & (kb == 0)
        equal = (ka == kb) & ~both_zero
        axis_val = np.where(both_zero, np.cos(ta) * np.cos(tb),
                            np.where(equal, 0.5 * np.cos(ta - tb), 0.0))
        prod *= axis_val
    gram = g1.dirs @ g2.dirs.T
    return float(g1.amps @ (prod * gram) @ g2.amps)


def l2_distance_uniform(g1: GridFunction, g2: GridFunction) -> float:
    """||g1 - g2||_{2,P} under the uniform law; exact."""
    sq = inner_uniform(g1, g1) - 2.0 * inner_uniform(g1, g2) + inner_uniform(g2, g2)
    return math.sqrt(max(sq, 0.0))
