"""Seeded inputs and experiment lists of the three benchmark workloads.

Every input (point clouds, designs, targets, class and Monte-Carlo seeds)
is derived here from the workload seed; vecproc receives only the generated
inputs. `make_workload` does the set-up and returns the experiments as
closures, each calling the same public vecproc functions a CLI runner calls
and returning (payload, verdict). Class construction happens inside the
experiments, because a user pays for it on every run.

mc        few members, big 8,192-replicate Monte-Carlo blocks: sign and
          uniform draws plus member evaluation; covers do almost no work.
geometry  deterministic: greedy traversals, distance rows, exact covers,
          class construction and derivative grids; no Monte-Carlo kernels.
erm       thousands of small calls: a fresh design per replicate, a
          2048 x n sign matrix and a K-column GEMM, plus the per-member
          loop of population_risks.

`regress` is left out: on numpy >= 2.4, regression.py evaluates np.trapz
eagerly and raises AttributeError, so its time would read as a regression
when that line is fixed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from vecproc import concentration as conc
from vecproc import covering as cov
from vecproc import dimension as dim
from vecproc import empirical_process as ep
from vecproc import entropy_bounds as eb
from vecproc import function_class as fc
from vecproc import rademacher as rad
from vecproc import regression as reg

SIZES = {
    "full": {
        "mc": dict(sym_count=20, sym_n=200, sym_reps=2000,
                   hh_n=50, hh_dy=20, hh_reps=100_000,
                   gc_count=5, gc_n=(100, 400, 1600, 6400), gc_reps=200,
                   chain_count=20, chain_n=100, chain_reps=10_000,
                   cosh_n=50, cosh_dy=5, cosh_reps=100_000),
        "geometry": dict(cloud_n=2000, box_radii=8, box_starts=8,
                         grid_side=64, homog_trials=200,
                         contraction_count=20, contraction_n=20,
                         contraction_radii=8,
                         plan_count=400, plan_n=256,
                         rad_count=15, rad_n=16, rad_levels=5,
                         smooth_count=600, smooth_deltas=(0.1, 0.05, 0.02),
                         pool_base=150, pool_n=4096, pool_radii=24),
        "erm": dict(erm_count=10, erm_n=(100, 400, 1600), erm_reps=32,
                    erm_noise_quad=20_000,
                    gchain_count=20, gchain_n=100, gchain_reps=10_000),
    },
    # a few seconds in all, for the smoke test of the benchmark itself
    "tiny": {
        "mc": dict(sym_count=4, sym_n=20, sym_reps=50,
                   hh_n=10, hh_dy=4, hh_reps=2000,
                   gc_count=2, gc_n=(50, 200), gc_reps=20,
                   chain_count=6, chain_n=20, chain_reps=500,
                   cosh_n=10, cosh_dy=3, cosh_reps=2000),
        "geometry": dict(cloud_n=200, box_radii=4, box_starts=3,
                         grid_side=16, homog_trials=10,
                         contraction_count=8, contraction_n=10,
                         contraction_radii=4,
                         plan_count=30, plan_n=32,
                         rad_count=5, rad_n=8, rad_levels=3,
                         smooth_count=30, smooth_deltas=(0.1,),
                         pool_base=20, pool_n=256, pool_radii=6),
        "erm": dict(erm_count=4, erm_n=(20, 40), erm_reps=4,
                    erm_noise_quad=1000,
                    gchain_count=6, gchain_n=20, gchain_reps=500),
    },
}

# CLI defaults for generated classes: d=1, m=1, d_Y=3, K_B=1
_D, _M, _DY, _KB = 1, 1, 3, 1.0
T_GRID = (0.5, 1.0, 2.0)
# homogeneity of the 2-D square: N(r, B(z,R)) <= 4 (R/r)^2
HOMOG_M, HOMOG_TAU = 4.0, 2.0


def derive_seed(seed: int, label: str) -> int:
    """Stable 63-bit seed for one named input of a workload run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def input_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, label))


# --------------------------------------------------------------------------
# input generators


def surface_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    """n points of a smooth 2-D surface in R^5, randomly rotated."""
    u = rng.uniform(size=(n, 2))
    lifted = np.column_stack([u[:, 0], u[:, 1],
                              0.3 * np.sin(2.0 * math.pi * u[:, 0]),
                              0.3 * np.cos(2.0 * math.pi * u[:, 1]),
                              0.5 * u[:, 0] * u[:, 1]])
    rotation, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    return lifted @ rotation.T


def grid_square(rng: np.random.Generator, side: int) -> np.ndarray:
    """side x side cell centres of the unit square, jittered by 10% of a cell."""
    centres = (np.arange(side) + 0.5) / side
    mesh = np.stack(np.meshgrid(centres, centres, indexing="ij"), axis=-1)
    points = mesh.reshape(-1, 2)
    return points + rng.uniform(-0.1, 0.1, size=points.shape) / side


def uniform_design(rng: np.random.Generator, n: int) -> fc.EmpiricalDesign:
    return fc.EmpiricalDesign(rng.uniform(size=(n, _D)))


def midpoint_design(n: int) -> fc.EmpiricalDesign:
    return fc.EmpiricalDesign(((np.arange(n) + 0.5) / n)[:, None])


def ball_class(count: int, seed: int, m: int = _M) -> fc.FunctionClass:
    return fc.generate_finite_dim_ball_class(d=_D, m=m, d_y=_DY, k_b=_KB,
                                             count=count, seed=seed)


# --------------------------------------------------------------------------
# workloads: set-up happens when they are made, vecproc work in the closures


def _mc(seed, s):
    class_seed = derive_seed(seed, "class")
    chain_design = uniform_design(input_rng(seed, "chain-design"),
                                  s["chain_n"])

    def symmetrize():
        cls = ball_class(s["sym_count"], class_seed)
        rep = ep.symmetrization_check(cls, s["sym_n"], s["sym_reps"],
                                      derive_seed(seed, "mc:symmetrize"),
                                      threads=1)
        return rep, rep.all_ok

    def hoeffding_hilbert():
        rep = conc.hoeffding_hilbert_check(1.0, s["hh_n"], s["hh_dy"],
                                           (0.5, 1.0, 2.0, 4.0), s["hh_reps"],
                                           derive_seed(seed, "mc:hoeffding"),
                                           threads=1)
        return rep, rep.all_ok

    def gc_curve():
        cls = ball_class(s["gc_count"], class_seed)
        rows, slope = ep.gc_decay_curve(cls, s["gc_n"], s["gc_reps"],
                                        derive_seed(seed, "mc:gc"), threads=1)
        return {"rows": rows, "slope": slope}, rows[-1][1] <= rows[0][1]

    def chain_tail():
        cls = ball_class(s["chain_count"], class_seed)
        plan = ep.build_chaining_plan(cls, chain_design)
        rep = ep.chaining_tail_check(plan, cls, chain_design, T_GRID,
                                     s["chain_reps"],
                                     derive_seed(seed, "mc:chain"), threads=1)
        return ({"plan": plan, "tail": rep},
                plan.links_valid() and rep.all_ok)

    def cosh():
        rep = conc.cosh_moment_check(1.0, s["cosh_n"], (0.1, 0.25, 0.4),
                                     s["cosh_reps"], derive_seed(seed, "mc:cosh"),
                                     d_y=s["cosh_dy"], threads=1)
        return rep, rep.all_ok

    return [("symmetrize", symmetrize),
            ("hoeffding_hilbert", hoeffding_hilbert), ("gc_curve", gc_curve),
            ("chain_tail", chain_tail), ("cosh", cosh)]


def _geometry(seed, s):
    class_seed = derive_seed(seed, "class")
    surface = cov.PointCloud(surface_cloud(input_rng(seed, "surface"),
                                           s["cloud_n"]))
    side = s["grid_side"]
    square = cov.PointCloud(grid_square(input_rng(seed, "square"), side))
    contraction_design = uniform_design(input_rng(seed, "contraction-design"),
                                        s["contraction_n"])
    targets = 0.5 * input_rng(seed, "targets").standard_normal(
        (s["contraction_n"], _DY))
    plan_design = uniform_design(input_rng(seed, "plan-design"), s["plan_n"])
    rad_design = uniform_design(input_rng(seed, "rademacher-design"),
                                s["rad_n"])
    pool_design = midpoint_design(s["pool_n"])

    def box_dimension():
        lo, hi = dim.default_radius_window(surface)
        fit = dim.box_dimension_estimate(
            surface, list(np.geomspace(hi, lo, s["box_radii"])),
            n_starts=s["box_starts"])
        return fit, True      # no verdict: fails only by raising or NaN

    def homogeneity():
        # local balls of at most two cells' radius hold about 13 points, so
        # the local covers are exact (branch and bound)
        rep = dim.homogeneity_check(square, HOMOG_M, HOMOG_TAU,
                                    s["homog_trials"],
                                    derive_seed(seed, "mc:homogeneity"),
                                    radius_range=(1.6 / side, 2.2 / side))
        return rep, rep.all_ok

    def contraction():
        cls = ball_class(s["contraction_count"], class_seed)
        rows = eb.lipschitz_contraction_check(
            cls, 1.0, contraction_design, targets,
            np.geomspace(0.5, 0.02, s["contraction_radii"]))
        return rows, all(r.ok for r in rows)

    def chain_plan():
        cls = ball_class(s["plan_count"], class_seed)
        plan = ep.build_chaining_plan(cls, plan_design)
        return plan, plan.links_valid()

    def rademacher_bound():
        cls = ball_class(s["rad_count"], class_seed)
        rep = rad.rademacher_entropy_bound_check(cls, rad_design,
                                                 s["rad_levels"])
        return rep, rep.ok

    def smooth_cover():
        cls = ball_class(s["smooth_count"], class_seed, m=2)
        out, ok = [], True
        for delta in s["smooth_deltas"]:
            plan = cov.build_smooth_cover(cls, delta)
            validity = cov.verify_cover_validity(cls, plan)
            log_occupied = math.log(plan.occupied_cell_count())
            bound = eb.bound_assouad(cls.d, cls.m, _KB, delta,
                                     big_m=5.0 ** cls.d_y,
                                     tau_asd=float(cls.d_y))
            ok = ok and validity.ok and log_occupied <= bound
            out.append({"plan": plan, "validity": validity,
                        "log_occupied": log_occupied, "bound": bound})
        return out, ok

    def rate_pool_covers():
        pool = reg.default_rate_pool(seed=class_seed, base_count=s["pool_base"])
        cloud = cov.PointCloud.from_empirical(pool, pool_design)
        dist = cloud.distance_matrix()
        matrix = cov.PointCloud(dist, metric="matrix")
        radii = np.geomspace(dist.max(), dist[dist > 0].min(), s["pool_radii"])
        covers = [cov.greedy_cover(matrix, r) for r in radii]
        nets = [reg.greedy_cover_from(matrix, r, start=0) for r in radii]
        ok = all(c.is_valid() for c in covers + nets)
        return {"members": len(pool), "covers": covers, "nets": nets}, ok

    return [("box_dimension", box_dimension), ("homogeneity", homogeneity),
            ("contraction", contraction), ("chain_plan", chain_plan),
            ("rademacher_bound", rademacher_bound),
            ("smooth_cover", smooth_cover),
            ("rate_pool_covers", rate_pool_covers)]


def _erm(seed, s):
    class_seed = derive_seed(seed, "class")
    noise = conc.CovarianceSpectrum.uniform(_DY)
    chain_design = uniform_design(input_rng(seed, "chain-design"), s["gchain_n"])

    def erm():
        cls = ball_class(s["erm_count"], class_seed)
        rep = reg.erm_lipschitz_experiment(cls, noise, s["erm_n"],
                                           s["erm_reps"],
                                           derive_seed(seed, "mc:erm"),
                                           noise_quad=s["erm_noise_quad"],
                                           threads=1)
        return rep, rep.all_ok

    def gaussian_chain():
        cls = ball_class(s["gchain_count"], class_seed)
        rep = reg.gaussian_chaining_check(cls, chain_design, noise, T_GRID,
                                          s["gchain_reps"],
                                          derive_seed(seed, "mc:gchain"),
                                          threads=1)
        return rep, rep.all_ok

    return [("erm", erm), ("gaussian_chain", gaussian_chain)]


_BUILDERS = {"mc": _mc, "geometry": _geometry, "erm": _erm}


def make_workload(name: str, seed: int, size: str = "full"):
    """Generate the inputs; return [(experiment name, closure)]."""
    return _BUILDERS[name](seed, SIZES[size][name])
