"""Command-line front end: every experiment as a seeded, reproducible run.

Each subcommand executes one laboratory experiment, writes CSV/JSON reports
plus a run manifest into the output directory, and exits 0 only when every
check in the run passed (2 on invalid input, 1 on internal error or failed
checks). Identical arguments and seed produce byte-identical CSV bodies
regardless of --threads; VECPROC_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import traceback
import warnings

import numpy as np

from . import __version__
from . import concentration as conc
from . import covering as cov
from . import dimension as dim
from . import empirical_process as ep
from . import entropy_bounds as eb
from . import function_class as fc
from . import rademacher as rad
from . import regression as reg
from .reports import passes, write_csv, write_json
from .rng import substream

_TAG_CLI_DESIGN = 701


def _number(kind, low):
    """argparse type: a finite `kind` value of at least `low`."""
    def parse(text):
        value = kind(text)
        if value != value:
            raise argparse.ArgumentTypeError(f"must be a number, got {text}")
        if math.isinf(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _grid(kind, low=-math.inf):
    """argparse type: a nonempty comma-separated list of `kind` values."""
    item = _number(kind, low)

    def parse(text):
        values = [item(tok) for tok in text.split(",") if tok]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _bound(text):
    """argparse type: the bound c shared by every c_i, finite and positive."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("need n positive bounds c_i: c must "
                                         f"be finite and positive, got {text}")
    return value


_bound.__name__ = "float"   # argparse names the type in its messages


_positive = _number(int, 1)
_real = _number(float, -math.inf)   # finite; the library checks its range
_floats = _grid(float)
_times = _grid(float, 0)       # the t of a tail bound e^-t
_sizes = _grid(int, 1)         # sample sizes


def _spectrum(spec: str) -> conc.CovarianceSpectrum:
    if spec == "single":
        return conc.CovarianceSpectrum.single()
    kind, _, modes = spec.partition(":")
    if kind == "geometric":
        return conc.CovarianceSpectrum.geometric(int(modes or 30))
    return conc.CovarianceSpectrum.uniform(int(modes or 10))


def _spectrum_spec(text: str) -> str:
    """argparse type: single, geometric[:modes] or uniform[:modes], modes >= 1."""
    kind, _, modes = text.partition(":")
    if text != "single" and kind not in ("geometric", "uniform"):
        raise argparse.ArgumentTypeError(f"unknown spectrum {text!r}")
    if modes:
        _positive(modes)
    return text


def _load_cloud(path: str) -> cov.PointCloud:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # numpy's "no data"
        pts = np.loadtxt(path, delimiter=",", ndmin=2)
    if pts.size == 0:
        raise ValueError(f"{path} holds no points")
    return cov.PointCloud(pts)


def _ball_class(args, seed, resolution=None) -> fc.FunctionClass:
    return fc.generate_finite_dim_ball_class(
        d=args.d, m=args.m, d_y=args.dy, k_b=args.kb, count=args.count,
        seed=seed, resolution=resolution)


def _design(args, cls) -> fc.EmpiricalDesign:
    return fc.EmpiricalDesign.uniform(args.n, cls.d,
                                      substream(args.seed, _TAG_CLI_DESIGN))


def _add_class_flags(sub, count=20, m=1):
    sub.add_argument("--d", type=int, default=1)
    sub.add_argument("--m", type=int, default=m)
    sub.add_argument("--dy", type=int, default=3)
    sub.add_argument("--kb", type=_real, default=1.0)
    sub.add_argument("--count", type=int, default=count)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecproc",
        description="Numerical laboratory for vector-valued empirical processes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=_positive, default=1)

    p = sub.add_parser("cover", help="greedy or exact cover of a CSV point cloud")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--mode", choices=["greedy", "exact"], default="greedy")
    common(p)

    p = sub.add_parser("smooth-cover", help="constructive cover of a smooth class")
    _add_class_flags(p, count=50, m=2)
    p.add_argument("--resolution", type=_positive, default=None)
    p.add_argument("--delta", type=_floats, default=[0.1])
    common(p)

    p = sub.add_parser("dimension", help="box dimension / homogeneity / Assouad")
    p.add_argument("--input", required=True)
    p.add_argument("--check", choices=["box", "homogeneity", "assouad"],
                   default="box")
    p.add_argument("--deltas", type=_floats, default=None)
    p.add_argument("--big-m", type=_real, default=2.0)
    p.add_argument("--tau", type=_real, default=1.0)
    p.add_argument("--trials", type=_positive, default=50)
    common(p)

    p = sub.add_parser("bounds", help="closed-form entropy bound tables")
    p.add_argument("--variant", choices=["assouad", "box", "exponential", "rkhs"],
                   default="assouad")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kb", type=_real, default=1.0)
    p.add_argument("--deltas", type=_floats, default=[0.1, 0.05, 0.02, 0.01])
    p.add_argument("--big-m", type=_real, default=2.0)
    p.add_argument("--tau", type=_real, default=1.0)
    p.add_argument("--h", type=_real, default=None, help="rkhs smoothness, > d")
    p.add_argument("--measure-count", type=_number(int, 0), default=0,
                   help="members of a generated class to measure entropy on")
    p.add_argument("--dy", type=int, default=3)
    common(p)

    p = sub.add_parser("concentration", help="tail/moment inequality checks")
    p.add_argument("--check", required=True,
                   choices=["hoeffding-real", "hoeffding-hilbert", "cosh",
                            "gaussian-mgf", "gaussian-tail"])
    p.add_argument("--n", type=_positive, default=50)
    p.add_argument("--dy", type=_positive, default=5)
    p.add_argument("--c", type=_bound, default=1.0)
    p.add_argument("--t", type=_times, default=[0.5, 1.0, 2.0, 4.0])
    p.add_argument("--lambdas", type=_floats, default=[0.1, 0.25, 0.4])
    p.add_argument("--a", type=_floats, default=[1.0, 2.0, 3.0])
    p.add_argument("--reps", type=_positive, default=100_000)
    p.add_argument("--spectrum", type=_spectrum_spec, default="geometric:30")
    common(p)

    p = sub.add_parser("symmetrize", help="symmetrization inequalities in MC")
    _add_class_flags(p)
    p.add_argument("--n", type=_positive, default=200)
    p.add_argument("--reps", type=_positive, default=2000)
    p.add_argument("--class-seed", type=int, default=7)
    common(p)

    p = sub.add_parser("chain", help="chaining plan and tail checks")
    _add_class_flags(p)
    p.add_argument("--kind", choices=["rademacher", "gaussian"],
                   default="rademacher")
    p.add_argument("--n", type=_positive, default=100)
    p.add_argument("--levels", type=_positive, default=None)
    p.add_argument("--t", type=_times, default=[0.5, 1.0, 2.0])
    p.add_argument("--reps", type=_positive, default=10_000)
    p.add_argument("--spectrum", type=_spectrum_spec, default="uniform:3")
    p.add_argument("--class-seed", type=int, default=7)
    common(p)

    p = sub.add_parser("gc", help="uniform law of large numbers decay curve")
    _add_class_flags(p, count=5)
    p.add_argument("--n-grid", type=_sizes, default=[100, 400, 1600, 6400])
    p.add_argument("--reps", type=_positive, default=200)
    p.add_argument("--class-seed", type=int, default=7)
    common(p)

    p = sub.add_parser("regress", help="fixed-design least-squares rate study")
    p.add_argument("--dy", type=int, default=3)
    p.add_argument("--kb", type=_real, default=250.0)
    p.add_argument("--base-count", type=int, default=150)
    p.add_argument("--n-grid", type=_sizes, default=[64, 256, 1024, 4096])
    p.add_argument("--reps", type=_positive, default=200)
    p.add_argument("--t", type=_number(float, 0), default=2.0)
    p.add_argument("--net-fraction", type=_real, default=1.0 / 64.0)
    p.add_argument("--class-seed", type=int, default=11)
    common(p)

    p = sub.add_parser("erm", help="Lipschitz-loss ERM excess-risk study")
    _add_class_flags(p, count=10)
    p.add_argument("--n-grid", type=_sizes, default=[100, 400, 1600])
    p.add_argument("--reps", type=_positive, default=200)
    p.add_argument("--cap", type=_real, default=1.0)
    p.add_argument("--lipschitz", type=_real, default=1.0)
    p.add_argument("--class-seed", type=int, default=3)
    common(p)

    p = sub.add_parser("rademacher", help="complexity estimates and bounds")
    _add_class_flags(p, count=15)
    p.add_argument("--check", choices=["norm", "coordinatewise", "entropy-bound"],
                   default="norm")
    p.add_argument("--n", type=_positive, default=16)
    p.add_argument("--levels", type=_positive, default=5)
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--reps", type=_positive, default=100_000)
    p.add_argument("--class-seed", type=int, default=7)
    common(p)

    p = sub.add_parser("demo-counterexample",
                       help="basis dependence of the coordinate-wise complexity")
    common(p)
    return parser


# --------------------------------------------------------------------------
# command bodies: return (ok, {artifact name: payload}); main writes names
# ending in .csv with write_csv and everything else with write_json


def _run_cover(args):
    cloud = _load_cloud(args.input)
    result = cov.greedy_cover(cloud, args.delta)
    if args.mode == "exact":
        summary = {"mode": "exact", "delta": args.delta,
                   "exact_size": cov.exact_cover_number(cloud, args.delta),
                   "greedy_size": result.size, "ok": True}
    else:
        summary = {"mode": "greedy", "delta": args.delta,
                   "greedy_size": result.size, "ok": result.is_valid()}
    rows = [{"point_index": i, "center_point_index": result.center_indices[c],
             "distance": d}
            for i, (c, d) in enumerate(zip(result.assignment,
                                           result.assignment_dist))]
    return bool(summary["ok"]), {"cover.csv": rows, "cover.json": summary}


def _run_smooth_cover(args):
    cls = _ball_class(args, args.seed, args.resolution)
    rows, plans = [], []
    for delta in args.delta:
        plan = cov.build_smooth_cover(cls, delta)
        validity = cov.verify_cover_validity(cls, plan)
        log_occupied = math.log(plan.occupied_cell_count())
        bound = eb.bound_assouad(cls.d, cls.m, args.kb, delta,
                                 big_m=5.0 ** cls.d_y, tau_asd=float(cls.d_y))
        plan_json = plan.to_json()
        row = {"delta": plan_json["delta"],
               "occupied_cells": plan_json["occupied_cells"],
               "log_occupied": log_occupied, "bound_assouad": bound,
               "pairs_checked": validity.pairs_checked,
               "max_violation": validity.max_violation,
               "ok": validity.ok and passes(log_occupied, bound)}
        rows.append(row)
        plans.append({**plan_json, **row})
    all_ok = all(r["ok"] for r in rows)
    return all_ok, {
        "smooth_cover.json": {"deltas": args.delta, "plans": plans, "ok": all_ok},
        "smooth_cover.csv": rows}


def _run_dimension(args):
    cloud = _load_cloud(args.input)
    if args.check == "box":
        if args.deltas is None:
            lo, hi = dim.default_radius_window(cloud)
            deltas = list(np.geomspace(hi, lo, 8))
        else:
            deltas = args.deltas
        fit = dim.box_dimension_estimate(cloud, deltas)
        rows = [{"delta": d, "entropy": h}
                for d, h in zip(fit.delta_grid, fit.entropies)]
        return True, {"box_dimension.csv": rows, "box_dimension.json": fit}
    if args.check == "homogeneity":
        rep = dim.homogeneity_check(cloud, args.big_m, args.tau, args.trials,
                                    args.seed)
        return rep.all_ok, {"homogeneity.csv": rep.trials,
                            "homogeneity.json": rep}
    m_est, tau_est = dim.assouad_estimate(cloud, args.seed, args.trials)
    return True, {"assouad.json": {
        "m": m_est, "tau": tau_est, "trials": args.trials,
        "note": "heuristic upper estimate from sampled local covers"}}


def _run_bounds(args):
    if args.variant == "rkhs" and args.h is None:
        raise ValueError("rkhs variant needs --h")
    cloud = None
    if args.measure_count > 0:
        cloud = cov.PointCloud(fc.generate_finite_dim_ball_class(
            d=args.d, m=args.m, d_y=args.dy, k_b=args.kb,
            count=args.measure_count, seed=args.seed).grid(), metric="sup")
    tau = args.h if args.variant == "rkhs" else args.tau
    rows = []
    for delta in args.deltas:
        bound = eb.bound(args.variant, args.d, args.m, args.kb, delta,
                         args.big_m, tau)
        measured = "" if cloud is None else cov.entropy(cloud, delta)
        rows.append({"delta": delta, "variant": args.variant, "bound": bound,
                     "measured_entropy_if_any": measured})
    all_ok = cloud is None or all(passes(r["measured_entropy_if_any"],
                                         r["bound"]) for r in rows)
    # companion report: raw chain values next to the simplified K delta^-p
    # power law (constant calibrated at the smallest radius)
    exponent = {"assouad": args.d / args.m, "box": args.d / args.m,
                "exponential": args.d / args.m + args.tau,
                "rkhs": args.d / args.m + (2 * args.d / args.h
                                           if args.h else 0.0)}[args.variant]
    at_min = min(rows, key=lambda r: r["delta"])
    k_const = at_min["bound"] * at_min["delta"] ** exponent
    return all_ok, {"bounds.csv": rows, "bounds.json": {
        "variant": args.variant, "exponent": exponent, "k_const": k_const,
        "rows": [{"delta": r["delta"], "raw_chain": r["bound"],
                  "simplified": k_const * r["delta"] ** -exponent,
                  "measured": None if cloud is None
                  else r["measured_entropy_if_any"]}
                 for r in rows],
        "all_ok": all_ok}}


def _run_concentration(args):
    if args.check == "cosh":
        rep = conc.cosh_moment_check(args.c, args.n, args.lambdas, args.reps,
                                     args.seed, d_y=args.dy,
                                     threads=args.threads)
        return rep.all_ok, {"cosh.csv": rep.rows, "cosh.json": rep}
    if args.check == "gaussian-mgf":
        rows = conc.gaussian_mgf_check(_spectrum(args.spectrum), args.lambdas)
        ok = all(r.ok for r in rows)
        return ok, {"gaussian_mgf.csv": rows, "gaussian_mgf.json":
                    {"all_ok": ok, "deterministic": True}}
    if args.check == "hoeffding-real":
        rep = conc.hoeffding_real_check(args.c, args.n, args.t, args.reps,
                                        args.seed, threads=args.threads)
    elif args.check == "hoeffding-hilbert":
        rep = conc.hoeffding_hilbert_check(args.c, args.n, args.dy, args.t,
                                           args.reps, args.seed,
                                           threads=args.threads)
    else:
        rep = conc.gaussian_tail_check(_spectrum(args.spectrum), args.a,
                                       args.reps, args.seed,
                                       threads=args.threads)
    return rep.all_ok, {"tail_report.csv": rep.rows(), "tail_report.json":
                        {"all_ok": rep.all_ok, "reps": rep.reps,
                         "seed": rep.seed}}


def _run_symmetrize(args):
    cls = _ball_class(args, args.class_seed)
    rep = ep.symmetrization_check(cls, args.n, args.reps, args.seed,
                                  threads=args.threads)
    summary = rep.to_json()
    row = {k: v for k, v in summary.items() if k not in ("reps", "seed")}
    return rep.all_ok, {"symmetrize.json": summary, "symmetrize.csv": [row]}


def _run_chain(args):
    cls = _ball_class(args, args.class_seed)
    design = _design(args, cls)
    plan = ep.build_chaining_plan(cls, design, args.levels)
    if args.kind == "rademacher":
        rep = ep.chaining_tail_check(plan, cls, design, args.t, args.reps,
                                     args.seed, threads=args.threads)
    else:
        rep = reg.gaussian_chaining_check(cls, design, _spectrum(args.spectrum),
                                          args.t, args.reps, args.seed,
                                          s_levels=args.levels,
                                          threads=args.threads)
    ok = plan.links_valid() and rep.all_ok
    return ok, {"chain_plan.json": plan, "chain_tail.csv": rep.rows(),
                "chain_tail.json": {"all_ok": ok,
                                    "links_valid": plan.links_valid(),
                                    "reps": rep.reps, "seed": rep.seed}}


def _run_gc(args):
    cls = _ball_class(args, args.class_seed)
    rows, slope = ep.gc_decay_curve(cls, args.n_grid, args.reps, args.seed,
                                    threads=args.threads)
    ok = passes(rows[-1][1], rows[0][1])
    return ok, {"gc_curve.csv": [{"n": n, "median_deviation": med}
                                 for n, med in rows],
                "gc_curve.json": {"rows": rows, "trend_slope": slope,
                                  "ok": ok}}


def _run_regress(args):
    pool = reg.default_rate_pool(seed=args.class_seed, d_y=args.dy,
                                 k_b=args.kb, base_count=args.base_count)
    noise = conc.CovarianceSpectrum.uniform(args.dy)
    fit = reg.rate_experiment(pool, noise, args.n_grid, args.reps,
                              args.seed, t=args.t,
                              net_fraction=args.net_fraction,
                              threads=args.threads)
    ok = fit.basic_ok and bool(np.all(fit.coverage_ok))
    return ok, {"rate.csv": fit.rows(), "rate.json": fit}


def _run_erm(args):
    cls = _ball_class(args, args.class_seed)
    noise = conc.CovarianceSpectrum.uniform(args.dy)
    rep = reg.erm_lipschitz_experiment(cls, noise, args.n_grid, args.reps,
                                       args.seed, cap=args.cap,
                                       lipschitz=args.lipschitz,
                                       threads=args.threads)
    return rep.all_ok, {"erm.csv": rep.rows, "erm.json": rep}


def _run_rademacher(args):
    cls = _ball_class(args, args.class_seed)
    design = _design(args, cls)
    if args.check == "norm":
        est = rad.norm_rademacher_values(
            cls.values_on(design), mode=args.mode, reps=args.reps,
            seed=args.seed, threads=args.threads)
        return True, {"rademacher.json": est}
    if args.check == "coordinatewise":
        values = cls.values_on(design)
        out_obj = {"basis": "standard"}
        for normalized, key in ((False, "pattern_sum"), (True, "normalized")):
            if args.mode == "mc" and not normalized:
                continue  # pattern sums require exact enumeration
            out_obj[key] = rad.coordinatewise_rademacher_values(
                values, normalized=normalized, mode=args.mode,
                reps=args.reps, seed=args.seed, threads=args.threads)
        return True, {"rademacher.json": out_obj}
    rep = rad.rademacher_entropy_bound_check(cls, design, args.levels,
                                             mode=args.mode, reps=args.reps,
                                             seed=args.seed,
                                             threads=args.threads)
    return rep.ok, {"rademacher.json": rep}


def _run_demo(args):
    rep = rad.basis_dependence_demo()
    return rep.dependent, {"counterexample.json": rep}


_RUNNERS = {
    "cover": _run_cover,
    "smooth-cover": _run_smooth_cover,
    "dimension": _run_dimension,
    "bounds": _run_bounds,
    "concentration": _run_concentration,
    "symmetrize": _run_symmetrize,
    "chain": _run_chain,
    "gc": _run_gc,
    "regress": _run_regress,
    "erm": _run_erm,
    "rademacher": _run_rademacher,
    "demo-counterexample": _run_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    env_seed = os.environ.get("VECPROC_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: VECPROC_SEED must be an integer, got {env_seed!r}",
                  file=sys.stderr)
            return 2
    out = args.out or os.path.join("runs", f"{args.command}-{args.seed}")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        ok, artifacts = _RUNNERS[args.command](args)
        os.makedirs(out, exist_ok=True)
        for name, payload in artifacts.items():
            write = write_csv if name.endswith(".csv") else write_json
            write(os.path.join(out, name), payload)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command",)},
        "seed": args.seed,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [os.path.join(out, name) for name in artifacts],
        "ok": bool(ok),
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"{args.command}: {'ok' if ok else 'FAILED'} -> {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
