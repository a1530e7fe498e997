import json
import math
import pathlib
import shlex
import time

import numpy as np
import pytest

from vecproc import concentration as conc
from vecproc import covering as cov
from vecproc import dimension as dim
from vecproc import function_class as fc
from vecproc import rademacher as rad
from vecproc.cli import _TAG_CLI_DESIGN, build_parser, main
from vecproc.rng import substream


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def readme_commands():
    """Every `vecproc ...` line of the README's command-line block, with
    backslash continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("vecproc ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 12
    parser = build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)      # exits 2 on an unknown flag
        assert args.command == argv[0]


def test_demo_counterexample(tmp_path):
    start = time.time()
    code, out = run_cli(["demo-counterexample"], tmp_path, "demo")
    assert code == 0
    assert time.time() - start < 1.0
    data = json.loads((out / "counterexample.json").read_text())
    assert data["dependent"] is True
    assert data["standard"] == pytest.approx(2.0, abs=1e-9)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "demo-counterexample"
    assert manifest["ok"] is True
    assert any(p.endswith("counterexample.json") for p in manifest["outputs"])


def test_concentration_subcommand(tmp_path):
    code, out = run_cli(
        ["concentration", "--check", "hoeffding-hilbert", "--n", "20",
         "--dy", "4", "--t", "0.5,1", "--reps", "20000", "--seed", "1"],
        tmp_path, "conc")
    assert code == 0
    body = (out / "tail_report.csv").read_text()
    assert body.splitlines()[0] == "threshold,freq,se,bound,ok"
    summary = json.loads((out / "tail_report.json").read_text())
    assert summary["all_ok"] is True


def test_cover_subcommand_and_invalid_delta(tmp_path):
    pts = tmp_path / "points.csv"
    rng = np.random.default_rng(0)
    np.savetxt(pts, rng.uniform(size=(30, 2)), delimiter=",")
    code, out = run_cli(["cover", "--input", str(pts), "--delta", "0.3"],
                        tmp_path, "cover")
    assert code == 0
    assert (out / "cover.csv").exists()

    code, _ = run_cli(["cover", "--input", str(pts), "--delta", "-1"],
                      tmp_path, "cover_bad")
    assert code == 2

    code, _ = run_cli(["cover", "--input", str(tmp_path / "missing.csv"),
                       "--delta", "0.3"], tmp_path, "cover_missing")
    assert code == 2


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2
    assert main(["cover", "--nope", "1"]) == 2


def test_bounds_subcommand_with_measurement(tmp_path):
    code, out = run_cli(
        ["bounds", "--variant", "assouad", "--d", "1", "--m", "2",
         "--deltas", "0.2,0.1", "--big-m", "125", "--tau", "3",
         "--measure-count", "10", "--dy", "3"],
        tmp_path, "bounds")
    assert code == 0
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "delta,variant,bound,measured_entropy_if_any"
    assert len(lines) == 3


def test_rademacher_subcommand(tmp_path):
    code, out = run_cli(
        ["rademacher", "--check", "entropy-bound", "--count", "10",
         "--n", "12", "--levels", "4"],
        tmp_path, "rad")
    assert code == 0
    data = json.loads((out / "rademacher.json").read_text())
    assert data["ok"] is True


@pytest.mark.parametrize("check", ["coordinatewise", "entropy-bound"])
def test_rademacher_monte_carlo_honours_threads(tmp_path, monkeypatch, check):
    seen = []
    map_blocks = rad.map_blocks

    def spy(fn, reps, threads, *args, **kwargs):
        seen.append(threads)
        return map_blocks(fn, reps, threads, *args, **kwargs)

    monkeypatch.setattr(rad, "map_blocks", spy)
    argv = ["rademacher", "--check", check, "--mode", "mc", "--count", "4",
            "--n", "8", "--levels", "3", "--reps", "20000"]
    bodies = []
    for threads in (1, 2):
        code, out = run_cli(argv + ["--threads", str(threads)], tmp_path,
                            f"t{threads}")
        assert code == 0
        bodies.append((out / "rademacher.json").read_bytes())
    assert seen == [1, 2]
    assert bodies[0] == bodies[1]


def test_rademacher_monte_carlo_without_an_effective_sign(tmp_path):
    # one member: every coordinate-wise sign is member-constant, so Monte
    # Carlo draws rows of no sign and the complexity is exactly 0
    code, out = run_cli(["rademacher", "--check", "coordinatewise", "--mode",
                         "mc", "--count", "1"], tmp_path, "width0")
    assert code == 0
    est = json.loads((out / "rademacher.json").read_text())["normalized"]
    assert (est["value"], est["se"], est["n_patterns"]) == (0.0, 0.0, 100_000)


def test_dimension_subcommand(tmp_path):
    pts = tmp_path / "line.csv"
    t = np.linspace(0, 1, 400)
    np.savetxt(pts, np.stack([t, np.zeros_like(t)], axis=1), delimiter=",")
    code, out = run_cli(
        ["dimension", "--input", str(pts), "--check", "box",
         "--deltas", "0.1,0.07,0.05,0.03,0.02"],
        tmp_path, "dim")
    assert code == 0
    fit = json.loads((out / "box_dimension.json").read_text())
    assert 0.8 <= fit["slope"] <= 1.2


def written(out, *names):
    """The manifest's outputs are exactly these files in out, all present."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / name) for name in names]
    assert all((out / name).exists() for name in names)


def test_cover_exact_mode(tmp_path):
    pts = tmp_path / "points.csv"
    cloud = cov.PointCloud(substream(4).uniform(size=(12, 2)))
    np.savetxt(pts, cloud.points, delimiter=",", fmt="%.17g")
    code, out = run_cli(["cover", "--input", str(pts), "--delta", "0.3",
                         "--mode", "exact"], tmp_path, "exact")
    assert code == 0
    written(out, "cover.csv", "cover.json")
    summary = json.loads((out / "cover.json").read_text())
    assert summary["exact_size"] == cov.exact_cover_number(cloud, 0.3)
    assert summary["exact_size"] <= summary["greedy_size"]


def line_cloud(tmp_path):
    pts = tmp_path / "line.csv"
    t = np.linspace(0, 1, 400)
    np.savetxt(pts, np.stack([t, np.zeros_like(t)], axis=1), delimiter=",",
               fmt="%.17g")
    return pts, cov.PointCloud(np.loadtxt(pts, delimiter=",", ndmin=2))


def test_dimension_box_default_radius_window(tmp_path):
    pts, cloud = line_cloud(tmp_path)
    code, out = run_cli(["dimension", "--input", str(pts), "--check", "box"],
                        tmp_path, "box")
    assert code == 0
    written(out, "box_dimension.csv", "box_dimension.json")
    lo, hi = dim.default_radius_window(cloud)
    fit = dim.box_dimension_estimate(cloud, list(np.geomspace(hi, lo, 8)))
    rows = (out / "box_dimension.csv").read_text().splitlines()[1:]
    assert [tuple(map(float, r.split(","))) for r in rows] \
        == list(zip(fit.delta_grid, fit.entropies))
    assert 0.8 <= json.loads((out / "box_dimension.json").read_text())[
        "slope"] <= 1.2


def test_dimension_assouad(tmp_path):
    pts, cloud = line_cloud(tmp_path)
    code, out = run_cli(["dimension", "--input", str(pts), "--check",
                         "assouad", "--trials", "8", "--seed", "2"],
                        tmp_path, "assouad")
    assert code == 0
    written(out, "assouad.json")
    data = json.loads((out / "assouad.json").read_text())
    assert (data["m"], data["tau"]) == dim.assouad_estimate(cloud, 2, 8)


def test_concentration_hoeffding_real(tmp_path):
    code, out = run_cli(["concentration", "--check", "hoeffding-real",
                         "--n", "10", "--t", "0.5,1", "--reps", "4000",
                         "--seed", "2"], tmp_path, "real")
    assert code == 0
    written(out, "tail_report.csv", "tail_report.json")
    rep = conc.hoeffding_real_check(1.0, 10, [0.5, 1.0], 4000, 2)
    rows = (out / "tail_report.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == list(rep.freqs)
    assert json.loads((out / "tail_report.json").read_text())["all_ok"] is True


def test_rademacher_norm(tmp_path):
    code, out = run_cli(["rademacher", "--check", "norm", "--count", "4",
                         "--n", "8"], tmp_path, "norm")
    assert code == 0
    written(out, "rademacher.json")
    # the subcommand's defaults: d = m = 1, d_Y = 3, K_B = 1, class seed 7
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 4, seed=7)
    design = fc.EmpiricalDesign.uniform(8, 1, substream(0, _TAG_CLI_DESIGN))
    est = rad.norm_rademacher_values(cls.values_on(design))
    data = json.loads((out / "rademacher.json").read_text())
    assert data["value"] == est.value
    assert data["n_patterns"] == 2 ** 8


def test_smooth_cover_subcommand(tmp_path):
    code, out = run_cli(
        ["smooth-cover", "--d", "1", "--m", "2", "--dy", "3", "--count", "30",
         "--resolution", "129", "--delta", "0.1"],
        tmp_path, "sc")
    assert code == 0
    data = json.loads((out / "smooth_cover.json").read_text())
    assert data["ok"] is True


def test_chain_subcommand(tmp_path):
    code, out = run_cli(
        ["chain", "--count", "10", "--n", "50", "--t", "0.5,1",
         "--reps", "3000"],
        tmp_path, "chain")
    assert code == 0
    plan = json.loads((out / "chain_plan.json").read_text())
    assert plan["n_s"][0] == 1


@pytest.mark.parametrize("extra", [["--dy", "1"], ["--dy", "2"],
                                   ["--cap", "1e300"]])
def test_erm_exact_risks_at_edge_settings(tmp_path, extra):
    # one output coordinate, the graded two-coordinate rule, and a cap far
    # beyond any noise the quadrature window holds
    code, out = run_cli(["erm", "--count", "4", "--n-grid", "20",
                         "--reps", "4", "--seed", "1"] + extra, tmp_path, "erm")
    assert code == 0
    data = json.loads((out / "erm.json").read_text())
    assert all(math.isfinite(v) for v in data["risks"] + [data["risk_se"]])
    assert data["g_star"] == 0


def test_concentration_cosh_and_mgf_paths(tmp_path):
    code, out = run_cli(
        ["concentration", "--check", "cosh", "--n", "5", "--dy", "3",
         "--lambdas", "0.1,0.3", "--reps", "10000", "--seed", "2"],
        tmp_path, "cosh")
    assert code == 0
    assert (out / "cosh.csv").read_text().splitlines()[0] \
        == "lambda,lhs,rel_se,rhs,status"
    code, out = run_cli(
        ["concentration", "--check", "gaussian-mgf",
         "--lambdas", "0.1,0.25,0.4", "--spectrum", "single"],
        tmp_path, "mgf")
    assert code == 0
    data = json.loads((out / "gaussian_mgf.json").read_text())
    assert data["all_ok"] is True and data["deterministic"] is True


def test_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("VECPROC_SEED", "777")
    code, out = run_cli(["demo-counterexample", "--seed", "3"], tmp_path, "env")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 777


def test_determinism_across_threads_and_seeds(tmp_path):
    args = ["concentration", "--check", "gaussian-tail", "--a", "1,2",
            "--reps", "20000", "--spectrum", "geometric:10", "--seed", "9"]
    _, out1 = run_cli(args + ["--threads", "1"], tmp_path, "t1")
    _, out2 = run_cli(args + ["--threads", "4"], tmp_path, "t4")
    assert (out1 / "tail_report.csv").read_bytes() \
        == (out2 / "tail_report.csv").read_bytes()
    _, out3 = run_cli(args[:-1] + ["10"], tmp_path, "t_other")
    assert (out1 / "tail_report.csv").read_bytes() \
        != (out3 / "tail_report.csv").read_bytes()


def test_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["demo-counterexample", "--seed", "5"])
    assert code == 0
    assert (tmp_path / "runs" / "demo-counterexample-5"
            / "counterexample.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["symmetrize", "--count", "3", "--n", "20", "--reps", "1"],
     "reps must be at least 2"),
    (["erm", "--count", "3", "--n-grid", "20", "--reps", "1"],
     "reps must be at least 2"),
    (["symmetrize", "--count", "0"], "class must be nonempty"),
    (["gc", "--count", "0"], "class must be nonempty"),
    (["concentration", "--check", "cosh", "--reps", "1"],
     "reps must be at least 2"),
    (["rademacher", "--mode", "mc", "--reps", "1"], "reps must be at least 2"),
    # at the default n = 50 and c = 1 the bound exp(50 lambda^2) overflows a
    # float from lambda = 3.77
    (["concentration", "--check", "cosh", "--lambdas", "30"],
     "the cosh bound exp(lambda^2 sum c_i^2) overflows a float"),
    (["concentration", "--check", "cosh", "--lambdas", "5"],
     "the cosh bound exp(lambda^2 sum c_i^2) overflows a float"),
])
def test_invalid_monte_carlo_input_exits_2(tmp_path, capsys, argv, message):
    code, _ = run_cli(argv, tmp_path, argv[0])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["gc", "--n-grid", ","], "needs at least one value"),
    (["regress", "--n-grid", ","], "needs at least one value"),
    (["erm", "--n-grid", ","], "needs at least one value"),
    (["concentration", "--check", "cosh", "--lambdas", ","],
     "needs at least one value"),
    (["smooth-cover", "--delta", ","], "needs at least one value"),
    (["concentration", "--check", "hoeffding-real", "--t", "-1"],
     "must be at least 0"),
    (["concentration", "--check", "gaussian-tail", "--spectrum", "uniform:0"],
     "must be at least 1"),
    (["chain", "--n", "0"], "must be at least 1"),
    (["symmetrize", "--n", "0"], "must be at least 1"),
    (["rademacher", "--n", "0"], "must be at least 1"),
    (["demo-counterexample", "--threads", "0"], "must be at least 1"),
    (["dimension", "--input", "EMPTY"], "holds no points"),
    (["cover", "--input", "POINTS", "--delta", "nan"], "delta must be positive"),
    (["concentration", "--check", "hoeffding-real", "--c", "nan"],
     "need n positive bounds"),
    (["bounds", "--deltas", "0.1,nan"], "must be a number"),
    (["chain", "--kind", "gaussian", "--spectrum", "uniform:2"],
     "noise dimension must match the output space"),
    (["bounds", "--kb", "nan", "--deltas", "0.1"], "must be a number, got nan"),
    (["bounds", "--tau", "nan", "--deltas", "0.1"], "must be a number, got nan"),
    (["bounds", "--big-m", "nan", "--deltas", "0.1"], "must be a number, got nan"),
    (["bounds", "--variant", "rkhs", "--h", "nan", "--deltas", "0.1"],
     "must be a number, got nan"),
    (["dimension", "--input", "POINTS", "--check", "assouad", "--tau", "nan"],
     "must be a number, got nan"),
    (["symmetrize", "--kb", "nan", "--n", "5", "--reps", "10"],
     "must be a number, got nan"),
    (["erm", "--cap", "nan", "--n-grid", "10", "--reps", "2"],
     "must be a number, got nan"),
    (["erm", "--lipschitz", "nan", "--n-grid", "10", "--reps", "2"],
     "must be a number, got nan"),
    (["regress", "--net-fraction", "nan"], "must be a number, got nan"),
    (["concentration", "--check", "hoeffding-hilbert", "--dy", "0"],
     "must be at least 1"),
    (["concentration", "--check", "cosh", "--dy", "0"], "must be at least 1"),
    (["concentration", "--check", "hoeffding-hilbert", "--c", "inf"],
     "need n positive bounds"),
    (["concentration", "--check", "cosh", "--c", "inf"],
     "need n positive bounds"),
    (["bounds", "--kb", "inf", "--deltas", "0.1"], "must be finite, got inf"),
    (["smooth-cover", "--kb", "inf"], "must be finite, got inf"),
    (["erm", "--cap", "inf", "--n-grid", "10", "--reps", "2"],
     "must be finite, got inf"),
    (["regress", "--net-fraction", "inf"], "must be finite, got inf"),
    (["concentration", "--check", "hoeffding-real", "--t", "inf"],
     "must be finite, got inf"),
    (["bounds", "--tau", "inf", "--deltas", "0.1"], "must be finite, got inf"),
    (["bounds", "--big-m", "inf", "--deltas", "0.1"],
     "must be finite, got inf"),
    (["bounds", "--big-m=-inf", "--deltas", "0.1"],
     "must be finite, got -inf"),
    (["erm", "--count", "3", "--cap", "-1", "--n-grid", "10", "--reps", "2"],
     "cap and Lipschitz constant must be finite and positive"),
    (["erm", "--count", "3", "--lipschitz", "-1", "--n-grid", "10",
      "--reps", "2"], "cap and Lipschitz constant must be finite and positive"),
    (["erm", "--count", "3", "--lipschitz", "0", "--n-grid", "10",
      "--reps", "2"], "cap and Lipschitz constant must be finite and positive"),
    (["cover", "--input", "POINTS", "--delta", "inf"], "delta must be positive"),
    (["gc", "--n-grid", "400"], "need at least two distinct sample sizes"),
    (["gc", "--n-grid", "400,400"], "need at least two distinct sample sizes"),
    (["regress", "--base-count", "0"], "base_count must be at least 1"),
    (["bounds", "--measure-count", "-1"], "must be at least 0"),
    (["dimension", "--input", "ONE", "--check", "homogeneity"],
     "fewer than two distinct points"),
    (["dimension", "--input", "ONE", "--check", "box"],
     "fewer than two distinct points"),
    (["dimension", "--input", "TWIN", "--check", "homogeneity"],
     "fewer than two distinct points"),
    (["dimension", "--input", "TWIN", "--check", "box"],
     "fewer than two distinct points"),
    # at K_B = 20 the net at net_fraction * delta_n keeps only the truth
    (["regress", "--kb", "20", "--n-grid", "64,128", "--reps", "30",
      "--seed", "3"], "at n = 64 the net at net_fraction * delta_n"),
    # a Python float power that overflows raises; the bound says so
    (["dimension", "--input", "POINTS", "--check", "homogeneity", "--tau",
      "1000"], "the homogeneity bound M (R/r)^tau overflows a float"),
    (["bounds", "--variant", "exponential", "--tau", "1000", "--deltas",
      "0.1"], "the exponential entropy bound overflows a float"),
    # three of four points share a place: the median nearest-neighbour
    # distance, the default window's lower end, is 0
    (["dimension", "--input", "TWINS", "--check", "box"],
     "give the radii (--deltas)"),
    # at n = 8192 every replicate picks g0: a median error of 0 leaves the
    # log-log rate fit undefined
    (["regress", "--n-grid", "64,1024,8192", "--reps", "50"],
     "at n = 8192 over half the replicates pick g0"),
    # one sample size: a log-log fit through one point is no rate
    (["regress", "--n-grid", "256", "--reps", "50"],
     "need at least two distinct sample sizes"),
    # one trial: a least-squares line through one point is no slope
    (["dimension", "--input", "POINTS", "--check", "assouad", "--trials", "1"],
     "the Assouad slope needs at least two trials"),
])
def test_invalid_input_exits_2_and_writes_nothing(tmp_path, capsys, argv,
                                                  message):
    files = {name: tmp_path / f"{name.lower()}.csv"
             for name in ("EMPTY", "POINTS", "ONE", "TWIN", "TWINS")}
    files["EMPTY"].write_text("")
    files["POINTS"].write_text("0,0\n1,0\n0,1\n")
    files["ONE"].write_text("0.5,0.5\n")
    files["TWIN"].write_text("0.5,0.5\n0.5,0.5\n")
    files["TWINS"].write_text("0,0\n0,0\n0,0\n1,1\n")
    argv = [str(files.get(a, a)) for a in argv]
    code, out = run_cli(argv, tmp_path, "out")
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_gc_with_infinite_medians_fails(tmp_path, capsys):
    # K_B = 1e300 overflows every member value: the medians are inf, and
    # inf <= inf is no passing verdict
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run_cli(["gc", "--count", "2", "--n-grid", "10,20",
                             "--reps", "3", "--kb", "1e300"], tmp_path, "gc")
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((out / "gc_curve.json").read_text())
    assert summary["ok"] is False
    # JSON has no infinity: a non-finite number is written as a string
    assert all(med == "inf" for _, med in summary["rows"])
    assert summary["trend_slope"] == "nan"


def test_invalid_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VECPROC_SEED", "x")
    code, out = run_cli(["demo-counterexample"], tmp_path, "env")
    err = capsys.readouterr().err
    assert code == 2
    assert "VECPROC_SEED must be an integer" in err
    assert "Traceback" not in err
    assert not out.exists()
