"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 1's rotated-basis pattern sum is asserted in its own test against
the published reference value 5*sqrt(2); direct enumeration of all sixteen
sign patterns gives 6*sqrt(2) (the sup at sign pattern (-,-,-,+) is sqrt(2),
not 0), so that single assertion fails and is expected to fail until the
reference value is corrected. Everything else passes.
"""

import csv
import itertools
import json
import math
import time

import numpy as np

from vecproc import concentration as conc
from vecproc import covering as cov
from vecproc import dimension as dim
from vecproc import empirical_process as ep
from vecproc import entropy_bounds as eb
from vecproc import function_class as fc
from vecproc import rademacher as rad
from vecproc import regression as reg
from vecproc.cli import main as cli_main
from vecproc.reports import fmt
from vecproc.rng import substream


class Criterion:
    def __init__(self, tag, budget_s):
        self.tag = tag
        self.budget = budget_s
        self.start = time.time()
        self.checks = []

    def check(self, label, ok):
        self.checks.append((label, bool(ok)))

    def finish(self):
        elapsed = time.time() - self.start
        ok = all(flag for _, flag in self.checks) and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(f"[{self.tag}] {status} ({elapsed:.1f}s / budget {self.budget:.0f}s)")
        for label, flag in self.checks:
            if not flag:
                print(f"    failed: {label}")
        assert elapsed < self.budget, f"{self.tag} exceeded runtime budget"
        for label, flag in self.checks:
            assert flag, f"{self.tag}: {label}"


def test_c01_counterexample_exactness():
    c = Criterion("C01 counterexample", 1.0)
    rep = rad.basis_dependence_demo()
    c.check("standard pattern sum equals 2 within 1e-9",
            abs(rep.standard - 2.0) <= 1e-9)
    # independent oracle: direct enumeration of all 16 rotated sign patterns
    coords = rad.counterexample_values() @ rad.rotated_basis().columns
    flat = coords.reshape(2, -1)
    brute = sum(max(float(np.dot(s, flat[0])), float(np.dot(s, flat[1])))
                for s in itertools.product((-1.0, 1.0), repeat=4))
    c.check("rotated pattern sum equals its direct enumeration",
            abs(rep.rotated - brute) <= 1e-9)
    c.check("normalized values unequal",
            abs(rep.normalized_standard - rep.normalized_rotated) > 1e-9)
    c.check("norm-form complexity basis-invariant to 1e-12",
            abs(rep.norm_form_standard - rep.norm_form_rotated) <= 1e-12)
    c.finish()


def test_c01_rotated_pattern_sum_reference_value():
    """Pinned reference value for the rotated pattern sum: 5*sqrt(2).

    Exact enumeration yields 6*sqrt(2); the reference arithmetic drops the
    sqrt(2) supremum at sign pattern (-,-,-,+). This assertion is kept
    as stated and fails; see the repository notes for the analysis.
    """
    rep = rad.basis_dependence_demo()
    ok = abs(rep.rotated - 5.0 * math.sqrt(2.0)) <= 1e-9
    print(f"[C01 rotated reference value] {'PASS' if ok else 'FAIL'} "
          f"(computed {rep.rotated:.12f}, reference {5 * math.sqrt(2):.12f})")
    assert ok


def test_c02_hilbert_hoeffding():
    c = Criterion("C02 hilbert hoeffding", 60.0)
    for d_y in (1, 5, 20):
        rep = conc.hoeffding_hilbert_check(1.0, 50, d_y, [0.5, 1.0, 2.0, 4.0],
                                           100_000, seed=1)
        c.check(f"d_y={d_y}: every tail within 2e^-t + 3se", rep.all_ok)
    c.finish()


def test_c03_gaussian_measure():
    c = Criterion("C03 gaussian measure", 30.0)
    lambdas = [0.1, 0.25, 0.4]
    for name, spec in (("geometric", conc.CovarianceSpectrum.geometric(30)),
                       ("uniform", conc.CovarianceSpectrum.uniform(10)),
                       ("single", conc.CovarianceSpectrum.single())):
        rows = conc.gaussian_mgf_check(spec, lambdas)
        c.check(f"mgf product bound, {name} spectrum",
                all(r.ok for r in rows))
        if name == "single":
            c.check("single-mode equality within 1e-12",
                    all(abs(r.product - r.bound) <= 1e-12 * r.bound
                        for r in rows))
        tails = conc.gaussian_tail_check(spec, [1.0, 2.0, 3.0], 100_000, seed=2)
        c.check(f"gaussian tails, {name} spectrum", tails.all_ok)
    c.finish()


def brute_force_min_cover(dm, delta):
    n = dm.shape[0]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if np.all(dm[:, centers].min(axis=1) <= delta * (1 + 1e-12)):
                return k
    return n


def brute_force_max_packing(dm, delta):
    n = dm.shape[0]
    best = 0
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n, best, -1)):
        if all(dm[a, b] > delta for a, b in itertools.combinations(subset, 2)):
            return len(subset)
    return best


def test_c04_covering_oracle_equivalence():
    c = Criterion("C04 covering oracles", 60.0)
    deltas = (0.15, 0.25, 0.4, 0.6, 0.9)
    exact_le_greedy = True
    greedy_valid = True
    sandwich = True
    for trial in range(200):
        rng = substream(4, trial)
        pts = rng.uniform(size=(int(rng.integers(4, 11)), 2))
        cloud = cov.PointCloud(pts)
        dm = cloud.distance_matrix()
        for delta in deltas:
            res = cov.greedy_cover(cloud, delta)
            greedy_valid &= res.is_valid()
            n_exact = cov.exact_cover_number(cloud, delta)
            exact_le_greedy &= n_exact <= res.size
            n_exact_oracle = brute_force_min_cover(dm, delta)
            exact_le_greedy &= n_exact == n_exact_oracle
            packing = brute_force_max_packing(dm, delta)
            n_half = cov.exact_cover_number(cloud, delta / 2)
            sandwich &= n_exact <= packing <= n_half
    c.check("exact <= greedy and exact matches brute force", exact_le_greedy)
    c.check("greedy covers valid", greedy_valid)
    c.check("packing sandwich N(d) <= packing(d) <= N(d/2)", sandwich)
    c.finish()


def test_c05_constructive_smooth_cover():
    c = Criterion("C05 smooth cover", 300.0)
    cls = fc.generate_finite_dim_ball_class(1, 2, 3, 1.0, 200, seed=5,
                                            resolution=1025)
    c.check("every stored derivative value in the range set",
            cls.validate_membership())
    for delta in (0.1, 0.05):
        plan = cov.build_smooth_cover(cls, delta)
        validity = cov.verify_cover_validity(cls, plan)
        c.check(f"delta={delta}: same-signature pairs within delta "
                f"({validity.pairs_checked} pairs)",
                validity.ok and validity.pairs_checked > 0)
        log_occ = math.log(plan.occupied_cell_count())
        bound = eb.bound_assouad(1, 2, 1.0, delta, big_m=5.0 ** 3, tau_asd=3.0)
        c.check(f"delta={delta}: log occupied cells {log_occ:.2f} <= "
                f"assouad bound {bound:.1f}", log_occ <= bound)
    c.finish()


def test_c06_dimension_estimation():
    c = Criterion("C06 dimension", 60.0)
    t = np.linspace(0.0, 1.0, 1024)
    line = cov.PointCloud(np.stack([t, np.zeros(1024), np.zeros(1024)], axis=1))
    fit = dim.box_dimension_estimate(line, np.geomspace(0.1, 0.01, 12))
    c.check(f"line slope {fit.slope:.3f} in [0.9, 1.1]",
            0.9 <= fit.slope <= 1.1)

    g = (np.arange(64) + 0.5) / 64
    xx, yy = np.meshgrid(g, g)
    square = cov.PointCloud(np.stack([xx.ravel(), yy.ravel()], axis=1))
    fit2 = dim.box_dimension_estimate(square, np.geomspace(0.2, 0.03, 12))
    c.check(f"square slope {fit2.slope:.3f} in [1.8, 2.2]",
            1.8 <= fit2.slope <= 2.2)

    matches = 0
    all_match = True
    for cloud, rng_range in ((line, (0.004, 0.012)), (square, (0.02, 0.045))):
        rep = dim.homogeneity_check(cloud, 4.0, 2.5, 40, seed=6,
                                    radius_range=rng_range)
        for tr in rep.trials:
            if not tr.exact or tr.local_size > 12:
                continue
            d = cloud.distances_to(tr.center)
            local = cloud.points[d <= tr.radius_big]
            dm = np.linalg.norm(local[:, None] - local[None, :], axis=2)
            oracle = brute_force_min_cover(dm, tr.radius_small)
            all_match &= tr.measured == oracle
            matches += 1
    c.check(f"exact-mode homogeneity verdicts match brute force "
            f"({matches} local balls)", all_match and matches > 0)
    c.finish()


def test_c07_symmetrization():
    c = Criterion("C07 symmetrization", 120.0)
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 20, seed=7,
                                            resolution=129, min_freq=1)
    rep = ep.symmetrization_check(cls, 200, 2000, seed=7)
    c.check("E dev <= E pair + 3se", rep.ok_pair)
    c.check("E dev <= 2 E rad + 3se", rep.ok_rad)
    c.finish()


def test_c08_chaining():
    c = Criterion("C08 chaining", 120.0)
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 20, seed=8,
                                            resolution=129)
    design = fc.EmpiricalDesign.uniform(100, 1, substream(8, 1))
    plan = ep.build_chaining_plan(cls, design)
    c.check("chain-link covering property holds exactly", plan.links_valid())
    tail = ep.chaining_tail_check(plan, cls, design, [0.5, 1.0, 2.0], 10_000,
                                  seed=8)
    c.check("sign-chain tails within 2e^-t + 3se", tail.all_ok)
    gauss = reg.gaussian_chaining_check(cls, design,
                                        conc.CovarianceSpectrum.uniform(3),
                                        [0.5, 1.0, 2.0], 10_000, seed=8)
    c.check("noise-chain tails within e^-t + 3se", gauss.all_ok)
    c.finish()


def test_c09_regression_rates():
    c = Criterion("C09 regression", 600.0)
    pool = reg.default_rate_pool(seed=11)
    noise = conc.CovarianceSpectrum.uniform(3)
    fit = reg.rate_experiment(pool, noise, [64, 256, 1024, 4096], reps=200,
                              seed=0, t=2.0)
    c.check("per-replicate basic inequality holds exactly", fit.basic_ok)
    c.check("coverage P(error > delta_n) within (1+2/(e-1))e^-2 + 3se",
            bool(np.all(fit.coverage_ok)))
    c.check(f"log-log slope {fit.slope:.3f} within +-0.15 of -1/3",
            abs(fit.slope - (-1.0 / 3.0)) <= 0.15)
    c.finish()


def test_c10_contraction_and_entropy_bound():
    c = Criterion("C10 contraction + entropy bound", 120.0)
    cls = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 10, seed=10,
                                            resolution=65)
    design = fc.EmpiricalDesign.uniform(12, 1, substream(10, 1))
    targets = cls.values_on(design)[0] + 0.1
    rows = eb.lipschitz_contraction_check(cls, 2.0, design, targets,
                                          np.geomspace(0.5, 0.01, 8))
    c.check("exact N(c delta, loss class) <= N(delta, class), 8 deltas",
            all(r.ok for r in rows))
    bound_ok = True
    for seed in range(20):
        klass = fc.generate_finite_dim_ball_class(1, 1, 3, 1.0, 15, seed=seed,
                                                  resolution=65)
        dsn = fc.EmpiricalDesign.uniform(16, 1, substream(seed, 42))
        rep = rad.rademacher_entropy_bound_check(klass, dsn, 5)
        bound_ok &= rep.ok
    c.check("exact norm complexity <= 2^-(S+1) R_n + 2 J_n/sqrt(n), "
            "20 seeded classes", bound_ok)
    c.finish()


def run_cli_pair(tmp_path, name, args):
    """Run a command with threads 1 and 4, return the CSV and JSON bodies
    of both runs; the manifest, which records the thread count, is left
    out."""
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"{name}-t{threads}"
        code = cli_main(args + ["--threads", str(threads), "--out", str(out)])
        assert code in (0, 1)
        bodies = {}
        for path in sorted([*out.glob("*.csv"), *out.glob("*.json")]):
            if path.name != "manifest.json":
                bodies[path.name] = path.read_bytes()
        outs.append(bodies)
    return outs


def c11_battery(tmp_path):
    """One small run of every subcommand; pts.csv is written into tmp_path."""
    pts = tmp_path / "pts.csv"
    rng = substream(11, 0)
    np.savetxt(pts, rng.uniform(size=(60, 2)), delimiter=",")
    return [
        ("demo", ["demo-counterexample", "--seed", "3"]),
        ("conc-hh", ["concentration", "--check", "hoeffding-hilbert",
                     "--n", "20", "--dy", "5", "--t", "0.5,1,2",
                     "--reps", "40000", "--seed", "3"]),
        ("conc-gt", ["concentration", "--check", "gaussian-tail",
                     "--a", "1,2,3", "--reps", "20000",
                     "--spectrum", "geometric:10", "--seed", "3"]),
        ("cover", ["cover", "--input", str(pts), "--delta", "0.25",
                   "--seed", "3"]),
        ("bounds", ["bounds", "--deltas", "0.2,0.1", "--big-m", "125",
                    "--tau", "3", "--measure-count", "8", "--seed", "3"]),
        ("smooth", ["smooth-cover", "--count", "25", "--resolution", "129",
                    "--delta", "0.1", "--seed", "3"]),
        ("dim", ["dimension", "--input", str(pts), "--check", "box",
                 "--deltas", "0.4,0.3,0.2,0.15,0.1", "--seed", "3"]),
        ("symmetrize", ["symmetrize", "--count", "8", "--n", "60",
                        "--reps", "300", "--seed", "3"]),
        ("chain", ["chain", "--count", "10", "--n", "40", "--t", "0.5,1",
                   "--reps", "4000", "--seed", "3"]),
        ("gc", ["gc", "--count", "5", "--n-grid", "50,200",
                "--reps", "60", "--seed", "3"]),
        ("regress", ["regress", "--n-grid", "64,128", "--reps", "30",
                     "--seed", "3"]),
        ("erm", ["erm", "--count", "6", "--n-grid", "80", "--reps", "20",
                 "--seed", "3"]),
        ("rademacher", ["rademacher", "--check", "entropy-bound",
                        "--count", "10", "--n", "12", "--levels", "4",
                        "--seed", "3"]),
        # three blocks of 8192, 8192 and 3616 sign rows, each product of
        # 100 members at d_Y = 20 taken in several slabs
        ("rademacher-wide", ["rademacher", "--check", "norm", "--mode", "mc",
                             "--count", "100", "--dy", "20", "--n", "16",
                             "--reps", "20000", "--seed", "3"]),
    ]


def test_c11_determinism(tmp_path):
    c = Criterion("C11 determinism", 600.0)
    for name, args in c11_battery(tmp_path):
        a, b = run_cli_pair(tmp_path, name, args)
        c.check(f"{name}: csv and json bodies byte-identical across "
                "--threads", a == b and len(a) > 0)
    c.finish()


def assert_csv_holds_rows(path, rows):
    """The CSV header is the row keys and every cell is its row's value."""
    header, *body = list(csv.reader(path.read_text().splitlines()))
    assert sorted(header) == sorted(rows[0])
    assert body == [[fmt(row[k]) for k in header] for row in rows]


def test_report_protocol(tmp_path):
    """Manifest outputs are exactly the files a run wrote, and each CSV
    whose JSON carries rows holds exactly those rows."""
    runs = c11_battery(tmp_path) + [
        ("cosh", ["concentration", "--check", "cosh", "--n", "5", "--dy", "3",
                  "--lambdas", "0.1,0.3", "--reps", "10000", "--seed", "3"]),
        ("homogeneity", ["dimension", "--input", str(tmp_path / "pts.csv"),
                         "--check", "homogeneity", "--trials", "10"]),
    ]
    for name, args in runs:
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out)]) in (0, 1)
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        written = [p.name for p in out.iterdir() if p.name != "manifest.json"]
        assert sorted(outputs) == sorted(str(out / f) for f in written), name
    for name, key in (("cosh", "rows"), ("homogeneity", "trials"),
                      ("erm", "rows")):
        rows = json.loads((tmp_path / name / f"{name}.json").read_text())[key]
        assert_csv_holds_rows(tmp_path / name / f"{name}.csv", rows)
    tail = conc.hoeffding_hilbert_check(1.0, 20, 5, [0.5, 1.0, 2.0], 40000, 3)
    assert_csv_holds_rows(tmp_path / "conc-hh" / "tail_report.csv",
                          tail.to_json()["rows"])
