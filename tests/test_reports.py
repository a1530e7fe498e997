import json
import math

import numpy as np
import pytest

from vecproc import covering as cov
from vecproc import empirical_process as ep
from vecproc import regression as reg
from vecproc.reports import TailReport, passes, tail_check, write_json
from vecproc.rng import BLOCK_SIZE


def test_tail_check_counts_finite_statistics():
    rep = tail_check(lambda rng, size: np.arange(size, dtype=float),
                     [2.0, 5.0], [0.5, 1.0], [1.0, 1.0], 10, 1, 0)
    assert list(rep.freqs) == [0.8, 0.5]
    assert rep.all_ok


def nan_in_block(block):
    """A statistic of zeros with one NaN in block `block`."""
    def stat(rng, size):
        out = np.zeros(size)
        if size == (BLOCK_SIZE if block == 0 else 5):
            out[size // 2] = np.nan
        return out
    return stat


@pytest.mark.parametrize("stat", [
    lambda rng, size: np.full(size, np.nan),
    nan_in_block(0),
    nan_in_block(1),
], ids=["all", "first block", "last block"])
def test_a_nan_statistic_fails_every_row(stat):
    # bounds above 1 would pass even if every NaN counted as an exceedance
    rep = tail_check(stat, [0.5, 1.0], [0.5, 1.0], [2.0, 1.2],
                     BLOCK_SIZE + 5, 1, 0)
    assert np.all(np.isnan(rep.freqs))
    assert not np.any(rep.ok)
    assert not rep.all_ok


NON_FINITE = [math.nan, math.inf, -math.inf]
# (value, bound): each non-finite number as the value, then as the bound,
# against a finite partner with which the check holds
NON_FINITE_CASES = ([(x, 1.0) for x in NON_FINITE]
                    + [(0.5, x) for x in NON_FINITE])


def report_verdicts(value, bound):
    """Each report verdict built on `passes`, with one measured value and
    one bound (zero standard errors)."""
    one = np.ones(1)
    tail = TailReport(thresholds=one, freqs=np.array([value]), ses=0 * one,
                      bounds=np.array([bound]), reps=10, seed=0)
    sym = ep.SymmetrizationReport(mean_dev=value, mean_pair=bound,
                                  mean_rad=bound / 2, se_dev=0.0, se_pair=0.0,
                                  se_rad=0.0, reps=10, seed=0)
    plan = ep.ChainingPlan(s_levels=0, r_n=bound, level_centers=((0,),),
                           n_s=one, h_s=one, chains=np.zeros((1, 2), int),
                           link_dist=np.array([[value]]), j_n=0.0)
    cover = cov.CoverResult(radius=bound, center_indices=np.zeros(1, int),
                            assignment=np.zeros(1, int),
                            assignment_dist=np.array([value]),
                            insertion_radii=np.array([math.inf]))
    fit = reg.RateFit(n_values=np.array([10]), median_errors=one, slope=0.0,
                      theoretical_exponent=0.0, delta_n=one,
                      coverage_fail=np.array([value]), coverage_bound=bound,
                      basic_ok=True, net_sizes=np.array([2]), reps=10, seed=0)
    return {"passes": passes(value, bound),
            "passes (array)": bool(passes(np.array([value]), bound)[0]),
            "TailReport.ok": bool(tail.ok[0]), "TailReport.all_ok": tail.all_ok,
            "ok_pair": sym.ok_pair, "ok_rad": sym.ok_rad,
            "links_valid": plan.links_valid(), "is_valid": cover.is_valid(),
            "coverage_ok": bool(fit.coverage_ok[0])}


def test_finite_verdicts_pass():
    verdicts = report_verdicts(0.5, 1.0)
    assert all(v is True for v in verdicts.values()), verdicts
    assert passes(1.0, 1.0) and not passes(1.5, 1.0)
    assert passes(1.5, 1.0, 0.5) and not passes(1.5, 1.0, 0.25)


@pytest.mark.parametrize("value, bound", NON_FINITE_CASES)
def test_no_non_finite_number_passes(value, bound):
    with np.errstate(invalid="ignore"):
        verdicts = report_verdicts(value, bound)
    assert not any(verdicts.values()), verdicts


def test_passes_is_elementwise():
    value = np.array([0.5, 1.5, math.nan, 0.5, -math.inf])
    bound = np.array([1.0, 1.0, 1.0, math.inf, 1.0])
    assert passes(value, bound).tolist() == [True, False, False, False, False]
    assert passes(value, bound, slack=1.0).tolist() == [True, True, False,
                                                        False, False]


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_json_writes_non_finite_numbers_as_strings(tmp_path):
    path = tmp_path / "r.json"
    body = {"rows": [[10, math.inf], [20, -math.inf]], "slope": math.nan,
            "array": np.array([1.5, np.inf]), "scalar": np.float64(np.nan)}
    write_json(path, body)
    got = json.loads(path.read_text(), parse_constant=_no_constant)
    assert got == {"rows": [[10, "inf"], [20, "-inf"]], "slope": "nan",
                   "array": [1.5, "inf"], "scalar": "nan"}


def test_json_keeps_the_bytes_of_a_finite_body(tmp_path):
    path = tmp_path / "r.json"
    body = {"b": [0.1, 2, -3e300, True, None, "x"], "a": np.arange(3) / 7}
    write_json(path, body)
    want = json.dumps({"b": [0.1, 2, -3e300, True, None, "x"],
                       "a": (np.arange(3) / 7).tolist()},
                      indent=2, sort_keys=True) + "\n"
    assert path.read_text() == want

