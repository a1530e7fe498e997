"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as fh:
    LAYERS = json.load(fh)["layers"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=5, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(workload, trace, seed=5):
    out = bench(workload, trace, seed)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    report, result = result_of(workload, trace=0)
    check_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = report["environment"]
    for key in ("python", "numpy", "blas", "blas_threads", "nproc", "seed",
                "git_commit", "machine_settings"):
        assert key in env
    assert report["repeatable"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    _, first = result_of(workload, trace=1)
    _, second = result_of(workload, trace=1)
    check_metrics(first, SPEC["per_layer"])
    for name, entry in LAYERS.items():
        value = first["metrics"][name]["value"]
        if name.endswith("_s"):
            assert value >= -1e-9, name
        if workload in entry["moves"]:
            assert value > 0, f"{name} is zero on {workload}"
        if name.endswith("_n"):
            assert value == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", "5", "--size", "tiny", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    spans = result["spans"]
    assert spans
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    assert all(v >= -1e-9 for v in result["self_s"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("mc", trace=0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
