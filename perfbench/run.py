"""vecproc benchmark: entry point.

    python3 perfbench/run.py --workload {mc,geometry,erm} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--write-reference]

Run from the root of a checkout; vecproc is imported from its `src/`.
Each pass runs the whole workload in a fresh worker process (worker.py)
with BLAS pinned to one thread and threads=1 in every vecproc call. Passes
repeat until they have taken --seconds. With --trace 0 a few set-up-only
workers run before each pass, spreading the set-up samples over the run,
and the result holds the end-to-end metrics of BENCHMARK.json as medians
over the passes (set-up: over every worker). With --trace 1 passes
alternate untraced and traced, and the result holds the per-layer metrics:
self times (median over traced passes), exact counts, and the tracing
overhead, traced / untraced wall_s - 1.

The second-last stdout line is a JSON report (environment, per-pass values,
result digests, layer shares); the last line is the result. An experiment
fails when it raises, returns a non-finite number or a false verdict; a
digest that differs from the committed reference is reported, not failed.
The exit code is 0 whenever a result is printed, and nonzero without a
result when a worker cannot run (for instance when `src/vecproc` is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference_digests.json")
WORKLOADS = ("mc", "geometry", "erm")

REFERENCE_SEED = 0
SETUP_SAMPLES = 3          # set-up-only workers before each untraced pass
TIME_LIMIT_S = 170.0       # the whole run, workers included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline, setup_only=False, traced=False):
    """One worker process; returns (set-up seconds, result dict or None)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, **BLAS_ENV)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - started, 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}: "
                          + " ".join(cmd))
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.splitlines()[-1])


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):        # numpy < 1.26 has no dict mode
        blas = "unknown"
    uname = os.uname()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "vecproc_threads": 1,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "os": f"{uname.sysname} {uname.release} {uname.machine}",
        "seed": args.seed,
        "git_commit": git_commit(),
        "machine_settings": "unchanged: no kernel, cgroup, CPU frequency, "
                            "huge-page or cache setting was touched; only "
                            "the benchmark's own worker environment pins "
                            "BLAS threads",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def load_json(path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vecproc benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's digests as the reference "
                             f"(seed {REFERENCE_SEED}, full size only)")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed, args.size) != (REFERENCE_SEED,
                                                           "full"):
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED} "
                     "and the full size")

    if not os.path.isfile(os.path.join(ROOT, "src", "vecproc", "__init__.py")):
        print(f"no vecproc sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"), None)
    if spec is None:
        print("BENCHMARK.json not found", file=sys.stderr)
        return 2

    begun = time.perf_counter()
    deadline = begun + TIME_LIMIT_S
    setups = []
    passes = []            # (traced, set-up seconds, worker result)
    measured = 0.0         # seconds spent in passes
    try:
        while True:
            if not args.trace:
                setups += [run_worker(args, deadline, setup_only=True)[0]
                           for _ in range(SETUP_SAMPLES)]
            traced = bool(args.trace) and len(passes) % 2 == 1
            started = time.perf_counter()
            setup_s, result = run_worker(args, deadline, traced=traced)
            measured += time.perf_counter() - started
            passes.append((traced, setup_s, result))
            kinds = {p[0] for p in passes}
            if measured >= args.seconds and len(kinds) == 1 + args.trace:
                break
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for t, _, r in passes if not t]
    traced = [r for t, _, r in passes if t]
    setups += [s for t, s, _ in passes if not t]

    # correctness: every verdict, and identical outputs and counts per pass
    attempted = sum(len(r["experiments"]) for _, _, r in passes)
    failed = sum(not e["ok"] for _, _, r in passes for e in r["experiments"])
    digests = {e["name"]: e["digest"] for e in passes[0][2]["experiments"]}
    repeatable = all({e["name"]: e["digest"] for e in r["experiments"]}
                     == digests for _, _, r in passes)
    repeatable = repeatable and all(r["counts"] == traced[0]["counts"]
                                    for r in traced)

    reference = load_json(REFERENCE, {"seed": REFERENCE_SEED, "workloads": {}})
    changed = None
    if args.seed == reference["seed"] and args.size == "full":
        expected = reference["workloads"].get(args.workload, {})
        changed = sum(expected.get(n) != d for n, d in digests.items())
        if args.write_reference:
            reference["workloads"][args.workload] = digests
            with open(REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=2, sort_keys=True)
                fh.write("\n")

    if args.trace:
        traced_wall = statistics.median([r["wall_s"] for r in traced])
        overhead = traced_wall / statistics.median(
            [r["wall_s"] for r in untraced]) - 1.0
        layer_s = {}
        for r in traced:
            for name, value in r["self_s"].items():
                layer_s.setdefault(name, []).append(value)
        layer_s = {name: statistics.median(v) for name, v in layer_s.items()}
        counts = traced[0]["counts"]
        metrics = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                value = overhead
            elif name.endswith("_n"):
                value = counts.get(name, 0)
            else:
                value = layer_s.get(name[:-2], 0.0)
            metrics[name] = {"value": value, "unit": m["unit"]}
        extra = {"layer_share": {k: v / traced_wall
                                 for k, v in sorted(layer_s.items())},
                 "tracing_overhead": overhead,
                 "missing_targets": traced[0]["missing"]}
    else:
        values = {key: statistics.median([r[key] for r in untraced])
                  for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        extra = {}

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "run_s": time.perf_counter() - begun,
        "environment": environment(args),
        "setup_s": setups,
        "passes": [{"traced": t, "setup_s": s, "wall_s": r["wall_s"],
                    "cpu_s": r["cpu_s"], "peak_rss_mb": r["peak_rss_mb"]}
                   for t, s, r in passes],
        "failed_experiments": {e["name"]: e["error"] for _, _, r in passes
                               for e in r["experiments"] if not e["ok"]},
        "repeatable": repeatable,
        "digests": digests,
        "digests_changed_n": changed,
        **extra,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and repeatable,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
