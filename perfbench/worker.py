"""One measured pass of a workload, in a fresh process.

    python3 perfbench/worker.py --workload mc --seed 0 [--trace] [--size tiny]
                                [--setup-only]

The worker imports vecproc from the checkout's `src/`, generates its inputs,
prints the line READY (the parent times process start to this line as
set-up), then runs every experiment of the workload. Its last stdout line is
one JSON object: wall and CPU time from the first experiment call to the
last verdict, peak RSS, and per experiment whether it passed (or why not)
and its result digest; with --trace also the spans and counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def canonical(obj):
    """JSON-ready form of a result: its to_json() where it has one."""
    to_json = getattr(obj, "to_json", None)
    if callable(to_json):
        return canonical(to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tolist"):         # numpy arrays and scalars
        return canonical(obj.tolist())
    return obj


def all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(all_finite(v) for v in obj)
    return True


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_experiment(name, closure, tracer):
    """Run one experiment; a raise, a non-finite number or a false verdict
    is a recorded failure, and the workload goes on."""
    span = tracer.open("experiment." + name) if tracer else None
    try:
        payload, verdict = closure()
        result = canonical(payload)
        if not verdict:
            error = "false verdict"
        elif not all_finite(result):
            error = "non-finite result"
        else:
            error = None
        return {"name": name, "ok": error is None, "digest": digest(result),
                "error": error}
    except Exception as exc:      # a failed experiment must not stop the run
        traceback.print_exc()
        return {"name": name, "ok": False, "digest": None,
                "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer:
            tracer.close(span)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import vecproc
    if not os.path.abspath(vecproc.__file__).startswith(SRC + os.sep):
        print(f"vecproc imported from {vecproc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer, install
    from workloads import make_workload
    experiments = make_workload(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    missing = install(tracer) if tracer else []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    results = [run_experiment(name, closure, tracer)
               for name, closure in experiments]
    wall = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime)
                 + (usage1.ru_stime - usage0.ru_stime),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "experiments": results,
    }
    if tracer:
        out.update(spans=tracer.spans, counts=dict(tracer.counts),
                   self_s=tracer.self_times(), missing=missing)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
