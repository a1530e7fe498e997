"""Spans and counters recorded around vecproc's layer boundaries.

The benchmark never edits vecproc: `install` replaces module and class
attributes with timing and counting wrappers at run time, including every
name another vecproc module re-imported with `from .x import y`. A span is
[name, start, end, parent index]; a layer's self time is the summed duration
of its spans minus the time their direct child spans cover. The workers run
single-threaded (threads=1 everywhere), so spans nest strictly.

rng.map_blocks is transparent: its self time is the time spent in block
kernels outside other layers' spans, and that same time also stays in the
self time of the layer that called map_blocks (symmetrize, population_risks,
...). So its share overlaps the others and is left out of their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

TRANSPARENT = frozenset({"rng.map_blocks"})


class Tracer:
    """In-memory span list plus exact event counts for one worker process."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._open = Counter()     # layer name -> open spans of that layer

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] += 1
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def self_times(self) -> dict:
        """Seconds per span name, each span minus its children.

        The children of a transparent span count as children of its
        nearest non-transparent ancestor too.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if name in TRANSPARENT:
                continue                    # its parent keeps this time
            while parent >= 0:
                child_time[parent] += end - start
                if self.spans[parent][0] not in TRANSPARENT:
                    break
                parent = self.spans[parent][3]
        out = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name] += (end - start) - inner
        return dict(out)


# --------------------------------------------------------------------------
# counters: called with (tracer, args, kwargs) before the wrapped call


def _count(key):
    def counter(tracer, args, kwargs):
        tracer.counts[key] += 1
    return counter


def _count_member_eval(tracer, args, kwargs):
    # GridFunction.evaluate_deriv(self, x, p): one member at len(x) points.
    # Only calls from outside the eval layer count, so a batched values_on
    # and a per-member loop report the same points.
    if not tracer.inside("function_class.eval"):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tracer.counts["function_class.eval_calls_n"] += 1
        tracer.counts["function_class.eval_points_n"] += len(x)


def _count_class_eval(tracer, args, kwargs):
    # FunctionClass.values_on(self, design): every member at every point.
    if not tracer.inside("function_class.eval"):
        cls, design = args[0], (args[1] if len(args) > 1 else kwargs["design"])
        tracer.counts["function_class.eval_calls_n"] += 1
        tracer.counts["function_class.eval_points_n"] += len(cls) * design.n


def _count_patterns(tracer, args, kwargs):
    # norm_rademacher_values(values, mode="exact", ...): 2^n sign patterns.
    values = args[0] if args else kwargs["values"]
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
    if mode == "exact":
        tracer.counts["rademacher.patterns_n"] += 1 << values.shape[1]


# (module, attribute, span name or None, counter or None). Count-only
# entries add no span, so their time stays with the calling layer. Every
# norm_rademacher_values call of the workloads enumerates signs exactly.
TARGETS = (
    ("function_class", "GridFunction.from_terms", "function_class.build",
     _count("function_class.members_n")),
    ("function_class", "GridFunction.evaluate_deriv", "function_class.eval",
     _count_member_eval),
    ("function_class", "FunctionClass.values_on", "function_class.eval",
     _count_class_eval),
    ("covering", "greedy_cover", "covering.greedy", _count("covering.greedy_n")),
    ("regression", "greedy_cover_from", "covering.greedy",
     _count("covering.greedy_n")),
    ("covering", "PointCloud.distances_to", None,
     _count("covering.distance_rows_n")),
    ("covering", "PointCloud.distance_matrix", "covering.distance_matrix", None),
    ("covering", "exact_cover_number", "covering.exact", _count("covering.exact_n")),
    ("covering", "build_smooth_cover", "covering.smooth_cover", None),
    ("covering", "verify_cover_validity", "covering.verify", None),
    ("dimension", "box_dimension_estimate", "dimension.box", None),
    ("dimension", "homogeneity_check", "dimension.homogeneity", None),
    ("entropy_bounds", "lipschitz_contraction_check",
     "entropy_bounds.contraction", None),
    ("empirical_process", "build_chaining_plan", "empirical_process.chain_plan",
     None),
    ("empirical_process", "symmetrization_check", "empirical_process.symmetrize",
     None),
    ("empirical_process", "gc_decay_curve", "empirical_process.gc", None),
    ("empirical_process", "true_means", "empirical_process.true_means", None),
    ("empirical_process", "chaining_tail_check", "empirical_process.chain_tail",
     None),
    ("concentration", "hoeffding_hilbert_check", "concentration.hoeffding", None),
    ("concentration", "cosh_moment_check", "concentration.cosh", None),
    ("concentration", "sample_gaussian_batch", "concentration.gaussian_draw",
     None),
    ("rademacher", "norm_rademacher_values", "rademacher.exact",
     _count_patterns),
    ("regression", "default_rate_pool", "regression.rate_pool", None),
    ("regression", "population_risks", "regression.population_risks", None),
    ("regression", "erm_lipschitz_experiment", "regression.erm", None),
    ("regression", "gaussian_chaining_check", "regression.gaussian_chain", None),
    ("rng", "map_blocks", "rng.map_blocks", None),
    ("rng", "substream", None, _count("rng.substreams_n")),
)


def _wrap(tracer, fn, span, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer, args, kwargs)
        if span is None:
            return fn(*args, **kwargs)
        index = tracer.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _wrap_map_blocks(tracer, fn):
    """map_blocks(fn, reps, ...) with every block call counted."""
    @functools.wraps(fn)
    def wrapper(kernel, *args, **kwargs):
        def counted(index, size):
            tracer.counts["rng.blocks_n"] += 1
            tracer.counts["rng.reps_n"] += size
            return kernel(index, size)

        span = tracer.open("rng.map_blocks")
        try:
            return fn(counted, *args, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the targets this vecproc does not have.

    Call after the package's modules are imported. A missing target (a
    later refactor may rename it) is skipped and reported, and its metrics
    stay at zero.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "vecproc"
                                     or name.startswith("vecproc."))]
    missing = []
    for module_name, attr, span, counter in TARGETS:
        module = sys.modules.get(f"vecproc.{module_name}")
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or leaf not in vars(owner):
            missing.append(f"{module_name}.{attr}")
            continue
        original = inspect.getattr_static(owner, leaf)
        if attr == "map_blocks":
            replacement = _wrap_map_blocks(tracer, original)
        elif isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                _wrap(tracer, original.__func__, span, counter))
        else:
            replacement = _wrap(tracer, original, span, counter)
        if owner is not module:
            setattr(owner, leaf, replacement)
            continue
        # module-level function: replace it everywhere it was imported
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, replacement)
    return missing
