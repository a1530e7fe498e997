"""Report containers, CSV/JSON emission, the verdict rule and the tail check.

One converter, `jsonable`, feeds both writers. A CSV body is a list of row
dicts whose keys are the header, so a CSV row is the JSON row it came from.
CSV files are RFC-4180 with a header row, LF line endings and UTF-8; floats
are written with 17 significant digits so re-parsing round-trips exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import BLOCK_SIZE, map_blocks


def fmt(value) -> str:
    """One CSV cell of a `jsonable` value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def jsonable(obj):
    """JSON-ready form: to_json() where the class defines one, otherwise the
    dataclass fields; numpy arrays and scalars become Python lists and
    numbers."""
    to_json = getattr(obj, "to_json", None)
    if callable(to_json):
        return jsonable(to_json())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return fields_json(obj)
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def _standard(tree):
    """A jsonable tree with every non-finite float as the string "inf",
    "-inf" or "nan", its CSV cell: JSON has no such number. In-memory
    reports keep their floats."""
    if isinstance(tree, float) and not math.isfinite(tree):
        return fmt(tree)
    if isinstance(tree, dict):
        return {k: _standard(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_standard(v) for v in tree]
    return tree


def fields_json(obj) -> dict:
    """A dataclass's fields, JSON-ready, in declaration order; a field's
    "json" metadata entry, where it has one, renames its key."""
    return {f.metadata.get("json", f.name): jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)}


def write_csv(path, rows) -> None:
    """Rows (dicts, or objects `jsonable` turns into dicts) under the first
    row's keys as header; every row must carry exactly those keys."""
    rows = jsonable(rows)
    if not rows:
        raise ValueError("a CSV body needs at least one row")
    header = list(rows[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if list(row) != header:
                raise ValueError("CSV rows disagree on their keys")
            writer.writerow([fmt(v) for v in row.values()])


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_standard(jsonable(obj)), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


MC_SES = 3.0    # standard errors of slack in a Monte-Carlo check


def passes(value, bound, slack=0.0):
    """value <= bound + slack elementwise, false where either is not finite."""
    ok = np.isfinite(value) & np.isfinite(bound) & (value <= bound + slack)
    return ok if ok.ndim else bool(ok)


@dataclass(frozen=True)
class TailReport:
    """Empirical exceedance frequencies against a theoretical tail bound,
    with MC_SES binomial standard errors of slack."""

    thresholds: np.ndarray
    freqs: np.ndarray
    ses: np.ndarray
    bounds: np.ndarray
    reps: int
    seed: int
    label: str = field(default="t")

    @property
    def ok(self) -> np.ndarray:
        return passes(self.freqs, self.bounds, MC_SES * self.ses)

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.ok))

    def rows(self):
        return [{"threshold": float(t), "freq": float(f), "se": float(s),
                 "bound": float(b), "ok": bool(o)}
                for t, f, s, b, o in zip(self.thresholds, self.freqs,
                                         self.ses, self.bounds, self.ok)]

    def to_json(self):
        return {"label": self.label, "reps": self.reps, "seed": self.seed,
                "all_ok": self.all_ok, "rows": self.rows()}


def tail_check(stat, levels, rows, bounds, reps: int, threads: int, seed: int,
               *path: int, label: str = "t",
               block: int = BLOCK_SIZE) -> TailReport:
    """Row j: rows[j], the frequency of stat >= levels[j] and bounds[j].

    stat(rng, size) gives `size` replicates of the statistic from a block's
    generator; map_blocks(..., seed, *path, block=block) hands each block
    of at most `block` replicates its own. A NaN replicate makes every
    frequency NaN, which fails every row.
    """
    levels = np.asarray(levels, float)

    def count(rng, size):
        s = stat(rng, size)[:, None]
        return np.where(np.isnan(s).any(), np.nan, (s >= levels).sum(axis=0))

    counts = np.sum(map_blocks(count, reps, threads, seed, *path, block=block),
                    axis=0)
    freqs = counts / reps
    ses = np.sqrt(freqs * (1.0 - freqs) / reps)
    return TailReport(thresholds=np.asarray(rows, float), freqs=freqs,
                      ses=ses, bounds=np.asarray(bounds, float), reps=reps,
                      seed=seed, label=label)
