"""Output check: reads what a sweep wrote and counts the tuples that fail.

A tuple fails when
  - it is listed in errors.csv, is missing from results.csv, or has a
    non-finite accuracy;
  - its accuracy is off the reference by more than the tolerance, where
    reference.json records the accuracy of every tuple for the seeds it
    lists; for any other seed the check uses the band [min - margin,
    max + margin] of the recorded seeds' accuracies for that tuple;
  - its encoder's mean accuracy over the sweep seeds is below the floor,
    for workloads that set one (desk_grid: acceptance criterion 7's 0.55);
  - its results.csv row differs from the first repetition's, since with
    timing=off a rerun of the same sweep must write the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def tuple_key(encoder: str, dim, pooling: str, seed) -> str:
    return f"{encoder}|{dim}|{pooling}|{seed}"


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def read_results(out_dir: str) -> dict[str, str]:
    """results.csv as tuple key -> the row's cells joined by commas."""
    rows = {}
    with open(os.path.join(out_dir, "results.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["task", "encoder", "dim", "pooling", "seed", "accuracy", "wall_ms"]:
            raise ValueError(f"unexpected results.csv header {header}")
        for row in reader:
            rows[tuple_key(*row[1:5])] = ",".join(row)
    return rows


def read_errors(out_dir: str) -> set[str]:
    path = os.path.join(out_dir, "errors.csv")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return {tuple_key(*row[1:5]) for row in reader}


def accuracy_of(row: str) -> float:
    return float(row.rsplit(",", 2)[1])


def floor_failures(accuracy: dict[str, float], floor: float) -> dict[str, str]:
    """Every tuple of each encoder whose mean accuracy is below floor."""
    by_encoder: dict[str, list[str]] = {}
    for key in accuracy:
        by_encoder.setdefault(key.split("|", 1)[0], []).append(key)
    failed = {}
    for encoder, keys in by_encoder.items():
        mean = sum(accuracy[k] for k in keys) / len(keys)
        if mean < floor:
            for key in keys:
                failed[key] = f"{encoder} mean accuracy {mean:.3f} below floor {floor}"
    return failed


class OutputCheck:
    """Checks every repetition of one workload at one input seed."""

    def __init__(self, expected_keys, seed: int, reference: dict | None,
                 floor: float | None = None):
        """reference is the workload's entry in reference.json (tolerance,
        band_margin and the accuracies per recorded seed), or None."""
        self.expected = list(expected_keys)
        self.floor = floor
        self.first_rows: dict[str, str] | None = None
        self.tolerance = 0.0
        self.target: dict[str, float] = {}
        self.band: dict[str, tuple[float, float]] = {}
        if reference:
            self.tolerance = reference["tolerance"]
            recorded = reference["seeds"]
            if str(seed) in recorded:
                self.target = recorded[str(seed)]
            else:
                margin = reference["band_margin"]
                for key in self.expected:
                    values = [r[key] for r in recorded.values() if key in r]
                    if values:
                        self.band[key] = (min(values) - margin, max(values) + margin)

    def check(self, out_dir: str) -> tuple[dict[str, float], dict[str, str]]:
        """Returns (accuracy per passing tuple, reason per failing tuple)."""
        try:
            rows = read_results(out_dir)
        except (OSError, ValueError, IndexError) as exc:
            return {}, {key: f"results.csv unreadable: {exc}" for key in self.expected}
        errored = read_errors(out_dir)
        failed: dict[str, str] = {}
        accuracy: dict[str, float] = {}
        for key in self.expected:
            row = rows.get(key)
            if key in errored:
                failed[key] = "listed in errors.csv"
                continue
            if row is None:
                failed[key] = "missing from results.csv"
                continue
            try:
                acc = accuracy_of(row)
            except (ValueError, IndexError):
                failed[key] = f"unparseable row {row!r}"
                continue
            if not math.isfinite(acc):
                failed[key] = "non-finite accuracy"
            elif key in self.target and abs(acc - self.target[key]) > self.tolerance:
                failed[key] = f"accuracy {acc} vs reference {self.target[key]}"
            elif key in self.band and not self.band[key][0] <= acc <= self.band[key][1]:
                failed[key] = f"accuracy {acc} outside band {self.band[key]}"
            elif self.first_rows is not None and self.first_rows.get(key) != row:
                failed[key] = "row differs from the first repetition"
            else:
                accuracy[key] = acc
        if len(rows) != len(self.expected):
            for key in set(rows) - set(self.expected):
                failed[key] = "unexpected row"
        if self.floor is not None:
            low = floor_failures(accuracy, self.floor)
            failed.update(low)
            for key in low:
                del accuracy[key]
        if self.first_rows is None:
            self.first_rows = rows
        return accuracy, failed
