"""Smoke test of the benchmark at toy size (about a minute on 2 cores).

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, and that the output check catches a corrupted results file,
an errors.csv, a result off the reference and an encoder below the floor.
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
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result, stdout = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert f"{metric['name']} = " in stdout and f" {metric['unit']}\n" in stdout
    assert "failed_frac = 0 fraction" in stdout
    assert '"blas_threads"' in stdout


@pytest.fixture()
def toy_sweep(tmp_path):
    """One toy desk_grid sweep on generated inputs; returns its check and output dir."""
    from randenc.runner import run_experiment

    workload = WORKLOADS["desk_grid"].toy()
    record = workload.generate(str(tmp_path / "in"), 3)
    out_dir = str(tmp_path / "out")
    run_experiment(workload.config(record, out_dir))
    accuracy, failed = check.OutputCheck(workload.tuple_keys(), 3, None).check(out_dir)
    assert not failed and len(accuracy) == len(workload.tuple_keys())
    return workload, accuracy, out_dir


def rewrite_accuracy(out_dir: str, encoder: str, value: str) -> None:
    path = os.path.join(out_dir, "results.csv")
    lines = open(path, encoding="utf-8").read().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[1] == encoder:
            cells[5] = value
            lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_corrupted_results_trip_the_check(toy_sweep):
    workload, accuracy, out_dir = toy_sweep
    rerun = check.OutputCheck(workload.tuple_keys(), 3, None)
    rerun.check(out_dir)
    rewrite_accuracy(out_dir, "esn", "0.123")
    _, failed = rerun.check(out_dir)
    assert list(failed) == [k for k in workload.tuple_keys() if k.startswith("esn|")]

    reference = {"tolerance": 0.01, "band_margin": 0.1, "seeds": {"3": accuracy}}
    _, failed = check.OutputCheck(workload.tuple_keys(), 3, reference).check(out_dir)
    assert "vs reference" in failed["esn|64|max|1"]
    _, failed = check.OutputCheck(workload.tuple_keys(), 4, reference).check(out_dir)
    assert "outside band" in failed["esn|64|max|1"]

    rewrite_accuracy(out_dir, "esn", "0.5")
    _, failed = check.OutputCheck(workload.tuple_keys(), 3, None, floor=0.55).check(out_dir)
    assert "below floor" in failed["esn|64|max|1"]

    shutil.copy(os.path.join(out_dir, "results.csv"), os.path.join(out_dir, "errors.csv"))
    _, failed = check.OutputCheck(workload.tuple_keys(), 3, None).check(out_dir)
    assert len(failed) == len(workload.tuple_keys())

    os.remove(os.path.join(out_dir, "results.csv"))
    _, failed = check.OutputCheck(workload.tuple_keys(), 3, None).check(out_dir)
    assert len(failed) == len(workload.tuple_keys())
