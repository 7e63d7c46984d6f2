"""Package-level contracts: CLI exit codes, the selfcheck suite, and exports."""

import importlib
import io
import os
import pkgutil
import subprocess
import sys

import pytest

import randenc
from randenc import selfcheck
from randenc.cli import main
from randenc.encoders import ENCODER_KINDS
from randenc.runner import RESULTS_HEADER, ExperimentConfig
from randenc.tasks import load_task

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPTS = os.path.join(ROOT, "scripts")


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_cli_encode_bad_hyper_exits_2(kind, tmp_path, capsys):
    (tmp_path / "vectors.txt").write_text("the 1 0\ncat 0 1\n", encoding="utf-8")
    (tmp_path / "input.txt").write_text("the cat\n", encoding="utf-8")
    (tmp_path / "trees.txt").write_text("(S (DT the) (NN cat))\n", encoding="utf-8")
    code = main([
        "encode", "--encoder", f"{kind}(bogus=1)", "--dim", "4", "--seed", "1",
        "--pooling", "max", "--embeddings", str(tmp_path / "vectors.txt"),
        "--input", str(tmp_path / "input.txt"), "--trees", str(tmp_path / "trees.txt"),
        "--output", str(tmp_path / "out.txt"),
    ])
    assert code == 2
    assert "bad hyperparameters" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_selfcheck_passes():
    out = io.StringIO()
    assert selfcheck.run_all(out) == 0
    lines = out.getvalue().splitlines()
    assert lines == [f"PASS {name}" for name, _fn in selfcheck.CHECKS]


MODULES = ["randenc"] + [
    f"randenc.{info.name}" for info in pkgutil.iter_modules(randenc.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_desk_sweep_quick_start_runs(tmp_path):
    # the README quick start, shrunk to about a second
    work = tmp_path / "desk"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "desk_sweep.py"), "--n", "40", "--dims", "8",
         "--seeds", "1", "--encoders", "borep,tree_lstm", "--work", str(work)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header = (work / "out" / "results.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == RESULTS_HEADER


def readme_block(first_line: str) -> str:
    """The fenced README.md block whose first line starts with first_line."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = fh.read().split("```\n")[1::2]
    [block] = [b for b in blocks if b.startswith(first_line)]
    return block


def test_readme_samples_load(tmp_path):
    config_path = tmp_path / "sweep.config"
    config_path.write_text(readme_block("embeddings="), encoding="utf-8")
    config = ExperimentConfig.from_file(str(config_path))
    assert config.probe.kind == "logreg"
    assert config.timing and not config.clean and config.oov == "drop"
    assert len(config.encoders) == len(ENCODER_KINDS)

    manifest = tmp_path / "task.manifest"
    manifest.write_text(readme_block("name="), encoding="utf-8")
    for split, label in (("train", "0"), ("train", "1"), ("dev", "0"), ("test", "1")):
        with open(tmp_path / f"{split}.tsv", "a", encoding="utf-8") as fh:
            fh.write(f"{label}\tthe cat sat\n")
    (tmp_path / "trees.txt").write_text("(S (DT the) (NN cat) (VB sat))\n" * 4,
                                        encoding="utf-8")
    task = load_task(str(manifest))
    assert (task.name, task.kind, task.n_examples) == ("order", "single", 4)
    assert task.plan.kind == "tv" and len(task.trees) == 4


def test_perfbench_tracer_installs(monkeypatch):
    # perfbench/tracing.py wraps library functions by name; a rename fails here
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    original = randenc.probe.loss_and_grad
    with tracing.Tracer() as tracer:
        assert randenc.probe.loss_and_grad is not original
        # the tracer reads spectral_radius's result; a change to its return
        # type must fail here, not in a traced benchmark run
        randenc.encoders.build_encoder("esn", 1, 4, 16, sparsity=0.5)
    assert randenc.probe.loss_and_grad is original
    assert "numerics.spectral_radius" in tracer.totals()
    assert tracer.counts["numerics.power_iterations"] == 0
