"""Package-level contracts: CLI exit codes, the selfcheck suite, and exports."""

import ast
import importlib
import io
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import randenc
from randenc import selfcheck
from randenc.cli import main
from randenc.encoders import ENCODER_KINDS
from randenc.probe import ProbeConfig, SplitPlan
from randenc.runner import RESULTS_HEADER, ExperimentConfig
from randenc.tasks import load_task, make_synthetic_order_task, write_task_files

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


def test_imports_only_numpy_and_the_standard_library():
    # numpy stays the only runtime dependency
    allowed = {"numpy", "randenc", *sys.stdlib_module_names}
    package = os.path.join(ROOT, "src", "randenc")
    outside = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{name}:{node.lineno}: {module}" for module in modules
                        if module.partition(".")[0] not in allowed]
    assert outside == []


def test_kind_names_only_in_the_kind_table():
    # one place knows the encoder kinds: code elsewhere asks the kind table,
    # so no string in it names a kind or lists kinds; encoders.py and
    # trees.py are exempt, as each params class there names its own kind
    package = os.path.join(ROOT, "src", "randenc")
    paths = [os.path.join(package, name) for name in sorted(os.listdir(package))
             if name.endswith(".py") and name not in ("encoders.py", "trees.py")]
    paths += [os.path.join(SCRIPTS, name) for name in sorted(os.listdir(SCRIPTS))
              if name.endswith(".py")]
    named = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        named += [
            f"{os.path.basename(path)}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and all(part.strip() in ENCODER_KINDS for part in node.value.split(","))
        ]
    assert named == []


def test_small_vector_load_imports_no_process_pool(tmp_path):
    # only a file big enough to be cut into ranges starts worker processes;
    # importing the pool on every load would add its memory to every run
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("the 1 0\ncat 0 1\n", encoding="utf-8")
    code = (
        "import sys\n"
        "import randenc, randenc.cli, randenc.runner\n"
        "from randenc.embeddings import load_embeddings\n"
        f"assert len(load_embeddings({str(vectors)!r})) == 2\n"
        "print([m for m in sys.modules\n"
        "       if m.startswith(('multiprocessing', 'concurrent.futures'))])\n"
    )
    path = [os.path.join(ROOT, "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


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


def test_readme_config_names_every_key():
    lines = readme_block("embeddings=").splitlines()
    missing = [key for key in sorted(randenc.runner._CONFIG_KEYS)
               if not any(line.startswith(f"{key}=") for line in lines)]
    assert missing == []


def test_perfbench_tracer_installs(monkeypatch, tmp_path):
    # perfbench/tracing.py wraps library functions by name; a rename fails here
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    original = randenc.probe.loss_and_grad
    manifest = write_task_files(make_synthetic_order_task(10), str(tmp_path / "order"))
    with tracing.Tracer() as tracer:
        assert randenc.probe.loss_and_grad is not original
        # the tracer reads spectral_radius's result; a change to its return
        # type must fail here, not in a traced benchmark run
        randenc.encoders.build_encoder("esn", 1, 4, 16, sparsity=0.5)
        # the parses are read through the name the tracer wraps on tasks
        load_task(manifest)
        # the tracer counts flops from loss_and_grad's params, x and kind
        # (args 0, 1 and 4), through the names the runner probes by
        x = np.vstack([np.eye(3), -np.eye(3)]).repeat(4, axis=0)
        y = np.arange(24) // 12
        config = ProbeConfig(max_epochs=20)
        plan = SplitPlan(kind="tv", train=tuple(range(0, 24, 2)), dev=tuple(range(1, 24, 4)),
                         test=tuple(range(3, 24, 4)))
        randenc.runner.train_probe(x, y, plan, config)
        randenc.runner.kfold_accuracy(x, y, 3, config)
    assert randenc.probe.loss_and_grad is original
    assert "numerics.spectral_radius" in tracer.totals()
    assert "trees.read_tree_file" in tracer.totals()
    assert tracer.counts["numerics.power_iterations"] == 0
    totals = tracer.totals()
    assert {"probe.train_probe", "probe.kfold_accuracy", "probe.loss_and_grad"} <= set(totals)
    assert tracer.metrics()["probe.flop_computed"] > 0
