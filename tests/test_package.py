"""Package-level contracts: CLI exit codes, the selfcheck suite, and exports."""

import importlib
import io
import pkgutil

import pytest

import randenc
from randenc import selfcheck
from randenc.cli import main
from randenc.encoders import ENCODER_KINDS


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
