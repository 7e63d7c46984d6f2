import dataclasses

import numpy as np
import pytest

from randenc import encoders as enc
from randenc.checkpoint import CheckpointError, load_encoder, save_encoder
from randenc.encoders import encode
from randenc.trees import build_tree_lstm, right_branching_parse

from conftest import make_seq

ALL_BUILDS = [
    ("borep", {}),
    ("rand_lstm", {}),
    ("esn", {"sparsity": 0.5}),
    ("cnn", {"window": 3}),
    ("self_attention", {"heads": 2, "n_layers": 2}),
    ("tree_lstm", {"node_domain": "all"}),
]


def _arrays_of(obj, prefix=""):
    out = {}
    for field in dataclasses.fields(obj):
        v = getattr(obj, field.name)
        key = prefix + field.name
        if isinstance(v, np.ndarray):
            out[key] = v
        elif dataclasses.is_dataclass(v) and not isinstance(v, type):
            out.update(_arrays_of(v, key + "."))
        elif isinstance(v, tuple) and v and dataclasses.is_dataclass(v[0]):
            for i, item in enumerate(v):
                out.update(_arrays_of(item, f"{key}.{i}."))
    return out


@pytest.mark.parametrize("kind,hyper", ALL_BUILDS)
def test_roundtrip_bit_exact_all_kinds(kind, hyper, tmp_path):
    params = enc.build_encoder(kind, 123, 6, 16, **hyper)
    path = str(tmp_path / f"{kind}.npz")
    save_encoder(path, params)
    loaded = load_encoder(path)
    assert loaded.kind == kind
    assert loaded.seed == 123
    before = _arrays_of(params)
    after = _arrays_of(loaded)
    assert before.keys() == after.keys()
    for key in before:
        assert np.array_equal(before[key], after[key]), key
        assert after[key].dtype == np.float64


def test_roundtrip_reproduces_outputs(tmp_path, nprng):
    seq = make_seq(nprng, 5, 6)
    for kind, hyper in ALL_BUILDS:
        params = enc.build_encoder(kind, 9, 6, 16, **hyper)
        path = str(tmp_path / f"{kind}.npz")
        save_encoder(path, params)
        loaded = load_encoder(path)
        tree = right_branching_parse(seq.tokens) if kind == "tree_lstm" else None
        assert np.array_equal(
            encode(params, seq, tree=tree), encode(loaded, seq, tree=tree)
        )


def test_scalar_hyperparameters_survive(tmp_path):
    params = enc.build_encoder("esn", 4, 6, 16, rho=0.8, sparsity=0.5, leak=0.7)
    path = str(tmp_path / "esn.npz")
    save_encoder(path, params)
    loaded = load_encoder(path)
    assert loaded.rho == 0.8
    assert loaded.sparsity == 0.5
    assert loaded.leak == 0.7


def test_tree_lstm_node_domain_survives(tmp_path):
    params = build_tree_lstm(2, 4, 8, node_domain="leaves")
    path = str(tmp_path / "t.npz")
    save_encoder(path, params)
    assert load_encoder(path).node_domain == "leaves"


def test_rejects_non_checkpoint_npz(tmp_path):
    path = str(tmp_path / "junk.npz")
    np.savez(path, a=np.zeros(3))
    with pytest.raises(CheckpointError):
        load_encoder(path)


def test_rejects_garbage_file(tmp_path):
    path = str(tmp_path / "garbage.npz")
    with open(path, "wb") as fh:
        fh.write(b"not an npz at all")
    with pytest.raises(CheckpointError):
        load_encoder(path)


def test_rejects_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_encoder(str(tmp_path / "absent.npz"))


def test_loaded_params_frozen(tmp_path):
    params = enc.build_encoder("borep", 1, 4, 8)
    path = str(tmp_path / "b.npz")
    save_encoder(path, params)
    loaded = load_encoder(path)
    with pytest.raises(ValueError):
        loaded.w_proj[0, 0] = 1.0
