import functools
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np
import pytest

from randenc import encoders as enc
from randenc.embeddings import TokenSequence, WordEmbeddingTable
from randenc.trees import TreeLstmParams, build_tree_lstm


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_table():
    rng = np.random.default_rng(99)
    words = ["the", "cat", "sat", "down", "fast", "dog", "ran", "*"]
    return WordEmbeddingTable(
        dim=6, vectors={w: rng.normal(size=6) for w in words}
    )


# Batched encoding changes the summation order of the recurrent, attention
# and tree products; borep and cnn make the same products as the
# per-sentence path.
BIT_EXACT_KINDS = ("borep", "cnn")
ORACLE_TOL = 1e-12


def assert_matches_oracle(kind: str, batched: np.ndarray, oracle: np.ndarray) -> None:
    if kind in BIT_EXACT_KINDS:
        assert np.array_equal(batched, oracle)
    else:
        assert np.abs(batched - oracle).max() <= ORACLE_TOL


def make_seq(rng, t_len: int, dim: int) -> TokenSequence:
    return TokenSequence([f"t{i}" for i in range(t_len)], rng.normal(size=(t_len, dim)))


@pytest.fixture
def seq_factory(nprng):
    def factory(t_len: int, dim: int) -> TokenSequence:
        return make_seq(nprng, t_len, dim)

    return factory


@dataclass(frozen=True)
class TwinTreeParams(TreeLstmParams):
    kind: ClassVar[str] = "twin_tree"


def add_twin_tree_kind(monkeypatch) -> str:
    """Register a second kind that reads parses: tree_lstm's weights and
    arithmetic under another name. Returns the kind's name."""

    @functools.wraps(build_tree_lstm)
    def build(*args, **hyper):
        drawn = build_tree_lstm(*args, **hyper)
        return TwinTreeParams(**{f.name: getattr(drawn, f.name) for f in fields(drawn)})

    entry = enc.KINDS["tree_lstm"]._replace(params=TwinTreeParams, build=build)
    monkeypatch.setitem(enc.KINDS, TwinTreeParams.kind, entry)
    monkeypatch.setattr(enc, "ENCODER_KINDS", tuple(enc.KINDS))
    return TwinTreeParams.kind
