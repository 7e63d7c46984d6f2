import numpy as np
import pytest

from randenc.embeddings import TokenSequence, WordEmbeddingTable


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)


@pytest.fixture
def tiny_table():
    rng = np.random.default_rng(99)
    words = ["the", "cat", "sat", "down", "fast", "dog", "ran", "*"]
    return WordEmbeddingTable(
        dim=6, vectors={w: rng.normal(size=6) for w in words}, duplicates=0
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
