import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from randenc.embeddings import (
    EmbeddingFormatError,
    OOV_TOKEN,
    WordEmbeddingTable,
    clean_tokens,
    embed_sentence,
    load_embeddings,
    tokenize,
    write_embeddings,
)


def test_load_basic(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\nb 3.0 4.0\n")
    table = load_embeddings(str(p))
    assert table.dim == 2
    assert len(table) == 2
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])


def test_load_dim_mismatch_names_line(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\nb 3.0 4.0 5.0\n")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(str(p))
    assert err.value.line_no == 2


def test_load_unparseable_value(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\nb 3.0 oops\n")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(str(p))
    assert err.value.line_no == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_rejects_non_finite_value(tmp_path, bad):
    p = tmp_path / "vec.txt"
    p.write_text(f"a 1.0 2.0\nb 3.0 {bad}\n")
    with pytest.raises(EmbeddingFormatError, match="non-finite") as err:
        load_embeddings(str(p))
    assert err.value.line_no == 2
    assert f"{p}:2:" in str(err.value)


def test_load_accepts_finite_values_whose_sum_overflows(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.5e308 -1.5e308\nb 1.5e308 -1.5e308\n")
    table = load_embeddings(str(p))
    assert np.array_equal(table.lookup("b"), [1.5e308, -1.5e308])


def test_load_names_first_non_finite_line(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\nb 3.0 4.0\nb 1.0 inf\nc nan 1.0\n")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(str(p))
    assert err.value.line_no == 3  # a dropped duplicate still counts


def test_load_empty_file(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(str(p))


def test_load_expected_dim_enforced(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\n")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(str(p), expected_dim=5)


def test_duplicates_first_wins(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\na 9.0 9.0\nb 0.5 0.5\n")
    table = load_embeddings(str(p))
    assert table.duplicates == 1
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])


def test_roundtrip_10k_synthetic(tmp_path):
    rng = np.random.default_rng(5)
    vectors = {f"word_{i}": rng.normal(size=8) for i in range(10_000)}
    table = WordEmbeddingTable(dim=8, vectors=vectors, duplicates=0)
    p = tmp_path / "big.txt"
    write_embeddings(table, str(p))
    loaded = load_embeddings(str(p))
    assert np.array_equal(loaded.lookup("word_7777"), vectors["word_7777"])
    # spot-check bit-exactness across the table
    for w in ("word_0", "word_123", "word_9999"):
        assert np.array_equal(loaded.lookup(w), vectors[w])


def test_tokenize_lowercase_flag():
    assert tokenize("The Cat  SAT") == ["the", "cat", "sat"]
    assert tokenize("The Cat", lowercase=False) == ["The", "Cat"]


# ---------------------------------------------------------------------------
# cleanup rules
# ---------------------------------------------------------------------------


def test_clean_punctuation():
    assert clean_tokens(["hello,", "world!"]) == ["hello", "world"]


def test_clean_independent_number_kept():
    assert clean_tokens(["42"]) == ["42"]


def test_clean_mixed_and_empty():
    assert clean_tokens(["3mg", "!!!"]) == ["mg", "*"]


def test_clean_preserves_count():
    tokens = ["a,", "b", "12", "x9y", ";;"]
    assert len(clean_tokens(tokens)) == len(tokens)


def test_clean_unicode_punctuation_and_symbols():
    assert clean_tokens(["«quoted»", "price€"]) == ["quoted", "price"]


@given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=6))
def test_clean_idempotent(tokens):
    once = clean_tokens(tokens)
    assert clean_tokens(once) == once


# ---------------------------------------------------------------------------
# embed_sentence
# ---------------------------------------------------------------------------


def test_embed_in_vocab_exact_rows(tiny_table):
    seq = embed_sentence(tiny_table, ["the", "cat", "sat"])
    assert seq.tokens == ["the", "cat", "sat"]
    assert np.array_equal(seq.vectors[1], tiny_table.lookup("cat"))


def test_embed_all_oov_fallback(tiny_table):
    seq = embed_sentence(tiny_table, ["zzz", "qqq"])
    assert seq.tokens == [OOV_TOKEN]
    assert np.array_equal(seq.vectors, np.zeros((1, tiny_table.dim)))


def test_embed_mixed_oov_dropped(tiny_table):
    seq = embed_sentence(tiny_table, ["the", "zzz", "cat"])
    assert seq.tokens == ["the", "cat"]
    assert seq.vectors.shape == (2, tiny_table.dim)


def test_embed_zero_policy_keeps_alignment(tiny_table):
    seq = embed_sentence(tiny_table, ["the", "zzz", "cat"], oov="zero")
    assert seq.tokens == ["the", "zzz", "cat"]
    assert np.array_equal(seq.vectors[1], np.zeros(tiny_table.dim))


def test_embed_rejects_empty_tokens(tiny_table):
    with pytest.raises(ValueError):
        embed_sentence(tiny_table, [])


def test_embed_rejects_unknown_policy(tiny_table):
    with pytest.raises(ValueError):
        embed_sentence(tiny_table, ["the"], oov="explode")


def test_embed_never_empty(tiny_table):
    for tokens in (["zzz"], ["the"], ["qqq", "zzz", "www"]):
        assert embed_sentence(tiny_table, tokens).vectors.shape[0] >= 1
