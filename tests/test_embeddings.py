import contextlib
import multiprocessing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randenc import cli, embeddings
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
from randenc.encoders import ConfigError
from randenc.runner import ExperimentConfig
from randenc.tasks import TaskFormatError, load_manifest, load_task
from randenc.trees import TreeParseError, read_tree_file


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


def test_duplicates_first_wins(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\na 9.0 9.0\nb 0.5 0.5\n")
    table = load_embeddings(str(p))
    assert np.array_equal(table.lookup("a"), [1.0, 2.0])


def test_roundtrip_10k_synthetic(tmp_path):
    rng = np.random.default_rng(5)
    vectors = {f"word_{i}": rng.normal(size=8) for i in range(10_000)}
    table = WordEmbeddingTable(dim=8, vectors=vectors)
    p = tmp_path / "big.txt"
    write_embeddings(table, str(p))
    loaded = load_embeddings(str(p))
    assert np.array_equal(loaded.lookup("word_7777"), vectors["word_7777"])
    # spot-check bit-exactness across the table
    for w in ("word_0", "word_123", "word_9999"):
        assert np.array_equal(loaded.lookup(w), vectors[w])


# ---------------------------------------------------------------------------
# block loader against a per-line reference
# ---------------------------------------------------------------------------


def reference_load(path) -> WordEmbeddingTable:
    """The loader's rules applied one line at a time with float(): the
    specification the block loader must match bit for bit."""
    vectors, dim, first_non_finite = {}, None, None
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) < 2:
                raise EmbeddingFormatError(
                    "expected a token and at least one value", line_no, path
                )
            word, values = fields[0], fields[1:]
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise EmbeddingFormatError(
                    f"expected {dim} values, found {len(values)}", line_no, path
                )
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingFormatError(f"unparseable value ({exc})", line_no, path) from None
            if first_non_finite is None and not np.isfinite(vec).all():
                first_non_finite = line_no
            if word not in vectors:
                vectors[word] = vec
    if dim is None:
        raise EmbeddingFormatError(f"no embeddings found in {path}")
    if first_non_finite is not None:
        raise EmbeddingFormatError("non-finite value (nan or inf)", first_non_finite, path)
    return WordEmbeddingTable(dim=dim, vectors=vectors)


def load_outcome(load, path, keep=lambda word: True):
    """What a load did: its error and line, or the table with the vectors of
    the words keep() accepts as exact bytes."""
    try:
        table = load(path)
    except EmbeddingFormatError as exc:
        return "error", str(exc), exc.line_no
    kept = [(w, v.dtype.str, v.shape, v.tobytes()) for w, v in table.vectors.items() if keep(w)]
    return "table", table.dim, kept


def assert_loads_like_reference(path, vocab):
    assert load_outcome(load_embeddings, path) == load_outcome(reference_load, path)
    assert load_outcome(lambda p: load_embeddings(p, vocab), path) == load_outcome(
        reference_load, path, keep=lambda word: word in vocab
    )


WORDS = ("u0", "u1", "u2", "x0", "x1", "x2", "é")
# separators str.split() takes: tab, no-break, ideographic and other Unicode spaces
SEPARATORS = (" ", " ", "  ", "\t", "\xa0", "\u3000", "\u2009", "\x0c", "\x1c", "\x85")
# values float() accepts, including forms numpy's parser rejects (1_0, non-ASCII digits)
GOOD_VALUES = ("1_0", "１２", "٣.٥", "-0.0", "+2", ".5", "4.", "1e-3", "1.5e308", "-7.123456")
BAD_VALUES = ("oops", "1..2", "0x1p3", "1__0", "--1", "nan(1)")
NON_FINITE = ("nan", "NaN", "inf", "-inf", "Infinity", "1e999")
LINE_KINDS = ("good",) * 6 + (
    "count", "unparseable", "non_finite", "blank", "spaces", "token_only",
)


@st.composite
def vector_files(draw):
    """A GloVe-style file mostly of good lines over seven words, so
    duplicates are common; the malformed lines fall anywhere, before,
    between or after the used words and on either side of a block boundary."""
    dim = draw(st.integers(1, 3))
    value = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(GOOD_VALUES),
    )
    lines = []
    for kind in draw(st.lists(st.sampled_from(LINE_KINDS), max_size=14)):
        word = draw(st.sampled_from(WORDS))
        sep = st.sampled_from(SEPARATORS)
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(sep) * draw(st.integers(1, 3)))
            continue
        if kind == "token_only":
            lines.append(word + draw(st.sampled_from(("", " ", "\t"))))
            continue
        n = dim
        if kind == "count":
            n += 1 if dim == 1 else draw(st.sampled_from((-1, 1)))
        values = [draw(value) for _ in range(n)]
        if kind in ("unparseable", "non_finite"):
            pool = BAD_VALUES if kind == "unparseable" else NON_FINITE
            values[draw(st.integers(0, n - 1))] = draw(st.sampled_from(pool))
        line = word + "".join(draw(sep) + v for v in values)
        if draw(st.booleans()):
            line = draw(sep) + line + draw(sep)
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=300, deadline=None)
@given(
    text=vector_files(),
    block_lines=st.sampled_from((1, 2, 3, 4)),
    vocab=st.sets(st.sampled_from(WORDS + ("absent",)), max_size=4),
)
def test_block_loader_matches_per_line_reference(tmp_path_factory, text, block_lines, vocab):
    path = tmp_path_factory.mktemp("vectors") / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(embeddings, "_BLOCK_LINES", block_lines):
        assert_loads_like_reference(str(path), vocab)


@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
@pytest.mark.parametrize("bad", ["a 1.0", "a 1.0 oops", "a 1.0 inf", "a", "a 1_0 2.0", ""])
def test_block_boundary_at_full_block_size(tmp_path, offset, bad):
    # a full first block, then the odd line just before, at or after the boundary
    n = embeddings._BLOCK_LINES + 3
    lines = [f"w{i} {i}.5 -{i}.25" for i in range(n)]
    lines[embeddings._BLOCK_LINES - 1 + offset] = bad
    p = tmp_path / "vec.txt"
    p.write_text("\n".join(lines) + "\n")
    assert_loads_like_reference(str(p), {"w0", "a", f"w{n - 1}"})


@contextlib.contextmanager
def split_into(n_ranges):
    """Make load_embeddings cut every file of n_ranges bytes or more into
    n_ranges byte ranges, parsed by this process and n_ranges - 1 workers."""
    with mock.patch.object(embeddings, "_RANGE_BYTES", 1), \
            mock.patch.object(embeddings, "_usable_cores", lambda: n_ranges):
        yield


@settings(max_examples=100, deadline=None)
@given(
    text=vector_files(),
    n_ranges=st.sampled_from((1, 2, 3, 4)),
    block_lines=st.sampled_from((1, 2, 2048)),
    vocab=st.sets(st.sampled_from(WORDS + ("absent",)), max_size=4),
)
def test_ranged_loader_matches_per_line_reference(
    tmp_path_factory, text, n_ranges, block_lines, vocab
):
    path = tmp_path_factory.mktemp("vectors") / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with split_into(n_ranges), mock.patch.object(embeddings, "_BLOCK_LINES", block_lines):
        assert_loads_like_reference(str(path), vocab)


# 24 lines, so 1, 2, 3 and 4 ranges all cut the file at line boundaries:
# range r of k starts at line 24 * r // k.
RANGED_LINES = 24
RANGED_WIDTH = 20


def range_firsts(n_ranges):
    return [RANGED_LINES * r // n_ranges for r in range(n_ranges)]


# case: (fewest ranges it needs, edits(first line of each range) -> {line: text})
RANGE_CASES = {
    "valid": (1, lambda f: {}),
    "error_in_range_0": (2, lambda f: {f[1] - 1: "bad 1.0"}),
    "error_in_range_2": (3, lambda f: {f[2]: "bad 1.0 oops"}),
    "non_finite_in_1_error_in_2": (3, lambda f: {f[1]: "nf 1.0 inf", f[2]: "bad"}),
    "non_finite_in_1_and_3": (4, lambda f: {f[3]: "nf 1.0 nan", f[1] + 1: "nf 1.0 inf"}),
    "duplicate_across_boundary": (2, lambda f: {f[1] - 1: "dup 1.0 2.0", f[1]: "dup 3.0 4.0"}),
    "short_first_line_in_range_1": (2, lambda f: {f[1]: "short 1.0"}),
    "blank_range_1": (2, lambda f: {i: "" for i in range(f[1], (f + [RANGED_LINES])[2])}),
    "blank_range_0": (2, lambda f: {i: "" for i in range(f[1])}),
    "blank_range_0_short_line_after": (2, lambda f: {**{i: "" for i in range(f[1])},
                                                     f[1] + 1: "short 1.0"}),
    "all_blank": (1, lambda f: {i: "" for i in range(RANGED_LINES)}),
}


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("case, n_ranges, bom", [
    pytest.param(case, n_ranges, bom, id=f"{case}-{n_ranges}" + ("-bom" if bom else ""))
    for case, (fewest, _edits) in RANGE_CASES.items()
    for n_ranges in range(fewest, 5)
    for bom in (b"", b"\xef\xbb\xbf")
])
def test_ranged_loader_at_range_boundaries(tmp_path, case, n_ranges, newline, bom):
    edits = RANGE_CASES[case][1]
    lines = [f"w{i:02d} {i}.5 -{i}.25" for i in range(RANGED_LINES)]
    for line_no, text in edits(range_firsts(n_ranges)).items():
        lines[line_no] = text
    # every line padded to one width, so the cuts fall where range_firsts
    # says, each after the byte-order mark, if any
    path = tmp_path / "vec.txt"
    path.write_bytes(bom + "".join(line.ljust(RANGED_WIDTH) + newline for line in lines).encode())
    size = path.stat().st_size
    line_bytes = RANGED_WIDTH + len(newline)
    assert embeddings._range_starts(str(path), size, n_ranges) == [
        len(bom) + first * line_bytes if first else 0 for first in range_firsts(n_ranges)
    ]
    with split_into(n_ranges):
        assert_loads_like_reference(str(path), {"w00", "w11", "w12", "w23", "dup", "short"})
    assert multiprocessing.active_children() == []


def test_unused_words_are_checked_but_not_kept(tmp_path):
    p = tmp_path / "vec.txt"
    p.write_text("a 1.0 2.0\nb 3.0 4.0\nb 5.0 6.0\nc 1_0 ٣\n")
    table = load_embeddings(str(p), {"c", "absent"})
    assert (table.dim, list(table.vectors)) == (2, ["c"])
    assert np.array_equal(table.lookup("c"), [10.0, 3.0])
    p.write_text("a 1.0 2.0\nb 3.0 oops\nc 1.0 2.0\n")
    with pytest.raises(EmbeddingFormatError, match=":2: unparseable"):
        load_embeddings(str(p), {"c"})


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


# ---------------------------------------------------------------------------
# input files that are not UTF-8
# ---------------------------------------------------------------------------


def _read_with(reader, tmp_path, path):
    """Run one of the program's file readers on path; what it read, as a
    value that compares with ==."""
    if reader == "vectors":
        table = load_embeddings(path)
        return table.dim, [(word, row.tolist()) for word, row in table.vectors.items()]
    if reader == "manifest":
        return load_manifest(path)
    if reader == "tsv":
        for split in ("dev", "test"):
            (tmp_path / f"{split}.tsv").write_text("pos\ta b\nneg\tc d\n", encoding="utf-8")
        manifest = tmp_path / "task.manifest"
        manifest.write_text(
            "name=t\nkind=single\ntrain=bad.txt\ndev=dev.tsv\ntest=test.tsv\n", encoding="utf-8"
        )
        task = load_task(str(manifest))
        return task.texts, task.labels, task.classes
    if reader == "parses":
        return read_tree_file(path)
    if reader == "config":
        return ExperimentConfig.from_file(path)
    # randenc encode --input; with no vectors.txt, the input is checked before
    # the vectors load fails
    out = tmp_path / "out.txt"
    code = cli.main([
        "encode", "--encoder", "borep", "--dim", "4", "--seed", "0", "--pooling", "max",
        "--embeddings", str(tmp_path / "vectors.txt"), "--input", path, "--output", str(out),
    ])
    return code, out.read_bytes() if out.exists() else None


# reader: (its error class, the lines before the bad one, the bad line). The
# vectors case puts its bad byte past the first chunk text mode decodes.
NOT_UTF8 = {
    "vectors": (
        EmbeddingFormatError,
        [f"w{i} {i}.5 -{i}.25" for i in range(1200)],
        b"caf\xe9 1.0 2.0",
    ),
    "manifest": (TaskFormatError, ["name=t", "kind=single"], b"# caf\xe9"),
    "tsv": (TaskFormatError, ["pos\ta b", "neg\tc d"], b"pos\tcaf\xe9 au lait"),
    "parses": (TreeParseError, ["(S (W a) (W b))", "(S (W c) (W d))"], b"(S (W \xff) (W e))"),
    "config": (ConfigError, ["# a sweep", "embeddings=v.txt"], b"# caf\xe9 au lait"),
    "input": (None, ["a b", "c d"], b"e \xff f"),
}


@pytest.mark.parametrize("reader", list(NOT_UTF8))
def test_byte_not_utf8_names_file_and_line(tmp_path, capsys, reader):
    error, before, bad = NOT_UTF8[reader]
    path = tmp_path / "bad.txt"
    path.write_bytes("".join(line + "\n" for line in before).encode() + bad + b"\nz 1 2\n")
    line_no = len(before) + 1
    byte = next(b for b in bad if b >= 0x80)
    message = f"{path}:{line_no}: byte 0x{byte:02x} is not UTF-8"
    if error is None:
        assert _read_with(reader, tmp_path, str(path)) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(error) as err:
        _read_with(reader, tmp_path, str(path))
    assert str(err.value).startswith(message)
    if reader == "vectors":
        assert err.value.line_no == line_no
    if reader == "parses":
        assert err.value.offset == bad.index(byte)


# reader: (its error class, the lines before a malformed line, that line and
# the reason given for it)
MALFORMED = {
    "vectors": (EmbeddingFormatError, ["a 1 2"], "b 1 2 3", "expected 2 values, found 3"),
    "manifest": (TaskFormatError, ["name=t"], "kind", "expected key=value"),
    "tsv": (TaskFormatError, ["pos\ta b"], "pos", "expected 2 tab-separated fields"),
    "parses": (TreeParseError, ["(S (W a) (W b))"], "(S (W a)", "unclosed '('"),
    "config": (ConfigError, ["# a sweep"], "tasks", "expected key=value"),
    "input": (None, ["a b"], " ", "empty line"),
}


@pytest.mark.parametrize("reader", list(MALFORMED))
def test_malformed_line_before_byte_not_utf8_wins(tmp_path, capsys, reader):
    # text mode decodes the whole small file at once, before any line is read
    error, before, malformed, reason = MALFORMED[reader]
    path = tmp_path / "bad.txt"
    path.write_bytes("".join(line + "\n" for line in before + [malformed]).encode()
                     + b"c \xff d\n")
    message = f"{path}:{len(before) + 1}: {reason}"
    if error is None:
        assert _read_with(reader, tmp_path, str(path)) == (2, None)
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(error) as err:
        _read_with(reader, tmp_path, str(path))
    assert str(err.value).startswith(message)


# reader: the lines of a file it reads without error
READABLE = {
    "vectors": ["the 1 2", "cat 3 4"],
    "manifest": ["name=t", "kind=single"],
    "tsv": ["pos\ta b", "neg\tc d"],
    "parses": ["(S (W a) (W b))"],
    "config": ["embeddings=v.txt", "tasks=t.manifest", "encoders=borep"],
    "input": ["a b", "b a"],
}


@pytest.mark.parametrize("reader", list(READABLE))
def test_byte_order_mark_is_dropped(tmp_path, reader):
    (tmp_path / "vectors.txt").write_text("a 1 0\nb 0 1\n", encoding="utf-8")
    text = "".join(line + "\n" for line in READABLE[reader])
    path = tmp_path / "bad.txt"  # the name the tsv reader's manifest gives
    path.write_text(text, encoding="utf-8")
    plain = _read_with(reader, tmp_path, str(path))
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert _read_with(reader, tmp_path, str(path)) == plain


@pytest.mark.parametrize("n_ranges", [1, 3])
def test_byte_order_mark_is_dropped_only_at_byte_0(tmp_path, n_ranges):
    path = tmp_path / "vec.txt"
    path.write_text("\ufeffthe 1 2\n\ufeffcat 3 4\n\ufeffsat 5 6\n", encoding="utf-8")
    with split_into(n_ranges):
        table = load_embeddings(str(path))
    assert list(table.vectors) == ["the", "\ufeffcat", "\ufeffsat"]


@pytest.mark.parametrize("reader", ["manifest", "config"])
def test_lines_before_a_late_bad_byte_are_read_once(tmp_path, reader):
    # the bad byte is past the first chunk text mode decodes, so the lines of
    # that chunk are read before the decode error; reading one twice would
    # report a duplicate key
    error = ConfigError if reader == "config" else TaskFormatError
    key = "embeddings=v.txt" if reader == "config" else "name=t"
    lines = [key] + ["# padding to push the bad byte past the first chunk"] * 400
    path = tmp_path / "bad.txt"
    path.write_bytes("".join(line + "\n" for line in lines).encode() + b"# caf\xe9\n")
    with pytest.raises(error) as err:
        _read_with(reader, tmp_path, str(path))
    assert str(err.value) == f"{path}:{len(lines) + 1}: byte 0xe9 is not UTF-8"


@pytest.mark.parametrize("byte_range", [False, True], ids=["whole_file", "byte_range"])
def test_read_lines_opens_the_file_once(tmp_path, monkeypatch, byte_range):
    # the only bad byte is on the last line, past the first chunk text mode
    # decodes, so every line before it is read before it is found
    lines = [f"w{i} {i}.5 -{i}.25\n" for i in range(1000)]
    data = "".join(lines).encode() + b"caf\xe9 1.0 2.0\n"
    path = tmp_path / "vec.txt"
    path.write_bytes(data)
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(embeddings, "open", counting_open, raising=False)
    start, end = (len(lines[0]), len(data)) if byte_range else (0, None)
    read = []
    with pytest.raises(ValueError) as err:
        for item in embeddings.read_lines(str(path), lambda *where: ValueError(*where),
                                          start, end):
            read.append(item)
    assert err.value.args == (len(lines) + 1 - byte_range, 3, "byte 0xe9 is not UTF-8")
    assert read == list(enumerate(lines[byte_range:], start=1))
    assert opened == [str(path)]


@pytest.mark.parametrize("bom", [False, True])
def test_read_lines_yields_what_text_mode_reads(tmp_path, bom):
    text = ("caf\u00e9 1\r\u65e5\u672c\u8a9e 2\r\n\U0001f600 3\u0085 4\n"
            "plain\r\r\u00e9 \u00e8\nlast \U0001f600")
    path = tmp_path / "text.txt"
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode())
    with open(path, encoding="utf-8-sig") as fh:
        expected = list(enumerate(fh, 1))
    assert len(expected) == 7
    assert list(embeddings.read_lines(str(path), lambda *where: AssertionError(where))) == expected


def test_read_lines_beside_a_reader_of_a_bad_file(tmp_path):
    # the count of escaped bytes is shared: a bad byte in one file makes a
    # reader of another search its lines, and neither reads a line wrong
    good_lines = [f"w{i} café {i}\n" for i in range(600)]
    (tmp_path / "good.txt").write_text("".join(good_lines), encoding="utf-8")
    bad_lines = [f"v{i} {i}\n" for i in range(300)]
    (tmp_path / "bad.txt").write_bytes("".join(bad_lines).encode() + b"x caf\xe9\ny 1\n")
    good = embeddings.read_lines(str(tmp_path / "good.txt"), lambda *where: ValueError(where))
    bad = embeddings.read_lines(str(tmp_path / "bad.txt"), lambda *where: ValueError(*where))
    read = []
    with pytest.raises(ValueError) as err:
        for _ in bad:
            read.append(next(good))
    assert err.value.args == (len(bad_lines) + 1, 5, "byte 0xe9 is not UTF-8")
    assert read + list(good) == list(enumerate(good_lines, start=1))


def test_read_lines_from_a_start_to_the_end_of_the_file(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_bytes(b"\xef\xbb\xbfa 1\nb 2\r\nc 3")
    lines = embeddings.read_lines(str(path), lambda *where: AssertionError(where), 7, None)
    assert list(lines) == [(1, "b 2\n"), (2, "c 3")]
