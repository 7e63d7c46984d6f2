"""Fixed word vectors: loading, tokenization, cleanup rules, sentence assembly.

The embedding file format is GloVe-style text: one entry per line, a token
followed by D whitespace-separated decimal reals. Vectors are fixed; nothing
here is ever trained.
"""

from __future__ import annotations

import codecs
import io
import os
import re
import unicodedata
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "EmbeddingFormatError",
    "WordEmbeddingTable",
    "read_lines",
    "read_key_values",
    "TokenSequence",
    "load_embeddings",
    "write_embeddings",
    "tokenize",
    "clean_tokens",
    "embed_sentence",
]

# Token paired with the zero-vector fallback when a sentence is entirely
# out of vocabulary.
OOV_TOKEN = "<oov>"


class EmbeddingFormatError(ValueError):
    """Malformed embedding file; carries the 1-based offending line number
    and, when given, names the file as path:line."""

    def __init__(self, message: str, line_no: int | None = None, path=None):
        if line_no is not None:
            where = f"line {line_no}" if path is None else f"{path}:{line_no}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line_no = line_no


# Each byte that is not UTF-8 decodes to a lone surrogate, as under
# errors="surrogateescape", and this pattern finds one. The handler also
# counts its calls, and read_lines searches a line only once the count has
# moved since it opened its file, so a valid file costs no search. Another
# file's bad byte moves the count too: that costs searches, never a miss.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
_escapes = 0


def _escape_and_count(exc: UnicodeDecodeError):
    global _escapes
    _escapes += 1
    return codecs.lookup_error("surrogateescape")(exc)


codecs.register_error("randenc.escape", _escape_and_count)


def read_lines(path, error, start: int = 0, end: int | None = None):
    """(line number, line) for each line of a UTF-8 text file, numbered from 1.

    start and end, byte offsets each just after a newline (or 0, or the
    file's size), read only the lines between them, numbered from 1 as if
    they were a file of their own; end None reads to the end of the file. A
    byte-order mark at byte 0 of the file is dropped.

    The file is opened and decoded once. The line that holds the first byte
    that is not UTF-8 raises error(line_no, offset, reason) in place of
    being yielded: its number, the byte's offset in it and what is wrong.
    The lines before it have been yielded, so an error they raise wins.
    """
    seen = _escapes
    with _open_text(path, start, end) as fh:
        for line_no, line in enumerate(fh, start=1):
            if _escapes != seen and (bad := _ESCAPED_BYTE.search(line)):
                offset = len(line[: bad.start()].encode("utf-8"))
                byte = ord(bad.group()) - 0xDC00
                raise error(line_no, offset, f"byte 0x{byte:02x} is not UTF-8")
            yield line_no, line


def read_key_values(lines, path, keys, error, what: str):
    """The key=value lines of a settings file as ({key: value}, {key: line
    number}), from its (line number, line) pairs as read_lines yields them.

    Blank lines and lines that start with # are skipped. A line without =,
    a key not in keys and a key given twice raise error("path:line: ..."),
    naming the key as a `what` key.
    """
    entries: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise error(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in keys:
            raise error(f"{path}:{line_no}: unknown {what} key {key!r}")
        if key in entries:
            raise error(f"{path}:{line_no}: duplicate {what} key {key!r}")
        entries[key] = value.strip()
        line_of[key] = line_no
    return entries, line_of


def _open_text(path, start: int, end: int | None):
    """Bytes [start, end) of path as UTF-8 text, each byte that is not UTF-8
    escaped to a lone surrogate; only byte 0 may hold a BOM."""
    raw = open(path, "rb", buffering=0)
    raw.seek(start)
    if end is not None:
        raw = _ByteRange(raw, end - start)
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    return io.TextIOWrapper(io.BufferedReader(raw), encoding=encoding, errors="randenc.escape")


class _ByteRange(io.RawIOBase):
    """The next size bytes of an unbuffered binary file."""

    def __init__(self, raw, size: int):
        self._raw = raw
        self._left = size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


@dataclass
class WordEmbeddingTable:
    """Vocabulary -> fixed D-dimensional vectors. Immutable after load."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def lookup(self, word: str) -> np.ndarray:
        return self.vectors[word]


@dataclass
class TokenSequence:
    """A sentence as parallel token strings and D-dimensional vectors.

    Always non-empty: the out-of-vocabulary policy in embed_sentence
    guarantees at least one row.
    """

    tokens: list[str]
    vectors: np.ndarray  # T x D

    def __post_init__(self):
        if len(self.tokens) != self.vectors.shape[0]:
            raise ValueError("tokens and vectors must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


# Entry lines per np.loadtxt call: enough that the float parsing runs in C,
# few enough that one block of 300-d rows stays under 5 MB.
_BLOCK_LINES = 2048

# A file is parsed in one byte range per usable core, but no range is
# smaller than this: below it, starting a process costs more than it saves.
_RANGE_BYTES = 32 << 20


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_embeddings(path, vocab: set[str] | None = None) -> WordEmbeddingTable:
    """Read a GloVe-style text file into a WordEmbeddingTable.

    vocab, a set of words, keeps only those words' vectors (the table may
    then be empty); None keeps every word. Either way every line of the file
    is checked, so a file loads with a vocab exactly when it loads without
    one, and a kept word gets the same bits.

    Duplicate words keep their first occurrence. A line with a token and no
    value, a dimension mismatch, an unparseable value or a byte that is not
    UTF-8 raises EmbeddingFormatError naming the file and the first such
    line. If there is none, a non-finite value (nan, inf, or a number that
    overflows) raises it naming the first line that holds one. A byte-order
    mark at the start of the file is dropped.

    A file of at least two _RANGE_BYTES is cut, just after newlines, into
    one byte range per usable core (at most size // _RANGE_BYTES); this
    process parses the first range while forked workers parse the others.
    Each range is parsed against the width of its own first entry line, and
    a later range whose first width is not the file's is reported at that
    line. No worker outlives the call; after an error, the workers still
    finish their ranges before it is raised. The table, and the error
    raised, are the same whatever the number of ranges.

    Lines are read in blocks whose numbers np.loadtxt parses in C. A block
    it rejects, or whose width is not the range's, is parsed again line by
    line with float(); that path finds the failing line and accepts the
    values float() takes and loadtxt does not (1_0, non-ASCII digits).
    Memory is the kept vectors and one block per process.
    """
    parts = _parse_ranges(path, vocab)
    offset = 0  # lines in the ranges before part
    dim = first_non_finite = None
    for part in parts:
        error = part.error
        if part.first is not None:
            line_no, width = part.first
            if dim is None:
                dim = width
            elif width != dim:
                # the range's own error, if any, is on this line or later, and
                # a line's width is checked before its values are parsed
                error = line_no, f"expected {dim} values, found {width}"
        if error is not None:
            raise EmbeddingFormatError(error[1], offset + error[0], path)
        if first_non_finite is None and part.non_finite is not None:
            first_non_finite = offset + part.non_finite
        offset += part.n_lines
    if dim is None:
        raise EmbeddingFormatError(f"no embeddings found in {path}")
    if first_non_finite is not None:
        raise EmbeddingFormatError("non-finite value (nan or inf)", first_non_finite, path)
    vectors = parts[0].vectors
    for part in parts[1:]:
        for word, row in part.vectors.items():
            vectors.setdefault(word, row)
    return WordEmbeddingTable(dim=dim, vectors=vectors)


def _parse_ranges(path, vocab) -> list[_Range]:
    """Each byte range of the file parsed, in file order; the ranges after
    one with an error are left out.

    The workers are a ProcessPoolExecutor's, and its with-exit waits for
    them all. It never kills a worker, so it cannot hang the way
    multiprocessing.Pool.terminate() can when it kills one that holds the
    lock of the pool's result queue.
    """
    size = os.path.getsize(path)
    k = min(_usable_cores(), size // _RANGE_BYTES)
    if k > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            k = 1
    starts = _range_starts(path, size, k) if k > 1 else [0]
    if len(starts) == 1:
        return [_parse_range(path, 0, None, vocab)]
    from concurrent.futures import ProcessPoolExecutor

    ends = starts[1:] + [size]
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(starts) - 1, mp_context=context) as pool:
        futures = [pool.submit(_parse_range, path, start, end, vocab)
                   for start, end in zip(starts[1:], ends[1:])]
        parts = [_parse_range(path, 0, ends[0], vocab)]
        for future in futures:
            if parts[-1].error:
                break
            parts.append(future.result())
    return parts


def _range_starts(path, size: int, k: int) -> list[int]:
    """Where up to k byte ranges of about size / k bytes start: 0, then each
    cut just after a newline."""
    starts = [0]
    with open(path, "rb") as fh:
        for i in range(1, k):
            fh.seek(i * size // k - 1)
            fh.readline()
            if starts[-1] < fh.tell() < size:
                starts.append(fh.tell())
    return starts


class _BadLine(Exception):
    """A malformed line: args are its line number and what is wrong."""


def _bad_byte(line_no: int, _offset: int, reason: str) -> _BadLine:
    return _BadLine(line_no, reason)


class _Range(NamedTuple):
    """One byte range parsed, line numbers counted from its first line."""

    vectors: dict[str, np.ndarray]  # the kept words, first occurrence
    first: tuple[int, int] | None  # the first entry line and its value count
    error: tuple[int, str] | None  # the first malformed line and its reason
    non_finite: int | None  # the first line with a non-finite value
    n_lines: int


def _parse_range(path, start: int, end: int | None, vocab) -> _Range:
    """Parse the lines in bytes [start, end) of a vectors file, each against
    the value count of the range's first entry line. A malformed line ends
    the range and is returned as data, not raised."""
    vectors: dict[str, np.ndarray] = {}
    first = error = first_non_finite = None
    n_lines = 0

    def lines():
        nonlocal n_lines
        for n_lines, line in read_lines(path, _bad_byte, start, end):
            yield n_lines, line

    try:
        for line_nos, words, rests in _entry_blocks(lines()):
            if first is None:
                first = line_nos[0], len(rests[0].split())
            rows = _parse_block(line_nos, rests, first[1])
            if first_non_finite is None:
                finite = np.isfinite(rows).all(axis=1)
                if not finite.all():
                    first_non_finite = line_nos[int(np.argmin(finite))]
            for word, row in zip(words, rows):
                if (vocab is None or word in vocab) and word not in vectors:
                    vectors[word] = row.copy()  # a copy, so the block is freed
    except _BadLine as exc:
        error = exc.args
    return _Range(vectors, first, error, first_non_finite, n_lines)


def _entry_blocks(lines):
    """(line numbers, words, value strings) of up to _BLOCK_LINES entry
    lines at a time; blank lines are skipped. A line holding only a token,
    or a _BadLine from lines, is raised once the lines before it have been
    yielded, so their errors win."""
    line_nos: list[int] = []
    words: list[str] = []
    rests: list[str] = []
    try:
        for line_no, line in lines:
            parts = line.split(None, 1)
            if not parts:
                continue
            if len(parts) == 1:
                raise _BadLine(line_no, "expected a token and at least one value")
            line_nos.append(line_no)
            words.append(parts[0])
            rests.append(parts[1])
            if len(line_nos) == _BLOCK_LINES:
                yield line_nos, words, rests
                line_nos, words, rests = [], [], []
    except _BadLine:
        if line_nos:
            yield line_nos, words, rests
        raise
    if line_nos:
        yield line_nos, words, rests


def _parse_block(line_nos, rests, dim: int) -> np.ndarray:
    """The block's values as a len(rests) x dim array."""
    try:
        rows = np.loadtxt(rests, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if rows.shape == (len(rests), dim):
            return rows
    out = []
    for line_no, rest in zip(line_nos, rests):
        values = rest.split()
        if len(values) != dim:
            raise _BadLine(line_no, f"expected {dim} values, found {len(values)}")
        try:
            out.append([float(v) for v in values])
        except ValueError as exc:
            raise _BadLine(line_no, f"unparseable value ({exc})") from None
    return np.array(out, dtype=np.float64)


def write_embeddings(table: WordEmbeddingTable, path) -> None:
    """Write the table in the text format; 17 significant digits round-trip float64."""
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in table.vectors.items():
            fh.write(word + " " + " ".join(f"{v:.17g}" for v in vec) + "\n")


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Whitespace split, optional lowercasing (applied before any lookup)."""
    tokens = text.split()
    if lowercase:
        tokens = [t.lower() for t in tokens]
    return tokens


def _is_punct_or_symbol(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _is_digit(ch: str) -> bool:
    return unicodedata.category(ch) == "Nd"


def _clean_token(token: str) -> str:
    # Order matters: punctuation/symbols first, then the digit rule on the
    # remainder, so "3.14" survives as "314" while "3mg" loses its digit.
    kept = "".join(ch for ch in token if not _is_punct_or_symbol(ch))
    if kept and not all(_is_digit(ch) for ch in kept):
        kept = "".join(ch for ch in kept if not _is_digit(ch))
    return kept if kept else "*"


def clean_tokens(tokens: list[str]) -> list[str]:
    """Cleanup rules used on the tree path.

    Per token: drop punctuation and symbol characters (Unicode P* and S*);
    drop digits (Nd) unless the whole remaining token is digits; a token
    reduced to nothing becomes the placeholder "*". Token count is
    preserved and the mapping is idempotent.
    """
    return [_clean_token(t) for t in tokens]


def embed_sentence(
    table: WordEmbeddingTable, tokens: list[str], oov: str = "drop"
) -> TokenSequence:
    """Map tokens to their vectors under an out-of-vocabulary policy.

    oov="drop" discards unknown tokens (falling back to a single zero
    vector when nothing is left); oov="zero" keeps every token, mapping
    unknown ones to zero vectors. The zero policy is what the tree path
    uses, since dropping would break leaf alignment.
    """
    if not tokens:
        raise ValueError("embed_sentence needs at least one token")
    if oov not in ("drop", "zero"):
        raise ValueError(f"unknown oov policy {oov!r}")
    if oov == "zero":
        rows = [
            table.vectors[t] if t in table.vectors else np.zeros(table.dim)
            for t in tokens
        ]
        return TokenSequence(list(tokens), np.array(rows, dtype=np.float64))
    kept = [t for t in tokens if t in table.vectors]
    if not kept:
        return TokenSequence([OOV_TOKEN], np.zeros((1, table.dim), dtype=np.float64))
    rows = np.array([table.vectors[t] for t in kept], dtype=np.float64)
    return TokenSequence(kept, rows)
