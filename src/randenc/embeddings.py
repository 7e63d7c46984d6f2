"""Fixed word vectors: loading, tokenization, cleanup rules, sentence assembly.

The embedding file format is GloVe-style text: one entry per line, a token
followed by D whitespace-separated decimal reals. Vectors are fixed; nothing
here is ever trained.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmbeddingFormatError",
    "WordEmbeddingTable",
    "read_lines",
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


# What errors="surrogateescape" decodes each byte that is not UTF-8 to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_lines(path, error):
    """(line number, line) for each line of a UTF-8 text file, numbered from 1.

    A byte that is not UTF-8 raises error(line_no, offset, reason): the line
    that holds the first such byte, the byte's offset in that line and what
    is wrong. Text mode decodes ahead in chunks, so its exception can come
    lines before that byte; the file is read again to place it.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError:
            pass
        else:
            return
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                offset = len(line[: bad.start()].encode("utf-8"))
                byte = ord(bad.group()) - 0xDC00
                raise error(line_no, offset, f"byte 0x{byte:02x} is not UTF-8")


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


def load_embeddings(path, vocab: set[str] | None = None) -> WordEmbeddingTable:
    """Read a GloVe-style text file into a WordEmbeddingTable.

    vocab, a set of words, keeps only those words' vectors (the table may
    then be empty); None keeps every word. Either way every line of the file
    is checked, so a file loads with a vocab exactly when it loads without
    one, and a kept word gets the same bits.

    Duplicate words keep their first occurrence. A line with a token and no
    value, a dimension mismatch or an unparseable value raises
    EmbeddingFormatError naming the file and the first such line. If
    there is none, a non-finite value (nan, inf, or a number that overflows)
    raises it naming the first line that holds one.

    Lines are read in blocks whose numbers np.loadtxt parses in C. A block
    it rejects, or whose width is not the file's, is parsed again line by
    line with float(); that path finds the failing line and accepts the
    values float() takes and loadtxt does not (1_0, non-ASCII digits).
    Memory is the kept vectors and one block. A byte that is not UTF-8
    raises EmbeddingFormatError naming the line that holds it.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    first_non_finite: int | None = None
    lines = read_lines(path, lambda line_no, _offset, reason: EmbeddingFormatError(
        reason, line_no, path
    ))
    for line_nos, words, rests in _entry_blocks(lines, path):
        rows = _parse_block(path, line_nos, rests, dim)
        dim = rows.shape[1]
        if first_non_finite is None:
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():
                first_non_finite = line_nos[int(np.argmin(finite))]
        for word, row in zip(words, rows):
            if (vocab is None or word in vocab) and word not in vectors:
                vectors[word] = row.copy()  # a copy, so the block is freed
    if dim is None:
        raise EmbeddingFormatError(f"no embeddings found in {path}")
    if first_non_finite is not None:
        raise EmbeddingFormatError("non-finite value (nan or inf)", first_non_finite, path)
    return WordEmbeddingTable(dim=dim, vectors=vectors)


def _entry_blocks(lines, path):
    """(line numbers, words, value strings) of up to _BLOCK_LINES entry
    lines at a time; blank lines are skipped. A line holding only a token
    raises once the lines before it have been yielded, so their errors win."""
    line_nos: list[int] = []
    words: list[str] = []
    rests: list[str] = []
    for line_no, line in lines:
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            if line_nos:
                yield line_nos, words, rests
            raise EmbeddingFormatError(
                "expected a token and at least one value", line_no, path
            )
        line_nos.append(line_no)
        words.append(parts[0])
        rests.append(parts[1])
        if len(line_nos) == _BLOCK_LINES:
            yield line_nos, words, rests
            line_nos, words, rests = [], [], []
    if line_nos:
        yield line_nos, words, rests


def _parse_block(path, line_nos, rests, dim: int | None) -> np.ndarray:
    """The block's values as a len(rests) x dim array; dim None takes the
    first line's width."""
    try:
        rows = np.loadtxt(rests, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if rows.shape == (len(rests), rows.shape[1] if dim is None else dim):
            return rows
    out = []
    for line_no, rest in zip(line_nos, rests):
        values = rest.split()
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise EmbeddingFormatError(
                f"expected {dim} values, found {len(values)}", line_no, path
            )
        try:
            out.append([float(v) for v in values])
        except ValueError as exc:
            raise EmbeddingFormatError(f"unparseable value ({exc})", line_no, path) from None
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
