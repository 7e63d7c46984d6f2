"""Task ingestion and synthetic task generation.

A task is a small manifest (key=value lines) pointing at TSV data files:
`label<TAB>text` for single-sentence tasks, `label<TAB>text1<TAB>text2`
for pair tasks. Splits are either explicit train/dev/test files or one
data file evaluated by stratified cross-validation (`split=cv10`).
Optional bracketed-parse files feed the TreeLSTM path; their line order
matches the concatenated train, dev, test example order (or the single
data file's order for cv tasks).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .embeddings import WordEmbeddingTable, read_key_values, read_lines
from .numerics import SeededRng
from .probe import SplitPlan
from .trees import ParseTree, format_bracketed, read_tree_file, right_branching_parse

__all__ = [
    "TaskFormatError",
    "TaskDataset",
    "load_task",
    "load_manifest",
    "read_parses",
    "order_label",
    "make_synthetic_order_task",
    "synthetic_vocabulary",
    "make_synthetic_embeddings",
    "write_task_files",
    "MARKER_A",
    "MARKER_B",
]

MARKER_A = "alpha"
MARKER_B = "beta"

_MANIFEST_KEYS = {"name", "kind", "train", "dev", "test", "data", "split", "trees", "trees2"}


class TaskFormatError(ValueError):
    """Malformed manifest or task data file."""


def _read_task_lines(path: str, what: str):
    """read_lines with a file that cannot be read as a TaskFormatError."""
    try:
        yield from read_lines(path, lambda line_no, _offset, reason: TaskFormatError(
            f"{path}:{line_no}: {reason}"
        ))
    except OSError as exc:
        raise TaskFormatError(f"cannot read {what} {path}: {exc}") from None


@dataclass(frozen=True)
class TaskDataset:
    name: str
    kind: str  # "single" or "pair"
    texts: tuple[str, ...]
    texts2: tuple[str, ...] | None
    labels: tuple[str, ...]
    classes: tuple[str, ...]  # first-appearance order over the training examples
    plan: SplitPlan
    trees: tuple[ParseTree, ...] | None = None
    trees2: tuple[ParseTree, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("single", "pair"):
            raise TaskFormatError(f"task kind must be single or pair, got {self.kind!r}")
        if len(self.classes) < 2:
            raise TaskFormatError(
                f"task {self.name!r} has {len(self.classes)} class(es); need at least 2"
            )
        if (self.kind == "pair") != (self.texts2 is not None):
            raise TaskFormatError("pair tasks need texts2; single tasks must not have it")
        class_set = set(self.classes)
        for label in self.labels:
            if label not in class_set:
                raise TaskFormatError(
                    f"task {self.name!r}: label {label!r} outside the declared class set"
                )

    @property
    def n_examples(self) -> int:
        return len(self.texts)

    @property
    def label_indices(self) -> np.ndarray:
        index = {c: i for i, c in enumerate(self.classes)}
        return np.array([index[label] for label in self.labels], dtype=np.int64)

    @property
    def has_trees(self) -> bool:
        if self.trees is None:
            return False
        if self.kind == "pair":
            return self.trees2 is not None
        return True


# ---------------------------------------------------------------------------
# Manifest + TSV loading.
# ---------------------------------------------------------------------------


def load_manifest(path: str) -> dict:
    entries, _ = read_key_values(_read_task_lines(path, "manifest"), path, _MANIFEST_KEYS,
                                 TaskFormatError, "manifest")
    return entries


def _read_tsv(path: str, kind: str):
    texts, texts2, labels = [], [], []
    n_fields = 2 if kind == "single" else 3
    for line_no, line in _read_task_lines(path, "data file"):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise TaskFormatError(
                f"{path}:{line_no}: expected {n_fields} tab-separated fields "
                f"for a {kind} task, got {len(parts)}"
            )
        if any(not text.strip() for text in parts[1:]):
            # an empty sentence has no token to encode; fail here, not mid-sweep
            raise TaskFormatError(f"{path}:{line_no}: empty text")
        labels.append(parts[0])
        texts.append(parts[1])
        if kind == "pair":
            texts2.append(parts[2])
    return texts, (texts2 if kind == "pair" else None), labels


def load_task(manifest_path: str) -> TaskDataset:
    """Parse a manifest into a validated TaskDataset (example order = file
    order; train first, then dev, then test for explicit splits)."""
    entries = load_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))

    def resolve(rel: str) -> str:
        return os.path.join(base, rel)

    name = entries.get("name")
    kind = entries.get("kind")
    if not name:
        raise TaskFormatError(f"{manifest_path}: manifest is missing name=")
    if kind not in ("single", "pair"):
        raise TaskFormatError(f"{manifest_path}: kind= must be single or pair, got {kind!r}")

    explicit = [k for k in ("train", "dev", "test") if k in entries]
    if "data" in entries:
        if explicit:
            raise TaskFormatError(
                f"{manifest_path}: manifest mixes data= with train=/dev=/test="
            )
        if "split" not in entries:
            raise TaskFormatError(f"{manifest_path}: data= requires split=cv<k>")
        split = entries["split"]
        if not split.startswith("cv") or not split[2:].isdecimal():
            raise TaskFormatError(f"{manifest_path}: split= must look like cv10, got {split!r}")
        k = int(split[2:])
        if k < 2:
            raise TaskFormatError(f"{manifest_path}: split=cv<k> needs k >= 2, got {split!r}")
        texts, texts2, labels = _read_tsv(resolve(entries["data"]), kind)
        if len(texts) < k:
            raise TaskFormatError(
                f"{manifest_path}: cv({k}) needs at least {k} examples, got {len(texts)}"
            )
        plan = SplitPlan(kind="cv", folds=k)
        classes = _first_appearance(labels)
    else:
        if sorted(explicit) != ["dev", "test", "train"]:
            raise TaskFormatError(
                f"{manifest_path}: manifest needs train=, dev= and test= (or data= with split=)"
            )
        if "split" in entries:
            raise TaskFormatError(f"{manifest_path}: split= only applies to data= manifests")
        parts = []
        for split_name in ("train", "dev", "test"):
            path = resolve(entries[split_name])
            part = _read_tsv(path, kind)
            if not part[0]:
                # no split may be empty: an empty train set has no classes,
                # and an empty dev or test set has no accuracy to report
                raise TaskFormatError(
                    f"{manifest_path}: {split_name}= file {path} holds no examples"
                )
            parts.append(part)
        texts = [t for p in parts for t in p[0]]
        texts2 = [t for p in parts for t in p[1]] if kind == "pair" else None
        labels = [t for p in parts for t in p[2]]
        sizes = [len(p[0]) for p in parts]
        bounds = np.cumsum([0] + sizes)
        plan = SplitPlan(
            kind="tv",
            train=tuple(range(bounds[0], bounds[1])),
            dev=tuple(range(bounds[1], bounds[2])),
            test=tuple(range(bounds[2], bounds[3])),
        )
        classes = _first_appearance(labels[: sizes[0]])
        for split_name, lo, hi in (("dev", bounds[1], bounds[2]), ("test", bounds[2], bounds[3])):
            for label in labels[lo:hi]:
                if label not in classes:
                    raise TaskFormatError(
                        f"{manifest_path}: {split_name} label {label!r} never appears in train"
                    )

    trees = trees2 = None
    if "trees" in entries:
        trees = read_parses(resolve(entries["trees"]), texts)
    if "trees2" in entries:
        if kind != "pair":
            raise TaskFormatError(f"{manifest_path}: trees2= only applies to pair tasks")
        trees2 = read_parses(resolve(entries["trees2"]), texts2)
    return TaskDataset(
        name, kind, tuple(texts), tuple(texts2) if texts2 is not None else None,
        tuple(labels), classes, plan, trees, trees2,
    )


def read_parses(path: str, texts) -> tuple[ParseTree, ...]:
    """The parses in path, one per text in order; a wrong parse count or
    leaf count names path:line, blank lines counted."""
    numbered = read_tree_file(path)
    if len(numbered) != len(texts):
        if len(numbered) > len(texts):
            line_no = numbered[len(texts)][0]  # the first parse without a text
        else:
            line_no = numbered[-1][0] + 1 if numbered else 1  # where the next parse belongs
        raise TaskFormatError(
            f"{path}:{line_no}: {len(numbered)} parses for {len(texts)} texts; "
            "need one parse per text"
        )
    for (line_no, tree), text in zip(numbered, texts):
        # the tree path encodes one leaf per whitespace token of the text
        # (lowercasing and cleanup keep the count)
        n_leaves, n_tokens = tree.leaf_count, len(text.split())
        if n_leaves != n_tokens:
            raise TaskFormatError(
                f"{path}:{line_no}: tree has {n_leaves} leaves "
                f"but the text has {n_tokens} tokens"
            )
    return tuple(tree for _line_no, tree in numbered)


def _first_appearance(labels) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for label in labels:
        seen.setdefault(label, None)
    return tuple(seen)


# ---------------------------------------------------------------------------
# Synthetic order task.
# ---------------------------------------------------------------------------


def order_label(tokens, marker_a: str = MARKER_A, marker_b: str = MARKER_B) -> str:
    """Label "1" iff marker_a occurs before marker_b in the token list."""
    return "1" if tokens.index(marker_a) < tokens.index(marker_b) else "0"


def synthetic_vocabulary(n_fillers: int = 64) -> list[str]:
    """Marker tokens plus letter-only filler names (digit-free so the
    corpus cleanup pass leaves them intact)."""
    if n_fillers < 2 or n_fillers > 26 * 26:
        raise ValueError(f"n_fillers must be in [2, 676], got {n_fillers}")
    fillers = [
        "w" + chr(ord("a") + i // 26) + chr(ord("a") + i % 26) for i in range(n_fillers)
    ]
    return [MARKER_A, MARKER_B] + fillers


def make_synthetic_order_task(
    n: int,
    n_fillers: int = 64,
    seed: int = 0,
    cue_strength: float = 0.75,
    min_len: int = 6,
    max_len: int = 12,
    with_trees: bool = True,
    name: str = "order",
) -> TaskDataset:
    """Balanced binary word-order task, deterministic given the seed.

    Every sentence contains both markers exactly once; label "1" iff
    MARKER_A precedes MARKER_B. Labels alternate 1, 0, 1, ... so the set
    is exactly balanced and every contiguous split stays balanced. Filler
    tokens lean toward one half of the filler vocabulary depending on the
    label (probability cue_strength), giving order-insensitive encoders a
    learnable content signal alongside the order rule. Split: 80/10/10
    train/dev/test by position. with_trees attaches right-branching parses
    so the TreeLSTM path can run on the task.
    """
    if n < 10 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 10, got {n}")
    if not (0.5 <= cue_strength <= 1.0):
        raise ValueError(f"cue_strength must be in [0.5, 1], got {cue_strength}")
    if min_len < 4 or max_len < min_len:
        raise ValueError("need max_len >= min_len >= 4 (two markers plus fillers)")
    vocab = synthetic_vocabulary(n_fillers)
    fillers = vocab[2:]
    half = len(fillers) // 2
    halves = (fillers[:half], fillers[half:])
    rng = SeededRng(seed)
    texts, labels, trees = [], [], []
    for idx in range(n):
        label = 1 if idx % 2 == 0 else 0
        length = int(rng.integers(min_len, max_len + 1))
        n_fill = length - 2
        lean, other = halves[1 - label], halves[label]
        tokens = []
        for _ in range(n_fill):
            pool = lean if rng.uniform(0.0, 1.0, ()) < cue_strength else other
            tokens.append(pool[int(rng.integers(0, len(pool)))])
        first, second = (MARKER_A, MARKER_B) if label == 1 else (MARKER_B, MARKER_A)
        slots = np.sort(rng.integers(0, n_fill + 1, 2))
        tokens.insert(int(slots[0]), first)
        tokens.insert(int(slots[1]) + 1, second)
        assert order_label(tokens) == str(label)
        texts.append(" ".join(tokens))
        labels.append(str(label))
        if with_trees:
            trees.append(right_branching_parse(tokens))
    n_train = int(n * 0.8)
    n_dev = int(n * 0.1)
    plan = SplitPlan(
        kind="tv",
        train=tuple(range(n_train)),
        dev=tuple(range(n_train, n_train + n_dev)),
        test=tuple(range(n_train + n_dev, n)),
    )
    return TaskDataset(
        name, "single", tuple(texts), None, tuple(labels),
        _first_appearance(labels[:n_train]), plan,
        tuple(trees) if with_trees else None, None,
    )


def make_synthetic_embeddings(tokens, dim: int, seed: int = 0) -> WordEmbeddingTable:
    """Unit-scale random word vectors (uniform +-1) for a synthetic vocabulary."""
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    rng = SeededRng(seed)
    vectors = {}
    for token in tokens:
        if token in vectors:
            raise ValueError(f"duplicate token {token!r} in synthetic vocabulary")
        vectors[token] = rng.uniform(-1.0, 1.0, (dim,))
    return WordEmbeddingTable(dim=dim, vectors=vectors)


# ---------------------------------------------------------------------------
# Writing a dataset back to manifest + TSV form.
# ---------------------------------------------------------------------------


def write_task_files(dataset: TaskDataset, out_dir: str) -> str:
    """Materialize a TaskDataset as TSVs plus a manifest; returns the
    manifest path. tv plans write train/dev/test files, cv plans a single
    data file."""
    os.makedirs(out_dir, exist_ok=True)

    def write_rows(path: str, indices) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in indices:
                if dataset.kind == "pair":
                    fh.write(f"{dataset.labels[i]}\t{dataset.texts[i]}\t{dataset.texts2[i]}\n")
                else:
                    fh.write(f"{dataset.labels[i]}\t{dataset.texts[i]}\n")

    lines = [f"name={dataset.name}", f"kind={dataset.kind}"]
    if dataset.plan.kind == "tv":
        order = list(dataset.plan.train) + list(dataset.plan.dev) + list(dataset.plan.test)
        for split_name, indices in (
            ("train", dataset.plan.train), ("dev", dataset.plan.dev), ("test", dataset.plan.test)
        ):
            write_rows(os.path.join(out_dir, f"{split_name}.tsv"), indices)
            lines.append(f"{split_name}={split_name}.tsv")
    else:
        order = list(range(dataset.n_examples))
        write_rows(os.path.join(out_dir, "data.tsv"), order)
        lines.append("data=data.tsv")
        lines.append(f"split=cv{dataset.plan.folds}")
    for key, parses in (("trees", dataset.trees), ("trees2", dataset.trees2)):
        if parses is not None:
            with open(os.path.join(out_dir, f"{key}.txt"), "w", encoding="utf-8") as fh:
                for i in order:
                    fh.write(format_bracketed(parses[i]) + "\n")
            lines.append(f"{key}={key}.txt")
    manifest_path = os.path.join(out_dir, "task.manifest")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_path
