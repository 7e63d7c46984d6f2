"""Benchmark input generator: everything a workload reads, made from its seed.

The generator is independent of the program under test, so a change to the
program's own synthetic-task helpers cannot change the benchmark's inputs.
It writes, under one directory:

  order_tv/    the word-order task with train/dev/test splits (by default
               80/10/10; dev is always 10%)
  order_cv/    the same sentences as one data file with split=cv10
  vectors16.txt  16-d vectors for the task's 66 words (17 significant digits)
  vectors300.txt GloVe-style 300-d vectors, 6 decimals, the task's words
                 shuffled among distractor words (only when asked for)

The task follows the desk protocol: label 1 iff "alpha" precedes "beta";
filler words lean toward one half of a 64-word filler vocabulary by label
(probability 0.75), so order-blind encoders still have a content cue.
"""

from __future__ import annotations

import os

import numpy as np

MARKERS = ("alpha", "beta")
N_FILLERS = 64
CUE = 0.75
MIN_LEN, MAX_LEN = 6, 12
DEV_FRAC = 0.1
WIDE_DIM = 300


def task_words() -> list[str]:
    fillers = ["w" + chr(97 + i // 26) + chr(97 + i % 26) for i in range(N_FILLERS)]
    return list(MARKERS) + fillers


def _sentences(rng: np.random.Generator, n: int) -> tuple[list[list[str]], list[str]]:
    fillers = task_words()[2:]
    halves = (fillers[: N_FILLERS // 2], fillers[N_FILLERS // 2 :])
    sentences, labels = [], []
    for idx in range(n):
        label = 1 if idx % 2 == 0 else 0
        n_fill = int(rng.integers(MIN_LEN, MAX_LEN + 1)) - 2
        lean, other = halves[1 - label], halves[label]
        tokens = [
            (lean if rng.random() < CUE else other)[int(rng.integers(0, len(lean)))]
            for _ in range(n_fill)
        ]
        first, second = MARKERS if label == 1 else MARKERS[::-1]
        slots = np.sort(rng.integers(0, n_fill + 1, 2))
        tokens.insert(int(slots[0]), first)
        tokens.insert(int(slots[1]) + 1, second)
        sentences.append(tokens)
        labels.append(str(label))
    return sentences, labels


def _write_task(out_dir: str, sentences, labels, cv: bool, train_frac: float) -> str:
    os.makedirs(out_dir, exist_ok=True)
    rows = [f"{label}\t{' '.join(toks)}\n" for toks, label in zip(sentences, labels)]
    manifest = ["name=order", "kind=single"]
    if cv:
        files = {"data": rows}
        manifest += ["data=data.tsv", "split=cv10"]
    else:
        n_train, n_dev = int(len(rows) * train_frac), int(len(rows) * DEV_FRAC)
        files = {
            "train": rows[:n_train],
            "dev": rows[n_train : n_train + n_dev],
            "test": rows[n_train + n_dev :],
        }
        manifest += [f"{name}={name}.tsv" for name in files]
    for name, lines in files.items():
        with open(os.path.join(out_dir, f"{name}.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    # flat bracketed parses; the reader binarizes them right-branching
    with open(os.path.join(out_dir, "trees.txt"), "w", encoding="utf-8") as fh:
        for toks in sentences:
            fh.write("(S " + " ".join(f"(W {t})" for t in toks) + ")\n")
    manifest.append("trees=trees.txt")
    path = os.path.join(out_dir, "task.manifest")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    return path


def _distractors(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct words that never collide with the task's words: a random
    2-6 letter stem followed by the word's index in decimal."""
    stems = rng.integers(0, 26, (count, 6))
    lengths = rng.integers(2, 7, count)
    return [
        "".join(chr(97 + c) for c in stems[i, : lengths[i]]) + str(i) for i in range(count)
    ]


def _format_fixed6(values: np.ndarray) -> np.ndarray:
    """Rows of values in (-10, 10) as ' -d.dddddd' byte fields, returned as
    a (rows, cols * 10) uint8 array in which a positive value's sign slot is
    0 (a pad byte the writer drops). Vectorised, so a 100k x 300 file takes
    seconds, not minutes."""
    micro = np.rint(np.abs(values) * 1e6).astype(np.int64)
    micro = np.minimum(micro, 9_999_999)
    out = np.empty(values.shape + (10,), dtype=np.uint8)
    out[..., 0] = ord(" ")
    out[..., 1] = np.where(values < 0, ord("-"), 0)
    out[..., 2] = ord("0") + micro // 1_000_000
    out[..., 3] = ord(".")
    for pos in range(6):
        out[..., 9 - pos] = ord("0") + (micro // 10**pos) % 10
    return out.reshape(values.shape[0], -1)


def _write_wide_vectors(path: str, rng: np.random.Generator, n_words: int) -> int:
    words = _distractors(rng, n_words - len(task_words())) + task_words()
    order = rng.permutation(len(words))
    chunk = 4096
    with open(path, "wb") as fh:
        for lo in range(0, len(words), chunk):
            idx = order[lo : lo + chunk]
            values = np.clip(rng.normal(0.0, 0.4, (idx.size, WIDE_DIM)), -9.9, 9.9)
            fields = _format_fixed6(values)
            for row, i in enumerate(idx):
                line = fields[row]
                fh.write(words[i].encode("ascii") + line[line != 0].tobytes() + b"\n")
    return len(words)


def generate(out_dir: str, seed: int, n: int, wide_words: int = 0,
             train_frac: float = 0.8) -> dict:
    """Write every input for one seed; returns a record of what was written.

    n is the number of sentences and train_frac the train share of the tv
    split; wide_words > 0 also writes the 300-d file with that many words.
    """
    rng = np.random.default_rng([seed, 0x0BE1C])
    os.makedirs(out_dir, exist_ok=True)
    sentences, labels = _sentences(rng, n)
    record = {
        "seed": seed,
        "sentences": n,
        "tokens": sum(len(s) for s in sentences),
        "task_words": len(task_words()),
        "tv_manifest": _write_task(
            os.path.join(out_dir, "order_tv"), sentences, labels, False, train_frac
        ),
        "cv_manifest": _write_task(
            os.path.join(out_dir, "order_cv"), sentences, labels, True, train_frac
        ),
    }
    narrow = os.path.join(out_dir, "vectors16.txt")
    vec = rng.uniform(-1.0, 1.0, (len(task_words()), 16))
    with open(narrow, "w", encoding="utf-8") as fh:
        for word, row in zip(task_words(), vec):
            fh.write(word + " " + " ".join(f"{v:.17g}" for v in row) + "\n")
    record["vectors16"] = {"path": narrow, "words": len(task_words()),
                           "bytes": os.path.getsize(narrow)}
    if wide_words:
        wide = os.path.join(out_dir, "vectors300.txt")
        words = _write_wide_vectors(wide, rng, wide_words)
        record["vectors300"] = {"path": wide, "words": words, "bytes": os.path.getsize(wide)}
    return record
