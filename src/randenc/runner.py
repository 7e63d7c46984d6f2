"""Experiment harness: sweep encoder kind x output dim x pooling x seed
over a set of tasks, train one probe per tuple, and emit result tables.

Work is scheduled per (task, encoder, dim, seed) job: the encoder is built
and the corpus encoded once, every configured pooling is taken from that
one encoding, and each pooling gets its own probe and result row.

Outputs in the configured directory:
  results.csv  one row per tuple: task,encoder,dim,pooling,seed,accuracy,wall_ms
  summary.csv  per (task, encoder, dim, pooling): mean, sample sd, n over seeds
  errors.csv   written only when tuples failed (same key columns + message)

Rows are sorted canonically (task, encoder, dim, pooling, seed), and
accuracy cells use repr(float), so identical configs reproduce identical
bytes (set timing=off to also pin wall_ms).
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoders as enc
from .embeddings import (
    TokenSequence,
    WordEmbeddingTable,
    clean_tokens,
    embed_sentence,
    load_embeddings,
    tokenize,
)
from .encoders import ConfigError
from .probe import ProbeConfig, SplitPlan, kfold_accuracy, pair_features, train_probe
from .tasks import TaskDataset, load_task

__all__ = [
    "EncoderSpec",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "ExperimentResult",
    "parse_encoder_spec",
    "tokenize_texts",
    "load_used_vectors",
    "embed_texts",
    "run_experiment",
    "aggregate",
    "write_results_csv",
    "write_summary_csv",
    "write_errors_csv",
    "RESULTS_HEADER",
    "SUMMARY_HEADER",
]

RESULTS_HEADER = "task,encoder,dim,pooling,seed,accuracy,wall_ms"
SUMMARY_HEADER = "task,encoder,dim,pooling,mean,sd,n"


@dataclass(frozen=True)
class EncoderSpec:
    """One encoder column of the sweep: kind plus fixed hyperparameters.

    label is the config-file token ("cnn(window=2)"), used verbatim in the
    encoder column of every output table.
    """

    kind: str
    hyper: tuple[tuple[str, object], ...] = ()
    label: str = ""

    def hyper_dict(self) -> dict:
        return dict(self.hyper)


def _parse_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_encoder_spec(token: str) -> EncoderSpec:
    """Parse "kind" or "kind(key=value,key=value)" into an EncoderSpec."""
    token = token.strip()
    if "(" in token:
        if not token.endswith(")"):
            raise ConfigError(f"malformed encoder spec {token!r}")
        kind, _, inner = token[:-1].partition("(")
        hyper = []
        for part in filter(None, (p.strip() for p in inner.split(","))):
            if "=" not in part:
                raise ConfigError(f"encoder spec {token!r}: expected key=value, got {part!r}")
            key, _, value = part.partition("=")
            hyper.append((key.strip(), _parse_value(value.strip())))
    else:
        kind, hyper = token, []
    kind = kind.strip()
    if kind not in enc.ENCODER_KINDS:
        raise ConfigError(
            f"unknown encoder kind {kind!r}; expected one of {enc.ENCODER_KINDS}"
        )
    return EncoderSpec(kind, tuple(hyper), token)


# config-file keys: the ExperimentConfig fields plus the probe's settings
_PROBE_INT_KEYS = {
    "probe_hidden": "hidden", "max_epochs": "max_epochs", "patience": "patience",
    "eval_interval": "eval_interval",
}
_CONFIG_KEYS = {
    "embeddings", "tasks", "encoders", "dims", "poolings", "seeds", "probe",
    "l2_grid", "output_dir", "timing", "oov", "lowercase", "clean", *_PROBE_INT_KEYS,
}
_REMOVED_KEYS = {
    "workers": "jobs run one after another; threads made sweeps slower",
    "probe_seed": "each tuple's probe is seeded by its sweep seed",
}


@dataclass(frozen=True)
class ExperimentConfig:
    embeddings: str
    tasks: tuple[str, ...]
    encoders: tuple[EncoderSpec, ...]
    dims: tuple[int, ...] = (128, 512, 1024, 2048, 4096)
    poolings: tuple[str, ...] = ("max", "mean")
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    output_dir: str = "out"
    timing: bool = True
    oov: str = "drop"
    lowercase: bool = True
    clean: bool = False  # cleanup always runs on the tree path; this extends it to all encoders

    def __post_init__(self):
        if not self.tasks or not self.encoders or not self.dims or not self.poolings:
            raise ConfigError("tasks, encoders, dims and poolings must all be non-empty")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        # a repeat on any grid axis reruns identical tuples, which the summary
        # would count as extra seeds
        axes = {
            "tasks": self.tasks,
            "encoders": tuple(spec.label for spec in self.encoders),
            "dims": self.dims,
            "poolings": self.poolings,
            "seeds": self.seeds,
        }
        for name, values in axes.items():
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must be distinct, got {values}")
        for p in self.poolings:
            if p not in enc.POOLINGS:
                raise ConfigError(f"unknown pooling {p!r}; expected subset of {enc.POOLINGS}")
        if any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be positive, got {self.dims}")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if self.oov not in ("drop", "zero"):
            raise ConfigError(f"oov policy must be drop or zero, got {self.oov!r}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Key=value config file mirroring the dataclass fields; list values
        are comma-separated; paths resolve relative to the config file."""
        base = os.path.dirname(os.path.abspath(path))
        entries: dict[str, str] = {}
        line_of: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key in _REMOVED_KEYS:
                    raise ConfigError(f"{path}:{line_no}: config key {key!r} was removed: "
                                      f"{_REMOVED_KEYS[key]}")
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
                if key in entries:
                    raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
                entries[key] = value.strip()
                line_of[key] = line_no

        def where(key: str) -> str:
            return f"{path}:{line_of[key]}"

        for key in ("embeddings", "tasks", "encoders"):
            if key not in entries:
                raise ConfigError(f"{path}: config is missing {key}=")

        def split_list(key: str) -> list[str]:
            return [t.strip() for t in entries[key].split(",") if t.strip()]

        def split_specs(value: str) -> list[str]:
            # commas inside parentheses belong to an encoder's hyperparameters
            parts, depth, current = [], 0, []
            for ch in value:
                if ch == "," and depth == 0:
                    parts.append("".join(current))
                    current = []
                    continue
                depth += (ch == "(") - (ch == ")")
                current.append(ch)
            parts.append("".join(current))
            return [p.strip() for p in parts if p.strip()]

        def numbers(key: str, convert, values: list[str]) -> tuple:
            try:
                return tuple(convert(v) for v in values)
            except ValueError:
                raise ConfigError(f"{where(key)}: {key}= takes {convert.__name__} "
                                  f"values, got {entries[key]!r}") from None

        probe_kwargs = {}
        if "probe" in entries:
            probe_kwargs["kind"] = entries["probe"]
        for key, name in _PROBE_INT_KEYS.items():
            if key in entries:
                (probe_kwargs[name],) = numbers(key, int, [entries[key]])
        if "l2_grid" in entries:
            probe_kwargs["l2_grid"] = numbers("l2_grid", float, split_list("l2_grid"))

        kwargs: dict = {
            "embeddings": os.path.join(base, entries["embeddings"]),
            "tasks": tuple(os.path.join(base, t) for t in split_list("tasks")),
            "encoders": tuple(parse_encoder_spec(t) for t in split_specs(entries["encoders"])),
            "probe": ProbeConfig(**probe_kwargs),
        }
        if "dims" in entries:
            kwargs["dims"] = numbers("dims", int, split_list("dims"))
        if "poolings" in entries:
            kwargs["poolings"] = tuple(split_list("poolings"))
        if "seeds" in entries:
            kwargs["seeds"] = numbers("seeds", int, split_list("seeds"))
        if "output_dir" in entries:
            kwargs["output_dir"] = os.path.join(base, entries["output_dir"])
        for flag in ("timing", "lowercase", "clean"):
            if flag in entries:
                if entries[flag] not in ("on", "off"):
                    raise ConfigError(
                        f"{where(flag)}: {flag}= must be on or off, got {entries[flag]!r}"
                    )
                kwargs[flag] = entries[flag] == "on"
        if "oov" in entries:
            kwargs["oov"] = entries["oov"]
        return cls(**kwargs)


@dataclass(frozen=True)
class ResultRow:
    task: str
    encoder: str
    dim: int
    pooling: str
    seed: int
    accuracy: float  # nan when errored
    wall_ms: int
    error: str = ""

    @property
    def sort_key(self):
        return (self.task, self.encoder, self.dim, self.pooling, self.seed)


@dataclass(frozen=True)
class SummaryRow:
    task: str
    encoder: str
    dim: int
    pooling: str
    mean: float
    sd: float
    n: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    summary: tuple[SummaryRow, ...]

    @property
    def errors(self) -> tuple[ResultRow, ...]:
        return tuple(r for r in self.rows if r.error)


# ---------------------------------------------------------------------------
# Sentence preparation (shared across all tuples of a task).
# ---------------------------------------------------------------------------


def tokenize_texts(texts, *, tree: bool, lowercase: bool, clean: bool) -> list[list[str]]:
    """Tokenize and clean each text, for the sweep and `randenc encode`. The
    tree path always cleans (the corpus rules are stated for that encoder);
    clean sets the sequence path."""
    out = []
    for text in texts:
        tokens = tokenize(text, lowercase=lowercase)
        if clean or tree:
            tokens = clean_tokens(tokens)
        out.append(tokens)
    return out


def load_used_vectors(path, token_lists) -> WordEmbeddingTable:
    """The vectors of every word in token_lists, read from path with every
    line of the file checked; the file's other words are not kept."""
    return load_embeddings(path, {token for tokens in token_lists for token in tokens})


def embed_texts(
    table: WordEmbeddingTable, token_lists, *, tree: bool, oov: str,
) -> tuple[TokenSequence, ...]:
    """Embed tokenize_texts output. The tree path maps OOV tokens to zero
    rows, keeping leaves aligned with the parse; oov sets the sequence path."""
    if tree:
        oov = "zero"
    return tuple(embed_sentence(table, tokens, oov=oov) for tokens in token_lists)


def _prepare_tasks(
    config: ExperimentConfig, datasets,
) -> tuple[WordEmbeddingTable, list[dict[bool, list]]]:
    """The vectors the tasks use, and each task's corpora prepared once for
    all its jobs, keyed by whether they feed the tree path: (TokenSequences,
    parses or None) per corpus, two for pair tasks. A path no swept kind
    reads is left out. Each text is tokenized once per path; the union of
    those tokens is the vocabulary the vectors are loaded for."""
    paths = sorted({spec.kind == "tree_lstm" for spec in config.encoders})
    tokenized = []
    for dataset in datasets:
        corpora = [(dataset.texts, dataset.trees)]
        if dataset.kind == "pair":
            corpora.append((dataset.texts2, dataset.trees2))
        tokenized.append({
            tree: [
                (tokenize_texts(texts, tree=tree, lowercase=config.lowercase,
                                clean=config.clean),
                 parses if tree else None)
                for texts, parses in corpora
            ]
            for tree in paths
        })
    table = load_used_vectors(config.embeddings, (
        tokens
        for by_path in tokenized for corpora in by_path.values()
        for token_lists, _parses in corpora for tokens in token_lists
    ))
    prepared = [
        {
            tree: [(embed_texts(table, token_lists, tree=tree, oov=config.oov), parses)
                   for token_lists, parses in corpora]
            for tree, corpora in by_path.items()
        }
        for by_path in tokenized
    ]
    return table, prepared


# ---------------------------------------------------------------------------
# Job execution.
# ---------------------------------------------------------------------------


def _probe_accuracy(x: np.ndarray, y: np.ndarray, plan: SplitPlan, config: ProbeConfig) -> float:
    if plan.kind == "cv":
        return float(kfold_accuracy(x, y, plan.folds, config))
    _model, report = train_probe(x, y, plan, config)
    return float(report.test_accuracy)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_job(
    dataset: TaskDataset, corpora: dict[bool, list], spec: EncoderSpec, in_dim: int,
    dim: int, seed: int, config: ExperimentConfig,
) -> list[ResultRow]:
    """One (task, encoder, dim, seed) job: build the encoder and encode each
    corpus once, then train one probe per pooling; one row per pooling.

    Crash isolation: a build or encode failure marks every row of the job, a
    probe failure only its own row. A row's wall_ms is the shared build and
    encode time plus its own probe time, i.e. what the tuple would cost if
    run alone.
    """

    def row(pooling: str, accuracy: float, seconds: float, error: str = "") -> ResultRow:
        wall_ms = int(round(seconds * 1000)) if config.timing else 0
        return ResultRow(dataset.name, spec.label, dim, pooling, seed, accuracy, wall_ms, error)

    start = time.perf_counter()
    try:
        params = enc.build_encoder(spec.kind, seed, in_dim, dim, **spec.hyper_dict())
        pooled = [
            enc.encode_corpus(params, list(seqs), config.poolings, trees=parses)
            for seqs, parses in corpora[spec.kind == "tree_lstm"]
        ]
    except Exception as exc:  # crash isolation: one bad job never kills the sweep
        shared = time.perf_counter() - start
        return [row(p, float("nan"), shared, _describe(exc)) for p in config.poolings]
    shared = time.perf_counter() - start

    y = dataset.label_indices
    probe_config = replace(config.probe, seed=seed)
    rows = []
    for pooling in config.poolings:
        probe_start = time.perf_counter()
        accuracy, error = float("nan"), ""
        try:
            xs = [by_pooling.pop(pooling) for by_pooling in pooled]  # freed once probed
            features = pair_features(*xs) if len(xs) == 2 else xs[0]
            accuracy = _probe_accuracy(features, y, dataset.plan, probe_config)
        except Exception as exc:
            error = _describe(exc)
        rows.append(row(pooling, accuracy, shared + time.perf_counter() - probe_start, error))
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full sweep; returns rows in canonical order and writes
    results.csv / summary.csv (and errors.csv when applicable) under
    config.output_dir."""
    datasets = [load_task(path) for path in config.tasks]
    # rows are keyed by task name, so two manifests with one name would merge
    # into one task whose repeats the summary counts as extra seeds
    names = tuple(ds.name for ds in datasets)
    if len(set(names)) != len(names):
        raise ConfigError(f"task names must be distinct, got {names}")
    if any(spec.kind == "tree_lstm" for spec in config.encoders):
        missing = [ds.name for ds in datasets if not ds.has_trees]
        if missing:
            raise ConfigError(
                "tree_lstm is in the encoder list but these tasks have no "
                f"parse trees: {', '.join(missing)}"
            )
    table, prepared = _prepare_tasks(config, datasets)

    rows = [
        row
        for ds, corpora in zip(datasets, prepared)
        for spec in config.encoders
        for dim in config.dims
        for seed in config.seeds
        for row in _run_job(ds, corpora, spec, table.dim, dim, seed, config)
    ]
    rows.sort(key=lambda r: r.sort_key)
    summary = aggregate(rows)
    result = ExperimentResult(tuple(rows), tuple(summary))

    os.makedirs(config.output_dir, exist_ok=True)
    write_results_csv(os.path.join(config.output_dir, "results.csv"), result.rows)
    write_summary_csv(os.path.join(config.output_dir, "summary.csv"), result.summary)
    if result.errors:
        write_errors_csv(os.path.join(config.output_dir, "errors.csv"), result.errors)
    return result


def aggregate(rows) -> list[SummaryRow]:
    """Mean and sample (n-1) standard deviation of accuracy per
    (task, encoder, dim, pooling) over seeds, skipping errored rows.
    Groups with a single seed report sd = 0.0; n carries the flag."""
    groups: dict = {}
    for row in rows:
        if row.error:
            continue
        groups.setdefault((row.task, row.encoder, row.dim, row.pooling), []).append(row.accuracy)
    out = []
    for key in sorted(groups):
        values = groups[key]
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        out.append(SummaryRow(*key, mean, sd, len(values)))
    return out


# ---------------------------------------------------------------------------
# CSV emission (repr floats: shortest round-tripping decimal form).
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


# encoder labels may carry commas ("cnn(window=2,from_borep=true)"), so
# cells go through the csv module, which quotes exactly when needed


def write_results_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [r.task, r.encoder, r.dim, r.pooling, r.seed, _fmt(r.accuracy), r.wall_ms]
            )


def write_summary_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [r.task, r.encoder, r.dim, r.pooling, _fmt(r.mean), _fmt(r.sd), r.n]
            )


def write_errors_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "encoder", "dim", "pooling", "seed", "error"])
        for r in rows:
            writer.writerow(
                [r.task, r.encoder, r.dim, r.pooling, r.seed, r.error.replace("\n", " ")]
            )
