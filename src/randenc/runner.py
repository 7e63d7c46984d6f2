"""Experiment harness: sweep encoder kind x output dim x pooling x seed
over a set of tasks, train one probe per tuple, and emit result tables.

Work is scheduled per (task, encoder, dim, seed) job: the encoder is built
and the corpus encoded once, every configured pooling is taken from that
one encoding, and each pooling gets its own probe and result row.

Outputs in the configured directory:
  results.csv  one row per tuple: task,encoder,dim,pooling,seed,accuracy,wall_ms
  summary.csv  per (task, encoder, dim, pooling): mean, sample sd, n over seeds
  errors.csv   written only when tuples failed (same key columns + message)

Rows are sorted canonically (task, encoder, dim, pooling, seed) regardless
of worker schedule, and accuracy cells use repr(float), so identical
configs reproduce identical bytes (set timing=off to also pin wall_ms).
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoders as enc
from .embeddings import (
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
    workers: int = 1
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
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.oov not in ("drop", "zero"):
            raise ConfigError(f"oov policy must be drop or zero, got {self.oov!r}")

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Key=value config file mirroring the dataclass fields; list values
        are comma-separated; paths resolve relative to the config file."""
        base = os.path.dirname(os.path.abspath(path))
        entries: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key in entries:
                    raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
                entries[key] = value.strip()

        known = {
            "embeddings", "tasks", "encoders", "dims", "poolings", "seeds",
            "probe", "probe_hidden", "max_epochs", "patience", "eval_interval",
            "probe_seed", "l2_grid", "output_dir", "workers", "timing", "oov",
            "lowercase", "clean",
        }
        for key in entries:
            if key not in known:
                raise ConfigError(f"{path}: unknown config key {key!r}")
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

        probe_kwargs = {}
        if "probe" in entries:
            probe_kwargs["kind"] = entries["probe"]
        if "probe_hidden" in entries:
            probe_kwargs["hidden"] = int(entries["probe_hidden"])
        if "max_epochs" in entries:
            probe_kwargs["max_epochs"] = int(entries["max_epochs"])
        if "patience" in entries:
            probe_kwargs["patience"] = int(entries["patience"])
        if "eval_interval" in entries:
            probe_kwargs["eval_interval"] = int(entries["eval_interval"])
        if "probe_seed" in entries:
            probe_kwargs["seed"] = int(entries["probe_seed"])
        if "l2_grid" in entries:
            probe_kwargs["l2_grid"] = tuple(float(v) for v in split_list("l2_grid"))

        kwargs: dict = {
            "embeddings": os.path.join(base, entries["embeddings"]),
            "tasks": tuple(os.path.join(base, t) for t in split_list("tasks")),
            "encoders": tuple(parse_encoder_spec(t) for t in split_specs(entries["encoders"])),
            "probe": ProbeConfig(**probe_kwargs),
        }
        if "dims" in entries:
            kwargs["dims"] = tuple(int(v) for v in split_list("dims"))
        if "poolings" in entries:
            kwargs["poolings"] = tuple(split_list("poolings"))
        if "seeds" in entries:
            kwargs["seeds"] = tuple(int(v) for v in split_list("seeds"))
        if "output_dir" in entries:
            kwargs["output_dir"] = os.path.join(base, entries["output_dir"])
        if "workers" in entries:
            kwargs["workers"] = int(entries["workers"])
        for flag in ("timing", "lowercase", "clean"):
            if flag in entries:
                if entries[flag] not in ("on", "off"):
                    raise ConfigError(f"{path}: {flag}= must be on or off")
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


@dataclass(frozen=True)
class _PreparedTask:
    """Per-task embedded sentences, shared across all sweep tuples.

    The sequence path follows the configured cleanup/OOV policy; the tree
    path always cleans (the corpus rules are stated for that encoder) and
    maps OOV tokens to zero rows so leaves stay aligned with the parse.
    """

    dataset: TaskDataset
    seqs: tuple  # TokenSequence per example (first sentence)
    seqs2: tuple | None  # pair second sentences
    tree_seqs: tuple | None
    tree_seqs2: tuple | None


def _prepare_task(config: ExperimentConfig, dataset: TaskDataset,
                  table: WordEmbeddingTable) -> _PreparedTask:
    def prep(texts, for_tree: bool):
        out = []
        for text in texts:
            tokens = tokenize(text, lowercase=config.lowercase)
            if for_tree or config.clean:
                tokens = clean_tokens(tokens)
            policy = "zero" if for_tree else config.oov
            out.append(embed_sentence(table, tokens, oov=policy))
        return tuple(out)

    is_pair = dataset.kind == "pair"
    seqs = prep(dataset.texts, False)
    seqs2 = prep(dataset.texts2, False) if is_pair else None
    tree_seqs = prep(dataset.texts, True) if dataset.trees is not None else None
    tree_seqs2 = prep(dataset.texts2, True) if is_pair and dataset.trees2 is not None else None
    return _PreparedTask(dataset, seqs, seqs2, tree_seqs, tree_seqs2)


# ---------------------------------------------------------------------------
# Job execution.
# ---------------------------------------------------------------------------


def _encode_all(params, prepared: _PreparedTask, poolings):
    """One encode pass over the task's corpus and, for pair tasks, its second
    corpus: ({pooling: x}, {pooling: x2}), the second None for single tasks."""
    ds = prepared.dataset
    on_trees = params.kind == "tree_lstm"
    seqs = prepared.tree_seqs if on_trees else prepared.seqs
    xs = enc.encode_corpus(params, list(seqs), poolings, trees=ds.trees if on_trees else None)
    if ds.kind != "pair":
        return xs, None
    seqs2 = prepared.tree_seqs2 if on_trees else prepared.seqs2
    xs2 = enc.encode_corpus(params, list(seqs2), poolings, trees=ds.trees2 if on_trees else None)
    return xs, xs2


def _probe_accuracy(x: np.ndarray, y: np.ndarray, plan: SplitPlan, config: ProbeConfig) -> float:
    if plan.kind == "cv":
        return float(kfold_accuracy(x, y, plan.folds, config))
    _model, report = train_probe(x, y, plan, config)
    return float(report.test_accuracy)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_job(
    prepared: _PreparedTask, spec: EncoderSpec, dim: int, seed: int,
    poolings: tuple[str, ...], probe_config: ProbeConfig, timing: bool,
) -> list[ResultRow]:
    """One (task, encoder, dim, seed) job: build the encoder and encode the
    corpus once, then train one probe per pooling; one row per pooling.

    Crash isolation: a build or encode failure marks every row of the job, a
    probe failure only its own row. A row's wall_ms is the shared build and
    encode time plus its own probe time, i.e. what the tuple would cost if
    run alone.
    """
    ds = prepared.dataset

    def row(pooling: str, accuracy: float, seconds: float, error: str = "") -> ResultRow:
        wall_ms = int(round(seconds * 1000)) if timing else 0
        return ResultRow(ds.name, spec.label, dim, pooling, seed, accuracy, wall_ms, error)

    start = time.perf_counter()
    try:
        params = enc.build_encoder(
            spec.kind, seed, prepared.seqs[0].dim, dim, **spec.hyper_dict()
        )
        xs, xs2 = _encode_all(params, prepared, poolings)
    except Exception as exc:  # crash isolation: one bad job never kills the sweep
        shared = time.perf_counter() - start
        return [row(p, float("nan"), shared, _describe(exc)) for p in poolings]
    shared = time.perf_counter() - start

    y = ds.label_indices
    config = replace(probe_config, seed=seed)
    rows = []
    for pooling in poolings:
        probe_start = time.perf_counter()
        accuracy, error = float("nan"), ""
        try:
            x = xs.pop(pooling)  # drop each matrix once its probe has it
            features = x if xs2 is None else pair_features(x, xs2.pop(pooling))
            accuracy = _probe_accuracy(features, y, ds.plan, config)
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
    table = load_embeddings(config.embeddings)
    prepared = [_prepare_task(config, ds, table) for ds in datasets]

    jobs = [
        (p, spec, dim, seed)
        for p in prepared
        for spec in config.encoders
        for dim in config.dims
        for seed in config.seeds
    ]

    def run(job):
        p, spec, dim, seed = job
        return _run_job(p, spec, dim, seed, config.poolings, config.probe, config.timing)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = [r for job_rows in pool.map(run, jobs) for r in job_rows]
    else:
        rows = [r for job in jobs for r in run(job)]
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
