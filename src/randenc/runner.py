"""Experiment harness: sweep encoder kind x output dim x pooling x seed
over a set of tasks, train one probe per tuple, and emit result tables.

Work is scheduled per (task, encoder, dim, seed) job: the encoder is built
and the corpus encoded once, every configured pooling is taken from that
one encoding, and each pooling gets its own probe and result row. Jobs run
on every usable core, one BLAS thread per process (see _run_jobs).

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
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import encoders as enc
from . import parallel
from .embeddings import (
    TokenSequence,
    WordEmbeddingTable,
    clean_tokens,
    embed_sentence,
    load_embeddings,
    read_key_values,
    read_lines,
    tokenize,
)
from .encoders import ConfigError, EncoderSpec, parse_encoder_spec
from .probe import (
    DegenerateTaskError,
    ProbeConfig,
    SplitPlan,
    cv_fold_splits,
    kfold_accuracy,
    pair_features,
    train_probe,
)
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
    "workers": "jobs run on every usable core, one process each",
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
        for spec in self.encoders:
            for dim in self.dims:
                spec.check(dim)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Key=value config file mirroring the dataclass fields; list values
        are comma-separated; paths resolve relative to the config file."""
        base = os.path.dirname(os.path.abspath(path))
        lines = read_lines(path, lambda line_no, _offset, reason: ConfigError(
            f"{path}:{line_no}: {reason}"
        ))
        entries, line_of = read_key_values(lines, path, _CONFIG_KEYS | _REMOVED_KEYS.keys(),
                                           ConfigError, "config")

        def where(key: str) -> str:
            return f"{path}:{line_of[key]}"

        for key in entries:
            if key in _REMOVED_KEYS:
                raise ConfigError(f"{where(key)}: config key {key!r} was removed: "
                                  f"{_REMOVED_KEYS[key]}")
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

        try:
            specs = tuple(parse_encoder_spec(t) for t in split_specs(entries["encoders"]))
        except ConfigError as exc:
            raise ConfigError(f"{where('encoders')}: {exc}") from None
        kwargs: dict = {
            "embeddings": os.path.join(base, entries["embeddings"]),
            "tasks": tuple(os.path.join(base, t) for t in split_list("tasks")),
            "encoders": specs,
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
        try:
            return cls(probe=ProbeConfig(**probe_kwargs), **kwargs)
        except ValueError as exc:  # a check that spans keys names the file only
            raise ConfigError(f"{path}: {exc}") from None


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
    paths = sorted({enc.KINDS[spec.kind].reads_parses for spec in config.encoders})
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


class _Job(NamedTuple):
    """One (task, encoder, dim, seed) job and what it runs on: the corpora
    its kind encodes, (TokenSequences, parses or None) each, the width of
    their vectors, and the sweep's config."""

    dataset: TaskDataset
    corpora: list
    in_dim: int
    spec: EncoderSpec
    dim: int
    seed: int
    config: ExperimentConfig

    def row(self, pooling: str, accuracy: float, seconds: float, error: str = "") -> ResultRow:
        wall_ms = int(round(seconds * 1000)) if self.config.timing else 0
        return ResultRow(self.dataset.name, self.spec.label, self.dim, pooling, self.seed,
                         accuracy, wall_ms, error)

    def failed(self, seconds: float, error: str) -> list[ResultRow]:
        return [self.row(p, float("nan"), seconds, error) for p in self.config.poolings]


def _run_job(job: _Job) -> list[ResultRow]:
    """Build the job's encoder and encode each corpus once, then train one
    probe per pooling; one row per pooling.

    Crash isolation: a build or encode failure marks every row of the job, a
    probe failure only its own row. A row's wall_ms is the shared build and
    encode time plus its own probe time, i.e. what the tuple would cost if
    run alone.
    """
    start = time.perf_counter()
    try:
        params = enc.build_encoder(job.spec.kind, job.seed, job.in_dim, job.dim,
                                   **job.spec.hyper_dict())
        pooled = [enc.encode_corpus(params, list(seqs), job.config.poolings, trees=parses)
                  for seqs, parses in job.corpora]
    except Exception as exc:  # crash isolation: one bad job never kills the sweep
        return job.failed(time.perf_counter() - start, _describe(exc))
    shared = time.perf_counter() - start

    y = job.dataset.label_indices
    probe_config = replace(job.config.probe, seed=job.seed)
    rows = []
    for pooling in job.config.poolings:
        probe_start = time.perf_counter()
        accuracy, error = float("nan"), ""
        try:
            xs = [by_pooling.pop(pooling) for by_pooling in pooled]  # freed once probed
            features = pair_features(*xs) if len(xs) == 2 else xs[0]
            accuracy = _probe_accuracy(features, y, job.dataset.plan, probe_config)
        except Exception as exc:
            error = _describe(exc)
        rows.append(job.row(pooling, accuracy, shared + time.perf_counter() - probe_start, error))
    return rows


def _run_jobs(jobs: list[_Job]) -> list[ResultRow]:
    """Every job's rows, in no particular order.

    Every job runs at one BLAS thread, in this process or in a forked worker
    (see _run_on_cores), and the BLAS thread count is restored afterwards.
    Where a job ran changes none of its rows but their wall_ms. Where
    OpenBLAS's thread setter cannot be found, every job runs here in turn.
    """
    threads = parallel.blas_threads()
    if threads is None:
        return [row for job in jobs for row in _run_job(job)]
    parallel.set_blas_threads(1)
    try:
        return _run_on_cores(jobs)
    finally:
        parallel.set_blas_threads(threads)


def _run_on_cores(jobs: list[_Job]) -> list[ResultRow]:
    """The jobs' rows, run in this process and up to usable_cores - 1 forked
    workers.

    This process runs the first job before any worker starts, so the
    sweep's first build, and the memory one job takes here, are what they
    are with no workers; only then is the fork context looked up, so a
    sweep that starts no worker (one usable core, fewer than three jobs, or
    no fork) never imports multiprocessing. Then the workers are sent job
    numbers from the queue while this process takes jobs from it too. While
    more than two jobs per worker remain, the workers are sent two jobs
    each, so that a worker never waits for this process to finish a job
    before it starts its next; after that, one each, so that uneven jobs
    still balance at the end. Workers inherit the inputs, and the BLAS
    thread count, at the fork, which comes before the pool starts a thread;
    only job numbers and rows cross between processes. No worker outlives
    the call.

    OpenBLAS stops its threads at a fork and starts them again at its next
    count change, and a new thread busy-waits for work for about 0.1 s. So
    once the workers are forked, this process sets the count to 1 again:
    that busy wait then overlaps the first jobs, and the caller's restore
    after the sweep starts no thread, so it does not slow whatever the
    caller does next.

    A worker that dies fails every job sent to the pool and not finished,
    since the pool then stops. If that is one job, its rows become error
    rows; if several, each is run again alone in a new worker, and those
    whose worker dies again get error rows. This process then runs the
    remaining jobs itself, at one BLAS thread.
    """
    queue = deque(range(len(jobs)))
    rows = _run_job(jobs[queue.popleft()]) if jobs else []
    workers = min(parallel.usable_cores() - 1, len(queue) - 1)
    died: list[int] = []
    if workers > 0 and parallel.fork_context() is not None:
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        running: dict = {}  # future -> job number
        broken = False
        forked = False
        with _worker_pool(workers, jobs) as pool:
            while running or (queue and not broken):
                slots = workers * (2 if len(queue) > 2 * workers else 1)
                while queue and not broken and len(running) < slots:
                    try:
                        running[pool.submit(_run_in_worker, queue[0])] = queue[0]
                    except BrokenProcessPool:  # a worker died since the last harvest
                        broken = True
                    else:
                        queue.popleft()
                if not forked:  # the pool forks its workers at the first submit
                    parallel.set_blas_threads(1)
                    forked = True
                if queue and not broken:
                    rows += _run_job(jobs[queue.popleft()])
                else:
                    wait(running, return_when=FIRST_COMPLETED)
                for future in [f for f in running if f.done()]:
                    i = running.pop(future)
                    try:
                        rows += future.result()
                    except BrokenProcessPool:
                        died.append(i)
                        broken = True
        if len(died) > 1:
            again = {i: _rerun_alone(i, jobs) for i in died}
            rows += [row for job_rows in again.values() if job_rows for row in job_rows]
            died = [i for i, job_rows in again.items() if job_rows is None]
    for i in died:
        rows += jobs[i].failed(0.0, _WORKER_DIED)
    for i in queue:
        rows += _run_job(jobs[i])
    return rows


def _rerun_alone(i: int, jobs: list[_Job]) -> list[ResultRow] | None:
    """Job i's rows, run in a new worker of its own; None if it died."""
    from concurrent.futures.process import BrokenProcessPool

    with _worker_pool(1, jobs) as pool:
        try:
            return pool.submit(_run_in_worker, i).result()
        except BrokenProcessPool:
            return None


def _worker_pool(workers: int, jobs: list[_Job]):
    """A pool of forked workers that run jobs by number (_run_in_worker)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=parallel.fork_context(),
                               initializer=_start_worker, initargs=(jobs,))


_WORKER_DIED = "BrokenProcessPool: the worker process running this job died"

# In a worker: the sweep's jobs, inherited from the process that forked it.
_worker_jobs: list[_Job] = []


def _start_worker(jobs: list[_Job]) -> None:
    global _worker_jobs
    _worker_jobs = jobs


def _run_in_worker(i: int) -> list[ResultRow]:
    return _run_job(_worker_jobs[i])


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the full sweep; returns rows in canonical order and writes
    results.csv / summary.csv (and errors.csv when applicable) under
    config.output_dir."""
    parsed = [spec.kind for spec in config.encoders if enc.KINDS[spec.kind].reads_parses]
    # a task's parses are read and checked only for a sweep that encodes with
    # them: parsing is most of the load of a small task
    datasets = [load_task(path, parses=bool(parsed)) for path in config.tasks]
    # rows are keyed by task name, so two manifests with one name would merge
    # into one task whose repeats the summary counts as extra seeds
    names = tuple(ds.name for ds in datasets)
    if len(set(names)) != len(names):
        raise ConfigError(f"task names must be distinct, got {names}")
    missing = [ds.name for ds in datasets if not ds.has_trees]
    if parsed and missing:
        raise ConfigError(
            f"{parsed[0]} is in the encoder list but these tasks have no "
            f"parse trees: {', '.join(missing)}"
        )
    for ds in datasets:
        if ds.plan.kind == "cv":
            # any seed gives the verdict every seed would (see cv_fold_splits)
            try:
                cv_fold_splits(ds.label_indices, ds.plan.folds, config.seeds[0])
            except DegenerateTaskError as exc:
                raise DegenerateTaskError(f"task {ds.name!r}: {exc}") from None
    table, prepared = _prepare_tasks(config, datasets)

    jobs = [
        _Job(ds, by_path[enc.KINDS[spec.kind].reads_parses], table.dim, spec, dim, seed, config)
        for ds, by_path in zip(datasets, prepared)
        for spec in config.encoders
        for dim in config.dims
        for seed in config.seeds
    ]
    rows = _run_jobs(jobs)
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
    return repr(float(value))


# encoder labels may carry commas ("cnn(window=2,from_borep=true)"), so
# cells go through the csv module, which quotes exactly when needed


def _write_csv(path: str, header: str, rows) -> None:
    """A table at path, written whole: to a temporary file beside it that
    is synced to disk and then replaces it. An exception leaves an earlier
    table at path as it was and removes the temporary file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header.split(","))
            writer.writerows(rows)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_results_csv(path: str, rows) -> None:
    _write_csv(path, RESULTS_HEADER, ([r.task, r.encoder, r.dim, r.pooling, r.seed,
                                       _fmt(r.accuracy), r.wall_ms] for r in rows))


def write_summary_csv(path: str, rows) -> None:
    _write_csv(path, SUMMARY_HEADER, ([r.task, r.encoder, r.dim, r.pooling,
                                       _fmt(r.mean), _fmt(r.sd), r.n] for r in rows))


def write_errors_csv(path: str, rows) -> None:
    _write_csv(path, "task,encoder,dim,pooling,seed,error", (
        [r.task, r.encoder, r.dim, r.pooling, r.seed, r.error.replace("\n", " ")] for r in rows
    ))
