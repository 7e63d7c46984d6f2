"""Span tracer that wraps the program's public calls from outside.

Nothing in the program is edited: while a Tracer is installed it replaces
module attributes with timing wrappers and puts the originals back on exit.
Each wrapped call records one span (name, start, end, parent, tuple id) in
memory, plus counts taken at the same boundary. The tuple id is the number
of build_encoder calls so far, because the runner builds one encoder per
tuple and then encodes and probes it; id 0 is the sweep's set-up.

Where each name is patched follows how the caller looks it up:
  randenc.runner binds load_embeddings, tokenize, clean_tokens,
    embed_sentence, load_task, train_probe and kfold_accuracy by name, so
    those are wrapped on randenc.runner;
  the runner reaches build_encoder and encode_corpus through the encoders
    module, and encode_corpus reaches encode and pool as module globals;
  tasks binds read_tree_file, and encoders and trees bind spectral_radius,
    uniform_init and xavier_uniform_init, by name at import;
  encode() and build_encoder() import encode_tree_lstm and build_tree_lstm
    from randenc.trees on every call, so those are wrapped on randenc.trees;
  probe's fit and loss_and_grad are module globals of randenc.probe.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import randenc.encoders
import randenc.probe
import randenc.runner
import randenc.tasks
import randenc.trees

LAYERS = ("embeddings", "tasks", "encoders", "trees", "numerics", "probe", "runner")
KINDS = ("borep", "rand_lstm", "esn", "cnn", "self_attention", "tree_lstm")

# (module object, attribute, layer)
_WRAPPED = (
    (randenc.runner, "run_experiment", "runner"),
    (randenc.runner, "write_results_csv", "runner"),
    (randenc.runner, "write_summary_csv", "runner"),
    (randenc.runner, "write_errors_csv", "runner"),
    (randenc.runner, "load_embeddings", "embeddings"),
    (randenc.runner, "tokenize", "embeddings"),
    (randenc.runner, "clean_tokens", "embeddings"),
    (randenc.runner, "embed_sentence", "embeddings"),
    (randenc.runner, "load_task", "tasks"),
    (randenc.runner, "train_probe", "probe"),
    (randenc.runner, "kfold_accuracy", "probe"),
    (randenc.encoders, "build_encoder", "encoders"),
    (randenc.encoders, "encode_corpus", "encoders"),
    (randenc.encoders, "encode", "encoders"),
    (randenc.encoders, "pool", "encoders"),
    (randenc.encoders, "spectral_radius", "numerics"),
    (randenc.encoders, "uniform_init", "numerics"),
    (randenc.encoders, "xavier_uniform_init", "numerics"),
    (randenc.trees, "uniform_init", "numerics"),
    (randenc.tasks, "read_tree_file", "trees"),
    (randenc.trees, "build_tree_lstm", "trees"),
    (randenc.trees, "encode_tree_lstm", "trees"),
    (randenc.probe, "fit", "probe"),
    (randenc.probe, "loss_and_grad", "probe"),
)

_WRITERS = ("write_results_csv", "write_summary_csv", "write_errors_csv")
_PREPARE = ("tokenize", "clean_tokens", "embed_sentence")
_START, _END, _PARENT, _TUPLE, _NAME = range(5)


def loss_grad_flops(params, x, kind: str) -> int:
    """Multiply-add count (x2) of one probe loss_and_grad call, computed from
    shapes: logreg 4nFC (logits and weight gradient); mlp 4nFH + 6nHC."""
    n, f = x.shape
    if kind == "logreg":
        return 4 * n * f * params[0].shape[0]
    h, c = params[0].shape[0], params[2].shape[0]
    return 4 * n * f * h + 6 * n * h * c


class Tracer:
    """Spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.words_used: set[str] = set()
        self._stack: list[int] = []
        self._tuple = 0
        self._saved: list[tuple] = []

    def __enter__(self):
        for module, attr, layer in _WRAPPED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        qualified = f"{layer}.{name}"
        tally = getattr(self, "_count_" + name, None)

        def wrapper(*args, **kwargs):
            if name == "build_encoder":
                self._tuple += 1
            span = [0.0, 0.0, stack[-1] if stack else -1, self._tuple, qualified]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if tally is not None:
                tally(result, args, span)
            return result

        return wrapper

    # Counts, each taken at the boundary where the work happens.

    def _count_load_embeddings(self, table, args, span):
        self.counts["embeddings.words_loaded"] += len(table)
        self.counts["embeddings.bytes_read"] += os.path.getsize(args[0])

    def _count_embed_sentence(self, seq, args, span):
        self.counts["embeddings.sentences_prepared"] += 1
        vectors = args[0].vectors
        self.words_used.update(t for t in args[1] if t in vectors)

    def _count_encode(self, context, args, span):
        self.counts["encoders.sentences_encoded"] += 1
        self.counts["encoders.tokens_encoded"] += len(args[1])
        self.counts["encoders.encode_s." + args[0].kind] += span[_END] - span[_START]

    def _count_encode_tree_lstm(self, values, args, span):
        self.counts["trees.nodes_encoded"] += 2 * len(args[1]) - 1  # binarized: 2L - 1

    def _count_spectral_radius(self, estimate, args, span):
        self.counts["numerics.power_iterations"] += estimate.iterations

    def _count_fit(self, result, args, span):
        self.counts["probe.fit_calls"] += 1
        self.counts["probe.epochs"] += result[2]

    def _count_loss_and_grad(self, result, args, span):
        self.counts["probe.loss_grad_calls"] += 1
        self.counts["probe.flop_computed"] += loss_grad_flops(args[0], args[1], args[4])

    def _count_run_experiment(self, result, args, span):
        self.counts["runner.tuples"] += len(result.rows)
        self.counts["runner.tuples_failed"] += len(result.errors)

    # Derived metrics.

    def totals(self) -> dict[str, float]:
        """Total time and self time (span minus its direct children) per span
        name and per layer."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, float] = defaultdict(float)
        for span, inner in zip(self.spans, child):
            duration = span[_END] - span[_START]
            layer = span[_NAME].split(".", 1)[0]
            out[span[_NAME]] += duration
            out[layer + ".self_s"] += duration - inner
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced sweep that every workload
        exercises (see details() for the rest)."""
        t = self.totals()
        c = self.counts
        trials = c["probe.loss_grad_calls"] - c["probe.fit_calls"]
        m = {
            "embeddings.load_s": t["embeddings.load_embeddings"],
            "embeddings.words_loaded": c["embeddings.words_loaded"],
            "embeddings.words_used_frac": (
                len(self.words_used) / c["embeddings.words_loaded"]
                if c["embeddings.words_loaded"] else 0.0
            ),
            "embeddings.bytes_read": c["embeddings.bytes_read"],
            "embeddings.prepare_s": sum(t["embeddings." + n] for n in _PREPARE),
            "embeddings.sentences_prepared": c["embeddings.sentences_prepared"],
            "tasks.load_s": t["tasks.load_task"],
            "encoders.build_s": t["encoders.build_encoder"],
            "numerics.power_iterations": c["numerics.power_iterations"],
            "encoders.encode_s": t["encoders.encode"],
            "encoders.pool_s": t["encoders.pool"],
            "encoders.sentences_encoded": c["encoders.sentences_encoded"],
            "encoders.tokens_encoded": c["encoders.tokens_encoded"],
            "trees.nodes_encoded": c["trees.nodes_encoded"],
            "probe.train_s": t["probe.train_probe"] + t["probe.kfold_accuracy"],
            "probe.loss_grad_s": t["probe.loss_and_grad"],
            "probe.fit_calls": c["probe.fit_calls"],
            "probe.epochs": c["probe.epochs"],
            "probe.loss_grad_calls": c["probe.loss_grad_calls"],
            # every fit makes one initial call; each later call is a line-search
            # trial, and each accepted trial is one epoch
            "probe.accept_ratio": c["probe.epochs"] / trials if trials else 0.0,
            "probe.flop_computed": c["probe.flop_computed"],
            "runner.write_s": sum(t["runner." + n] for n in _WRITERS),
            "runner.tuples": c["runner.tuples"],
            "runner.tuples_failed": c["runner.tuples_failed"],
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = t[layer + ".self_s"]
        return m

    def details(self) -> dict[str, float]:
        """Times of calls only some workloads make: encode per encoder kind,
        TreeLSTM encode, ESN spectral radius. On a workload that never makes
        the call they are exactly 0, so they are reported beside the
        per-layer metrics, not among them."""
        t, c = self.totals(), self.counts
        m = {"encoders.encode_s." + k: c["encoders.encode_s." + k] for k in KINDS}
        m["trees.encode_s"] = t["trees.encode_tree_lstm"]
        m["numerics.spectral_radius_s"] = t["numerics.spectral_radius"]
        return m

    def per_tuple(self) -> dict[int, dict[str, float]]:
        """Build, encode (encode_corpus, pooling included) and probe seconds
        per tuple id, from the spans the runner made directly."""
        stages = {
            "encoders.build_encoder": "build",
            "encoders.encode_corpus": "encode",
            "probe.train_probe": "probe",
            "probe.kfold_accuracy": "probe",
        }
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            stage = stages.get(span[_NAME])
            if stage:
                out[span[_TUPLE]][stage] += span[_END] - span[_START]
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": s[_START], "end": s[_END],
                    "parent": s[_PARENT], "tuple": s[_TUPLE],
                }) + "\n")
