import csv
import math
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from randenc import encoders as enc
from randenc import parallel, runner
from randenc.encoders import ConfigError
from randenc.runner import (
    RESULTS_HEADER,
    SUMMARY_HEADER,
    EncoderSpec,
    ExperimentConfig,
    ResultRow,
    aggregate,
    parse_encoder_spec,
    run_experiment,
    write_results_csv,
    write_summary_csv,
)
from randenc.tasks import (
    TaskFormatError,
    make_synthetic_embeddings,
    make_synthetic_order_task,
    synthetic_vocabulary,
    write_task_files,
)
from randenc.embeddings import EmbeddingFormatError, write_embeddings
from randenc.probe import ProbeConfig, SplitPlan, kfold_accuracy
from randenc.trees import TreeParseError

from conftest import add_twin_tree_kind, assert_matches_oracle


# ---------------------------------------------------------------------------
# encoder spec parsing
# ---------------------------------------------------------------------------


def test_parse_plain_kind():
    spec = parse_encoder_spec("borep")
    assert spec.kind == "borep"
    assert spec.hyper == ()
    assert spec.label == "borep"


def test_parse_with_hypers():
    spec = parse_encoder_spec("cnn(window=2,from_borep=true)")
    assert spec.kind == "cnn"
    assert spec.hyper_dict() == {"window": 2, "from_borep": True}
    assert spec.label == "cnn(window=2,from_borep=true)"


def test_parse_value_types():
    spec = parse_encoder_spec("esn(rho=0.9,sparsity=0.5,leak=1.0)")
    d = spec.hyper_dict()
    assert d["rho"] == 0.9 and isinstance(d["rho"], float)
    assert d["sparsity"] == 0.5


def test_parse_string_hyper():
    spec = parse_encoder_spec("tree_lstm(node_domain=leaves)")
    assert spec.hyper_dict() == {"node_domain": "leaves"}


def test_parse_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        parse_encoder_spec("transformer")


def test_parse_rejects_malformed():
    with pytest.raises(ConfigError):
        parse_encoder_spec("cnn(window=2")
    with pytest.raises(ConfigError):
        parse_encoder_spec("cnn(window)")


def test_parse_takes_the_names_the_builder_takes(monkeypatch):
    for token, message in [
        ("tree_lstm(nodes=all)", "tree_lstm takes no 'nodes'; it takes node_domain)"),
        ("borep(window=1)", "borep takes no 'window')"),
        ("esn(seed=3)", "esn takes no 'seed'; it takes rho, sparsity, leak, input_scaling)"),
    ]:
        with pytest.raises(ConfigError) as err:
            parse_encoder_spec(token)
        assert str(err.value) == f"encoder spec {token!r}: bad hyperparameters ({message}"
    # a registered kind's names are read from its builder's signature too
    twin = add_twin_tree_kind(monkeypatch)
    spec = parse_encoder_spec(f"{twin}(node_domain=leaves)")
    assert spec.hyper_dict() == {"node_domain": "leaves"}
    with pytest.raises(ConfigError, match=f"{twin} takes no 'nodes'; it takes node_domain"):
        parse_encoder_spec(f"{twin}(nodes=all)")


# ---------------------------------------------------------------------------
# experiment fixture: tiny synthetic sweep on disk
# ---------------------------------------------------------------------------


def as_pair_task(ds):
    """Pair the order task with itself shifted by one example, trees included."""
    texts2 = ds.texts[1:] + ds.texts[:1]
    trees2 = ds.trees[1:] + ds.trees[:1] if ds.trees is not None else None
    return replace(ds, name="pairs", kind="pair", texts2=texts2, trees2=trees2)


def stage_experiment(tmp_path, *, n=80, encoders="borep,rand_lstm", dims="16",
                     seeds="1,2", poolings="max", extra="", with_trees=True,
                     embed_dim=8, pair=False, cv_folds=0):
    task_dir = tmp_path / "order"
    ds = make_synthetic_order_task(n, n_fillers=16, seed=0, with_trees=with_trees)
    if pair:
        ds = as_pair_task(ds)
    if cv_folds:
        ds = replace(ds, plan=SplitPlan(kind="cv", folds=cv_folds))
    manifest = write_task_files(ds, str(task_dir))
    table = make_synthetic_embeddings(synthetic_vocabulary(16), embed_dim, seed=1)
    emb_path = tmp_path / "vectors.txt"
    write_embeddings(table, str(emb_path))
    config_path = tmp_path / "sweep.config"
    config_path.write_text(
        "embeddings=vectors.txt\n"
        f"tasks={os.path.relpath(manifest, tmp_path)}\n"
        f"encoders={encoders}\n"
        f"dims={dims}\n"
        f"poolings={poolings}\n"
        f"seeds={seeds}\n"
        "max_epochs=40\n"
        "output_dir=out\n"
        "timing=off\n"
        + extra,
        encoding="utf-8",
    )
    return str(config_path)


def test_from_file_resolves_paths_and_flags(tmp_path):
    path = stage_experiment(tmp_path)
    config = ExperimentConfig.from_file(path)
    assert os.path.isabs(config.embeddings)
    assert config.dims == (16,)
    assert config.seeds == (1, 2)
    assert config.timing is False
    assert config.probe.max_epochs == 40
    assert [s.kind for s in config.encoders] == ["borep", "rand_lstm"]


# case -> (config line, expected message)
BAD_CONFIG_LINES = {
    "unknown_key": ("fancices=1", "unknown config key 'fancices'"),
    "removed_workers": ("workers=2", "config key 'workers' was removed"),
    "timing": ("timing=maybe", "timing= must be on or off, got 'maybe'"),
    "lowercase": ("lowercase=yes", "lowercase= must be on or off, got 'yes'"),
    "clean": ("clean=1", "clean= must be on or off, got '1'"),
    "dims": ("dims=4,abc", "dims= takes int values, got '4,abc'"),
    "seeds": ("seeds=1,2.5", "seeds= takes int values, got '1,2.5'"),
    "max_epochs": ("max_epochs=lots", "max_epochs= takes int values"),
    "patience": ("patience=", "patience= takes int values, got ''"),
    "eval_interval": ("eval_interval=1e3", "eval_interval= takes int values"),
    "probe_seed": ("probe_seed=0", "config key 'probe_seed' was removed"),
    "probe_hidden": ("probe_hidden=50.0", "probe_hidden= takes int values"),
    "l2_grid": ("l2_grid=0.1,big", "l2_grid= takes float values, got '0.1,big'"),
    "encoders": ("encoders=bogus", "unknown encoder kind 'bogus'"),
    "encoder_hyper": ("encoders=cnn(window)", "expected key=value, got 'window'"),
    "encoder_hyper_name": ("encoders=cnn(windw=2)", "cnn takes no 'windw'; it takes window"),
    "encoder_hyper_repeat": ("encoders=cnn(window=2,window=3)", "'window' is given more than once"),
    "encoder_hyper_int": ("encoders=borep,cnn(window=abc)", "window= takes int values, got 'abc'"),
    "encoder_hyper_float": ("encoders=esn(rho=high)", "esn rho= takes float values, got 'high'"),
    "encoder_hyper_paren": ("encoders=cnn(window=2))", "cnn window= takes int values, got '2)'"),
    "encoder_hyper_bool": ("encoders=cnn(from_borep=1)", "from_borep= takes bool values, got 1"),
}


def stage_config_line(tmp_path, line, *more):
    """A staged config with line (and more) in it; returns (path, line's
    number)."""
    path = stage_experiment(tmp_path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for added in (line, *more):
        key = added.partition("=")[0]
        # a key stage_experiment writes is replaced on its own line, others appended
        keys = [existing.partition("=")[0] for existing in lines]
        if key in keys:
            lines[keys.index(key)] = added
        else:
            lines.append(added)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path, lines.index(line) + 1


@pytest.mark.parametrize("case", BAD_CONFIG_LINES)
def test_from_file_error_names_line(tmp_path, case):
    line, message = BAD_CONFIG_LINES[case]
    path, line_no = stage_config_line(tmp_path, line)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert str(err.value).startswith(f"{path}:{line_no}: ")
    assert message in str(err.value)


# values that parse but fail a check of the whole config or of the probe
BAD_CONFIG_VALUES = {
    "oov": ("oov=foo", "oov policy must be drop or zero, got 'foo'"),
    "poolings": ("poolings=median", "unknown pooling 'median'"),
    "dims_zero": ("dims=0", "dims must be positive, got (0,)"),
    "dims_empty": ("dims=", "dims and poolings must all be non-empty"),
    "seeds_repeat": ("seeds=1,1", "seeds must be distinct, got (1, 1)"),
    "seeds_negative": ("seeds=-1", "seeds must be non-negative, got (-1,)"),
    "probe": ("probe=svm", "probe kind must be logreg or mlp, got 'svm'"),
    "max_epochs": ("max_epochs=0", "max_epochs, patience and eval_interval must be >= 1"),
    "l2_negative": ("l2_grid=0,-0.1", "l2 grid values must be finite and >= 0"),
    "l2_nan": ("l2_grid=0,nan", "l2 grid values must be finite and >= 0"),
    "l2_inf": ("l2_grid=inf", "l2 grid values must be finite and >= 0"),
    "l2_repeat": ("l2_grid=0.1,0,0.1", "l2 grid values must be distinct"),
    # encoder ranges and widths are checked at load, not when a job builds
    "encoder_ranges": (
        "encoders=borep,esn(leak=0),cnn(window=0),self_attention(heads=0),rand_lstm",
        "encoder spec 'esn(leak=0)': bad hyperparameters "
        "(esn leak rate must be in (0, 1], got 0)",
    ),
    "encoder_window": ("encoders=borep,cnn(window=0)",
                       "encoder spec 'cnn(window=0)': bad hyperparameters "
                       "(cnn window must be >= 1, got 0)"),
    "encoder_heads": ("encoders=self_attention(heads=0)",
                      "encoder spec 'self_attention(heads=0)': bad hyperparameters "
                      "(self_attention needs out_dim divisible by heads, got 16 % 0)"),
    "encoder_width": ("dims=16,127", "encoder spec 'rand_lstm': bad hyperparameters "
                      "(rand_lstm needs an even output dim, got 127)"),
    "attention_pe_width": (
        "encoders=borep,self_attention(heads=3)", "dims=15",
        "encoder spec 'self_attention(heads=3)': bad hyperparameters "
        "(self_attention with use_pe needs an even output dim, got 15)",
    ),
}


@pytest.mark.parametrize("case", BAD_CONFIG_VALUES)
def test_from_file_value_error_names_file(tmp_path, case):
    *lines, message = BAD_CONFIG_VALUES[case]
    path, _ = stage_config_line(tmp_path, *lines)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_file(path)
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)


def test_from_file_missing_required(tmp_path):
    p = tmp_path / "bad.config"
    p.write_text("tasks=x\nencoders=borep\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="missing embeddings"):
        ExperimentConfig.from_file(str(p))


def test_from_file_parenthesized_encoder_list(tmp_path):
    path = stage_experiment(tmp_path, encoders="borep,cnn(window=1,from_borep=true)")
    config = ExperimentConfig.from_file(path)
    assert len(config.encoders) == 2
    assert config.encoders[1].label == "cnn(window=1,from_borep=true)"


def test_config_validation():
    spec = parse_encoder_spec("borep")
    with pytest.raises(ConfigError):
        ExperimentConfig("e", ("t",), (spec,), seeds=(1, 1))
    with pytest.raises(ConfigError):
        ExperimentConfig("e", ("t",), (spec,), poolings=("avg",))
    with pytest.raises(ConfigError, match="poolings must be distinct"):
        ExperimentConfig("e", ("t",), (spec,), poolings=("max", "max"))
    with pytest.raises(ConfigError, match="encoders must be distinct"):
        ExperimentConfig("e", ("t",), (spec, parse_encoder_spec("borep")))
    with pytest.raises(ConfigError, match="dims must be distinct"):
        ExperimentConfig("e", ("t",), (spec,), dims=(8, 8))
    with pytest.raises(ConfigError, match="tasks must be distinct"):
        ExperimentConfig("e", ("t", "t"), (spec,))
    with pytest.raises(ConfigError, match="seeds must be non-negative"):
        ExperimentConfig("e", ("t",), (spec,), seeds=(1, -1))
    # same kind, different hyperparameters: distinct columns of the sweep
    cnn2 = parse_encoder_spec("cnn(window=2)")
    ExperimentConfig("e", ("t",), (parse_encoder_spec("cnn"), cnn2), dims=(8, 16))
    with pytest.raises(ConfigError):
        ExperimentConfig("e", ("t",), (), dims=(16,))


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------


def test_repeated_task_rejected_before_compute(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, seeds="1")
    config = ExperimentConfig.from_file(path)
    # a second manifest in another directory, under the same name=
    copy = tmp_path / "copy"
    copy.mkdir()
    for f in (tmp_path / "order").iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    config = replace(config, tasks=(config.tasks[0], str(copy / "task.manifest")))
    monkeypatch.setattr(runner, "load_embeddings", lambda *a: pytest.fail("vectors loaded"))
    with pytest.raises(ConfigError, match="task names must be distinct"):
        run_experiment(config)
    assert not (tmp_path / "out").exists()



def test_repeated_task_in_config_file_rejected(tmp_path):
    path = stage_experiment(tmp_path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    manifest = "order/task.manifest"
    assert f"tasks={manifest}\n" in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(f"tasks={manifest}", f"tasks={manifest},{manifest}"))
    with pytest.raises(ConfigError, match="tasks must be distinct"):
        ExperimentConfig.from_file(path)


def test_sweep_cardinality_and_order(tmp_path):
    path = stage_experiment(tmp_path, encoders="rand_lstm,borep", dims="16,8",
                            seeds="2,1", poolings="mean,max")
    config = ExperimentConfig.from_file(path)
    result = run_experiment(config)
    assert len(result.rows) == 2 * 2 * 2 * 2
    keys = [r.sort_key for r in result.rows]
    assert keys == sorted(keys)
    # canonical order sorts encoder label, dim, pooling, seed
    assert result.rows[0].encoder == "borep"
    assert result.rows[0].dim == 8
    assert result.rows[0].pooling == "max"
    assert result.rows[0].seed == 1
    assert not result.errors
    for row in result.rows:
        assert 0.0 <= row.accuracy <= 1.0
        assert row.wall_ms == 0  # timing=off


def test_results_csv_written(tmp_path):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1")
    config = ExperimentConfig.from_file(path)
    run_experiment(config)
    out = os.path.join(config.output_dir, "results.csv")
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 2
    summary = os.path.join(config.output_dir, "summary.csv")
    with open(summary, encoding="utf-8") as fh:
        assert fh.read().splitlines()[0] == SUMMARY_HEADER


def test_byte_identical_reruns(tmp_path):
    path = stage_experiment(tmp_path, encoders="borep,esn(sparsity=0.6)",
                            dims="16", seeds="1,2")
    config = ExperimentConfig.from_file(path)
    run_experiment(config)
    results = os.path.join(config.output_dir, "results.csv")
    summary = os.path.join(config.output_dir, "summary.csv")
    first = (open(results, "rb").read(), open(summary, "rb").read())
    run_experiment(config)
    second = (open(results, "rb").read(), open(summary, "rb").read())
    assert first == second


def test_borep_equals_mapped_cnn_accuracy(tmp_path):
    path = stage_experiment(
        tmp_path, encoders="borep,cnn(window=1,from_borep=true)", seeds="1,2",
    )
    config = ExperimentConfig.from_file(path)
    result = run_experiment(config)
    by_encoder = {}
    for row in result.rows:
        by_encoder.setdefault(row.encoder, {})[row.seed] = row.accuracy
    assert by_encoder["borep"] == by_encoder["cnn(window=1,from_borep=true)"]


def test_crash_isolation_yields_error_rows(tmp_path):
    # at sparsity 1e-9 the reservoir draw is all zeros, which only the build
    # can find: that tuple errors, the rest proceed
    path = stage_experiment(
        tmp_path, encoders="borep,esn(sparsity=1e-9)", seeds="1",
    )
    config = ExperimentConfig.from_file(path)
    result = run_experiment(config)
    assert len(result.rows) == 2
    assert len(result.errors) == 1
    bad = result.errors[0]
    assert bad.encoder == "esn(sparsity=1e-9)"
    assert math.isnan(bad.accuracy)
    assert "ConfigError" in bad.error
    good = [r for r in result.rows if not r.error][0]
    assert good.encoder == "borep" and good.accuracy > 0.0
    errors_csv = os.path.join(config.output_dir, "errors.csv")
    assert os.path.exists(errors_csv)
    with open(errors_csv, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["task", "encoder", "dim", "pooling", "seed", "error"]
    assert len(rows) == 2
    # errored tuples never reach the summary
    assert all(s.encoder == "borep" for s in result.summary)


def test_no_errors_csv_on_clean_run(tmp_path):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1")
    config = ExperimentConfig.from_file(path)
    run_experiment(config)
    assert not os.path.exists(os.path.join(config.output_dir, "errors.csv"))


def test_parses_read_only_for_a_kind_that_reads_them(tmp_path):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1")
    (tmp_path / "order" / "trees.txt").write_text("(W a\n", encoding="utf-8")
    config = ExperimentConfig.from_file(path)
    assert not run_experiment(config).errors
    tree_config = replace(config, encoders=(parse_encoder_spec("tree_lstm"),))
    with pytest.raises(TreeParseError, match="unclosed"):
        run_experiment(tree_config)


def test_tree_lstm_without_trees_fails_fast(tmp_path):
    path = stage_experiment(tmp_path, encoders="tree_lstm", seeds="1",
                            with_trees=False)
    config = ExperimentConfig.from_file(path)
    with pytest.raises(ConfigError, match="parse trees"):
        run_experiment(config)


# ---------------------------------------------------------------------------
# one encode per (task, encoder, dim, seed) job, every pooling from it
# ---------------------------------------------------------------------------

JOB_ENCODERS = "borep,esn(sparsity=0.6),cnn,tree_lstm"


def read_bytes(config, name):
    with open(os.path.join(config.output_dir, name), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
def test_poolings_together_match_separate_runs(tmp_path, pair):
    path = stage_experiment(tmp_path, n=40, encoders=JOB_ENCODERS, seeds="1,2",
                            poolings="max,mean", pair=pair)
    both_config = ExperimentConfig.from_file(path)
    both = run_experiment(both_config)
    separate = []
    for pooling in ("max", "mean"):
        config = replace(both_config, poolings=(pooling,),
                         output_dir=str(tmp_path / f"out_{pooling}"))
        separate.extend(run_experiment(config).rows)
    assert not both.errors
    expected = sorted(separate, key=lambda r: r.sort_key)
    assert list(both.rows) == expected
    results, summary = tmp_path / "expected_results.csv", tmp_path / "expected_summary.csv"
    write_results_csv(str(results), expected)
    write_summary_csv(str(summary), aggregate(expected))
    assert read_bytes(both_config, "results.csv") == results.read_bytes()
    assert read_bytes(both_config, "summary.csv") == summary.read_bytes()


def count_encodes(monkeypatch):
    # encode_corpus reaches every sentence through its kind's batch encoder
    calls = Counter()
    for kind, entry in list(enc.KINDS.items()):
        def counting(params, seqs, trees, original=entry.encode_batch):
            for seq in seqs:
                calls[(params.kind, params.out_dim, params.seed, id(seq))] += 1
            return original(params, seqs, trees)

        monkeypatch.setitem(enc.KINDS, kind, entry._replace(encode_batch=counting))
    return calls


@pytest.mark.parametrize("pair", [False, True], ids=["single", "pair"])
@pytest.mark.parametrize("poolings", ["max", "max,mean"])
def test_each_sentence_encoded_once_per_job(tmp_path, monkeypatch, pair, poolings):
    n = 20
    path = stage_experiment(tmp_path, n=n, encoders="borep,tree_lstm", dims="8,16",
                            seeds="1,2", poolings=poolings, pair=pair)
    # calls made in a worker are counted in the worker's copy of calls
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
    calls = count_encodes(monkeypatch)
    result = run_experiment(ExperimentConfig.from_file(path))
    assert not result.errors
    corpora = 2 if pair else 1
    jobs = 2 * 2 * 2  # encoders x dims x seeds
    assert len(calls) == jobs * corpora * n
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_pair_task_encoding_matches_per_sentence_path(tmp_path, kind):
    hyper = "(sparsity=0.5)" if kind == "esn" else ""
    path = stage_experiment(tmp_path, n=40, pair=True, encoders=kind + hyper)
    config = ExperimentConfig.from_file(path)
    dataset = runner.load_task(config.tasks[0])
    on_trees = kind == "tree_lstm"
    table, [by_path] = runner._prepare_tasks(config, [dataset])
    corpora = by_path[on_trees]
    params = enc.build_encoder(kind, 3, 8, 16, **config.encoders[0].hyper_dict())
    pooled_pair = [
        enc.encode_corpus(params, list(seqs), ("max", "mean"), trees=parses)
        for seqs, parses in corpora
    ]
    assert len(pooled_pair) == 2
    for pooled, texts, trees in zip(pooled_pair, (dataset.texts, dataset.texts2),
                                    (dataset.trees, dataset.trees2)):
        token_lists = runner.tokenize_texts(texts, tree=on_trees, lowercase=config.lowercase,
                                            clean=config.clean)
        seqs = runner.embed_texts(table, token_lists, tree=on_trees, oov=config.oov)
        for pooling in ("max", "mean"):
            oracle = np.array([
                enc.encode_and_pool(params, seq, pooling, tree=tree if on_trees else None)
                for seq, tree in zip(seqs, trees)
            ])
            assert_matches_oracle(kind, pooled[pooling], oracle)


def test_any_kind_that_reads_parses_gets_them(tmp_path, monkeypatch):
    # the runner asks the kind table, not a kind name, which kinds read parses
    twin = add_twin_tree_kind(monkeypatch)
    path = stage_experiment(tmp_path, n=40, encoders=f"tree_lstm,{twin}", dims="8",
                            seeds="1,2", poolings="max,mean")
    result = run_experiment(ExperimentConfig.from_file(path))
    assert not result.errors
    tree_rows = [row for row in result.rows if row.encoder == "tree_lstm"]
    twin_rows = [replace(row, encoder="tree_lstm") for row in result.rows if row.encoder == twin]
    assert len(twin_rows) == 4 and twin_rows == tree_rows


@pytest.mark.parametrize("twin", [False, True], ids=["tree_lstm", "twin_tree"])
def test_kind_that_reads_parses_needs_tasks_with_parses(tmp_path, monkeypatch, twin):
    kind = add_twin_tree_kind(monkeypatch) if twin else "tree_lstm"
    path = stage_experiment(tmp_path, encoders=f"borep,{kind}", with_trees=False)
    with pytest.raises(ConfigError, match=f"^{kind} is in the encoder list but these "
                                          "tasks have no parse trees: order$"):
        run_experiment(ExperimentConfig.from_file(path))


@pytest.mark.parametrize("encoders, policies", [
    ("borep", {"drop": 1}),
    ("tree_lstm", {"zero": 1}),
    ("borep,tree_lstm", {"drop": 1, "zero": 1}),
])
def test_each_swept_path_prepared_once(tmp_path, monkeypatch, encoders, policies):
    # the sequence path embeds with oov=drop, the tree path with oov=zero
    n = 20
    path = stage_experiment(tmp_path, n=n, encoders=encoders, seeds="1")
    original = runner.embed_sentence
    calls = Counter()

    def counting(table, tokens, oov):
        calls[oov] += 1
        return original(table, tokens, oov=oov)

    monkeypatch.setattr(runner, "embed_sentence", counting)
    result = run_experiment(ExperimentConfig.from_file(path))
    assert not result.errors
    assert calls == {oov: count * n for oov, count in policies.items()}


def test_sweep_keeps_only_used_vectors_and_checks_every_line(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1")
    config = ExperimentConfig.from_file(path)
    with open(config.embeddings, "a", encoding="utf-8") as fh:
        fh.write("unused " + " ".join(["0.5"] * 8) + "\n")
    tables = []
    original = runner.load_embeddings

    def recording(path, vocab):
        tables.append(original(path, vocab))
        return tables[-1]

    monkeypatch.setattr(runner, "load_embeddings", recording)
    assert not run_experiment(config).errors
    dataset = runner.load_task(config.tasks[0])
    used = {token for text in dataset.texts for token in text.lower().split()}
    assert set(tables[0].vectors) == used
    # a malformed line on a word no text uses still fails the sweep at load
    with open(config.embeddings, encoding="utf-8") as fh:
        bad_line = len(fh.readlines()) + 1
    with open(config.embeddings, "a", encoding="utf-8") as fh:
        fh.write("unused2 0.5 oops" + " 0.5" * 6 + "\n")
    with pytest.raises(EmbeddingFormatError, match=rf"vectors\.txt:{bad_line}: unparseable"):
        run_experiment(config)


def test_build_failure_marks_every_pooling_row(tmp_path):
    # an all-zero reservoir draw fails the build: the whole job fails, both poolings
    path = stage_experiment(tmp_path, encoders="borep,esn(sparsity=1e-9)",
                            seeds="1", poolings="max,mean")
    result = run_experiment(ExperimentConfig.from_file(path))
    assert [(r.encoder, r.pooling) for r in result.errors] == [
        ("esn(sparsity=1e-9)", "max"), ("esn(sparsity=1e-9)", "mean"),
    ]
    assert all("ConfigError" in r.error and math.isnan(r.accuracy) for r in result.errors)
    assert len([r for r in result.rows if not r.error]) == 2


def test_encode_failure_marks_every_pooling_row(tmp_path, monkeypatch):
    def failing(params, seqs, trees):
        raise ArithmeticError("rand_lstm: non-finite values in encoder output")

    entry = enc.KINDS["rand_lstm"]
    monkeypatch.setitem(enc.KINDS, "rand_lstm", entry._replace(encode_batch=failing))
    path = stage_experiment(tmp_path, encoders="borep,rand_lstm", seeds="1",
                            poolings="max,mean")
    result = run_experiment(ExperimentConfig.from_file(path))
    assert [(r.encoder, r.pooling) for r in result.errors] == [
        ("rand_lstm", "max"), ("rand_lstm", "mean"),
    ]
    assert all(r.error.startswith("ArithmeticError") for r in result.errors)
    assert all(r.encoder == "borep" for r in result.rows if not r.error)


def test_probe_failure_marks_only_its_row(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1", poolings="max,mean")
    config = ExperimentConfig.from_file(path)
    clean = {r.pooling: r for r in run_experiment(config).rows}
    original = runner.train_probe
    calls = []

    def second_call_fails(*args, **kwargs):
        # a job probes its poolings in config order: max, then mean
        calls.append(None)
        if len(calls) == 2:
            raise FloatingPointError("probe diverged")
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "train_probe", second_call_fails)
    rows = {r.pooling: r for r in run_experiment(config).rows}
    assert rows["max"] == clean["max"]
    assert rows["mean"].error == "FloatingPointError: probe diverged"
    assert math.isnan(rows["mean"].accuracy)


def test_cv_task_scored_by_kfold_accuracy_at_sweep_seed(tmp_path):
    path = stage_experiment(tmp_path, n=40, encoders="borep", seeds="1,2", cv_folds=4)
    config = ExperimentConfig.from_file(path)
    result = run_experiment(config)
    dataset = runner.load_task(config.tasks[0])
    assert dataset.plan == SplitPlan(kind="cv", folds=4)
    assert config.probe == ProbeConfig(max_epochs=40)
    table, [by_path] = runner._prepare_tasks(config, [dataset])
    [(seqs, _parses)] = by_path[False]
    assert [(r.seed, r.error) for r in result.rows] == [(1, ""), (2, "")]
    for r in result.rows:
        params = enc.build_encoder("borep", r.seed, table.dim, 16)
        x = enc.encode_corpus(params, list(seqs), ("max",))["max"]
        probe = ProbeConfig(max_epochs=40, seed=r.seed)
        assert r.accuracy == kfold_accuracy(x, dataset.label_indices, 4, probe)


def test_wall_ms_includes_shared_build_and_encode(tmp_path, monkeypatch):
    original = enc.build_encoder

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return original(*args, **kwargs)

    monkeypatch.setattr(enc, "build_encoder", slow_build)
    path = stage_experiment(tmp_path, encoders="borep", seeds="1", poolings="max,mean")
    result = run_experiment(replace(ExperimentConfig.from_file(path), timing=True))
    assert [r.pooling for r in result.rows] == ["max", "mean"]
    assert all(r.wall_ms >= 50 for r in result.rows)


def test_empty_text_fails_before_any_encoding(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1")
    train = tmp_path / "order" / "train.tsv"
    lines = train.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "1\t\n"
    train.write_text("".join(lines), encoding="utf-8")
    builds = []
    monkeypatch.setattr(enc, "build_encoder", lambda *a, **k: builds.append(a))
    with pytest.raises(TaskFormatError, match=r"train\.tsv:3: empty text"):
        run_experiment(ExperimentConfig.from_file(path))
    assert builds == []


# ---------------------------------------------------------------------------
# jobs on every usable core
# ---------------------------------------------------------------------------


# jobs go to workers only where OpenBLAS's thread setter and fork are found
WORKERS = parallel.blas_threads() is not None and parallel.fork_context() is not None
needs_workers = pytest.mark.skipif(not WORKERS, reason="every job runs in this process")


def in_processes(monkeypatch, n):
    """Make the sweep run its jobs in n processes: this one and n - 1
    workers."""
    monkeypatch.setattr(parallel, "usable_cores", lambda: n)


class EndSweep(BaseException):
    """Raised from a build to end run_experiment, as a set-up-only call does."""


def logging_build(monkeypatch, log, effect=lambda kind, seed: None):
    """Wrap build_encoder so that every call, in whichever process makes it,
    appends "kind seed pid live-children blas-threads" to the file log,
    then calls effect(kind, seed)."""
    original = enc.build_encoder

    def build(kind, seed, *args, **hyper):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{kind} {seed} {os.getpid()} {len(multiprocessing.active_children())} "
                     f"{parallel.blas_threads()}\n")
        effect(kind, seed)
        return original(kind, seed, *args, **hyper)

    monkeypatch.setattr(enc, "build_encoder", build)


def read_log(log):
    with open(log, encoding="utf-8") as fh:
        return [line.split() for line in fh]


def test_tables_do_not_depend_on_the_process_count(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, encoders="borep,esn(sparsity=0.5),rand_lstm",
                            seeds="1,2,3", poolings="max,mean")
    config = ExperimentConfig.from_file(path)
    log = tmp_path / "builds.log"

    def one_bad_job(kind, seed):
        if (kind, seed) == ("esn", 2):
            raise FloatingPointError("bad draw")

    logging_build(monkeypatch, log, one_bad_job)
    threads = parallel.blas_threads()
    tables = {}
    for n in (2, 1):
        in_processes(monkeypatch, n)
        out = replace(config, output_dir=str(tmp_path / f"out{n}"))
        result = run_experiment(out)
        assert multiprocessing.active_children() == []
        assert parallel.blas_threads() == threads
        assert [(r.encoder, r.seed) for r in result.errors] == [("esn(sparsity=0.5)", 2)] * 2
        tables[n] = [read_bytes(out, name) for name in ("results.csv", "summary.csv", "errors.csv")]
        pids = {pid for _kind, _seed, pid, _children, _blas in read_log(log)}
        assert len(pids) == (n if WORKERS else 1)
        assert all(blas == str(1 if threads is not None else None)
                   for *_build, blas in read_log(log))
        log.unlink()
    assert tables[2] == tables[1]


@needs_workers
@pytest.mark.parametrize("processes", [2, 3])
def test_a_dead_worker_fails_only_its_job(tmp_path, monkeypatch, processes):
    path = stage_experiment(tmp_path, encoders="borep", seeds="1,2,3,4,5", poolings="max,mean")
    config = ExperimentConfig.from_file(path)
    in_processes(monkeypatch, 1)
    alone = run_experiment(config)
    worker = multiprocessing.parent_process

    def exit_in_worker(kind, seed):
        # this process builds seed 1, then sends seeds 2 and 3 to the workers
        if worker() is not None and seed == 2:
            os._exit(3)
        if worker() is not None and seed == 3:
            time.sleep(0.3)  # still running when the pool breaks

    logging_build(monkeypatch, tmp_path / "builds.log", exit_in_worker)
    in_processes(monkeypatch, processes)
    result = run_experiment(config)
    assert multiprocessing.active_children() == []
    assert [(r.seed, r.error) for r in result.errors] == [
        (2, runner._WORKER_DIED), (2, runner._WORKER_DIED),
    ]
    assert [r for r in result.rows if not r.error] == [r for r in alone.rows if r.seed != 2]


def test_first_build_before_any_worker_and_none_left_after_a_raise(tmp_path, monkeypatch):
    path = stage_experiment(tmp_path, encoders="borep,rand_lstm", seeds="1,2,3")
    config = ExperimentConfig.from_file(path)
    log = tmp_path / "builds.log"
    threads = parallel.blas_threads()
    in_processes(monkeypatch, 2)

    def end_at(kind, seed):
        if (kind, seed) == end and multiprocessing.parent_process() is None:
            raise EndSweep

    logging_build(monkeypatch, log, end_at)
    # the first build, as a set-up-only call does; then the job this process
    # takes once it has sent borep seeds 2 and 3 to the worker
    for end in (("borep", 1), ("rand_lstm", 1)):
        with pytest.raises(EndSweep):
            run_experiment(config)
        assert multiprocessing.active_children() == []
        assert parallel.blas_threads() == threads
        assert read_log(log)[0][:4] == ["borep", "1", str(os.getpid()), "0"]
        log.unlink()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def row(seed, acc, error=""):
    return ResultRow("t", "borep", 16, "max", seed, acc, 0, error)


def test_aggregate_constant_values():
    summary = aggregate([row(1, 0.8), row(2, 0.8), row(3, 0.8)])
    assert len(summary) == 1
    s = summary[0]
    assert s.mean == pytest.approx(0.8)
    assert s.sd == pytest.approx(0.0, abs=1e-15)
    assert s.n == 3


def test_aggregate_sample_sd():
    s = aggregate([row(1, 0.7), row(2, 0.9)])[0]
    assert s.mean == pytest.approx(0.8)
    assert s.sd == pytest.approx(0.1414213562, abs=1e-9)


def test_aggregate_single_seed_sd_zero():
    s = aggregate([row(1, 0.75)])[0]
    assert s.sd == 0.0
    assert s.n == 1


def test_aggregate_skips_errors():
    s = aggregate([row(1, 0.6), row(2, float("nan"), error="boom")])[0]
    assert s.mean == pytest.approx(0.6)
    assert s.n == 1


def test_csv_quotes_comma_labels(tmp_path):
    r = ResultRow("t", "cnn(window=2,from_borep=false)", 16, "max", 1, 0.5, 0)
    path = str(tmp_path / "r.csv")
    write_results_csv(path, [r])
    with open(path, encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[1][1] == "cnn(window=2,from_borep=false)"
    assert len(parsed[1]) == 7


def test_table_is_written_whole_or_not_at_all(tmp_path):
    path = tmp_path / "results.csv"
    write_results_csv(str(path), [row(1, 0.5), row(2, 0.75)])
    before = path.read_bytes()
    # the second row's accuracy is no number: the write fails mid-table
    with pytest.raises(ValueError):
        write_results_csv(str(path), [row(1, 0.25), row(2, "oops"), row(3, 0.5)])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["results.csv"]


def test_config_checks_draw_nothing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a config check drew weights")

    monkeypatch.setattr(enc, "SeededRng", no_draw)
    monkeypatch.setattr("randenc.trees.SeededRng", no_draw)
    monkeypatch.setattr(enc, "build_encoder", no_draw)
    specs = tuple(parse_encoder_spec(kind) for kind in enc.ENCODER_KINDS)
    ExperimentConfig("e", ("t",), specs, dims=(8, 16))
    with pytest.raises(ConfigError, match=r"esn leak rate must be in \(0, 1\], got 0"):
        ExperimentConfig("e", ("t",), (parse_encoder_spec("esn(leak=0)"),), dims=(8,))
