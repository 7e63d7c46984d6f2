"""`randenc encode`: output against the per-sentence oracle, checkpoint
reuse, and bad input that fails before the output file is touched."""

import numpy as np
import pytest

from randenc import cli
from randenc import encoders as enc
from randenc.embeddings import clean_tokens, embed_sentence, tokenize, write_embeddings
from randenc.tasks import (
    make_synthetic_embeddings,
    make_synthetic_order_task,
    read_parses,
    synthetic_vocabulary,
)

from conftest import add_twin_tree_kind, assert_matches_oracle

EMBED_DIM = 6
# at D'=8 the default esn sparsity can leave a reservoir with zero radius
ESN_SPARSITY = 0.5


def stage_inputs(tmp_path, n):
    """n order-task sentences, their parses and 6-d vectors. Sentence 4
    gets an OOV word and punctuation, so the drop and clean rules apply."""
    ds = make_synthetic_order_task(n, n_fillers=16, seed=3)
    texts = list(ds.texts)
    texts[3] = texts[3].replace("alpha", "Alpha,", 1) + " zzz"
    trees = [tree.leaf_tokens() for tree in ds.trees]
    trees[3] = trees[3] + ["zzz"]
    table = make_synthetic_embeddings(synthetic_vocabulary(16), EMBED_DIM, seed=1)
    write_embeddings(table, str(tmp_path / "vectors.txt"))
    (tmp_path / "input.txt").write_text("".join(t + "\n" for t in texts), encoding="utf-8")
    (tmp_path / "trees.txt").write_text(
        "".join("(S " + " ".join(f"(W {w})" for w in leaves) + ")\n" for leaves in trees),
        encoding="utf-8",
    )
    return table, texts


def encode_args(tmp_path, kind, pooling="max", output="out.txt", *extra):
    """--trees is passed to the kinds that read parses."""
    trees = ["--trees", str(tmp_path / "trees.txt")] if enc.KINDS[kind].reads_parses else []
    return [
        "encode", "--encoder", f"esn(sparsity={ESN_SPARSITY})" if kind == "esn" else kind,
        "--dim", "8", "--seed", "2",
        "--pooling", pooling, "--embeddings", str(tmp_path / "vectors.txt"),
        "--input", str(tmp_path / "input.txt"), *trees,
        "--output", str(tmp_path / output), *extra,
    ]


@pytest.mark.parametrize("pooling", enc.POOLINGS)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_encode_matches_per_sentence_oracle(tmp_path, kind, pooling):
    n = cli._ENCODE_BLOCK + 14  # more than one encode block
    table, texts = stage_inputs(tmp_path, n)
    assert cli.main(encode_args(tmp_path, kind, pooling)) == 0

    lines = (tmp_path / "out.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == n
    cells = [line.split(" ") for line in lines]
    assert [c[0] for c in cells] == [str(i) for i in range(1, n + 1)]
    assert all(f"{float(v):.17g}" == v for c in cells for v in c[1:])
    values = np.array([[float(v) for v in c[1:]] for c in cells])

    on_trees = kind == "tree_lstm"
    hyper = {"sparsity": ESN_SPARSITY} if kind == "esn" else {}
    params = enc.build_encoder(kind, 2, EMBED_DIM, 8, **hyper)
    trees = read_parses(str(tmp_path / "trees.txt"), texts)
    oracle = []
    for text, tree in zip(texts, trees):
        tokens = clean_tokens(tokenize(text)) if on_trees else tokenize(text)
        seq = embed_sentence(table, tokens, oov="zero" if on_trees else "drop")
        oracle.append(enc.encode_and_pool(params, seq, pooling, tree=tree))
    assert_matches_oracle(kind, values, np.array(oracle))


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_encode_save_then_load_params_is_byte_identical(tmp_path, kind):
    stage_inputs(tmp_path, 30)
    ckpt = str(tmp_path / "params.npz")
    assert cli.main(encode_args(tmp_path, kind, "max", "drawn.txt", "--save-params", ckpt)) == 0
    assert cli.main(encode_args(tmp_path, kind, "max", "loaded.txt", "--load-params", ckpt)) == 0
    drawn = (tmp_path / "drawn.txt").read_bytes()
    assert drawn and drawn == (tmp_path / "loaded.txt").read_bytes()


def test_encode_load_params_takes_left_out_hyperparameters_from_checkpoint(tmp_path):
    # heads=2 at D'=6 is fine; the bare spec's default heads=8 would not
    # divide 6, but with --load-params the checkpoint supplies heads
    stage_inputs(tmp_path, 10)
    ckpt = str(tmp_path / "params.npz")
    args = encode_args(tmp_path, "self_attention", "max", "drawn.txt", "--save-params", ckpt)
    args[args.index("--encoder") + 1] = "self_attention(heads=2)"
    args[args.index("--dim") + 1] = "6"
    assert cli.main(args) == 0
    args = encode_args(tmp_path, "self_attention", "max", "loaded.txt", "--load-params", ckpt)
    args[args.index("--dim") + 1] = "6"
    assert cli.main(args) == 0
    drawn = (tmp_path / "drawn.txt").read_bytes()
    assert drawn and drawn == (tmp_path / "loaded.txt").read_bytes()


def corrupt_input(tmp_path):
    lines = (tmp_path / "input.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "  \n"
    (tmp_path / "input.txt").write_text("".join(lines), encoding="utf-8")
    return f"{tmp_path / 'input.txt'}:3: empty line"


def corrupt_leaf_count(tmp_path):
    lines = (tmp_path / "trees.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = "(S (W a) " + lines[1][3:]
    (tmp_path / "trees.txt").write_text("".join(lines), encoding="utf-8")
    return f"{tmp_path / 'trees.txt'}:2: tree has"


def drop_last_parse(tmp_path):
    lines = (tmp_path / "trees.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "trees.txt").write_text("".join(lines[:-1]), encoding="utf-8")
    return f"{tmp_path / 'trees.txt'}:{len(lines)}: {len(lines) - 1} parses for"


@pytest.mark.parametrize("existing", [None, "earlier output\n"], ids=["absent", "present"])
@pytest.mark.parametrize("corrupt", [corrupt_input, corrupt_leaf_count, drop_last_parse])
def test_encode_bad_input_leaves_output_untouched(tmp_path, capsys, corrupt, existing):
    # line 1 is good, so writing while reading would already have touched out.txt
    stage_inputs(tmp_path, 40)
    where = corrupt(tmp_path)
    out = tmp_path / "out.txt"
    if existing is not None:
        out.write_text(existing, encoding="utf-8")
    assert cli.main(encode_args(tmp_path, "tree_lstm")) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text(encoding="utf-8") == existing


def test_encode_checkpoint_for_other_input_dim_leaves_output_untouched(tmp_path, capsys):
    stage_inputs(tmp_path, 10)
    ckpt = str(tmp_path / "params.npz")
    assert cli.main(encode_args(tmp_path, "borep", "max", "drawn.txt", "--save-params", ckpt)) == 0
    table = make_synthetic_embeddings(synthetic_vocabulary(16), EMBED_DIM + 1, seed=1)
    write_embeddings(table, str(tmp_path / "vectors.txt"))
    assert cli.main(encode_args(tmp_path, "borep", "max", "out.txt", "--load-params", ckpt)) == 2
    assert "checkpoint holds borep with D=6" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_encode_unreadable_checkpoint_leaves_output_untouched(tmp_path, capsys):
    stage_inputs(tmp_path, 10)
    ckpt = tmp_path / "params.npz"
    ckpt.write_bytes(b"not an npz")
    assert cli.main(encode_args(tmp_path, "borep", "max", "out.txt",
                                "--load-params", str(ckpt))) == 2
    assert capsys.readouterr().err.startswith(f"error: {ckpt}: cannot read checkpoint (")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_encode_rejects_bad_seed_before_reading(tmp_path, capsys, seed):
    args = encode_args(tmp_path, "borep")
    args[args.index("--seed") + 1] = seed
    with pytest.raises(SystemExit) as exc:
        cli.main(args)  # no input file exists: the flag is checked first
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_encode_rejects_bad_dim_before_reading(tmp_path, capsys, dim):
    args = encode_args(tmp_path, "borep")
    args[args.index("--dim") + 1] = dim
    with pytest.raises(SystemExit) as exc:
        cli.main(args)  # no input file exists: the flag is checked first
    assert exc.value.code == 2
    assert f"argument --dim: expected a positive integer, got '{dim}'" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--seed", "7", "seed=2; asked for seed=7"),
    ("--encoder", "cnn(window=1)", "window=3; asked for window=1"),
], ids=["seed", "hyperparameter"])
def test_encode_flag_that_disagrees_with_checkpoint_leaves_output_untouched(
    tmp_path, capsys, flag, value, named
):
    stage_inputs(tmp_path, 10)
    ckpt = str(tmp_path / "params.npz")
    assert cli.main(encode_args(tmp_path, "cnn", "max", "drawn.txt", "--save-params", ckpt)) == 0
    args = encode_args(tmp_path, "cnn", "max", "out.txt", "--load-params", ckpt)
    args[args.index(flag) + 1] = value
    assert cli.main(args) == 2
    assert f"error: checkpoint holds cnn with {named}" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_encode_checkpoint_without_asked_hyperparameter_leaves_output_untouched(tmp_path, capsys):
    # from_borep shapes the draw but is not stored: a window-1 random cnn
    # checkpoint cannot stand for cnn(window=1,from_borep=true)
    stage_inputs(tmp_path, 10)
    ckpt = str(tmp_path / "params.npz")
    args = encode_args(tmp_path, "cnn", "max", "drawn.txt", "--save-params", ckpt)
    args[args.index("--encoder") + 1] = "cnn(window=1)"
    assert cli.main(args) == 0
    args = encode_args(tmp_path, "cnn", "max", "out.txt", "--load-params", ckpt)
    args[args.index("--encoder") + 1] = "cnn(window=1,from_borep=true)"
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "error: checkpoint holds cnn without from_borep; asked for from_borep=True\n"
    )
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("spec", ["cnn(windw=2)", "cnn(window=2,window=3)", "cnn(window=abc)",
                                  "esn(rho=high)", "cnn(window=2))", "esn(leak=0)",
                                  "cnn(window=0)", "self_attention(heads=0)"])
def test_encode_rejects_bad_spec_before_reading(tmp_path, capsys, spec):
    args = encode_args(tmp_path, "cnn")
    args[args.index("--encoder") + 1] = spec
    assert cli.main(args) == 2  # no input file exists: the spec is checked first
    assert capsys.readouterr().err.startswith(f"error: encoder spec {spec!r}: bad hyperparameters")
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("spec, dim, reason", [
    ("esn(leak=0)", "8", "esn leak rate must be in (0, 1], got 0.0"),
    ("rand_lstm", "127", "rand_lstm needs an even output dim, got 127"),
    ("self_attention(heads=3)", "15",
     "self_attention with use_pe needs an even output dim, got 15"),
])
def test_encode_rejects_bad_range_or_width_before_reading(tmp_path, capsys, spec, dim, reason):
    args = encode_args(tmp_path, "cnn")
    args[args.index("--encoder") + 1] = spec
    args[args.index("--dim") + 1] = dim
    assert cli.main(args) == 2  # no input file exists: the spec is checked first
    assert capsys.readouterr().err == (
        f"error: encoder spec {spec!r}: bad hyperparameters ({reason})\n"
    )
    assert not (tmp_path / "out.txt").exists()


def test_encode_trees_for_kind_that_reads_no_parses(tmp_path, capsys):
    stage_inputs(tmp_path, 10)
    args = encode_args(tmp_path, "borep") + ["--trees", str(tmp_path / "trees.txt")]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == (
        "error: borep encoding reads no parses; --trees does not apply\n"
    )
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize("twin", [False, True], ids=["tree_lstm", "twin_tree"])
def test_encode_kind_that_reads_parses_needs_trees(tmp_path, capsys, monkeypatch, twin):
    # the CLI asks the kind table whether --trees is needed, not a kind name
    kind = add_twin_tree_kind(monkeypatch) if twin else "tree_lstm"
    stage_inputs(tmp_path, 10)
    args = encode_args(tmp_path, kind)
    del args[args.index("--trees"):args.index("--trees") + 2]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == f"error: {kind} encoding requires --trees\n"
    assert cli.main(encode_args(tmp_path, kind, "max", "out.txt")) == 0
    assert cli.main(encode_args(tmp_path, "tree_lstm", "max", "tree.txt")) == 0
    assert (tmp_path / "out.txt").read_bytes() == (tmp_path / "tree.txt").read_bytes()
