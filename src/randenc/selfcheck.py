"""Fast in-process invariant suite behind `randenc selfcheck`.

Each check re-derives a contract the test suite also covers, but in a few
hundred milliseconds and with no files or fixtures, so a fresh install can
be sanity-checked anywhere the package runs.
"""

from __future__ import annotations

import io
import numpy as np

from . import checkpoint, embeddings, encoders, numerics, probe, tasks, trees
from .embeddings import EmbeddingFormatError, TokenSequence
from .trees import right_branching_parse

__all__ = ["run_all", "CHECKS"]


def _random_seq(rng: np.random.Generator, t_len: int, dim: int) -> TokenSequence:
    return TokenSequence([f"t{i}" for i in range(t_len)], rng.normal(size=(t_len, dim)))


def check_layer_norm() -> None:
    rng = np.random.default_rng(12)
    v = numerics.layer_norm(rng.normal(size=(4, 16)))
    if abs(v.mean(axis=-1)).max() > 1e-12 or abs((v * v).mean(axis=-1) - 1.0).max() > 1e-4:
        raise AssertionError("layer_norm rows are not normalized")


def check_cnn_borep_equivalence() -> None:
    rng = np.random.default_rng(13)
    borep = encoders.build_borep(3, 12, 40)
    cnn = encoders.cnn_from_borep(borep)
    for _ in range(10):
        seq = _random_seq(rng, int(rng.integers(1, 9)), 12)
        gap = np.abs(
            encoders.encode_borep(borep, seq) - encoders.encode_cnn(cnn, seq)
        ).max()
        if gap > 1e-12:
            raise AssertionError(f"window-1 CNN deviates from BOREP by {gap:.3e}")


def check_permutation_invariance() -> None:
    rng = np.random.default_rng(14)
    borep = encoders.build_borep(5, 10, 32)
    attn_pe = encoders.build_self_attention(5, 10, 32, heads=2, use_pe=True)
    attn_nope = encoders.build_self_attention(5, 10, 32, heads=2, use_pe=False)
    seq = _random_seq(rng, 8, 10)
    perm = rng.permutation(8)
    shuffled = TokenSequence([seq.tokens[i] for i in perm], seq.vectors[perm])

    def pooled(params, s):
        return encoders.encode_and_pool(params, s, "max")

    if np.abs(pooled(borep, seq) - pooled(borep, shuffled)).max() > 1e-10:
        raise AssertionError("BOREP max-pooled embedding is not permutation-invariant")
    if np.abs(pooled(attn_nope, seq) - pooled(attn_nope, shuffled)).max() > 1e-10:
        raise AssertionError("no-PE attention embedding is not permutation-invariant")
    if np.abs(pooled(attn_pe, seq) - pooled(attn_pe, shuffled)).max() <= 1e-6:
        raise AssertionError("positional encodings failed to break permutation invariance")


def check_esn_contract() -> None:
    params = encoders.build_esn(7, 8, 64, rho=0.9)
    for w in (params.w_rec_f, params.w_rec_b):
        radius = float(np.max(np.abs(np.linalg.eigvals(w))))
        if abs(radius - 0.9) > 1e-3:
            raise AssertionError(f"reservoir spectral radius {radius:.6f} != 0.9")
    rng = np.random.default_rng(15)
    xs = rng.normal(size=(50, 8))
    a = encoders.reservoir_states(params.w_in_f, params.w_rec_f, params.leak, xs)
    b = encoders.reservoir_states(
        params.w_in_f, params.w_rec_f, params.leak, xs, x0=rng.normal(size=32) * 0.5
    )
    gap = float(np.abs(a[-1] - b[-1]).max())
    if gap >= 1e-3:
        raise AssertionError(f"echo-state contraction failed: final-state gap {gap:.3e}")


def check_batched_encode() -> None:
    rng = np.random.default_rng(17)
    seqs = [_random_seq(rng, t, 6) for t in (1, 2, 5, 5, 3, 9, 5, 1)]
    parses = [right_branching_parse(s.tokens) for s in seqs]
    for kind in encoders.ENCODER_KINDS:
        params = encoders.build_encoder(kind, 8, 6, 16)
        sentence_trees = parses if encoders.KINDS[kind].reads_parses else [None] * len(seqs)
        pooled = encoders.encode_corpus(params, seqs, ("max", "mean"), trees=sentence_trees)
        for pooling, rows in pooled.items():
            oracle = np.array([
                encoders.encode_and_pool(params, seq, pooling, tree=tree)
                for seq, tree in zip(seqs, sentence_trees)
            ])
            gap = float(np.abs(rows - oracle).max())
            if gap > 1e-12:
                raise AssertionError(
                    f"{kind}: batched {pooling} rows deviate from per-sentence encoding "
                    f"by {gap:.3e}"
                )


def check_vector_loader() -> None:
    # np.loadtxt parses all but the last block; its grammar is the installed
    # numpy's, so compare it with float() on every form written here
    import os, tempfile

    rng = np.random.default_rng(18)
    forms = ("{!r}", "{:.6f}", "{:.17g}", "{:.3e}", "{:+.2E}")
    n = embeddings._BLOCK_LINES + 4
    numbers = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    lines = [
        f"w{i} " + " ".join(forms[(i + j) % len(forms)].format(v) for j, v in enumerate(row))
        for i, row in enumerate(numbers.tolist())
    ]
    lines[-2] = f"w{n - 2} 1_0 -0.0 .5"  # only float() takes 1_0: the last block goes per line
    used = {"w0", "w1", "w2", "w3", "w4", f"w{n - 3}", f"w{n - 2}", f"w{n - 1}"}
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "vectors.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        table = embeddings.load_embeddings(path, used)
        for line in lines:
            word, *fields = line.split()
            if word in used:
                expected = np.array([float(v) for v in fields])
                if table.lookup(word).tobytes() != expected.tobytes():
                    raise AssertionError(f"vector of {word!r} differs from float() per line")
        if set(table.vectors) != used:
            raise AssertionError("vector loader kept words outside the vocabulary")
        lines[9] = "w9 1.0 0x1p3 2.0"  # float() rejects hex, on an unused word's line
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            embeddings.load_embeddings(path, used)
        except EmbeddingFormatError as exc:
            if exc.line_no != 10 or "unparseable" not in str(exc):
                raise AssertionError(f"bad line 10 reported as {exc}") from None
        else:
            raise AssertionError("vector loader accepted 0x1p3 on an unused word's line")


def check_probe_gradients() -> None:
    rng = np.random.default_rng(16)
    x = rng.normal(size=(20, 6))
    y = rng.integers(0, 3, size=20)
    for kind in ("logreg", "mlp"):
        params = probe.init_params(kind, 6, 3, 8, seed=1)
        if kind == "mlp":
            params = [p + rng.normal(size=p.shape) * 0.1 for p in params]
        _, grads = probe.loss_and_grad(params, x, y, 1e-3, kind)
        eps = 1e-5
        for pi, grad in enumerate(grads):
            flat = params[pi].ravel()
            idx = int(rng.integers(0, flat.size))
            for sign in (1.0, -1.0):
                shifted = [p.copy() for p in params]
                shifted[pi].ravel()[idx] += sign * eps
                loss, _ = probe.loss_and_grad(shifted, x, y, 1e-3, kind)
                if sign > 0:
                    up = loss
                else:
                    down = loss
            fd = (up - down) / (2 * eps)
            analytic = grad.ravel()[idx]
            rel = abs(fd - analytic) / max(1e-12, abs(fd), abs(analytic))
            if rel > 1e-4:
                raise AssertionError(f"{kind} gradient check failed (rel err {rel:.2e})")
        # two lanes stacked along each param's first axis, as a sweep's l2 grid trains
        other = [p + rng.normal(size=p.shape) * 0.1 for p in params]
        stacked_loss, stacked_grads = probe.loss_and_grad(
            [np.concatenate(pair) for pair in zip(params, other)], x, y,
            np.array([1e-3, 1e-1]), kind,
        )
        for lane, (lane_params, l2) in enumerate(((params, 1e-3), (other, 1e-1))):
            loss, grads = probe.loss_and_grad(lane_params, x, y, l2, kind)
            gaps = [abs(stacked_loss[lane] - loss)] + [
                np.abs(np.split(s, 2)[lane] - g).max() for s, g in zip(stacked_grads, grads)
            ]
            if max(gaps) > 1e-12:
                raise AssertionError(
                    f"{kind} stacked lane {lane} differs from its own call by {max(gaps):.2e}"
                )
    loss, _ = probe.loss_and_grad(
        probe.init_params("logreg", 4, 2, 0, seed=0),
        rng.normal(size=(10, 4)), np.array([0, 1] * 5), 0.0, "logreg",
    )
    if abs(loss - np.log(2.0)) > 1e-12:
        raise AssertionError("zero-initialized balanced binary loss is not ln 2")


def check_checkpoint_roundtrip() -> None:
    import tempfile, os

    params = encoders.build_self_attention(21, 6, 16, heads=2)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "enc.npz")
        checkpoint.save_encoder(path, params)
        loaded = checkpoint.load_encoder(path)
    for blk_a, blk_b in zip(params.blocks, loaded.blocks):
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if not np.array_equal(getattr(blk_a, name), getattr(blk_b, name)):
                raise AssertionError("checkpoint round trip is not bit-exact")
    if not np.array_equal(params.w_up, loaded.w_up):
        raise AssertionError("checkpoint round trip is not bit-exact")


def check_tree_shapes() -> None:
    tree = trees.parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBZ sat) (RB down)))")
    if tree.node_count != 2 * 4 - 1:
        raise AssertionError(f"binarized 4-leaf tree has {tree.node_count} nodes, wanted 7")
    if tree.leaf_tokens() != ["the", "cat", "sat", "down"]:
        raise AssertionError("leaf order deviates from surface order")


def check_order_task() -> None:
    ds = tasks.make_synthetic_order_task(20, seed=4, with_trees=False)
    labels = [tasks.order_label(text.split()) for text in ds.texts]
    if list(ds.labels) != labels:
        raise AssertionError("synthetic task labels deviate from the order rule")
    if labels.count("1") != 10:
        raise AssertionError("synthetic task is not exactly balanced")


CHECKS = [
    ("layer-norm-moments", check_layer_norm),
    ("cnn-window1-equals-borep", check_cnn_borep_equivalence),
    ("pooling-permutation-contract", check_permutation_invariance),
    ("esn-radius-and-contraction", check_esn_contract),
    ("batched-encode-matches-per-sentence", check_batched_encode),
    ("vector-loader-blocks-match-float", check_vector_loader),
    ("probe-gradients-and-ln2", check_probe_gradients),
    ("checkpoint-bit-exact", check_checkpoint_roundtrip),
    ("tree-binarization", check_tree_shapes),
    ("synthetic-order-task", check_order_task),
]


def run_all(out: io.TextIOBase | None = None) -> int:
    """Run every check; prints one PASS/FAIL line each, returns #failures."""
    import sys

    out = out if out is not None else sys.stdout
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"PASS {name}", file=out)
    return failures
