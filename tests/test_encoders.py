import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randenc import encoders as enc
from randenc.embeddings import TokenSequence
from randenc.encoders import (
    BorepParams,
    ConfigError,
    LstmWeights,
    RandLstmParams,
    build_borep,
    build_cnn,
    build_esn,
    build_rand_lstm,
    build_self_attention,
    cnn_from_borep,
    encode,
    encode_and_pool,
    encode_borep,
    encode_cnn,
    encode_corpus,
    encode_esn,
    encode_rand_lstm,
    pool,
    reservoir_states,
)
from randenc.numerics import SeededRng, uniform_init
from randenc.runner import parse_encoder_spec
from randenc.trees import ParseTree, right_branching_parse

from conftest import ORACLE_TOL, assert_matches_oracle, make_seq


def _frozen(a):
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def scalar_sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def oracle_lstm(w, u, b, xs):
    """Step-by-step scalar LSTM oracle; w/u/b are per-gate dicts of arrays."""
    h_dim = b["i"].shape[0]
    h = [0.0] * h_dim
    c = [0.0] * h_dim
    rows = []
    for t in range(xs.shape[0]):
        def pre(gate):
            out = []
            for r in range(h_dim):
                acc = b[gate][r]
                for j in range(xs.shape[1]):
                    acc += w[gate][r, j] * xs[t, j]
                for j in range(h_dim):
                    acc += u[gate][r, j] * h[j]
                out.append(acc)
            return out

        zi, zf, zg, zo = pre("i"), pre("f"), pre("g"), pre("o")
        new_c, new_h = [], []
        for r in range(h_dim):
            i_g = scalar_sigmoid(zi[r])
            f_g = scalar_sigmoid(zf[r])
            g_g = math.tanh(zg[r])
            o_g = scalar_sigmoid(zo[r])
            cc = f_g * c[r] + i_g * g_g
            new_c.append(cc)
            new_h.append(o_g * math.tanh(cc))
        h, c = new_h, new_c
        rows.append(list(h))
    return np.array(rows)


def split_gates(weights: LstmWeights):
    """Slice the stacked 4h-row storage into per-gate blocks (order i,f,g,o)."""
    h = weights.hidden
    names = ("i", "f", "g", "o")
    w = {n: weights.w[k * h : (k + 1) * h] for k, n in enumerate(names)}
    u = {n: weights.u[k * h : (k + 1) * h] for k, n in enumerate(names)}
    b = {n: weights.b[k * h : (k + 1) * h] for k, n in enumerate(names)}
    return w, u, b


def oracle_cnn(w, b, e, k):
    """Hand convolution: out[t, o] = sum_j sum_d W[d, j, o] * e[t+j, d] + b[o]."""
    t_out = e.shape[0] - k + 1
    out = np.zeros((t_out, b.shape[0]))
    for t in range(t_out):
        for o in range(b.shape[0]):
            acc = b[o]
            for j in range(k):
                for d in range(e.shape[1]):
                    acc += w[d, j, o] * e[t + j, d]
            out[t, o] = acc
    return out


# ---------------------------------------------------------------------------
# BOREP
# ---------------------------------------------------------------------------


def test_borep_identity_override(nprng):
    params = BorepParams(0, 4, 4, _frozen(np.eye(4)))
    seq = make_seq(nprng, 5, 4)
    assert np.array_equal(encode_borep(params, seq), seq.vectors)


def test_borep_zero_row_maps_to_zero():
    params = build_borep(3, 5, 12)
    seq = TokenSequence(["a", "b"], np.vstack([np.zeros(5), np.ones(5)]))
    out = encode_borep(params, seq)
    assert np.array_equal(out[0], np.zeros(12))


def test_borep_matches_matvec_oracle(nprng):
    params = build_borep(11, 7, 13)
    seq = make_seq(nprng, 6, 7)
    out = encode_borep(params, seq)
    for t in range(6):
        expected = [
            sum(params.w_proj[r, j] * seq.vectors[t, j] for j in range(7)) for r in range(13)
        ]
        assert np.abs(out[t] - np.array(expected)).max() < 1e-12


def test_borep_draw_order_documented():
    # w_proj is the first (and only) draw: one uniform block, bound 1/sqrt(D)
    params = build_borep(42, 6, 10)
    expected = uniform_init(SeededRng(42), 10, 6, d=6)
    assert np.array_equal(params.w_proj, expected)


def test_borep_dim_mismatch(nprng):
    params = build_borep(0, 4, 8)
    with pytest.raises(ValueError):
        encode_borep(params, make_seq(nprng, 3, 5))


def test_borep_init_bound():
    params = build_borep(9, 16, 64)
    assert np.abs(params.w_proj).max() <= 1.0 / 4.0


# ---------------------------------------------------------------------------
# RandLSTM
# ---------------------------------------------------------------------------


def test_lstm_zero_weights_give_zero_outputs(nprng):
    h = 3
    zeros = LstmWeights(
        _frozen(np.zeros((4 * h, 2))), _frozen(np.zeros((4 * h, h))), _frozen(np.zeros(4 * h))
    )
    params = RandLstmParams(0, 2, 2 * h, zeros, zeros)
    out = encode_rand_lstm(params, make_seq(nprng, 4, 2))
    assert np.array_equal(out, np.zeros((4, 2 * h)))


def test_lstm_t1_symmetric_directions(nprng):
    params = build_rand_lstm(5, 3, 8)
    shared = params.forward
    sym = RandLstmParams(5, 3, 8, shared, shared)
    out = encode_rand_lstm(sym, make_seq(nprng, 1, 3))
    assert np.array_equal(out[0, :4], out[0, 4:])


def test_lstm_matches_scalar_oracle(nprng):
    params = build_rand_lstm(17, 2, 4)
    seq = make_seq(nprng, 3, 2)
    out = encode_rand_lstm(params, seq)
    w, u, b = split_gates(params.forward)
    fwd = oracle_lstm(w, u, b, seq.vectors)
    w, u, b = split_gates(params.backward)
    bwd = oracle_lstm(w, u, b, seq.vectors[::-1])[::-1]
    assert np.abs(out - np.hstack([fwd, bwd])).max() < 1e-10


def test_lstm_hidden_strictly_bounded(nprng):
    params = build_rand_lstm(23, 8, 32)
    seq = TokenSequence([f"t{i}" for i in range(30)], nprng.normal(size=(30, 8)) * 10.0)
    out = encode_rand_lstm(params, seq)
    assert (np.abs(out) < 1.0).all()


def test_lstm_rejects_odd_width():
    with pytest.raises(ConfigError):
        build_rand_lstm(0, 4, 7)


def test_lstm_draw_order_documented():
    # forward direction first; per gate (i, f, g, o): W, U, then b
    params = build_rand_lstm(31, 5, 6)
    rng = SeededRng(31)
    for direction in (params.forward, params.backward):
        w, u, b = split_gates(direction)
        for gate in ("i", "f", "g", "o"):
            assert np.array_equal(w[gate], uniform_init(rng, 3, 5, d=5))
            assert np.array_equal(u[gate], uniform_init(rng, 3, 3, d=5))
            assert np.array_equal(b[gate], uniform_init(rng, 1, 3, d=5).ravel())


# ---------------------------------------------------------------------------
# ESN
# ---------------------------------------------------------------------------


def test_esn_radius_rescaled_to_target():
    params = build_esn(7, 6, 40, rho=0.9)
    for w_rec in (params.w_rec_f, params.w_rec_b):
        radius = np.max(np.abs(np.linalg.eigvals(w_rec)))
        assert abs(radius - 0.9) < 1e-3


def test_esn_default_radius_is_095():
    params = build_esn(1, 4, 24)
    radius = np.max(np.abs(np.linalg.eigvals(params.w_rec_f)))
    assert abs(radius - 0.95) < 1e-3


def test_esn_zero_recurrence_memoryless(nprng):
    params = build_esn(3, 4, 16, sparsity=0.6)
    xs = nprng.normal(size=(5, 4))
    w_zero = np.zeros_like(params.w_rec_f)
    states = reservoir_states(params.w_in_f, w_zero, 1.0, xs)
    expected = np.tanh(xs @ params.w_in_f.T)
    assert np.abs(states - expected).max() < 1e-12


def test_esn_leak_blends_previous_state(nprng):
    params = build_esn(3, 4, 16, leak=0.25, sparsity=0.6)
    xs = nprng.normal(size=(4, 4))
    states = reservoir_states(params.w_in_f, params.w_rec_f, 0.25, xs)
    x = np.zeros(8)
    for t in range(4):
        x = 0.75 * x + 0.25 * np.tanh(params.w_in_f @ xs[t] + params.w_rec_f @ x)
        assert np.abs(states[t] - x).max() < 1e-12


def test_esn_contraction_echo_state(nprng):
    params = build_esn(19, 6, 50, rho=0.9, leak=1.0)
    xs = nprng.normal(size=(50, 6))
    a = reservoir_states(params.w_in_f, params.w_rec_f, 1.0, xs)
    b = reservoir_states(params.w_in_f, params.w_rec_f, 1.0, xs, x0=nprng.uniform(-1, 1, 25))
    assert np.abs(a[-1] - b[-1]).max() < 1e-3


def test_esn_sparsity_fraction():
    params = build_esn(4, 4, 400, sparsity=0.1)
    frac = float((params.w_rec_f != 0).mean())
    assert 0.07 < frac < 0.13


def test_esn_config_errors():
    with pytest.raises(ConfigError):
        build_esn(0, 4, 15)  # odd width
    with pytest.raises(ConfigError):
        build_esn(0, 4, 16, rho=0.0)
    with pytest.raises(ConfigError):
        build_esn(0, 4, 16, sparsity=0.0)
    with pytest.raises(ConfigError):
        build_esn(0, 4, 16, sparsity=1.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="spectral radius target"):
            build_esn(0, 4, 16, rho=bad)
    with pytest.raises(ConfigError, match="input_scaling"):
        build_esn(0, 4, 16, input_scaling=math.nan)
    # seed 1 draws an all-zero 4 x 4 recurrent matrix for the forward direction
    with pytest.raises(ConfigError, match="zero spectral radius"):
        build_esn(1, 4, 8)


def test_esn_bidirectional_concat(nprng):
    params = build_esn(8, 5, 20)
    seq = make_seq(nprng, 7, 5)
    out = encode_esn(params, seq)
    fwd = reservoir_states(params.w_in_f, params.w_rec_f, 1.0, seq.vectors)
    bwd = reservoir_states(params.w_in_b, params.w_rec_b, 1.0, seq.vectors[::-1])[::-1]
    assert np.array_equal(out, np.hstack([fwd, bwd]))


# ---------------------------------------------------------------------------
# CNN
# ---------------------------------------------------------------------------


def test_cnn_window1_equals_borep_mapped(nprng):
    borep = build_borep(13, 9, 21)
    cnn = cnn_from_borep(borep)
    for t_len in (1, 2, 5, 11):
        seq = make_seq(nprng, t_len, 9)
        gap = np.abs(encode_borep(borep, seq) - encode_cnn(cnn, seq)).max()
        assert gap < 1e-12


def test_cnn_valid_length():
    params = build_cnn(2, 4, 10, window=2)
    seq = TokenSequence(["a", "b"], np.random.default_rng(0).normal(size=(2, 4)))
    assert encode_cnn(params, seq).shape == (1, 10)


def test_cnn_short_sentence_left_padded(nprng):
    params = build_cnn(6, 4, 10, window=3)
    e = nprng.normal(size=(2, 4))
    seq = TokenSequence(["a", "b"], e)
    out = encode_cnn(params, seq)
    assert out.shape == (1, 10)
    padded = np.vstack([np.zeros((1, 4)), e])
    assert np.abs(out - oracle_cnn(params.w, params.b, padded, 3)).max() < 1e-12


def test_cnn_matches_hand_conv_oracle(nprng):
    params = build_cnn(21, 5, 8, window=3)
    seq = make_seq(nprng, 7, 5)
    out = encode_cnn(params, seq)
    assert out.shape == (5, 8)
    assert np.abs(out - oracle_cnn(params.w, params.b, seq.vectors, 3)).max() < 1e-12


def test_cnn_draw_order_documented():
    params = build_cnn(51, 6, 12, window=2)
    rng = SeededRng(51)
    bound = 1.0 / math.sqrt(6)
    assert np.array_equal(params.w, rng.uniform(-bound, bound, (6, 2, 12)))
    assert np.array_equal(params.b, rng.uniform(-bound, bound, (12,)))


def test_cnn_rejects_bad_window():
    with pytest.raises(ConfigError):
        build_cnn(0, 4, 8, window=0)
    with pytest.raises(ConfigError):
        build_cnn(0, 4, 8, window=3, from_borep=True)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


def _ctx(values):
    return enc.ContextMatrix(np.asarray(values, dtype=np.float64), "borep", 0)


def test_pool_max_example():
    assert np.array_equal(pool(_ctx([[1, 4], [3, 2]]), "max").values, [3, 4])


def test_pool_mean_example():
    assert np.array_equal(pool(_ctx([[1, 4], [3, 2]]), "mean").values, [2, 3])


def test_pool_single_row_identity():
    row = [[0.5, -2.0, 7.0]]
    assert np.array_equal(pool(_ctx(row), "max").values, row[0])
    assert np.array_equal(pool(_ctx(row), "mean").values, row[0])


def test_pool_rejects_unknown_kind():
    with pytest.raises(ValueError):
        pool(_ctx([[1.0]]), "median")


@given(
    st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000)
)
@settings(max_examples=40, deadline=None)
def test_pool_max_monotone_under_dominated_rows(t_len, width, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(t_len, width))
    current = values.max(axis=0)
    dominated = current - np.abs(rng.normal(size=width))
    before = pool(_ctx(values), "max").values
    after = pool(_ctx(np.vstack([values, dominated])), "max").values
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# dispatch, determinism, batch encoding
# ---------------------------------------------------------------------------

ALL_SEQ_KINDS = ("borep", "rand_lstm", "esn", "cnn", "self_attention")


@pytest.mark.parametrize("kind", ALL_SEQ_KINDS)
def test_encode_dispatch_and_shape(kind, nprng):
    params = enc.build_encoder(kind, 3, 6, 16)
    seq = make_seq(nprng, 5, 6)
    ctx = encode(params, seq)
    assert ctx.width == 16
    assert ctx.encoder == kind
    assert np.isfinite(ctx.values).all()


@pytest.mark.parametrize("kind", ALL_SEQ_KINDS)
def test_reconstruction_bit_identical(kind, nprng):
    seq = make_seq(nprng, 4, 6)
    a = enc.build_encoder(kind, 77, 6, 16)
    b = enc.build_encoder(kind, 77, 6, 16)
    assert np.array_equal(encode(a, seq).values, encode(b, seq).values)


def test_encoder_params_frozen():
    params = build_borep(1, 4, 8)
    with pytest.raises(ValueError):
        params.w_proj[0, 0] = 5.0


def test_build_encoder_unknown_kind():
    with pytest.raises(ConfigError):
        enc.build_encoder("gru", 0, 4, 8)


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_build_encoder_bad_hyper(kind):
    with pytest.raises(ConfigError, match="bad hyperparameters"):
        enc.build_encoder(kind, 0, 4, 8, bogus=1)


@pytest.mark.parametrize("token, key", [
    ("self_attention(heads=2,use_pe=flase)", "use_pe"),
    ("self_attention(heads=2,use_pe=1)", "use_pe"),
    ("cnn(window=1,from_borep=yes)", "from_borep"),
    ("cnn(window=1,from_borep=0)", "from_borep"),
])
def test_build_encoder_non_bool_flag(token, key):
    # a spec value other than true/false parses to a string or a number,
    # which would otherwise act as a flag by its truthiness
    spec = parse_encoder_spec(token)
    with pytest.raises(ConfigError, match=key):
        enc.build_encoder(spec.kind, 0, 4, 8, **spec.hyper_dict())


def test_tree_lstm_dispatch_reads_trees_module_per_call(monkeypatch, nprng):
    # wrappers set on randenc.trees (as a tracer does) must see every call
    from randenc import trees

    calls = []

    def spy(name):
        original = getattr(trees, name)
        return lambda *args, **kw: calls.append(name) or original(*args, **kw)

    monkeypatch.setattr(trees, "build_tree_lstm", spy("build_tree_lstm"))
    monkeypatch.setattr(trees, "encode_tree_lstm", spy("encode_tree_lstm"))
    seq = make_seq(nprng, 3, 4)
    params = enc.build_encoder("tree_lstm", 0, 4, 8)
    encode(params, seq, tree=right_branching_parse(seq.tokens))
    assert calls == ["build_tree_lstm", "encode_tree_lstm"]


def test_encode_corpus_row_order_and_poolings(nprng):
    params = build_borep(5, 6, 12)
    seqs = [make_seq(nprng, int(nprng.integers(1, 9)), 6) for _ in range(24)]
    pooled = encode_corpus(params, seqs, ("mean", "max"))
    assert list(pooled) == ["mean", "max"]
    for pooling, rows in pooled.items():
        assert rows.shape == (24, 12)
        for i in (0, 7, 23):
            assert np.array_equal(rows[i], encode_and_pool(params, seqs[i], pooling).values)
    assert np.array_equal(encode_corpus(params, seqs, ("max",))["max"], pooled["max"])
    assert encode_corpus(params, seqs, ()) == {}


@pytest.mark.parametrize("kind", ALL_SEQ_KINDS + ("tree_lstm",))
def test_encode_corpus_matches_per_sentence_path(kind, nprng):
    # random lengths plus T=1 and T=2, both shorter than the default CNN window
    lengths = [1, 2] + [int(t) for t in nprng.integers(1, 10, 10)]
    seqs = [make_seq(nprng, t, 6) for t in lengths]
    hyper = {"sparsity": 0.5} if kind == "esn" else {}
    params = enc.build_encoder(kind, 11, 6, 16, **hyper)
    trees = [right_branching_parse(s.tokens) for s in seqs] if kind == "tree_lstm" else None
    pooled = encode_corpus(params, seqs, ("max", "mean"), trees=trees)
    for pooling in ("max", "mean"):
        oracle = np.array([
            encode_and_pool(params, s, pooling, tree=trees[i] if trees else None).values
            for i, s in enumerate(seqs)
        ])
        assert_matches_oracle(kind, pooled[pooling], oracle)


ORACLE_CASES = [
    ("borep", {}),
    ("rand_lstm", {}),
    ("esn", {"sparsity": 0.5}),
    ("cnn", {}),
    ("cnn", {"window": 5}),
    ("self_attention", {}),
    ("self_attention", {"use_pe": False}),
    ("tree_lstm", {}),
    ("tree_lstm", {"node_domain": "leaves"}),
]


def case_id(case):
    kind, hyper = case
    return kind + "".join(f"({k}={v})" for k, v in hyper.items())


def mixed_parses(seqs):
    """Right-branching parses, with a two-constituent split for every other
    sentence of 4+ tokens, so one batch holds trees of unequal height."""
    out = []
    for i, seq in enumerate(seqs):
        tokens = seq.tokens
        if i % 2 and len(tokens) >= 4:
            half = len(tokens) // 2
            out.append(ParseTree(left=right_branching_parse(tokens[:half]),
                                 right=right_branching_parse(tokens[half:])))
        else:
            out.append(right_branching_parse(tokens))
    return out


def oracle_rows(params, seqs, trees, pooling):
    return np.array([
        encode_and_pool(params, s, pooling, tree=trees[i] if trees else None).values
        for i, s in enumerate(seqs)
    ])


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_encode_corpus_oracle_cases(case, nprng):
    kind, hyper = case
    # every length 1-14 (T=1 and T below the window-3 and window-5 CNN), then
    # 40 sentences of one length, more than one batch holds
    lengths = list(range(1, 15)) + [int(t) for t in nprng.integers(1, 15, 20)] + [3] * 40
    seqs = [make_seq(nprng, t, 6) for t in lengths]
    params = enc.build_encoder(kind, 4, 6, 16, **hyper)
    trees = mixed_parses(seqs) if kind == "tree_lstm" else None
    pooled = encode_corpus(params, seqs, ("max", "mean"), trees=trees)
    for pooling in ("max", "mean"):
        assert_matches_oracle(kind, pooled[pooling], oracle_rows(params, seqs, trees, pooling))


@pytest.mark.parametrize("case", ORACLE_CASES, ids=case_id)
def test_encode_corpus_permutation_permutes_rows(case, nprng):
    kind, hyper = case
    seqs = [make_seq(nprng, int(t), 6) for t in nprng.integers(1, 8, 50)]
    params = enc.build_encoder(kind, 9, 6, 16, **hyper)
    trees = mixed_parses(seqs) if kind == "tree_lstm" else None
    perm = nprng.permutation(len(seqs))
    base = encode_corpus(params, seqs, ("max", "mean"), trees=trees)
    shuffled = encode_corpus(params, [seqs[i] for i in perm], ("max", "mean"),
                             trees=[trees[i] for i in perm] if trees else None)
    for pooling in ("max", "mean"):
        assert np.abs(shuffled[pooling] - base[pooling][perm]).max() <= ORACLE_TOL


@pytest.mark.parametrize("failure", ["dim", "missing_tree", "leaf_count", "non_finite"])
def test_encode_corpus_error_parity(failure, nprng):
    # the batched path fails as the per-sentence encode() does
    seqs = [make_seq(nprng, t, 6) for t in (3, 5, 3, 4)]
    kind = "borep" if failure in ("dim", "non_finite") else "tree_lstm"
    params = enc.build_encoder(kind, 2, 6, 8)
    trees = [right_branching_parse(s.tokens) for s in seqs] if kind == "tree_lstm" else None
    if failure == "dim":
        seqs[2] = make_seq(nprng, 3, 5)
    elif failure == "missing_tree":
        trees[2] = None
    elif failure == "leaf_count":
        trees[2] = right_branching_parse(["a", "b", "c", "d"])
    else:
        params = replace(params, w_proj=np.full_like(params.w_proj, np.nan))
    with pytest.raises(Exception) as per_sentence:
        for i, seq in enumerate(seqs):
            encode(params, seq, tree=trees[i] if trees else None)
    with pytest.raises(Exception) as batched:
        encode_corpus(params, seqs, ("max",), trees=trees)
    assert type(batched.value) is type(per_sentence.value)
    assert str(batched.value) == str(per_sentence.value)


def test_encode_and_pool_provenance(nprng):
    emb = encode_and_pool(build_borep(9, 6, 12), make_seq(nprng, 3, 6), "mean")
    assert (emb.encoder, emb.seed, emb.pooling, emb.dim) == ("borep", 9, "mean", 12)
