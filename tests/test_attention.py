import math

import numpy as np
import pytest

from randenc.embeddings import TokenSequence
from randenc.encoders import (
    AttentionBlock,
    ConfigError,
    SelfAttentionParams,
    build_self_attention,
    encode_and_pool,
    encode_self_attention,
    multi_head_attention,
    sinusoidal_pe,
)
from randenc.numerics import SeededRng, xavier_uniform_init

from conftest import make_seq


def _frozen(a):
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# naive full-pipeline oracle (python loops; its own layer norm)
# ---------------------------------------------------------------------------


def naive_layer_norm(row, eps=1e-5):
    mean = sum(row) / len(row)
    var = sum((x - mean) ** 2 for x in row) / len(row)
    return [(x - mean) / math.sqrt(var + eps) for x in row]


def naive_matvec(m, v):
    return [sum(m[r][j] * v[j] for j in range(len(v))) for r in range(m.shape[0])]


def naive_attention_layer(z, block):
    t_len = z.shape[0]
    heads = block.w_q.shape[0]
    d_k = block.w_q.shape[1]
    mixed = []
    for t in range(t_len):
        concat = []
        for h in range(heads):
            q = naive_matvec(block.w_q[h], z[t])
            scores = []
            for j in range(t_len):
                k = naive_matvec(block.w_k[h], z[j])
                scores.append(sum(qa * ka for qa, ka in zip(q, k)) / math.sqrt(d_k))
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            total = sum(exps)
            out = [0.0] * d_k
            for j in range(t_len):
                v = naive_matvec(block.w_v[h], z[j])
                wgt = exps[j] / total
                for r in range(d_k):
                    out[r] += wgt * v[r]
            concat.extend(out)
        mixed.append(naive_matvec(block.w_o, np.array(concat)))
    return np.array(mixed)


def naive_self_attention(params, vectors):
    z = np.array([naive_matvec(params.w_up, v) for v in vectors])
    if params.use_pe:
        t_len, dim = z.shape
        pe = np.zeros((t_len, dim))
        for pos in range(t_len):
            for i in range(dim // 2):
                angle = pos / (10000.0 ** (2.0 * i / dim))
                pe[pos, 2 * i] = math.sin(angle)
                pe[pos, 2 * i + 1] = math.cos(angle)
        z = z + pe
    for block in params.blocks:
        mixed = naive_attention_layer(z, block)
        z = np.array([naive_layer_norm(list(z[t] + mixed[t])) for t in range(z.shape[0])])
    return z


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        build_self_attention(0, 4, 30, heads=8)


def test_rejects_zero_layers():
    with pytest.raises(ConfigError):
        build_self_attention(0, 4, 32, n_layers=0)


@pytest.mark.parametrize("key, value", [
    ("heads", True), ("n_layers", True), ("heads", 2.0), ("n_layers", np.float64(1.0)),
])
def test_rejects_non_integer_counts(key, value):
    # a boolean is an int to Python: heads=true would build a one-head encoder
    with pytest.raises(ConfigError, match=f"^self_attention {key} must be an integer, got "):
        build_self_attention(0, 4, 32, **{key: value})


def test_numpy_integer_counts_accepted():
    params = build_self_attention(0, 4, 32, heads=np.int64(4), n_layers=np.int32(1))
    assert (params.heads, params.n_layers) == (4, 1)


def test_default_geometry():
    params = build_self_attention(1, 10, 64)
    assert params.heads == 8
    assert params.n_layers == 2
    assert params.use_pe is True
    assert params.blocks[0].w_q.shape == (8, 8, 64)
    assert params.blocks[0].w_o.shape == (64, 64)


def test_draw_order_documented():
    # w_up first; per layer, per head: w_q, w_k, w_v; then the layer's w_o
    params = build_self_attention(67, 5, 8, heads=2, n_layers=2)
    rng = SeededRng(67)
    assert np.array_equal(params.w_up, xavier_uniform_init(rng, 8, 5))
    for layer in range(2):
        block = params.blocks[layer]
        for h in range(2):
            assert np.array_equal(block.w_q[h], xavier_uniform_init(rng, 4, 8))
            assert np.array_equal(block.w_k[h], xavier_uniform_init(rng, 4, 8))
            assert np.array_equal(block.w_v[h], xavier_uniform_init(rng, 4, 8))
        assert np.array_equal(block.w_o, xavier_uniform_init(rng, 8, 8))


# ---------------------------------------------------------------------------
# attention math
# ---------------------------------------------------------------------------


def test_zero_keys_give_uniform_attention(nprng):
    params = build_self_attention(2, 6, 8, heads=2, n_layers=1, use_pe=False)
    block = params.blocks[0]
    zeroed = AttentionBlock(
        block.w_q, _frozen(np.zeros_like(block.w_k)), block.w_v, block.w_o
    )
    z = nprng.normal(size=(5, 8))
    _, weights = multi_head_attention(z, zeroed, return_weights=True)
    for attn in weights:
        assert np.abs(attn - 1.0 / 5.0).max() < 1e-12


def test_t1_attention_is_value_passthrough(nprng):
    params = build_self_attention(3, 6, 8, heads=2, n_layers=1, use_pe=False)
    block = params.blocks[0]
    z = nprng.normal(size=(1, 8))
    out, weights = multi_head_attention(z, block, return_weights=True)
    assert weights[0].shape == (1, 1)
    assert weights[0][0, 0] == pytest.approx(1.0)
    vs = np.hstack([z @ block.w_v[h].T for h in range(2)])
    assert np.abs(out - vs @ block.w_o.T).max() < 1e-12


def test_attention_rows_are_probability_vectors(nprng):
    params = build_self_attention(4, 6, 16, heads=4, n_layers=1)
    z = nprng.normal(size=(7, 16))
    _, weights = multi_head_attention(z, params.blocks[0], return_weights=True)
    for attn in weights:
        assert (attn >= 0).all()
        assert np.abs(attn.sum(axis=1) - 1.0).max() < 1e-9


def test_matches_naive_oracle_full_pipeline(nprng):
    for heads, use_pe, t_len in ((1, False, 4), (2, True, 6), (2, False, 3)):
        params = build_self_attention(29, 5, 8, heads=heads, n_layers=2, use_pe=use_pe)
        seq = make_seq(nprng, t_len, 5)
        got = encode_self_attention(params, seq)
        want = naive_self_attention(params, seq.vectors)
        assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# positional encodings
# ---------------------------------------------------------------------------


def test_pe_position_zero_alternates():
    pe = sinusoidal_pe(3, 8)
    assert np.array_equal(pe[0], np.array([0.0, 1.0] * 4))


def test_pe_position_one_first_entry():
    pe = sinusoidal_pe(2, 6)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)


def test_pe_entries_bounded():
    pe = sinusoidal_pe(50, 16)
    assert np.abs(pe).max() <= 1.0


def test_pe_rejects_odd_dim():
    with pytest.raises(ConfigError):
        sinusoidal_pe(4, 7)


def test_pe_deterministic():
    assert np.array_equal(sinusoidal_pe(9, 12), sinusoidal_pe(9, 12))


# ---------------------------------------------------------------------------
# permutation behavior
# ---------------------------------------------------------------------------


def _permuted(seq, perm):
    return TokenSequence([seq.tokens[i] for i in perm], seq.vectors[perm])


def test_no_pe_attention_permutation_invariant(nprng):
    params = build_self_attention(5, 6, 16, heads=2, use_pe=False)
    for pooling in ("max", "mean"):
        for _ in range(5):
            seq = make_seq(nprng, 7, 6)
            perm = nprng.permutation(7)
            a = encode_and_pool(params, seq, pooling)
            b = encode_and_pool(params, _permuted(seq, perm), pooling)
            assert np.abs(a - b).max() <= 1e-10


def test_pe_attention_position_sensitive(nprng):
    params = build_self_attention(5, 6, 16, heads=2, use_pe=True)
    differing = 0
    for _ in range(20):
        t_len = int(nprng.integers(2, 9))
        seq = make_seq(nprng, t_len, 6)
        perm = nprng.permutation(t_len)
        while np.array_equal(perm, np.arange(t_len)):
            perm = nprng.permutation(t_len)
        a = encode_and_pool(params, seq, "max")
        b = encode_and_pool(params, _permuted(seq, perm), "max")
        if np.abs(a - b).max() > 1e-6:
            differing += 1
    assert differing == 20
