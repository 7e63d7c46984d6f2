"""Frozen random sentence encoders behind a single encode() interface.

Each encoder samples its parameters once from a seeded prior and never
updates them. encode() maps a TokenSequence to a T x D' array (temporal
length x output width); pool() reduces the rows axis of that array, or of a
B x T x D' batch, to fixed-length sentence embeddings. encode_corpus() is
the batched path the sweep uses: it encodes equal-length sentences together
through each kind's encode_batch and pools them with pool(), and encode()
stays the per-sentence reference it is tested against.

Reproducibility contract: parameters are drawn from randenc.numerics.SeededRng
(numpy PCG64) in the exact order documented on each builder, so a
(kind, seed, dims, hyperparameters) tuple reconstructs weights bit-exactly.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .embeddings import TokenSequence
from .numerics import (
    SeededRng,
    layer_norm,
    sigmoid,
    softmax_rows,
    spectral_radius,
    uniform_init,
    xavier_uniform_init,
)

__all__ = [
    "ConfigError",
    "ENCODER_KINDS",
    "KINDS",
    "EncoderKind",
    "EncoderSpec",
    "parse_encoder_spec",
    "POOLINGS",
    "BorepParams",
    "LstmWeights",
    "RandLstmParams",
    "EsnParams",
    "CnnParams",
    "AttentionBlock",
    "SelfAttentionParams",
    "build_borep",
    "build_rand_lstm",
    "build_esn",
    "build_cnn",
    "build_self_attention",
    "build_encoder",
    "encode_borep",
    "encode_rand_lstm",
    "encode_esn",
    "encode_cnn",
    "encode_self_attention",
    "encode_borep_batch",
    "encode_rand_lstm_batch",
    "encode_esn_batch",
    "encode_cnn_batch",
    "encode_self_attention_batch",
    "cnn_from_borep",
    "sinusoidal_pe",
    "encode",
    "pool",
    "encode_and_pool",
    "encode_corpus",
    "reservoir_states",
]

POOLINGS = ("max", "mean")


class ConfigError(ValueError):
    """Invalid encoder or experiment configuration."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _check_input_dim(params, seq: TokenSequence) -> None:
    if seq.dim != params.in_dim:
        raise ValueError(
            f"{params.kind}: sequence dim {seq.dim} != encoder input dim {params.in_dim}"
        )


# ---------------------------------------------------------------------------
# BOREP: random projection of each word vector, no bias, no nonlinearity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BorepParams:
    kind: ClassVar[str] = "borep"
    seed: int
    in_dim: int
    out_dim: int
    w_proj: np.ndarray  # D' x D


def build_borep(seed: int, in_dim: int, out_dim: int) -> BorepParams:
    """Draw order: w_proj (D' x D), uniform +-1/sqrt(D)."""
    rng = SeededRng(seed)
    w = uniform_init(rng, out_dim, in_dim, d=in_dim)
    return BorepParams(seed, in_dim, out_dim, _frozen(w))


def encode_borep(params: BorepParams, seq: TokenSequence) -> np.ndarray:
    _check_input_dim(params, seq)
    return seq.vectors @ params.w_proj.T


def encode_borep_batch(params: BorepParams, xs: np.ndarray) -> np.ndarray:
    # a stacked matmul makes the per-sentence product, so rows stay bit-exact
    return xs @ params.w_proj.T


# ---------------------------------------------------------------------------
# Random bidirectional LSTM.
# ---------------------------------------------------------------------------

LSTM_GATE_ORDER = ("i", "f", "g", "o")


@dataclass(frozen=True)
class LstmWeights:
    """One direction's weights, gates stacked in rows i, f, g, o."""

    w: np.ndarray  # 4h x in_dim
    u: np.ndarray  # 4h x h
    b: np.ndarray  # 4h

    @property
    def hidden(self) -> int:
        return self.u.shape[1]


def draw_lstm_direction(rng: SeededRng, in_dim: int, hidden: int, init_d: int) -> LstmWeights:
    """Draw order per gate (i, f, g, o): W (h x in_dim), U (h x h), b (1 x h)."""
    ws, us, bs = [], [], []
    for _gate in LSTM_GATE_ORDER:
        ws.append(uniform_init(rng, hidden, in_dim, d=init_d))
        us.append(uniform_init(rng, hidden, hidden, d=init_d))
        bs.append(uniform_init(rng, 1, hidden, d=init_d).ravel())
    return LstmWeights(
        _frozen(np.vstack(ws)), _frozen(np.vstack(us)), _frozen(np.concatenate(bs))
    )


@dataclass(frozen=True)
class RandLstmParams:
    kind: ClassVar[str] = "rand_lstm"
    seed: int
    in_dim: int
    out_dim: int
    forward: LstmWeights
    backward: LstmWeights


def _check_rand_lstm(out_dim: int) -> None:
    if out_dim % 2 != 0:
        raise ConfigError(f"rand_lstm needs an even output dim, got {out_dim}")


def build_rand_lstm(seed: int, in_dim: int, out_dim: int) -> RandLstmParams:
    """Bidirectional LSTM, D'/2 hidden units per direction.

    Draw order: forward direction {W_i, U_i, b_i, W_f, U_f, b_f, W_g, U_g,
    b_g, W_o, U_o, b_o}, then the backward direction in the same order.
    Every weight and bias is uniform +-1/sqrt(D).
    """
    _check_rand_lstm(out_dim)
    hidden = out_dim // 2
    rng = SeededRng(seed)
    fwd = draw_lstm_direction(rng, in_dim, hidden, init_d=in_dim)
    bwd = draw_lstm_direction(rng, in_dim, hidden, init_d=in_dim)
    return RandLstmParams(seed, in_dim, out_dim, fwd, bwd)


def lstm_states(weights: LstmWeights, xs: np.ndarray) -> np.ndarray:
    """Run the LSTM recurrence over xs (T x in_dim); returns hidden rows (T x h).

    i, f, o = sigmoid, g = tanh, c_t = f*c + i*g, h_t = o*tanh(c_t), with
    zero initial state.
    """
    h_dim = weights.hidden
    t_len = xs.shape[0]
    pre_x = xs @ weights.w.T + weights.b  # T x 4h
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    out = np.empty((t_len, h_dim))
    for t in range(t_len):
        z_i, z_f, z_g, z_o = np.split(pre_x[t] + weights.u @ h, len(LSTM_GATE_ORDER))
        i, f, g, o = sigmoid(z_i), sigmoid(z_f), np.tanh(z_g), sigmoid(z_o)
        c = f * c + i * g
        h = o * np.tanh(c)
        out[t] = h
    return out


def bilstm_states(forward: LstmWeights, backward: LstmWeights, xs: np.ndarray) -> np.ndarray:
    """Concatenate forward and time-reversed backward hidden rows (T x 2h)."""
    fwd = lstm_states(forward, xs)
    bwd = lstm_states(backward, xs[::-1])[::-1]
    return np.hstack([fwd, bwd])


def _matmul_rows(xs: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """xs (... x n) @ w_t (n x m) as one product over all leading rows."""
    return (xs.reshape(-1, xs.shape[-1]) @ w_t).reshape(*xs.shape[:-1], w_t.shape[1])


def lstm_states_batch(weights: LstmWeights, xs: np.ndarray) -> np.ndarray:
    """lstm_states over B equal-length sentences at once: xs is B x T x in_dim,
    the result B x T x h; one (B x h) @ (h x 4h) product per time step."""
    h_dim = weights.hidden
    b_len, t_len, _ = xs.shape
    pre_x = _matmul_rows(xs, weights.w.T) + weights.b  # B x T x 4h
    u_t = weights.u.T
    h = np.zeros((b_len, h_dim))
    c = np.zeros((b_len, h_dim))
    out = np.empty((b_len, t_len, h_dim))
    for t in range(t_len):
        z_i, z_f, z_g, z_o = np.split(pre_x[:, t] + h @ u_t, len(LSTM_GATE_ORDER), axis=1)
        i, f, g, o = sigmoid(z_i), sigmoid(z_f), np.tanh(z_g), sigmoid(z_o)
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def bilstm_states_batch(
    forward: LstmWeights, backward: LstmWeights, xs: np.ndarray
) -> np.ndarray:
    """bilstm_states over B equal-length sentences: B x T x 2h."""
    fwd = lstm_states_batch(forward, xs)
    bwd = lstm_states_batch(backward, xs[:, ::-1])[:, ::-1]
    return np.concatenate([fwd, bwd], axis=2)


def encode_rand_lstm(params: RandLstmParams, seq: TokenSequence) -> np.ndarray:
    _check_input_dim(params, seq)
    return bilstm_states(params.forward, params.backward, seq.vectors)


def encode_rand_lstm_batch(params: RandLstmParams, xs: np.ndarray) -> np.ndarray:
    return bilstm_states_batch(params.forward, params.backward, xs)


# ---------------------------------------------------------------------------
# Bidirectional echo state network.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EsnParams:
    kind: ClassVar[str] = "esn"
    seed: int
    in_dim: int
    out_dim: int
    w_in_f: np.ndarray  # h x D
    w_rec_f: np.ndarray  # h x h, sparse, rescaled to spectral radius rho
    w_in_b: np.ndarray
    w_rec_b: np.ndarray
    rho: float
    sparsity: float
    leak: float
    input_scaling: float


def _draw_reservoir(
    rng: SeededRng, in_dim: int, hidden: int, rho: float, sparsity: float, input_scaling: float
) -> tuple[np.ndarray, np.ndarray]:
    w_in = uniform_init(rng, hidden, in_dim, d=in_dim) * input_scaling
    w_raw = rng.uniform(-1.0, 1.0, (hidden, hidden))
    mask = rng.bernoulli_mask((hidden, hidden), sparsity)
    w_rec = w_raw * mask
    radius = spectral_radius(w_rec).value
    if radius < 1e-12:
        raise ConfigError(
            "reservoir matrix has zero spectral radius; increase out_dim or sparsity"
        )
    w_rec = w_rec * (rho / radius)
    return _frozen(w_in), _frozen(w_rec)


def _check_esn(
    out_dim: int, rho: float, sparsity: float, leak: float, input_scaling: float
) -> None:
    if out_dim % 2 != 0:
        raise ConfigError(f"esn needs an even output dim, got {out_dim}")
    if not (0.0 < rho < math.inf):
        raise ConfigError(f"esn spectral radius target must be positive and finite, got {rho}")
    if not math.isfinite(input_scaling):
        raise ConfigError(f"esn input_scaling must be finite, got {input_scaling}")
    if not (0.0 < sparsity <= 1.0):
        raise ConfigError(f"esn sparsity (fraction nonzero) must be in (0, 1], got {sparsity}")
    if not (0.0 < leak <= 1.0):
        raise ConfigError(f"esn leak rate must be in (0, 1], got {leak}")


def build_esn(
    seed: int,
    in_dim: int,
    out_dim: int,
    rho: float = 0.95,
    sparsity: float = 0.1,
    leak: float = 1.0,
    input_scaling: float = 1.0,
) -> EsnParams:
    """Bidirectional ESN, D'/2 reservoir units per direction.

    Draw order per direction (forward first): W_in (h x D, uniform
    +-1/sqrt(D), then scaled by input_scaling), recurrent raw matrix
    (h x h, uniform +-1), sparsity mask (h x h cell draws). The sparsified
    recurrent matrix is rescaled so its spectral radius is rho.
    """
    _check_esn(out_dim, rho, sparsity, leak, input_scaling)
    hidden = out_dim // 2
    rng = SeededRng(seed)
    w_in_f, w_rec_f = _draw_reservoir(rng, in_dim, hidden, rho, sparsity, input_scaling)
    w_in_b, w_rec_b = _draw_reservoir(rng, in_dim, hidden, rho, sparsity, input_scaling)
    return EsnParams(
        seed, in_dim, out_dim, w_in_f, w_rec_f, w_in_b, w_rec_b, rho, sparsity, leak, input_scaling
    )


def reservoir_states(
    w_in: np.ndarray,
    w_rec: np.ndarray,
    leak: float,
    xs: np.ndarray,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Leaky reservoir run: x_t = (1-a) x_{t-1} + a tanh(W_in e_t + W_rec x_{t-1}).

    x0 is a test hook for echo-state contraction checks; default zero state.
    """
    hidden = w_rec.shape[0]
    x = np.zeros(hidden) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    pre_in = xs @ w_in.T  # T x h
    out = np.empty((xs.shape[0], hidden))
    for t in range(xs.shape[0]):
        x = (1.0 - leak) * x + leak * np.tanh(pre_in[t] + w_rec @ x)
        out[t] = x
    return out


def encode_esn(params: EsnParams, seq: TokenSequence) -> np.ndarray:
    _check_input_dim(params, seq)
    fwd = reservoir_states(params.w_in_f, params.w_rec_f, params.leak, seq.vectors)
    bwd = reservoir_states(params.w_in_b, params.w_rec_b, params.leak, seq.vectors[::-1])[::-1]
    return np.hstack([fwd, bwd])


def reservoir_states_batch(
    w_in: np.ndarray, w_rec: np.ndarray, leak: float, xs: np.ndarray
) -> np.ndarray:
    """reservoir_states from the zero state over B equal-length sentences:
    xs is B x T x D, the result B x T x h."""
    b_len, t_len, _ = xs.shape
    pre_in = _matmul_rows(xs, w_in.T)  # B x T x h
    w_rec_t = w_rec.T
    x = np.zeros((b_len, w_rec.shape[0]))
    out = np.empty((b_len, t_len, w_rec.shape[0]))
    for t in range(t_len):
        x = (1.0 - leak) * x + leak * np.tanh(pre_in[:, t] + x @ w_rec_t)
        out[:, t] = x
    return out


def encode_esn_batch(params: EsnParams, xs: np.ndarray) -> np.ndarray:
    fwd = reservoir_states_batch(params.w_in_f, params.w_rec_f, params.leak, xs)
    bwd = reservoir_states_batch(params.w_in_b, params.w_rec_b, params.leak, xs[:, ::-1])
    return np.concatenate([fwd, bwd[:, ::-1]], axis=2)


# ---------------------------------------------------------------------------
# Temporal CNN: valid convolution over a k-word window, bias, no nonlinearity.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnnParams:
    kind: ClassVar[str] = "cnn"
    seed: int
    in_dim: int
    out_dim: int
    window: int
    w: np.ndarray  # D x k x D'
    b: np.ndarray  # D'


def _check_cnn(out_dim: int, window: int, from_borep: bool) -> None:
    if window < 1:
        raise ConfigError(f"cnn window must be >= 1, got {window}")
    if not isinstance(from_borep, bool):
        raise ConfigError(f"cnn from_borep must be true or false, got {from_borep!r}")
    if from_borep and window != 1:
        raise ConfigError("from_borep mapping requires window=1")


def build_cnn(
    seed: int, in_dim: int, out_dim: int, window: int = 3, from_borep: bool = False
) -> CnnParams:
    """D'-channel temporal filter over a window of `window` words.

    Draw order: w as one uniform block of shape (D, k, D') filled in C
    order, bound +-1/sqrt(D) with D the word embedding dimension; then b
    (D',) with the same bound. With from_borep=True (validation hook,
    window must be 1) the filter is instead mapped from the BOREP
    projection of the same seed and the bias is zero, which makes the two
    encoders identical.
    """
    _check_cnn(out_dim, window, from_borep)
    if from_borep:
        return cnn_from_borep(build_borep(seed, in_dim, out_dim))
    rng = SeededRng(seed)
    bound = 1.0 / math.sqrt(in_dim)
    w = rng.uniform(-bound, bound, (in_dim, window, out_dim))
    b = rng.uniform(-bound, bound, (out_dim,))
    return CnnParams(seed, in_dim, out_dim, window, _frozen(w), _frozen(b))


def cnn_from_borep(params: BorepParams) -> CnnParams:
    """Window-1 CNN reproducing a BOREP projection exactly (zero bias)."""
    w = params.w_proj.T[:, None, :].copy()
    b = np.zeros(params.out_dim)
    return CnnParams(params.seed, params.in_dim, params.out_dim, 1, _frozen(w), _frozen(b))


def encode_cnn(params: CnnParams, seq: TokenSequence) -> np.ndarray:
    _check_input_dim(params, seq)
    e = seq.vectors
    k = params.window
    if e.shape[0] < k:
        pad = np.zeros((k - e.shape[0], e.shape[1]))
        e = np.vstack([pad, e])  # left zero-pad so pooling always has a row
    t_out = e.shape[0] - k + 1
    out = np.tile(params.b, (t_out, 1))
    for j in range(k):
        out += e[j : j + t_out] @ params.w[:, j, :]
    return out


def encode_cnn_batch(params: CnnParams, xs: np.ndarray) -> np.ndarray:
    # same padding and per-sentence products as encode_cnn: rows stay bit-exact
    k = params.window
    b_len, t_len, dim = xs.shape
    if t_len < k:
        xs = np.concatenate([np.zeros((b_len, k - t_len, dim)), xs], axis=1)
    t_out = xs.shape[1] - k + 1
    out = np.tile(params.b, (b_len, t_out, 1))
    for j in range(k):
        out += xs[:, j : j + t_out] @ params.w[:, j, :]
    return out


# ---------------------------------------------------------------------------
# Random multi-head self-attention with sinusoidal positional encodings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttentionBlock:
    """One layer's projections, heads stacked on the leading axis."""

    w_q: np.ndarray  # H x d_k x D'
    w_k: np.ndarray  # H x d_k x D'
    w_v: np.ndarray  # H x d_v x D'
    w_o: np.ndarray  # D' x D'


@dataclass(frozen=True)
class SelfAttentionParams:
    kind: ClassVar[str] = "self_attention"
    seed: int
    in_dim: int
    out_dim: int
    heads: int
    n_layers: int
    use_pe: bool
    w_up: np.ndarray  # D' x D
    blocks: tuple[AttentionBlock, ...]


def _check_self_attention(out_dim: int, heads: int, n_layers: int, use_pe: bool) -> None:
    for key, count in (("heads", heads), ("n_layers", n_layers)):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
            raise ConfigError(f"self_attention {key} must be an integer, got {count!r}")
    if heads < 1 or out_dim % heads != 0:
        raise ConfigError(
            f"self_attention needs out_dim divisible by heads, got {out_dim} % {heads}"
        )
    if n_layers < 1:
        raise ConfigError(f"self_attention needs at least one layer, got {n_layers}")
    if not isinstance(use_pe, bool):
        raise ConfigError(f"self_attention use_pe must be true or false, got {use_pe!r}")
    if use_pe and out_dim % 2 != 0:
        raise ConfigError(f"self_attention with use_pe needs an even output dim, got {out_dim}")


def build_self_attention(
    seed: int,
    in_dim: int,
    out_dim: int,
    heads: int = 8,
    n_layers: int = 2,
    use_pe: bool = True,
) -> SelfAttentionParams:
    """Up-projection, optional positional encodings, then n_layers of
    multi-head self-attention with residual and layer normalization.

    All projections are Xavier uniform. Draw order: w_up (D' x D); then per
    layer, per head: w_q (d_k x D'), w_k (d_k x D'), w_v (d_v x D'); then
    the layer's w_o (D' x D'). d_k = d_v = D' / heads.
    """
    _check_self_attention(out_dim, heads, n_layers, use_pe)
    d_k = out_dim // heads
    rng = SeededRng(seed)
    w_up = _frozen(xavier_uniform_init(rng, out_dim, in_dim))
    blocks = []
    for _layer in range(n_layers):
        qs, ks, vs = [], [], []
        for _head in range(heads):
            qs.append(xavier_uniform_init(rng, d_k, out_dim))
            ks.append(xavier_uniform_init(rng, d_k, out_dim))
            vs.append(xavier_uniform_init(rng, d_k, out_dim))
        w_o = xavier_uniform_init(rng, out_dim, out_dim)
        blocks.append(
            AttentionBlock(
                _frozen(np.stack(qs)), _frozen(np.stack(ks)), _frozen(np.stack(vs)), _frozen(w_o)
            )
        )
    return SelfAttentionParams(
        seed, in_dim, out_dim, heads, n_layers, use_pe, w_up, tuple(blocks)
    )


def sinusoidal_pe(length: int, dim: int) -> np.ndarray:
    """Deterministic positional encodings: PE(pos, 2i) = sin(pos / 10000^(2i/dim)),
    PE(pos, 2i+1) = cos of the same angle."""
    if dim % 2 != 0:
        raise ConfigError(f"positional encodings need an even dim, got {dim}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.empty((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def multi_head_attention(
    z: np.ndarray, block: AttentionBlock, return_weights: bool = False
):
    """Multi-head scaled dot-product attention over z (T x D'), pre-residual.

    Per head: q_t = W_q z_t, k_j = W_k z_j, v_j = W_v z_j; position t gets
    softmax(q_t . k_* / sqrt(d_k))-weighted sum of values. Head outputs are
    concatenated and passed through w_o.
    """
    heads = block.w_q.shape[0]
    d_k = block.w_q.shape[1]
    outs = []
    weights = []
    for h in range(heads):
        q = z @ block.w_q[h].T
        k = z @ block.w_k[h].T
        v = z @ block.w_v[h].T
        attn = softmax_rows((q @ k.T) / math.sqrt(d_k))
        outs.append(attn @ v)
        if return_weights:
            weights.append(attn)
    mixed = np.hstack(outs) @ block.w_o.T
    if return_weights:
        return mixed, weights
    return mixed


def encode_self_attention(params: SelfAttentionParams, seq: TokenSequence) -> np.ndarray:
    _check_input_dim(params, seq)
    z = seq.vectors @ params.w_up.T
    if params.use_pe:
        z = z + sinusoidal_pe(z.shape[0], params.out_dim)
    for block in params.blocks:
        z = layer_norm(z + multi_head_attention(z, block))
    return z


def _multi_head_attention_batch(z: np.ndarray, block: AttentionBlock) -> np.ndarray:
    """multi_head_attention over B equal-length sentences (z is B x T x D'):
    each of q, k, v is one product over every head's weights, viewed as
    (H * d_k) x D'."""
    b_len, t_len, width = z.shape
    heads, d_k, _ = block.w_q.shape

    def project(w: np.ndarray) -> np.ndarray:  # B x H x T x d_k
        rows = _matmul_rows(z, w.reshape(heads * d_k, width).T)
        return rows.reshape(b_len, t_len, heads, d_k).transpose(0, 2, 1, 3)

    q, k, v = project(block.w_q), project(block.w_k), project(block.w_v)
    scores = (q @ k.transpose(0, 1, 3, 2)) / math.sqrt(d_k)  # B x H x T x T
    attn = softmax_rows(scores.reshape(-1, t_len)).reshape(scores.shape)
    mixed = (attn @ v).transpose(0, 2, 1, 3)  # B x T x H x d_k, heads concatenated
    return _matmul_rows(mixed.reshape(b_len, t_len, heads * d_k), block.w_o.T)


def encode_self_attention_batch(params: SelfAttentionParams, xs: np.ndarray) -> np.ndarray:
    z = _matmul_rows(xs, params.w_up.T)
    if params.use_pe:
        z = z + sinusoidal_pe(z.shape[1], params.out_dim)
    for block in params.blocks:
        z = layer_norm(z + _multi_head_attention_batch(z, block))
    return z


# ---------------------------------------------------------------------------
# Construction, dispatch, pooling.
# ---------------------------------------------------------------------------


def build_encoder(kind: str, seed: int, in_dim: int, out_dim: int, **hyper):
    """Construct frozen parameters for any encoder kind."""
    if kind not in KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")
    try:
        return KINDS[kind].build(seed, in_dim, out_dim, **hyper)
    except TypeError as exc:
        raise ConfigError(f"{kind}: bad hyperparameters ({exc})") from None


def encode(params, seq: TokenSequence, tree=None) -> np.ndarray:
    """Run one frozen encoder over a sentence: a T x D' array.

    tree is required for (and only used by) a kind that reads parses. The
    checks are encode_corpus's; output is finite and at least 1 row long.
    """
    kind = params.kind
    if kind not in KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}")
    _check_sentence(params, seq, tree)
    values = KINDS[kind].encode(params, seq, tree)
    if not np.isfinite(values).all():
        raise ArithmeticError(f"{kind}: non-finite values in encoder output")
    return values


def pool(values: np.ndarray, kind: str) -> np.ndarray:
    """Temporal pooling over the rows axis (-2): columnwise max or arithmetic
    mean of a T x D' sentence, or of each sentence of a B x T x D' batch."""
    if kind not in POOLINGS:
        raise ValueError(f"unknown pooling {kind!r}; expected one of {POOLINGS}")
    if values.shape[-2] < 1:
        raise ValueError("cannot pool an empty context matrix")
    return values.max(axis=-2) if kind == "max" else values.mean(axis=-2)


def encode_and_pool(params, seq: TokenSequence, pooling: str, tree=None) -> np.ndarray:
    return pool(encode(params, seq, tree=tree), pooling)


# Most sentences one batch holds. Batches are cut from equal-length runs, so
# these bound the working arrays, and with them peak memory: B x T x 4D'
# LSTM gates and a dozen B x T x D' attention arrays; a tree sentence
# carries more, 2T - 1 node states and T leaves of 5D' gates, so its batches
# are smaller. Measured on 2 cores with OpenBLAS: on the desk protocol
# (D'=128) batches of 32 sentences and 16 trees raised the sweep's peak RSS
# by 8.5%, 16 and 8 raise it by 2% at the same speed; at D'=1024, batches
# of 32 encode about 15% faster than batches of 16.
_BATCH_SENTENCES = 16
_TREE_BATCH_SENTENCES = 8


def _check_sentence(params, seq: TokenSequence, tree) -> None:
    """The checks encode() and encode_corpus() make before any arithmetic."""
    reads_parses = KINDS[params.kind].reads_parses
    if reads_parses and tree is None:
        raise ValueError(f"{params.kind} encoding requires a parse tree")
    _check_input_dim(params, seq)
    if reads_parses:
        trees.check_leaf_count(tree, seq)


def encode_corpus(
    params,
    seqs: list[TokenSequence],
    poolings: tuple[str, ...],
    trees=None,
) -> dict[str, np.ndarray]:
    """Pooled embeddings for a corpus: {pooling: N x D' matrix}, rows in
    input order.

    Every sentence is checked as encode() checks it before any is encoded.
    Sentences are then sorted by length (a stable sort) and cut into
    equal-length batches, so no padding or masks are needed; the kind's
    encode_batch encodes each batch and it is pooled every requested way.
    borep and cnn rows equal encode_and_pool(...) bit for bit; the
    recurrent, attention and tree kinds add their products in another
    order and agree with it to within 1e-12.
    """
    if params.kind not in KINDS:
        raise ConfigError(f"unknown encoder kind {params.kind!r}")
    trees = trees if trees is not None else [None] * len(seqs)
    if len(trees) != len(seqs):
        raise ValueError("trees and sequences must align one to one")
    for kind in poolings:
        if kind not in POOLINGS:
            raise ValueError(f"unknown pooling {kind!r}; expected one of {POOLINGS}")
    for seq, tree in zip(seqs, trees):
        _check_sentence(params, seq, tree)

    entry = KINDS[params.kind]
    cap = _TREE_BATCH_SENTENCES if entry.reads_parses else _BATCH_SENTENCES
    lengths = [len(seq) for seq in seqs]
    order = sorted(range(len(seqs)), key=lengths.__getitem__)
    out = {kind: np.empty((len(seqs), params.out_dim)) for kind in poolings}
    for _length, run in itertools.groupby(order, key=lengths.__getitem__):
        run = list(run)
        for lo in range(0, len(run), cap):
            idx = run[lo : lo + cap]
            values = entry.encode_batch(params, [seqs[i] for i in idx], [trees[i] for i in idx])
            if not np.isfinite(values).all():
                raise ArithmeticError(f"{params.kind}: non-finite values in encoder output")
            for kind, rows in out.items():
                rows[idx] = pool(values, kind)
    return out


# ---------------------------------------------------------------------------
# The kind table: the one place that lists the encoder kinds.
# ---------------------------------------------------------------------------


class EncoderKind(NamedTuple):
    """One encoder kind: its params dataclass, its builder
    (seed, in_dim, out_dim, **hyper) -> params, the checks the builder
    makes first, which draw nothing and take out_dim and the hyperparameters
    by name, its per-sentence encoder (params, seq, tree) -> T x D' array,
    and its batch encoder (params, seqs, trees) -> B x T x D' array over B
    checked sentences of one length, T the rows encode gives each of them.
    reads_parses marks a kind that takes one parse per sentence; the others
    get None."""

    params: type
    build: Callable
    check: Callable
    encode: Callable
    encode_batch: Callable
    reads_parses: bool = False


def _sequence_kind(
    params: type, build: Callable, check: Callable, encode_fn: Callable, batch_fn: Callable
) -> EncoderKind:
    return EncoderKind(
        params,
        build,
        check,
        lambda p, seq, tree: encode_fn(p, seq),
        lambda p, seqs, trees: batch_fn(p, np.stack([seq.vectors for seq in seqs])),
    )


# trees builds on this module's LSTM pieces, so it is imported once they exist
from . import trees  # noqa: E402

KINDS = {entry.params.kind: entry for entry in (
    _sequence_kind(BorepParams, build_borep, lambda out_dim: None, encode_borep,
                   encode_borep_batch),
    _sequence_kind(RandLstmParams, build_rand_lstm, _check_rand_lstm, encode_rand_lstm,
                   encode_rand_lstm_batch),
    _sequence_kind(EsnParams, build_esn, _check_esn, encode_esn, encode_esn_batch),
    _sequence_kind(CnnParams, build_cnn, _check_cnn, encode_cnn, encode_cnn_batch),
    _sequence_kind(
        SelfAttentionParams,
        build_self_attention,
        _check_self_attention,
        encode_self_attention,
        encode_self_attention_batch,
    ),
    # looked up on trees at each call, so a wrapper set on that module is used;
    # wraps gives the builder's signature, which specs are read and checked by
    EncoderKind(
        trees.TreeLstmParams,
        functools.wraps(trees.build_tree_lstm)(
            lambda *args, **hyper: trees.build_tree_lstm(*args, **hyper)
        ),
        trees.check_tree_lstm,
        lambda p, seq, tree: trees.encode_tree_lstm(p, seq, tree),
        lambda p, seqs, parses: trees.encode_tree_lstm_batch(p, seqs, parses),
        reads_parses=True,
    ),
)}
ENCODER_KINDS = tuple(KINDS)


# ---------------------------------------------------------------------------
# Encoder specs: "kind(key=value,...)" tokens read against the kind table.
# ---------------------------------------------------------------------------

# a spec value is read as the type of its builder default
_READERS = {
    bool: lambda raw: {"true": True, "false": False}[raw.lower()],
    int: int,
    float: float,
    str: str,
}


def _hyperparameters(kind: str) -> dict[str, object]:
    """The names kind's builder takes after seed, in_dim and out_dim, with
    their defaults."""
    params = list(inspect.signature(KINDS[kind].build).parameters.values())
    return {p.name: p.default for p in params[3:]}


@dataclass(frozen=True)
class EncoderSpec:
    """One encoder column of a sweep: kind plus fixed hyperparameters.

    label is the config-file token ("cnn(window=2)"), used verbatim in the
    encoder column of every output table.
    """

    kind: str
    hyper: tuple[tuple[str, object], ...] = ()
    label: str = ""

    def hyper_dict(self) -> dict:
        return dict(self.hyper)

    def check(self, out_dim: int) -> None:
        """The kind's builder checks at width out_dim, with the builder's
        defaults filled in; nothing is drawn. A name the checks do not take,
        or a value they reject, raises ConfigError naming the spec."""
        try:
            KINDS[self.kind].check(out_dim=out_dim,
                                   **{**_hyperparameters(self.kind), **self.hyper_dict()})
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"encoder spec {self.label!r}: bad hyperparameters ({exc})") from None


def parse_encoder_spec(token: str) -> EncoderSpec:
    """Parse "kind" or "kind(key=value,key=value)" into an EncoderSpec. Each
    key must be a name the kind's builder takes, given once. Its value is
    read as the type of the builder's default: true or false for a bool,
    int() for an int, float() for a float, the text as written for a str."""
    token = token.strip()
    pairs = []
    if "(" in token:
        if not token.endswith(")"):
            raise ConfigError(f"malformed encoder spec {token!r}")
        kind, _, inner = token[:-1].partition("(")
        for part in filter(None, (p.strip() for p in inner.split(","))):
            if "=" not in part:
                raise ConfigError(f"encoder spec {token!r}: expected key=value, got {part!r}")
            key, _, raw = part.partition("=")
            pairs.append((key.strip(), raw.strip()))
    else:
        kind = token
    kind = kind.strip()
    if kind not in KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")

    def bad(reason: str) -> ConfigError:
        return ConfigError(f"encoder spec {token!r}: bad hyperparameters ({reason})")

    names = [key for key, _ in pairs]
    taken = _hyperparameters(kind)
    hyper = []
    for key, raw in pairs:
        if names.count(key) > 1:
            raise bad(f"{key!r} is given more than once")
        if key not in taken:
            expected = f"; it takes {', '.join(taken)}" if taken else ""
            raise bad(f"{kind} takes no {key!r}{expected}")
        default = taken[key]
        try:
            value = _READERS[type(default)](raw)
        except (KeyError, ValueError):
            raise bad(f"{kind} {key}= takes {type(default).__name__} values, "
                      f"got {raw!r}") from None
        hyper.append((key, value))
    return EncoderSpec(kind, tuple(hyper), token)
