"""End-to-end acceptance gate.

Each test covers one release criterion, enforces its stated tolerance and
runtime budget, and prints a single pass/fail line (visible with -s, or in
the captured output of a failing run). Oracles here are naive loops kept
independent of the library's vectorized paths.
"""

import math
import os
import time

import numpy as np

from randenc.embeddings import TokenSequence, write_embeddings
from randenc.encoders import (
    build_borep,
    build_esn,
    build_rand_lstm,
    build_self_attention,
    cnn_from_borep,
    encode,
    encode_and_pool,
    encode_cnn,
    encode_self_attention,
    reservoir_states,
    sinusoidal_pe,
)
from randenc.numerics import SeededRng
from randenc.probe import (
    ProbeConfig,
    ProbeModel,
    evaluate,
    fit,
    init_params,
    loss_and_grad,
)
from randenc.runner import ExperimentConfig, run_experiment
from randenc.tasks import (
    make_synthetic_embeddings,
    make_synthetic_order_task,
    synthetic_vocabulary,
    write_task_files,
)
from randenc.trees import build_tree_lstm, encode_tree_lstm, right_branching_parse

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def report(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number} {status}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.2f}s >= {budget}s"


def random_seq(rng: SeededRng, t: int, d: int) -> TokenSequence:
    vectors = rng.uniform(-1.0, 1.0, (t, d))
    return TokenSequence(tokens=tuple(f"t{i}" for i in range(t)), vectors=vectors)


# ---------------------------------------------------------------------------
# 1. mapped CNN(k=1) == BOREP
# ---------------------------------------------------------------------------


def test_criterion_1_cnn_window1_matches_borep():
    start = time.perf_counter()
    rng = SeededRng(101)
    worst = 0.0
    for i in range(100):
        t = int(rng.integers(1, 13))
        seq = random_seq(rng, t, 16)
        borep = build_borep(seed=i, in_dim=16, out_dim=64)
        cnn = cnn_from_borep(borep)
        a = encode(borep, seq)
        b = encode_cnn(cnn, seq)
        worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.perf_counter() - start
    report(1, f"mapped CNN(k=1) vs BOREP, L-inf {worst:.2e}", worst <= 1e-12, elapsed, 5.0)


# ---------------------------------------------------------------------------
# 2. brute-force oracles
# ---------------------------------------------------------------------------


def naive_layer_norm(v):
    mean = sum(v) / len(v)
    var = sum((x - mean) ** 2 for x in v) / len(v)
    return [(x - mean) / math.sqrt(var + 1e-5) for x in v]


def naive_matvec(m, v):
    return [sum(m[r][c] * v[c] for c in range(len(v))) for r in range(len(m))]


def naive_attention_forward(params, x):
    dp = params.w_up.shape[0]
    z = [naive_matvec(params.w_up.tolist(), row) for row in x.tolist()]
    if params.use_pe:
        pe = sinusoidal_pe(len(z), dp)
        z = [[z[t][j] + pe[t][j] for j in range(dp)] for t in range(len(z))]
    for block in params.blocks:
        t_len = len(z)
        merged = [[0.0] * dp for _ in range(t_len)]
        d_k = dp // params.heads
        for h in range(params.heads):
            q = [naive_matvec(block.w_q[h].tolist(), row) for row in z]
            k = [naive_matvec(block.w_k[h].tolist(), row) for row in z]
            v = [naive_matvec(block.w_v[h].tolist(), row) for row in z]
            for t in range(t_len):
                scores = [
                    sum(q[t][j] * k[s][j] for j in range(d_k)) / math.sqrt(d_k)
                    for s in range(t_len)
                ]
                m = max(scores)
                exps = [math.exp(s - m) for s in scores]
                total = sum(exps)
                weights = [e / total for e in exps]
                for j in range(d_k):
                    merged[t][h * d_k + j] = sum(
                        weights[s] * v[s][j] for s in range(t_len)
                    )
        attended = [naive_matvec(block.w_o.tolist(), row) for row in merged]
        z = [
            naive_layer_norm([z[t][j] + attended[t][j] for j in range(dp)])
            for t in range(t_len)
        ]
    return np.array(z)


def naive_lstm_direction(w, u, b, xs, hidden):
    def gate(z, lo, hi, squash):
        return [squash(z[i]) for i in range(lo, hi)]

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    h = [0.0] * hidden
    c = [0.0] * hidden
    states = []
    for x in xs:
        z = [
            sum(w[r][j] * x[j] for j in range(len(x)))
            + sum(u[r][j] * h[j] for j in range(hidden))
            + b[r]
            for r in range(4 * hidden)
        ]
        i = gate(z, 0, hidden, sig)
        f = gate(z, hidden, 2 * hidden, sig)
        g = gate(z, 2 * hidden, 3 * hidden, math.tanh)
        o = gate(z, 3 * hidden, 4 * hidden, sig)
        c = [f[j] * c[j] + i[j] * g[j] for j in range(hidden)]
        h = [o[j] * math.tanh(c[j]) for j in range(hidden)]
        states.append(list(h))
    return states


def naive_bilstm(params, xs):
    fwd = naive_lstm_direction(
        params.forward.w.tolist(), params.forward.u.tolist(),
        params.forward.b.tolist(), xs, params.forward.hidden,
    )
    bwd = naive_lstm_direction(
        params.backward.w.tolist(), params.backward.u.tolist(),
        params.backward.b.tolist(), xs[::-1], params.backward.hidden,
    )[::-1]
    return [f + b for f, b in zip(fwd, bwd)]


def naive_tree_cell(w, u_l, u_r, b, x, h_l, c_l, h_r, c_r, dp):
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    z = [
        sum(w[r][j] * x[j] for j in range(dp))
        + sum(u_l[r][j] * h_l[j] for j in range(dp))
        + sum(u_r[r][j] * h_r[j] for j in range(dp))
        + b[r]
        for r in range(5 * dp)
    ]
    i = [sig(z[j]) for j in range(dp)]
    f_l = [sig(z[dp + j]) for j in range(dp)]
    f_r = [sig(z[2 * dp + j]) for j in range(dp)]
    o = [sig(z[3 * dp + j]) for j in range(dp)]
    u = [math.tanh(z[4 * dp + j]) for j in range(dp)]
    c = [i[j] * u[j] + f_l[j] * c_l[j] + f_r[j] * c_r[j] for j in range(dp)]
    h = [o[j] * math.tanh(c[j]) for j in range(dp)]
    return h, c


def test_criterion_2_brute_force_oracles():
    start = time.perf_counter()
    rng = SeededRng(202)
    ok = True

    # self-attention, T <= 6, heads <= 2, with and without PE
    for heads, use_pe, t in ((1, False, 4), (2, True, 6), (2, False, 5)):
        params = build_self_attention(
            seed=11 + heads, in_dim=6, out_dim=8, heads=heads, n_layers=2, use_pe=use_pe
        )
        seq = random_seq(rng, t, 6)
        got = encode_self_attention(params, seq)
        want = naive_attention_forward(params, seq.vectors)
        ok &= float(np.abs(got - want).max()) <= 1e-10

    # LSTM recurrence, T <= 3
    lstm = build_rand_lstm(seed=5, in_dim=4, out_dim=8)
    seq = random_seq(rng, 3, 4)
    got = encode(lstm, seq)
    want = np.array(naive_bilstm(lstm, seq.vectors.tolist()))
    ok &= float(np.abs(got - want).max()) <= 1e-10

    # TreeLSTM cell on a 2-leaf tree (leaf, leaf, root in post-order)
    tl = build_tree_lstm(seed=9, in_dim=4, out_dim=6)
    seq = random_seq(rng, 2, 4)
    tree = right_branching_parse(list(seq.tokens))
    got = encode_tree_lstm(tl, seq, tree)
    ctx = naive_bilstm(
        type("P", (), {"forward": tl.leaf_forward, "backward": tl.leaf_backward})(),
        seq.vectors.tolist(),
    )
    w, u_l, u_r, b = tl.w.tolist(), tl.u_l.tolist(), tl.u_r.tolist(), tl.b.tolist()
    zeros = [0.0] * 6
    h_a, c_a = naive_tree_cell(w, u_l, u_r, b, ctx[0], zeros, zeros, zeros, zeros, 6)
    h_b, c_b = naive_tree_cell(w, u_l, u_r, b, ctx[1], zeros, zeros, zeros, zeros, 6)
    zero_x = [0.0] * 6
    h_root, _ = naive_tree_cell(
        [[0.0] * 6 for _ in range(30)], u_l, u_r, b, zero_x, h_a, c_a, h_b, c_b, 6
    )
    want = np.array([h_a, h_b, h_root])
    ok &= float(np.abs(got - want).max()) <= 1e-10

    elapsed = time.perf_counter() - start
    report(2, "attention/LSTM/TreeLSTM naive-loop oracles", ok, elapsed, 10.0)


# ---------------------------------------------------------------------------
# 3. permutation suite
# ---------------------------------------------------------------------------


def test_criterion_3_permutation_suite():
    start = time.perf_counter()
    rng = SeededRng(303)
    borep = build_borep(seed=1, in_dim=12, out_dim=32)
    attn_nope = build_self_attention(
        seed=2, in_dim=12, out_dim=32, heads=2, n_layers=2, use_pe=False
    )
    attn_pe = build_self_attention(
        seed=2, in_dim=12, out_dim=32, heads=2, n_layers=2, use_pe=True
    )
    invariant_ok = True
    n_differ = 0
    for i in range(20):
        t = int(rng.integers(4, 10))
        seq = random_seq(rng, t, 12)
        perm = rng.permutation(t)
        while (perm == np.arange(t)).all():
            perm = rng.permutation(t)
        shuffled = TokenSequence(
            tokens=tuple(seq.tokens[j] for j in perm), vectors=seq.vectors[perm]
        )
        for params in (borep, attn_nope):
            a = encode_and_pool(params, seq, "max")
            b = encode_and_pool(params, shuffled, "max")
            invariant_ok &= float(np.abs(a - b).max()) <= 1e-10
        a = encode_and_pool(attn_pe, seq, "max")
        b = encode_and_pool(attn_pe, shuffled, "max")
        n_differ += float(np.abs(a - b).max()) > 1e-6
    elapsed = time.perf_counter() - start
    report(
        3,
        f"BOREP/no-PE invariant, with-PE differs on {n_differ}/20",
        invariant_ok and n_differ == 20,
        elapsed,
        30.0,
    )


# ---------------------------------------------------------------------------
# 4. ESN spectral radius + echo-state contraction
# ---------------------------------------------------------------------------


def test_criterion_4_esn_radius_and_contraction():
    start = time.perf_counter()
    params = build_esn(seed=7, in_dim=16, out_dim=128, rho=0.9)
    radius_f = float(np.abs(np.linalg.eigvals(params.w_rec_f)).max())
    radius_b = float(np.abs(np.linalg.eigvals(params.w_rec_b)).max())
    radius_ok = abs(radius_f - 0.9) <= 1e-3 and abs(radius_b - 0.9) <= 1e-3

    rng = SeededRng(99)
    xs = rng.uniform(-1.0, 1.0, (50, 16))
    x0 = rng.uniform(-1.0, 1.0, (64,))
    s_zero = reservoir_states(params.w_in_f, params.w_rec_f, params.leak, xs)
    s_other = reservoir_states(params.w_in_f, params.w_rec_f, params.leak, xs, x0=x0)
    distance = float(np.abs(s_zero[-1] - s_other[-1]).max())
    elapsed = time.perf_counter() - start
    report(
        4,
        f"radius {radius_f:.6f}/{radius_b:.6f}, 50-step contraction {distance:.2e}",
        radius_ok and distance < 1e-3,
        elapsed,
        30.0,
    )


# ---------------------------------------------------------------------------
# 5. probe correctness
# ---------------------------------------------------------------------------


def test_criterion_5_probe_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(50)

    # gradients vs central differences on a random 5-class problem
    eps = 1e-5
    grad_ok = True
    for kind in ("logreg", "mlp"):
        x = rng.normal(size=(10, 4))
        y = rng.integers(0, 5, size=10)
        params = init_params(kind, 4, 5, 6, seed=1)
        params = [p + rng.normal(size=p.shape) * 0.3 for p in params]
        _, analytic = loss_and_grad(params, x, y, 1e-3, kind)
        for pi, grad in enumerate(analytic):
            flat_view = params[pi].ravel()
            for idx in range(flat_view.size):
                orig = flat_view[idx]
                flat_view[idx] = orig + eps
                up, _ = loss_and_grad(params, x, y, 1e-3, kind)
                flat_view[idx] = orig - eps
                down, _ = loss_and_grad(params, x, y, 1e-3, kind)
                flat_view[idx] = orig
                numeric = (up - down) / (2 * eps)
                a = grad.ravel()[idx]
                denom = max(1e-12, abs(a), abs(numeric))
                grad_ok &= abs(a - numeric) / denom < 1e-4

    # ln 2 initial loss, zero-initialized logreg, balanced binary labels
    xb = rng.normal(size=(40, 6))
    yb = np.array([0, 1] * 20)
    loss0, _ = loss_and_grad(init_params("logreg", 6, 2, 0, seed=0), xb, yb, 0.0, "logreg")
    ln2_ok = abs(loss0 - math.log(2.0)) < 1e-12

    # >= 99% train accuracy on separable blobs within 500 epochs
    half = 100
    blob_rng = np.random.default_rng(4)
    xs = np.vstack([
        blob_rng.normal(size=(half, 2)) * 0.3 + [1.0, 0.0],
        blob_rng.normal(size=(half, 2)) * 0.3 + [-1.0, 0.0],
    ])
    ys = np.array([0] * half + [1] * half)
    cfg = ProbeConfig(max_epochs=500)
    best, _, _, _ = fit(xs, ys, xs, ys, cfg, n_classes=2, l2=0.0)
    train_acc = evaluate(ProbeModel("logreg", 0.0, tuple(best)), xs, ys)

    elapsed = time.perf_counter() - start
    report(
        5,
        f"gradcheck ok={grad_ok}, initial loss {loss0:.12f}, blobs {train_acc:.3f}",
        grad_ok and ln2_ok and train_acc >= 0.99,
        elapsed,
        30.0,
    )


# ---------------------------------------------------------------------------
# 6. byte-identical determinism
# ---------------------------------------------------------------------------


def stage_config(tmp_path, n, encoders, dims, seeds, max_epochs=60):
    ds = make_synthetic_order_task(n, n_fillers=16, seed=0)
    manifest = write_task_files(ds, str(tmp_path / "order"))
    table = make_synthetic_embeddings(synthetic_vocabulary(16), 16, seed=1)
    write_embeddings(table, str(tmp_path / "vectors.txt"))
    config = tmp_path / "sweep.config"
    config.write_text(
        "embeddings=vectors.txt\n"
        f"tasks={os.path.relpath(manifest, tmp_path)}\n"
        f"encoders={encoders}\n"
        f"dims={dims}\n"
        "poolings=max\n"
        f"seeds={seeds}\n"
        f"max_epochs={max_epochs}\n"
        "output_dir=out\n"
        "timing=off\n",
        encoding="utf-8",
    )
    return str(config)


def test_criterion_6_byte_identical_sweeps(tmp_path):
    start = time.perf_counter()
    path = stage_config(tmp_path, 120, "borep,rand_lstm", "16,32", "1,2")
    config = ExperimentConfig.from_file(path)

    def run_once():
        run_experiment(config)
        with open(os.path.join(config.output_dir, "results.csv"), "rb") as fh:
            results = fh.read()
        with open(os.path.join(config.output_dir, "summary.csv"), "rb") as fh:
            summary = fh.read()
        return results, summary

    first = run_once()
    second = run_once()
    n_rows = len(first[0].splitlines()) - 1
    elapsed = time.perf_counter() - start
    report(
        6,
        f"two 2x2x2 sweep runs byte-identical over {n_rows} rows",
        first == second and n_rows == 8,
        elapsed,
        120.0,
    )


# ---------------------------------------------------------------------------
# 7. desk-scale end-to-end
# ---------------------------------------------------------------------------


def test_criterion_7_desk_scale_all_encoders(tmp_path):
    start = time.perf_counter()
    ds = make_synthetic_order_task(2000, seed=0)
    manifest = write_task_files(ds, str(tmp_path / "order"))
    table = make_synthetic_embeddings(synthetic_vocabulary(64), 16, seed=1)
    write_embeddings(table, str(tmp_path / "vectors.txt"))
    config = tmp_path / "sweep.config"
    config.write_text(
        "embeddings=vectors.txt\n"
        f"tasks={os.path.relpath(manifest, tmp_path)}\n"
        "encoders=borep,rand_lstm,esn,cnn,self_attention,tree_lstm\n"
        "dims=128\n"
        "poolings=max\n"
        "seeds=1,2,3,4,5\n"
        "output_dir=out\n"
        "timing=off\n",
        encoding="utf-8",
    )
    result = run_experiment(ExperimentConfig.from_file(str(config)))
    assert not result.errors, [r.error for r in result.errors]
    assert len(result.rows) == 30
    assert len(result.summary) == 6
    floor = {}
    for row in result.rows:
        kind = row.encoder
        floor[kind] = min(floor.get(kind, 1.0), row.accuracy)
    all_clear = all(v >= 0.55 for v in floor.values())
    means = {s.encoder: s.mean for s in result.summary}
    sds = {s.encoder: s.sd for s in result.summary}
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {means[k]:.3f}+-{sds[k]:.3f}" for k in sorted(means))
    report(7, f"n=2000 D'=128 5 seeds: {detail}", all_clear, elapsed, 300.0)


# ---------------------------------------------------------------------------
# 8. full-scale mode is documented
# ---------------------------------------------------------------------------


def test_criterion_8_full_scale_mode_documented():
    start = time.perf_counter()
    ok = os.path.exists(README)
    text = open(README, encoding="utf-8").read().lower() if ok else ""
    ok = ok and "full-scale" in text
    # the documented protocol names the production dims, seed count and poolings
    ok = ok and "4096" in text and "seeds" in text
    ok = ok and "mean" in text and "max" in text
    elapsed = time.perf_counter() - start
    report(8, "full-scale mode documented in README", ok, elapsed, 5.0)
