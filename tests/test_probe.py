import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randenc import probe
from randenc.probe import (
    DegenerateTaskError,
    ProbeConfig,
    ProbeModel,
    SplitPlan,
    evaluate,
    fit,
    init_params,
    kfold_accuracy,
    loss_and_grad,
    pair_features,
    predict,
    stratified_folds,
    train_probe,
)

# ---------------------------------------------------------------------------
# pair features
# ---------------------------------------------------------------------------


def test_pair_features_equal_inputs(nprng):
    u = nprng.normal(size=5)
    out = pair_features(u, u)
    assert np.array_equal(out[10:15], np.zeros(5))  # |u - v|
    assert np.allclose(out[15:20], u * u)


def test_pair_features_zero_u(nprng):
    v = nprng.normal(size=4)
    out = pair_features(np.zeros(4), v)
    assert np.array_equal(out[:4], np.zeros(4))
    assert np.array_equal(out[4:8], v)
    assert np.array_equal(out[8:12], np.abs(v))
    assert np.array_equal(out[12:16], np.zeros(4))


def test_pair_features_hand_computation():
    u = np.array([1.0, -2.0, 0.5])
    v = np.array([0.5, 1.0, -0.5])
    out = pair_features(u, v)
    expected = np.concatenate([u, v, [0.5, 3.0, 1.0], [0.5, -2.0, -0.25]])
    assert np.abs(out - expected).max() < 1e-15


def test_pair_features_batched(nprng):
    u = nprng.normal(size=(6, 3))
    v = nprng.normal(size=(6, 3))
    out = pair_features(u, v)
    assert out.shape == (6, 12)
    assert np.array_equal(out[2], pair_features(u[2], v[2]))


def test_pair_features_width_mismatch(nprng):
    with pytest.raises(ValueError):
        pair_features(nprng.normal(size=4), nprng.normal(size=5))


# ---------------------------------------------------------------------------
# loss / gradients
# ---------------------------------------------------------------------------


def central_fd_grads(params, x, y, l2, kind, eps=1e-5):
    grads = []
    for pi in range(len(params)):
        g = np.zeros_like(params[pi])
        flat = g.ravel()
        for idx in range(flat.size):
            for sign, store in ((1.0, "up"), (-1.0, "down")):
                shifted = [p.copy() for p in params]
                shifted[pi].ravel()[idx] += sign * eps
                loss, _ = loss_and_grad(shifted, x, y, l2, kind)
                if store == "up":
                    up = loss
                else:
                    down = loss
            flat[idx] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_gradient_matches_central_differences(kind, nprng):
    x = nprng.normal(size=(12, 4))
    y = nprng.integers(0, 5, size=12)
    params = init_params(kind, 4, 5, 6, seed=3)
    # move off the zero init so the check is not at a special point
    params = [p + nprng.normal(size=p.shape) * 0.2 for p in params]
    _, analytic = loss_and_grad(params, x, y, 1e-3, kind)
    numeric = central_fd_grads(params, x, y, 1e-3, kind)
    for a, n in zip(analytic, numeric):
        denom = np.maximum(1e-12, np.maximum(np.abs(a), np.abs(n)))
        assert (np.abs(a - n) / denom).max() < 1e-4


def reference_loss_and_grad(params, x, y, l2, kind):
    """Row by row in plain Python: a max-shifted log-sum-exp from math, and
    the gradient of each row's cross-entropy accumulated in loops."""
    p = [q.tolist() for q in params]
    n = x.shape[0]
    out_w, out_b = (0, 1) if kind == "logreg" else (2, 3)
    grads = [np.zeros_like(q) for q in params]
    loss = 0.0
    for row, label in zip(x.tolist(), y.tolist()):
        feats = row
        if kind == "mlp":
            feats = [math.tanh(sum(w * v for w, v in zip(p[0][j], row)) + p[1][j])
                     for j in range(len(p[1]))]
        logits = [sum(w * v for w, v in zip(p[out_w][k], feats)) + p[out_b][k]
                  for k in range(len(p[out_b]))]
        top = max(logits)
        lse = top + math.log(sum(math.exp(v - top) for v in logits))
        loss += (lse - logits[label]) / n
        d_logits = [(math.exp(v - lse) - (k == label)) / n for k, v in enumerate(logits)]
        for k, d in enumerate(d_logits):
            grads[out_b][k] += d
            for j, v in enumerate(feats):
                grads[out_w][k, j] += d * v
        if kind == "mlp":
            for j, a in enumerate(feats):
                back = sum(d * p[2][k][j] for k, d in enumerate(d_logits)) * (1.0 - a * a)
                grads[1][j] += back
                for i, v in enumerate(row):
                    grads[0][j, i] += back * v
    for w in ((0,) if kind == "logreg" else (0, 2)):
        loss += 0.5 * l2 * sum(v * v for v in params[w].ravel().tolist())
        grads[w] += l2 * params[w]
    return loss, grads


@pytest.mark.parametrize("logit_scale", [1.0, 1e3])
@pytest.mark.parametrize("n_classes", [2, 10])
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_loss_and_grad_matches_per_row_reference(kind, n_classes, logit_scale, nprng):
    x = nprng.normal(size=(9, 4))
    y = np.arange(9) % n_classes
    params = [p + nprng.normal(size=p.shape) * 0.5
              for p in init_params(kind, 4, n_classes, 6, seed=2)]
    params[-2] *= logit_scale  # output layer: logits near +-1e3 at the larger scale
    params[-1] *= logit_scale
    if logit_scale > 1:
        hidden = x if kind == "logreg" else np.tanh(x @ params[0].T + params[1])
        # an unshifted exp overflows above 709.78
        assert np.abs(hidden @ params[-2].T + params[-1]).max() > 710
    loss, grads = loss_and_grad(params, x, y, 1e-3, kind)
    ref_loss, ref_grads = reference_loss_and_grad(params, x, y, 1e-3, kind)
    # 1e-12 relative to max(1, magnitude): the l2 term of the scaled weights
    # puts the loss in the thousands, where one ulp is about 1e-12
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def test_initial_loss_is_ln2_balanced_binary(nprng):
    x = nprng.normal(size=(30, 7))
    y = np.array([0, 1] * 15)
    params = init_params("logreg", 7, 2, 0, seed=0)
    loss, _ = loss_and_grad(params, x, y, 0.0, "logreg")
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_initial_loss_uniform_for_mlp(nprng):
    x = nprng.normal(size=(20, 5))
    y = nprng.integers(0, 4, size=20)
    params = init_params("mlp", 5, 4, 16, seed=1)
    loss, _ = loss_and_grad(params, x, y, 0.0, "mlp")
    assert loss == pytest.approx(math.log(4.0), abs=1e-12)


def make_blobs(n=200, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    a = rng.normal(size=(half, 2)) * 0.3 + np.array([margin, 0.0])
    b = rng.normal(size=(half, 2)) * 0.3 + np.array([-margin, 0.0])
    x = np.vstack([a, b])
    y = np.array([0] * half + [1] * half)
    return x, y


def test_separable_blobs_99_percent_in_500_epochs():
    x, y = make_blobs(200, margin=1.0, seed=4)
    config = ProbeConfig(max_epochs=500)
    params, _acc, _epochs, history = fit(x, y, x, y, config, n_classes=2, l2=0.0)
    model = ProbeModel("logreg", 0.0, tuple(params))
    assert evaluate(model, x, y) >= 0.99
    assert len(history) <= 501


def test_loss_history_monotone_nonincreasing(nprng):
    x = nprng.normal(size=(50, 6))
    y = nprng.integers(0, 3, size=50)
    config = ProbeConfig(max_epochs=80)
    for kind in ("logreg", "mlp"):
        cfg = ProbeConfig(kind=kind, hidden=10, max_epochs=80)
        _, _, _, history = fit(x, y, x, y, cfg, n_classes=3, l2=1e-3)
        diffs = np.diff(np.array(history))
        assert (diffs <= 1e-15).all()


# ---------------------------------------------------------------------------
# the lockstep l2 grid against one fit per l2 value
# ---------------------------------------------------------------------------


def reference_fit(x, y, x_dev, y_dev, config, n_classes, l2):
    """fit as a plain loop over one l2 value: examples-first logits, one
    loss and gradient per call, the Armijo test and early stopping inline."""
    kind = config.kind

    def forward(params, feats):
        if kind == "logreg":
            return feats @ params[0].T + params[1], None
        hidden = np.tanh(feats @ params[0].T + params[1])
        return hidden @ params[2].T + params[3], hidden

    def loss_grad(params):
        logits, hidden = forward(params, x)
        logits = logits - logits.max(axis=1, keepdims=True)
        total = np.exp(logits).sum(axis=1)
        loss = (np.log(total) - logits[np.arange(len(y)), y]).mean()
        delta = np.exp(logits) / total[:, None]
        delta[np.arange(len(y)), y] -= 1.0
        delta /= len(y)
        weights = params[:1] if kind == "logreg" else params[0::2]
        loss += 0.5 * l2 * sum(float((w * w).sum()) for w in weights)
        if kind == "logreg":
            return loss, [delta.T @ x + l2 * params[0], delta.sum(axis=0)]
        back = (delta @ params[2]) * (1.0 - hidden * hidden)
        return loss, [back.T @ x + l2 * params[0], back.sum(axis=0),
                      delta.T @ hidden + l2 * params[2], delta.sum(axis=0)]

    def accuracy(params):
        return float((forward(params, x_dev)[0].argmax(axis=1) == y_dev).mean())

    params = init_params(kind, x.shape[1], n_classes, config.hidden, config.seed)
    loss, grads = loss_grad(params)
    history, best, best_acc, strikes, step = [loss], params, accuracy(params), 0, 1.0
    for epoch in range(1, config.max_epochs + 1):
        g_sq = sum(float((g * g).sum()) for g in grads)
        if g_sq == 0.0:
            break
        while True:
            trial = [p - step * g for p, g in zip(params, grads)]
            trial_loss, trial_grads = loss_grad(trial)
            if trial_loss <= loss - 1e-4 * step * g_sq:
                break
            step *= 0.5
            if step < 1e-16:
                return best, best_acc, epoch - 1, tuple(history)
        params, loss, grads = trial, trial_loss, trial_grads
        history.append(loss)
        step *= 2.0
        if epoch % config.eval_interval == 0 or epoch == config.max_epochs:
            acc = accuracy(params)
            if acc > best_acc:
                best, best_acc, strikes = params, acc, 0
            else:
                strikes += 1
                if strikes >= config.patience:
                    break
    return best, best_acc, len(history) - 1, tuple(history)


def assert_same_fit(got, want):
    params, acc, epochs, history = got
    want_params, want_acc, want_epochs, want_history = want
    assert (epochs, acc, len(history)) == (want_epochs, want_acc, len(want_history))
    assert np.abs(np.array(history) - np.array(want_history)).max() <= 1e-10
    for p, q in zip(params, want_params):
        assert p.shape == q.shape
        assert np.abs(p - q).max() <= 1e-10


def lane_problem(seed, n_classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(45, 6)) + np.eye(n_classes, 6)[np.arange(45) % n_classes]
    x_dev = rng.normal(size=(18, 6)) + np.eye(n_classes, 6)[np.arange(18) % n_classes]
    return x, np.arange(45) % n_classes, x_dev, np.arange(18) % n_classes


def check_lanes_match_fit(x, y, x_dev, y_dev, config, n_classes):
    """Every lane of the lockstep grid is fit alone at its l2 value and the
    plain reference loop; returns the lanes."""
    grid = sorted(config.l2_grid)
    lanes = probe._fit_lanes(x, y, x_dev, y_dev, config, n_classes, grid)
    for l2, lane in zip(grid, lanes):
        assert_same_fit(lane, fit(x, y, x_dev, y_dev, config, n_classes, l2))
        assert_same_fit(lane, reference_fit(x, y, x_dev, y_dev, config, n_classes, l2))
    return lanes


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_lockstep_lanes_match_fit_alone(kind, seed):
    x, y, x_dev, y_dev = lane_problem(seed)
    config = ProbeConfig(kind=kind, hidden=7, max_epochs=150, patience=3, eval_interval=5,
                         seed=seed)
    lanes = check_lanes_match_fit(x, y, x_dev, y_dev, config, 3)
    grid = sorted(config.l2_grid)
    # the chosen l2 is the first of the best dev accuracies over one fit per value
    accs = [fit(x, y, x_dev, y_dev, config, 3, l2)[1] for l2 in grid]
    model, report = probe._fit_l2_grid(x, y, x_dev, y_dev, config, 3)
    assert report.chosen_l2 == model.l2 == grid[accs.index(max(accs))]
    chosen = lanes[grid.index(report.chosen_l2)]
    assert (report.epochs, report.loss_history) == (chosen[2], chosen[3])
    assert all(np.array_equal(p, q) for p, q in zip(model.params, chosen[0]))


def test_lane_stopped_by_patience_leaves_others_unaffected():
    x, y, x_dev, y_dev = lane_problem(0)
    config = ProbeConfig(l2_grid=(0.0, 1e-3, 3.0), max_epochs=200, patience=2,
                         eval_interval=5)
    epochs = [lane[2] for lane in check_lanes_match_fit(x, y, x_dev, y_dev, config, 3)]
    # every lane stops on a validation check, the damped one after the others
    assert all(e < 200 and e % 5 == 0 for e in epochs)
    assert max(epochs[:2]) < epochs[2]


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_lane_stopped_by_step_underflow_leaves_others_unaffected(kind):
    x, y, x_dev, y_dev = lane_problem(1)
    # at l2=1e20 the penalty outgrows the Armijo decrease at any step above
    # about 2e-20, so that lane halves its first step below 1e-16 and stops
    config = ProbeConfig(kind=kind, hidden=6, l2_grid=(0.0, 1e-2, 1e20), max_epochs=60,
                         patience=100, eval_interval=10)
    lanes = check_lanes_match_fit(x, y, x_dev, y_dev, config, 3)
    assert [lane[2] for lane in lanes] == [60, 60, 0]


def test_lane_stopped_by_zero_gradient_leaves_others_unaffected(nprng):
    # one row under both labels: with its output layer at zero the mlp's
    # gradient is exactly zero at l2=0, while l2 > 0 still decays W1
    x = np.repeat(nprng.normal(size=(1, 4)), 2, axis=0)
    y = np.array([0, 1])
    config = ProbeConfig(kind="mlp", hidden=5, l2_grid=(0.0, 1e-2), max_epochs=40)
    lanes = check_lanes_match_fit(x, y, x, y, config, 2)
    assert [lane[2] for lane in lanes] == [0, 40]


# ---------------------------------------------------------------------------
# lanes with their own training and dev rows of one shared x (cv folds)
# ---------------------------------------------------------------------------


def masked_lanes(x, y, folds, config, n_classes):
    """_fit_lanes over every (fold, l2) pair, a fold being a pair (training
    rows, dev rows) of x; returns the lanes fold by fold, grid ascending."""
    grid = sorted(config.l2_grid)
    masks = np.zeros((2, len(folds) * len(grid), x.shape[0]))
    for i, rows in enumerate(folds):
        for which, idx in enumerate(rows):
            masks[which, i * len(grid):(i + 1) * len(grid), idx] = 1.0
    return probe._fit_lanes(x, y, x, y, config, n_classes, grid * len(folds),
                            rows=(masks[0], masks[1]))


def check_masked_lanes_match_fit(x, y, folds, config, n_classes):
    """Every masked lane is fit alone, and the plain reference loop, on its
    fold's gathered rows; returns the lanes."""
    grid = sorted(config.l2_grid)
    lanes = masked_lanes(x, y, folds, config, n_classes)
    for i, (train, dev) in enumerate(folds):
        gathered = (x[train], y[train], x[dev], y[dev], config, n_classes)
        for l2, lane in zip(grid, lanes[i * len(grid):(i + 1) * len(grid)]):
            assert_same_fit(lane, fit(*gathered, l2))
            assert_same_fit(lane, reference_fit(*gathered, l2))
    return lanes


def uneven_folds(n, seed):
    """Three folds of unequal sizes over n rows, each with disjoint training
    and dev rows in shuffled order; some rows are in neither."""
    order = np.random.default_rng(seed).permutation(n)
    return [(np.sort(order[:30]), order[30:39]),
            (order[5:26], np.sort(order[40:45])),
            (order[10:45], order[:6])]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_masked_lanes_match_fit_on_gathered_rows(kind, seed):
    x, y, _, _ = lane_problem(seed)
    config = ProbeConfig(kind=kind, hidden=7, max_epochs=150, patience=3, eval_interval=5,
                         seed=seed)
    check_masked_lanes_match_fit(x, y, uneven_folds(45, seed), config, 3)


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_masked_lane_stopped_early_leaves_others_unaffected(kind):
    x, y, _, _ = lane_problem(1)
    # at l2=1e20 each fold's lane stops on its first trial (see the
    # step-underflow test above) while the other lanes of its fold go on
    config = ProbeConfig(kind=kind, hidden=6, l2_grid=(0.0, 1e-2, 1e20), max_epochs=60,
                         patience=100, eval_interval=10)
    lanes = check_masked_lanes_match_fit(x, y, uneven_folds(45, 2), config, 3)
    assert [lane[2] for lane in lanes] == [60, 60, 0] * 3


def test_every_stop_rule_in_one_masked_loop():
    # lanes leave one loop in different rounds, each by one of the four stop
    # rules, so the later rounds run on slots that no longer match lanes
    x, y, _, _ = lane_problem(3, n_classes=2)
    x[44] = x[43]  # one row under both labels (y alternates)
    folds = [
        # trained on that row alone: an exactly zero gradient at l2=0, and
        # at l2=1e-2 only W1 decays, so dev accuracy never moves: patience
        (np.array([43, 44]), np.arange(8)),
        # a plain fold: its l2=0 lane last improves at epoch 15 and stops at
        # max_epochs, which eval_interval does not divide, after a check there
        (np.arange(26), np.arange(26, 43)),
        # dev rows of class 0 only: the all-zero start already scores 1.0,
        # so no check improves on it: patience
        (np.arange(20, 43), np.flatnonzero(y[:40] == 0)[:6]),
    ]
    # every fold's l2=1e20 lane halves its step below 1e-16: step underflow
    config = ProbeConfig(kind="mlp", hidden=5, l2_grid=(0.0, 1e-2, 1e20), max_epochs=23,
                         patience=4, eval_interval=5)
    lanes = check_masked_lanes_match_fit(x, y, folds, config, 2)
    assert [lane[2] for lane in lanes] == [0, 20, 0, 23, 23, 0, 20, 20, 0]


@pytest.mark.parametrize("masked", [False, True], ids=["grid", "folds"])
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_gradients_only_for_accepted_trials(kind, masked, monkeypatch):
    # each lane computes one gradient at its start and one per accepted
    # trial, that is per epoch; a rejected trial computes only its loss
    made = {"losses": 0, "gradients": 0}

    def counting(params, x, y, l2, kind, *args, **kwargs):
        loss, grads = loss_and_grad(params, x, y, l2, kind, *args, **kwargs)
        made["losses"] += np.size(loss)
        made["gradients"] += grads[-1].shape[0] // 3  # stacked output biases
        return loss, grads

    monkeypatch.setattr(probe, "loss_and_grad", counting)
    x, y, x_dev, y_dev = lane_problem(0)
    config = ProbeConfig(kind=kind, hidden=5, max_epochs=80, patience=3, eval_interval=5)
    if masked:
        lanes = masked_lanes(x, y, uneven_folds(45, 0), config, 3)
    else:
        lanes = probe._fit_lanes(x, y, x_dev, y_dev, config, 3, sorted(config.l2_grid))
    assert made["gradients"] == len(lanes) + sum(lane[2] for lane in lanes)
    assert made["losses"] > made["gradients"]  # some trials were rejected


@pytest.mark.parametrize("labels", [[0, 1, 2, 0, 1, 0], [0, 1, -1, 0, 1, 0]],
                         ids=["too_large", "negative"])
def test_fit_rejects_labels_outside_its_classes(labels, nprng):
    x, y = nprng.normal(size=(6, 3)), np.array(labels)
    with pytest.raises(ValueError, match="training labels fall outside the training class"):
        fit(x, y, x, y, ProbeConfig(max_epochs=5), n_classes=2, l2=0.0)


def test_shift_invariant_predictions(nprng):
    x = nprng.normal(size=(40, 5))
    w = nprng.normal(size=(3, 5))
    b = nprng.normal(size=3)
    base = ProbeModel("logreg", 0.0, (w, b))
    shifted = ProbeModel("logreg", 0.0, (w, b + 7.5))
    assert np.array_equal(predict(base, x), predict(shifted, x))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_perfect_and_complement(nprng):
    x = nprng.normal(size=(20, 3))
    w = np.vstack([np.zeros(3), np.zeros(3)])
    y = nprng.integers(0, 2, size=20)
    # craft a model predicting the labels through a huge bias on the truth
    preds = []
    for yi in y:
        row = np.zeros(2)
        row[yi] = 100.0
        preds.append(row)
    # instead: use a feature-reading model on one-hot features
    x_onehot = np.eye(2)[y]
    model = ProbeModel("logreg", 0.0, (np.eye(2) * 10.0, np.zeros(2)))
    assert evaluate(model, x_onehot, y) == 1.0
    assert evaluate(model, x_onehot, 1 - y) == 0.0


def test_evaluate_random_model_chance_level(nprng):
    x = nprng.normal(size=(10_000, 8))
    y = np.tile(np.arange(4), 2500)
    model = ProbeModel("logreg", 0.0, (nprng.normal(size=(4, 8)), nprng.normal(size=4)))
    acc = evaluate(model, x, y)
    assert abs(acc - 0.25) < 0.02


def test_argmax_ties_break_to_lowest_class():
    model = ProbeModel("logreg", 0.0, (np.zeros((3, 2)), np.zeros(3)))
    assert predict(model, np.ones((4, 2))).tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# train_probe + split plans
# ---------------------------------------------------------------------------


def test_train_probe_tv_plan(nprng):
    x, y = make_blobs(100, seed=7)
    order = nprng.permutation(100)
    x, y = x[order], y[order]
    plan = SplitPlan(
        kind="tv", train=tuple(range(60)), dev=tuple(range(60, 80)), test=tuple(range(80, 100))
    )
    model, report = train_probe(x, y, plan, ProbeConfig(max_epochs=200))
    assert report.test_accuracy >= 0.95
    assert report.chosen_l2 in ProbeConfig().l2_grid
    assert 0.0 <= report.best_val_accuracy <= 1.0


def test_train_probe_rejects_single_class():
    x = np.random.default_rng(0).normal(size=(20, 3))
    y = np.zeros(20, dtype=int)
    plan = SplitPlan(kind="tv", train=tuple(range(10)), dev=(10, 11), test=(12, 13))
    with pytest.raises(DegenerateTaskError):
        train_probe(x, y, plan, ProbeConfig())


def test_train_probe_rejects_unseen_dev_label():
    x = np.random.default_rng(0).normal(size=(12, 3))
    y = np.array([0, 1] * 5 + [2, 2])
    plan = SplitPlan(kind="tv", train=tuple(range(10)), dev=(10, 11), test=())
    with pytest.raises(ValueError):
        train_probe(x, y, plan, ProbeConfig())


def test_split_plan_validation():
    with pytest.raises(ValueError):
        SplitPlan(kind="tv", train=(0, 1), dev=(1, 2), test=(3,))  # overlap
    with pytest.raises(ValueError):
        SplitPlan(kind="cv", folds=1)
    with pytest.raises(ValueError):
        SplitPlan(kind="loocv")


def test_l2_ties_go_to_smaller(nprng):
    # trivially separable data: every l2 ties at accuracy 1.0
    x, y = make_blobs(80, margin=3.0, seed=2)
    plan = SplitPlan(
        kind="tv", train=tuple(range(60)), dev=tuple(range(60, 70)), test=tuple(range(70, 80))
    )
    _, report = train_probe(x, y, plan, ProbeConfig(max_epochs=60))
    assert report.chosen_l2 == 0.0


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------


def test_kfold_leave_one_out_without_dev_split_raises(monkeypatch):
    # the two folds that hold examples each test one example of each class
    # and train on one of each, so no class gives an example to the inner
    # dev split: no held-out rows can pick l2
    x = np.array([[2.0, 0.0], [2.1, 0.1], [-2.0, 0.0], [-2.2, -0.1]])
    y = np.array([0, 0, 1, 1])

    def no_fit(*args, **kwargs):
        raise AssertionError("a probe trained")

    monkeypatch.setattr(probe, "_fit_lanes", no_fit)
    with pytest.raises(DegenerateTaskError, match=r"^cv fold 1 of 4: .* holds 0 class"):
        kfold_accuracy(x, y, k=4, config=ProbeConfig(max_epochs=100))


@pytest.mark.parametrize("singleton", [0, 2])
def test_kfold_scores_a_class_missing_from_a_fold_as_a_miss(singleton):
    # 40 separable examples of two classes and one far example of a third:
    # the fold that holds the singleton trains without its class and misses
    # it, the other folds score 1, wherever the class sits in label order
    x, y = make_blobs(40, margin=3.0, seed=2)
    x = np.vstack([x, [[0.0, 30.0]]])
    y = np.concatenate([y + (singleton == 0), [singleton]])
    acc = kfold_accuracy(x, y, k=10, config=ProbeConfig(max_epochs=100))
    assert acc == pytest.approx((4 / 5 + 9) / 10)


def test_kfold_fold_training_on_one_class_raises():
    y = np.array([0, 0, 0, 1])
    x = np.arange(8.0).reshape(4, 2)
    with pytest.raises(DegenerateTaskError, match=r"^cv fold 1 of 2: .* hold 1 class"):
        kfold_accuracy(x, y, k=2, config=ProbeConfig(max_epochs=10))


def reference_fold_accuracy(x, y, k, config, fold):
    """One cv fold's test accuracy: the fold's inner training and dev rows
    gathered into copies and its l2 grid trained on them alone."""
    assignment = stratified_folds(y, k, config.seed)
    test_idx = np.flatnonzero(assignment == fold)
    train_idx = np.flatnonzero(assignment != fold)
    y_tr = y[train_idx]
    sub_tr, sub_dev = probe._inner_dev_split(y_tr, config.seed + fold + 1)
    model, _report = probe._fit_l2_grid(
        x[train_idx[sub_tr]], y_tr[sub_tr], x[train_idx[sub_dev]], y_tr[sub_dev],
        config, int(y.max()) + 1,
    )
    return evaluate(model, x[test_idx], y[test_idx])


def reference_kfold_accuracy(x, y, k, config):
    """kfold_accuracy as a loop over the folds that hold test examples."""
    assignment = stratified_folds(y, k, config.seed)
    return float(np.mean([reference_fold_accuracy(x, y, k, config, fold)
                          for fold in range(k) if (assignment == fold).any()]))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_kfold_matches_per_fold_reference(kind, seed):
    # three classes of 23, 19 and 16 examples dealt into 4 folds of unequal sizes
    rng = np.random.default_rng(seed)
    y = np.repeat([0, 1, 2], [23, 19, 16])[rng.permutation(58)]
    x = rng.normal(size=(58, 5)) + 0.8 * np.eye(3, 5)[y]
    config = ProbeConfig(kind=kind, hidden=6, max_epochs=120, patience=3, eval_interval=5,
                         seed=seed)
    assert len(set(np.bincount(stratified_folds(y, 4, seed)))) > 1
    assert kfold_accuracy(x, y, 4, config) == reference_kfold_accuracy(x, y, 4, config)


def test_kfold_skips_folds_without_test_examples():
    # 3 examples of each class dealt into 5 folds: folds 3 and 4 hold none
    x, y = make_blobs(6, margin=0.2, seed=5)
    assert np.bincount(y).tolist() == [3, 3]
    config = ProbeConfig(max_epochs=40, seed=2)
    assignment = stratified_folds(y, 5, config.seed)
    assert np.bincount(assignment, minlength=5).tolist() == [2, 2, 2, 0, 0]
    per_fold = [reference_fold_accuracy(x, y, 5, config, fold) for fold in range(3)]
    assert kfold_accuracy(x, y, 5, config) == float(np.mean(per_fold))


@st.composite
def cv_labels(draw):
    """k, and at least k labels of at least 2 of 4 classes."""
    k = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, 3), min_size=k, max_size=30)
                  .filter(lambda ys: len(set(ys)) >= 2))
    return k, np.array(labels)


@given(cv_labels(), st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=60, deadline=None)
def test_cv_fold_splits_raises_exactly_when_kfold_accuracy_does(case, check_seed, probe_seed):
    # a sweep checks its cv tasks at its first seed; the verdict holds at
    # every seed a tuple's probe is drawn at
    k, y = case
    x = np.random.default_rng(0).normal(size=(y.size, 2))
    try:
        probe.cv_fold_splits(y, k, check_seed)
        check_raised = False
    except DegenerateTaskError:
        check_raised = True
    try:
        kfold_accuracy(x, y, k, ProbeConfig(max_epochs=2, seed=probe_seed))
        kfold_raised = False
    except DegenerateTaskError:
        kfold_raised = True
    assert check_raised == kfold_raised


def test_inner_dev_split_holds_out_beside_a_single_example_class():
    # 36 balanced examples and one of a third class: dev takes one of each
    # large class, and the single example stays in training
    y = np.array([0, 1] * 18 + [2])
    train, dev = probe._inner_dev_split(y, seed=4)
    assert not set(train.tolist()) & set(dev.tolist())
    assert sorted(train.tolist() + dev.tolist()) == list(range(37))
    assert np.bincount(y[dev], minlength=3).tolist() == [1, 1, 0]
    assert 36 in train


def test_inner_dev_split_gives_one_of_each_small_class_to_dev():
    y = np.repeat([0, 1, 2, 3], [2, 3, 15, 1])
    train, dev = probe._inner_dev_split(y, seed=1)
    assert not set(train.tolist()) & set(dev.tolist())
    # classes of 2, 3 and 15 examples give max(1, count // 10) each, and
    # the single example of class 3 stays in training
    assert np.bincount(y[dev], minlength=4).tolist() == [1, 1, 1, 0]


def test_inner_dev_split_holds_one_class_without_two_classes_of_two():
    # one example per class but one: dev holds a single class, and no
    # training row is handed back as dev (kfold_accuracy raises on it)
    y = np.array([0, 1, 1, 2])
    train, dev = probe._inner_dev_split(y, seed=0)
    assert sorted(train.tolist() + dev.tolist()) == [0, 1, 2, 3]
    assert y[dev].tolist() == [1]


def test_stratified_folds_balanced():
    y = np.array([0] * 40 + [1] * 40)
    assignment = stratified_folds(y, 10, seed=3)
    for fold in range(10):
        in_fold = assignment == fold
        assert in_fold.sum() == 8
        assert (y[in_fold] == 0).sum() == 4  # exactly stratified here


def test_stratified_folds_duplicated_halves_stay_stratified():
    y_half = np.array([0] * 9 + [1] * 6)
    y = np.concatenate([y_half, y_half])
    assignment = stratified_folds(y, 5, seed=1)
    for fold in range(5):
        counts = np.bincount(y[assignment == fold], minlength=2)
        # per class, fold sizes differ by at most one from each other
        assert counts[0] in (3, 4)
        assert counts[1] in (2, 3)


def test_stratified_folds_deterministic():
    y = np.random.default_rng(5).integers(0, 3, size=60)
    a = stratified_folds(y, 10, seed=42)
    b = stratified_folds(y, 10, seed=42)
    assert np.array_equal(a, b)


def test_stratified_folds_preconditions():
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        stratified_folds(y, 1, seed=0)
    with pytest.raises(ValueError):
        stratified_folds(y, 9, seed=0)


def test_train_probe_rejects_cv_plan():
    x, y = make_blobs(60, margin=2.0, seed=9)
    with pytest.raises(ValueError, match="kfold_accuracy"):
        train_probe(x, y, SplitPlan(kind="cv", folds=5), ProbeConfig(max_epochs=80))


def test_same_seed_same_cv_result():
    x, y = make_blobs(50, margin=0.4, seed=11)
    cfg = ProbeConfig(max_epochs=40, seed=17)
    assert kfold_accuracy(x, y, 5, cfg) == kfold_accuracy(x, y, 5, cfg)


@pytest.mark.parametrize("defect, message", [
    ("nan", "embeddings contain non-finite values"),
    ("misaligned", "embeddings and labels must align one to one"),
    ("one_d", "embeddings must be a 2-d array, one row per example"),
], ids=["nan", "misaligned", "one_d"])
@pytest.mark.parametrize("scorer", ["kfold_accuracy", "train_probe"])
def test_bad_examples_rejected_before_any_fit(defect, message, scorer):
    x, y = make_blobs(40, margin=2.0, seed=4)
    if defect == "nan":
        x[5, 1] = np.nan
    elif defect == "misaligned":
        x = x[:-3]
    else:
        x = x[:, 0]
    config = ProbeConfig(max_epochs=20)
    with pytest.raises(ValueError, match=message):
        if scorer == "kfold_accuracy":
            kfold_accuracy(x, y, 4, config)
        else:
            plan = SplitPlan(kind="tv", train=tuple(range(0, 40, 2)),
                             dev=tuple(range(1, 20, 2)), test=tuple(range(21, 40, 2)))
            train_probe(x, y, plan, config)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(kind="svm")
    with pytest.raises(ValueError):
        ProbeConfig(kind="mlp", hidden=0)
    with pytest.raises(ValueError):
        ProbeConfig(max_epochs=0)
    with pytest.raises(ValueError):
        ProbeConfig(l2_grid=())


@pytest.mark.parametrize("grid, message", [
    ((0.0, -1e-3), "l2 grid values must be finite and >= 0"),
    ((0.0, math.nan), "l2 grid values must be finite and >= 0"),
    ((0.0, math.inf), "l2 grid values must be finite and >= 0"),
    ((1e-3, 0.0, 1e-3), "l2 grid values must be distinct"),
], ids=["negative", "nan", "inf", "repeated"])
def test_probe_config_rejects_bad_l2_grid(grid, message):
    with pytest.raises(ValueError, match=message):
        ProbeConfig(l2_grid=grid)


@given(st.integers(2, 5), st.integers(20, 60), st.integers(0, 1000))
@settings(max_examples=15, deadline=None)
def test_fold_sizes_differ_by_at_most_one_per_class(k, n, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, size=n)
    if min(np.bincount(y, minlength=3)) == 0:
        y[:3] = [0, 1, 2]
    assignment = stratified_folds(y, k, seed=seed)
    for cls in range(3):
        per_fold = [int(((assignment == f) & (y == cls)).sum()) for f in range(k)]
        assert max(per_fold) - min(per_fold) <= 1
