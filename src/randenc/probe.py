"""The only trainable part of the pipeline: a softmax probe over frozen
sentence embeddings.

Probe = multinomial logistic regression (default) or a one-hidden-layer
tanh MLP, trained by full-batch gradient descent with Armijo backtracking
line search. l2 strength is picked from a fixed grid on validation
accuracy (ties go to the smaller value) with early stopping on the same
validation signal. The grid's l2 values train together in lockstep as
"lanes": each round is one loss_and_grad call over the stacked params of
every lane still training, and each lane keeps its own step, checks and
stop. A round's line-search trials compute their loss; only the lanes
whose trial passes the Armijo test go on to compute a gradient. A cv task
trains every (fold, l2) pair as one lane over the task's shared features,
each lane with its own 0/1 masks of training and dev rows.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import SeededRng, uniform_init

__all__ = [
    "DegenerateTaskError",
    "ProbeConfig",
    "ProbeModel",
    "TrainReport",
    "SplitPlan",
    "pair_features",
    "loss_and_grad",
    "init_params",
    "fit",
    "train_probe",
    "evaluate",
    "predict",
    "kfold_accuracy",
    "cv_fold_splits",
    "stratified_folds",
    "L2_GRID",
]

L2_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-16


class DegenerateTaskError(ValueError):
    """Training labels, or a cv fold's inner dev labels, contain fewer than
    two classes."""


@dataclass(frozen=True)
class ProbeConfig:
    kind: str = "logreg"  # or "mlp"
    hidden: int = 50
    l2_grid: tuple[float, ...] = L2_GRID
    max_epochs: int = 500
    patience: int = 5  # consecutive non-improving validation checks
    eval_interval: int = 10  # epochs between validation checks
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("logreg", "mlp"):
            raise ValueError(f"probe kind must be logreg or mlp, got {self.kind!r}")
        if self.kind == "mlp" and self.hidden < 1:
            raise ValueError(f"mlp hidden width must be >= 1, got {self.hidden}")
        if self.max_epochs < 1 or self.patience < 1 or self.eval_interval < 1:
            raise ValueError("max_epochs, patience and eval_interval must be >= 1")
        if not self.l2_grid:
            raise ValueError("l2 grid cannot be empty")
        if not all(math.isfinite(v) and v >= 0.0 for v in self.l2_grid):
            raise ValueError(f"l2 grid values must be finite and >= 0, got {self.l2_grid}")
        if len(set(self.l2_grid)) != len(self.l2_grid):
            raise ValueError(f"l2 grid values must be distinct, got {self.l2_grid}")


@dataclass(frozen=True)
class ProbeModel:
    kind: str
    l2: float
    # logreg: [W (C x F), b (C)]; mlp: [W1 (H x F), b1 (H), W2 (C x H), b2 (C)]
    params: tuple[np.ndarray, ...]

    @property
    def n_classes(self) -> int:
        return self.params[-1].shape[0]

    @property
    def n_features(self) -> int:
        return self.params[0].shape[1]


@dataclass(frozen=True)
class TrainReport:
    epochs: int
    best_val_accuracy: float
    chosen_l2: float
    test_accuracy: float | None = None
    loss_history: tuple[float, ...] = field(default=(), repr=False)


@dataclass(frozen=True)
class SplitPlan:
    """How a task's examples are consumed: fixed train/dev/test index sets,
    or k-fold cross-validation over all of them."""

    kind: str  # "tv" or "cv"
    train: tuple[int, ...] | None = None
    dev: tuple[int, ...] | None = None
    test: tuple[int, ...] | None = None
    folds: int = 0

    def __post_init__(self):
        if self.kind == "tv":
            if self.train is None or self.dev is None or self.test is None:
                raise ValueError("tv split plan needs train, dev and test index sets")
            pools = [set(self.train), set(self.dev), set(self.test)]
            if sum(len(p) for p in pools) != len(set().union(*pools)):
                raise ValueError("split index sets must be disjoint")
        elif self.kind == "cv":
            if self.folds < 2:
                raise ValueError(f"cv split plan needs folds >= 2, got {self.folds}")
        else:
            raise ValueError(f"split plan kind must be tv or cv, got {self.kind!r}")


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[u; v; |u - v|; u * v] along the last axis (1-d pairs or row batches)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"pair features need equal widths, got {u.shape} and {v.shape}")
    return np.concatenate([u, v, np.abs(u - v), u * v], axis=-1)


# ---------------------------------------------------------------------------
# Loss, gradient, initialization.
#
# Logits, deltas and MLP activations are laid out lanes x classes (or hidden
# units) x examples: the softmax max and sum then run over a middle axis with
# the examples contiguous, and each product is one plain matrix product.
# ---------------------------------------------------------------------------


def _forward(params, x_t: np.ndarray, kind: str, n_lanes: int = 1):
    """Logits (lanes x C x n) from the features examples-last (x_t: F x n),
    and for mlp the hidden activations (lanes x H x n)."""
    n = x_t.shape[1]
    if kind == "logreg":
        logits = params[0] @ x_t
        logits += params[1][:, None]
        return logits.reshape(n_lanes, -1, n), None
    w1, b1, w2, b2 = params
    hidden = w1 @ x_t
    hidden += b1[:, None]
    hidden = np.tanh(hidden, out=hidden).reshape(n_lanes, -1, n)
    logits = w2.reshape(n_lanes, -1, hidden.shape[1]) @ hidden
    logits += b2.reshape(n_lanes, -1, 1)
    return logits, hidden


def loss_and_grad(params, x: np.ndarray, y: np.ndarray, l2, kind: str, x_t=None, *,
                  rows=None, bound=None):
    """Mean cross-entropy + (l2/2) * sum of squared weight-matrix entries
    (biases unpenalized). Returns (loss, [grad per param]).

    A scalar l2 takes one probe's params and returns a float loss. A 1-d l2
    takes len(l2) probes ("lanes") stacked along each param's first axis,
    lane i owning the i-th equal block of rows, and returns one loss per
    lane and the gradients stacked alike. x_t is x.T as a contiguous array,
    for a caller that makes it once for many calls.

    rows (lanes x n, 0/1) gives each lane its own training rows of x: its
    loss is the mean over those rows, and its gradient sums only them.
    bound (one per lane) asks for the gradients of only the lanes whose
    loss is at most their bound, stacked over those lanes alone; the other
    lanes compute nothing past their loss.

    One max-shifted exp serves both: log p(y) = shifted[y] - log(sum), and
    the logit gradient is (softmax - one_hot(y)) / n."""
    lane_l2 = np.atleast_1d(np.asarray(l2, dtype=np.float64))
    n_lanes = lane_l2.shape[0]
    n = x.shape[0]
    shifted, hidden = _forward(params, x.T if x_t is None else x_t, kind, n_lanes)
    shifted -= shifted.max(axis=1, keepdims=True)
    delta = np.exp(shifted)
    total = delta.sum(axis=1)
    # a one-hot mask picks and subtracts: its zero terms are exact
    one_hot = y == np.arange(shifted.shape[1])[:, None]
    row_loss = np.log(total) - (shifted * one_hot).sum(axis=1)
    if rows is None:
        loss = row_loss.sum(axis=1) / n
    else:
        counts = rows.sum(axis=1)
        loss = (row_loss * rows).sum(axis=1) / counts
    weights = [params[0]] if kind == "logreg" else [params[0], params[2]]
    lane_weights = [w.reshape(n_lanes, -1) for w in weights]
    loss += 0.5 * lane_l2 * sum((w * w).sum(axis=1) for w in lane_weights)
    # the lanes that compute a gradient: every lane, or those within their bound
    pick = np.arange(n_lanes) if bound is None else (loss <= bound).nonzero()[0]
    lane_l2, delta, total = lane_l2[pick], delta[pick], total[pick]
    delta /= total[:, None, :]
    delta -= one_hot
    if rows is None:
        delta /= n
    else:
        delta *= (rows[pick] / counts[pick, None])[:, None, :]

    # at paper widths each lanes-stacked temporary takes tens of megabytes:
    # weight decay is made in one and added in place, 1 - hidden**2
    # overwrites hidden, and the mlp's activations are dropped before its
    # weight decay is made
    def decayed(grad, lane_w):
        decay = lane_w[pick]
        decay *= lane_l2[:, None]
        grad += decay.reshape(grad.shape)
        return grad

    if kind == "logreg":
        grads = [decayed(delta.reshape(-1, n) @ x, lane_weights[0]), delta.sum(axis=2).ravel()]
    else:
        hidden = hidden[pick]
        grad_w2 = (delta @ hidden.transpose(0, 2, 1)).reshape(-1, hidden.shape[1])
        grad_w2 = decayed(grad_w2, lane_weights[1])
        w2_lanes = params[2].reshape(n_lanes, -1, hidden.shape[1])[pick]
        back = w2_lanes.transpose(0, 2, 1) @ delta
        hidden *= hidden
        back *= np.subtract(1.0, hidden, out=hidden)
        grad_b1 = back.sum(axis=2).ravel()
        grad_w1 = back.reshape(-1, n) @ x
        del hidden, back
        grads = [decayed(grad_w1, lane_weights[0]), grad_b1, grad_w2, delta.sum(axis=2).ravel()]
    if np.ndim(l2) == 0:
        return float(loss[0]), grads
    return loss, grads


def init_params(kind: str, n_features: int, n_classes: int, hidden: int, seed: int):
    """Zero-initialized output layer (uniform predictive at step 0, so the
    initial balanced-binary loss is exactly ln 2); the MLP hidden layer is
    drawn uniform +-1/sqrt(F) to break symmetry."""
    if kind == "logreg":
        return [np.zeros((n_classes, n_features)), np.zeros(n_classes)]
    rng = SeededRng(seed)
    w1 = uniform_init(rng, hidden, n_features, d=n_features)
    return [w1, np.zeros(hidden), np.zeros((n_classes, hidden)), np.zeros(n_classes)]


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------


def _per_lane(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One value per lane, shaped to broadcast over a lanes-first array."""
    return values.reshape((-1,) + (1,) * (like.ndim - 1))


def _flat(lanes) -> list[np.ndarray]:
    """Lanes-first params (lanes x one lane's shape) as loss_and_grad takes
    them: each lane's rows stacked along the first axis (views, no copies)."""
    return [p.reshape((-1,) + p.shape[2:]) for p in lanes]


def _fit_lanes(x_train, y_train, x_dev, y_dev, config: ProbeConfig, n_classes: int, l2s,
               rows=None):
    """Train one probe per lane, lane i at l2 value l2s[i], in lockstep;
    returns fit's 4-tuple per lane, in order.

    rows, if given, is a pair (train, dev) of 0/1 arrays, lanes x examples:
    lane i trains on the rows of x_train that train[i] marks and validates
    on the rows of x_dev that dev[i] marks (kfold_accuracy passes the whole
    task as both). Without rows every lane trains on all of x_train and
    validates on all of x_dev.

    Each round makes one loss_and_grad call over the stacked trial params of
    every lane still running; it computes the gradient of only the lanes
    whose trial passes the Armijo test. A lane follows fit's rules on its
    own: its step and Armijo test, its validation checks, best-dev snapshot
    and patience, and its stop (patience, max_epochs, a step below
    _MIN_STEP or a zero gradient), after which it leaves the stack.

    Lane state is held in arrays along the lane axis. The running lanes'
    params, gradients, row masks, l2, loss, squared gradient norm, step,
    strikes and epochs are stacked by slot, `lane` maps each slot to its
    lane, and one mask drops the lanes that stop from all of them. Best dev
    accuracy and the best-dev snapshots are stacked by lane."""
    # the one-hot mask in loss_and_grad would pass an out-of-range label silently
    y_train = _check_labels(y_train, n_classes, "training")
    kind = config.kind
    one = init_params(kind, x_train.shape[1], n_classes, config.hidden, config.seed)
    x_t = np.ascontiguousarray(x_train.T)
    x_dev_t = x_t if x_dev is x_train else np.ascontiguousarray(x_dev.T)
    train_rows, dev_rows = (None, None) if rows is None else rows

    def split(flat_grads, count):
        return [g.reshape((count,) + p.shape) for g, p in zip(flat_grads, one)]

    def sq_norms(grads):
        return sum((g.reshape(g.shape[0], -1) ** 2).sum(axis=1) for g in grads)

    def dev_accuracy(lanes, dev):
        logits, _ = _forward(_flat(lanes), x_dev_t, kind, lanes[0].shape[0])
        hits = logits.argmax(axis=1) == y_dev
        if dev is None:
            return hits.mean(axis=1)
        return (hits * dev).sum(axis=1) / dev.sum(axis=1)

    lane = np.arange(len(l2s))
    l2 = np.asarray(l2s, dtype=np.float64)
    params = [np.repeat(p[None], lane.size, axis=0) for p in one]
    loss, flat_grads = loss_and_grad(_flat(params), x_train, y_train, l2, kind, x_t,
                                     rows=train_rows)
    grads = split(flat_grads, lane.size)
    g_sq = sq_norms(grads)
    step = np.ones(lane.size)
    strikes = np.zeros(lane.size, dtype=np.int64)
    # every lane starts at `one`
    best = [p.copy() for p in params]
    best_acc = np.broadcast_to(dev_accuracy([p[:1] for p in params], dev_rows), lane.size).copy()
    epochs = np.zeros(lane.size, dtype=np.int64)
    histories = [[value] for value in loss.tolist()]
    stopped = g_sq == 0.0
    while True:
        if stopped.any():
            keep = ~stopped
            lane, l2, loss, g_sq, step, strikes, epochs = (
                a[keep] for a in (lane, l2, loss, g_sq, step, strikes, epochs))
            params = [p[keep] for p in params]
            grads = [g[keep] for g in grads]
            if rows is not None:
                train_rows, dev_rows = train_rows[keep], dev_rows[keep]
        if not lane.size:
            break
        trial = [_per_lane(step, g) * g for g in grads]
        for p, t in zip(params, trial):
            np.subtract(p, t, out=t)
        # the Armijo test: the loss a trial at the lane's step must not exceed
        bound = loss - _ARMIJO_C * step * g_sq
        trial_loss, flat_grads = loss_and_grad(_flat(trial), x_train, y_train, l2, kind, x_t,
                                               rows=train_rows, bound=bound)
        accept = trial_loss <= bound
        # an accepted trial doubles the step and a rejected one halves it;
        # a step below _MIN_STEP stops the lane
        step *= np.where(accept, 2.0, 0.5)
        stopped = step < _MIN_STEP
        accepted = accept.nonzero()[0]
        if not accepted.size:
            continue
        trial_grads = split(flat_grads, accepted.size)
        loss[accepted] = trial_loss[accepted]
        g_sq[accepted] = sq_norms(trial_grads)
        for p, t in zip(params, trial):
            np.copyto(p, t, where=_per_lane(accept, p))
        for g, t in zip(grads, trial_grads):
            g[accepted] = t
        epochs += accept
        for i, value in zip(lane[accepted].tolist(), trial_loss[accepted].tolist()):
            histories[i].append(value)
        # max_epochs, a zero gradient and `patience` checks in a row without a gain stop a lane
        due = epochs[accepted]
        last = due == config.max_epochs
        stopped[accepted] |= last | (g_sq[accepted] == 0.0)
        checked = accepted[(due % config.eval_interval == 0) | last]
        if not checked.size:
            continue
        dev = None if dev_rows is None else dev_rows[checked]
        acc = dev_accuracy([p[checked] for p in params], dev)
        better = acc > best_acc[lane[checked]]
        improved = checked[better]
        for b, p in zip(best, params):
            b[lane[improved]] = p[improved]
        best_acc[lane[improved]] = acc[better]
        strikes[checked] = np.where(better, 0, strikes[checked] + 1)
        stopped[checked] |= strikes[checked] >= config.patience
    return [(list(snapshot), acc, len(history) - 1, tuple(history))
            for snapshot, acc, history in zip(zip(*best), best_acc.tolist(), histories)]


def fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_dev: np.ndarray,
    y_dev: np.ndarray,
    config: ProbeConfig,
    n_classes: int,
    l2: float,
):
    """Train at one l2 value. Full-batch descent; each epoch's step passes
    an Armijo backtracking test, so the recorded loss history is
    non-increasing. Validation accuracy is checked every eval_interval
    epochs; `patience` consecutive non-improving checks stop training, and
    the returned parameters are the best-validation snapshot. This is the
    one-lane case of the lockstep loop that trains a whole l2 grid."""
    return _fit_lanes(x_train, y_train, x_dev, y_dev, config, n_classes, (l2,))[0]


def _check_examples(embeddings, labels) -> tuple[np.ndarray, np.ndarray]:
    """Features as a finite 2-d float array and labels aligned with its rows,
    checked before any fold or split indexes them."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("embeddings must be a 2-d array, one row per example")
    if not np.isfinite(x).all():
        raise ValueError("embeddings contain non-finite values")
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("embeddings and labels must align one to one")
    return x, y


def _check_labels(y: np.ndarray, n_classes: int, which: str) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.ndim != 1:
        raise ValueError(f"{which} labels must be a 1-d integer array")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"{which} labels fall outside the training class range")
    return y


def _fit_l2_grid(x_tr, y_tr, x_dev, y_dev, config: ProbeConfig, n_classes: int):
    """Grid over l2 on validation accuracy; ties keep the smaller l2."""
    grid = sorted(config.l2_grid)
    lanes = _fit_lanes(x_tr, y_tr, x_dev, y_dev, config, n_classes, grid)
    return _pick_l2(grid, lanes, config.kind)


def _pick_l2(grid, lanes, kind: str):
    """The model and report of the best dev accuracy among one grid's lanes;
    ties keep the smaller l2 (grid is scanned in ascending order with a
    strict > comparison)."""
    best = None
    for l2, (params, acc, epochs, history) in zip(grid, lanes):
        if best is None or acc > best[1]:
            best = (params, acc, epochs, history, l2)
    params, acc, epochs, history, l2 = best
    model = ProbeModel(kind, l2, tuple(p.copy() for p in params))
    report = TrainReport(epochs, acc, l2, loss_history=history)
    return model, report


def train_probe(
    embeddings: np.ndarray,
    labels: np.ndarray,
    plan: SplitPlan,
    config: ProbeConfig,
):
    """Train under a tv split plan; returns (ProbeModel, TrainReport).

    The l2 grid is fit on the dev set, and the report carries test accuracy
    on the held-out test indices. cv plans are scored by kfold_accuracy.
    """
    if plan.kind != "tv":
        raise ValueError(f"train_probe takes tv split plans; score a {plan.kind} plan "
                         "with kfold_accuracy")
    x, y = _check_examples(embeddings, labels)

    tr, dv, te = (np.array(ix, dtype=np.int64) for ix in (plan.train, plan.dev, plan.test))
    n_classes = _n_train_classes(y[tr])
    _check_labels(y[dv], n_classes, "dev")
    _check_labels(y[te], n_classes, "test")
    model, report = _fit_l2_grid(x[tr], y[tr], x[dv], y[dv], config, n_classes)
    test_acc = evaluate(model, x[te], y[te]) if te.size else None
    return model, replace(report, test_accuracy=test_acc)


def _n_train_classes(y_train: np.ndarray) -> int:
    present = np.unique(y_train)
    if present.size < 2:
        raise DegenerateTaskError(
            f"training labels contain {present.size} class(es); need at least 2"
        )
    return int(present.max()) + 1


def predict(model: ProbeModel, embeddings: np.ndarray) -> np.ndarray:
    x = np.asarray(embeddings, dtype=np.float64)
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"feature width {x.shape[1]} does not match the probe's {model.n_features}"
        )
    logits, _ = _forward(list(model.params), x.T, model.kind)
    # np.argmax resolves ties toward the lowest class index
    return logits[0].argmax(axis=0)


def evaluate(model: ProbeModel, embeddings: np.ndarray, labels: np.ndarray) -> float:
    y = np.asarray(labels, dtype=np.int64)
    return float((predict(model, embeddings) == y).mean())


# ---------------------------------------------------------------------------
# Cross-validation.
# ---------------------------------------------------------------------------


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Fold id per example: within each class, indices are shuffled by the
    seeded generator and dealt round-robin, so per-class fold sizes differ
    by at most one (stratification within +-1 sample)."""
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    if k < 2:
        raise ValueError(f"need k >= 2 folds, got {k}")
    if n < k:
        raise ValueError(f"need at least k={k} examples, got {n}")
    rng = SeededRng(seed)
    assignment = np.empty(n, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        order = rng.permutation(idx.shape[0])
        for slot, example in enumerate(idx[order]):
            assignment[example] = slot % k
    return assignment


def _inner_dev_split(y_train: np.ndarray, seed: int):
    """Carve a stratified ~10% dev set out of a training fold for l2
    selection and early stopping: every class with at least 2 training
    examples gives max(1, count // 10) of them to dev, and a class with one
    example keeps it in training. The dev set holds fewer than 2 classes
    when at most one class has 2 training examples."""
    rng = SeededRng(seed)
    dev_parts, train_parts = [], []
    for cls in np.unique(y_train):
        idx = np.flatnonzero(y_train == cls)
        order = rng.permutation(idx.shape[0])
        n_dev = max(1, idx.shape[0] // 10) if idx.shape[0] > 1 else 0
        dev_parts.append(idx[order[:n_dev]])
        train_parts.append(idx[order[n_dev:]])
    return np.concatenate(train_parts), np.concatenate(dev_parts)


def cv_fold_splits(labels: np.ndarray, k: int, seed: int) -> list[tuple[np.ndarray, ...]]:
    """(test, inner training, inner dev) example indices of each of the k
    stratified folds that holds test examples; fold i's inner dev split is
    drawn at seed + i + 1.

    A fold whose training examples, or whose inner dev split, would hold
    fewer than 2 classes raises DegenerateTaskError naming the fold. Whether
    one does depends on the class counts and k alone, not on the seed:
    stratified_folds deals each class round-robin, and _inner_dev_split
    sizes dev from class counts."""
    y = np.asarray(labels, dtype=np.int64)
    assignment = stratified_folds(y, k, seed)
    splits = []
    for fold in range(k):
        test_idx = np.flatnonzero(assignment == fold)
        if test_idx.size == 0:
            continue
        train_idx = np.flatnonzero(assignment != fold)
        train_classes = np.unique(y[train_idx]).size
        if train_classes < 2:
            raise DegenerateTaskError(f"cv fold {fold + 1} of {k}: its training examples hold "
                                      f"{train_classes} class(es); need at least 2")
        sub_tr, sub_dev = _inner_dev_split(y[train_idx], seed + fold + 1)
        dev_classes = np.unique(y[train_idx[sub_dev]]).size
        if dev_classes < 2:
            raise DegenerateTaskError(
                f"cv fold {fold + 1} of {k}: its inner dev split holds {dev_classes} class(es); "
                "choosing l2 needs at least 2 classes with 2 or more training examples each"
            )
        splits.append((test_idx, train_idx[sub_tr], train_idx[sub_dev]))
    return splits


def kfold_accuracy(embeddings: np.ndarray, labels: np.ndarray, k: int, config: ProbeConfig) -> float:
    """Mean held-out accuracy over deterministic stratified k folds; each
    fold picks its l2 on an inner dev split of its training examples.

    Every (fold, l2) pair is one lane of a single lockstep loop over the
    task's features, with 0/1 masks marking the fold's inner training and
    dev rows; its probe equals `fit` on those rows gathered, up to the order
    in which the masked sums add up. Each fold then picks its l2 as a tv
    task does and scores its test rows.

    Every fold's probe has the task's classes, so a class that a fold's
    training examples lack is one its probe never predicts, not an error.
    A fold that cannot pick l2 raises DegenerateTaskError naming the fold
    (see cv_fold_splits), before any probe trains."""
    x, y = _check_examples(embeddings, labels)
    n_classes = _n_train_classes(y)
    _check_labels(y, n_classes, "task")
    tests, masks = [], []
    for test_idx, train_rows, dev_rows in cv_fold_splits(y, k, config.seed):
        mask = np.zeros((2, y.shape[0]))
        mask[0, train_rows] = 1.0
        mask[1, dev_rows] = 1.0
        tests.append(test_idx)
        masks.append(mask)
    grid = sorted(config.l2_grid)
    # lanes fold by fold, each fold's grid in ascending order
    train_rows, dev_rows = np.repeat(np.stack(masks, axis=1), len(grid), axis=1)
    lanes = _fit_lanes(x, y, x, y, config, n_classes, grid * len(tests),
                       rows=(train_rows, dev_rows))
    accuracies = []
    for i, test_idx in enumerate(tests):
        model, _report = _pick_l2(grid, lanes[i * len(grid):(i + 1) * len(grid)], config.kind)
        accuracies.append(evaluate(model, x[test_idx], y[test_idx]))
    return float(np.mean(accuracies))
