"""The only trainable part of the pipeline: a softmax probe over frozen
sentence embeddings.

Probe = multinomial logistic regression (default) or a one-hidden-layer
tanh MLP, trained by full-batch gradient descent with Armijo backtracking
line search. l2 strength is picked from a fixed grid on validation
accuracy (ties go to the smaller value) with early stopping on the same
validation signal. Everything is deterministic given the config seed.
"""

from __future__ import annotations

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
    "stratified_folds",
    "L2_GRID",
]

L2_GRID = (0.0, 1e-4, 1e-3, 1e-2, 1e-1)

_ARMIJO_C = 1e-4
_MIN_STEP = 1e-16


class DegenerateTaskError(ValueError):
    """Training labels contain fewer than two classes."""


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
# ---------------------------------------------------------------------------


def _forward(params, x: np.ndarray, kind: str):
    if kind == "logreg":
        return x @ params[0].T + params[1], None
    a = np.tanh(x @ params[0].T + params[1])
    return a @ params[2].T + params[3], a


def loss_and_grad(params, x: np.ndarray, y: np.ndarray, l2: float, kind: str):
    """Mean cross-entropy + (l2/2) * sum of squared weight-matrix entries
    (biases unpenalized). Returns (loss, [grad per param]).

    One max-shifted exp serves both: log p(y) = shifted[y] - log(sum), and
    the logit gradient is (softmax - one_hot(y)) / n."""
    n = x.shape[0]
    rows = np.arange(n)
    logits, hidden = _forward(params, x, kind)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    loss = -(shifted[rows, y] - np.log(total[:, 0])).mean()
    delta = e / total
    delta[rows, y] -= 1.0
    delta /= n
    if kind == "logreg":
        w = params[0]
        loss += 0.5 * l2 * float((w * w).sum())
        return loss, [delta.T @ x + l2 * w, delta.sum(axis=0)]
    w1, _b1, w2, _b2 = params
    loss += 0.5 * l2 * float((w1 * w1).sum() + (w2 * w2).sum())
    grad_w2 = delta.T @ hidden + l2 * w2
    grad_b2 = delta.sum(axis=0)
    back = (delta @ w2) * (1.0 - hidden * hidden)
    grad_w1 = back.T @ x + l2 * w1
    grad_b1 = back.sum(axis=0)
    return loss, [grad_w1, grad_b1, grad_w2, grad_b2]


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


def _accuracy_from_params(params, x, y, kind) -> float:
    logits, _ = _forward(params, x, kind)
    return float((logits.argmax(axis=1) == y).mean())


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
    the returned parameters are the best-validation snapshot."""
    params = init_params(config.kind, x_train.shape[1], n_classes, config.hidden, config.seed)
    loss, grads = loss_and_grad(params, x_train, y_train, l2, config.kind)
    history = [loss]
    best_params = [p.copy() for p in params]
    best_acc = _accuracy_from_params(params, x_dev, y_dev, config.kind)
    strikes = 0
    step = 1.0
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        g_sq = sum(float((g * g).sum()) for g in grads)
        if g_sq == 0.0:
            break
        while True:
            trial = [p - step * g for p, g in zip(params, grads)]
            trial_loss, trial_grads = loss_and_grad(trial, x_train, y_train, l2, config.kind)
            if trial_loss <= loss - _ARMIJO_C * step * g_sq:
                break
            step *= 0.5
            if step < _MIN_STEP:
                trial = None
                break
        if trial is None:
            break
        params, loss, grads = trial, trial_loss, trial_grads
        history.append(loss)
        step *= 2.0
        epochs_run = epoch
        if epoch % config.eval_interval == 0 or epoch == config.max_epochs:
            acc = _accuracy_from_params(params, x_dev, y_dev, config.kind)
            if acc > best_acc:
                best_acc = acc
                best_params = [p.copy() for p in params]
                strikes = 0
            else:
                strikes += 1
                if strikes >= config.patience:
                    break
    return best_params, best_acc, epochs_run, tuple(history)


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
    """Grid over l2 on validation accuracy; ties keep the smaller l2
    (grid is scanned in ascending order with a strict > comparison)."""
    best = None
    for l2 in sorted(config.l2_grid):
        params, acc, epochs, history = fit(x_tr, y_tr, x_dev, y_dev, config, n_classes, l2)
        if best is None or acc > best[1]:
            best = (params, acc, epochs, history, l2)
    params, acc, epochs, history, l2 = best
    model = ProbeModel(config.kind, l2, tuple(p.copy() for p in params))
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
    logits, _ = _forward(list(model.params), x, model.kind)
    # np.argmax resolves ties toward the lowest class index
    return logits.argmax(axis=1)


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
    selection and early stopping. Tiny folds (any class with fewer than 5
    examples) fall back to validating on the training points themselves."""
    counts = {int(c): int((y_train == c).sum()) for c in np.unique(y_train)}
    if min(counts.values()) < 5:
        all_idx = np.arange(y_train.shape[0])
        return all_idx, all_idx
    rng = SeededRng(seed)
    dev_parts, train_parts = [], []
    for cls in sorted(counts):
        idx = np.flatnonzero(y_train == cls)
        order = rng.permutation(idx.shape[0])
        n_dev = max(1, idx.shape[0] // 10)
        dev_parts.append(idx[order[:n_dev]])
        train_parts.append(idx[order[n_dev:]])
    return np.concatenate(train_parts), np.concatenate(dev_parts)


def kfold_accuracy(embeddings: np.ndarray, labels: np.ndarray, k: int, config: ProbeConfig) -> float:
    """Mean held-out accuracy over deterministic stratified k folds; each
    fold picks its l2 on an inner dev split of its training examples."""
    x, y = _check_examples(embeddings, labels)
    assignment = stratified_folds(y, k, config.seed)
    accuracies = []
    for fold in range(k):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        if test_idx.size == 0:
            continue
        y_tr = y[train_idx]
        n_classes = _n_train_classes(y_tr)
        _check_labels(y[test_idx], n_classes, "fold test")
        sub_tr, sub_dev = _inner_dev_split(y_tr, config.seed + fold + 1)
        model, _report = _fit_l2_grid(
            x[train_idx][sub_tr], y_tr[sub_tr], x[train_idx][sub_dev], y_tr[sub_dev],
            config, n_classes,
        )
        accuracies.append(evaluate(model, x[test_idx], y[test_idx]))
    return float(np.mean(accuracies))
