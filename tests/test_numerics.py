import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from randenc.numerics import (
    SeededRng,
    layer_norm,
    sigmoid,
    softmax_rows,
    spectral_radius,
    uniform_init,
    xavier_uniform_init,
)

# ---------------------------------------------------------------------------
# oracles (independent naive references, written against the contracts)
# ---------------------------------------------------------------------------


def naive_softmax(v):
    e = [math.exp(x) for x in v]
    s = sum(e)
    return np.array([x / s for x in e])


# ---------------------------------------------------------------------------
# SeededRng / init draws
# ---------------------------------------------------------------------------


def test_same_seed_identical_sequences():
    a = SeededRng(1234)
    b = SeededRng(1234)
    assert np.array_equal(a.uniform(-1, 1, (5, 7)), b.uniform(-1, 1, (5, 7)))
    assert np.array_equal(a.bernoulli_mask((4, 4), 0.3), b.bernoulli_mask((4, 4), 0.3))


def test_uniform_init_bound_d4():
    m = uniform_init(SeededRng(0), 50, 50, d=4)
    assert m.shape == (50, 50)
    assert np.abs(m).max() <= 0.5


def test_uniform_init_bound_d1():
    m = uniform_init(SeededRng(0), 40, 40, d=1)
    assert np.abs(m).max() <= 1.0


def test_uniform_init_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        uniform_init(SeededRng(0), 3, 3, d=0)


def test_uniform_init_deterministic():
    assert np.array_equal(
        uniform_init(SeededRng(7), 6, 6, d=9), uniform_init(SeededRng(7), 6, 6, d=9)
    )


def test_xavier_bounds():
    assert np.abs(xavier_uniform_init(SeededRng(1), 3, 3)).max() <= 1.0  # sqrt(6/6)
    assert np.abs(xavier_uniform_init(SeededRng(1), 2, 4)).max() <= 1.0
    m = xavier_uniform_init(SeededRng(1), 100, 200)
    bound = math.sqrt(6.0 / 300.0)
    assert np.abs(m).max() <= bound
    assert np.abs(m).max() > 0.9 * bound  # the bound is actually approached


def test_xavier_rejects_zero_dim():
    with pytest.raises(ValueError):
        xavier_uniform_init(SeededRng(1), 0, 4)


@pytest.mark.parametrize("d,rows,cols", [(4, 400, 30), (25, 300, 40)])
def test_init_empirical_mean_shrinks(d, rows, cols):
    m = uniform_init(SeededRng(3), rows, cols, d=d)
    bound = 1.0 / math.sqrt(d)
    assert abs(m.mean()) < 3.0 * bound / math.sqrt(m.size)


# ---------------------------------------------------------------------------
# softmax_rows (attention weights)
# ---------------------------------------------------------------------------


def test_softmax_symmetry():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])


def test_softmax_ln2():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_softmax_matches_naive_oracle(nprng):
    v = nprng.normal(size=7)
    assert np.abs(softmax_rows(v[None, :])[0] - naive_softmax(v)).max() < 1e-12


@given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-50, 50)))
def test_softmax_sums_to_one(v):
    out = softmax_rows(v[None, :])
    assert abs(out.sum() - 1.0) < 1e-9
    assert (out >= 0).all()


@given(
    hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-30, 30)),
    st.floats(-20, 20),
)
def test_softmax_shift_invariance(v, c):
    assert np.abs(softmax_rows(v[None, :]) - softmax_rows(v[None, :] + c)).max() < 1e-9


def test_softmax_rows_independent(nprng):
    # rows on very different scales: each is normalized (and shifted) on its own
    m = nprng.normal(size=(5, 7)) + np.array([[-40.0], [0.0], [3.0], [25.0], [60.0]])
    out = softmax_rows(m)
    for i in range(5):
        assert np.abs(out[i] - naive_softmax(m[i])).max() < 1e-12
        assert np.array_equal(out[i], softmax_rows(m[i : i + 1])[0])


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_already_normalized():
    out = layer_norm(np.array([1.0, -1.0]))
    assert np.abs(out - np.array([1.0, -1.0])).max() < 1e-4  # eps pulls it in slightly


def test_layer_norm_constant_input():
    assert np.array_equal(layer_norm(np.array([5.0, 5.0, 5.0, 5.0])), np.zeros(4))


def test_layer_norm_hand_example():
    out = layer_norm(np.array([1.0, 2.0, 3.0]))
    expected = np.array([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
    assert np.abs(out - expected).max() < 1e-4


def test_layer_norm_moments(nprng):
    v = nprng.normal(size=64) * 7.0
    out = layer_norm(v)
    assert abs(out.mean()) < 1e-7
    var = (out * out).mean()
    assert 1.0 - 1e-4 <= var <= 1.0


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
def test_layer_norm_shift_scale_invariance(nprng, a):
    v = nprng.normal(size=32) * 3.0
    b = float(nprng.normal())
    assert np.abs(layer_norm(a * v + b) - layer_norm(v)).max() < 1e-5


def test_layer_norm_rows_independent(nprng):
    m = nprng.normal(size=(5, 16))
    out = layer_norm(m)
    for i in range(5):
        assert np.allclose(out[i], layer_norm(m[i]))


# ---------------------------------------------------------------------------
# spectral_radius
# ---------------------------------------------------------------------------


def test_spectral_radius_diagonal():
    est = spectral_radius(np.diag([3.0, 1.0]))
    assert est.converged
    assert abs(est.value - 3.0) < 1e-6


def test_spectral_radius_identity():
    est = spectral_radius(np.eye(5))
    assert abs(est.value - 1.0) < 1e-8


def test_spectral_radius_vs_dense_eigensolver(nprng):
    for _ in range(20):
        m = nprng.normal(size=(8, 8))
        expected = np.max(np.abs(np.linalg.eigvals(m)))
        est = spectral_radius(m)
        assert abs(est.value - expected) / expected < 1e-4


def test_spectral_radius_complex_pair(nprng):
    # rotation-like matrix: dominant eigenvalues are a conjugate pair
    theta = 0.7
    block = 2.0 * np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    m = np.zeros((4, 4))
    m[:2, :2] = block
    m[2, 2] = 0.5
    m[3, 3] = -0.25
    est = spectral_radius(m)
    assert abs(est.value - 2.0) < 1e-6


def test_spectral_radius_rejects_non_square():
    with pytest.raises(ValueError):
        spectral_radius(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# elementwise helpers
# ---------------------------------------------------------------------------


def test_sigmoid_range_and_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    big = sigmoid(np.array([1000.0, -1000.0]))
    assert np.isfinite(big).all()
    assert big[0] == pytest.approx(1.0)
    assert big[1] == pytest.approx(0.0)


def test_sigmoid_matches_definition(nprng):
    x = nprng.normal(size=50) * 5
    assert np.abs(sigmoid(x) - 1.0 / (1.0 + np.exp(-x))).max() < 1e-15
