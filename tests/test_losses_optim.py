import math

import numpy as np
import pytest

from sensecomm.errors import DivergenceError
from sensecomm.nn import LOG_CLAMP, Adam, Param, cross_entropy, cross_entropy_logit_grad


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == pytest.approx(0.0, abs=1e-10)

    def test_uniform_is_ln2(self):
        assert cross_entropy(np.array([[0.5, 0.5]]), np.array([0])) == pytest.approx(math.log(2.0), abs=1e-9)

    def test_logit_gradient_identity(self):
        g = cross_entropy_logit_grad(np.array([[0.8, 0.2]]), np.array([1]))
        assert np.allclose(g, [[0.8, -0.8]])

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        assert cross_entropy(probs, np.array([0, 0])) == pytest.approx(math.log(2.0) / 2.0, abs=1e-9)

    def test_saturated_softmax_finite(self):
        assert np.isfinite(cross_entropy(np.array([[0.0, 1.0]]), np.array([0])))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_one_hot_forms(self, dtype):
        # the textbook forms over one-hot targets, built here as the oracle
        rng = np.random.default_rng(3)
        for n in map(int, rng.integers(1, 257, 100)):
            logits = rng.standard_normal((n, 2)).astype(dtype)
            probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            labels = rng.integers(0, 2, n)
            onehot = np.zeros((n, 2), dtype=dtype)
            onehot[np.arange(n), labels] = 1.0
            loss = float((-(onehot * np.log(probs + LOG_CLAMP)).sum(axis=1)).mean())
            grad = (probs - onehot) / n
            assert cross_entropy(probs, labels) == loss
            got = cross_entropy_logit_grad(probs, labels)
            assert got.dtype == dtype
            assert got.tobytes() == grad.tobytes()


def hand_adam_step(p, g, lr=0.001, b1=0.9, b2=0.999, eps=1e-7, t=1, m=0.0, v=0.0):
    """Textbook Adam update evaluated independently."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    return p - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_zero_grad_no_change(self):
        p = Param(np.array([1.0, -2.0, 3.0]))
        p.grad = np.zeros(3)
        before = p.value.copy()
        Adam([p]).step()
        assert np.array_equal(p.value, before)

    def test_single_step_matches_hand_evaluation(self):
        p = Param(np.array([1.0]))
        p.grad = np.array([1.0])
        Adam([p]).step()
        expected, _, _ = hand_adam_step(1.0, 1.0)
        assert abs(p.value[0] - expected) < 1e-10
        # first-step magnitude is ~lr for a unit gradient
        assert abs((1.0 - p.value[0]) - 0.001 / (1 + 1e-7)) < 1e-12

    def test_multi_step_matches_hand_evaluation(self):
        p = Param(np.array([0.5]))
        opt = Adam([p])
        ref, m, v = 0.5, 0.0, 0.0
        for t in range(1, 6):
            g = 0.3 * t
            p.grad = np.array([g])
            opt.step()
            ref, m, v = hand_adam_step(ref, g, t=t, m=m, v=v)
            assert abs(p.value[0] - ref) < 1e-10

    def test_identical_params_stay_identical(self):
        p = Param(np.array([0.7, 0.7]))
        opt = Adam([p])
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = rng.standard_normal()
            p.grad = np.array([g, g])
            opt.step()
        assert p.value[0] == p.value[1]

    def test_step_count_increments(self):
        p = Param(np.zeros(2))
        opt = Adam([p])
        for expected in (1, 2, 3):
            p.grad = np.ones(2)
            opt.step()
            assert opt.t == expected

    def test_non_finite_gradient_aborts(self):
        p = Param(np.zeros(2))
        p.grad = np.array([1.0, np.nan])
        with pytest.raises(DivergenceError):
            Adam([p]).step()

    def test_missing_gradient_aborts(self):
        with pytest.raises(DivergenceError):
            Adam([Param(np.zeros(2))]).step()
