import math

import numpy as np
import pytest

from sensecomm.errors import DivergenceError
from sensecomm.models import ModelConfig, Pipeline
from sensecomm.nn.layers import param_buffers
from sensecomm.nn.losses import LOG_CLAMP, cross_entropy, cross_entropy_logit_grad
from sensecomm.nn.optim import BETA1, BETA2, EPS, LR, Adam
from sensecomm.rng import Rng


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


def buffers(*arrays, dtype=np.float64):
    """The ``param_buffers`` of tensors named a, b, ... holding ``arrays``."""
    values, grads, params = param_buffers(
        [("ab"[i], np.shape(a)) for i, a in enumerate(arrays)], None, dtype)
    for p, a in zip(params, arrays):
        p.value[...] = a
    return values, grads, params


class TestAdam:
    def test_zero_grad_no_change(self):
        values, grads, params = buffers([1.0, -2.0, 3.0])
        before = values.copy()
        Adam(values, grads, params).step()
        assert np.array_equal(values, before)

    def test_single_step_matches_hand_evaluation(self):
        values, grads, (p,) = buffers([1.0])
        p.grad[...] = 1.0
        Adam(values, grads, [p]).step()
        expected, _, _ = hand_adam_step(1.0, 1.0)
        assert abs(p.value[0] - expected) < 1e-10
        # first-step magnitude is ~lr for a unit gradient
        assert abs((1.0 - p.value[0]) - 0.001 / (1 + 1e-7)) < 1e-12

    def test_multi_step_matches_hand_evaluation(self):
        values, grads, (p,) = buffers([0.5])
        opt = Adam(values, grads, [p])
        ref, m, v = 0.5, 0.0, 0.0
        for t in range(1, 6):
            g = 0.3 * t
            p.grad[...] = g
            opt.step()
            ref, m, v = hand_adam_step(ref, g, t=t, m=m, v=v)
            assert abs(p.value[0] - ref) < 1e-10

    def test_identical_params_stay_identical(self):
        values, grads, (p,) = buffers([0.7, 0.7])
        opt = Adam(values, grads, [p])
        rng = np.random.default_rng(0)
        for _ in range(25):
            p.grad[...] = rng.standard_normal()
            opt.step()
        assert p.value[0] == p.value[1]
        assert p.value[0] != 0.7

    def test_step_count_increments(self):
        values, grads, (p,) = buffers(np.zeros(2))
        opt = Adam(values, grads, [p])
        for expected in (1, 2, 3):
            p.grad[...] = 1.0
            opt.step()
            assert opt.t == expected
            assert np.all(p.value < 0)

    def test_non_finite_gradient_aborts(self):
        values, grads, (p,) = buffers(np.zeros(2))
        p.grad[...] = [1.0, np.nan]
        with pytest.raises(DivergenceError):
            Adam(values, grads, [p]).step()

    def test_non_finite_gradient_names_its_tensor(self):
        values, grads, params = buffers(np.zeros(2), np.zeros(3))
        opt = Adam(values, grads, params)
        params[1].grad[2] = np.inf
        with pytest.raises(DivergenceError, match="in b at step 1"):
            opt.step()

    def test_gradient_whose_square_overflows_aborts(self):
        """A float32 gradient of 2e19 is finite, but its square is not: the
        second moment would turn infinite and the parameter stop moving."""
        values, grads, params = buffers(np.zeros(2), np.zeros(3), dtype=np.float32)
        opt = Adam(values, grads, params)
        params[1].grad[1] = 2e19
        with pytest.raises(DivergenceError, match="in b at step 1"):
            opt.step()

    def test_whole_buffer_step_is_bitwise_the_per_tensor_update(self):
        """Five steps of seeded gradients on a joint n_c = 20 float32
        pipeline, against a loop over the tensors in the update's order."""
        pipe = Pipeline(ModelConfig(20, "joint"), Rng(60))
        params = pipe.params()
        ref = [p.value.copy() for p in params]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        opt = Adam(pipe.values, pipe.grads, params)
        gen = np.random.default_rng(61)
        for t in range(1, 6):
            for p in params:
                scale = 10.0 ** gen.uniform(-4, 1)
                p.grad[...] = scale * gen.standard_normal(p.grad.shape)
            opt.step()
            bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            for i, p in enumerate(params):
                g = p.grad
                m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
                v[i] = BETA2 * v[i] + (1.0 - BETA2) * (g * g)
                m_hat = m[i] / bc1
                v_hat = v[i] / bc2
                ref[i] -= LR * m_hat / (np.sqrt(v_hat) + EPS)
            for p, r in zip(params, ref):
                assert p.value.dtype == np.float32
                assert p.value.tobytes() == r.tobytes(), (t, p.name)
