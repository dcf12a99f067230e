import math

import numpy as np
import pytest

import sensecomm.nn
from sensecomm.errors import ConfigError, ShapeError
from sensecomm.nn.layers import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    glorot_uniform,
    softmax,
)
from sensecomm.rng import Rng


def dense_oracle(x, w, b):
    """Independent double-loop matmul."""
    n, din = x.shape
    dout = w.shape[1]
    out = np.zeros((n, dout))
    for s in range(n):
        for j in range(dout):
            acc = b[j]
            for i in range(din):
                acc += x[s, i] * w[i, j]
            out[s, j] = acc
    return out


def conv_oracle(x, w, b):
    """Independent quadruple-loop valid cross-correlation."""
    n, h, wd, cin = x.shape
    kh, kw, _, f = w.shape
    ho, wo = h - kh + 1, wd - kw + 1
    out = np.zeros((n, ho, wo, f))
    for s in range(n):
        for i in range(ho):
            for j in range(wo):
                for k in range(f):
                    acc = b[k]
                    for di in range(kh):
                        for dj in range(kw):
                            for c in range(cin):
                                acc += x[s, i + di, j + dj, c] * w[di, dj, c, k]
                    out[s, i, j, k] = acc
    return out


def conv_backward_oracle(x, w, g):
    """Independent loops for the gradients of a valid cross-correlation:
    (grad_x, grad_w, grad_b) given the output gradient ``g``."""
    n, h, wd, cin = x.shape
    kh, kw, _, f = w.shape
    ho, wo = h - kh + 1, wd - kw + 1
    gx, gw, gb = np.zeros(x.shape), np.zeros(w.shape), np.zeros(f)
    for s in range(n):
        for i in range(ho):
            for j in range(wo):
                for k in range(f):
                    gb[k] += g[s, i, j, k]
                    for di in range(kh):
                        for dj in range(kw):
                            for c in range(cin):
                                gx[s, i + di, j + dj, c] += g[s, i, j, k] * w[di, dj, c, k]
                                gw[di, dj, c, k] += x[s, i + di, j + dj, c] * g[s, i, j, k]
    return gx, gw, gb


def maxpool_oracle(x, g):
    """Independent loops over the 2x2 windows: the pooled maxima, and the
    input gradient with each window's ``g`` routed to its first maximum in
    row-major order. Odd trailing rows/cols are dropped."""
    n, h, wd, c = x.shape
    out = np.zeros((n, h // 2, wd // 2, c), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=g.dtype)
    for s in range(n):
        for i in range(h // 2):
            for j in range(wd // 2):
                for k in range(c):
                    best = (2 * i, 2 * j)
                    for di in range(2):
                        for dj in range(2):
                            r, q = 2 * i + di, 2 * j + dj
                            if x[s, r, q, k] > x[s, best[0], best[1], k]:
                                best = (r, q)
                    out[s, i, j, k] = x[s, best[0], best[1], k]
                    gx[s, best[0], best[1], k] = g[s, i, j, k]
    return out, gx


def tie_pattern_batch(dtype):
    """One sample per non-empty subset of a 2x2 window's positions (15 in
    all): channel 0 holds the maximum 3 at the subset's positions and
    distinct smaller values elsewhere; channel 1 is all 5 (every position
    tied); channel 2 is all 0, as after a ReLU. A trailing row and column of
    larger values must be dropped."""
    x = np.full((15, 3, 3, 3), 9.0, dtype=dtype)
    x[:, :2, :2, 1] = 5.0
    x[:, :2, :2, 2] = 0.0
    for m in range(1, 16):
        for pos in range(4):
            x[m - 1, pos // 2, pos % 2, 0] = 3.0 if m >> (3 - pos) & 1 else pos / 2
    return x


class TestGlorot:
    def test_1x1_bound(self):
        vals = [glorot_uniform((1, 1), Rng(s), np.float64)[0, 0] for s in range(50)]
        assert all(abs(v) <= math.sqrt(3.0) for v in vals)

    def test_20x2_bound(self):
        w = glorot_uniform((20, 2), Rng(1), np.float64)
        limit = math.sqrt(6.0 / 22.0)
        assert np.all(np.abs(w) <= limit)
        # draws should actually use the range, not collapse near zero
        assert np.abs(w).max() > 0.5 * limit

    def test_conv_fans(self):
        w = glorot_uniform((3, 3, 8, 4), Rng(2), np.float64)
        limit = math.sqrt(6.0 / (9 * 8 + 9 * 4))
        assert np.all(np.abs(w) <= limit)

    def test_bias_zero_convention(self):
        layer = Dense(5, 8, Rng(0))
        assert np.all(layer.b.value == 0.0)
        assert layer.b.value.shape == (8,)

    @pytest.mark.parametrize("shape", [(0, 3), (3, -1), ()])
    def test_invalid_shape(self, shape):
        with pytest.raises(ShapeError):
            glorot_uniform(shape, Rng(0))

    def test_same_seed_same_draw(self):
        a = glorot_uniform((6, 6), Rng(9), np.float64)
        b = glorot_uniform((6, 6), Rng(9), np.float64)
        assert np.array_equal(a, b)


class TestDense:
    def test_unit_vector_selects_row(self):
        layer = Dense(2, 2, Rng(0), np.float64)
        layer.w.value = np.array([[2.0, 3.0], [4.0, 5.0]])
        layer.b.value = np.zeros(2)
        out = layer.forward(np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[2.0, 3.0]])

    def test_sum_case(self):
        layer = Dense(2, 2, Rng(0), np.float64)
        layer.w.value = np.ones((2, 2))
        layer.b.value = np.ones(2)
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[3.0, 3.0]])

    def test_matches_loop_oracle(self):
        rng = Rng(3)
        layer = Dense(20, 10, rng, np.float64)
        x = rng.standard_normal((4, 20))
        expected = dense_oracle(x, layer.w.value, layer.b.value)
        assert np.max(np.abs(layer.forward(x) - expected)) < 1e-12

    def test_backward_analytic_identities(self):
        rng = Rng(4)
        layer = Dense(6, 3, rng, np.float64)
        x = rng.standard_normal((5, 6))
        layer.forward(x, rng)
        g = rng.standard_normal((5, 3))
        gx = layer.backward(g)
        assert np.allclose(layer.w.grad, x.T @ g)
        assert np.allclose(layer.b.grad, g.sum(axis=0))
        assert np.allclose(gx, g @ layer.w.value.T)

    def test_dimension_mismatch(self):
        layer = Dense(4, 2, Rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 5), dtype=np.float32))


# (input shape (N, H, W, C), kernel): square and non-square inputs,
# non-square kernels, and H == kh, so that Ho is 1
CONV_CASES = [((2, 5, 5, 2), (3, 3)), ((2, 6, 5, 2), (3, 3)),
              ((2, 6, 5, 2), (2, 3)), ((2, 6, 5, 2), (3, 1)),
              ((2, 3, 5, 2), (3, 3))]
CONV_CASE_IDS = ["5x5-k3x3", "6x5-k3x3", "6x5-k2x3", "6x5-k3x1", "3x5-k3x3"]


def conv_input(rng, shape, layout):
    """A random float64 batch of ``shape`` (N, H, W, C). ``channel-planar``
    holds it in (N, C, H, W) memory, as ``Split.images`` returns batches of
    a loaded corpus."""
    if layout == "contiguous":
        return rng.standard_normal(shape)
    n, h, w, c = shape
    return rng.standard_normal((n, c, h, w)).transpose(0, 2, 3, 1)


class TestConv2D:
    def test_output_shape_32x32(self):
        layer = Conv2D(3, 8, (3, 3), Rng(0))
        out = layer.forward(np.zeros((2, 32, 32, 3), dtype=np.float32))
        assert out.shape == (2, 30, 30, 8)

    def test_zero_input_gives_bias(self):
        rng = Rng(1)
        layer = Conv2D(2, 3, (3, 3), rng, np.float64)
        layer.b.value = np.array([0.5, -1.0, 2.0])
        out = layer.forward(np.zeros((1, 6, 6, 2)))
        for k, bval in enumerate(layer.b.value):
            assert np.all(out[..., k] == bval)

    @pytest.mark.parametrize("layout", ["contiguous", "channel-planar"])
    @pytest.mark.parametrize("shape, kernel", CONV_CASES, ids=CONV_CASE_IDS)
    def test_matches_loop_oracle(self, shape, kernel, layout):
        rng = Rng(5)
        layer = Conv2D(shape[3], 3, kernel, rng, np.float64)
        x = conv_input(rng, shape, layout)
        expected = conv_oracle(x, layer.w.value, layer.b.value)
        assert np.max(np.abs(layer.forward(x) - expected)) < 1e-12

    @pytest.mark.parametrize("layout", ["contiguous", "channel-planar"])
    @pytest.mark.parametrize("shape, kernel", CONV_CASES, ids=CONV_CASE_IDS)
    def test_backward_matches_loop_oracle(self, shape, kernel, layout):
        # in_channels != filters, so a swapped axis or an unflipped kernel
        # cannot cancel out
        rng = Rng(6)
        layer = Conv2D(shape[3], 3, kernel, rng, np.float64)
        x = conv_input(rng, shape, layout)
        g = rng.standard_normal(layer.forward(x, rng).shape)
        gx, gw, gb = conv_backward_oracle(x, layer.w.value, g)
        assert np.max(np.abs(layer.backward(g) - gx)) < 1e-12
        assert np.max(np.abs(layer.w.grad - gw)) < 1e-12
        assert np.max(np.abs(layer.b.grad - gb)) < 1e-12

    def test_backward_without_input_grad(self):
        rng = Rng(7)
        layer = Conv2D(2, 3, (3, 3), rng, np.float64)
        x = rng.standard_normal((2, 6, 5, 2))
        g = rng.standard_normal(layer.forward(x, rng).shape)
        layer.backward(g)
        w_grad, b_grad = layer.w.grad.copy(), layer.b.grad.copy()
        layer.forward(x, rng)  # a backward consumes its forward's windows
        assert layer.backward(g, input_grad=False) is None
        assert np.array_equal(layer.w.grad, w_grad)
        assert np.array_equal(layer.b.grad, b_grad)

    def test_kernel_larger_than_input(self):
        layer = Conv2D(1, 1, (3, 3), Rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 2, 4, 1), dtype=np.float32))

    def test_channel_mismatch(self):
        layer = Conv2D(3, 2, (3, 3), Rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 6, 6, 2), dtype=np.float32))


class TestMaxPool:
    def test_single_window(self):
        layer = MaxPool2D()
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        assert layer.forward(x).reshape(-1) == pytest.approx([4.0])

    def test_constant_ties_route_to_first(self):
        layer = MaxPool2D()
        x = np.full((1, 4, 4, 1), 7.0)
        out = layer.forward(x, Rng(0))
        assert np.all(out == 7.0)
        g = layer.backward(np.ones_like(out))
        expected = np.zeros((1, 4, 4, 1))
        expected[0, 0::2, 0::2, 0] = 1.0  # row-major first position per window
        assert np.array_equal(g, expected)

    def test_shape_28_to_14(self):
        layer = MaxPool2D()
        out = layer.forward(np.zeros((3, 28, 28, 4), dtype=np.float32))
        assert out.shape == (3, 14, 14, 4)

    def test_odd_input_truncates(self):
        layer = MaxPool2D()
        x = np.arange(25, dtype=np.float64).reshape(1, 5, 5, 1)
        out = layer.forward(x, Rng(0))
        assert out.shape == (1, 2, 2, 1)
        g = layer.backward(np.ones_like(out))
        assert g.shape == x.shape
        assert np.all(g[0, 4, :, 0] == 0) and np.all(g[0, :, 4, 0] == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_tie_pattern_matches_loop_oracle(self, dtype):
        x = tie_pattern_batch(dtype)
        g = (np.arange(15 * 3, dtype=dtype).reshape(15, 1, 1, 3) - 20.0) / 7
        layer = MaxPool2D()
        out = layer.forward(x, Rng(0))
        want_out, want_gx = maxpool_oracle(x, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(layer.backward(g), want_gx)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 7, 9, 4), (2, 6, 6, 2), (1, 2, 3, 1)])
    def test_post_relu_ties_match_loop_oracle(self, dtype, shape):
        rng = Rng(sum(shape))
        x = np.maximum(np.round(rng.standard_normal(shape)), 0).astype(dtype)
        g = rng.standard_normal((shape[0], shape[1] // 2, shape[2] // 2,
                                 shape[3])).astype(dtype)
        layer = MaxPool2D()
        out = layer.forward(x, Rng(0))
        want_out, want_gx = maxpool_oracle(x, g)
        assert np.array_equal(out, want_out)
        assert np.array_equal(layer.backward(g), want_gx)

    def test_gradient_goes_to_argmax(self):
        layer = MaxPool2D()
        x = np.array([[1.0, 5.0], [2.0, 3.0]]).reshape(1, 2, 2, 1)
        layer.forward(x, Rng(0))
        g = layer.backward(np.full((1, 1, 1, 1), 4.0))
        assert g[0, 0, 1, 0] == 4.0
        assert g.sum() == 4.0


class TestActivations:
    def test_relu_values(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_propagates_nan(self):
        out = ReLU().forward(np.array([[np.nan, -1.0, 2.0]]))
        assert np.array_equal(out, [[np.nan, 0.0, 2.0]], equal_nan=True)

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 0.0, 2.0]]), Rng(0))
        g = layer.backward(np.array([[5.0, 5.0, 5.0]]))
        assert np.array_equal(g, [[0.0, 0.0, 5.0]])  # subgradient at 0 is 0

    def test_relu_backward_masked_negative_gradient_equals_zero(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 0.0, 2.0]]), Rng(0))
        g = layer.backward(np.array([[-5.0, -5.0, -5.0]]))
        # the masked entries may be -0.0, which must compare equal to 0
        assert np.array_equal(g, [[0.0, 0.0, -5.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make_layer", [
        pytest.param(lambda dtype: ReLU(), id="ReLU"),
        pytest.param(lambda dtype: MaxPool2D(), id="MaxPool2D"),
        pytest.param(lambda dtype: Conv2D(3, 2, (3, 3), Rng(0), dtype), id="Conv2D"),
    ])
    def test_forward_and_backward_keep_dtype(self, make_layer, dtype):
        x = Rng(3).standard_normal((2, 5, 6, 3)).astype(dtype)
        layer = make_layer(dtype)
        out = layer.forward(x, Rng(0))
        assert out.dtype == dtype
        assert layer.backward(np.ones_like(out)).dtype == dtype

    def test_softmax_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_softmax_stability(self):
        out = softmax(np.array([1000.0, -1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self):
        x = Rng(7).standard_normal((100, 2)) * 10
        p = softmax(x)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        assert np.all((p >= 0) & (p <= 1))


def test_nn_package_names_only_its_modules():
    """Each layer, loss and optimizer has one import spelling: its module's."""
    public = {name for name in vars(sensecomm.nn) if not name.startswith("_")}
    assert public <= {"layers", "losses", "optim"}, public


class TestDropout:
    def test_inference_identity(self):
        x = Rng(0).standard_normal((4, 9))
        layer = Dropout(0.5)
        assert layer.forward(x) is x

    def test_second_backward_raises(self):
        # a backward consumes the mask its forward saved, as in every layer
        layer = Dropout(0.5)
        layer.forward(Rng(2).standard_normal((4, 9)), Rng(3))
        g = Rng(4).standard_normal((4, 9))
        layer.backward(g)
        with pytest.raises(TypeError):
            layer.backward(g)

    def test_mask_from_rng(self):
        # the mask is the rng's next uniforms against the rate, scaled by
        # 1/(1-rate), and backward applies the same mask
        x = Rng(5).standard_normal((4, 9))
        layer = Dropout(0.5)
        out = layer.forward(x, Rng(6))
        mask = (Rng(6).uniform(size=x.shape) >= 0.5) / 0.5
        assert np.array_equal(out, x * mask)
        g = Rng(7).standard_normal((4, 9))
        assert np.array_equal(layer.backward(g), g * mask)

    def test_rate_zero_identity(self):
        x = Rng(1).standard_normal((4, 9))
        assert np.array_equal(Dropout(0.0).forward(x, Rng(2)), x)

    def test_survivor_statistics(self):
        x = np.ones((1000, 1000))
        out = Dropout(0.1).forward(x, Rng(3))
        survivors = (out != 0).mean()
        assert abs(survivors - 0.9) < 0.002
        assert abs(out.mean() - 1.0) < 0.005  # inverted scaling preserves the mean

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)
        with pytest.raises(ConfigError):
            Dropout(-0.1)


class TestFlatten:
    def test_length(self):
        out = Flatten().forward(np.zeros((2, 6, 6, 4)))
        assert out.shape == (2, 144)

    def test_round_trip_identity(self):
        layer = Flatten()
        x = Rng(4).standard_normal((3, 4, 5, 2))
        assert np.array_equal(layer.backward(layer.forward(x, Rng(0))), x)

    def test_1x1x3_order(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3)
        assert np.array_equal(Flatten().forward(x), [[1.0, 2.0, 3.0]])
