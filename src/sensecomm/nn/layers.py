"""Differentiable layers: forward passes plus exact analytic backward passes.

All layers operate on batched arrays with the sample axis first. Images are
channels-last ``(N, H, W, C)``. Each layer caches what its backward pass
needs during ``forward`` and exposes trainable parameters as :class:`Param`
objects whose ``grad`` is filled in by ``backward``.

An rng given to a layer stack's ``forward`` means training: a layer that
draws at random (:class:`Dropout`) draws from it, and without one does not.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError
from ..rng import Rng


def compute_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out for a weight shape. Convolution kernels are
    ``(kh, kw, in_channels, filters)`` so the receptive field multiplies
    both fans; dense weights are ``(in, out)``."""
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[:-2]))
    return shape[-2] * receptive, shape[-1] * receptive


def glorot_uniform(shape, rng: Rng, dtype=np.float32) -> np.ndarray:
    """Weights drawn uniform on [-L, L] with L = sqrt(6 / (fan_in + fan_out))."""
    shape = tuple(int(d) for d in shape)
    if len(shape) < 2 or any(d < 1 for d in shape):
        raise ShapeError(f"invalid weight shape {shape}")
    fan_in, fan_out = compute_fans(shape)
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Param:
    """A trainable array plus the gradient from the latest backward pass."""

    def __init__(self, value: np.ndarray, name: str = ""):
        self.value = value
        self.grad: np.ndarray | None = None
        self.name = name


class Layer:
    """Base layer. Subclasses override forward/backward; params() lists
    trainable parameters in declaration order. An rng given to ``forward``
    means training: a layer draws from it, and only from it."""

    def forward(self, x: np.ndarray, rng: Rng | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[Param]:
        return []


class Dense(Layer):
    """Fully connected layer: y = x @ W + b with W of shape (in, out)."""

    def __init__(self, in_dim: int, out_dim: int, rng: Rng, dtype=np.float32, name: str = "dense"):
        self.w = Param(glorot_uniform((in_dim, out_dim), rng, dtype), f"{name}.w")
        self.b = Param(np.zeros(out_dim, dtype=dtype), f"{name}.b")
        self._x: np.ndarray | None = None

    def forward(self, x, rng=None):
        if x.ndim != 2 or x.shape[1] != self.w.value.shape[0]:
            raise ShapeError(
                f"dense expects (N, {self.w.value.shape[0]}), got {x.shape}")
        self._x = x
        return x @ self.w.value + self.b.value

    def backward(self, grad_out, input_grad=True):
        x = self._x
        self.w.grad = x.T @ grad_out
        self.b.grad = grad_out.sum(axis=0)
        return grad_out @ self.w.value.T if input_grad else None

    def params(self):
        return [self.w, self.b]


def _row_windows(x: np.ndarray, kw: int) -> np.ndarray:
    """Every kw-wide window of a channels-last batch as a row:
    (N, H, W, C) -> (N, H*Wo, kw*C), Wo = W - kw + 1, each row in the
    (kw, C) order of a flattened kernel row. Image row h's windows are rows
    h*Wo to (h+1)*Wo - 1 of its sample, so the windows of any run of image
    rows are one contiguous block. The windows are right for ``x`` in any
    memory layout and copy fastest from C order, which every input has:
    ``Split.images`` hands batches out C-contiguous, and activations, pooled
    maps and padded gradients are built that way."""
    n, h, w, c = x.shape
    wo = w - kw + 1
    win = np.lib.stride_tricks.sliding_window_view(x, kw, axis=2)
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 3)).reshape(
        n, h * wo, kw * c)


def _correlate(rows: np.ndarray, w: np.ndarray, ho: int, wo: int) -> np.ndarray:
    """Valid cross-correlation of the kernel ``w`` (kh, kw, C, F) over the
    row windows of an image Ho + kh - 1 rows high: (N, Ho*Wo, F). Kernel row
    i multiplies the block of image rows i to i + Ho - 1, which numpy hands
    to BLAS one sample at a time without copying it."""
    kh, kw, c, f = w.shape
    out = rows[:, :ho * wo] @ w[0].reshape(kw * c, f)
    for i in range(1, kh):
        out += rows[:, i * wo:(i + ho) * wo] @ w[i].reshape(kw * c, f)
    return out


class Conv2D(Layer):
    """2-D cross-correlation, stride 1, no padding ("valid").

    Kernel shape is (kh, kw, in_channels, filters); output spatial dims
    shrink by kernel-1. Forward copies each position's kw-wide window once,
    (N, H, W, C) -> (N, H*Wo, kw*C), kw times the input rather than the
    kh*kw times of a full window matrix. In that buffer image row h + i
    starts i*Wo rows after image row h, so kernel row i's operand for all
    of a sample's outputs is one contiguous (Ho*Wo, kw*C) block, and the
    output is the sum of kh per-sample matmuls, one per kernel row. The row
    windows are cached: backward's weight gradient for kernel row i is
    ``block_i^T @ g`` per sample, summed over the batch. The input gradient
    is the "full" convolution of the output gradient: pad it by kernel-1 on
    every spatial side and correlate it, through the same row windows, with
    the kernel flipped in (kh, kw) and its channel axes swapped.
    """

    def __init__(self, in_channels: int, filters: int, kernel: tuple[int, int],
                 rng: Rng, dtype=np.float32, name: str = "conv"):
        kh, kw = kernel
        self.w = Param(glorot_uniform((kh, kw, in_channels, filters), rng, dtype), f"{name}.w")
        self.b = Param(np.zeros(filters, dtype=dtype), f"{name}.b")
        self._rows: np.ndarray | None = None
        self._x_shape: tuple | None = None

    def forward(self, x, rng=None):
        kh, kw, cin, filters = self.w.value.shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise ShapeError(f"conv2d expects (N, H, W, {cin}), got {x.shape}")
        n, h, w_in, _ = x.shape
        if h < kh or w_in < kw:
            raise ShapeError(f"kernel ({kh},{kw}) larger than input ({h},{w_in})")
        ho, wo = h - kh + 1, w_in - kw + 1
        self._rows = _row_windows(x, kw)
        self._x_shape = x.shape
        out = _correlate(self._rows, self.w.value, ho, wo).reshape(n, -1)
        out += np.tile(self.b.value, ho * wo)  # one long add, not Ho*Wo of F
        return out.reshape(n, ho, wo, filters)

    def backward(self, grad_out, input_grad=True):
        kh, kw, cin, filters = self.w.value.shape
        n, h, w_in, _ = self._x_shape
        ho, wo = h - kh + 1, w_in - kw + 1
        g = grad_out.reshape(n, ho * wo, filters)
        self.w.grad = np.stack([
            (self._rows[:, i * wo:(i + ho) * wo].transpose(0, 2, 1) @ g).sum(axis=0)
            for i in range(kh)]).reshape(kh, kw, cin, filters)
        # over the batch, then over positions: long adds, not N*Ho*Wo of F
        self.b.grad = grad_out.sum(axis=0).reshape(-1, filters).sum(axis=0)
        if not input_grad:
            return None
        padded = np.pad(grad_out, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
        flipped = self.w.value[::-1, ::-1].transpose(0, 1, 3, 2)
        return _correlate(_row_windows(padded, kw), flipped, h, w_in).reshape(
            n, h, w_in, cin)

    def params(self):
        return [self.w, self.b]


class MaxPool2D(Layer):
    """Non-overlapping 2x2 max pooling; odd trailing rows/cols are dropped.

    Forward is a pairwise ``np.maximum`` over the four strided quarters of
    the input, one per window position in row-major order (r0c0, r0c1,
    r1c0, r1c1). No argmax index is stored: backward finds each window's
    first maximum by comparing the quarters, in that order, against the
    cached pooled output, and routes the window's gradient there alone, so
    ties resolve deterministically to the first position. Every other
    position gets ``g * 0``, which is -0.0 where ``g`` is negative.
    """

    def __init__(self):
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def _quarters(self, a: np.ndarray) -> list[np.ndarray]:
        """Strided views of ``a``, one per window position, row-major."""
        ho, wo = a.shape[1] // 2, a.shape[2] // 2
        return [a[:, i:ho * 2:2, j:wo * 2:2, :] for i in range(2) for j in range(2)]

    def forward(self, x, rng=None):
        if x.ndim != 4:
            raise ShapeError(f"maxpool expects (N, H, W, C), got {x.shape}")
        first, *rest = self._quarters(x)
        out = first.copy()
        for q in rest:
            np.maximum(out, q, out=out)
        self._x, self._out = x, out
        return out

    def backward(self, grad_out):
        grad_x = np.zeros(self._x.shape, dtype=grad_out.dtype)
        free = np.ones(self._out.shape, dtype=bool)
        for q, gq in zip(self._quarters(self._x), self._quarters(grad_x)):
            hit = q == self._out
            hit &= free
            np.multiply(grad_out, hit, out=gq)
            free ^= hit  # hit is a subset of free: clear the taken windows
        return grad_x


class ReLU(Layer):
    """Elementwise max(x, 0); subgradient at 0 is taken as 0.

    NaN propagates: a NaN input gives a NaN output (and a zero gradient), so
    a poisoned network fails the loss check instead of being silently
    cleared. Backward takes its mask from the cached output (``out > 0`` is
    ``x > 0``) and returns ``g * mask``, which is -0.0 where a negative
    ``g`` is masked.
    """

    def __init__(self):
        self._out: np.ndarray | None = None

    def forward(self, x, rng=None):
        self._out = np.maximum(x, 0, dtype=x.dtype)
        return self._out

    def backward(self, grad_out):
        return grad_out * (self._out > 0)


class Dropout(Layer):
    """Inverted dropout: given an rng, zero with probability ``rate`` and
    scale survivors by 1/(1-rate); the identity without one."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask: np.ndarray | None = None

    def forward(self, x, rng=None):
        if rng is None or self.rate == 0.0:
            self._mask = None
            return x
        keep = (rng.uniform(size=x.shape) >= self.rate)
        self._mask = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._mask

    def backward(self, grad_out):
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Flatten(Layer):
    """Row-major reshape (N, H, W, C) -> (N, H*W*C); backward is the inverse."""

    def __init__(self):
        self._x_shape: tuple | None = None

    def forward(self, x, rng=None):
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        return grad_out.reshape(self._x_shape)


class Sequential:
    """Straight-line stack of layers sharing one forward/backward interface."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x, rng=None):
        """An rng given to a layer stack means training: each dropout layer
        draws its mask from it, in layer order."""
        for layer in self.layers:
            x = layer.forward(x, rng)
        return x

    def backward(self, grad_out, input_grad=True):
        """Fill every parameter gradient and return the gradient with
        respect to the stack's input, or None when ``input_grad`` is false.
        The flag reaches the first layer only, which must be a Dense or
        Conv2D; every later layer has to pass its input gradient on."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad_out = layer.backward(grad_out)
        return first.backward(grad_out, input_grad=input_grad)

    def params(self) -> list[Param]:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
