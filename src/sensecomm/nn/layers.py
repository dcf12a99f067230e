"""Differentiable layers: forward passes plus exact analytic backward passes.

All layers operate on batched arrays with the sample axis first. Images are
channels-last ``(N, H, W, C)``. A Dense or Conv2D layer is given its weight
and bias as :class:`Param` views of a model's two flat buffers, which
:func:`param_buffers` builds, and ``backward`` writes into their ``grad``.
The channel's ``PowerNormalize`` is a layer too, the last of each encoder.

An rng given to ``forward`` means training, and that a backward follows: a
layer that draws at random (:class:`Dropout`) draws from it, and every
layer keeps what its backward needs in one slot, ``_saved``. A forward
without an rng draws nothing and writes no attribute at all, so any number
of threads may run one on the same layer.

A backward consumes what its forward saved: it takes ``_saved`` and sets
the slot to None before it allocates its outputs, so a backward walking
down a stack frees each layer's activations as it passes. Each backward
therefore needs a forward with an rng of its own; a second backward after
one forward finds nothing saved.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ShapeError
from ..rng import Rng

# Rows per Dense forward product: BLAS rounds by row count. At 16, 2,048 rows
# still differed across batch sizes under OPENBLAS_CORETYPE=Haswell; at 8, none.
DENSE_ROWS = 8


class Param:
    """A named trainable tensor: ``value`` and ``grad`` are views of its
    slice of the model's two flat buffers, which ``backward`` and ``Adam``
    write through. Neither may be rebound: write into them, with ``[...] =``
    or ``out=``."""

    def __init__(self, name: str, value: np.ndarray, grad: np.ndarray):
        self.name, self.value, self.grad = name, value, grad


def param_buffers(shapes, rng: Rng | None, dtype=np.float32
                  ) -> tuple[np.ndarray, np.ndarray, list[Param]]:
    """A flat buffer of values, one of gradients, both of ``dtype``, and a
    :class:`Param` for each ``(name, shape)`` of ``shapes``, whose views are
    its slices of the two, in order. Gradients and biases (one axis) start
    at zero. Given an rng, each weight (two or more axes) is drawn from it
    in order, Glorot-uniform on [-L, L], L = sqrt(6 / (fan_in + fan_out)):
    a dense weight is (in, out), and a kernel's (kh, kw, in, out) receptive
    field multiplies both fans. Without one, every value is zero, for a
    checkpoint to fill."""
    for name, shape in shapes:
        if not shape or min(shape) < 1:
            raise ShapeError(f"invalid shape {shape} of {name}")
    sizes = [math.prod(shape) for _, shape in shapes]
    values = np.zeros(sum(sizes), dtype)
    grads = np.zeros_like(values)
    ends = np.cumsum(sizes)[:-1]
    params = [Param(name, v.reshape(shape), g.reshape(shape)) for (name, shape), v, g
              in zip(shapes, np.split(values, ends), np.split(grads, ends))]
    for p in params:
        if rng is not None and p.value.ndim > 1:
            shape = p.value.shape
            fans = math.prod(shape[:-2]) * (shape[-2] + shape[-1])
            limit = math.sqrt(6.0 / fans)
            p.value[...] = rng.uniform(-limit, limit, size=shape)
    return values, grads, params


class Layer:
    """Base layer. Subclasses override forward/backward, with the rng rule
    of the module docstring: forward with an rng fills ``_saved``, and
    backward empties it."""

    _saved = None

    def forward(self, x: np.ndarray, rng: Rng | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: y = x @ W + b with W of shape (in, out).
    Forward multiplies ``DENSE_ROWS`` rows at a time, the last block padded
    with zeros, so a row's output is the same bits whatever its batch."""

    def __init__(self, w: Param, b: Param):
        self.w, self.b = w, b

    def forward(self, x, rng=None):
        n_in, n_out = self.w.value.shape
        if x.ndim != 2 or x.shape[1] != n_in:
            raise ShapeError(f"dense expects (N, {n_in}), got {x.shape}")
        if rng is not None:
            self._saved = x
        m = len(x)
        if m % DENSE_ROWS:
            x = np.concatenate([x, np.zeros((-m % DENSE_ROWS, n_in), x.dtype)])
        y = x.reshape(-1, DENSE_ROWS, n_in) @ self.w.value
        return y.reshape(-1, n_out)[:m] + self.b.value

    def backward(self, grad_out, input_grad=True):
        x, self._saved = self._saved, None
        np.matmul(x.T, grad_out, out=self.w.grad)
        grad_out.sum(axis=0, out=self.b.grad)
        return grad_out @ self.w.value.T if input_grad else None


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
    output is the sum of kh per-sample matmuls, one per kernel row. Given
    an rng, forward saves the row windows: backward's weight gradient for
    kernel row i is ``block_i^T @ g`` per sample, summed over the batch.
    The input gradient is the "full" convolution of the output gradient:
    pad it by kernel-1 on every spatial side and correlate it, through the
    same row windows, with the kernel flipped in (kh, kw) and its channel
    axes swapped. Backward drops the saved windows once the weight gradient
    is summed, and the padded gradient once its windows are built, so at
    most one window buffer of the layer is alive at a time.
    """

    def __init__(self, w: Param, b: Param):
        self.w, self.b = w, b

    def forward(self, x, rng=None):
        kh, kw, cin, filters = self.w.value.shape
        if x.ndim != 4 or x.shape[3] != cin:
            raise ShapeError(f"conv2d expects (N, H, W, {cin}), got {x.shape}")
        n, h, w_in, _ = x.shape
        if h < kh or w_in < kw:
            raise ShapeError(f"kernel ({kh},{kw}) larger than input ({h},{w_in})")
        ho, wo = h - kh + 1, w_in - kw + 1
        rows = _row_windows(x, kw)
        if rng is not None:
            self._saved = rows
        out = _correlate(rows, self.w.value, ho, wo).reshape(n, -1)
        out += np.tile(self.b.value, ho * wo)  # one long add, not Ho*Wo of F
        return out.reshape(n, ho, wo, filters)

    def backward(self, grad_out, input_grad=True):
        kh, kw, cin, filters = self.w.value.shape
        n, ho, wo, _ = grad_out.shape
        h, w_in = ho + kh - 1, wo + kw - 1
        rows, self._saved = self._saved, None
        g = grad_out.reshape(n, ho * wo, filters)
        grad_w = self.w.grad.reshape(kh, kw * cin, filters)
        for i in range(kh):
            (rows[:, i * wo:(i + ho) * wo].transpose(0, 2, 1) @ g).sum(
                axis=0, out=grad_w[i])
        del rows
        # over the batch, then over positions: long adds, not N*Ho*Wo of F
        grad_out.sum(axis=0).reshape(-1, filters).sum(axis=0, out=self.b.grad)
        if not input_grad:
            return None
        padded = np.zeros((n, h + kh - 1, w_in + kw - 1, filters), grad_out.dtype)
        padded[:, kh - 1:h, kw - 1:w_in] = grad_out
        rows = _row_windows(padded, kw)
        del padded
        flipped = self.w.value[::-1, ::-1].transpose(0, 1, 3, 2)
        return _correlate(rows, flipped, h, w_in).reshape(n, h, w_in, cin)


class MaxPool2D(Layer):
    """Non-overlapping 2x2 max pooling; odd trailing rows/cols are dropped.

    Forward is a pairwise ``np.maximum`` over the four strided quarters of
    the input, one per window position in row-major order (r0c0, r0c1,
    r1c0, r1c1). No argmax index is stored: backward finds each window's
    first maximum by comparing the quarters, in that order, against the
    saved pooled output, and routes the window's gradient there alone, so
    ties resolve deterministically to the first position. Every other
    position gets ``g * 0``, which is -0.0 where ``g`` is negative.
    """

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
        if rng is not None:
            self._saved = x, out
        return out

    def backward(self, grad_out):
        (x, out), self._saved = self._saved, None
        grad_x = np.zeros(x.shape, dtype=grad_out.dtype)
        free = np.ones(out.shape, dtype=bool)
        for q, gq in zip(self._quarters(x), self._quarters(grad_x)):
            hit = q == out
            hit &= free
            np.multiply(grad_out, hit, out=gq)
            free ^= hit  # hit is a subset of free: clear the taken windows
        return grad_x


class ReLU(Layer):
    """Elementwise max(x, 0); subgradient at 0 is taken as 0.

    NaN propagates: a NaN input gives a NaN output (and a zero gradient), so
    a poisoned network fails the loss check instead of being silently
    cleared. Backward takes its mask from the saved output (``out > 0`` is
    ``x > 0``) and returns ``g * mask``, which is -0.0 where a negative
    ``g`` is masked.
    """

    def forward(self, x, rng=None):
        out = np.maximum(x, 0, dtype=x.dtype)
        if rng is not None:
            self._saved = out
        return out

    def backward(self, grad_out):
        out, self._saved = self._saved, None
        return grad_out * (out > 0)


class Dropout(Layer):
    """Inverted dropout: given an rng, zero with probability ``rate`` and
    scale survivors by 1/(1-rate); the identity without one."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, rng=None):
        if rng is None:
            return x
        keep = (rng.uniform(size=x.shape) >= self.rate)
        self._saved = keep.astype(x.dtype) / (1.0 - self.rate)
        return x * self._saved

    def backward(self, grad_out):
        mask, self._saved = self._saved, None
        return grad_out * mask


class Flatten(Layer):
    """Row-major reshape (N, H, W, C) -> (N, H*W*C); backward is the inverse."""

    def forward(self, x, rng=None):
        if rng is not None:
            self._saved = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out):
        shape, self._saved = self._saved, None
        return grad_out.reshape(shape)


class Sequential:
    """Straight-line stack of layers sharing one forward/backward interface."""

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def forward(self, x, rng=None):
        """Run the layers in order, each with ``rng``: given one, the dropout
        layers draw their masks from it in that order and every layer, the
        power normalization too, saves what ``backward`` needs."""
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


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
