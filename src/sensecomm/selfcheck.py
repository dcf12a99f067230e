"""Finite-difference verification suite for every layer and the full pipeline.

Every check projects an operation's output onto a fixed tensor and compares
the analytic gradient of that scalar with central differences,
(f(x+h) - f(x-h)) / 2h, taken by perturbing one entry in place at a time.
Relative error uses a floored denominator so that near-zero coordinates do
not amplify finite-difference noise:

    rel = |analytic - fd| / max(|analytic|, |fd|, 1e-4)

All checks run in 64-bit (at 32-bit the difference quotient itself is
noise) with dropout disabled, and random draws are frozen by reseeding: the
dropout mask and every channel realization come from a fresh stream with
the same seed on each evaluation, so the difference quotients are
meaningful. Layer checks are exhaustive over every coordinate; the
end-to-end check samples a fixed random subset of coordinates per tensor to
stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import (
    ChannelConfig,
    PowerNormalize,
    SensingConfig,
    sample_realization,
)
from .models import ModelConfig, Pipeline
from .nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Param,
    ReLU,
    cross_entropy,
    cross_entropy_logit_grad,
    softmax,
)
from .rng import Rng

FD_STEP = 1e-5
REL_FLOOR = 1e-4

LAYER_TOL = 1e-6
PIPELINE_TOL = 1e-4

# a scalar output is checked by projecting it onto one
SCALAR = np.float64(1.0)

# entries checked per tensor when a check samples them
SAMPLED_COORDS = 40


@dataclass
class GradCheckReport:
    tolerance: float
    max_rel_error: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _coords(size: int, rng: Rng | None) -> np.ndarray:
    if rng is None or size <= SAMPLED_COORDS:
        return np.arange(size)
    return np.sort(rng.permutation(size)[:SAMPLED_COORDS])


def projection_check(forward: Callable[[np.ndarray], np.ndarray],
                     backward: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray, proj: np.ndarray,
                     params: Sequence[Param] = (), tol: float = LAYER_TOL,
                     rng: Rng | None = None) -> GradCheckReport:
    """Check d(sum(proj * forward(x)))/d{x, params} against finite
    differences. ``backward(proj)`` returns the gradient with respect to
    ``x`` and fills each parameter's ``grad``. With an rng, a random subset
    of ``SAMPLED_COORDS`` entries per tensor, drawn from it, is checked;
    otherwise every entry is."""
    def loss():
        return float((proj * forward(x)).sum())

    loss()  # refresh caches at the unperturbed point
    report = GradCheckReport(tolerance=tol)
    for name, arr, an in ([("x", x, backward(proj))]
                          + [(p.name, p.value, p.grad) for p in params]):
        if an.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        flat = arr.reshape(-1)
        an_flat = an.reshape(-1)
        for i in _coords(flat.size, rng):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            f_plus = loss()
            flat[i] = orig - FD_STEP
            f_minus = loss()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * FD_STEP)
            denom = max(abs(an_flat[i]), abs(fd), REL_FLOOR)
            report.max_rel_error = max(report.max_rel_error,
                                       abs(an_flat[i] - fd) / denom)
    return report


def _layer(make, shape: tuple, seed: int) -> GradCheckReport:
    """A layer built from ``Rng(seed)``, fed the next standard-normal draws
    of that stream and projected onto draws from ``Rng(seed + 1)``."""
    rng = Rng(seed)
    layer = make(rng)
    x = rng.standard_normal(shape)
    proj = Rng(seed + 1).standard_normal(layer.forward(x).shape)
    return projection_check(layer.forward, layer.backward, x, proj,
                            layer.params())


def _same_shape(forward, backward, shape: tuple, seed: int) -> GradCheckReport:
    """A shape-preserving operation; input and projection are drawn in turn
    from ``Rng(seed)``."""
    rng = Rng(seed)
    x = rng.standard_normal(shape)
    return projection_check(forward, backward, x, rng.standard_normal(shape))


def _softmax_cross_entropy() -> GradCheckReport:
    logits = Rng(17).standard_normal((4, 2))
    labels = np.array([0, 1, 1, 0])
    return projection_check(
        lambda z: cross_entropy(softmax(z), labels),
        lambda g: g * cross_entropy_logit_grad(softmax(logits), labels),
        logits, SCALAR)


def _pipeline(mode: str, kind: str, seed: int = 101) -> GradCheckReport:
    """End-to-end check of the cross-entropy at batch 2 and n_c 4: dropout
    off, sampled coordinates per parameter tensor. Each pass draws its
    channel realizations from a fresh ``Rng(seed + 10_000)``, so every pass
    sees the same ones.

    The seed pins an operating point where no relu or pooling unit sits
    within the finite-difference step of its kink; central differences are
    meaningless where the function is non-differentiable.
    """
    rng = Rng(seed)
    pipeline = Pipeline(ModelConfig(n_c=4, mode=mode), rng, dtype=np.float64)
    x = rng.uniform(0.0, 1.0, size=(2, 32, 32, 3))
    labels = np.array([0, 1])
    channel_cfg = ChannelConfig(kind=kind, snr_db=3.0)
    sensing_cfg = SensingConfig(vehicle_snr_db=-3.0, animal_offset_db=6.0)

    def probs(x):
        return pipeline.forward(x, labels, channel_cfg, sensing_cfg,
                                rng=Rng(seed + 10_000))

    return projection_check(
        lambda x: cross_entropy(probs(x), labels),
        lambda g: pipeline.backward(g * cross_entropy_logit_grad(probs(x), labels)),
        x, SCALAR, pipeline.params(), PIPELINE_TOL, rng=Rng(seed + 20_000))


def run_gradient_checks() -> list[tuple[str, GradCheckReport]]:
    """The full verification suite, as surfaced by the CLI: one named row
    per layer, loss, channel kind and pipeline mode."""
    dropout, norm = Dropout(0.3), PowerNormalize()
    awgn, rayleigh = (sample_realization(kind, 0.0, 3, 6, Rng(20), np.float64)
                      for kind in ("awgn", "rayleigh"))
    return [
        ("dense_4_to_3",
         _layer(lambda rng: Dense(4, 3, rng, dtype=np.float64), (2, 4), 11)),
        ("conv2d_6x6x2",
         _layer(lambda rng: Conv2D(2, 3, (3, 3), rng, dtype=np.float64),
                (2, 6, 6, 2), 12)),
        ("maxpool_2x2", _layer(lambda rng: MaxPool2D(), (2, 4, 4, 2), 13)),
        ("relu", _layer(lambda rng: ReLU(), (2, 12), 14)),
        ("flatten", _layer(lambda rng: Flatten(), (2, 3, 4, 2), 15)),
        ("dropout_frozen_mask",
         _same_shape(lambda x: dropout.forward(x, Rng(99)),
                     dropout.backward, (2, 20), 16)),
        ("softmax_cross_entropy", _softmax_cross_entropy()),
        ("power_normalize", _same_shape(norm.forward, norm.backward, (3, 8), 18)),
        ("channel_awgn", _same_shape(awgn.forward, awgn.backward, (3, 6), 19)),
        ("channel_rayleigh",
         _same_shape(rayleigh.forward, rayleigh.backward, (3, 6), 19)),
        ("pipeline_joint_rayleigh", _pipeline("joint", "rayleigh")),
        ("pipeline_sensing_only_awgn", _pipeline("sensing_only", "awgn")),
    ]
