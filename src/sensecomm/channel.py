"""Differentiable channel layer.

Signals are real-valued vectors of length ``n_c``, batched as ``(N, n_c)``.
A transmission multiplies the signal by a scalar gain and adds white
Gaussian noise:

    y = h * s + n,    n_i ~ Normal(0, sigma^2) i.i.d.

AWGN fixes h = 1. Rayleigh draws one flat gain per transmission,
h = sqrt(a^2 + b^2) / sqrt(2) with a, b standard normal, so E[h^2] = 1 and
the configured SNR holds on average. No equalization is applied at the
receiver; robustness to fading is left to the learned decoder.

Signal power is pinned to 1 per element by :class:`PowerNormalize`, the
last layer of each encoder, before every transmission, which makes
sigma = 10^(-snr_db / 20) the correct noise scale for a given SNR.
:func:`sample_realization` draws one realization (h, n) per sample, keyed
by the sample's position, and returns it as a :class:`Transmission`,
whose backward treats it as a constant, so the input gradient is just h
times the upstream gradient.

The sensing reflection is the same mechanics with a class-dependent SNR:
vehicles reflect at the configured maximum, animals a fixed number of dB
lower. That SNR gap is the only way the target's identity enters the
reflected signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn.layers import Layer
from .rng import EVAL, Rng

NORM_EPS = 1e-12  # added to the L2 norm so all-zero signals stay finite

CHANNEL_KINDS = ("awgn", "rayleigh")


@dataclass
class ChannelConfig:
    """Channel family and SNR for one link. The same kind is used for the
    communication and sensing links of an experiment."""
    kind: str
    snr_db: float

    def __post_init__(self):
        if self.kind not in CHANNEL_KINDS:
            raise ConfigError(f"unknown channel kind {self.kind!r}")


@dataclass
class SensingConfig:
    """Reflection SNRs per class: vehicles at ``vehicle_snr_db``, animals
    ``animal_offset_db`` below it."""
    vehicle_snr_db: float
    animal_offset_db: float

    def snr_for_labels(self, label2: np.ndarray) -> np.ndarray:
        label2 = np.asarray(label2)
        return np.where(label2 == 1, self.vehicle_snr_db,
                        self.vehicle_snr_db - self.animal_offset_db)


def noise_std(snr_db) -> np.ndarray | float:
    """Noise standard deviation for unit signal power: sqrt(10^(-snr/10))."""
    return 10.0 ** (-np.asarray(snr_db, dtype=np.float64) / 20.0)


class PowerNormalize(Layer):
    """Scale each row to unit average per-element power: s * sqrt(n_c)/||s||.

    Differentiable; backward applies the exact Jacobian of the (eps-guarded)
    normalization, which projects out the radial component:

        d y / d s = sqrt(n_c) * (I / d - s s^T / (d^2 r)),  d = r + eps

    An all-zero row (r = 0) is sent at zero power and carries no signal, so
    it gets a zero gradient, as ReLU does at its kink. Given an rng,
    forward saves ``(s, r)``, and backward consumes them; it draws nothing
    from the rng.
    """

    def forward(self, s: np.ndarray, rng: Rng | None = None) -> np.ndarray:
        r = np.linalg.norm(s, axis=1, keepdims=True)
        if rng is not None:
            self._saved = s, r
        return s * (math.sqrt(s.shape[1]) / (r + NORM_EPS))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        (s, r), self._saved = self._saved, None
        d = r + NORM_EPS
        root_n = math.sqrt(s.shape[1])
        dot = (s * grad_out).sum(axis=1, keepdims=True)
        grad_in = root_n * (grad_out / d - s * (dot / (d * d * np.maximum(r, NORM_EPS))))
        return np.where(r == 0, 0.0, grad_in)


def sample_realization(kind: str, snr_db, n_samples: int, n_c: int,
                       rng: Rng, dtype=np.float32, link: int = 0, start: int = 0,
                       domain: int = EVAL) -> Transmission:
    """Draw one (gain, noise) realization per transmission in the batch,
    as the transmission that applies it.

    ``snr_db`` may be a scalar or a per-sample vector (class-dependent
    sensing SNRs). Row ``i`` is sample ``start + i`` of ``link`` in
    ``domain``: its ``n_c + 2`` keyed normals (:meth:`Rng.keyed_normals`)
    give the Rayleigh gain from the first two and the noise from the rest,
    so a sample's realization does not depend on its batch, and AWGN and
    Rayleigh share their noise.
    """
    if kind not in CHANNEL_KINDS:
        raise ConfigError(f"unknown channel kind {kind!r}")
    z = rng.keyed_normals(domain, link, start, (n_samples, n_c + 2))
    if kind == "awgn":
        gain = np.ones(n_samples, dtype=dtype)
    else:
        gain = (np.sqrt(z[:, 0] ** 2 + z[:, 1] ** 2) / np.sqrt(2.0)).astype(dtype)
    sigma = np.broadcast_to(np.asarray(noise_std(snr_db)), (n_samples,))
    noise = (z[:, 2:] * sigma[:, None]).astype(dtype)
    return Transmission(gain, noise)


@dataclass
class Transmission:
    """Applies y = h*s + n for one sampled realization; backward is h * grad.
    ``gain`` is (N,), ``noise`` is (N, n_c)."""
    gain: np.ndarray
    noise: np.ndarray

    def forward(self, s: np.ndarray) -> np.ndarray:
        return self.gain[:, None] * s + self.noise

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self.gain[:, None] * grad_out

