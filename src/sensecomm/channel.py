"""Differentiable channel layer.

Signals are real-valued vectors of length ``n_c``, batched as ``(N, n_c)``.
A transmission multiplies the signal by a scalar gain and adds white
Gaussian noise:

    y = h * s + n,    n_i ~ Normal(0, sigma^2) i.i.d.

AWGN fixes h = 1. Rayleigh draws one flat gain per transmission,
h = sqrt(a^2 + b^2) / sqrt(2) with a, b standard normal, so E[h^2] = 1 and
the configured SNR holds on average. No equalization is applied at the
receiver; robustness to fading is left to the learned decoder.

Signal power is pinned to 1 per element by :class:`PowerNormalize` before
every transmission, which makes sigma = 10^(-snr_db / 20) the correct noise
scale for a given SNR. :func:`sample_realization` draws one realization
(h, n) per sample and returns it as a :class:`Transmission`, whose backward
treats it as a constant, so the input gradient is just h times the
upstream gradient.

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
from .rng import Rng

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


class PowerNormalize:
    """Scale each row to unit average per-element power: s * sqrt(n_c)/||s||.

    Differentiable; backward applies the exact Jacobian of the (eps-guarded)
    normalization, which projects out the radial component:

        d y / d s = sqrt(n_c) * (I / d - s s^T / (d^2 r)),  d = r + eps
    """

    def __init__(self):
        self._s: np.ndarray | None = None
        self._r: np.ndarray | None = None

    def forward(self, s: np.ndarray) -> np.ndarray:
        r = np.linalg.norm(s, axis=1, keepdims=True)
        self._s, self._r = s, r
        return s * (math.sqrt(s.shape[1]) / (r + NORM_EPS))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        s, r = self._s, self._r
        d = r + NORM_EPS
        root_n = math.sqrt(s.shape[1])
        dot = (s * grad_out).sum(axis=1, keepdims=True)
        return root_n * (grad_out / d - s * (dot / (d * d * np.maximum(r, NORM_EPS))))


def sample_realization(kind: str, snr_db, n_samples: int, n_c: int,
                       rng: Rng, dtype=np.float32) -> Transmission:
    """Draw one (gain, noise) realization per transmission in the batch,
    as the transmission that applies it.

    ``snr_db`` may be a scalar or a per-sample vector (class-dependent
    sensing SNRs). AWGN draws only the (N, n_c) noise normals. Rayleigh
    first draws (N, 2) gain normals, then the noise, so the same ``rng``
    gives the two kinds different noise.
    """
    if kind == "awgn":
        gain = np.ones(n_samples, dtype=dtype)
    elif kind == "rayleigh":
        ab = rng.standard_normal((n_samples, 2))
        gain = (np.sqrt(ab[:, 0] ** 2 + ab[:, 1] ** 2) / np.sqrt(2.0)).astype(dtype)
    else:
        raise ConfigError(f"unknown channel kind {kind!r}")
    sigma = np.broadcast_to(np.asarray(noise_std(snr_db)), (n_samples,))
    noise = (rng.standard_normal((n_samples, n_c)) * sigma[:, None]).astype(dtype)
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

