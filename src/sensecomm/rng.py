"""Seeded random streams with a strict reproducibility contract.

Every source of randomness (weight init, shuffling, dropout masks, channel
realizations) pulls from an ``Rng``. Identical seeds give identical draw
sequences; ``split`` derives independent child streams deterministically, so
two runs with the same seed are bitwise reproducible regardless of how the
streams are consumed relative to each other.
"""

from __future__ import annotations

import numpy as np


class Rng:
    """Thin wrapper around ``numpy.random.Generator`` keyed by an integer seed."""

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list["Rng"]:
        """Derive ``n`` independent child streams. Repeated calls keep spawning
        fresh children; the sequence depends only on the seed and call order."""
        return [Rng(self.seed, _seq=s) for s in self._seq.spawn(n)]

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"
