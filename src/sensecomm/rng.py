"""Seeded random streams with a strict reproducibility contract.

Every source of randomness (weight init, shuffling, dropout masks, channel
realizations) pulls from an ``Rng``. Identical seeds give identical draw
sequences; ``split`` derives independent child streams deterministically, so
two runs with the same seed are bitwise reproducible regardless of how the
streams are consumed relative to each other.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SeedSequence


class Rng:
    """Thin wrapper around ``numpy.random.Generator``, keyed by a seed."""

    def __init__(self, seed: int | SeedSequence):
        self._seq = seed if isinstance(seed, SeedSequence) else SeedSequence(int(seed))
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list["Rng"]:
        """Derive ``n`` independent child streams. Repeated calls keep spawning
        fresh children; the sequence depends only on the seed and call order."""
        return [Rng(s) for s in self._seq.spawn(n)]

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
