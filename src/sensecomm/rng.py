"""Seeded random streams with a strict reproducibility contract.

Weight init, shuffling and dropout masks draw from ``Rng`` streams.
Identical seeds give identical draw sequences; ``split`` derives
independent child streams deterministically, so two runs with the same
seed are bitwise reproducible regardless of how the streams are consumed
relative to each other. Channel realizations are not drawn in turn but
keyed by sample: see :meth:`Rng.keyed_normals`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import SeedSequence

TRAIN, EVAL = 0, 1


@lru_cache
def _philox_key(entropy: int, domain: int, link: int) -> np.ndarray:
    """The Philox key of one (seed, domain, link) stream. Every batch of
    the stream needs it, and a ``SeedSequence`` is slow to derive it."""
    return SeedSequence([entropy, domain, link]).generate_state(2, np.uint64)


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

    def keyed_normals(self, domain: int, link: int, start: int,
                      shape: tuple[int, int]) -> np.ndarray:
        """Normals for samples ``start`` to ``start + n`` of one link, row
        ``i`` for sample ``start + i``, keyed by this stream's seed,
        ``domain`` (``TRAIN`` or ``EVAL``) and ``link``, and by nothing
        else. Philox under that key gives each sample ``w`` words, rounded
        up to whole four-word blocks, and Box-Muller turns them into
        normals. A ``split`` child shares its root's seed, so it raises."""
        if self._seq.spawn_key:
            raise ValueError("keyed normals need a root Rng, not a split child")
        n, w = shape
        k = -(-w // 4) * 4  # words per sample, whole Philox blocks
        bits = np.random.Philox(key=_philox_key(self._seq.entropy, domain, link))
        bits.advance(start * k // 4)
        u = np.random.Generator(bits).random((n, k // 2, 2))
        r = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
        t = (2.0 * np.pi) * u[..., 1]
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(n, k)[:, :w]
