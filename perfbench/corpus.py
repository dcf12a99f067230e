"""Seeded CIFAR-10-format corpus owned by the benchmark.

The package under test ships its own synthetic stand-in, but a change to the
package could then change the benchmark's inputs. This generator lives with
the benchmark and depends on numpy only, so the inputs for a seed stay the
same across every commit the benchmark measures.

It writes the six files of the CIFAR-10 binary distribution
(``data_batch_1.bin`` .. ``data_batch_5.bin``, ``test_batch.bin``), each
10,000 records of one label byte plus 3,072 channel-planar pixel bytes. The
ten labels are drawn uniformly, so 40% of the images are vehicles (classes
0, 1, 8, 9), as in the real corpus. Vehicles are bright, mostly smooth
textures (coarse noise upsampled by bilinear interpolation); animals are
dark, mostly fine-grained noise. The classes are easy on purpose: one epoch
of 40 steps at batch 64 takes every seed the benchmark was tried on well
above chance, so a change that breaks learning shows as a failed check.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np

TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
TEST_FILE = "test_batch.bin"
RECORDS_PER_FILE = 10_000
RECORD_BYTES = 3073
VEHICLE_CLASSES = (0, 1, 8, 9)
COARSE = 8       # side of the coarse grid a smooth texture is upsampled from
BRIGHTNESS = 0.35  # added to vehicles, subtracted from animals
CHUNK = 2_000    # records generated at once; bounds the generator's memory
KEEP_SEEDS = 3   # corpora kept in the cache; older ones are deleted


def _upsample_matrix(coarse: int, fine: int) -> np.ndarray:
    """(fine, coarse) bilinear interpolation weights, edge-clamped."""
    pos = (np.arange(fine) + 0.5) * coarse / fine - 0.5
    lo = np.clip(np.floor(pos).astype(int), 0, coarse - 1)
    hi = np.clip(lo + 1, 0, coarse - 1)
    frac = np.clip(pos - np.floor(pos), 0.0, 1.0)
    m = np.zeros((fine, coarse))
    m[np.arange(fine), lo] += 1.0 - frac
    m[np.arange(fine), hi] += frac
    return m


def make_records(gen: np.random.Generator, n: int) -> np.ndarray:
    """``n`` records of label byte + channel-planar pixels, as uint8."""
    labels = gen.integers(0, 10, n)
    vehicle = np.isin(labels, VEHICLE_CLASSES)
    up = _upsample_matrix(COARSE, 32).astype(np.float32)
    coarse = gen.random((n, 3, COARSE, COARSE), dtype=np.float32)
    img = np.matmul(np.matmul(up, coarse), up.T)  # (n, 3, 32, 32), smooth
    w = np.where(vehicle, 0.8, 0.3).astype(np.float32)[:, None, None, None]
    img *= w
    img += (1.0 - w) * gen.random((n, 3, 32, 32), dtype=np.float32)
    img += np.where(vehicle, BRIGHTNESS, -BRIGHTNESS).astype(np.float32)[:, None, None, None]
    np.clip(img, 0.0, 1.0, out=img)
    img *= 255.0
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = np.rint(img, out=img).reshape(n, -1)
    return rec


def corpus_dir(cache: str, seed: int) -> str:
    """Directory holding the six files for ``seed``, written on first use.

    The name carries a digest of this file, so a changed generator never
    reuses an old corpus. Files are written into a temporary directory and
    renamed into place, so an interrupted run leaves no partial corpus.
    """
    with open(__file__, "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    final = os.path.join(cache, f"corpus-{seed}-{version}")
    if os.path.isdir(final):
        os.utime(final)
        return final
    os.makedirs(cache, exist_ok=True)
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    gen = np.random.default_rng([seed, 0xC1FA])
    for fname in TRAIN_FILES + [TEST_FILE]:
        with open(os.path.join(tmp, fname), "wb") as fh:
            for _ in range(RECORDS_PER_FILE // CHUNK):
                make_records(gen, CHUNK).tofile(fh)
    os.rename(tmp, final)
    _evict(cache)
    return final


def _evict(cache: str):
    """Keep the ``KEEP_SEEDS`` most recently used corpora (184 MB each)."""
    dirs = [os.path.join(cache, d) for d in os.listdir(cache)
            if d.startswith("corpus-") and ".tmp" not in d]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for old in dirs[KEEP_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
