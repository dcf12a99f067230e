"""CIFAR-10 ingestion and the vehicles-vs-animals relabeling.

Reads the public binary distribution: five training files plus one test
file, each exactly 10,000 records of 3,073 bytes (1 label byte, then 3,072
pixel bytes channel-planar R, G, B, row-major within each plane). Pixels
stay resident as those bytes. A batch leaves a split in the form the
network takes: C-contiguous channels-last float32 images in [0, 1] and
int64 labels, 1 for vehicle and 0 for animal.

The ten original classes collapse to two: airplane, automobile, ship and
truck become "vehicle" (label 1, a potential transmitter); the six animal
classes become "animal" (label 0).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CorruptDatasetError
from .rng import Rng

TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
TEST_FILE = "test_batch.bin"
RECORDS_PER_FILE = 10_000
RECORD_BYTES = 3073
IMAGE_SHAPE = (32, 32, 3)
SOURCE_DIM = 32 * 32 * 3

VEHICLE_CLASSES = frozenset({0, 1, 8, 9})  # airplane, automobile, ship, truck


def relabel_binary_array(label10: np.ndarray) -> np.ndarray:
    return np.isin(label10, list(VEHICLE_CLASSES)).astype(np.int64)


@dataclass
class Split:
    """One dataset split as parallel arrays."""
    pixels: np.ndarray   # (N, 32, 32, 3) uint8, the raw bytes
    label2: np.ndarray   # (N,) int64, vehicle=1 / animal=0

    @property
    def n(self) -> int:
        return self.pixels.shape[0]

    def images(self, idx=slice(None)) -> np.ndarray:
        """The samples at ``idx`` as a C-contiguous float32 batch in [0, 1],
        whatever the layout of ``pixels``. The division is in float32, so a
        batch holds bitwise the values that converting the whole corpus with
        ``astype(np.float32) / 255.0`` would give."""
        return np.divide(self.pixels[idx], 255.0, dtype=np.float32, order="C")

    def subset(self, limit: int | None) -> "Split":
        if limit is None or limit >= self.n:
            return self
        return Split(self.pixels[:limit], self.label2[:limit])


@dataclass
class Dataset:
    train: Split
    test: Split


def _read_batch_file(path: str) -> tuple[np.ndarray, np.ndarray]:
    if not os.path.isfile(path):
        raise CorruptDatasetError(f"missing dataset file: {path}")
    expected = RECORDS_PER_FILE * RECORD_BYTES
    size = os.path.getsize(path)
    if size != expected:
        raise CorruptDatasetError(
            f"{path}: expected {expected} bytes, found {size}")
    raw = np.fromfile(path, dtype=np.uint8).reshape(RECORDS_PER_FILE, RECORD_BYTES)
    labels = raw[:, 0].astype(np.int64)
    if labels.max() > 9:
        raise CorruptDatasetError(f"{path}: label byte > 9")
    # channel-planar (3, 32, 32) -> channels-last (32, 32, 3)
    pixels = raw[:, 1:].reshape(RECORDS_PER_FILE, 3, 32, 32).transpose(0, 2, 3, 1)
    return pixels, labels


def _build_split(files: list[str]) -> Split:
    # Filled one file at a time, so loading peaks at the split plus one
    # file. The memory stays channel-planar as on disk, which makes each
    # fill a plain copy; ``Split.images`` hands batches out in C order.
    n = RECORDS_PER_FILE
    pixels = np.empty((len(files) * n, 3, 32, 32), dtype=np.uint8).transpose(0, 2, 3, 1)
    label2 = np.empty(len(files) * n, dtype=np.int64)
    for i, path in enumerate(files):
        rows = slice(i * n, (i + 1) * n)
        pixels[rows], label10 = _read_batch_file(path)
        label2[rows] = relabel_binary_array(label10)
    return Split(pixels=pixels, label2=label2)


def load_cifar10(directory: str) -> Dataset:
    """Load the six binary batch files from ``directory``, preserving the
    on-disk sample order."""
    train = _build_split([os.path.join(directory, f) for f in TRAIN_FILES])
    test = _build_split([os.path.join(directory, TEST_FILE)])
    return Dataset(train=train, test=test)


def batch_indices(n: int, batch_size: int, shuffle: bool = False,
                  rng: Rng | None = None) -> Iterator[np.ndarray]:
    """Yield index arrays covering 0..n-1 exactly once; the final partial
    batch is kept so every sample is visited each epoch."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def synthetic_dataset(n_train: int, n_test: int, seed: int = 0) -> Dataset:
    """Procedurally generated stand-in with the real dataset's shape and the
    same 40/60 vehicle/animal prior.

    Vehicle images are low-pass textures (box-blurred noise), animal images
    are raw high-frequency noise, so the two classes are separable by a
    small convolutional encoder. Pixels are rounded to bytes, as on disk.
    Useful for smoke tests and demos when the real corpus is not on disk;
    accuracy numbers on it are not comparable to the real dataset.
    """
    rng = Rng(seed)

    def make(n):
        labels2 = (rng.uniform(size=n) < 0.4).astype(np.int64)
        imgs = rng.uniform(size=(n, 32, 32, 3)).astype(np.float32)
        kernel = np.ones((5, 5), dtype=np.float32) / 25.0
        for i in np.nonzero(labels2)[0]:
            for c in range(3):
                img = imgs[i, :, :, c]
                padded = np.pad(img, 2, mode="edge")
                win = np.lib.stride_tricks.sliding_window_view(padded, (5, 5))
                imgs[i, :, :, c] = (win * kernel).sum(axis=(2, 3))
        return Split(pixels=np.rint(imgs * 255).astype(np.uint8), label2=labels2)

    return Dataset(train=make(n_train), test=make(n_test))
