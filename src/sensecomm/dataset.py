"""CIFAR-10 ingestion and the vehicles-vs-animals relabeling.

Reads the public binary distribution: five training files plus one test
file, each exactly 10,000 records of 3,073 bytes (1 label byte, then 3,072
pixel bytes channel-planar R, G, B, row-major within each plane).
Loading checks every file and reads only the labels. A split reads its
pixel bytes on first use, and a subset of an unread split reads only the
records it keeps, so a command holds in memory only the records it uses,
as those bytes. Files are read in blocks of records, never whole. A
batch leaves a split in the form the network takes: C-contiguous
channels-last float32 images in [0, 1] and int64 labels, 1 for vehicle
and 0 for animal.

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
SOURCE_DIM = 32 * 32 * 3
RECORD = np.dtype([("label", np.uint8), ("pixels", np.uint8, (3, 32, 32))])
BLOCK_RECORDS = 500  # ~1.5 MB a read; larger blocks measured slower

VEHICLE_CLASSES = frozenset({0, 1, 8, 9})  # airplane, automobile, ship, truck


def relabel_binary_array(label10: np.ndarray) -> np.ndarray:
    return np.isin(label10, list(VEHICLE_CLASSES)).astype(np.int64)


class Split:
    """One dataset split as parallel arrays: ``label2`` (N,) int64, vehicle=1
    / animal=0, and ``pixels`` (N, 32, 32, 3) uint8, the raw bytes.

    A split built from arrays holds them. A split that ``load_cifar10``
    builds holds its labels and the paths of its batch ``files``, and reads
    its pixel bytes on first use of ``pixels`` or ``images``. ``subset`` of
    an unread split reads only the records it keeps."""

    def __init__(self, pixels: np.ndarray | None, label2: np.ndarray,
                 files: tuple[str, ...] = ()):
        self._pixels = pixels
        self.label2 = label2
        self.files = files

    @property
    def pixels(self) -> np.ndarray:
        if self._pixels is None:
            self._pixels = _read_pixels(self.files, self.n)
        return self._pixels

    @property
    def n(self) -> int:
        return self.label2.shape[0]

    def images(self, idx=slice(None)) -> np.ndarray:
        """The samples at ``idx`` as a C-contiguous float32 batch in [0, 1],
        whatever the layout of ``pixels``. The division is in float32, so a
        batch holds bitwise the values that converting the whole corpus with
        ``astype(np.float32) / 255.0`` would give."""
        return np.divide(self.pixels[idx], 255.0, dtype=np.float32, order="C")

    def subset(self, limit: int | None) -> "Split":
        """The first ``limit`` samples, in memory; the split itself when it
        has no more."""
        if limit is None or limit >= self.n:
            return self
        pixels = (_read_pixels(self.files, limit) if self._pixels is None
                  else self._pixels[:limit])
        return Split(pixels, self.label2[:limit])


@dataclass
class Dataset:
    train: Split
    test: Split


def _blocks(path: str, count: int) -> Iterator[np.ndarray]:
    """The first ``count`` records of a batch file as ``RECORD`` arrays of
    up to ``BLOCK_RECORDS`` each, read in turn from one open file, so a
    read holds one block of the file at a time. A file that cannot be
    read, or ends early, raises CorruptDatasetError."""
    try:
        with open(path, "rb") as fh:
            for start in range(0, count, BLOCK_RECORDS):
                k = min(BLOCK_RECORDS, count - start)
                block = np.fromfile(fh, dtype=RECORD, count=k)
                if block.size != k:
                    raise CorruptDatasetError(
                        f"{path}: truncated since it was loaded")
                yield block
    except OSError as exc:
        raise CorruptDatasetError(f"{path}: {exc.strerror}") from None


def check_corpus(directory: str):
    """Check that the six batch files are in ``directory`` at their full
    size, without reading them; raise CorruptDatasetError if not."""
    expected = RECORDS_PER_FILE * RECORD_BYTES
    for name in TRAIN_FILES + [TEST_FILE]:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            raise CorruptDatasetError(f"missing dataset file: {path}")
        size = os.path.getsize(path)
        if size != expected:
            raise CorruptDatasetError(f"{path}: expected {expected} bytes, found {size}")


def _read_labels(path: str) -> np.ndarray:
    """The vehicle/animal labels of a batch file, after checking its label bytes."""
    # a copy: a view of the labels would keep its whole block alive
    label10 = np.concatenate([block["label"].copy()
                              for block in _blocks(path, RECORDS_PER_FILE)])
    if label10.max() > 9:
        raise CorruptDatasetError(f"{path}: label byte > 9")
    return relabel_binary_array(label10)


def _read_pixels(files: tuple[str, ...], count: int) -> np.ndarray:
    """The pixel bytes of the first ``count`` records of ``files``, as
    (count, 32, 32, 3) over channel-planar memory. Only the files holding
    those records are read, the last of them only up to its ``count``-th
    record, so reading peaks at the pixels plus one block. Each fill is a
    plain copy; ``Split.images`` hands batches out in C order."""
    planar = np.empty((count, 3, 32, 32), dtype=np.uint8)
    at = 0
    for first, path in zip(range(0, count, RECORDS_PER_FILE), files):
        for block in _blocks(path, min(RECORDS_PER_FILE, count - first)):
            planar[at:at + block.size] = block["pixels"]
            at += block.size
    return planar.transpose(0, 2, 3, 1)


def load_cifar10(directory: str) -> Dataset:
    """Check the six binary batch files in ``directory`` and read their
    labels, preserving the on-disk sample order. Pixels are read when first
    used (see ``Split``)."""
    def split(names):
        files = tuple(os.path.join(directory, f) for f in names)
        return Split(None, np.concatenate([_read_labels(f) for f in files]), files)

    check_corpus(directory)
    return Dataset(train=split(TRAIN_FILES), test=split([TEST_FILE]))


def batch_indices(n: int, batch_size: int,
                  rng: Rng | None = None) -> Iterator[np.ndarray]:
    """Yield index arrays covering 0..n-1 exactly once, in an order drawn
    from ``rng`` when one is given and in disk order otherwise; the final
    partial batch is kept so every sample is visited each epoch."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(n) if rng is None else rng.permutation(n)
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
