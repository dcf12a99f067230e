"""CIFAR-10 ingestion and the vehicles-vs-animals relabeling.

Reads the public binary distribution: five training files plus one test
file, each exactly 10,000 records of 3,073 bytes (1 label byte, then 3,072
pixel bytes channel-planar R, G, B, row-major within each plane).
Loading checks every file and reads only the labels. A split holds no
pixel bytes: each batch reads just its own records, so a command holds
only the batch it works on. A batch leaves a split in the form the
network takes: C-contiguous channels-last float32 images in [0, 1] and
int64 labels, 1 for vehicle and 0 for animal.

The ten original classes collapse to two: airplane, automobile, ship and
truck become "vehicle" (label 1, a potential transmitter); the six animal
classes become "animal" (label 0).
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Records:
    """The pixels of the first ``n`` records of a split's batch ``files``:
    ``records[idx]``, by int, slice or index array, reads exactly the
    records at ``idx`` and gives their bytes as an array of the whole
    split would, uint8 (..., 32, 32, 3) over channel-planar memory. It
    holds no bytes and no open file, so threads share it."""
    files: tuple[str, ...]
    n: int

    def __getitem__(self, idx) -> np.ndarray:
        rows = np.arange(self.n)[idx]
        flat = rows.reshape(-1)
        records = np.empty(flat.size, dtype=RECORD)
        # one read per run of consecutive records in one file; one open per file
        starts = np.flatnonzero((np.diff(flat, prepend=-1) != 1)
                                | (flat % RECORDS_PER_FILE == 0))
        with ExitStack() as stack:
            opened = {file: stack.enter_context(_open(self.files[file]))
                      for file in set((flat[starts] // RECORDS_PER_FILE).tolist())}
            for lo, hi in zip(starts, np.append(starts[1:], flat.size)):
                file, first = divmod(int(flat[lo]), RECORDS_PER_FILE)
                _read_records(opened[file], first, records[lo:hi])
        return records["pixels"].transpose(0, 2, 3, 1).reshape(
            rows.shape + (32, 32, 3))


class Split:
    """One dataset split: ``label2`` (N,) int64, vehicle=1 / animal=0, and
    ``pixels``, the ``Records`` reader of its N records' raw bytes."""

    def __init__(self, pixels: Records, label2: np.ndarray):
        self.pixels = pixels
        self.label2 = label2

    @property
    def n(self) -> int:
        return self.label2.shape[0]

    def images(self, idx=slice(None)) -> np.ndarray:
        """The samples at ``idx``, read from their records, as a C-contiguous
        float32 batch in [0, 1]. The division is in float32, so a batch
        holds bitwise the values that converting the whole corpus with
        ``astype(np.float32) / 255.0`` would give."""
        return np.divide(self.pixels[idx], 255.0, dtype=np.float32, order="C")

    def subset(self, limit: int | None) -> "Split":
        """The first ``limit`` samples, reading none; the split itself when
        it has no more."""
        if limit is None or limit >= self.n:
            return self
        return Split(replace(self.pixels, n=limit), self.label2[:limit])


@dataclass
class Dataset:
    train: Split
    test: Split


def _open(path: str):
    """``path`` opened for reads; CorruptDatasetError if it cannot be."""
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise CorruptDatasetError(f"{path}: {exc.strerror}") from None


def _read_records(fh, first: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, a RECORD array, with the records of the open batch
    file ``fh`` from record ``first`` on, in one positional read, and
    return it. A read that fails or ends early raises CorruptDatasetError."""
    try:
        got = os.preadv(fh.fileno(), [out.view(np.uint8)], first * RECORD_BYTES)
    except OSError as exc:
        raise CorruptDatasetError(f"{fh.name}: {exc.strerror}") from None
    if got != out.nbytes:
        raise CorruptDatasetError(f"{fh.name}: truncated since it was loaded")
    return out


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
    """The vehicle/animal labels of a batch file, read a block of records
    at a time from one open of the file, after checking its label bytes."""
    label10 = np.empty(RECORDS_PER_FILE, dtype=np.uint8)
    block = np.empty(BLOCK_RECORDS, dtype=RECORD)
    with _open(path) as fh:
        for first in range(0, RECORDS_PER_FILE, BLOCK_RECORDS):
            label10[first:first + BLOCK_RECORDS] = _read_records(fh, first, block)["label"]
    if label10.max() > 9:
        raise CorruptDatasetError(f"{path}: label byte > 9")
    return relabel_binary_array(label10)


def load_cifar10(directory: str) -> Dataset:
    """Check the six binary batch files in ``directory`` and read their
    labels, preserving the on-disk sample order; batches read the pixels."""
    def split(names):
        files = tuple(os.path.join(directory, f) for f in names)
        label2 = np.concatenate([_read_labels(f) for f in files])
        return Split(Records(files, label2.shape[0]), label2)

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
