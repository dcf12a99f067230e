import json
import os
import threading

import numpy as np
import pytest

from sensecomm.dataset import (
    RECORD,
    RECORD_BYTES,
    RECORDS_PER_FILE,
    TEST_FILE,
    TRAIN_FILES,
    Dataset,
    load_cifar10,
)
from sensecomm.rng import Rng

_ACCEPTANCE_RESULTS: list[tuple[str, str, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    if rep.when == "call" or (rep.when == "setup" and rep.skipped):
        doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
        reason = ""
        if rep.skipped and rep.longrepr:
            reason = f"  ({rep.longrepr[2].removeprefix('Skipped: ')})"
        _ACCEPTANCE_RESULTS.append((doc, rep.outcome.upper(), reason))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for doc, outcome, reason in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"  [{outcome:7s}] {doc}{reason}")

# Real-corpus location for the reproduction criteria: either the env var or
# a data/ directory next to the repository root.
REAL_DATA_ENV = "CIFAR10_DATA_DIR"
REAL_DATA_DEFAULT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                 "data", "cifar-10-batches-bin")


def real_data_dir() -> str | None:
    path = os.environ.get(REAL_DATA_ENV, REAL_DATA_DEFAULT)
    if all(os.path.isfile(os.path.join(path, f)) for f in TRAIN_FILES + [TEST_FILE]):
        return path
    return None


def write_batch_file(path, labels: np.ndarray, pixels: np.ndarray):
    """Write records in the binary batch layout: label byte + 3072 pixel
    bytes (channel-planar)."""
    n = labels.shape[0]
    rec = np.empty((n, RECORD_BYTES), dtype=np.uint8)
    rec[:, 0] = labels
    rec[:, 1:] = pixels.reshape(n, -1)
    rec.tofile(path)


@pytest.fixture(scope="session")
def fake_cifar_dir(tmp_path_factory):
    """A directory of valid-format batch files with random contents."""
    root = tmp_path_factory.mktemp("cifar_bin")
    gen = np.random.default_rng(2024)
    for fname in TRAIN_FILES + [TEST_FILE]:
        labels = gen.integers(0, 10, RECORDS_PER_FILE, dtype=np.uint8)
        pixels = gen.integers(0, 256, (RECORDS_PER_FILE, 3072), dtype=np.uint8)
        write_batch_file(root / fname, labels, pixels)
    return root


@pytest.fixture(scope="session")
def fake_dataset(fake_cifar_dir):
    """The fixture directory parsed once for tests that only inspect it."""
    from sensecomm.dataset import load_cifar10

    return load_cifar10(fake_cifar_dir)


def synthetic_splits(n_train: int, n_test: int, seed: int = 0):
    """Procedurally generated stand-in with the real dataset's shape and the
    same 40/60 vehicle/animal prior, as (pixels, label2) per split.

    Vehicle images are low-pass textures (box-blurred noise), animal images
    are raw high-frequency noise, so the two classes are separable by a
    small convolutional encoder. Pixels are rounded to bytes, as on disk.
    Accuracy numbers on it are not comparable to the real dataset.
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
        return np.rint(imgs * 255).astype(np.uint8), labels2

    return make(n_train), make(n_test)


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    """Call the fixture with (n_train, n_test, seed) for the stand-in
    corpus of ``synthetic_splits`` as ``load_cifar10`` reads it: the
    records are written once per session into six batch files of full
    size, vehicles as label byte 0 (airplane) and animals as 2 (bird), the
    rest of each file left a hole, and each split is cut to its size."""
    corpora = {}

    def corpus(n_train: int, n_test: int, seed: int = 0) -> Dataset:
        key = (n_train, n_test, seed)
        if key not in corpora:
            root = tmp_path_factory.mktemp("synthetic")
            for files, (pixels, label2) in zip((TRAIN_FILES, [TEST_FILE]),
                                               synthetic_splits(*key)):
                records = np.empty(len(label2), dtype=RECORD)
                records["label"] = np.where(label2 == 1, 0, 2)
                records["pixels"] = pixels.transpose(0, 3, 1, 2)
                for i, name in enumerate(files):
                    with open(root / name, "wb") as fh:
                        records[i * RECORDS_PER_FILE:
                                (i + 1) * RECORDS_PER_FILE].tofile(fh)
                        fh.truncate(RECORDS_PER_FILE * RECORD_BYTES)
            ds = load_cifar10(root)
            corpora[key] = Dataset(ds.train.subset(n_train), ds.test.subset(n_test))
        return corpora[key]

    return corpus


def link_corpus(src, dst):
    """Symlink the six batch files of ``src`` into ``dst``, so that a test
    can remove some of them without touching ``src``."""
    for fname in TRAIN_FILES + [TEST_FILE]:
        os.symlink(src / fname, dst / fname)


def bounded(call):
    """Return ``call()``, made on a thread of its own named "caller", so
    that a call that hangs fails the test after 10 s instead of blocking
    the suite. What the call raises is raised again here."""
    done = []

    def run():
        try:
            done.append((call(), None))
        except BaseException as exc:
            done.append((None, exc))

    caller = threading.Thread(target=run, name="caller", daemon=True)
    caller.start()
    caller.join(10)
    assert not caller.is_alive(), "the call hangs"
    result, exc = done[0]
    if exc is not None:
        raise exc
    return result


@pytest.fixture
def pixel_reads(monkeypatch, tmp_path_factory):
    """Records every read of records for their pixels, in this process or
    a child, as (pid, thread id, file name, first record, record count);
    the reads of labels at load are left out. Call the fixture for the
    list."""
    from sensecomm import dataset

    log = tmp_path_factory.mktemp("reads") / "pixel_reads.jsonl"
    real_records, real_labels = dataset._read_records, dataset._read_labels
    loading = []  # holds a path while its labels are read

    def read_labels(path):
        loading.append(path)
        try:
            return real_labels(path)
        finally:
            loading.pop()

    def spy(batch_file, first, out):
        if not loading:
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps([os.getpid(), threading.get_ident(),
                                     os.path.basename(batch_file.name), first,
                                     len(out)]) + "\n")
        return real_records(batch_file, first, out)

    monkeypatch.setattr(dataset, "_read_labels", read_labels)
    monkeypatch.setattr(dataset, "_read_records", spy)
    return lambda: ([tuple(json.loads(line)) for line in log.read_text().splitlines()]
                    if log.exists() else [])


@pytest.fixture
def fail_writes_midway(monkeypatch):
    """Call the fixture to make every later file write of ``models`` and
    ``harness``, where checkpoints and reports are written, put half its
    bytes on disk, then raise as a full disk would; the first ``intact``
    files opened after the call are written whole."""
    from sensecomm import harness, models

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def arm(intact=0):
        opened = []

        def half_open(*args, **kwargs):
            opened.append(args[0])
            fh = open(*args, **kwargs)
            return fh if len(opened) <= intact else HalfWriter(fh)

        for module in (models, harness):
            monkeypatch.setattr(module, "open", half_open, raising=False)

    return arm
