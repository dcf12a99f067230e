import tracemalloc

import numpy as np
import pytest

from conftest import link_corpus, write_batch_file
from sensecomm.dataset import (
    RECORD_BYTES,
    RECORDS_PER_FILE,
    TEST_FILE,
    TRAIN_FILES,
    VEHICLE_CLASSES,
    batch_indices,
    load_cifar10,
    relabel_binary_array,
)
from sensecomm.errors import CorruptDatasetError
from sensecomm.rng import Rng


class TestLoader:
    def test_split_sizes(self, fake_dataset):
        assert fake_dataset.train.n == 50_000
        assert fake_dataset.test.n == 10_000

    def test_pixel_normalization_and_planar_layout(self, tmp_path):
        labels = np.zeros(RECORDS_PER_FILE, dtype=np.uint8)
        pixels = np.zeros((RECORDS_PER_FILE, 3072), dtype=np.uint8)
        pixels[0, 0] = 255              # red plane, pixel (0,0) of record 0
        pixels[0, 1024] = 255           # first green byte -> pixel (0,0) channel 1
        pixels[0, 2 * 1024 + 33] = 255  # blue plane, row 1 col 1
        for f in TRAIN_FILES + [TEST_FILE]:
            write_batch_file(tmp_path / f, labels, pixels)
        ds = load_cifar10(tmp_path)
        assert ds.train.pixels[:1].dtype == np.uint8
        images = ds.train.images()
        assert images[0, 0, 0, 0] == 1.0
        assert images[0, 0, 0, 1] == 1.0
        assert images[0, 1, 1, 2] == 1.0
        assert images[0, 0, 1, 0] == 0.0
        assert images.dtype == np.float32
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_deterministic_order(self, fake_cifar_dir, fake_dataset):
        again = load_cifar10(fake_cifar_dir)
        assert np.array_equal(again.train.label2, fake_dataset.train.label2)
        assert np.array_equal(again.test.pixels[0], fake_dataset.test.pixels[0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptDatasetError, match="missing"):
            load_cifar10(tmp_path)

    def test_truncated_file(self, tmp_path, fake_cifar_dir):
        for f in TRAIN_FILES + [TEST_FILE]:
            (tmp_path / f).write_bytes((fake_cifar_dir / f).read_bytes())
        blob = (tmp_path / TRAIN_FILES[0]).read_bytes()
        (tmp_path / TRAIN_FILES[0]).write_bytes(blob[:-1])
        with pytest.raises(CorruptDatasetError, match="bytes"):
            load_cifar10(tmp_path)

    def test_bad_label_byte(self, tmp_path):
        labels = np.zeros(RECORDS_PER_FILE, dtype=np.uint8)
        labels[17] = 10
        pixels = np.zeros((RECORDS_PER_FILE, 3072), dtype=np.uint8)
        for f in TRAIN_FILES + [TEST_FILE]:
            write_batch_file(tmp_path / f, labels, pixels)
        with pytest.raises(CorruptDatasetError, match="label"):
            load_cifar10(tmp_path)

    def test_a_batch_reads_only_its_records(self, fake_cifar_dir, pixel_reads):
        """Loading and taking a subset read no pixel; a batch reads its
        records, one read per run of consecutive records in one file."""
        ds = load_cifar10(fake_cifar_dir)
        train = ds.train.subset(12_345)
        assert train.n == train.pixels.n == 12_345
        assert ds.test.pixels.n == ds.test.n
        assert pixel_reads() == []
        train.images(np.array([3, 4, 5, 9_999, 10_000, 10_001, 7, 7]))
        ds.test.images(slice(256, 512))
        assert [read[2:] for read in pixel_reads()] == [
            (TRAIN_FILES[0], 3, 3), (TRAIN_FILES[0], 9_999, 1),
            (TRAIN_FILES[1], 0, 2), (TRAIN_FILES[0], 7, 1),
            (TRAIN_FILES[0], 7, 1), (TEST_FILE, 256, 256)]

    def test_read_pixels_bitwise_equal_whole_file_read(self, fake_cifar_dir):
        def whole_files(files):
            raw = np.concatenate([np.fromfile(fake_cifar_dir / f, np.uint8)
                                  for f in files]).reshape(-1, RECORD_BYTES)
            return raw[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)

        ds = load_cifar10(fake_cifar_dir)
        train = whole_files(TRAIN_FILES[:2])
        shuffled = Rng(10).permutation(12_345)[:500]
        # a prefix across a file boundary, shuffled records, one record,
        # and a whole split
        for pixels, want in ((ds.train.subset(12_345).pixels[:],
                              train[:12_345]),
                             (ds.train.pixels[shuffled], train[shuffled]),
                             (ds.train.pixels[10_000], train[10_000]),
                             (ds.test.pixels[:], whole_files([TEST_FILE]))):
            assert pixels.dtype == np.uint8
            assert np.array_equal(pixels, want)
            # each record's memory stays channel-planar, as on disk
            planes = pixels.reshape(-1, 32, 32, 3)[-1].transpose(2, 0, 1)
            assert planes.flags["C_CONTIGUOUS"]

    def test_prefix_read_needs_only_the_files_holding_it(self, tmp_path,
                                                         fake_cifar_dir):
        link_corpus(fake_cifar_dir, tmp_path)
        ds = load_cifar10(tmp_path)
        for f in TRAIN_FILES[1:]:
            (tmp_path / f).unlink()
        first = ds.train.subset(RECORDS_PER_FILE)
        assert first.n == RECORDS_PER_FILE
        assert np.array_equal(first.label2, ds.train.label2[:RECORDS_PER_FILE])
        assert first.images().shape == (RECORDS_PER_FILE, 32, 32, 3)
        more = ds.train.subset(RECORDS_PER_FILE + 1)
        with pytest.raises(CorruptDatasetError, match=TRAIN_FILES[1]):
            more.images()

    def test_file_truncated_after_load_fails_at_the_read(self, tmp_path,
                                                         fake_cifar_dir):
        link_corpus(fake_cifar_dir, tmp_path)
        (tmp_path / TEST_FILE).unlink()
        blob = (fake_cifar_dir / TEST_FILE).read_bytes()
        (tmp_path / TEST_FILE).write_bytes(blob)
        test = load_cifar10(tmp_path).test
        (tmp_path / TEST_FILE).write_bytes(blob[:-RECORD_BYTES])
        assert test.images(slice(0, 9_999)).shape == (9_999, 32, 32, 3)
        with pytest.raises(CorruptDatasetError, match="truncated since it was loaded"):
            test.images(slice(9_998, None))

    def test_load_holds_a_block_of_records_not_a_file(self, fake_cifar_dir):
        """Checking the six files and reading their labels allocates the
        480 KB of labels and one block of records at a time, never a
        whole 30 MiB file."""
        tracemalloc.start()
        try:
            load_cifar10(fake_cifar_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_labels_relabelled_consistently(self, fake_cifar_dir, fake_dataset):
        for split, files in ((fake_dataset.train, TRAIN_FILES),
                             (fake_dataset.test, [TEST_FILE])):
            raw = np.concatenate([
                np.fromfile(fake_cifar_dir / f, np.uint8).reshape(-1, RECORD_BYTES)[:, 0]
                for f in files])
            expected = np.isin(raw, list(VEHICLE_CLASSES)).astype(np.int64)
            assert split.label2.dtype == np.int64
            assert np.array_equal(split.label2, expected)


def loaded_test_split(planar, directory, fake_cifar_dir):
    """The loaded test split of the records ``planar``, (n, 3, 32, 32)
    uint8 as on disk, written at the start of an otherwise zero test file
    in ``directory``, beside the training files of ``fake_cifar_dir``."""
    n = len(planar)
    link_corpus(fake_cifar_dir, directory)
    (directory / TEST_FILE).unlink()
    pixels = np.zeros((RECORDS_PER_FILE, 3072), dtype=np.uint8)
    pixels[:n] = planar.reshape(n, -1)
    write_batch_file(directory / TEST_FILE, np.zeros(RECORDS_PER_FILE, np.uint8),
                     pixels)
    return load_cifar10(directory).test.subset(n)


class TestImages:
    def test_batches_bitwise_equal_whole_corpus_conversion(self, tmp_path,
                                                           fake_cifar_dir):
        # one image per byte value, gathered in shuffled batches
        planar = np.empty((256, 3, 32, 32), dtype=np.uint8)
        planar[:] = np.arange(256, dtype=np.uint8)[:, None, None, None]
        split = loaded_test_split(planar, tmp_path, fake_cifar_dir)
        whole = planar.transpose(0, 2, 3, 1).astype(np.float32) / 255.0
        for idx in batch_indices(256, 64, Rng(8)):
            batch = split.images(idx)
            assert batch.dtype == np.float32
            assert np.array_equal(batch.view(np.uint32), whole[idx].view(np.uint32))

    def test_channel_planar_split_gives_c_contiguous_batches(self, tmp_path,
                                                              fake_cifar_dir):
        # a loaded split keeps the on-disk channel-planar memory order
        planar = Rng(9).uniform(0, 256, size=(100, 3, 32, 32)).astype(np.uint8)
        split = loaded_test_split(planar, tmp_path, fake_cifar_dir)
        whole = planar.transpose(0, 2, 3, 1).astype(np.float32) / 255.0
        for idx in (slice(None), slice(10, 42), np.array([99, 3, 3, 50])):
            batch = split.images(idx)
            assert batch.dtype == np.float32
            assert batch.flags["C_CONTIGUOUS"]
            assert np.array_equal(batch.view(np.uint32), whole[idx].view(np.uint32))


class TestRelabel:
    def test_automobile_is_vehicle(self):
        assert relabel_binary_array(np.array([1])).tolist() == [1]

    def test_cat_is_animal(self):
        assert relabel_binary_array(np.array([3])).tolist() == [0]

    def test_map_is_total_and_4_to_6(self):
        labels = np.arange(10)
        binary = relabel_binary_array(labels)
        assert binary.sum() == 4
        assert (binary == 0).sum() == 6

    def test_class_counts_at_full_scale(self):
        # 6,000 images per original class: 4 vehicle classes to 24,000,
        # 6 animal classes to 36,000
        label10 = np.repeat(np.arange(10), 6000)
        binary = relabel_binary_array(label10)
        assert (binary == 1).sum() == 24_000
        assert (binary == 0).sum() == 36_000


class TestBatchIndices:
    def test_782_batches_last_partial(self):
        batches = list(batch_indices(50_000, 64))
        assert len(batches) == 782
        assert len(batches[-1]) == 16
        assert all(len(b) == 64 for b in batches[:-1])

    def test_no_shuffle_is_disk_order(self):
        batches = list(batch_indices(10, 4))
        assert np.array_equal(np.concatenate(batches), np.arange(10))

    def test_same_seed_same_permutation(self):
        a = np.concatenate(list(batch_indices(1000, 64, Rng(5))))
        b = np.concatenate(list(batch_indices(1000, 64, Rng(5))))
        assert np.array_equal(a, b)

    def test_epoch_covers_each_sample_once(self):
        idx = np.concatenate(list(batch_indices(1000, 64, Rng(6))))
        assert np.array_equal(np.sort(idx), np.arange(1000))

    def test_empty_split(self):
        assert list(batch_indices(0, 64)) == []
