import numpy as np
import pytest

from conftest import write_batch_file
from sensecomm.dataset import (
    RECORD_BYTES,
    RECORDS_PER_FILE,
    TEST_FILE,
    TRAIN_FILES,
    VEHICLE_CLASSES,
    Split,
    batch_indices,
    load_cifar10,
    relabel_binary_array,
    synthetic_dataset,
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
        assert ds.train.pixels.dtype == np.uint8
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

    def test_labels_relabelled_consistently(self, fake_cifar_dir, fake_dataset):
        for split, files in ((fake_dataset.train, TRAIN_FILES),
                             (fake_dataset.test, [TEST_FILE])):
            raw = np.concatenate([
                np.fromfile(fake_cifar_dir / f, np.uint8).reshape(-1, RECORD_BYTES)[:, 0]
                for f in files])
            expected = np.isin(raw, list(VEHICLE_CLASSES)).astype(np.int64)
            assert split.label2.dtype == np.int64
            assert np.array_equal(split.label2, expected)


class TestImages:
    def test_batches_bitwise_equal_whole_corpus_conversion(self):
        # one image per byte value, gathered in shuffled batches
        pixels = np.empty((256, 32, 32, 3), dtype=np.uint8)
        pixels[:] = np.arange(256, dtype=np.uint8)[:, None, None, None]
        split = Split(pixels, np.zeros(256, np.int64))
        whole = pixels.astype(np.float32) / 255.0
        for idx in batch_indices(256, 64, Rng(8)):
            batch = split.images(idx)
            assert batch.dtype == np.float32
            assert np.array_equal(batch.view(np.uint32), whole[idx].view(np.uint32))

    def test_channel_planar_split_gives_c_contiguous_batches(self):
        # a loaded split keeps the on-disk channel-planar memory order
        planar = Rng(9).uniform(0, 256, size=(100, 3, 32, 32)).astype(np.uint8)
        pixels = planar.transpose(0, 2, 3, 1)
        split = Split(pixels, np.zeros(100, np.int64))
        whole = pixels.astype(np.float32) / 255.0
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


class TestSynthetic:
    def test_shapes_and_prior(self):
        ds = synthetic_dataset(600, 300, seed=1)
        assert ds.train.pixels.shape == (600, 32, 32, 3)
        assert ds.test.n == 300
        assert 0.3 < ds.train.label2.mean() < 0.5
        assert ds.train.label2.dtype == np.int64
        assert set(np.unique(ds.train.label2)) == {0, 1}

    def test_deterministic(self):
        a = synthetic_dataset(50, 20, seed=3)
        b = synthetic_dataset(50, 20, seed=3)
        assert np.array_equal(a.train.pixels, b.train.pixels)
        assert np.array_equal(a.test.label2, b.test.label2)
