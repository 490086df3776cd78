import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoea.data import (
    CIFAR_RECORD,
    Dataset,
    SyntheticParams,
    generate_synthetic,
    load_cifar10,
    read_cifar10_batch,
    write_cifar10_batch,
)
from smoea.exceptions import DataError, DataFormatError


class TestSynthetic:
    def test_shapes_and_labels(self):
        ds = generate_synthetic(SyntheticParams(seed=0))
        assert ds.train_images.shape == (400, 3, 8, 8)
        assert ds.test_images.shape == (100, 3, 8, 8)
        assert set(np.unique(ds.train_labels)) == set(range(10))
        assert np.bincount(ds.train_labels).tolist() == [40] * 10

    def test_deterministic(self):
        a = generate_synthetic(SyntheticParams(seed=3))
        b = generate_synthetic(SyntheticParams(seed=3))
        np.testing.assert_array_equal(a.train_images, b.train_images)
        np.testing.assert_array_equal(a.test_labels, b.test_labels)

    def test_seed_changes_data(self):
        a = generate_synthetic(SyntheticParams(seed=3))
        b = generate_synthetic(SyntheticParams(seed=4))
        assert not np.array_equal(a.train_images, b.train_images)

    def test_zero_noise_collapses_to_templates(self):
        ds = generate_synthetic(SyntheticParams(noise=0.0, seed=1))
        for c in range(10):
            imgs = ds.train_images[ds.train_labels == c]
            assert np.ptp(imgs, axis=0).max() == 0.0

    def test_too_few_classes(self):
        with pytest.raises(DataError):
            generate_synthetic(SyntheticParams(classes=1))

    def test_num_classes_property(self):
        ds = generate_synthetic(SyntheticParams(classes=4, seed=0))
        assert ds.num_classes == 4

    @pytest.mark.parametrize(
        "params",
        [
            SyntheticParams(seed=1),
            SyntheticParams(noise=1.0, seed=7),
            SyntheticParams(height=32, width=32, test_per_class=0, seed=2),
            SyntheticParams(classes=3, train_per_class=0, seed=5),
        ],
        ids=["defaults", "noise1_seed7", "32x32_no_test", "3_classes_no_train"],
    )
    def test_equals_per_sample_draws(self, params):
        """The per-class draw gives the bytes of a per-sample loop."""
        got, want = generate_synthetic(params), per_sample_synthetic(params)
        for name in ("train_images", "train_labels", "test_images", "test_labels"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


def per_sample_synthetic(params: SyntheticParams) -> Dataset:
    """generate_synthetic as one noise draw per sample, each added to its
    class template in a Python loop."""
    rng = np.random.default_rng(params.seed)
    shape = (params.channels, params.height, params.width)
    templates = rng.normal(0.0, 1.0, size=(params.classes, *shape))

    def sample(per_class):
        images = np.empty((params.classes * per_class, *shape))
        labels = np.empty(params.classes * per_class, dtype=np.int64)
        i = 0
        for c in range(params.classes):
            for _ in range(per_class):
                images[i] = templates[c] + params.noise * rng.normal(size=shape)
                labels[i] = c
                i += 1
        order = rng.permutation(len(labels))
        return images[order], labels[order]

    return Dataset(*sample(params.train_per_class), *sample(params.test_per_class))


class TestCifarFormat:
    def test_round_trip_two_records(self, tmp_path):
        rng = np.random.default_rng(0)
        imgs = rng.integers(0, 256, size=(2, 3, 32, 32), dtype=np.uint8)
        labels = np.array([3, 9], dtype=np.uint8)
        f = tmp_path / "batch.bin"
        write_cifar10_batch(f, imgs, labels)
        assert f.stat().st_size == 2 * CIFAR_RECORD
        images, read_labels = read_cifar10_batch(f)
        np.testing.assert_array_equal(read_labels, [3, 9])
        np.testing.assert_allclose(images, imgs / 255.0)

    def test_channel_plane_layout(self, tmp_path):
        # red plane all 255, green and blue all 0: channel 0 must be the
        # bright one after decoding
        imgs = np.zeros((1, 3, 32, 32), dtype=np.uint8)
        imgs[0, 0] = 255
        f = tmp_path / "batch.bin"
        write_cifar10_batch(f, imgs, np.array([0], dtype=np.uint8))
        images, _ = read_cifar10_batch(f)
        assert images[0, 0].min() == 1.0
        assert images[0, 1:].max() == 0.0

    def test_truncated_record(self, tmp_path):
        f = tmp_path / "bad.bin"
        f.write_bytes(b"\x00" * 3072)
        with pytest.raises(DataFormatError):
            read_cifar10_batch(f)

    def test_out_of_range_label(self, tmp_path):
        rec = bytes([10]) + b"\x00" * 3072
        f = tmp_path / "bad.bin"
        f.write_bytes(rec)
        with pytest.raises(DataFormatError):
            read_cifar10_batch(f)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(extra=st.integers(min_value=1, max_value=CIFAR_RECORD - 1))
    def test_any_partial_record_rejected(self, tmp_path, extra):
        f = tmp_path / "frag.bin"
        f.write_bytes(b"\x00" * (CIFAR_RECORD + extra))
        with pytest.raises(DataFormatError):
            read_cifar10_batch(f)


class TestLoadCifar:
    @pytest.fixture()
    def cifar_dir(self, tmp_path):
        rng = np.random.default_rng(1)
        for name, n in [("data_batch_1.bin", 8), ("data_batch_2.bin", 8),
                        ("test_batch.bin", 4)]:
            imgs = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
            labels = rng.integers(0, 10, size=n).astype(np.uint8)
            write_cifar10_batch(tmp_path / name, imgs, labels)
        return tmp_path

    def test_directory_split_sizes(self, cifar_dir):
        ds = load_cifar10(cifar_dir)
        assert ds.train_images.shape == (16, 3, 32, 32)
        assert ds.test_images.shape == (4, 3, 32, 32)

    def test_default_normalization_is_train_statistics(self, cifar_dir):
        ds = load_cifar10(cifar_dir)
        np.testing.assert_allclose(ds.train_images.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        np.testing.assert_allclose(ds.train_images.std(axis=(0, 2, 3)), 1.0, atol=1e-12)

    def test_normalisation_bit_identical_to_out_of_place(self, cifar_dir):
        train = np.concatenate(
            [read_cifar10_batch(cifar_dir / f"data_batch_{i}.bin")[0] for i in (1, 2)]
        )
        test = read_cifar10_batch(cifar_dir / "test_batch.bin")[0]
        mean = train.mean(axis=(0, 2, 3))[None, :, None, None]
        std = train.std(axis=(0, 2, 3))[None, :, None, None]
        ds = load_cifar10(cifar_dir)
        assert np.array_equal(ds.train_images, (train - mean) / std)
        assert np.array_equal(ds.test_images, (test - mean) / std)

    def test_peak_memory_near_one_float_copy(self, cifar_dir):
        """Pixels are converted to float once and normalised in place; the
        only other full-size buffer is np.std's temporary."""
        tracemalloc.start()
        try:
            ds = load_cifar10(cifar_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (ds.train_images.nbytes + ds.test_images.nbytes)

    def test_single_file_goes_to_train(self, cifar_dir):
        ds = load_cifar10(cifar_dir / "data_batch_1.bin")
        assert ds.train_images.shape[0] == 8
        assert ds.test_images.shape[0] == 0

    def test_missing_path(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar10(tmp_path / "nope")

    def test_dir_without_batches(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_cifar10(tmp_path)


class TestDataset:
    def test_require_nonempty(self):
        ds = Dataset(
            np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64),
            np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(DataError):
            ds.require_nonempty()
