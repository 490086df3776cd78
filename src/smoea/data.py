"""Datasets: the CIFAR-10 binary format and a seeded synthetic generator
used for desk-scale experiments.

CIFAR-10 binary records are 3073 bytes: one label byte (0..9) followed by
3072 pixel bytes (1024 red, 1024 green, 1024 blue, each a row-major 32x32
plane).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, DataFormatError

CIFAR_RECORD = 3073
CIFAR_SHAPE = (3, 32, 32)


@dataclass
class Dataset:
    train_images: np.ndarray  # [N, C, H, W] float64
    train_labels: np.ndarray  # [N] int
    test_images: np.ndarray
    test_labels: np.ndarray

    @property
    def num_classes(self) -> int:
        labels = np.concatenate([self.train_labels, self.test_labels])
        return int(labels.max()) + 1 if labels.size else 0

    def require_nonempty(self) -> None:
        if self.train_images.shape[0] == 0:
            raise DataError("empty training split")

    def require_test_split(self) -> None:
        if self.test_images.shape[0] == 0:
            raise DataError("empty evaluation split")


def _read_records(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """One binary batch file -> (pixels uint8 [N,3,32,32], labels [N])."""
    raw = Path(path).read_bytes()
    if len(raw) % CIFAR_RECORD:
        raise DataFormatError(
            f"{path}: {len(raw)} bytes is not a multiple of {CIFAR_RECORD}"
        )
    n = len(raw) // CIFAR_RECORD
    records = np.frombuffer(raw, dtype=np.uint8).reshape(n, CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    if labels.size and labels.max() > 9:
        raise DataFormatError(f"{path}: label byte {labels.max()} out of range 0..9")
    return records[:, 1:].reshape(n, *CIFAR_SHAPE), labels


def _to_unit(pixels: np.ndarray) -> np.ndarray:
    images = pixels.astype(np.float64)
    images /= 255.0
    return images


def read_cifar10_batch(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """One binary batch file -> (images [N,3,32,32] in [0,1], labels [N])."""
    pixels, labels = _read_records(path)
    return _to_unit(pixels), labels


def _read_split(files: list[Path]) -> tuple[np.ndarray, np.ndarray]:
    """The records of several batch files as one split: the pixels are
    concatenated as bytes and converted to float once."""
    parts = [_read_records(f) for f in files]
    if not parts:
        return np.zeros((0, *CIFAR_SHAPE)), np.zeros(0, dtype=np.int64)
    pixels = np.concatenate([p[0] for p in parts])
    return _to_unit(pixels), np.concatenate([p[1] for p in parts])


def normalize_per_channel(
    images: np.ndarray, mean: np.ndarray, std: np.ndarray
) -> np.ndarray:
    """(images - mean) / std per channel, computed in place; returns images."""
    images -= mean[None, :, None, None]
    images /= std[None, :, None, None]
    return images


def load_cifar10(path: str | Path) -> Dataset:
    """Load a CIFAR-10 directory (data_batch_*.bin + test_batch.bin) or a
    single batch file (all records into the train split).

    Both splits are normalized per channel with the training split's mean
    and standard deviation.
    """
    path = Path(path)
    if path.is_dir():
        train_files = sorted(path.glob("data_batch*.bin"))
        test_files = sorted(path.glob("test_batch*.bin"))
        if not train_files:
            raise DataFormatError(f"no data_batch*.bin files under {path}")
    elif path.is_file():
        train_files, test_files = [path], []
    else:
        raise DataFormatError(f"no such dataset path: {path}")
    train_images, train_labels = _read_split(train_files)
    test_images, test_labels = _read_split(test_files)
    mean = train_images.mean(axis=(0, 2, 3)) if train_images.size else np.zeros(3)
    std = train_images.std(axis=(0, 2, 3)) if train_images.size else np.ones(3)
    std = np.where(std > 0, std, 1.0)
    normalize_per_channel(train_images, mean, std)
    normalize_per_channel(test_images, mean, std)
    return Dataset(train_images, train_labels, test_images, test_labels)


def write_cifar10_batch(
    path: str | Path, images_u8: np.ndarray, labels: np.ndarray
) -> None:
    """Inverse of read_cifar10_batch for fixtures: uint8 [N,3,32,32] + labels."""
    n = images_u8.shape[0]
    records = np.empty((n, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images_u8.reshape(n, -1)
    Path(path).write_bytes(records.tobytes())


@dataclass
class SyntheticParams:
    classes: int = 10
    train_per_class: int = 40
    test_per_class: int = 10
    channels: int = 3
    height: int = 8
    width: int = 8
    noise: float = 0.3
    seed: int = 0


def generate_synthetic(params: SyntheticParams) -> Dataset:
    """Per-class random template images plus Gaussian per-sample noise.

    Linearly separable enough for a small CNN to learn; fully determined by
    the seed.
    """
    if params.classes < 2:
        raise DataError("need at least 2 classes")
    rng = np.random.default_rng(params.seed)
    shape = (params.channels, params.height, params.width)
    templates = rng.normal(0.0, 1.0, size=(params.classes, *shape))

    def sample(per_class: int) -> tuple[np.ndarray, np.ndarray]:
        # one draw, filled in stream order: each sample's own draw, in turn
        images = templates.repeat(per_class, axis=0)
        images += params.noise * rng.normal(size=images.shape)
        labels = np.arange(params.classes).repeat(per_class)
        order = rng.permutation(len(labels))
        return images[order], labels[order]

    train_images, train_labels = sample(params.train_per_class)
    test_images, test_labels = sample(params.test_per_class)
    return Dataset(train_images, train_labels, test_images, test_labels)
