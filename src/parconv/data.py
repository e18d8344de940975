"""Synthetic image datasets and the binary dataset file format.

File layout (little endian): magic "PSDS", u32 N C H W K, then N*C*H*W
float32 image values, then N u32 labels. Synthetic data is quantised to
float32 at generation time so a save/load round trip reproduces the dataset
bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import DatasetError

MAGIC = b"PSDS"
TEMPLATE_NOISE_STD = 0.5


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float64
    labels: np.ndarray  # (N,) int64 in [0, classes)
    classes: int

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DatasetError(f"images must be (N, C, H, W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DatasetError("labels length must match image count")
        if self.classes < 2:
            raise DatasetError("a dataset needs at least 2 classes")
        if self.size and (self.labels.min() < 0 or self.labels.max() >= self.classes):
            raise DatasetError(f"labels must lie in [0, {self.classes})")

    @property
    def size(self) -> int:
        return self.images.shape[0]

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        return self.images.shape[1:]


def _blob_split(
    classes: int, per_class: int, templates: list[np.ndarray],
    shape: tuple[int, int, int], seed: int, domain: int,
) -> Dataset:
    dim = int(np.prod(shape))
    images = np.empty((classes * per_class, dim), dtype=np.float64)
    labels = np.empty(classes * per_class, dtype=np.int64)
    for k in range(classes):
        stream = rng.derive(seed, domain, k)
        noise = stream.gauss_array((per_class, dim), std=TEMPLATE_NOISE_STD)
        images[k * per_class : (k + 1) * per_class] = templates[k][None, :] + noise
        labels[k * per_class : (k + 1) * per_class] = k
    # quantise to the file format's precision so write -> read is the identity
    images = images.astype(np.float32).astype(np.float64)
    return Dataset(images.reshape(-1, *shape), labels, classes)


def gen_synthetic(
    classes: int,
    per_class: int,
    shape: tuple[int, int, int],
    seed: int,
    test_per_class: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Gaussian class blobs (std 0.5) around per-class mean templates in [-1, 1].

    Templates and noise are deterministic functions of the seed; the train
    and test splits use disjoint noise streams.
    """
    if classes < 2:
        raise DatasetError("gen_synthetic needs at least 2 classes")
    if per_class < 1:
        raise DatasetError("per_class must be >= 1 (empty split)")
    if test_per_class is None:
        test_per_class = max(1, per_class // 4)
    if test_per_class < 1:
        raise DatasetError("test_per_class must be >= 1 (empty split)")
    if len(shape) != 3 or min(shape) < 1:
        raise DatasetError(f"sample shape must be three extents C, H, W >= 1, got {tuple(shape)}")
    dim = int(np.prod(shape))
    templates = [
        rng.derive(seed, rng.DOMAIN_TEMPLATE, k).uniform_array(dim, -1.0, 1.0)
        for k in range(classes)
    ]
    train = _blob_split(classes, per_class, templates, shape, seed, rng.DOMAIN_TRAIN)
    test = _blob_split(classes, test_per_class, templates, shape, seed, rng.DOMAIN_TEST)
    return train, test


def save_dataset(ds: Dataset, path) -> None:
    n, c, h, w = ds.images.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<5I", n, c, h, w, ds.classes))
        fh.write(ds.images.astype("<f4").tobytes())
        fh.write(ds.labels.astype("<u4").tobytes())


def load_dataset(path) -> Dataset:
    raw = Path(path).read_bytes()
    if len(raw) < 24 or raw[:4] != MAGIC:
        raise DatasetError(f"{path}: not a PSDS dataset file")
    n, c, h, w, k = struct.unpack("<5I", raw[4:24])
    body = raw[24:]
    image_bytes = n * c * h * w * 4
    label_bytes = n * 4
    if len(body) != image_bytes + label_bytes:
        raise DatasetError(
            f"{path}: truncated or oversized file "
            f"(expected {24 + image_bytes + label_bytes} bytes, got {len(raw)})"
        )
    images = np.frombuffer(body[:image_bytes], dtype="<f4").astype(np.float64)
    labels = np.frombuffer(body[image_bytes:], dtype="<u4").astype(np.int64)
    if labels.size and labels.max() >= k:
        raise DatasetError(f"{path}: label {int(labels.max())} out of range for {k} classes")
    return Dataset(images.reshape(n, c, h, w), labels, int(k))
