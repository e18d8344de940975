import numpy as np
import pytest

from parconv.data import Dataset, gen_synthetic, load_dataset, save_dataset
from parconv.errors import DatasetError


def test_same_seed_bit_identical():
    a_train, a_test = gen_synthetic(3, 5, (2, 4, 4), seed=42)
    b_train, b_test = gen_synthetic(3, 5, (2, 4, 4), seed=42)
    assert np.array_equal(a_train.images, b_train.images)
    assert np.array_equal(a_train.labels, b_train.labels)
    assert np.array_equal(a_test.images, b_test.images)


def test_different_seed_differs():
    a, _ = gen_synthetic(3, 5, (2, 4, 4), seed=1)
    b, _ = gen_synthetic(3, 5, (2, 4, 4), seed=2)
    assert not np.array_equal(a.images, b.images)


def test_train_test_disjoint_draws():
    train, test = gen_synthetic(2, 4, (1, 3, 3), seed=7, test_per_class=4)
    assert not np.array_equal(train.images, test.images)


def test_split_sizes_and_labels():
    train, test = gen_synthetic(4, 6, (1, 2, 2), seed=0, test_per_class=2)
    assert train.size == 24 and test.size == 8
    assert sorted(set(train.labels.tolist())) == [0, 1, 2, 3]
    assert np.all(np.bincount(train.labels) == 6)


def test_empty_split_rejected():
    with pytest.raises(DatasetError, match="gen_synthetic needs at least 2 classes"):
        gen_synthetic(1, 4, (1, 2, 2), seed=0)
    with pytest.raises(DatasetError, match="empty split"):
        gen_synthetic(2, 0, (1, 2, 2), seed=0)
    with pytest.raises(DatasetError, match="empty split"):
        gen_synthetic(2, 4, (1, 2, 2), seed=0, test_per_class=0)


@pytest.mark.parametrize("shape", [(0, 4, 4), (3, -1, 4), (4, 4)])
def test_bad_sample_shape_rejected_naming_it(shape):
    with pytest.raises(DatasetError, match=rf"sample shape .* got \({shape[0]}, {shape[1]}"):
        gen_synthetic(10, 2, shape, 1)


def test_blobs_are_separated():
    # class means differ by much more than the within-class noise scale
    train, _ = gen_synthetic(2, 32, (3, 16, 16), seed=3)
    mean0 = train.images[train.labels == 0].mean(axis=0).ravel()
    mean1 = train.images[train.labels == 1].mean(axis=0).ravel()
    centre_gap = np.linalg.norm(mean0 - mean1)
    spread = train.images[train.labels == 0].std()
    assert centre_gap > 10 * spread


def test_round_trip_write_read_identity(tmp_path):
    train, _ = gen_synthetic(3, 4, (2, 5, 5), seed=11)
    path = tmp_path / "ds.psds"
    save_dataset(train, path)
    loaded = load_dataset(path)
    assert np.array_equal(loaded.images, train.images)
    assert np.array_equal(loaded.labels, train.labels)
    assert loaded.classes == train.classes
    # byte-deterministic rewrite
    first = path.read_bytes()
    save_dataset(loaded, path)
    assert path.read_bytes() == first


def test_truncated_file_rejected(tmp_path):
    train, _ = gen_synthetic(2, 2, (1, 2, 2), seed=1)
    path = tmp_path / "ds.psds"
    save_dataset(train, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DatasetError, match="truncated"):
        load_dataset(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.psds"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(DatasetError, match="not a PSDS"):
        load_dataset(path)


def test_label_out_of_range_rejected(tmp_path):
    train, _ = gen_synthetic(2, 2, (1, 2, 2), seed=1)
    path = tmp_path / "ds.psds"
    save_dataset(train, path)
    raw = bytearray(path.read_bytes())
    raw[-4:] = (99).to_bytes(4, "little")  # corrupt the last label
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="out of range"):
        load_dataset(path)


def test_dataset_validation():
    with pytest.raises(DatasetError):
        Dataset(np.zeros((2, 1, 2, 2)), np.array([0, 5]), classes=2)
    with pytest.raises(DatasetError):
        Dataset(np.zeros((2, 1, 2, 2)), np.array([0]), classes=2)
    with pytest.raises(DatasetError, match=r"images must be \(N, C, H, W\), got \(2, 2, 2\)"):
        Dataset(np.zeros((2, 2, 2)), np.array([0, 1]), classes=2)
    with pytest.raises(DatasetError, match="a dataset needs at least 2 classes"):
        Dataset(np.zeros((2, 1, 2, 2)), np.array([0, 0]), classes=1)
