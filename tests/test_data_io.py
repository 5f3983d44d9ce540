import struct
from pathlib import Path

import numpy as np
import pytest

from anchorgae.data_io import (
    Dataset,
    load_csv,
    load_idx,
    load_labels_csv,
    make_blobs,
    make_two_moons,
    minmax_scale,
    save_labels_csv,
    save_matrix_csv,
)
from anchorgae.numerics import make_rng
from oracles import peak_bytes


# -------------------------------------------------------------------- csv

def test_load_csv_plain(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("1,2,3\n4,5,6\n")
    ds = load_csv(p)
    assert ds.x.shape == (2, 3)
    assert np.array_equal(ds.x, [[1, 2, 3], [4, 5, 6]])
    assert ds.labels is None


def test_load_csv_label_column():
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "lab.csv"
        p.write_text("1,2,3\n4,5,6\n")
        ds = load_csv(p, label_col=2)
        assert ds.x.shape == (2, 2)
        assert np.array_equal(ds.x, [[1, 2], [4, 5]])
        assert np.array_equal(ds.labels, [0, 1])  # first-appearance ids


def test_load_csv_label_first_appearance_order(tmp_path):
    p = tmp_path / "lab2.csv"
    p.write_text("1,b\n2,a\n3,b\n4,c\n")
    ds = load_csv(p, label_col=1)
    assert np.array_equal(ds.labels, [0, 1, 0, 2])


def test_load_csv_segment_shape(tmp_path):
    # same shape as a 19-feature, 2310-sample, 7-class table
    rng = make_rng(90)
    rows = []
    for i in range(2310):
        feats = rng.random(19)
        rows.append(",".join(f"{v:.6f}" for v in feats) + f",{i % 7}")
    p = tmp_path / "segment.csv"
    p.write_text("\n".join(rows) + "\n")
    ds = load_csv(p, label_col=19)
    assert ds.n == 2310 and ds.d == 19
    assert len(np.unique(ds.labels)) == 7


def test_load_csv_ragged_row_reports_index(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="row 1"):
        load_csv(p)


def test_load_csv_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(p)


def test_csv_round_trip_17_digits(tmp_path):
    rng = make_rng(91)
    x = rng.normal(size=(7, 4)) * np.pi
    p = tmp_path / "round.csv"
    save_matrix_csv(p, x)
    back = load_csv(p)
    assert np.max(np.abs(back.x - x)) < 1e-12


def test_labels_round_trip(tmp_path):
    p = tmp_path / "labels.csv"
    save_labels_csv(p, [3, 1, 4, 1, 5])
    assert np.array_equal(load_labels_csv(p), [3, 1, 4, 1, 5])


# -------------------------------------------------------------------- idx

def make_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols)
                         + images.tobytes())
    lab_path.write_bytes(struct.pack(">ii", 0x00000801, len(labels))
                         + labels.tobytes())
    return img_path, lab_path


def test_load_idx_round_trip(tmp_path):
    images = np.array([[[0, 128, 255], [64, 32, 16]],
                       [[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)
    img, lab = make_idx_pair(tmp_path, images, [7, 2])
    ds = load_idx(img, lab)
    assert ds.x.shape == (2, 6)
    assert np.array_equal(ds.x * 255.0, images.reshape(2, 6))
    assert np.array_equal(ds.labels, [7, 2])
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def test_load_idx_bad_magic(tmp_path):
    img, lab = make_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    broken = tmp_path / "broken.idx"
    broken.write_bytes(struct.pack(">iiii", 0x00000899, 1, 2, 2) + b"\0" * 4)
    with pytest.raises(ValueError, match="magic"):
        load_idx(broken, lab)
    with pytest.raises(ValueError, match="magic"):
        load_idx(lab, lab)


def test_load_idx_count_mismatch(tmp_path):
    img, _ = make_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
    lab3 = tmp_path / "lab3.idx"
    lab3.write_bytes(struct.pack(">ii", 0x00000801, 3) + bytes([0, 1, 2]))
    with pytest.raises(ValueError, match="images but"):
        load_idx(img, lab3)


def test_load_idx_real_mnist_if_present():
    images = Path("data/mnist/t10k-images-idx3-ubyte")
    labels = Path("data/mnist/t10k-labels-idx1-ubyte")
    if not images.exists() or not labels.exists():
        pytest.skip("MNIST-test IDX files not present under data/mnist/")
    ds = load_idx(images, labels)
    assert ds.n == 10_000 and ds.d == 784
    assert len(np.unique(ds.labels)) == 10


# -------------------------------------------------------------- synthetic

def test_blobs_single_cluster():
    ds = make_blobs(10, 3, 1, 5.0, make_rng(92))
    assert np.array_equal(ds.labels, np.zeros(10, dtype=int))


def test_blobs_extreme_separation_matches_nearest_center():
    ds = make_blobs(200, 8, 4, 100.0, make_rng(93))
    centers = np.stack([ds.x[ds.labels == j].mean(axis=0) for j in range(4)])
    d = ((ds.x[:, None, :] - centers[None]) ** 2).sum(axis=2)
    assert np.array_equal(d.argmin(axis=1), ds.labels)


def test_blobs_deterministic():
    a = make_blobs(50, 4, 3, 6.0, make_rng(94))
    b = make_blobs(50, 4, 3, 6.0, make_rng(94))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.labels, b.labels)


def test_blobs_more_clusters_than_dims():
    ds = make_blobs(60, 2, 5, 9.0, make_rng(95))
    assert ds.x.shape == (60, 2)
    assert len(np.unique(ds.labels)) == 5


@pytest.mark.parametrize("n,d,c", [(10, 3, 4), (10, 3, 6), (7, 3, 1),
                                   (100, 8, 3), (60, 2, 5), (9, 4, 9)])
def test_blobs_equal_centers_plus_noise(n, d, c):
    # The centers are added to the noise in place, class by class; the
    # result equals the gathered centers plus the noise bit for bit, the
    # short last class included.
    ds = make_blobs(n, d, c, 4.0, make_rng(98))
    rng = make_rng(98)
    if c <= d:
        centers = np.eye(c, d) * 4.0
    else:
        dirs = rng.normal(size=(c, d))
        centers = 4.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    assert np.array_equal(ds.x, centers[ds.labels] + rng.normal(size=(n, d)))
    assert np.array_equal(ds.labels, np.repeat(np.arange(c), n // c + 1)[:n])


def test_blobs_hold_one_sample_array():
    # The noise is drawn into the result and no n x d gather of centers is
    # formed; the labels add two n-long int arrays, 2/d of it.
    n, d = 3000, 64
    assert peak_bytes(lambda: make_blobs(n, d, 10, 5.0, make_rng(99))) \
        < 1.5 * n * d * 8


def test_blobs_validation():
    with pytest.raises(ValueError):
        make_blobs(3, 2, 5, 1.0, make_rng(0))
    with pytest.raises(ValueError):
        make_blobs(10, 2, 2, -1.0, make_rng(0))


def test_moons_shapes_and_balance():
    ds = make_two_moons(101, 0.05, make_rng(96))
    assert ds.x.shape == (101, 2)
    assert np.bincount(ds.labels).tolist() == [50, 51]
    again = make_two_moons(101, 0.05, make_rng(96))
    assert np.array_equal(ds.x, again.x)


# ---------------------------------------------------------------- scaling

def test_minmax_column_to_unit_interval():
    out = minmax_scale(np.array([[0.0], [5.0], [10.0]]))
    assert np.allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_minmax_constant_column_zeroed():
    out = minmax_scale(np.array([[2.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(out[:, 0], [0.0, 0.0])


def test_minmax_idempotent():
    rng = make_rng(97)
    x = rng.normal(size=(20, 5)) * 7 + 3
    once = minmax_scale(x)
    twice = minmax_scale(once)
    assert np.max(np.abs(once - twice)) < 1e-15


def test_minmax_holds_one_array_above_its_input():
    # The result is formed in place: x - lo, then divided by the span.
    n, d = 3000, 64
    rng = make_rng(100)
    x = rng.normal(size=(n, d)) * 5 + 2
    x[:, 3] = 1.5
    assert peak_bytes(lambda: minmax_scale(x)) < 1.5 * n * d * 8
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    expected = (x - lo) / np.where(span > 0, span, 1.0)
    expected[:, 3] = 0.0
    assert np.array_equal(minmax_scale(x), expected)


def test_dataset_properties():
    ds = Dataset(x=np.zeros((4, 2)), labels=None, name="t")
    assert ds.n == 4 and ds.d == 2
