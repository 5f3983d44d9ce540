"""Dataset ingestion (CSV and IDX binaries), synthetic generators with
ground truth, min-max scaling, and the CSV writers used for run artifacts."""

import csv
import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray
    labels: np.ndarray | None
    name: str

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def load_csv(path, label_col: int | None = None) -> Dataset:
    """Numeric CSV, one sample per row; an optional column holds class labels,
    which are mapped to dense ids in first-appearance order."""
    path = Path(path)
    rows, raw_labels = [], []
    width = None
    with open(path, newline="") as fh:
        for i, record in enumerate(csv.reader(fh)):
            if not record:
                continue
            if width is None:
                width = len(record)
                if label_col is not None and not (-width <= label_col < width):
                    raise ValueError(
                        f"label_col {label_col} out of range for {width} columns")
            elif len(record) != width:
                raise ValueError(
                    f"ragged row {i}: {len(record)} fields, expected {width}")
            if label_col is not None:
                raw_labels.append(record[label_col])
                record = [v for j, v in enumerate(record) if j != label_col % width]
            try:
                rows.append([float(v) for v in record])
            except ValueError as exc:
                raise ValueError(f"non-numeric cell in row {i}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    x = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path} contains non-finite values")
    labels = None
    if label_col is not None:
        seen: dict[str, int] = {}
        labels = np.asarray([seen.setdefault(v, len(seen)) for v in raw_labels],
                            dtype=np.int64)
    return Dataset(x=x, labels=labels, name=path.stem)


def _open_maybe_gz(path):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_be32(fh) -> int:
    return struct.unpack(">i", fh.read(4))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: big-endian u8 images flattened row-major and
    scaled to [0,1], labels as dense ids."""
    with _open_maybe_gz(images_path) as fh:
        magic = _read_be32(fh)
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(
                f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        count, rows, cols = _read_be32(fh), _read_be32(fh), _read_be32(fh)
        pixels = np.frombuffer(fh.read(count * rows * cols), dtype=np.uint8)
        if pixels.size != count * rows * cols:
            raise ValueError("image file truncated")
    with _open_maybe_gz(labels_path) as fh:
        magic = _read_be32(fh)
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(
                f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        label_count = _read_be32(fh)
        labels = np.frombuffer(fh.read(label_count), dtype=np.uint8)
        if labels.size != label_count:
            raise ValueError("label file truncated")
    if count != label_count:
        raise ValueError(f"{count} images but {label_count} labels")
    x = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(x=x, labels=labels.astype(np.int64), name=Path(images_path).stem)


def make_blobs(n: int, d: int, c: int, separation: float,
               rng: np.random.Generator) -> Dataset:
    """Unit-variance Gaussian blobs around c well-spread centers of norm
    `separation` (scaled basis vectors when c <= d, random directions
    otherwise). Labels are contiguous runs of n // c + 1 rows, so the last
    class that gets rows may be short, and when c is near n the last
    classes get none. The noise is drawn into the result and each
    center added to its rows in place, so one n x d array is allocated."""
    if not (1 <= c <= n):
        raise ValueError(f"need 1 <= c <= n={n}, got c={c}")
    if separation <= 0:
        raise ValueError(f"separation must be positive, got {separation}")
    if c <= d:
        centers = np.eye(c, d) * separation
    else:
        dirs = rng.normal(size=(c, d))
        centers = separation * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    per = n // c + 1
    labels = np.repeat(np.arange(c), per)[:n]
    x = rng.normal(size=(n, d))
    full = n // per
    whole = x[:full * per].reshape(full, per, d)  # a view: x is contiguous
    whole += centers[:full, None, :]
    x[full * per:] += centers[full]  # full < c: the last, short class
    return Dataset(x=x, labels=labels.astype(np.int64), name="blobs")


def make_two_moons(n: int, noise: float, rng: np.random.Generator) -> Dataset:
    """Two interleaved half circles in the plane with Gaussian noise."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    n_top = n // 2
    n_bot = n - n_top
    t_top = np.pi * rng.random(n_top)
    t_bot = np.pi * rng.random(n_bot)
    top = np.stack([np.cos(t_top), np.sin(t_top)], axis=1)
    bot = np.stack([1.0 - np.cos(t_bot), 0.5 - np.sin(t_bot)], axis=1)
    x = np.vstack([top, bot]) + noise * rng.normal(size=(n, 2))
    labels = np.concatenate([np.zeros(n_top, dtype=np.int64),
                             np.ones(n_bot, dtype=np.int64)])
    return Dataset(x=x, labels=labels, name="moons")


def minmax_scale(x: np.ndarray) -> np.ndarray:
    """Affinely map each column to [0,1]; constant columns become 0. The
    result is formed in its own buffer, (x - lo) then divided in place, so
    one array of x's size is allocated."""
    x = np.asarray(x, dtype=np.float64)
    lo = x.min(axis=0)
    span = x.max(axis=0) - lo
    safe = np.where(span > 0, span, 1.0)
    out = np.subtract(x, lo)
    out /= safe
    out[:, span == 0] = 0.0
    return out


def save_matrix_csv(path, x: np.ndarray) -> None:
    """Write a matrix with 17 significant digits so a reload round-trips."""
    x = np.asarray(x, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        for row in x:
            fh.write(",".join(f"{v:.17g}" for v in row))
            fh.write("\n")


def save_labels_csv(path, labels) -> None:
    with open(path, "w", newline="") as fh:
        for v in np.asarray(labels).ravel():
            fh.write(f"{int(v)}\n")


def load_labels_csv(path) -> np.ndarray:
    values = [int(line) for line in Path(path).read_text().split()]
    if not values:
        raise ValueError(f"{path} contains no labels")
    return np.asarray(values, dtype=np.int64)
