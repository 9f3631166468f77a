"""Datasets: IDX loading, class imbalance, and label corruption.

Every dataset keeps a provenance array of original labels so that later
stages can tell clean examples from corrupted ones without re-deriving it.
"""

import csv
import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, IdxParseError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass
class Dataset:
    """Images (count, features), labels, and pre-corruption labels.

    uint8 images are pixel bytes, kept as such and scaled to [0, 1] only by
    `nn.Batch`; any other dtype becomes float64 and is model input as it is."""

    images: np.ndarray
    labels: np.ndarray
    original_labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        images = np.asarray(self.images)
        self.images = images if images.dtype == np.uint8 else np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.original_labels is None:
            self.original_labels = self.labels.copy()
        self.original_labels = np.asarray(self.original_labels, dtype=np.int64)
        if self.images.ndim != 2:
            raise ConfigError(f"images must be 2-d, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ConfigError("labels must have one entry per image")
        if self.original_labels.shape != self.labels.shape:
            raise ConfigError("original_labels must align with labels")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def flipped_mask(self) -> np.ndarray:
        """True where the current label differs from the pre-corruption one."""
        return self.labels != self.original_labels

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.images[idx], self.labels[idx], self.original_labels[idx])


@dataclass
class ImbalanceSpec:
    """Binary subsample: ratio majority examples per minority example."""

    ratio: float
    total: int = 5000
    minority_class: int = 4
    majority_class: int = 9

    def __post_init__(self):
        if self.minority_class == self.majority_class:
            raise ConfigError("minority and majority class must differ")
        if not math.isfinite(self.ratio) or self.ratio < 1:
            raise ConfigError(f"imbalance ratio must be a finite number >= 1, got {self.ratio}")
        if self.total < self.ratio + 1:
            raise ConfigError(
                f"total {self.total} too small for ratio {self.ratio}: "
                "needs at least ratio + 1 examples"
            )

    @property
    def label_map(self) -> dict:
        """The relabelling of the pair, minority -> 0 and majority -> 1."""
        return {self.minority_class: 0, self.majority_class: 1}


@dataclass
class NoiseSpec:
    """Label corruption description."""

    kind: str  # "uniform_flip" or "background_flip"
    ratio: float
    num_classes: int = 10
    background_class: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform_flip", "background_flip"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError("noise ratio must lie in [0, 1]")
        if self.num_classes < 2:
            raise ConfigError("label noise needs at least two classes")
        if not 0 <= self.background_class < self.num_classes:
            raise ConfigError(
                f"background class {self.background_class} outside [0, {self.num_classes})"
            )


def _open_maybe_gzip(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    # Unbuffered, so that read() returns the payload in one allocation: a
    # buffered reader joins its buffer with the rest, a second full copy.
    return open(path, "rb", buffering=0)


def _read_exact(f, count: int, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxParseError(f"{what}: expected {count} bytes, file ends after {len(data)}")
    return data


def _read_idx(path: str, what: str, magic: int, ndim: int) -> tuple[tuple[int, ...], bytes]:
    """The ndim header sizes and the payload of one IDX file, checked against each other."""
    try:
        with _open_maybe_gzip(path) as f:
            (got,) = struct.unpack(">i", _read_exact(f, 4, f"{what} magic in {path}"))
            if got != magic:
                raise IdxParseError(
                    f"{what} magic: expected {magic:#010x}, got {got:#010x} in {path}"
                )
            dims = struct.unpack(f">{ndim}i", _read_exact(f, 4 * ndim, f"{what} header in {path}"))
            if dims[0] < 0 or any(d <= 0 for d in dims[1:]):
                raise IdxParseError(
                    f"{what} header: bad dimensions {'x'.join(map(str, dims))} in {path}"
                )
            payload = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        # A truncated or corrupted gzip stream, found while decompressing.
        raise IdxParseError(f"{what}: damaged compressed file {path}: {e}") from e
    expected = math.prod(dims)
    if len(payload) != expected:
        raise IdxParseError(
            f"{what} payload: header promises {expected} bytes, {path} has {len(payload)}"
        )
    return dims, payload


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Big-endian headers. Images come back as a read-only (count, rows * cols)
    uint8 view of the bytes read, not a copy. Files ending in .gz
    are decompressed transparently. Any header or size violation, and any
    damage to a compressed file, raises IdxParseError naming the offending
    file and field.
    """
    (count, rows, cols), payload = _read_idx(images_path, "images", IMAGE_MAGIC, 3)
    images = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    (lcount,), payload = _read_idx(labels_path, "labels", LABEL_MAGIC, 1)
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if count != lcount:
        raise IdxParseError(f"count mismatch: {count} images but {lcount} labels")
    return Dataset(images, labels)


def write_idx_labels(labels: np.ndarray, path: str) -> None:
    """Write labels back out in IDX form (gzipped when path ends in .gz)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise ConfigError("IDX labels must fit in a byte")
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, labels.size))
        f.write(labels.astype(np.uint8).tobytes())


def write_csv(path: str, header, rows) -> None:
    """Write a header row, then rows, as CSV: the format of every CSV the package writes.

    A float cell, np.float64 included, is written as its repr, so it reads
    back exactly (nan as `nan`); an integer cell, np.int64 included, as plain
    digits. Rows may be any iterable."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def make_imbalanced_pair(ds: Dataset, spec: ImbalanceSpec, rng: np.random.Generator) -> Dataset:
    """Subsample two classes at the requested ratio and relabel them 0/1.

    The minority count is round(total / (ratio + 1)), clamped to at least 1.
    Labels are remapped minority -> 0, majority -> 1.
    """
    n_min = max(1, int(round(spec.total / (spec.ratio + 1))))
    n_maj = spec.total - n_min
    min_pool = np.flatnonzero(ds.labels == spec.minority_class)
    maj_pool = np.flatnonzero(ds.labels == spec.majority_class)
    if min_pool.size < n_min:
        raise ConfigError(
            f"need {n_min} examples of class {spec.minority_class}, dataset has {min_pool.size}"
        )
    if maj_pool.size < n_maj:
        raise ConfigError(
            f"need {n_maj} examples of class {spec.majority_class}, dataset has {maj_pool.size}"
        )
    take_min = rng.choice(min_pool, size=n_min, replace=False)
    take_maj = rng.choice(maj_pool, size=n_maj, replace=False)
    idx = np.concatenate([take_min, take_maj])
    rng.shuffle(idx)
    new_labels = np.where(ds.labels[idx] == spec.minority_class, 0, 1).astype(np.int64)
    return Dataset(ds.images[idx], new_labels)


def filter_remap(ds: Dataset, label_map: dict) -> Dataset:
    """Keep only examples whose label is in the map, relabeled through it."""
    if not label_map:
        raise ConfigError("label map is empty")
    keep = np.isin(ds.labels, list(label_map))
    labels = ds.labels[keep]
    new_labels = np.array([label_map[int(y)] for y in labels], dtype=np.int64)
    return Dataset(ds.images[keep], new_labels)


def split_indices(size: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw `count` of `size` indices at random: returns (rest, taken)."""
    if not 0 <= count <= size:
        raise ConfigError(f"cannot split {count} examples from {size}")
    taken = rng.choice(size, size=count, replace=False)
    mask = np.zeros(size, dtype=bool)
    mask[taken] = True
    return np.flatnonzero(~mask), taken


def random_split(ds: Dataset, count: int, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Split off `count` random examples: returns (rest, taken)."""
    rest, taken = split_indices(len(ds), count, rng)
    return ds.subset(rest), ds.subset(taken)


def split_clean_validation(
    ds: Dataset, per_class: int, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Reserve per_class provenance-clean examples of every class as validation.

    Returns (train_rest, validation). per_class = 0 yields an empty validation
    set and leaves the dataset untouched.
    """
    if per_class < 0:
        raise ConfigError("per_class must be nonnegative")
    if per_class == 0:
        empty = ds.subset(np.empty(0, dtype=np.int64))
        return ds, empty
    clean = ds.labels == ds.original_labels
    chosen = []
    for c in np.unique(ds.labels):
        pool = np.flatnonzero((ds.labels == c) & clean)
        if pool.size < per_class:
            raise ConfigError(
                f"class {int(c)} has only {pool.size} clean examples, need {per_class}"
            )
        chosen.append(rng.choice(pool, size=per_class, replace=False))
    val_idx = np.concatenate(chosen)
    mask = np.zeros(len(ds), dtype=bool)
    mask[val_idx] = True
    return ds.subset(np.flatnonzero(~mask)), ds.subset(val_idx)


def corrupt(ds: Dataset, spec: NoiseSpec, rng: np.random.Generator) -> Dataset:
    """Corrupt labels as spec.kind says, each with probability spec.ratio.

    uniform_flip moves a label to a uniform choice among the other classes;
    background_flip moves a non-background label to the background class.
    Images and original_labels pass through, so the flips show in flipped_mask.
    """
    if len(ds) and ds.labels.max() >= spec.num_classes:
        raise ConfigError("dataset contains labels outside the declared class count")
    labels = ds.labels.copy()
    if spec.kind == "uniform_flip":
        flip = rng.random(len(ds)) < spec.ratio
        count = int(flip.sum())
        if count:
            # Uniform over the other num_classes - 1 labels: draw in [0, K-1) and
            # shift draws at or above the old label up by one.
            draw = rng.integers(0, spec.num_classes - 1, size=count)
            old = labels[flip]
            labels[flip] = draw + (draw >= old)
    else:
        flip = (labels != spec.background_class) & (rng.random(len(ds)) < spec.ratio)
        labels[flip] = spec.background_class
    return Dataset(ds.images, labels, ds.original_labels.copy())


def locate_mnist(root: str | None = None) -> dict | None:
    """Find the four MNIST IDX files; returns a path dict or None.

    Search order: explicit root, the MNIST_DIR environment variable,
    ./data/mnist, ~/mnist. Accepts .gz variants.
    """
    candidates = []
    if root:
        candidates.append(root)
    env = os.environ.get("MNIST_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(".", "data", "mnist"))
    candidates.append(os.path.expanduser(os.path.join("~", "mnist")))
    for base in candidates:
        found = {}
        for key, name in MNIST_FILES.items():
            for variant in (name, name + ".gz"):
                p = os.path.join(base, variant)
                if os.path.isfile(p):
                    found[key] = p
                    break
        if len(found) == len(MNIST_FILES):
            return found
    return None
