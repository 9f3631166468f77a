"""Datasets: IDX loading, class imbalance, and label corruption.

Every dataset keeps a provenance array of original labels so that later
stages can tell clean examples from corrupted ones without re-deriving it.
"""

import csv
import gzip
import math
import mmap
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


class PixelRows:
    """Rows of one 2-D pixel array, named by an int64 row index.

    A subset, split or corruption of a dataset makes a new index over the
    same pixels, 8 bytes a row, and copies no pixel. Indexing with an integer
    array or a slice gathers the rows it names into a new array; `rows[:]`
    gathers them all, as a set that becomes one batch needs."""

    # Not iterable, so that NumPy refuses it instead of gathering it row by row.
    __iter__ = None

    def __init__(self, pixels: np.ndarray, index: np.ndarray):
        self.pixels = pixels
        self.index = index

    def select(self, idx) -> "PixelRows":
        """The rows at positions idx of these, over the same pixels."""
        return PixelRows(self.pixels, self.index[idx])

    def __getitem__(self, key) -> np.ndarray:
        return self.pixels[self.index[key]]

    def __len__(self) -> int:
        return self.index.size

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.pixels.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.pixels.dtype

    @property
    def nbytes(self) -> int:
        """The bytes the rows would take if gathered, not the bytes held."""
        return len(self) * self.pixels.shape[1] * self.pixels.itemsize


@dataclass
class Dataset:
    """Images (count, features), labels, and pre-corruption labels.

    `images` is a PixelRows over one pixel array, which every derived dataset
    shares: the read-only IDX mapping of `load_idx`, or the array passed in.
    uint8 images are pixel bytes, kept as such and scaled to [0, 1] only by
    `nn.Batch`; any other dtype becomes float64 and is model input as it is.
    `join` appends another dataset, as `train` folds validation into its pool."""

    images: PixelRows
    labels: np.ndarray
    original_labels: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.images, PixelRows):
            pixels = np.asarray(self.images)
            if pixels.dtype != np.uint8:
                pixels = np.asarray(pixels, dtype=np.float64)
            if pixels.ndim != 2:
                raise ConfigError(f"images must be 2-d, got shape {pixels.shape}")
            self.images = PixelRows(pixels, np.arange(pixels.shape[0]))
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.original_labels is None:
            self.original_labels = self.labels.copy()
        self.original_labels = np.asarray(self.original_labels, dtype=np.int64)
        if self.labels.shape != (len(self.images),):
            raise ConfigError("labels must have one entry per image")
        if self.original_labels.shape != self.labels.shape:
            raise ConfigError("original_labels must align with labels")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def flipped_mask(self) -> np.ndarray:
        """True where the current label differs from the pre-corruption one."""
        return self.labels != self.original_labels

    def subset(self, idx: np.ndarray) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(self.images.select(idx), self.labels[idx], self.original_labels[idx])

    def join(self, other: "Dataset") -> "Dataset":
        """These examples followed by other's. Two row sets of one pixel array,
        as a split leaves them, join their indices; rows of two arrays are gathered."""
        # np.concatenate would upcast pixel bytes to unscaled 0..255 floats.
        if self.images.dtype != other.images.dtype:
            raise ConfigError(f"cannot join {self.images.dtype} images with {other.images.dtype} images")
        if self.images.pixels is other.images.pixels:
            images = PixelRows(self.images.pixels, np.concatenate([self.images.index, other.images.index]))
        else:
            images = np.concatenate([self.images[:], other.images[:]])
        return Dataset(
            images,
            np.concatenate([self.labels, other.labels]),
            np.concatenate([self.original_labels, other.original_labels]),
        )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


GZ_CHUNK = 1 << 16  # decompressed bytes per read of a .gz file
DEFLATE_MAX_RATIO = 1032  # deflate expands a compressed byte to at most this many


def _decompressed(path: str, what: str, header: int) -> tuple[memoryview, int]:
    """A read-only view of a .gz file's decompressed header and the payload it
    promises, and the count of all its decompressed bytes.

    The payload is read a chunk at a time into one buffer sized from the
    header, so the pixels are held once: `GzipFile.read()` joins its chunks,
    which holds them twice at its peak. Bytes past the promised size are
    counted, not kept, and so is a payload larger than the compressed file
    could expand to. The whole stream is read, so damage anywhere in it is
    found before the header is checked."""
    try:
        with gzip.open(path, "rb") as f:
            head = buffer = f.read(header)
            length = len(head)
            if length == header:
                dims = struct.unpack_from(f">{header // 4 - 1}i", head, 4)
                size = math.prod(dims) if min(dims) >= 0 else 0
                if size > DEFLATE_MAX_RATIO * os.path.getsize(path):
                    size = 0
                buffer = bytearray(header + size)
                buffer[:header] = head
                while length < len(buffer) and (chunk := f.read(min(GZ_CHUNK, len(buffer) - length))):
                    buffer[length : length + len(chunk)] = chunk
                    length += len(chunk)
            while chunk := f.read(GZ_CHUNK):
                length += len(chunk)
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:
        # A truncated or corrupted gzip stream, found while decompressing.
        raise IdxParseError(f"{what}: damaged compressed file {path}: {e}") from e
    return memoryview(buffer).toreadonly(), length


def _mapped(path: str):
    """A read-only mapping of a plain file, which the caller's arrays view in
    place, so that a run pays only for the pages it reads."""
    with open(path, "rb") as f:
        # mmap refuses an empty file; its empty buffer fails the magic check instead.
        if os.fstat(f.fileno()).st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _unpack(fmt: str, buffer, offset: int, what: str) -> tuple[int, ...]:
    count = struct.calcsize(fmt)
    if len(buffer) < offset + count:
        raise IdxParseError(
            f"{what}: expected {count} bytes, file ends after {len(buffer) - offset}"
        )
    return struct.unpack_from(fmt, buffer, offset)


def _read_idx(path: str, what: str, magic: int, ndim: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The ndim header sizes and the uint8 payload of one IDX file, checked against each other."""
    header = 4 * (ndim + 1)
    if str(path).endswith(".gz"):
        buffer, length = _decompressed(path, what, header)
    else:
        buffer = _mapped(path)
        length = len(buffer)
    (got,) = _unpack(">i", buffer, 0, f"{what} magic in {path}")
    if got != magic:
        raise IdxParseError(f"{what} magic: expected {magic:#010x}, got {got:#010x} in {path}")
    dims = _unpack(f">{ndim}i", buffer, 4, f"{what} header in {path}")
    if dims[0] < 0 or any(d <= 0 for d in dims[1:]):
        raise IdxParseError(f"{what} header: bad dimensions {'x'.join(map(str, dims))} in {path}")
    expected = math.prod(dims)
    if length - header != expected:
        raise IdxParseError(
            f"{what} payload: header promises {expected} bytes, {path} has {length - header}"
        )
    return dims, np.frombuffer(buffer, dtype=np.uint8, offset=header)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset.

    Big-endian headers. The images are a PixelRows over a read-only
    (count, rows * cols) uint8 view, not a copy: of a read-only mapping of a
    plain file, whose pages are read only when an image is, or of the
    decompressed payload of a file ending in .gz, held once. Every subset,
    split, corruption and training pool made from the dataset indexes that
    view, so training reads the mapping at every step. Labels are copied out
    as int64. Do not truncate or rewrite an images file while a dataset made
    from it is in use, in training too: reading a mapped page past the end of
    a truncated file kills the process with SIGBUS. Any header
    or size violation, and any damage to a compressed file, raises
    IdxParseError naming the offending file and field.
    """
    (count, rows, cols), pixels = _read_idx(images_path, "images", IMAGE_MAGIC, 3)
    images = pixels.reshape(count, rows * cols)
    (lcount,), payload = _read_idx(labels_path, "labels", LABEL_MAGIC, 1)
    labels = payload.astype(np.int64)
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
    return Dataset(ds.images.select(idx), new_labels)


def filter_remap(ds: Dataset, label_map: dict) -> Dataset:
    """Keep only examples whose label is in the map, relabeled through it.

    The kept rows are copied out, so that a filtered set does not keep its
    whole source file mapped."""
    if not label_map:
        raise ConfigError("label map is empty")
    keys, values = (np.array(v, dtype=np.int64) for v in zip(*sorted(label_map.items())))
    keep = np.flatnonzero(np.isin(ds.labels, keys))
    return Dataset(ds.images[keep], values[np.searchsorted(keys, ds.labels[keep])])


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

    Returns (train_rest, validation). per_class = 0, or an empty dataset,
    yields an empty validation set.
    """
    if per_class < 0:
        raise ConfigError("per_class must be nonnegative")
    clean = ds.labels == ds.original_labels
    chosen = []
    for c in np.unique(ds.labels):
        pool = np.flatnonzero((ds.labels == c) & clean)
        if pool.size < per_class:
            raise ConfigError(
                f"class {int(c)} has only {pool.size} clean examples, need {per_class}"
            )
        chosen.append(rng.choice(pool, size=per_class, replace=False))
    val_idx = np.array(chosen, dtype=np.int64).ravel()  # class by class; no class gives no index
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

    An explicit root is the only place searched. Without one the search
    order is the MNIST_DIR environment variable, ./data/mnist, ~/mnist.
    Accepts .gz variants.
    """
    if root:
        candidates = [root]
    else:
        env = os.environ.get("MNIST_DIR")
        candidates = [env] if env else []
        candidates += [os.path.join(".", "data", "mnist"), os.path.expanduser(os.path.join("~", "mnist"))]
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
