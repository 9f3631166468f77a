import csv
import functools
import gzip
import struct
import time
import tracemalloc

import numpy as np
import pytest

from metareweight.checks import QUICK_CHECKS
from metareweight.data import MNIST_FILES, Dataset, load_idx, locate_mnist

# One line per acceptance criterion, filled in by tests/test_acceptance.py and
# echoed after the run so the verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@functools.cache
def run_check(name: str) -> tuple[bool, str, float]:
    """(passed, detail, seconds) of one QUICK_CHECKS entry, run once per session."""
    started = time.perf_counter()
    ok, detail = dict(QUICK_CHECKS)[name]()
    return ok, detail, time.perf_counter() - started


def csv_rows(path, reader=csv.reader) -> list:
    """Every row that reader makes of the CSV file at path."""
    with open(path, newline="") as f:
        return list(reader(f))


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak bytes tracemalloc saw allocated while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def damaged_copies(good: bytes, rng, trials: int):
    """(truncated, data) for each trial: odd trials cut good at an offset drawn
    from rng, even trials flip one bit drawn from rng."""
    for trial in range(trials):
        data = bytearray(good)
        if trial % 2:
            del data[rng.integers(len(good)):]
        else:
            bit = int(rng.integers(8 * len(good)))
            data[bit // 8] ^= 1 << bit % 8
        yield bool(trial % 2), data


def idx_images_bytes(arrays):
    """Hand-rolled IDX image encoding; the test-side reference writer."""
    arr = np.asarray(arrays, dtype=np.uint8)
    count, rows, cols = arr.shape
    return struct.pack(">iiii", 0x00000803, count, rows, cols) + arr.tobytes()


def idx_labels_bytes(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", 0x00000801, labels.size) + labels.tobytes()


def write_raw_pair(tmp_path, image_bytes, label_bytes, gz=False):
    """An image and a label file holding exactly these bytes (gzipped if gz)."""
    paths = []
    for name, data in (("images-idx3-ubyte", image_bytes), ("labels-idx1-ubyte", label_bytes)):
        path = tmp_path / (name + (".gz" if gz else ""))
        path.write_bytes(gzip.compress(data) if gz else data)
        paths.append(str(path))
    return tuple(paths)


def write_pair(tmp_path, images, labels, gz=False):
    return write_raw_pair(tmp_path, idx_images_bytes(images), idx_labels_bytes(labels), gz)


def write_mnist(root, train=(np.zeros((1, 2, 2)), [0]), test=None) -> dict:
    """The four MNIST-named IDX files in root, made if missing: train and test
    are (images, labels), test defaults to train. Returns the paths by
    MNIST_FILES key."""
    root.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, name in MNIST_FILES.items():
        images, labels = train if key.startswith("train") else test or train
        (root / name).write_bytes(idx_images_bytes(images) if key.endswith("images") else idx_labels_bytes(labels))
        paths[key] = str(root / name)
    return paths


def make_blobs(rng, n_per_class=60, d=6, k=2, spread=0.35) -> Dataset:
    """Linearly separable-ish gaussian blobs for smoke training."""
    centers = rng.random((k, d))
    images = []
    labels = []
    for c in range(k):
        images.append(centers[c] + spread * rng.standard_normal((n_per_class, d)))
        labels.append(np.full(n_per_class, c))
    images = np.clip(np.concatenate(images), 0.0, 1.0)
    labels = np.concatenate(labels)
    order = rng.permutation(images.shape[0])
    return Dataset(images[order], labels[order])


@pytest.fixture(scope="session")
def mnist_paths():
    paths = locate_mnist()
    if paths is None:
        pytest.skip("MNIST IDX files not found; set MNIST_DIR to the directory holding them")
    return paths


@pytest.fixture(scope="session")
def mnist_train(mnist_paths):
    return load_idx(mnist_paths["train_images"], mnist_paths["train_labels"])


@pytest.fixture(scope="session")
def mnist_test(mnist_paths):
    return load_idx(mnist_paths["test_images"], mnist_paths["test_labels"])
