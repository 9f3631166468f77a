import functools
import time

import numpy as np
import pytest

from metareweight.checks import QUICK_CHECKS
from metareweight.data import Dataset, load_idx, locate_mnist

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
