"""Generate MNIST-shaped IDX files from a seed.

    PYTHONPATH=src python3 perfbench/gen.py --seed 3 --out DIR

writes the four files `locate_mnist` looks for (60,000 train and 10,000 test
28x28 uint8 images, 10 classes) under DIR. The same seed gives the same bytes.

Each class has one smooth stroke-like prototype. An image of class c is
(1 - lam) * P_c + lam * P_other + shared style patterns + pixel noise, with
lam spread evenly up to LAM_MAX. P_other is the class's sibling (4 and 9,
as in MNIST, are one pair) for half the images and a random other class for
the rest, so a fixed share of images sits past a class boundary and test
error stays well above zero, also on the two-class 4-vs-9 task. Train and test
draw from the same prototypes and style patterns: only the examples differ.
(Drawing separate prototypes for the test set leaves every model at chance.)
"""

import argparse
import os
import struct

import numpy as np

from metareweight.data import IMAGE_MAGIC, LABEL_MAGIC, MNIST_FILES

SIDE = 28
CLASSES = 10
TRAIN_COUNT = 60_000
TEST_COUNT = 10_000
STYLES = 8
LAM_MAX = 0.6
STYLE_SCALE = 0.15
PIXEL_NOISE = 0.2
INK_CUT = 0.3
CHUNK = 10_000
SIBLING = np.array([6, 7, 8, 5, 9, 3, 0, 1, 2, 4])


def _smooth_field(rng: np.random.Generator, count: int) -> np.ndarray:
    """count smooth 28x28 fields: a 7x7 normal grid, upsampled and box-blurred."""
    coarse = rng.standard_normal((count, 7, 7), dtype=np.float32)
    fine = np.kron(coarse, np.ones((4, 4)))
    for axis in (1, 2):
        fine = (np.roll(fine, 1, axis) + fine + np.roll(fine, -1, axis)) / 3.0
    return fine.reshape(count, SIDE * SIDE)


def _patterns(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes in [0, 1] (about a fifth of pixels lit) and style patterns."""
    field = _smooth_field(rng, CLASSES)
    cut = np.quantile(field, 0.8, axis=1, keepdims=True)
    protos = (1.0 / (1.0 + np.exp(-8.0 * (field - cut)))).astype(np.float32)
    styles = _smooth_field(rng, STYLES)
    styles /= np.abs(styles).max(axis=1, keepdims=True)
    return protos, styles


def _draw(rng: np.random.Generator, protos, styles, count: int) -> tuple[np.ndarray, np.ndarray]:
    labels = rng.integers(0, CLASSES, size=count)
    images = np.empty((count, SIDE * SIDE), dtype=np.uint8)
    for start in range(0, count, CHUNK):
        y = labels[start : start + CHUNK]
        n = y.size
        other = (y + rng.integers(1, CLASSES, size=n)) % CLASSES
        # Stratified within each class, so the share of images past the
        # class boundary is the same for every seed.
        lam = np.empty((n, 1), dtype=np.float32)
        for c in range(CLASSES):
            idx = np.flatnonzero(y == c)
            rank = rng.permutation(idx.size)
            lam[idx, 0] = LAM_MAX * (rank + rng.random(idx.size)) / idx.size
            other[idx[rank % 2 == 0]] = SIBLING[c]
        x = (1.0 - lam) * protos[y] + lam * protos[other]
        x += STYLE_SCALE * (rng.standard_normal((n, STYLES), dtype=np.float32) @ styles)
        x += PIXEL_NOISE * rng.standard_normal(x.shape, dtype=np.float32)
        x[x < INK_CUT] = 0.0
        images[start : start + n] = np.rint(np.clip(x, 0.0, 1.0) * 255.0)
    return images, labels.astype(np.uint8)


def generate(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(train_images, train_labels, test_images, test_labels) as uint8 arrays."""
    proto_seq, train_seq, test_seq = np.random.SeedSequence(seed).spawn(3)
    protos, styles = _patterns(np.random.default_rng(proto_seq))
    train = _draw(np.random.default_rng(train_seq), protos, styles, TRAIN_COUNT)
    test = _draw(np.random.default_rng(test_seq), protos, styles, TEST_COUNT)
    return train + test


def write_idx(out_dir: str, seed: int) -> dict:
    """Write the four IDX files for seed under out_dir; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    # MNIST_FILES lists train images, train labels, test images, test labels:
    # the order generate() returns them in.
    for (key, name), arr in zip(MNIST_FILES.items(), generate(seed)):
        if arr.ndim == 2:
            header = struct.pack(">iiii", IMAGE_MAGIC, arr.shape[0], SIDE, SIDE)
        else:
            header = struct.pack(">ii", LABEL_MAGIC, arr.shape[0])
        paths[key] = os.path.join(out_dir, name)
        with open(paths[key], "wb") as f:
            f.write(header)
            f.write(arr.tobytes())
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write_idx(args.out, args.seed)


if __name__ == "__main__":
    main()
