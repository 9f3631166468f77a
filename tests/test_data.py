"""Dataset tests: IDX parsing against hand-built byte strings, bias
generators against explicit counting oracles."""

import csv
import gzip
import struct

import numpy as np
import pytest

from metareweight.data import (
    Dataset,
    ImbalanceSpec,
    NoiseSpec,
    corrupt,
    filter_remap,
    load_idx,
    locate_mnist,
    make_imbalanced_pair,
    random_split,
    split_clean_validation,
    write_csv,
    write_idx_labels,
)
from metareweight.errors import ConfigError, IdxParseError
from metareweight.experiment import write_weights_csv
from metareweight.nn import Batch


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


class TestIdxParsing:
    def test_roundtrip_and_scaling(self, tmp_path):
        images = np.array([[[0, 128], [255, 3]], [[1, 2], [3, 4]]], dtype=np.uint8)
        labels = [7, 2]
        ds = load_idx(*write_pair(tmp_path, images, labels))
        # The file's bytes, unscaled and read-only; Batch scales them.
        assert ds.images.shape == (2, 4)
        assert ds.images.dtype == np.uint8
        assert ds.images.tobytes() == images.tobytes()
        assert not ds.images.flags.writeable
        inputs = Batch(ds.images, ds.labels).inputs
        assert inputs.dtype == np.float64
        want = images.reshape(2, 4).astype(np.float64) / 255.0
        assert np.array_equal(inputs, want)
        assert inputs[0, 2] == 1.0 and inputs[0, 0] == 0.0
        assert list(ds.labels) == labels
        assert np.array_equal(ds.labels, ds.original_labels)

    def test_gzip_transparent(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        ds = load_idx(*write_pair(tmp_path, images, [1, 0], gz=True))
        assert len(ds) == 2
        assert ds.images.dtype == np.uint8
        assert ds.images.tobytes() == images.tobytes()
        assert not ds.images.flags.writeable
        inputs = Batch(ds.images, ds.labels).inputs
        assert inputs.dtype == np.float64
        assert np.array_equal(inputs, images.reshape(2, 4).astype(np.float64) / 255.0)

    def test_mnist_sized_file_holds_one_byte_per_pixel(self, tmp_path):
        header = struct.pack(">iiii", 0x00000803, 60000, 28, 28)
        ds = load_idx(*write_raw_pair(tmp_path, header + bytes(60000 * 784), idx_labels_bytes(np.zeros(60000))))
        assert ds.images.shape == (60000, 784)
        assert ds.images.nbytes == 60000 * 784

    def test_wrong_image_magic(self, tmp_path):
        # Labels magic where images are expected.
        pair = write_raw_pair(tmp_path, idx_labels_bytes([1]), idx_labels_bytes([1]))
        with pytest.raises(IdxParseError, match="images magic"):
            load_idx(*pair)

    def test_wrong_label_magic(self, tmp_path):
        # Images magic where labels are expected.
        images = idx_images_bytes(np.zeros((1, 2, 2)))
        with pytest.raises(IdxParseError, match="labels magic"):
            load_idx(*write_raw_pair(tmp_path, images, images))

    def test_truncated_payload(self, tmp_path):
        # Header claims one 2x2 image but carries no payload bytes.
        pair = write_raw_pair(tmp_path, struct.pack(">iiii", 0x00000803, 1, 2, 2), idx_labels_bytes([0]))
        with pytest.raises(IdxParseError, match="images payload"):
            load_idx(*pair)

    def test_trailing_bytes_rejected(self, tmp_path):
        pair = write_raw_pair(tmp_path, idx_images_bytes(np.zeros((1, 2, 2))) + b"\x00", idx_labels_bytes([0]))
        with pytest.raises(IdxParseError, match="images payload"):
            load_idx(*pair)

    def test_count_mismatch(self, tmp_path):
        with pytest.raises(IdxParseError, match="count mismatch"):
            load_idx(*write_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 2]))

    def test_write_labels_roundtrip(self, tmp_path):
        images, _ = write_pair(tmp_path, np.zeros((3, 2, 2)), [0, 0, 0])
        out = tmp_path / "out-labels"
        write_idx_labels(np.array([3, 1, 9]), str(out))
        ds = load_idx(images, str(out))
        assert list(ds.labels) == [3, 1, 9]

    def test_write_labels_gz(self, tmp_path):
        out = tmp_path / "out-labels.gz"
        write_idx_labels(np.array([5, 0]), str(out))
        raw = gzip.decompress(out.read_bytes())
        assert raw == idx_labels_bytes([5, 0])

    def test_fuzzed_files_load_or_raise_idx_parse_error(self, tmp_path):
        # Seeded truncations and single bit flips of each file of a valid
        # pair, plain and gzipped. Every truncation is rejected, naming the
        # file; a flip may load (a pixel or a gzip header field) or be rejected.
        rng = np.random.default_rng(90)
        images = rng.integers(0, 256, size=(6, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=6)
        loaded = 0
        for gz in (False, True):
            pair = write_pair(tmp_path, images, labels, gz=gz)
            bad = tmp_path / ("bad.gz" if gz else "bad")
            for which in (0, 1):
                with open(pair[which], "rb") as f:
                    good = f.read()
                for trial in range(100):
                    data = bytearray(good)
                    if trial % 2:
                        del data[rng.integers(len(good)):]
                    else:
                        bit = int(rng.integers(8 * len(good)))
                        data[bit // 8] ^= 1 << bit % 8
                    bad.write_bytes(data)
                    args = [str(bad), pair[1]] if which == 0 else [pair[0], str(bad)]
                    try:
                        load_idx(*args)
                    except IdxParseError as e:
                        assert str(bad) in str(e)
                    else:
                        assert not trial % 2, "a truncated file loaded"
                        loaded += 1
        assert loaded


class TestCsvRows:
    def test_floats_read_back_bitwise(self, tmp_path):
        values = [0.1, 1 / 3, -0.0, 1e-300, 2.5e17, float("nan")]
        path = tmp_path / "floats.csv"
        write_csv(str(path), ["float", "float64"], [(v, np.float64(v)) for v in values])
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["float", "float64"] and len(rows) == len(values) + 1
        for v, row in zip(values, rows[1:]):
            assert [struct.pack("<d", float(cell)) for cell in row] == [struct.pack("<d", v)] * 2

    def test_int64_cells_are_digits(self, tmp_path):
        path = tmp_path / "ints.csv"
        write_csv(str(path), ["a", "b"], [(np.int64(7), np.int64(-12345678901234))])
        assert path.read_text().splitlines() == ["a,b", "7,-12345678901234"]

    def test_weights_flipped_column_is_zero_or_one(self, tmp_path):
        path = tmp_path / "weights.csv"
        log = {"step": np.array([3, 3]), "weight": np.array([0.25, 0.0])}
        write_weights_csv({**log, "flipped": np.array([True, False])}, str(path))
        assert path.read_text().splitlines() == ["step,weight,flipped", "3,0.25,1", "3,0.0,0"]


def labeled_dataset(rng, counts: dict) -> Dataset:
    labels = np.concatenate([np.full(c, lab) for lab, c in counts.items()])
    rng.shuffle(labels)
    images = rng.random((labels.size, 4))
    return Dataset(images, labels)


class TestImbalance:
    def test_exact_counts_and_remap(self):
        rng = np.random.default_rng(50)
        ds = labeled_dataset(rng, {4: 3000, 9: 6000, 1: 50})
        # Independent oracle for the split sizes. 5000 / 101 = 49.5 needs the
        # rounding; at ratio 50, 5000 / 50 = 100 tells the wrong divisor apart.
        for ratio in (100, 50):
            spec = ImbalanceSpec(ratio=ratio, total=5000)
            out = make_imbalanced_pair(ds, spec, rng)
            want_min = round(5000 / (ratio + 1))
            assert len(out) == 5000
            assert int((out.labels == 0).sum()) == want_min
            assert int((out.labels == 1).sum()) == 5000 - want_min
            assert set(np.unique(out.labels)) == {0, 1}
            assert not out.flipped_mask.any()
            assert spec.label_map == {4: 0, 9: 1}

    def test_minimum_one_minority(self):
        rng = np.random.default_rng(51)
        ds = labeled_dataset(rng, {4: 10, 9: 600})
        out = make_imbalanced_pair(ds, ImbalanceSpec(ratio=500, total=501), rng)
        assert int((out.labels == 0).sum()) == 1

    def test_insufficient_pool_raises(self):
        rng = np.random.default_rng(52)
        ds = labeled_dataset(rng, {4: 2, 9: 100})
        with pytest.raises(ConfigError):
            make_imbalanced_pair(ds, ImbalanceSpec(ratio=10, total=100), rng)

    def test_total_below_ratio_rejected(self):
        with pytest.raises(ConfigError):
            ImbalanceSpec(ratio=10, total=10)

    def test_same_classes_rejected(self):
        with pytest.raises(ConfigError):
            ImbalanceSpec(ratio=10, total=100, minority_class=4, majority_class=4)

    def test_filter_remap_test_set(self):
        rng = np.random.default_rng(53)
        ds = labeled_dataset(rng, {4: 20, 9: 30, 7: 40})
        out = filter_remap(ds, {4: 0, 9: 1})
        assert len(out) == 50
        assert set(np.unique(out.labels)) == {0, 1}
        assert int((out.labels == 0).sum()) == 20

    def test_images_travel_with_labels(self):
        rng = np.random.default_rng(54)
        ds = labeled_dataset(rng, {4: 40, 9: 40})
        out = make_imbalanced_pair(ds, ImbalanceSpec(ratio=1, total=40), rng)
        # Every selected image must exist in the source with a consistent label.
        src = {ds.images[i].tobytes(): int(ds.labels[i]) for i in range(len(ds))}
        for i in range(len(out)):
            orig = src[out.images[i].tobytes()]
            assert out.labels[i] == (0 if orig == 4 else 1)


class TestValidationSplit:
    def test_balanced_and_clean(self):
        rng = np.random.default_rng(55)
        ds = labeled_dataset(rng, {0: 50, 1: 50})
        noisy = corrupt(ds, NoiseSpec("uniform_flip", 0.5, num_classes=2), rng)
        train, val = split_clean_validation(noisy, 5, rng)
        assert len(val) == 10
        assert int((val.labels == 0).sum()) == 5
        assert not val.flipped_mask.any()  # only provenance-clean examples
        assert len(train) == len(noisy) - 10

    def test_disjoint_and_complete(self):
        rng = np.random.default_rng(56)
        ds = labeled_dataset(rng, {0: 30, 1: 30})
        train, val = split_clean_validation(ds, 3, rng)
        seen = {img.tobytes() for img in ds.images}
        got = {img.tobytes() for img in train.images} | {img.tobytes() for img in val.images}
        assert got == seen
        assert len(train) + len(val) == len(ds)

    def test_zero_per_class(self):
        rng = np.random.default_rng(57)
        ds = labeled_dataset(rng, {0: 5, 1: 5})
        train, val = split_clean_validation(ds, 0, rng)
        assert len(val) == 0 and len(train) == len(ds)

    def test_insufficient_clean_raises(self):
        rng = np.random.default_rng(58)
        ds = labeled_dataset(rng, {0: 4, 1: 50})
        with pytest.raises(ConfigError):
            split_clean_validation(ds, 5, rng)


class TestUniformFlip:
    def test_ratio_zero_is_identity(self):
        rng = np.random.default_rng(60)
        ds = labeled_dataset(rng, {0: 20, 1: 20})
        out = corrupt(ds, NoiseSpec("uniform_flip", 0.0, num_classes=2), rng)
        assert np.array_equal(out.labels, ds.labels)
        assert not out.flipped_mask.any()

    def test_ratio_one_flips_everything(self):
        rng = np.random.default_rng(61)
        ds = labeled_dataset(rng, {0: 50, 1: 50, 2: 50})
        out = corrupt(ds, NoiseSpec("uniform_flip", 1.0, num_classes=3), rng)
        assert (out.labels != ds.labels).all()
        assert np.array_equal(out.original_labels, ds.labels)
        assert np.shares_memory(out.images, ds.images)  # labels change, images pass through

    def test_flip_rate_and_uniform_target(self):
        rng = np.random.default_rng(62)
        ds = labeled_dataset(rng, {0: 30000})
        out = corrupt(ds, NoiseSpec("uniform_flip", 0.4, num_classes=10), rng)
        frac = float(out.flipped_mask.mean())
        assert abs(frac - 0.4) <= 0.02
        flipped_to = out.labels[out.flipped_mask]
        assert 0 not in set(np.unique(flipped_to))  # never flips onto itself
        counts = np.bincount(flipped_to, minlength=10)[1:]
        freqs = counts / counts.sum()
        assert np.abs(freqs - 1 / 9).max() <= 0.02  # uniform over the others

    def test_deterministic(self):
        ds = labeled_dataset(np.random.default_rng(63), {0: 100, 1: 100})
        spec = NoiseSpec("uniform_flip", 0.3, num_classes=2)
        a = corrupt(ds, spec, np.random.default_rng(5))
        b = corrupt(ds, spec, np.random.default_rng(5))
        assert np.array_equal(a.labels, b.labels)

    def test_label_outside_classes_raises(self):
        ds = labeled_dataset(np.random.default_rng(64), {0: 5, 7: 5})
        with pytest.raises(ConfigError):
            corrupt(ds, NoiseSpec("uniform_flip", 0.2, num_classes=3), np.random.default_rng(0))


class TestBackgroundFlip:
    def test_background_untouched_others_flip_to_it(self):
        rng = np.random.default_rng(65)
        ds = labeled_dataset(rng, {0: 500, 1: 500, 2: 500})
        out = corrupt(ds, NoiseSpec("background_flip", 1.0, num_classes=3), rng)
        was_background = ds.labels == 0
        assert np.array_equal(out.labels[was_background], ds.labels[was_background])
        assert (out.labels[~was_background] == 0).all()
        assert np.shares_memory(out.images, ds.images)

    def test_flip_rate(self):
        rng = np.random.default_rng(66)
        ds = labeled_dataset(rng, {1: 20000})
        out = corrupt(ds, NoiseSpec("background_flip", 0.3, num_classes=2, background_class=0), rng)
        assert abs(float(out.flipped_mask.mean()) - 0.3) <= 0.02

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec("background_flip", 0.5, num_classes=3, background_class=3)
        with pytest.raises(ConfigError):
            NoiseSpec("uniform_flip", 1.5)
        with pytest.raises(ConfigError):
            NoiseSpec("mystery", 0.5)


class TestSplitsAndSubsets:
    def test_random_split_sizes_disjoint(self):
        rng = np.random.default_rng(67)
        ds = labeled_dataset(rng, {0: 40, 1: 40})
        rest, taken = random_split(ds, 30, rng)
        assert len(taken) == 30 and len(rest) == 50
        a = {img.tobytes() for img in rest.images}
        b = {img.tobytes() for img in taken.images}
        assert not (a & b)

    def test_random_split_bad_count(self):
        ds = labeled_dataset(np.random.default_rng(68), {0: 5})
        with pytest.raises(ConfigError):
            random_split(ds, 6, np.random.default_rng(0))

    def test_subset_carries_provenance(self):
        rng = np.random.default_rng(69)
        ds = labeled_dataset(rng, {0: 30, 1: 30})
        noisy = corrupt(ds, NoiseSpec("uniform_flip", 0.5, num_classes=2), rng)
        sub = noisy.subset(np.arange(10))
        assert np.array_equal(sub.flipped_mask, noisy.flipped_mask[:10])

    def test_dataset_validation(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ConfigError):
            Dataset(np.zeros(3), np.zeros(3, dtype=int))


class TestLocateMnist:
    def test_found_via_explicit_root(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        names = [
            "train-images-idx3-ubyte",
            "train-labels-idx1-ubyte",
            "t10k-images-idx3-ubyte",
            "t10k-labels-idx1-ubyte",
        ]
        for name in names:
            if "images" in name:
                (tmp_path / name).write_bytes(idx_images_bytes(images))
            else:
                (tmp_path / name).write_bytes(idx_labels_bytes([0]))
        paths = locate_mnist(str(tmp_path))
        assert paths is not None
        assert paths["train_images"].endswith("train-images-idx3-ubyte")

    def test_missing_returns_none(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert locate_mnist(str(tmp_path / "nowhere")) is None
