"""Config file parsing, validation, and identity hashing."""

import numpy as np
import pytest

from metareweight.config import (
    build_experiment,
    canonical_items,
    config_hash,
    parse_config_file,
)
from metareweight.errors import ConfigError


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


BASIC = """
# training setup
strategy = meta_reweight
learning_rate = 1e-3
total_steps = 40
hidden_sizes = 32,16
lr_schedule = 20:0.1, 30:0.01
train_images = {d}/train-img
train_labels = {d}/train-lab
test_images = {d}/test-img
test_labels = {d}/test-lab
"""


class TestParsing:
    def test_values_and_defaults(self, tmp_path):
        cfg = parse_config_file(write_config(tmp_path, BASIC.format(d=tmp_path)))
        assert cfg["strategy"] == "meta_reweight"
        assert cfg["learning_rate"] == 1e-3
        assert cfg["total_steps"] == 40
        assert cfg["hidden_sizes"] == (32, 16)
        assert cfg["lr_schedule"] == [(20, 0.1), (30, 0.01)]
        assert cfg["batch_size_train"] == 100  # default
        assert cfg["imbalance_ratio"] is None  # absent optional

    def test_comments_blank_lines_blank_values(self, tmp_path):
        text = "seed = 3\n\n# comment only\nsubset_total =\nactivation = tanh  # trailing\n"
        cfg = parse_config_file(write_config(tmp_path, text))
        assert cfg["seed"] == 3
        assert cfg["subset_total"] is None
        assert cfg["activation"] == "tanh"

    def test_unknown_key_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="learning_rte"):
            parse_config_file(write_config(tmp_path, "learning_rte = 0.1\n"))

    def test_duplicate_key(self, tmp_path):
        for text in ("seed = 1\nseed = 2\n", "seed =\nseed = 3\n"):
            with pytest.raises(ConfigError, match="duplicate"):
                parse_config_file(write_config(tmp_path, text))

    def test_bad_value_names_field(self, tmp_path):
        with pytest.raises(ConfigError, match="total_steps"):
            parse_config_file(write_config(tmp_path, "total_steps = soon\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "absent.cfg"))

    def test_line_without_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(write_config(tmp_path, "strategy uniform\n"))


class TestHash:
    def test_invariant_to_field_order(self, tmp_path):
        a = parse_config_file(write_config(tmp_path, "seed = 1\nstrategy = uniform\ntotal_steps = 9\n", "a.cfg"))
        b = parse_config_file(write_config(tmp_path, "total_steps = 9\nstrategy = uniform\nseed = 1\n", "b.cfg"))
        assert config_hash(a) == config_hash(b)

    def test_excludes_seed_repeat_output_dir(self, tmp_path):
        a = parse_config_file(write_config(tmp_path, "seed = 1\nrepeat = 2\noutput_dir = x\n", "a.cfg"))
        b = parse_config_file(write_config(tmp_path, "seed = 9\nrepeat = 5\noutput_dir = y\n", "b.cfg"))
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_experiment_fields(self, tmp_path):
        a = parse_config_file(write_config(tmp_path, "learning_rate = 1e-3\n", "a.cfg"))
        b = parse_config_file(write_config(tmp_path, "learning_rate = 2e-3\n", "b.cfg"))
        assert config_hash(a) != config_hash(b)

    def test_readme_example_hash_pinned(self, tmp_path):
        # The README's imbalance.cfg; its hash names existing run directories,
        # so no schema edit may change it.
        text = (
            "strategy = meta_reweight\nlearning_rate = 1e-3\nbatch_size_train = 100\n"
            "batch_size_val = 10\ntotal_steps = 8000\neval_every = 200\n"
            "train_images = mnist/train-images-idx3-ubyte\ntrain_labels = mnist/train-labels-idx1-ubyte\n"
            "test_images = mnist/t10k-images-idx3-ubyte\ntest_labels = mnist/t10k-labels-idx1-ubyte\n"
            "imbalance_ratio = 200\nimbalance_total = 5000\nminority_class = 4\nmajority_class = 9\n"
            "val_per_class = 5\nrepeat = 10\noutput_dir = runs/imb200\n"
        )
        assert config_hash(parse_config_file(write_config(tmp_path, text))) == "2b3c233ff3b54697"

    def test_canonical_items_cover_schema(self, tmp_path):
        cfg = parse_config_file(write_config(tmp_path, "seed = 1\n"))
        keys = [k for k, _ in canonical_items(cfg)]
        assert "seed" not in keys and "output_dir" not in keys
        assert "strategy" in keys and "noise_kind" in keys


class TestBuildExperiment:
    def _paths(self, tmp_path):
        for name in ("train-img", "train-lab", "test-img", "test-lab"):
            (tmp_path / name).write_bytes(b"x")
        return BASIC.format(d=tmp_path)

    def test_builds(self, tmp_path):
        exp = build_experiment(parse_config_file(write_config(tmp_path, self._paths(tmp_path))))
        assert exp.train.strategy == "meta_reweight"
        assert exp.train.hidden_sizes == (32, 16)
        assert exp.imbalance is None and exp.noise is None

    def test_missing_required_path_named(self, tmp_path):
        text = self._paths(tmp_path).replace(f"test_labels = {tmp_path}/test-lab\n", "")
        with pytest.raises(ConfigError, match="test_labels"):
            build_experiment(parse_config_file(write_config(tmp_path, text)))

    def test_nonexistent_path_named(self, tmp_path):
        text = self._paths(tmp_path).replace(f"{tmp_path}/test-lab", f"{tmp_path}/gone")
        with pytest.raises(ConfigError, match="test_labels"):
            build_experiment(parse_config_file(write_config(tmp_path, text)))

    def test_imbalance_and_noise_assembled(self, tmp_path):
        text = self._paths(tmp_path) + (
            "imbalance_ratio = 100\nimbalance_total = 500\n"
            "noise_kind = uniform_flip\nnoise_ratio = 0.4\nnum_classes = 2\n"
        )
        exp = build_experiment(parse_config_file(write_config(tmp_path, text)))
        assert exp.imbalance.ratio == 100 and exp.imbalance.total == 500
        assert exp.noise.kind == "uniform_flip" and exp.noise.ratio == 0.4

    def test_meta_without_validation_rejected(self, tmp_path):
        text = self._paths(tmp_path) + "val_per_class = 0\n"
        with pytest.raises(ConfigError, match="val_per_class"):
            build_experiment(parse_config_file(write_config(tmp_path, text)))

    def test_bad_strategy_rejected(self, tmp_path):
        text = self._paths(tmp_path).replace("meta_reweight", "mystery")
        with pytest.raises(ConfigError, match="strategy"):
            build_experiment(parse_config_file(write_config(tmp_path, text)))

    def test_fuzzed_config_builds_or_raises_config_error(self, tmp_path):
        # Seeded truncations and single bit flips of a valid config: each one
        # builds an experiment or raises ConfigError, nothing else.
        good = (self._paths(tmp_path) + (
            "seed = 3\nimbalance_ratio = 100\nimbalance_total = 500\n"
            "noise_kind = uniform_flip\nnoise_ratio = 0.4\nnum_classes = 2\n"
        )).encode()
        build_experiment(parse_config_file(write_config(tmp_path, good.decode())))
        rng = np.random.default_rng(91)
        path = tmp_path / "fuzzed.cfg"
        outcomes = {"built": 0, "rejected": 0}
        for trial in range(400):
            data = bytearray(good)
            if trial % 2:
                del data[rng.integers(len(good)):]
            else:
                bit = int(rng.integers(8 * len(good)))
                data[bit // 8] ^= 1 << bit % 8
            path.write_bytes(data)
            try:
                build_experiment(parse_config_file(str(path)))
                outcomes["built"] += 1
            except ConfigError:
                outcomes["rejected"] += 1
        assert outcomes["built"] and outcomes["rejected"]
