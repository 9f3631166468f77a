"""Config file parsing, validation, identity hashing, and the experiment a
config builds."""

import gc
import weakref

import numpy as np
import pytest

from metareweight.config import (
    build_experiment,
    canonical_items,
    config_hash,
    parse_config_file,
)
from metareweight.data import load_idx
from metareweight.errors import ConfigError
from metareweight.experiment import prepare_datasets, run_experiment

from test_cli import synth_mnist_like, write_train_config


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

    def test_duplicate_key(self, tmp_path):
        for text in ("seed = 1\nseed = 2\n", "seed =\nseed = 3\n"):
            with pytest.raises(ConfigError, match="duplicate"):
                parse_config_file(write_config(tmp_path, text))

    @pytest.mark.parametrize("text, match", [
        pytest.param("learning_rte = 0.1\n", ":1: unknown config field 'learning_rte'$", id="unknown_key"),
        pytest.param("total_steps = soon\n", ":1: field 'total_steps': invalid literal for int", id="bad_value"),
        pytest.param("strategy uniform\n", ":1: expected key = value, got 'strategy uniform'$",
                     id="line_without_equals"),
    ])
    def test_bad_file_rejected(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_file(write_config(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(str(tmp_path / "absent.cfg"))


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

    def test_imbalance_and_noise_assembled(self, tmp_path):
        text = self._paths(tmp_path) + (
            "imbalance_ratio = 100\nimbalance_total = 500\n"
            "noise_kind = uniform_flip\nnoise_ratio = 0.4\nnum_classes = 2\n"
        )
        exp = build_experiment(parse_config_file(write_config(tmp_path, text)))
        assert exp.imbalance.ratio == 100 and exp.imbalance.total == 500
        assert exp.noise.kind == "uniform_flip" and exp.noise.ratio == 0.4

    def test_imbalance_test_set_filtered_and_remapped(self, tmp_path):
        paths = synth_mnist_like(tmp_path, k=3)
        pair = "imbalance_ratio = 2\nimbalance_total = 30\nminority_class = 1\nmajority_class = 0\n"
        exp = build_experiment(parse_config_file(write_train_config(tmp_path, paths, extra=pair)))
        base_test = load_idx(paths["test_images"], paths["test_labels"])
        base_train = load_idx(paths["train_images"], paths["train_labels"])
        _, _, test, _ = prepare_datasets(exp, 0, base_train, base_test)
        keep = np.flatnonzero(base_test.labels != 2)
        assert 0 < keep.size < len(base_test)
        np.testing.assert_array_equal(test.images, base_test.images[keep])
        np.testing.assert_array_equal(test.labels, 1 - base_test.labels[keep])

    @pytest.mark.parametrize("edit, match", [
        # Each edit is of the BASIC template, before its {d} names the directory.
        pytest.param(lambda text: text + "val_per_class = 0\n",
                     "^field 'val_per_class': meta_reweight needs a validation split$", id="val_per_class-0"),
        pytest.param(lambda text: text + "early_stop_on_hyperval = true\n",
                     "^field 'early_stop_on_hyperval': needs hyperval_total > 0$", id="early_stop_on_hyperval-true"),
        pytest.param(lambda text: text + "noise_ratio = 0.4\n",
                     "^field 'noise_ratio': needs a noise_kind$", id="noise_ratio-0.4"),
        pytest.param(lambda text: text.replace("test_labels = {d}/test-lab\n", ""),
                     "^field 'test_labels' is required$", id="required_path_missing"),
        pytest.param(lambda text: text.replace("{d}/test-lab", "{d}/gone"),
                     "^field 'test_labels': file not found: .*gone$", id="path_not_found"),
        pytest.param(lambda text: text.replace("meta_reweight", "mystery"),
                     "^strategy: unknown value 'mystery'$", id="unknown_strategy"),
        pytest.param(lambda text: text + "val_per_class = -1\n",
                     "^field 'val_per_class': must be nonnegative$", id="val_per_class_negative"),
        pytest.param(lambda text: text + "hyperval_total = -1\n",
                     "^field 'hyperval_total': must be nonnegative$", id="hyperval_total_negative"),
        pytest.param(lambda text: text + "repeat = 0\n",
                     "^field 'repeat': must be at least 1$", id="repeat_zero"),
        pytest.param(lambda text: text + "subset_total = 0\n",
                     "^field 'subset_total': must be at least 1$", id="subset_total_zero"),
    ])
    def test_incomplete_setting_rejected(self, tmp_path, edit, match):
        self._paths(tmp_path)
        text = edit(BASIC).format(d=tmp_path)
        with pytest.raises(ConfigError, match=match):
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


class TestRunExperiment:
    def test_each_seed_result_released_before_the_next(self, tmp_path):
        # Memory must not grow with repeat: when a seed reports, no earlier
        # seed's final model is still alive.
        cfg = write_train_config(tmp_path, synth_mnist_like(tmp_path),
                                 extra=f"repeat = 3\noutput_dir = {tmp_path / 'runs'}\n")
        earlier, alive = [], []

        def progress(seed, result):
            gc.collect()
            alive.append(sum(ref() is not None for ref in earlier))
            earlier.append(weakref.ref(result.model.layers[0]))

        run_experiment(build_experiment(parse_config_file(cfg)), progress)
        assert alive == [0, 0, 0]
