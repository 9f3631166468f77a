"""Config file parsing, validation, identity hashing, and the experiment a
config builds."""

import csv
import gc
import json
import re
import weakref
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from metareweight.config import (
    REQUIRED_PATHS,
    SCHEMA,
    build_experiment,
    canonical_items,
    config_hash,
    parse_config_file,
)
from metareweight.data import ImbalanceSpec, load_idx
from metareweight.errors import ConfigError
from metareweight.experiment import prepare_datasets, run_experiment

from conftest import csv_rows, damaged_copies
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

    @pytest.mark.parametrize("value", ["false", "off"])
    def test_false_boolean(self, tmp_path, value):
        cfg = parse_config_file(write_config(tmp_path, f"include_val_in_train = {value}\n"))
        assert cfg["include_val_in_train"] is False

    @pytest.mark.parametrize("text, match", [
        pytest.param("total_steps = soon\n", ":1: field 'total_steps': invalid literal for int", id="bad_value"),
        pytest.param("strategy uniform\n", ":1: expected key = value, got 'strategy uniform'$",
                     id="line_without_equals"),
        pytest.param("seed = 1\nseed = 2\n", ":2: duplicate config field 'seed'$", id="duplicate_key"),
        pytest.param("seed =\nseed = 3\n", ":2: duplicate config field 'seed'$", id="duplicate_after_blank"),
        pytest.param("early_stop_on_hyperval = maybe\n", ":1: field 'early_stop_on_hyperval': not a boolean: 'maybe'$",
                     id="not_a_boolean"),
    ])
    def test_bad_file_rejected(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_file(write_config(tmp_path, text))

    def test_readme_table_has_a_row_per_key(self):
        # Each key's Default cell, parsed by the key's parser, is its default;
        # `none` and `required` stand for None, or the empty schedule.
        readme = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
        cells = {key: row.split(" | ")[1].strip("`") for row in readme if row.startswith("| `")
                 for key in re.findall(r"`(\w+)`", row.split(" | ")[0])}
        assert [key for key in SCHEMA if key not in cells] == []

        def agrees(cell, parser, default):
            return default in (None, ()) if cell in ("none", "required") else parser(cell) == default

        assert [key for key, (parser, default) in SCHEMA.items() if not agrees(cells[key], parser, default)] == []


MNIST_PATHS = (
    "train_images = mnist/train-images-idx3-ubyte\ntrain_labels = mnist/train-labels-idx1-ubyte\n"
    "test_images = mnist/t10k-images-idx3-ubyte\ntest_labels = mnist/t10k-labels-idx1-ubyte\n"
)


class TestHash:
    @pytest.fixture
    def built(self, tmp_path, monkeypatch):
        """built(text, name): the experiment a config text builds, with tmp_path
        as the working directory and an empty file at each data path."""
        monkeypatch.chdir(tmp_path)

        def build(text, name="exp.cfg"):
            values = parse_config_file(write_config(tmp_path, text, name))
            for path in (tmp_path / values[key] for key in REQUIRED_PATHS):
                path.parent.mkdir(exist_ok=True)
                path.touch()
            return build_experiment(values)

        return build

    def test_invariant_to_field_order(self, built):
        a = built("seed = 1\nstrategy = uniform\ntotal_steps = 9\n" + MNIST_PATHS, "a.cfg")
        b = built(MNIST_PATHS + "total_steps = 9\nstrategy = uniform\nseed = 1\n", "b.cfg")
        assert config_hash(a) == config_hash(b)

    def test_excludes_seed_repeat_output_dir(self, built):
        a = built("seed = 1\nrepeat = 2\noutput_dir = x\n" + MNIST_PATHS, "a.cfg")
        b = built("seed = 9\nrepeat = 5\noutput_dir = y\n" + MNIST_PATHS, "b.cfg")
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_experiment_fields(self, built):
        a = built("learning_rate = 1e-3\n" + MNIST_PATHS, "a.cfg")
        b = built("learning_rate = 2e-3\n" + MNIST_PATHS, "b.cfg")
        assert config_hash(a) != config_hash(b)
        # The hash reads the fields, so dataclasses.replace moves it.
        assert config_hash(replace(a, imbalance_ratio=2.0)) != config_hash(a)

    def test_readme_example_hash_pinned(self, built):
        # The README's imbalance.cfg; its hash names existing run directories,
        # so no schema edit may change it.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        text = re.search(r"```\n(# imbalance\.cfg\n.*?)```", readme, re.S).group(1)
        assert config_hash(built(text)) == "2b3c233ff3b54697"

    def test_schedule_lists_and_false_hash_pinned(self, built):
        text = (
            "strategy = meta_reweight\nlearning_rate = 1e-3\ntotal_steps = 40\nhidden_sizes = 32,16\n"
            "lr_schedule = 20:0.1, 30:0.01\nearly_stop_on_hyperval = false\n" + MNIST_PATHS
        )
        assert config_hash(built(text)) == "83535cd97cfd99fd"

    def test_canonical_items_cover_schema(self, built):
        keys = [k for k, _ in canonical_items(built("seed = 1\n" + MNIST_PATHS))]
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

    def test_frozen_and_rechecked_by_replace(self, tmp_path):
        exp = build_experiment(parse_config_file(write_config(tmp_path, self._paths(tmp_path))))
        with pytest.raises(FrozenInstanceError):
            exp.repeat = 0
        with pytest.raises(ConfigError, match="^field 'repeat': must be at least 1$"):
            replace(exp, repeat=0)
        assert replace(exp, imbalance_ratio=2.0).imbalance == ImbalanceSpec(ratio=2.0)

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
        np.testing.assert_array_equal(test.images[:], base_test.images[keep])
        np.testing.assert_array_equal(test.labels, 1 - base_test.labels[keep])

    @pytest.mark.parametrize("edit, match", [
        # Each edit is of the BASIC template, before its {d} names the directory.
        pytest.param(lambda text: text + "val_per_class = 0\n",
                     "^field 'val_per_class': meta_reweight needs a validation split$", id="val_per_class-0"),
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
        pytest.param(lambda text: text.replace("20:0.1", "-1:0.1"),
                     "^lr_schedule: steps must be nonnegative$", id="negative_schedule_step"),
        pytest.param(lambda text: text + "imbalance_ratio = 10\nnoise_kind = uniform_flip\nnoise_ratio = 0.3\n",
                     "^field 'num_classes': the imbalanced pair has 2 classes, got 10$",
                     id="imbalance_noise_ten_classes"),
        # The required paths are checked before any other rule.
        pytest.param(lambda text: text.replace("test_labels = {d}/test-lab\n", "").replace("1e-3", "nan"),
                     "^field 'test_labels' is required$", id="missing_path_before_nan_learning_rate"),
    ])
    def test_incomplete_setting_rejected(self, tmp_path, edit, match):
        self._paths(tmp_path)
        text = edit(BASIC).format(d=tmp_path)
        with pytest.raises(ConfigError, match=match):
            build_experiment(parse_config_file(write_config(tmp_path, text)))

    @pytest.mark.parametrize("key, lowest", [("val_per_class", 0), ("hyperval_total", 0), ("repeat", 1),
                                             ("subset_total", 1)])
    def test_lowest_bounded_value_builds(self, tmp_path, key, lowest):
        # uniform, since meta_reweight needs a validation split.
        text = self._paths(tmp_path).replace("meta_reweight", "uniform") + f"{key} = {lowest}\n"
        assert getattr(build_experiment(parse_config_file(write_config(tmp_path, text))), key) == lowest

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
        for _, data in damaged_copies(good, rng, 400):
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

    def test_summary_follows_a_replaced_field(self, tmp_path):
        # summary.json's hash and config echo read the fields that ran.
        exp = build_experiment(parse_config_file(write_train_config(tmp_path, synth_mnist_like(tmp_path))))
        summaries = {}
        for name, e in (("base", exp), ("replaced", replace(exp, train=replace(exp.train, learning_rate=0.5)))):
            run_experiment(replace(e, output_dir=str(tmp_path / name)))
            summaries[name] = json.loads((tmp_path / name / "summary.json").read_text())
        assert [summaries[name]["config"]["learning_rate"] for name in summaries] == ["0.05", "0.5"]
        assert summaries["base"]["config_hash"] != summaries["replaced"]["config_hash"]


class TestPrepareDatasets:
    @pytest.mark.parametrize("extra, sizes", [
        # 60 of 120 kept: the hyperval set is drawn from the 60 left out.
        pytest.param("subset_total = 60\nhyperval_total = 20\n", (56, 4, 20), id="subset_hyperval_from_pool"),
        pytest.param("hyperval_total = 20\n", (96, 4, 20), id="no_subset"),
        pytest.param("imbalance_ratio = 2\nimbalance_total = 30\nminority_class = 1\nmajority_class = 0\n"
                     "hyperval_total = 10\n", (16, 4, 10), id="imbalanced_pair"),
    ])
    def test_hyperval_set_apart_and_corrupted(self, tmp_path, extra, sizes):
        paths = synth_mnist_like(tmp_path)
        noise = "noise_kind = uniform_flip\nnoise_ratio = 0.4\nnum_classes = 2\nseed = 3\n"
        cfg = write_train_config(tmp_path, paths, extra=extra + noise + f"output_dir = {tmp_path / 'runs'}\n")
        exp = build_experiment(parse_config_file(cfg))
        base_train = load_idx(paths["train_images"], paths["train_labels"])
        base_test = load_idx(paths["test_images"], paths["test_labels"])
        train_ds, val_ds, _, hyper = prepare_datasets(exp, 3, base_train, base_test)

        assert (len(train_ds), len(val_ds), len(hyper)) == sizes
        rows = [d.images.index for d in (train_ds, val_ds, hyper)]
        assert all(d.images.pixels is base_train.images.pixels for d in (train_ds, val_ds, hyper))
        assert len(np.unique(np.concatenate(rows))) == sum(sizes)  # three disjoint sets of rows
        if exp.subset_total is not None:
            # Training and validation rows make up the whole subset, so no hyperval row is in it.
            assert len(train_ds) + len(val_ds) == exp.subset_total
        assert hyper.flipped_mask.any()
        if exp.imbalance is None:
            np.testing.assert_array_equal(hyper.original_labels, base_train.labels[rows[2]])

        run_experiment(exp)
        metric_steps = [row["step"] for row in csv_rows(tmp_path / "runs" / "metrics_seed3.csv", csv.DictReader)]
        hyper_rows = csv_rows(tmp_path / "runs" / "hyperval_seed3.csv", csv.DictReader)
        assert metric_steps == [row["step"] for row in hyper_rows] == ["20", "40"]
        assert all(0.0 <= float(row["hyperval_error"]) <= 1.0 for row in hyper_rows)
