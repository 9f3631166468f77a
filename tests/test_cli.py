"""End-to-end CLI tests on small synthetic IDX datasets."""

import csv
import gzip
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import csv_rows, idx_images_bytes, idx_labels_bytes, run_check, write_mnist, write_pair
import metareweight
from metareweight import checks, theory
from metareweight.cli import main
from metareweight.data import load_idx, write_csv


def synth_mnist_like(tmp_path, n_train=120, n_test=60, side=6, k=2, seed=0):
    """Tiny MNIST-named IDX files in tmp_path: class decides which half of the
    image is bright. Returns the paths by MNIST_FILES key."""
    rng = np.random.default_rng(seed)

    def build(n):
        labels = rng.integers(0, k, size=n)
        images = rng.integers(0, 60, size=(n, side, side)).astype(np.uint8)
        half = side // 2
        for i in range(n):
            if labels[i] == 1:
                images[i, :, :half] += 180
            else:
                images[i, :, half:] += 180
        return images, labels

    return write_mnist(tmp_path, build(n_train), build(n_test))


def write_train_config(tmp_path, paths, extra=""):
    text = (
        f"strategy = meta_reweight\n"
        f"learning_rate = 0.05\n"
        f"batch_size_train = 20\n"
        f"batch_size_val = 4\n"
        f"total_steps = 40\n"
        f"eval_every = 20\n"
        f"hidden_sizes = 8\n"
        f"val_per_class = 2\n"
        f"train_images = {paths['train_images']}\n"
        f"train_labels = {paths['train_labels']}\n"
        f"test_images = {paths['test_images']}\n"
        f"test_labels = {paths['test_labels']}\n"
        + extra
    )
    p = tmp_path / "exp.cfg"
    p.write_text(text)
    return str(p)


def train_argv(tmp_path, *flags, edit=("", "")):
    """argv of a `train` run of the fixture config into tmp_path/runs, with the
    config's text edit[0] replaced by edit[1]. The text is written as latin-1,
    so an edit's "\\xe9" is a byte that is not UTF-8. Flags go last, and
    argparse keeps the last of a repeated flag."""
    cfg = Path(write_train_config(tmp_path, synth_mnist_like(tmp_path)))
    cfg.write_bytes(cfg.read_text().replace(*edit).encode("latin-1"))
    return ["train", "--config", str(cfg), "--out", str(tmp_path / "runs"), *flags]


def assert_exits_2(argv, tmp_path, capsys, message, out, out_exists):
    """main(argv) exits 2 without a RuntimeWarning, its stderr is the one line
    `error: <message>`, and out exists iff out_exists; "{tmp}" in argv and
    message stands for tmp_path."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert out.exists() == out_exists


class TestTrainCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        assert main(train_argv(tmp_path, edit=("eval_every = 20", "eval_every = 20\nrepeat = 2"))) == 0
        out = tmp_path / "runs"

        with open(out / "summary.json") as f:
            summary = json.load(f)
        assert summary["strategy"] == "meta_reweight"
        assert summary["seeds"] == [0, 1]
        assert 0.0 <= summary["mean_test_error"] <= 1.0
        assert summary["config_hash"]
        assert summary["forward_examples_total"] == 2 * 40 * (20 + 4)

        rows = csv_rows(out / "metrics_seed0.csv")
        assert rows[0] == [
            "step",
            "train_loss",
            "val_loss_G",
            "test_error",
            "grad_norm_sq",
            "mean_w_clean",
            "mean_w_flipped",
            "frac_zero_w",
        ]
        assert [r[0] for r in rows[1:]] == ["20", "40"]

        wrows = csv_rows(out / "weights_seed0.csv")
        assert wrows[0] == ["step", "weight", "flipped"]
        assert len(wrows) == 1 + 20 * 20  # last window: eval_every steps x batch

        text = capsys.readouterr().out
        assert "mean test error" in text

    def test_deterministic_across_invocations(self, tmp_path):
        argv = train_argv(tmp_path)
        assert main(argv) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "runs" / "metrics_seed0.csv").read_bytes() == (
            tmp_path / "b" / "metrics_seed0.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        assert main(train_argv(tmp_path, "--seed", "7")) == 0
        assert (tmp_path / "runs" / "metrics_seed7.csv").exists()

    @pytest.mark.parametrize("edit, flags, message, out_exists", [
        pytest.param(("learning_rate = 0.05", "learning_rate = nan"), (),
                     "learning_rate: must be positive and finite", False, id="nan_learning_rate"),
        pytest.param(("eval_every = 20", "eval_every = 20\nlr_schedule = 20:inf"), (),
                     "lr_schedule: multipliers must be positive and finite", False, id="inf_schedule_multiplier"),
        pytest.param(("eval_every = 20", "eval_every = 20\nearly_stop_on_hyperval = true"), (),
                     "field 'early_stop_on_hyperval': needs hyperval_total > 0", False, id="early_stop_no_hyperval"),
        pytest.param(("eval_every = 20", "eval_every = 20\nnoise_ratio = 0.3"), (),
                     "field 'noise_ratio': needs a noise_kind", False, id="noise_ratio_no_kind"),
        pytest.param(("test_labels", "# test_labels"), (), "field 'test_labels' is required", False,
                     id="missing_dataset_field"),
        pytest.param(("/train-images-idx3-ubyte", "/absent"), (),
                     "field 'train_images': file not found: {tmp}/absent", False, id="missing_idx_path"),
        pytest.param(("", ""), ("--config", "{tmp}/absent.cfg"),
                     "cannot read config file {tmp}/absent.cfg: [Errno 2] No such file or directory: "
                     "'{tmp}/absent.cfg'", False, id="missing_config_file"),
        pytest.param(("strategy", "output_dir = caf\xe9\nstrategy"), (),
                     "cannot read config file {tmp}/exp.cfg: 'utf-8' codec can't decode byte 0xe9 in "
                     "position 16: invalid continuation byte", False, id="non_utf8_config"),
        pytest.param(("strategy", "strtegy"), (), "{tmp}/exp.cfg:1: unknown config field 'strtegy'", False,
                     id="unknown_field"),
        pytest.param(("", ""), ("--seed", "-1"), "seed: must be nonnegative", False, id="negative_seed_flag"),
        pytest.param(("eval_every = 20", "eval_every = 20\nseed = -1"), (), "seed: must be nonnegative", False,
                     id="negative_seed_field"),
        pytest.param(("eval_every = 20", "eval_every = 20\nimbalance_ratio = nan"), (),
                     "imbalance ratio must be a finite number >= 1, got nan", False, id="nan_imbalance_ratio"),
        pytest.param(("eval_every = 20", "eval_every = 20\nnoise_kind = uniform_flip\nnum_classes = 1"), (),
                     "label noise needs at least two classes", False, id="noise_with_one_class"),
    ])
    def test_bad_config_exits_2_before_reading_data(self, tmp_path, capsys, edit, flags, message, out_exists):
        assert_exits_2(train_argv(tmp_path, *flags, edit=edit), tmp_path, capsys, message,
                       tmp_path / "runs", out_exists)

    @pytest.mark.parametrize("edit, files, message, out_exists", [
        pytest.param(("", ""), {"runs": b""}, "[Errno 17] File exists: '{tmp}/runs'", True, id="out_is_a_file"),
        pytest.param(("", ""), {"train-images-idx3-ubyte": idx_images_bytes(np.zeros((120, 6, 6)))[:100]},
                     "images payload: header promises 4320 bytes, {tmp}/train-images-idx3-ubyte has 84", False,
                     id="truncated_train_images"),
        pytest.param(("", ""), {"t10k-images-idx3-ubyte": idx_images_bytes(np.zeros((60, 3, 3)))},
                     "batch has 9 features, model expects 36", True, id="image_size_mismatch"),
        # The fixture's training file holds 54 of class 0 and 66 of class 1.
        pytest.param(("eval_every = 20", "eval_every = 20\nimbalance_ratio = 2\nimbalance_total = 100\n"
                      "minority_class = 0\nmajority_class = 1"), {},
                     "need 67 examples of class 1, dataset has 66", True, id="imbalance_majority_too_small"),
        # A valid IDX pair of 0 images: the clean validation split finds no class to draw from.
        pytest.param(("", ""), {"train-images-idx3-ubyte": idx_images_bytes(np.zeros((0, 6, 6))),
                                "train-labels-idx1-ubyte": idx_labels_bytes([])},
                     "training set is empty", True, id="empty_training_file"),
        # The first step overflows the parameters; the second meets the non-finite values.
        pytest.param(("strategy = meta_reweight\nlearning_rate = 0.05", "strategy = uniform\nlearning_rate = 1e300"),
                     {}, "seed 0 step 1: gradient contains non-finite values", True, id="non_finite_uniform"),
        pytest.param(("learning_rate = 0.05", "learning_rate = 1e300"), {},
                     "seed 0 step 1: weight scores contain non-finite values", True, id="non_finite_meta_reweight"),
        # The only step leaves finite parameters whose products overflow at the evaluation point.
        pytest.param(("strategy = meta_reweight\nlearning_rate = 0.05\nbatch_size_train = 20\nbatch_size_val = 4\n"
                      "total_steps = 40\neval_every = 20", "strategy = uniform\nlearning_rate = 1e200\n"
                      "batch_size_train = 20\nbatch_size_val = 4\ntotal_steps = 1\neval_every = 1"), {},
                     "seed 0 step 0: validation loss at the evaluation point is nan", True, id="non_finite_evaluation_point"),
    ])
    def test_bad_run_exits_2(self, tmp_path, capsys, edit, files, message, out_exists):
        argv = train_argv(tmp_path, edit=edit)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        assert_exits_2(argv, tmp_path, capsys, message, tmp_path / "runs", out_exists)

    def test_noise_pipeline_runs(self, tmp_path):
        noise = "eval_every = 20\nnoise_kind = uniform_flip\nnoise_ratio = 0.3\nnum_classes = 2"
        assert main(train_argv(tmp_path, edit=("eval_every = 20", noise))) == 0
        rows = csv_rows(tmp_path / "runs" / "metrics_seed0.csv", csv.DictReader)
        # Corrupted examples exist, so the flipped-weight column is populated.
        assert rows[-1]["mean_w_flipped"] != "nan"


def corrupt_argv(images, labels, out, *extra):
    """argv of a uniform_flip `corrupt` run; extra flags go last, and argparse
    keeps the last of a repeated flag."""
    return ["corrupt", "--images", str(images), "--labels", str(labels), "--out", str(out),
            "--kind", "uniform_flip", "--ratio", "0.5", *extra]


# A gzipped IDX image file, which the damaged-gzip rows cut at HALF or flip there.
PACKED = gzip.compress(idx_images_bytes(np.random.default_rng(0).integers(0, 60, (40, 6, 6))), mtime=0)
HALF = len(PACKED) // 2


class TestCorruptCommand:
    def test_roundtrip_with_sidecar(self, tmp_path):
        paths = synth_mnist_like(tmp_path, n_train=200)
        out = tmp_path / "corrupted-labels-idx1-ubyte"
        code = main(corrupt_argv(paths["train_images"], paths["train_labels"], out,
                                 "--num-classes", "2", "--seed", "3"))
        assert code == 0
        original = load_idx(paths["train_images"], paths["train_labels"])
        corrupted = load_idx(paths["train_images"], str(out))
        changed = {
            i for i in range(len(original)) if original.labels[i] != corrupted.labels[i]
        }
        assert 0 < len(changed) < len(original)
        rows = csv_rows(str(out) + ".provenance.csv", csv.DictReader)
        assert {int(r["index"]) for r in rows} == changed
        for r in rows:
            i = int(r["index"])
            assert int(r["original_label"]) == original.labels[i]
            assert int(r["new_label"]) == corrupted.labels[i]

    def test_out_may_name_its_own_labels(self, tmp_path):
        paths = synth_mnist_like(tmp_path, n_train=200)
        images, labels = paths["train_images"], Path(paths["train_labels"])
        ref = tmp_path / "ref-labels-idx1-ubyte"
        assert main(corrupt_argv(images, labels, ref, "--num-classes", "2", "--seed", "3")) == 0
        assert ref.read_bytes() != labels.read_bytes()
        assert main(corrupt_argv(images, labels, labels, "--num-classes", "2", "--seed", "3")) == 0
        assert labels.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("flags, files, message, out_exists", [
        pytest.param(("--ratio", "1.5"), {}, "noise ratio must lie in [0, 1]", False, id="ratio_above_one"),
        pytest.param(("--seed", "-1"), {}, "--seed: must be nonnegative", False, id="negative_seed"),
        pytest.param(("--images", "{tmp}/absent"), {}, "[Errno 2] No such file or directory: '{tmp}/absent'",
                     False, id="missing_images"),
        pytest.param(("--images", "{tmp}"), {}, "[Errno 21] Is a directory: '{tmp}'", False,
                     id="images_is_a_directory"),
        pytest.param(("--images", "{tmp}/half.idx.gz"), {"half.idx.gz": PACKED[:HALF]},
                     "images: damaged compressed file {tmp}/half.idx.gz: Compressed file ended before the "
                     "end-of-stream marker was reached", False, id="truncated_gzip"),
        pytest.param(("--images", "{tmp}/flipped.idx.gz"),
                     {"flipped.idx.gz": PACKED[:HALF] + bytes([PACKED[HALF] ^ 0xFF]) + PACKED[HALF + 1 :]},
                     "images: damaged compressed file {tmp}/flipped.idx.gz: CRC check failed 0x66432e64 != "
                     "0xaf9a094a", False, id="flipped_gzip"),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, flags, files, message, out_exists):
        paths = synth_mnist_like(tmp_path)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = corrupt_argv(paths["train_images"], paths["train_labels"], tmp_path / "x", *flags)
        assert_exits_2(argv, tmp_path, capsys, message, tmp_path / "x", out_exists)

    def test_empty_dataset_writes_empty_label_file(self, tmp_path):
        images, labels = write_pair(tmp_path, np.zeros((0, 6, 6)), [])
        out = tmp_path / "corrupted-labels-idx1-ubyte"
        code = main(corrupt_argv(images, labels, out))
        assert code == 0
        assert out.read_bytes() == idx_labels_bytes([])
        assert len(load_idx(str(images), str(out))) == 0
        assert csv_rows(str(out) + ".provenance.csv") == [["index", "original_label", "new_label"]]


ONE_SEED_SUMMARY = json.dumps({"strategy": "uniform", "config_hash": "c0ffee", "seeds": [0],
                               "mean_test_error": 0.25, "ci_half_width": 0.0})


def metrics_cells(cells):
    """A one-seed run directory whose metrics file holds the row `10,{cells}`."""
    return {"summary.json": ONE_SEED_SUMMARY, "metrics_seed0.csv": f"step,train_loss,val_loss_G,test_error\n10,{cells}\n"}


def weight_cells(cells):
    """A one-seed run directory whose weights file holds a valid flipped row, then the row `3,{cells}`."""
    return {"summary.json": ONE_SEED_SUMMARY, "weights_seed0.csv": f"step,weight,flipped\n3,0.5,1\n3,{cells}\n"}


class TestReportCommand:
    def test_aggregates_runs(self, tmp_path):
        root = tmp_path / "all"
        for strategy in ("uniform", "meta_reweight"):
            edit = ("strategy = meta_reweight", f"strategy = {strategy}\nrepeat = 2")
            assert main(train_argv(tmp_path, "--out", str(root / strategy), edit=edit)) == 0
        assert main(["report", "--dir", str(root)]) == 0

        rows = csv_rows(root / "report_final.csv", csv.DictReader)
        assert {r["strategy"] for r in rows} == {"uniform", "meta_reweight"}
        for r in rows:
            with open(root / r["strategy"] / "summary.json") as f:
                summary = json.load(f)
            assert float(r["mean_test_error"]) == summary["mean_test_error"]

        crows = csv_rows(root / "report_curves.csv", csv.DictReader)
        steps = {r["step"] for r in crows if r["strategy"] == "uniform"}
        assert steps == {"20", "40"}

        hrows = csv_rows(root / "report_weight_hist.csv", csv.DictReader)
        assert len(hrows) == 2 * 50  # 50 bins per configuration
        total = sum(int(r["clean_count"]) + int(r["flipped_count"]) for r in hrows)
        assert total > 0

    def test_curve_means_over_nine_seeds_exact_bytes(self, tmp_path):
        # From 8 seeds on, numpy sums a column and a whole-array axis in
        # different orders, so the pinned bytes fix how a curve is averaged.
        seeds = list(range(9))
        (tmp_path / "summary.json").write_text(json.dumps({
            "strategy": "uniform", "config_hash": "c0ffee", "config": {}, "seeds": seeds,
            "mean_test_error": 0.25, "ci_half_width": 0.0,
        }))
        for seed in seeds:
            rows = [
                (step, 0.3 + 0.1 * seed + 0.01 * step, 1.0 / (seed + step + 1),
                 0.1 * ((seed + step) % 7))
                for step in (10, 20)
            ]
            write_csv(tmp_path / f"metrics_seed{seed}.csv",
                      ["step", "train_loss", "val_loss_G", "test_error"], rows)
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert (tmp_path / "report_curves.csv").read_bytes() == (
            b"config_hash,strategy,step,mean_test_error,mean_train_loss,mean_val_loss_G\r\n"
            b"c0ffee,uniform,10,0.3111111111111111,0.8000000000000002,0.0687523781306031\r\n"
            b"c0ffee,uniform,20,0.30000000000000004,0.8999999999999999,0.04043490449370843\r\n"
        )

    def test_nan_validation_loss_aggregates(self, tmp_path):
        # A run without a validation set writes val_loss_G = nan.
        for name, text in metrics_cells("0.5,nan,0.25").items():
            (tmp_path / name).write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 0
        assert csv_rows(tmp_path / "report_curves.csv")[1] == ["c0ffee", "uniform", "10", "0.25", "0.5", "nan"]

    @pytest.mark.parametrize("files, message, out_exists", [
        pytest.param({}, "no summary.json found under {tmp}", False, id="empty_dir"),
        pytest.param({"summary.json": '{"strategy": "unif'}, "malformed run file {tmp}/summary.json: "
                     "JSONDecodeError('Unterminated string starting at: line 1 column 14 (char 13)')", False,
                     id="truncated_summary"),
        pytest.param({"summary.json": "{}"}, "malformed run file {tmp}/summary.json: KeyError('config_hash')",
                     False, id="empty_summary"),
        pytest.param(metrics_cells("abc,0.5,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"could not convert string to float: 'abc'\")", False, id="bad_metrics_cell"),
        pytest.param(metrics_cells("0.5,0.5,-1.0"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"test_error must lie in [0, 1], got '-1.0'\")", False, id="negative_test_error"),
        pytest.param(metrics_cells("0.5,0.5,inf"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"test_error must lie in [0, 1], got 'inf'\")", False, id="inf_test_error"),
        pytest.param(metrics_cells("0.5,0.5,nan"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"test_error must lie in [0, 1], got 'nan'\")", False, id="nan_test_error"),
        pytest.param(metrics_cells("-1.0,0.5,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"train_loss must be finite and >= 0, got '-1.0'\")", False, id="negative_train_loss"),
        pytest.param(metrics_cells("inf,0.5,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"train_loss must be finite and >= 0, got 'inf'\")", False, id="inf_train_loss"),
        pytest.param(metrics_cells("nan,0.5,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"train_loss must be finite and >= 0, got 'nan'\")", False, id="nan_train_loss"),
        pytest.param(metrics_cells("0.5,-1.0,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"val_loss_G must be NaN or finite and >= 0, got '-1.0'\")", False,
                     id="negative_val_loss"),
        pytest.param(metrics_cells("0.5,inf,0.25"), "malformed run file {tmp}/metrics_seed0.csv: "
                     "ValueError(\"val_loss_G must be NaN or finite and >= 0, got 'inf'\")", False,
                     id="inf_val_loss"),
        pytest.param({"summary.json": "[]"}, "malformed run file {tmp}/summary.json: "
                     "AttributeError(\"'list' object has no attribute 'get'\")", False, id="summary_not_an_object"),
        pytest.param(weight_cells("inf,0"), "malformed run file {tmp}/weights_seed0.csv: "
                     "ValueError(\"weight must be finite and >= 0, got 'inf'\")", False, id="inf_weight"),
        pytest.param(weight_cells("nan,0"), "malformed run file {tmp}/weights_seed0.csv: "
                     "ValueError(\"weight must be finite and >= 0, got 'nan'\")", False, id="nan_weight"),
        pytest.param(weight_cells("-1.0,0"), "malformed run file {tmp}/weights_seed0.csv: "
                     "ValueError(\"weight must be finite and >= 0, got '-1.0'\")", False, id="negative_weight"),
        pytest.param(weight_cells("0.5,2"), "malformed run file {tmp}/weights_seed0.csv: "
                     "ValueError(\"flipped must be 0 or 1, got '2'\")", False, id="flipped_two"),
    ])
    def test_malformed_run_file_exits_2(self, tmp_path, capsys, files, message, out_exists):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert_exits_2(["report", "--dir", "{tmp}"], tmp_path, capsys, message,
                       tmp_path / "report_final.csv", out_exists)

    def test_module_entry_point_exits_with_main_status(self, tmp_path):
        # `python -m metareweight.cli` runs the package this suite imports.
        src = Path(metareweight.__file__).parents[1]
        proc = subprocess.run([sys.executable, "-m", "metareweight.cli", "report", "--dir", str(tmp_path)],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, f"error: no summary.json found under {tmp_path}\n")


@pytest.fixture
def cached_checks(monkeypatch):
    """QUICK_CHECKS answered from the session's cached results (test_checks.py runs them)."""
    cached = [(name, lambda name=name: run_check(name)[:2]) for name, _ in checks.QUICK_CHECKS]
    monkeypatch.setattr(checks, "QUICK_CHECKS", cached)


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys, cached_checks):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == len(checks.QUICK_CHECKS)
        assert "[FAIL]" not in out

    def test_full_without_data_skips(self, tmp_path, capsys, monkeypatch, cached_checks):
        monkeypatch.delenv("MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert main(["verify", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] mnist_monotone_descent" in out

    @pytest.mark.parametrize("cut, code, line", [
        pytest.param(None, 0, "[PASS] mnist_monotone_descent: alpha=1.000e-01 smoothness=8.110e+00 "
                     "grad_bound=4.561e+00 violations=0", id="descends"),
        pytest.param(5, 1, "[FAIL] mnist_monotone_descent: alpha=1.000e-01 smoothness=8.110e+00 "
                     "grad_bound=4.561e+00 violations=15", id="trial_cut_short"),
    ])
    def test_full_runs_the_descent_check(self, tmp_path, capsys, monkeypatch, cached_checks, cut, code, line):
        # 255 images each of classes 4 and 9: exactly the check's 510-example pair.
        rng = np.random.default_rng(84)
        labels = np.repeat([4, 9], 255)
        images = rng.integers(0, 60, size=(510, 6, 6)).astype(np.uint8)
        images[labels == 9, :, :3] += 180
        images[labels == 4, :, 3:] += 180
        data = tmp_path / "mnist"
        write_mnist(data, (images, labels))
        real = theory.run_descent_verification

        def twenty_steps(*args, **kwargs):
            run = real(*args, **{**kwargs, "steps": 20})
            return replace(run, trace=run.trace[:cut])

        monkeypatch.setattr(theory, "run_descent_verification", twenty_steps)
        argv = ["verify", "--level", "full", "--data-dir", str(data), "--out", str(tmp_path / "out")]
        assert main(argv) == code
        assert capsys.readouterr().out.splitlines()[-1] == line
        for name, header in (("descent_trace.csv", "step,G,grad_norm_sq,T_t"),
                             ("descent_rate.csv", "T,min_grad_norm_sq,envelope")):
            assert (tmp_path / "out" / name).read_text().splitlines()[0] == header

    @pytest.mark.parametrize("flags, files, message", [
        pytest.param(("--data-dir", "{tmp}"), {}, "--data-dir: MNIST IDX files not found in {tmp}",
                     id="data_dir_without_idx"),
        pytest.param(("--out", "{tmp}/a_file"), {"a_file": b""}, "[Errno 17] File exists: '{tmp}/a_file'",
                     id="out_is_a_file"),
    ])
    def test_bad_input_exits_2(self, tmp_path, capsys, monkeypatch, flags, files, message):
        # A check that ran would make the exit code 1.
        monkeypatch.setattr(checks, "QUICK_CHECKS", [("must_not_run", lambda: (False, "ran"))])
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        argv = ["verify", "--level", "full", "--out", "{tmp}/verify_out", *flags]
        assert_exits_2(argv, tmp_path, capsys, message, tmp_path / "verify_out", False)

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        def raising():
            raise RuntimeError("boom")

        failing = [("passing", lambda: (True, "")), ("broken", lambda: (False, "gap 3.0e-02")), ("raising", raising)]
        monkeypatch.setattr(checks, "QUICK_CHECKS", failing)
        assert main(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] passing\n" in out
        assert "[FAIL] broken: gap 3.0e-02\n" in out
        assert "[FAIL] raising: raised RuntimeError('boom')\n" in out
