"""End-to-end CLI tests on small synthetic IDX datasets."""

import csv
import gzip
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import run_check
from metareweight import checks
from metareweight.cli import main
from metareweight.data import load_idx, write_csv

from test_data import idx_images_bytes, idx_labels_bytes


def synth_mnist_like(tmp_path, n_train=120, n_test=60, side=6, k=2, seed=0):
    """Tiny IDX pair: class decides which half of the image is bright."""
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

    out = {}
    for split, n in (("train", n_train), ("test", n_test)):
        images, labels = build(n)
        ip = tmp_path / f"{split}-images-idx3-ubyte"
        lp = tmp_path / f"{split}-labels-idx1-ubyte"
        ip.write_bytes(idx_images_bytes(images))
        lp.write_bytes(idx_labels_bytes(labels))
        out[f"{split}_images"] = str(ip)
        out[f"{split}_labels"] = str(lp)
    return out


def write_train_config(tmp_path, paths, extra="", name="exp.cfg", strategy="meta_reweight"):
    text = (
        f"strategy = {strategy}\n"
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
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestTrainCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(tmp_path, paths, extra="repeat = 2\n")
        out = tmp_path / "runs"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0

        with open(out / "summary.json") as f:
            summary = json.load(f)
        assert summary["strategy"] == "meta_reweight"
        assert summary["seeds"] == [0, 1]
        assert 0.0 <= summary["mean_test_error"] <= 1.0
        assert summary["config_hash"]
        assert summary["forward_examples_total"] == 2 * 40 * (20 + 4)

        with open(out / "metrics_seed0.csv") as f:
            rows = list(csv.reader(f))
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

        with open(out / "weights_seed0.csv") as f:
            wrows = list(csv.reader(f))
        assert wrows[0] == ["step", "weight", "flipped"]
        assert len(wrows) == 1 + 20 * 20  # last window: eval_every steps x batch

        text = capsys.readouterr().out
        assert "mean test error" in text

    def test_deterministic_across_invocations(self, tmp_path):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(tmp_path, paths)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg, "--out", str(a)]) == 0
        assert main(["train", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "metrics_seed0.csv").read_bytes() == (b / "metrics_seed0.csv").read_bytes()

    def test_seed_override(self, tmp_path):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(tmp_path, paths)
        out = tmp_path / "seeded"
        assert main(["train", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        assert (out / "metrics_seed7.csv").exists()

    def test_missing_dataset_field_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        text = write_train_config(tmp_path, paths)
        content = Path(text).read_text().replace(f"test_labels = {paths['test_labels']}\n", "")
        bad = tmp_path / "bad.cfg"
        bad.write_text(content)
        assert main(["train", "--config", str(bad)]) == 2
        assert "test_labels" in capsys.readouterr().err
        # An output directory that is a file (FileExistsError) is bad input too.
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["train", "--config", text, "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 17] File exists")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes(b"strategy = uniform\noutput_dir = caf\xe9\n")
        assert main(["train", "--config", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {bad}")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(tmp_path, paths)
        out = str(tmp_path / "runs")
        assert main(["train", "--config", cfg, "--out", out, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed: must be nonnegative\n"
        cfg = write_train_config(tmp_path, paths, extra="seed = -1\n", name="neg.cfg")
        assert main(["train", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == "error: seed: must be nonnegative\n"
        assert not Path(out).exists()

    def test_nan_imbalance_ratio_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(tmp_path, paths, extra="imbalance_ratio = nan\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err == "error: imbalance ratio must be a finite number >= 1, got nan\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("old, new, message", [
        pytest.param("learning_rate = 0.05", "learning_rate = nan",
                     "learning_rate: must be positive and finite", id="nan_learning_rate"),
        pytest.param("eval_every = 20", "eval_every = 20\nlr_schedule = 20:inf",
                     "lr_schedule: multipliers must be positive and finite", id="inf_schedule_multiplier"),
        pytest.param("eval_every = 20", "eval_every = 20\nearly_stop_on_hyperval = true",
                     "field 'early_stop_on_hyperval': needs hyperval_total > 0", id="early_stop_no_hyperval"),
        pytest.param("eval_every = 20", "eval_every = 20\nnoise_ratio = 0.3",
                     "field 'noise_ratio': needs a noise_kind", id="noise_ratio_no_kind"),
    ])
    def test_bad_config_exits_2_before_reading_data(self, tmp_path, capsys, old, new, message):
        # The README's exit-2 cases that no other test runs through the CLI.
        cfg = Path(write_train_config(tmp_path, synth_mnist_like(tmp_path)))
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("strtegy = uniform\n")
        assert main(["train", "--config", str(bad)]) == 2
        assert "strtegy" in capsys.readouterr().err

    def test_image_size_mismatch_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path, side=4)
        (tmp_path / "small").mkdir()
        small = synth_mnist_like(tmp_path / "small", side=3)
        paths.update(test_images=small["test_images"], test_labels=small["test_labels"])
        cfg = write_train_config(tmp_path, paths)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert "error: batch has 9 features, model expects 16" in capsys.readouterr().err

    def test_non_finite_run_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        for strategy, message in (
            ("uniform", "gradient contains non-finite values"),
            ("meta_reweight", "weight scores contain non-finite values"),
        ):
            cfg = tmp_path / f"{strategy}.cfg"
            cfg.write_text(
                Path(write_train_config(tmp_path, paths, strategy=strategy)).read_text().replace(
                    "learning_rate = 0.05", "learning_rate = 1e300"
                )
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["train", "--config", str(cfg), "--out", str(tmp_path / strategy)])
            assert code == 2
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            # The first step overflows the parameters; the second meets the non-finite values.
            assert capsys.readouterr().err == f"error: seed 0 step 1: {message}\n"

    def test_noise_pipeline_runs(self, tmp_path):
        paths = synth_mnist_like(tmp_path)
        cfg = write_train_config(
            tmp_path,
            paths,
            extra="noise_kind = uniform_flip\nnoise_ratio = 0.3\nnum_classes = 2\n",
        )
        out = tmp_path / "noisy"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "metrics_seed0.csv") as f:
            rows = list(csv.DictReader(f))
        # Corrupted examples exist, so the flipped-weight column is populated.
        assert rows[-1]["mean_w_flipped"] != "nan"


def corrupt_argv(images, labels, out, *extra, ratio="0.5"):
    """argv of a uniform_flip `corrupt` run; extra flags go last."""
    return ["corrupt", "--images", str(images), "--labels", str(labels), "--out", str(out),
            "--kind", "uniform_flip", "--ratio", ratio, *extra]


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
        with open(str(out) + ".provenance.csv") as f:
            rows = list(csv.DictReader(f))
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

    def test_bad_ratio_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        code = main(corrupt_argv(paths["train_images"], paths["train_labels"], tmp_path / "x", ratio="1.5"))
        assert code == 2
        assert "ratio" in capsys.readouterr().err
        # An images path that is a directory (IsADirectoryError) is bad input too.
        code = main(corrupt_argv(tmp_path, paths["train_labels"], tmp_path / "x"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    def test_damaged_gzip_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        with open(paths["train_images"], "rb") as f:
            packed = gzip.compress(f.read())
        flipped = bytearray(packed)
        flipped[len(packed) // 2] ^= 0xFF
        for name, data in (("half.idx.gz", packed[: len(packed) // 2]), ("flipped.idx.gz", flipped)):
            images = tmp_path / name
            images.write_bytes(data)
            code = main(corrupt_argv(images, paths["train_labels"], tmp_path / "x"))
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: images: damaged compressed file {images}: ")

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        paths = synth_mnist_like(tmp_path)
        code = main(corrupt_argv(paths["train_images"], paths["train_labels"], tmp_path / "x", "--seed", "-1"))
        assert code == 2
        assert capsys.readouterr().err == "error: --seed: must be nonnegative\n"
        assert not (tmp_path / "x").exists()

    def test_empty_dataset_writes_empty_label_file(self, tmp_path):
        images = tmp_path / "images-idx3-ubyte"
        labels = tmp_path / "labels-idx1-ubyte"
        images.write_bytes(idx_images_bytes(np.zeros((0, 6, 6))))
        labels.write_bytes(idx_labels_bytes([]))
        out = tmp_path / "corrupted-labels-idx1-ubyte"
        code = main(corrupt_argv(images, labels, out))
        assert code == 0
        assert out.read_bytes() == idx_labels_bytes([])
        assert len(load_idx(str(images), str(out))) == 0
        with open(str(out) + ".provenance.csv") as f:
            assert list(csv.reader(f)) == [["index", "original_label", "new_label"]]


class TestReportCommand:
    def test_aggregates_runs(self, tmp_path):
        paths = synth_mnist_like(tmp_path)
        root = tmp_path / "all"
        for strategy in ("uniform", "meta_reweight"):
            cfg = write_train_config(
                tmp_path, paths, extra="repeat = 2\n", name=f"{strategy}.cfg", strategy=strategy
            )
            assert main(["train", "--config", cfg, "--out", str(root / strategy)]) == 0
        assert main(["report", "--dir", str(root)]) == 0

        with open(root / "report_final.csv") as f:
            rows = list(csv.DictReader(f))
        assert {r["strategy"] for r in rows} == {"uniform", "meta_reweight"}
        for r in rows:
            with open(root / r["strategy"] / "summary.json") as f:
                summary = json.load(f)
            assert float(r["mean_test_error"]) == summary["mean_test_error"]

        with open(root / "report_curves.csv") as f:
            crows = list(csv.DictReader(f))
        steps = {r["step"] for r in crows if r["strategy"] == "uniform"}
        assert steps == {"20", "40"}

        with open(root / "report_weight_hist.csv") as f:
            hrows = list(csv.DictReader(f))
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

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        assert main(["report", "--dir", str(tmp_path)]) == 2
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("files", [
        {"summary.json": '{"strategy": "unif'},
        {"summary.json": "{}"},
        {"summary.json": json.dumps({"strategy": "uniform", "config_hash": "c0ffee", "seeds": [0],
                                     "mean_test_error": 0.25, "ci_half_width": 0.0}),
         "metrics_seed0.csv": "step,train_loss,val_loss_G,test_error\n10,abc,0.5,0.25\n"},
        {"summary.json": "[]"},
    ], ids=["truncated_summary", "empty_summary", "bad_metrics_cell", "summary_not_an_object"])
    def test_malformed_run_file_exits_2(self, tmp_path, capsys, files):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        assert main(["report", "--dir", str(tmp_path)]) == 2
        # The error names the malformed file: the last one written.
        assert list(files)[-1] in capsys.readouterr().err


@pytest.fixture
def cached_checks(monkeypatch):
    """QUICK_CHECKS answered from the session's cached results (test_checks.py runs them)."""
    cached = [(name, lambda name=name: run_check(name)[:2]) for name, _ in checks.QUICK_CHECKS]
    monkeypatch.setattr(checks, "QUICK_CHECKS", cached)


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys, cached_checks):
        assert main(["verify", "--level", "quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 16
        assert "[FAIL]" not in out

    def test_full_without_data_skips(self, tmp_path, capsys, monkeypatch, cached_checks):
        monkeypatch.delenv("MNIST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert main(["verify", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "[SKIP] mnist_monotone_descent" in out

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        failing = [("passing", lambda: (True, "")), ("broken", lambda: (False, "gap 3.0e-02"))]
        monkeypatch.setattr(checks, "QUICK_CHECKS", failing)
        assert main(["verify", "--level", "quick"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] passing\n" in out
        assert "[FAIL] broken: gap 3.0e-02\n" in out
