"""Training loop tests. The replay oracle reproduces the loop's RNG
consumption step by step and checks the committed parameters exactly."""

import dataclasses
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from metareweight import trainer
from metareweight.data import Dataset, NoiseSpec, corrupt, split_clean_validation
from metareweight.errors import ConfigError, NonFiniteError
from metareweight.nn import (
    Batch,
    MLPModel,
    backward_per_example,
    forward,
    sgd_step,
    weighted_gradient,
)
from metareweight.reweight import meta_grad_closed_form, rectify_normalize
from metareweight.trainer import STRATEGIES, TrainConfig, evaluate, train

from conftest import make_blobs


def blob_sets(seed=0, n_per=80, d=6, k=2):
    # One draw of blob centers, then disjoint slices, so train/val/test come
    # from the same distribution.
    rng = np.random.default_rng(seed)
    full = make_blobs(rng, n_per + 46, d, k)
    n_train, n_val = k * n_per, k * 6
    train = full.subset(np.arange(n_train))
    val = full.subset(np.arange(n_train, n_train + n_val))
    test = full.subset(np.arange(n_train + n_val, len(full)))
    assert np.unique(val.labels).size == k
    return train, val, test


def byte_backed(ds):
    """ds with its pixels quantized to uint8 bytes, as `load_idx` returns them."""
    pixels = np.rint(ds.images[:] * 255.0).astype(np.uint8)
    return Dataset(pixels, ds.labels, ds.original_labels)


def pre_scaled(ds):
    """A byte-backed ds with its pixels already scaled to float64 in [0, 1]."""
    return Dataset(ds.images[:].astype(np.float64) / 255.0, ds.labels, ds.original_labels)


def small_config(**kw):
    base = dict(
        strategy="uniform",
        learning_rate=0.05,
        batch_size_train=16,
        batch_size_val=4,
        total_steps=60,
        eval_every=20,
        hidden_sizes=(8,),
        include_val_in_train=False,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_frozen_and_rechecked_by_replace(self):
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.learning_rate = 0.1
        assert small_config(lr_schedule=[(5, 0.1)]).lr_schedule == ((5, 0.1),)
        with pytest.raises(ConfigError, match="^learning_rate: must be positive and finite$"):
            dataclasses.replace(cfg, learning_rate=np.nan)

    @pytest.mark.parametrize("kw, match", [
        pytest.param({"strategy": "mystery"}, "^strategy: unknown value 'mystery'$", id="unknown_strategy"),
        pytest.param({"learning_rate": 0.0}, "^learning_rate: must be positive and finite$",
                     id="zero_learning_rate"),
        pytest.param({"batch_size_train": 0}, "^batch_size_train: must be at least 1$",
                     id="zero_train_batch"),
        pytest.param({"batch_size_val": 0}, "^batch_size_val: must be at least 1$", id="zero_val_batch"),
        pytest.param({"total_steps": 0}, "^total_steps: must be at least 1$", id="zero_total_steps"),
        pytest.param({"eval_every": 0}, "^eval_every: must be at least 1$", id="zero_eval_every"),
        pytest.param({"lr_schedule": [(5, 0.1), (5, 0.01)]},
                     "^lr_schedule: steps must be strictly increasing$", id="repeated_schedule_step"),
        pytest.param({"lr_schedule": [(5, -1.0)]}, "^lr_schedule: multipliers must be positive and finite$",
                     id="negative_schedule_multiplier"),
        pytest.param({"hard_mining_k": 0}, "^hard_mining_k: must be at least 1 when set$",
                     id="zero_hard_mining_k"),
        pytest.param({"hidden_sizes": ()}, "^hidden_sizes: need positive sizes$", id="no_hidden_layer"),
        pytest.param({"hidden_sizes": (0,)}, "^hidden_sizes: need positive sizes$", id="zero_hidden_size"),
        pytest.param({"activation": "softplus"}, "^activation: unknown value 'softplus'$",
                     id="unknown_activation"),
        pytest.param({"seed": -1}, "^seed: must be nonnegative$", id="negative_seed"),
        pytest.param({"learning_rate": np.nan}, "^learning_rate: must be positive and finite$",
                     id="nan_learning_rate"),
        pytest.param({"learning_rate": np.inf}, "^learning_rate: must be positive and finite$",
                     id="inf_learning_rate"),
        pytest.param({"lr_schedule": [(5, np.nan)]}, "^lr_schedule: multipliers must be positive and finite$",
                     id="nan_schedule_multiplier"),
        pytest.param({"lr_schedule": [(-5, 0.1)]}, "^lr_schedule: steps must be nonnegative$",
                     id="negative_schedule_step"),
    ])
    def test_bad_configs_raise(self, kw, match):
        # The whole message, so a row fails when another rule rejects its input.
        with pytest.raises(ConfigError, match=match):
            small_config(**kw)


class TestTrainBasics:
    def test_uniform_learns_blobs(self):
        train_ds, val_ds, test_ds = blob_sets()
        result = train(small_config(total_steps=300), train_ds, val_ds, test_ds)
        assert result.final_test_error <= 0.2
        assert result.records[-1].step == 300

    def test_weight_log_holds_last_eval_every_steps(self):
        # The last eval_every steps (10-29), not the final evaluation window (20-29).
        train_ds, val_ds, test_ds = blob_sets()
        result = train(small_config(total_steps=30, eval_every=20), train_ds, val_ds, test_ds)
        assert np.array_equal(result.weight_log["step"], np.repeat(np.arange(10, 30), 16))
        assert result.weight_log["weight"].size == 20 * 16
        assert result.weight_log["weight"].min() >= 0

    def test_work_counters_exact(self):
        # Folding the validation set into the pool gives meta_reweight no
        # extra examples: both strategies draw from the same pool.
        train_ds, val_ds, test_ds = blob_sets()
        for fold in (False, True):
            uni = train(small_config(include_val_in_train=fold), train_ds, val_ds, test_ds)
            assert uni.examples == 60 * 16
            meta = train(small_config(strategy="meta_reweight", include_val_in_train=fold),
                         train_ds, val_ds, test_ds)
            assert meta.examples == 60 * (16 + 4)

    def test_uniform_weight_stats(self):
        train_ds, val_ds, test_ds = blob_sets()
        result = train(small_config(), train_ds, val_ds, test_ds)
        for r in result.records:
            assert r.mean_w_clean == pytest.approx(1.0 / 16, abs=0)
            assert r.frac_zero_w == 0.0
            assert np.isnan(r.mean_w_flipped)  # no corrupted examples exist

    def test_uniform_runs_without_validation_set(self):
        train_ds, val_ds, test_ds = blob_sets()
        result = train(small_config(total_steps=20), train_ds, empty(val_ds), test_ds)
        assert [r.step for r in result.records] == [20]
        assert np.isnan(result.records[0].val_loss) and np.isnan(result.records[0].grad_norm_sq)


class TestReplayOracle:
    def _replay(self, cfg, train_ds, val_ds):
        """Reference loop: same RNG stream, explicit batch draw, uniform or
        meta_reweight weights (validation draw, closed-form scores,
        rectify-normalize) and update. Returns the model and the
        (loss, weights, flipped) of every step."""
        rng = np.random.default_rng(cfg.seed)
        model = MLPModel.init(
            [train_ds.images.shape[1], *cfg.hidden_sizes, 2], activation=cfg.activation, rng=rng
        )
        n = cfg.batch_size_train
        steps = []
        for t in range(cfg.total_steps):
            alpha = cfg.learning_rate
            for boundary, mult in cfg.lr_schedule:
                if t >= boundary:
                    alpha = cfg.learning_rate * mult
            idx = rng.choice(len(train_ds), size=n, replace=False)
            batch = Batch(train_ds.images[idx], train_ds.labels[idx])
            cache = forward(model, batch)
            grads = backward_per_example(model, cache, batch)
            w = np.full(n, 1.0 / n)
            if cfg.strategy == "meta_reweight":
                if cfg.batch_size_val >= len(val_ds):
                    vidx = np.arange(len(val_ds))
                else:
                    vidx = rng.choice(len(val_ds), size=cfg.batch_size_val, replace=False)
                vbatch = Batch(val_ds.images[vidx], val_ds.labels[vidx])
                vgrads = backward_per_example(model, forward(model, vbatch), vbatch)
                w = rectify_normalize(meta_grad_closed_form(grads, vgrads))
            steps.append((float(w @ cache.losses), w, train_ds.flipped_mask[idx]))
            model = sgd_step(model, weighted_gradient(grads, w), alpha)
        return model, steps

    def test_uniform_steps_match_reference(self):
        train_ds, val_ds, test_ds = blob_sets()
        cfg = small_config(total_steps=5, eval_every=5)
        result = train(cfg, train_ds, val_ds, test_ds)
        want, _ = self._replay(cfg, train_ds, val_ds)
        assert np.array_equal(result.model.flatten(), want.flatten())

    def test_meta_reweight_steps_match_reference(self):
        train_ds, val_ds, test_ds = blob_sets()
        spec = NoiseSpec("uniform_flip", 0.3, num_classes=2)
        noisy = corrupt(train_ds, spec, np.random.default_rng(4))
        # 23 steps at eval_every 10: the last window holds 3 steps.
        cfg = small_config(strategy="meta_reweight", total_steps=23, eval_every=10)
        result = train(cfg, noisy, val_ds, test_ds)
        want, steps = self._replay(cfg, noisy, val_ds)
        assert np.array_equal(result.model.flatten(), want.flatten())

        assert [r.step for r in result.records] == [10, 20, 23]
        for r, start in zip(result.records, (0, 10, 20)):
            window = steps[start : r.step]
            w = np.concatenate([s[1] for s in window])
            flipped = np.concatenate([s[2] for s in window])
            assert flipped.any() and not flipped.all()
            assert r.train_loss == pytest.approx(np.mean([s[0] for s in window]), rel=1e-12)
            assert r.mean_w_clean == pytest.approx(w[~flipped].mean(), rel=1e-12)
            assert r.mean_w_flipped == pytest.approx(w[flipped].mean(), rel=1e-12)
            assert r.frac_zero_w == np.mean(w == 0.0)

    @pytest.mark.parametrize("batch_size_val", [12, 50])
    def test_full_validation_batch_matches_reference(self, batch_size_val):
        # A batch_size_val covering the set takes the whole set, in order,
        # and draws nothing from the generator.
        train_ds, val_ds, test_ds = blob_sets()
        assert len(val_ds) == 12
        cfg = small_config(strategy="meta_reweight", total_steps=15, eval_every=5,
                           batch_size_val=batch_size_val)
        result = train(cfg, train_ds, val_ds, test_ds)
        want, _ = self._replay(cfg, train_ds, val_ds)
        assert np.array_equal(result.model.flatten(), want.flatten())
        assert result.examples == 15 * (16 + 12)

    def test_lr_schedule_applied(self):
        train_ds, val_ds, test_ds = blob_sets()
        cfg = small_config(total_steps=6, eval_every=6, lr_schedule=[(3, 0.1)])
        result = train(cfg, train_ds, val_ds, test_ds)
        want, _ = self._replay(cfg, train_ds, val_ds)
        assert np.array_equal(result.model.flatten(), want.flatten())
        # And the schedule must actually change the outcome.
        plain, _ = self._replay(small_config(total_steps=6, eval_every=6), train_ds, val_ds)
        assert not np.array_equal(result.model.flatten(), plain.flatten())


class TestByteBackedImages:
    def test_bytes_train_like_pre_scaled_pixels(self):
        # A flipped pool and the validation fold exercise every weight
        # column and the joined pool; the bytes are scaled only in Batch.
        train_ds, val_ds, test_ds = blob_sets()
        noisy = corrupt(
            train_ds, NoiseSpec("uniform_flip", 0.3, num_classes=2), np.random.default_rng(4)
        )
        as_bytes = [byte_backed(ds) for ds in (noisy, val_ds, test_ds)]
        assert all(ds.images.dtype == np.uint8 for ds in as_bytes)
        as_floats = [pre_scaled(ds) for ds in as_bytes]
        for strategy in STRATEGIES:
            cfg = small_config(strategy=strategy, include_val_in_train=True, eval_every=25)
            a, b = train(cfg, *as_bytes), train(cfg, *as_floats)
            assert np.isfinite(a.model.flatten()).all()
            assert [w.tobytes() for w in a.model.layers] == [w.tobytes() for w in b.model.layers]
            assert [repr(r.csv_row()) for r in a.records] == [repr(r.csv_row()) for r in b.records]
            for key in ("step", "weight", "flipped"):
                assert a.weight_log[key].tobytes() == b.weight_log[key].tobytes(), (strategy, key)


class TestValidationFolding:
    def test_val_examples_enter_training_pool(self, monkeypatch):
        train_ds, val_ds, test_ds = blob_sets(n_per=10)
        # A batch the size of the pool is drawn without replacement, so with
        # include_val_in_train each batch holds every train and val row once.
        cfg = small_config(
            batch_size_train=len(train_ds) + len(val_ds),
            total_steps=2,
            eval_every=2,
            include_val_in_train=True,
        )
        drawn = []

        def recording(inputs, labels):
            batch = Batch(inputs, labels)
            if len(batch) == cfg.batch_size_train:
                drawn.append(sorted(row.tobytes() for row in batch.inputs))
            return batch

        monkeypatch.setattr(trainer, "Batch", recording)
        result = train(cfg, train_ds, val_ds, test_ds)
        pool = np.concatenate([train_ds.images[:], val_ds.images[:]])
        assert drawn == [sorted(row.tobytes() for row in pool)] * 2
        assert result.examples == 2 * (len(train_ds) + len(val_ds))

    def test_pool_of_one_array_is_indexed_not_copied(self):
        rng = np.random.default_rng(12)
        pixels = rng.integers(0, 256, size=(20_000, 784), dtype=np.uint8)
        ds = Dataset(pixels, np.arange(20_000) % 2)
        train_ds, val_ds = split_clean_validation(ds, 5, rng)
        cfg = small_config(total_steps=2, eval_every=2, hidden_sizes=(4,), include_val_in_train=True)
        tracemalloc.start()
        try:
            train(cfg, train_ds, val_ds, ds.subset(np.arange(100)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < pixels.nbytes


class TestHardMiningDefaults:
    def test_no_minority_batch_is_noop(self):
        # A single-class dataset means k defaults to 0 and nothing is kept,
        # so the update degenerates to a zero step and parameters hold still.
        rng = np.random.default_rng(9)
        images = rng.random((40, 4))
        ds = Dataset(images, np.zeros(40, dtype=int))
        test = Dataset(rng.random((10, 4)), np.zeros(10, dtype=int))
        # Include one example of class 1 in test so the model has 2 outputs.
        test.labels[0] = 1
        cfg = small_config(strategy="hard_mining", total_steps=3, eval_every=3, batch_size_train=8)
        result = train(cfg, ds, ds.subset(np.arange(4)), test)
        init_rng = np.random.default_rng(cfg.seed)
        init = MLPModel.init([4, *cfg.hidden_sizes, 2], rng=init_rng)
        assert np.array_equal(result.model.flatten(), init.flatten())

    def test_explicit_k_used(self):
        train_ds, val_ds, test_ds = blob_sets()
        result = train(
            small_config(strategy="hard_mining", hard_mining_k=4, total_steps=20),
            train_ds,
            val_ds,
            test_ds,
        )
        # Weights are indicator/|sel|; with both classes present some examples
        # must be zero-weighted.
        assert result.records[-1].frac_zero_w > 0


class TestEvaluationWorker:
    @pytest.mark.parametrize("strategy", ["uniform", "meta_reweight"])
    def test_records_match_snapshots_evaluated_here(self, monkeypatch, strategy):
        train_ds, val_ds, test_ds = blob_sets()
        # 20 examples: uniform's lowest hyperval error comes twice, at steps
        # 56 and 60, and the earlier point must win.
        hyper = test_ds.subset(np.arange(20))
        passes = []  # (model, ds) of every evaluate call
        monkeypatch.setattr(
            trainer, "evaluate", lambda model, ds: passes.append((model, ds)) or evaluate(model, ds)
        )
        cfg = small_config(strategy=strategy, early_stop_on_hyperval=True, eval_every=7)
        result = train(cfg, train_ds, val_ds, test_ds, hyper)
        assert [r.step for r in result.records] == [7, 14, 21, 28, 35, 42, 49, 56, 60]
        snapshots = [m for m, ds in passes if ds is test_ds]
        assert [id(m) for m, ds in passes if ds is hyper] == [id(m) for m in snapshots]
        assert len(passes) == 2 * len(snapshots) == 2 * len(result.records)
        for r, snapshot in zip(result.records, snapshots):
            assert r.test_error == evaluate(snapshot, test_ds)[0]
            assert r.hyperval_error == evaluate(snapshot, hyper)[0]
        hyper_errors = [r.hyperval_error for r in result.records]
        chosen = hyper_errors.index(min(hyper_errors))
        assert result.model is snapshots[chosen]
        assert result.final_test_error == evaluate(snapshots[chosen], test_ds)[0]

    def test_waiting_thread_runs_the_pass_not_started(self, monkeypatch):
        # The test pass keeps the worker busy past each next point, so every
        # hyperval pass is still queued when the training thread files it.
        train_ds, val_ds, test_ds = blob_sets()
        hyper = test_ds.subset(np.arange(20))
        hyper_threads = []

        def slow_test_pass(model, ds):
            if ds is hyper:
                hyper_threads.append(threading.current_thread())
            else:
                time.sleep(0.2)
            return evaluate(model, ds)

        monkeypatch.setattr(trainer, "evaluate", slow_test_pass)
        result = train(small_config(), train_ds, val_ds, test_ds, hyper)
        assert len(result.records) == 3
        assert hyper_threads == [threading.main_thread()] * 3
        reference = train(small_config(), train_ds, val_ds, test_ds, hyper)
        assert [repr(r) for r in result.records] == [repr(r) for r in reference.records]

    def test_non_finite_step_while_evaluating(self, monkeypatch):
        train_ds, val_ds, test_ds = blob_sets()

        def slow_evaluate(model, ds):
            time.sleep(0.05)  # still running when the next step raises
            return evaluate(model, ds)

        monkeypatch.setattr(trainer, "evaluate", slow_evaluate)
        threads = threading.active_count()
        cfg = small_config(learning_rate=1e300, eval_every=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflowed model's evaluation
            with pytest.raises(NonFiniteError, match=r"^seed 0 step 1: gradient contains"):
                train(cfg, train_ds, val_ds, test_ds)
        assert threading.active_count() == threads

    def test_evaluation_error_keeps_its_type(self, monkeypatch):
        train_ds, val_ds, test_ds = blob_sets()

        class Failed(Exception):
            pass

        def failing_evaluate(model, ds):
            raise Failed("evaluation failed")

        monkeypatch.setattr(trainer, "evaluate", failing_evaluate)
        threads = threading.active_count()
        with pytest.raises(Failed, match="evaluation failed"):
            train(small_config(), train_ds, val_ds, test_ds)
        assert threading.active_count() == threads


class TestEvaluate:
    def test_exact_error_count(self):
        # Identity logits: prediction equals the argmax of the input row.
        model = MLPModel([np.vstack([np.eye(3), np.zeros(3)])])
        images = np.eye(3)[[0, 1, 2, 0]]
        labels = np.array([0, 1, 0, 0])  # third example is wrong on purpose
        err, loss = evaluate(model, Dataset(images, labels))
        assert err == 0.25
        assert loss > 0

    def test_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(12)
        ds = make_blobs(rng, 70, 5, 3)
        model = MLPModel.init([5, 6, 3], rng=rng)
        monkeypatch.setattr(trainer, "EVAL_CHUNK", 7)
        a = evaluate(model, ds)
        monkeypatch.setattr(trainer, "EVAL_CHUNK", 1000)
        b = evaluate(model, ds)
        assert a[0] == b[0]
        assert a[1] == pytest.approx(b[1], rel=1e-12)


def empty(ds):
    return ds.subset(np.empty(0, dtype=np.int64))


def one_class(ds):
    return Dataset(ds.images, np.zeros(len(ds), dtype=np.int64))


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda tr, va, te: train(
        small_config(), tr, corrupt(va, NoiseSpec("uniform_flip", 1.0, num_classes=2), np.random.default_rng(3)), te),
                 "^validation set contains corrupted labels$", id="corrupted_validation"),
    pytest.param(lambda tr, va, te: train(small_config(strategy="meta_reweight"), tr, empty(tr), te),
                 "^meta_reweight needs a nonempty validation set$", id="meta_without_validation"),
    pytest.param(lambda tr, va, te: train(small_config(), empty(tr), va, te),
                 "^training set is empty$", id="empty_train"),
    pytest.param(lambda tr, va, te: train(small_config(), tr, va, empty(te)),
                 "^test set is empty$", id="empty_test"),
    pytest.param(lambda tr, va, te: train(small_config(early_stop_on_hyperval=True), tr, va, te),
                 "^early_stop_on_hyperval needs a hyperval dataset$", id="early_stop_without_hyperval"),
    pytest.param(lambda tr, va, te: train(small_config(include_val_in_train=True), byte_backed(tr), va, te),
                 "^cannot join uint8 images with float64 images$", id="bytes_joined_with_floats"),
    pytest.param(lambda tr, va, te: train(small_config(), one_class(tr), one_class(va), one_class(te)),
                 "^need at least two classes to train a classifier$", id="one_class"),
    pytest.param(lambda tr, va, te: evaluate(MLPModel.init([6, 2]), empty(te)),
                 "^cannot evaluate on an empty dataset$", id="evaluate_empty"),
])
def test_bad_datasets_raise(call, match):
    with pytest.raises(ConfigError, match=match):
        call(*blob_sets())
