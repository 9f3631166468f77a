"""Convergence machinery tests. The closed-form oracles for the estimators,
the materialized-gradient oracle for the descent step and the rate-report
oracles live in `metareweight.checks`; the tests here cover validation,
the CSV files and synthetic monotone descent runs."""

import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import make_blobs
from test_trainer import byte_backed, pre_scaled
from metareweight import theory
from metareweight.checks import (
    fd_meta_gradient,
    quadratic_surrogate,
    random_batch,
    random_model,
    with_params,
)
from metareweight.data import Dataset
from metareweight.errors import ConfigError, DimensionError
from metareweight.nn import MLPModel
from metareweight.theory import (
    DescentEntry,
    RegularityEstimate,
    estimate_grad_bound,
    estimate_smoothness,
    rate_report,
    run_descent_verification,
    safe_step_size,
    validation_objective,
    write_descent_csv,
    write_rate_csv,
)


class TestEstimators:
    def test_grad_bound_subsample_is_lower_bound(self):
        rng = np.random.default_rng(72)
        ds = make_blobs(rng, 50, 5, 2)
        model = random_model(rng, [5, 6, 2], "relu", bias_scale=0.2)
        full = estimate_grad_bound(model, ds, sample_count=len(ds), rng=np.random.default_rng(0))
        sub = estimate_grad_bound(model, ds, sample_count=10, rng=np.random.default_rng(0))
        assert sub <= full + 1e-15

    def test_safe_step_size_formula(self):
        # With the safety factor 2 the bound collapses to n/(L s^2), capped at 0.1.
        est = RegularityEstimate(smoothness=4.0, grad_bound=3.0)
        assert safe_step_size(1, est) == pytest.approx(1 / (4.0 * 9.0), rel=1e-12)
        assert safe_step_size(100, est) == theory.ALPHA_CAP == 0.1


class TestDescentStep:
    def test_synthetic_monotone_descent(self):
        rng = np.random.default_rng(75)
        full = make_blobs(rng, 120, 6, 2)
        train_ds = full.subset(np.arange(200))
        val_ds = full.subset(np.arange(200, 240))
        run = run_descent_verification(
            train_ds, val_ds, steps=200, batch_size=20, seed=3, hidden_sizes=(12,),
            probes=15, sample_count=64,
        )
        assert run.violations == 0
        assert run.alpha <= 0.1
        assert len(run.trace) == 200
        # Consecutive entries agree on the objective value at the shared point.
        for a, b in zip(run.trace, run.trace[1:]):
            assert a.g_after == b.g_before

    def test_bytes_descend_like_pre_scaled_pixels(self):
        full = byte_backed(make_blobs(np.random.default_rng(77), 60, 6, 2))
        runs = []
        for ds in (full, pre_scaled(full)):
            runs.append(run_descent_verification(
                ds.subset(np.arange(100)), ds.subset(np.arange(100, 120)), steps=20,
                batch_size=20, seed=3, hidden_sizes=(12,), probes=15, sample_count=64,
            ))
        a, b = runs
        assert len(a.trace) == 20
        assert [w.tobytes() for w in a.model.layers] == [w.tobytes() for w in b.model.layers]
        assert (a.alpha, a.trace) == (b.alpha, b.trace)

    def test_returned_estimate_chose_alpha(self, monkeypatch):
        # Each trial calls safe_step_size once; the run returns the estimate
        # of its last trial, which is the one that chose its step size.
        chosen = []
        real = theory.safe_step_size

        def counted(batch_size, estimate):
            chosen.append(estimate)
            return real(batch_size, estimate)

        monkeypatch.setattr(theory, "safe_step_size", counted)
        full = make_blobs(np.random.default_rng(75), 120, 6, 2)
        run = run_descent_verification(
            full.subset(np.arange(200)), full.subset(np.arange(200, 240)), steps=100,
            batch_size=4, seed=0, hidden_sizes=(12,), probes=15, sample_count=64,
        )
        assert len(chosen) > 1
        assert run.estimate is chosen[-1]
        assert real(4, run.estimate) == run.alpha != real(4, chosen[0])
        for a, b in zip(chosen, chosen[1:]):
            assert b.smoothness >= a.smoothness and b.grad_bound >= a.grad_bound

    def test_short_trial_inside_the_estimate_is_returned_at_once(self, monkeypatch):
        # Every trial is cut to 5 of its 20 steps, and the starting estimate
        # bounds whatever the tiny step meets, so the trial adds nothing to it.
        # A second trial would start from the same estimate and replay the
        # first exactly, so the run returns the first.
        estimate = RegularityEstimate(smoothness=1e6, grad_bound=1e3)
        calls = []
        real = theory._descent_trial

        def cut_short(model, batches, objective, alpha):
            calls.append((model, list(itertools.islice(batches, 5)), objective, alpha))
            return real(*calls[-1])

        monkeypatch.setattr(theory, "_descent_trial", cut_short)
        monkeypatch.setattr(theory, "estimate_regularity", lambda *args: estimate)
        full = make_blobs(np.random.default_rng(75), 60, 6, 2)
        run = run_descent_verification(
            full.subset(np.arange(100)), full.subset(np.arange(100, 120)), steps=20,
            batch_size=20, seed=3, hidden_sizes=(12,),
        )
        assert len(calls) == 1
        model, trace, seen = real(*calls[0])  # the replay that would come next
        assert seen.smoothness <= estimate.smoothness and seen.grad_bound <= estimate.grad_bound
        assert len(run.trace) == 5 and run.trace == trace
        assert [w.tobytes() for w in run.model.layers] == [w.tobytes() for w in model.layers]
        assert run.estimate is estimate and run.alpha == safe_step_size(20, estimate)

    def test_memory_does_not_grow_with_steps(self):
        # Batches are built as a trial reaches them: 200 prebuilt 100-example
        # batches at 784 features would hold about 126 MB.
        rng = np.random.default_rng(81)
        pixels = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
        ds = Dataset(pixels, rng.integers(0, 2, size=300))
        train_ds, val_ds = ds.subset(np.arange(290)), ds.subset(np.arange(290, 300))
        tracemalloc.start()
        try:
            run = run_descent_verification(
                train_ds, val_ds, steps=200, batch_size=100, seed=0, hidden_sizes=(8,)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.trace
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


class TestRateReport:
    def test_short_trace(self):
        rows = rate_report([DescentEntry(0, 0.0, 0.0, 2.0, 0.0)])
        assert len(rows) == 1 and rows[0].horizon == 1


class TestCsvEmission:
    def test_descent_and_rate_files(self, tmp_path):
        trace = [DescentEntry(t, 1.0 / (t + 1), 1.0 / (t + 2), 0.5 / (t + 1), 0.25) for t in range(40)]
        dpath = tmp_path / "trace.csv"
        rpath = tmp_path / "rate.csv"
        write_descent_csv(trace, str(dpath))
        write_rate_csv(rate_report(trace), str(rpath))
        with open(dpath) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "G", "grad_norm_sq", "T_t"]
        assert len(rows) == 41
        assert float(rows[1][1]) == 1.0
        with open(rpath) as f:
            rrows = list(csv.reader(f))
        assert rrows[0] == ["T", "min_grad_norm_sq", "envelope"]
        assert len(rrows) >= 6


class TestFdMetaGradient:
    def test_alpha_zero_gives_zeros(self):
        rng = np.random.default_rng(78)
        model = random_model(rng, [4, 3, 2], "relu")
        tb = random_batch(rng, 4, 4, 2)
        vb = random_batch(rng, 2, 4, 2)
        u = fd_meta_gradient(model, tb, vb, alpha=0.0)
        assert np.array_equal(u, np.zeros(4))


class TestObjectiveContract:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_blobs(rng, 30, 5, 2)
        model = random_model(rng, [5, 6, 2], "relu", bias_scale=0.1)
        return model, validation_objective(ds.images[:10], ds.labels[:10])

    def test_gradients_are_fresh_writable_arrays(self):
        model, objective = self._setup(80)
        (va, ga), (vb, gb) = objective(model), objective(model)
        assert va == vb and np.array_equal(ga, gb)
        assert ga is not gb and not np.shares_memory(ga, gb)
        assert ga.flags.writeable and gb.flags.writeable
        assert not any(np.shares_memory(ga, w) for w in model.layers)

    def test_smoothness_matches_copying_loop_bitwise(self):
        model, objective = self._setup(81)
        probes, radius, restarts = 9, theory.PROBE_RADIUS, theory.RESTARTS

        def reference(rng):
            # The estimator written with a new model and new arrays per probe.
            theta = model.flatten()
            _, g0 = objective(model)
            best, spent = 0.0, 0
            for _ in range(restarts):
                d = rng.standard_normal(theta.size)
                d /= np.linalg.norm(d)
                for _ in range(-(-probes // restarts)):
                    if spent >= probes:
                        break
                    _, g1 = objective(with_params(model, theta + radius * d))
                    spent += 1
                    diff = g1 - g0
                    ratio = float(np.linalg.norm(diff)) / radius
                    best = max(best, ratio)
                    if ratio == 0.0 or not np.isfinite(ratio):
                        break
                    d = diff / np.linalg.norm(diff)
            return best

        before = [w.tobytes() for w in model.layers]
        got = estimate_smoothness(model, objective, probes=probes, rng=np.random.default_rng(5))
        want = reference(np.random.default_rng(5))
        assert got > 0 and repr(got) == repr(want)
        assert [w.tobytes() for w in model.layers] == before


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: estimate_smoothness(
        MLPModel.init([3, 2]), quadratic_surrogate(1.0), probes=0, rng=np.random.default_rng(0)
    ), ValueError, id="smoothness_no_probes"),
    pytest.param(lambda: estimate_grad_bound(
        MLPModel.init([3, 2]), Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)), None,
        np.random.default_rng(0),
    ), ConfigError, id="grad_bound_empty_set"),
    pytest.param(lambda: estimate_grad_bound(
        MLPModel.init([3, 2]), Dataset(np.zeros((2, 3)), np.zeros(2, dtype=int)), sample_count=0,
        rng=np.random.default_rng(0),
    ), ValueError, id="grad_bound_no_samples"),
    pytest.param(lambda: run_descent_verification(
        ds := make_blobs(np.random.default_rng(76), 20, 4, 2), ds.subset(np.empty(0, dtype=np.int64)),
        steps=2, batch_size=4,
    ), ConfigError, id="descent_empty_validation_set"),
    pytest.param(lambda: run_descent_verification(
        (ds := make_blobs(np.random.default_rng(76), 20, 4, 2)).subset(np.empty(0, dtype=np.int64)), ds,
        steps=2, batch_size=4,
    ), ConfigError, id="descent_empty_training_set"),
    pytest.param(lambda: run_descent_verification(
        ds := make_blobs(np.random.default_rng(76), 20, 4, 2), ds, steps=0, batch_size=4,
    ), ValueError, id="descent_no_steps"),
    pytest.param(lambda: rate_report([]), ValueError, id="rate_report_empty_trace"),
    pytest.param(lambda: validation_objective(np.zeros((0, 5)), np.zeros(0, dtype=int)), DimensionError,
                 id="objective_empty_validation_set"),
])
def test_bad_input_raises(call, error):
    with pytest.raises(error):
        call()
