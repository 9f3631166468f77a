"""Convergence machinery tests. The closed-form oracles for the estimators,
the materialized-gradient oracle for the descent step and the rate-report
oracles live in `metareweight.checks`; the tests here cover validation,
the CSV files and synthetic monotone descent runs."""

import importlib
import inspect
import itertools
import os

import numpy as np
import pytest

from conftest import csv_rows, make_blobs, traced_peak
from test_trainer import byte_backed, pre_scaled
from metareweight import theory
from metareweight.checks import (
    fd_meta_gradient,
    quadratic_surrogate,
    random_model,
    seeded,
    with_params,
)
from metareweight.data import Dataset
from metareweight.errors import ConfigError, DimensionError
from metareweight.nn import Batch, MLPModel
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


def split_at(ds, n_train):
    """(the first n_train rows of ds, the rest): a training and a validation set."""
    return ds.subset(np.arange(n_train)), ds.subset(np.arange(n_train, len(ds)))


class TestEstimators:
    def test_grad_bound_reads_every_row(self):
        # On a zero model the bound follows the largest row, wherever that row sits.
        model, big = MLPModel([np.zeros((4, 2))]), Dataset(np.full((1, 3), 2.0), np.zeros(1, dtype=int))
        for row in range(5):
            ds = Dataset(np.where(np.arange(5)[:, None] == row, 2.0, np.ones((5, 3))), np.zeros(5, dtype=int))
            assert estimate_grad_bound(model, ds) == estimate_grad_bound(model, big)

    def test_safe_step_size_formula(self):
        # With the safety factor 2 the bound collapses to n/(L s^2), capped at 0.1.
        est = RegularityEstimate(smoothness=4.0, grad_bound=3.0)
        assert safe_step_size(1, est) == pytest.approx(1 / (4.0 * 9.0), rel=1e-12)
        assert safe_step_size(100, est) == theory.ALPHA_CAP == 0.1
        # No measured curvature or gradient: nothing bounds the step but the cap.
        for flat in (RegularityEstimate(0.0, 3.0), RegularityEstimate(4.0, 0.0)):
            assert safe_step_size(1, flat) == 0.1

    def test_flat_objective_ends_each_restart_at_its_first_probe(self, recwarn):
        # A zero gradient difference gives no direction to iterate along, so the
        # objective runs once at the model and once per restart.
        calls = []
        flat = quadratic_surrogate(0.0)

        def counted(model):
            calls.append(model)
            return flat(model)

        model = random_model(np.random.default_rng(82), [5, 6, 2], "relu", bias_scale=0.1)
        assert estimate_smoothness(model, counted, np.random.default_rng(5)) == 0.0
        assert len(calls) == 1 + theory.RESTARTS
        assert not recwarn.list


class TestDescentStep:
    def test_synthetic_monotone_descent(self):
        train_ds, val_ds = split_at(make_blobs(np.random.default_rng(75), 120, 6, 2), 200)
        run = run_descent_verification(train_ds, val_ds, steps=200, batch_size=20, seed=3, hidden_sizes=(12,))
        assert run.violations == 0
        assert run.alpha <= 0.1
        assert len(run.trace) == 200
        # Consecutive entries agree on the objective value at the shared point.
        for a, b in zip(run.trace, run.trace[1:]):
            assert a.g_after == b.g_before

    def test_bytes_descend_like_pre_scaled_pixels(self):
        full = byte_backed(make_blobs(np.random.default_rng(77), 60, 6, 2))
        a, b = (run_descent_verification(*split_at(ds, 100), steps=20, batch_size=20, seed=3, hidden_sizes=(12,))
                for ds in (full, pre_scaled(full)))
        assert len(a.trace) == 20
        assert [w.tobytes() for w in a.model.layers] == [w.tobytes() for w in b.model.layers]
        assert (a.alpha, a.trace) == (b.alpha, b.trace)

    def test_returned_estimate_chose_alpha(self, monkeypatch):
        # Each trial calls safe_step_size once; the run returns the estimate of its last
        # trial, which chose its step size. The starting smoothness is far below what the
        # first trial meets, so a second trial runs at a smaller step size.
        chosen = []
        real = theory.safe_step_size

        def counted(batch_size, estimate):
            chosen.append(estimate)
            return real(batch_size, estimate)

        monkeypatch.setattr(theory, "safe_step_size", counted)
        monkeypatch.setattr(theory, "estimate_regularity", lambda *args: RegularityEstimate(1e-2, 1e2))
        run = run_descent_verification(
            *split_at(make_blobs(np.random.default_rng(75), 120, 6, 2), 200), steps=100,
            batch_size=4, seed=0, hidden_sizes=(12,),
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
        run = run_descent_verification(
            *split_at(make_blobs(np.random.default_rng(75), 60, 6, 2), 100), steps=20,
            batch_size=20, seed=3, hidden_sizes=(12,),
        )
        assert len(calls) == 1
        model, trace, seen = real(*calls[0])  # the replay that would come next
        assert seen.smoothness <= estimate.smoothness and seen.grad_bound <= estimate.grad_bound
        assert len(run.trace) == 5 and run.trace == trace
        assert run.violations == 15  # the steps the trial never took
        assert [w.tobytes() for w in run.model.layers] == [w.tobytes() for w in model.layers]
        assert run.estimate is estimate and run.alpha == safe_step_size(20, estimate)

    @pytest.mark.parametrize("alpha, taken", [
        pytest.param(5.0, 2, id="past_ceiling"),
        pytest.param(1e200, 1, id="nan_objective"),
    ])
    def test_stopped_trial_fails_every_requested_step(self, monkeypatch, recwarn, alpha, taken):
        # A fixed step size far too large for the blobs: at 5.0 G passes ten times its
        # start on the second step, at 1e200 it is NaN after the first. Each trial
        # stops there; the steps it took rose and the rest were never taken.
        monkeypatch.setattr(theory, "safe_step_size", lambda batch_size, estimate: alpha)
        run = run_descent_verification(
            *split_at(make_blobs(np.random.default_rng(75), 120, 6, 2), 200), steps=40,
            batch_size=20, seed=3, hidden_sizes=(12,),
        )
        assert len(run.trace) == taken
        assert not any(e.g_after <= e.g_before for e in run.trace)
        last = run.trace[-1].g_after
        assert np.isnan(last) if alpha == 1e200 else last > 10.0 * max(run.trace[0].g_before, 1.0)
        assert run.violations == 40
        assert not recwarn.list

    def test_step_that_overflows_ends_the_trial(self, recwarn):
        # Input weights of 1e308 overflow on the all-ones batch, so the first
        # direction is NaN and sgd_step raises. The zero validation inputs meet
        # only the biases, so G is finite at the start.
        model = MLPModel.init([4, 3, 2], rng=np.random.default_rng(83))
        model.layers[0][:-1] = 1e308
        objective = validation_objective(np.zeros((3, 4)), np.array([0, 1, 0]))
        batch = Batch(np.ones((5, 4)), np.array([0, 1, 0, 1, 1]))
        stepped, trace, seen = theory._descent_trial(model, [batch] * 3, objective, 0.1)
        assert stepped is model and trace == []
        assert theory.DescentRun(trace, stepped, 0.1, seen, steps=3).violations == 3
        assert not recwarn.list

    def test_memory_does_not_grow_with_steps(self):
        # Batches are built as a trial reaches them: 200 prebuilt 100-example
        # batches at 784 features would hold about 126 MB.
        rng = np.random.default_rng(81)
        pixels = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
        ds = Dataset(pixels, rng.integers(0, 2, size=300))
        run, peak = traced_peak(
            run_descent_verification, *split_at(ds, 290), steps=200, batch_size=100, seed=0, hidden_sizes=(8,)
        )
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
        rows = csv_rows(dpath)
        assert rows[0] == ["step", "G", "grad_norm_sq", "T_t"]
        assert len(rows) == 41
        assert float(rows[1][1]) == 1.0
        rrows = csv_rows(rpath)
        assert rrows[0] == ["T", "min_grad_norm_sq", "envelope"]
        assert len(rrows) >= 6


class TestFdMetaGradient:
    def test_alpha_zero_gives_zeros(self):
        u = fd_meta_gradient(*seeded(78, [4, 3, 2], "relu", 0.0, 4, 2)[1:], alpha=0.0)
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
        radius = theory.PROBE_RADIUS

        def reference(rng):
            # The estimator written with a new model and new arrays per probe:
            # 4 restarts of 15 power-iteration probes.
            theta = model.flatten()
            _, g0 = objective(model)
            best = 0.0
            for _ in range(4):
                d = rng.standard_normal(theta.size)
                d /= np.linalg.norm(d)
                for _ in range(15):
                    _, g1 = objective(with_params(model, theta + radius * d))
                    diff = g1 - g0
                    ratio = float(np.linalg.norm(diff)) / radius
                    best = max(best, ratio)
                    if ratio == 0.0 or not np.isfinite(ratio):
                        break
                    d = diff / np.linalg.norm(diff)
            return best

        before = [w.tobytes() for w in model.layers]
        got = estimate_smoothness(model, objective, np.random.default_rng(5))
        want = reference(np.random.default_rng(5))
        assert got > 0 and repr(got) == repr(want)
        assert [w.tobytes() for w in model.layers] == before


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: estimate_grad_bound(
        MLPModel.init([3, 2]), Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
    ), ConfigError, id="grad_bound_empty_set"),
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


def test_benchmark_descent_workload_draws_the_check_recipe(monkeypatch):
    """The benchmark's descent workload times the set-up `verify --level full` checks."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
    workload = importlib.import_module("workload")
    assert workload.DESCENT_PAIR == theory.PAIR
    assert workload.DESCENT_VAL_PER_CLASS == theory.VAL_PER_CLASS
    assert workload.DESCENT_BATCH == inspect.signature(run_descent_verification).parameters["batch_size"].default
