"""Acceptance suite: the nine checks the package must pass end to end.

Each criterion is one test; every test appends a PASS/FAIL verdict line that
the conftest echoes after the run, so the output always carries one line per
criterion. Criteria 1, 2, 3, 8 and 9 are decided by the quick checks of
`metareweight.checks`, the same functions `metareweight verify` runs. The
MNIST criteria (4-7) share session fixtures because the runs are expensive.

Criteria 4-7 skip cleanly when the MNIST IDX files are not available (set
MNIST_DIR); on a stock single-core machine the whole module takes roughly
half an hour, dominated by the imbalance benchmark.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, run_check
from metareweight.data import (
    ImbalanceSpec,
    NoiseSpec,
    corrupt,
    filter_remap,
    make_imbalanced_pair,
    random_split,
    split_clean_validation,
)
from metareweight.theory import DescentRun, run_descent_verification
from metareweight.trainer import TrainConfig, train

IMBALANCE_RATIOS = (100, 200)
IMBALANCE_BASELINES = ("uniform", "proportion", "hard_mining", "random")
IMBALANCE_SEEDS = 10
NOISE_SEEDS = 3


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _criterion(num: int, name: str, *checks: str) -> None:
    """Verdict of a criterion that the quick checks decide: every one passes, within 60 s."""
    results = [run_check(check) for check in checks]
    elapsed = sum(seconds for _, _, seconds in results)
    ok = all(passed for passed, _, _ in results) and elapsed < 60.0
    details = "; ".join(detail for _, detail, _ in results)
    _verdict(num, name, ok, f"{details}; {elapsed:.1f}s (<60s)")
    assert ok


class TestCriterion1:
    def test_meta_gradient_oracle_chain(self):
        _criterion(
            1,
            "meta-gradient oracle chain",
            "lookahead_matches_closed_form_scaled",
            "meta_gradient_matches_finite_differences",
        )


class TestCriterion2:
    def test_per_example_gradients_match_finite_differences(self):
        _criterion(2, "per-example gradient exactness", "per_example_gradients_match_finite_differences")


class TestCriterion3:
    def test_rectified_normalization_properties(self):
        _criterion(
            3,
            "weight normalization properties",
            "rectified_normalization_invariants",
            "positive_scale_invariance",
        )


@pytest.fixture(scope="session")
def descent_runs(mnist_train):
    """Three seeded monotone-descent verifications on a 4-vs-9 subsample."""
    started = time.perf_counter()
    runs = []
    for seed in range(3):
        rng = np.random.default_rng(1000 + seed)
        pair = make_imbalanced_pair(
            mnist_train, ImbalanceSpec(ratio=1, total=510, minority_class=4, majority_class=9), rng
        )
        train_ds, val_ds = split_clean_validation(pair, 5, rng)
        assert len(train_ds) == 500 and len(val_ds) == 10
        runs.append(
            run_descent_verification(train_ds, val_ds, steps=1000, batch_size=100, seed=seed)
        )
    return runs, time.perf_counter() - started


class TestCriterion4:
    def test_monotone_descent_without_normalization(self, descent_runs):
        runs, elapsed = descent_runs
        violations = sum(r.violations for r in runs)
        alphas = [r.alpha for r in runs]

        ok = violations == 0 and elapsed < 300.0
        _verdict(
            4,
            "monotone validation descent",
            ok,
            f"{violations} violations of G(t+1) <= G(t) + {DescentRun.tolerance:g} over 3 seeds x 1000 steps, "
            f"alpha in [{min(alphas):.2e}, {max(alphas):.2e}], {elapsed:.1f}s (<300s)",
        )
        assert violations == 0
        assert elapsed < 300.0


@pytest.fixture(scope="session")
def imbalance_results(mnist_train, mnist_test):
    """Mean final test errors for the imbalance benchmark.

    For each ratio and seed the datasets are drawn once and shared by every
    strategy, so the comparison is paired. Only the asserted cells run: the
    meta strategy and the four baselines at 100:1 and 200:1, ten seeds each.
    """
    started = time.perf_counter()
    errors = {(s, r): [] for s in ("meta_reweight", *IMBALANCE_BASELINES) for r in IMBALANCE_RATIOS}
    for ratio in IMBALANCE_RATIOS:
        for seed in range(IMBALANCE_SEEDS):
            rng = np.random.default_rng([ratio, seed])
            pair = make_imbalanced_pair(
                mnist_train,
                ImbalanceSpec(ratio=ratio, total=5000, minority_class=4, majority_class=9),
                rng,
            )
            test_ds = filter_remap(mnist_test, pair.label_map)
            train_ds, val_ds = split_clean_validation(pair, 5, rng)
            for strategy in ("meta_reweight", *IMBALANCE_BASELINES):
                config = TrainConfig(
                    strategy=strategy,
                    learning_rate=1e-3,
                    batch_size_train=100,
                    batch_size_val=10,
                    total_steps=8000,
                    eval_every=8000,
                    seed=seed,
                )
                result = train(config, train_ds, val_ds, test_ds)
                errors[(strategy, ratio)].append(result.final_test_error)
    means = {key: float(np.mean(v)) for key, v in errors.items()}
    return means, time.perf_counter() - started


class TestCriterion5:
    def test_imbalance_benchmark(self, imbalance_results):
        means, elapsed = imbalance_results
        beats_all = all(
            means[("meta_reweight", r)] < means[(b, r)]
            for r in IMBALANCE_RATIOS
            for b in IMBALANCE_BASELINES
        )
        meta_200 = means[("meta_reweight", 200)]
        parts = []
        for r in IMBALANCE_RATIOS:
            cells = ", ".join(
                f"{b} {means[(b, r)]:.3f}" for b in IMBALANCE_BASELINES
            )
            parts.append(f"{r}:1 meta {means[('meta_reweight', r)]:.3f} vs {cells}")

        ok = beats_all and meta_200 <= 0.10 and elapsed < 1800.0
        _verdict(
            5,
            "class-imbalance benchmark",
            ok,
            "; ".join(parts) + f"; meta at 200:1 {meta_200:.3f} (<=0.10), {elapsed / 60:.1f} min (<30)",
        )
        assert beats_all, f"meta does not beat every baseline: {means}"
        assert meta_200 <= 0.10
        assert elapsed < 1800.0


@pytest.fixture(scope="session")
def noise_results(mnist_train, mnist_test):
    """Meta and uniform runs on 10-class MNIST with 40% uniform label flips.

    Each seed draws its own 10k train subset and 5k held-out pool, corrupts
    both with the same noise model, and carves the 100 clean validation
    images from the training side; the corrupted held-out pool provides the
    validation-accuracy trajectory that the overfitting comparison reads.
    """
    started = time.perf_counter()
    spec = NoiseSpec(kind="uniform_flip", ratio=0.4, num_classes=10)
    results = {"meta_reweight": [], "uniform": []}
    for seed in range(NOISE_SEEDS):
        rng = np.random.default_rng(2000 + seed)
        rest, subset = random_split(mnist_train, 10_000, rng)
        hyper_src = random_split(rest, 5_000, rng)[1]
        noisy = corrupt(subset, spec, rng)
        hyperval = corrupt(hyper_src, spec, rng)
        train_ds, val_ds = split_clean_validation(noisy, 10, rng)
        assert len(val_ds) == 100
        for strategy in ("meta_reweight", "uniform"):
            # 0.1 is the interesting regime for this comparison: small enough
            # to train stably, large enough that within 8000 steps the uniform
            # baseline starts fitting the flipped labels instead of merely
            # underfitting everything, which is the failure mode under test.
            config = TrainConfig(
                strategy=strategy,
                learning_rate=0.1,
                batch_size_train=100,
                batch_size_val=100,
                total_steps=8000,
                eval_every=200,
                seed=seed,
            )
            results[strategy].append(train(config, train_ds, val_ds, mnist_test, hyperval))
    return results, time.perf_counter() - started


def _degradation(result) -> float:
    acc = np.array([1.0 - rec.hyperval_error for rec in result.records])
    return float(acc.max() - acc[-1])


class TestCriterion6:
    def test_label_noise_robustness(self, noise_results):
        results, elapsed = noise_results
        meta_acc = float(np.mean([1.0 - r.final_test_error for r in results["meta_reweight"]]))
        base_acc = float(np.mean([1.0 - r.final_test_error for r in results["uniform"]]))
        meta_deg = float(np.mean([_degradation(r) for r in results["meta_reweight"]]))
        base_deg = float(np.mean([_degradation(r) for r in results["uniform"]]))

        ok = (
            meta_acc >= base_acc + 0.03
            and meta_deg <= base_deg
            and elapsed < 1800.0
        )
        _verdict(
            6,
            "label-noise robustness",
            ok,
            f"final test accuracy meta {meta_acc:.3f} vs uniform {base_acc:.3f} (gap >=0.03); "
            f"peak-final validation-accuracy drop meta {meta_deg:.3f} <= uniform {base_deg:.3f}; "
            f"{elapsed / 60:.1f} min (<30)",
        )
        assert meta_acc >= base_acc + 0.03
        assert meta_deg <= base_deg
        assert elapsed < 1800.0


class TestCriterion7:
    def test_flipped_examples_get_low_weight(self, noise_results):
        results, _ = noise_results
        clean_means = []
        flipped_means = []
        for r in results["meta_reweight"]:
            tail = [rec for rec in r.records if rec.step > r.records[-1].step - 1000]
            assert tail, "no records inside the last 1000 steps"
            clean_means.append(float(np.mean([rec.mean_w_clean for rec in tail])))
            flipped_means.append(float(np.mean([rec.mean_w_flipped for rec in tail])))
        clean = float(np.mean(clean_means))
        flipped = float(np.mean(flipped_means))

        ok = flipped < 0.5 * clean
        _verdict(
            7,
            "clean/flipped weight separation",
            ok,
            f"last-1000-step mean weight: flipped {flipped:.2e} vs clean {clean:.2e} "
            f"(ratio {flipped / clean:.2f}, needs <0.50)",
        )
        assert ok


class TestCriterion8:
    def test_meta_step_work_budget(self):
        _criterion(8, "meta step work budget", "step_work_budget")


class TestCriterion9:
    def test_rate_report_shape(self):
        _criterion(9, "gradient-norm rate report", "rate_report_properties")
