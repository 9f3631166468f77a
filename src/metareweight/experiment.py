"""Experiment orchestration: config -> datasets -> runs -> CSV/JSON outputs.

Dataset preparation is re-randomized per seed (subsampling, splits, and
corruption all draw from the seed's generator), so repeated runs vary over
both initialization and the bias realization, matching how the mean and
confidence interval are meant to be read.
"""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np

from .config import ExperimentConfig, canonical_items, config_hash
from .data import (
    Dataset,
    corrupt,
    filter_remap,
    load_idx,
    make_imbalanced_pair,
    random_split,
    split_clean_validation,
    split_indices,
    write_csv,
)
from .trainer import METRICS_COLUMNS, MetricsRecord, train


def prepare_datasets(
    exp: ExperimentConfig, seed: int, base_train: Dataset, base_test: Dataset
) -> tuple[Dataset, Dataset, Dataset, Dataset | None]:
    """Apply subset, imbalance, hyperval split, corruption, and the clean
    validation split, in that order. Returns (train, val, test, hyperval)."""
    rng = np.random.default_rng(seed)
    ds = base_train
    test = base_test
    rest = None  # indices into base_train that the subset left out
    if exp.subset_total is not None:
        rest, keep = split_indices(len(ds), exp.subset_total, rng)
        ds = ds.subset(keep)
    if exp.imbalance is not None:
        ds = make_imbalanced_pair(ds, exp.imbalance, rng)
        test = filter_remap(base_test, exp.imbalance.label_map)

    hyper = None
    if exp.hyperval_total > 0:
        if exp.imbalance is None and rest is not None and len(rest) >= exp.hyperval_total:
            # Monitoring data comes from the unused pool so the training set
            # keeps its configured size.
            _, taken = split_indices(len(rest), exp.hyperval_total, rng)
            hyper = base_train.subset(rest[taken])
        else:
            ds, hyper = random_split(ds, exp.hyperval_total, rng)

    if exp.noise is not None:
        ds = corrupt(ds, exp.noise, rng)
        if hyper is not None:
            hyper = corrupt(hyper, exp.noise, rng)

    train_ds, val_ds = split_clean_validation(ds, exp.val_per_class, rng)
    return train_ds, val_ds, test, hyper


def write_metrics_csv(records: list[MetricsRecord], path: str) -> None:
    write_csv(path, METRICS_COLUMNS, (r.csv_row() for r in records))


def write_weights_csv(weight_log: dict, path: str) -> None:
    """Per-example weights of the last eval_every steps, with provenance."""
    rows = zip(weight_log["step"], weight_log["weight"], weight_log["flipped"].astype(np.int64))
    write_csv(path, ["step", "weight", "flipped"], rows)


def write_hyperval_csv(records: list[MetricsRecord], path: str) -> None:
    write_csv(path, ["step", "hyperval_error"], ((r.step, r.hyperval_error) for r in records))


def mean_and_ci(values: list[float]) -> tuple[float, float]:
    """Mean and normal-approximation 95% half-width (0 for a single value)."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    std = float(arr.std(ddof=1))
    return mean, 1.96 * std / math.sqrt(arr.size)


def run_experiment(exp: ExperimentConfig, progress=None) -> dict:
    """Run all repeats of one experiment and write its artifacts.

    Returns the summary dict (also written to summary.json in output_dir).
    output_dir is made once both datasets are read, so unreadable data
    leaves no directory behind.
    """
    chash = config_hash(exp)
    base_train = load_idx(exp.train_images, exp.train_labels)
    base_test = load_idx(exp.test_images, exp.test_labels)
    os.makedirs(exp.output_dir, exist_ok=True)

    per_seed = []
    t0 = time.perf_counter()
    for r in range(exp.repeat):
        seed = exp.train.seed + r
        train_ds, val_ds, test_ds, hyper = prepare_datasets(exp, seed, base_train, base_test)
        cfg = replace(exp.train, seed=seed)
        result = train(cfg, train_ds, val_ds, test_ds, hyper)
        write_metrics_csv(result.records, os.path.join(exp.output_dir, f"metrics_seed{seed}.csv"))
        write_weights_csv(result.weight_log, os.path.join(exp.output_dir, f"weights_seed{seed}.csv"))
        if hyper is not None:
            write_hyperval_csv(
                result.records, os.path.join(exp.output_dir, f"hyperval_seed{seed}.csv")
            )
        per_seed.append(
            {
                "seed": seed,
                "final_test_error": result.final_test_error,
                "wall_time": result.wall_time,
                # One counter: every stepping-path example goes forward and backward once.
                "forward_examples": result.examples,
                "backward_examples": result.examples,
            }
        )
        if progress is not None:
            progress(seed, result)

    mean, ci = mean_and_ci([p["final_test_error"] for p in per_seed])
    summary = {
        "config_hash": chash,
        "config": {k: v for k, v in canonical_items(exp)},
        "strategy": exp.train.strategy,
        "seeds": [p["seed"] for p in per_seed],
        "per_seed": per_seed,
        "mean_test_error": mean,
        "ci_half_width": ci,
        "wall_time_total": time.perf_counter() - t0,
        "forward_examples_total": sum(p["forward_examples"] for p in per_seed),
        "backward_examples_total": sum(p["backward_examples"] for p in per_seed),
    }
    with open(os.path.join(exp.output_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2)
    return summary
