"""Command line interface: train, verify, corrupt, report.

Exit codes: 0 success, 1 verification/acceptance failure, 2 bad input: a bad
config or file, data that does not fit the model, or a non-finite run.
"""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .checks import run_checks
from .config import build_experiment, parse_config_file
from .data import NoiseSpec, corrupt, load_idx, locate_mnist, write_csv, write_idx_labels
from .errors import ConfigError, DimensionError, IdxParseError, NonFiniteError
from .experiment import run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metareweight",
        description="Train with online example reweighting, verify the math, "
        "corrupt labels, and aggregate run outputs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_train = sub.add_parser("train", help="run an experiment from a key=value config file")
    p_train.add_argument("--config", required=True, help="path to the config file")
    p_train.add_argument("--out", help="override output_dir from the config")
    p_train.add_argument("--seed", type=int, help="override the base seed")
    p_train.set_defaults(run=cmd_train)

    p_verify = sub.add_parser("verify", help="run the oracle-backed property suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.add_argument("--data-dir", help="directory holding the MNIST IDX files")
    p_verify.add_argument("--out", help="directory for emitted trace/rate CSVs")
    p_verify.set_defaults(run=cmd_verify)

    p_corrupt = sub.add_parser("corrupt", help="write a corrupted copy of an IDX label file")
    p_corrupt.add_argument("--images", required=True)
    p_corrupt.add_argument("--labels", required=True)
    p_corrupt.add_argument("--out", required=True, help="path for the corrupted labels IDX file")
    p_corrupt.add_argument("--kind", required=True, choices=("uniform_flip", "background_flip"))
    p_corrupt.add_argument("--ratio", required=True, type=float)
    p_corrupt.add_argument("--num-classes", type=int, default=NoiseSpec.num_classes)
    p_corrupt.add_argument("--background-class", type=int, default=NoiseSpec.background_class)
    p_corrupt.add_argument("--seed", type=int, default=0)
    p_corrupt.set_defaults(run=cmd_corrupt)

    p_report = sub.add_parser("report", help="aggregate run directories into plot-ready CSVs")
    p_report.add_argument("--dir", required=True, help="directory containing run outputs")
    p_report.set_defaults(run=cmd_report)
    return parser


def cmd_train(args) -> int:
    values = parse_config_file(args.config)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.out:
        values["output_dir"] = args.out
    exp = build_experiment(values)

    def progress(seed, result):
        print(
            f"seed {seed}: test error {result.final_test_error:.4f} "
            f"({result.wall_time:.1f}s)",
            flush=True,
        )

    summary = run_experiment(exp, progress=progress)
    print(
        f"{summary['strategy']}: mean test error {summary['mean_test_error']:.4f} "
        f"+- {summary['ci_half_width']:.4f} over {len(summary['seeds'])} seed(s)"
    )
    print(f"outputs written to {exp.output_dir}")
    return 0


def cmd_verify(args) -> int:
    if args.level == "full" and args.data_dir and locate_mnist(args.data_dir) is None:
        raise ConfigError(f"--data-dir: MNIST IDX files not found in {args.data_dir}")
    if args.level == "full" and args.out:
        os.makedirs(args.out, exist_ok=True)  # a bad --out fails here, before any check runs
    return run_checks(level=args.level, data_dir=args.data_dir, out_dir=args.out)


def cmd_corrupt(args) -> int:
    spec = NoiseSpec(
        kind=args.kind,
        ratio=args.ratio,
        num_classes=args.num_classes,
        background_class=args.background_class,
    )
    if args.seed < 0:
        raise ConfigError("--seed: must be nonnegative")
    ds = load_idx(args.images, args.labels)
    rng = np.random.default_rng(args.seed)
    corrupted = corrupt(ds, spec, rng)
    write_idx_labels(corrupted.labels, args.out)
    sidecar = args.out + ".provenance.csv"
    changed = np.flatnonzero(corrupted.flipped_mask)
    write_csv(
        sidecar,
        ["index", "original_label", "new_label"],
        zip(changed, corrupted.original_labels[changed], corrupted.labels[changed]),
    )
    print(f"flipped {changed.size} of {len(ds)} labels; wrote {args.out} and {sidecar}")
    return 0


# Columns of report_final.csv, each echoing the config field of that name.
_CONFIG_COLUMNS = ("imbalance_ratio", "noise_kind", "noise_ratio")


def _seed_rows(root: str, seeds, prefix: str, parse):
    """parse(row) for every row, as a dict, of every {prefix}_seed{S}.csv under
    root for the given seeds, seed after seed; a missing file is skipped."""
    for seed in seeds:
        path = os.path.join(root, f"{prefix}_seed{seed}.csv")
        if os.path.isfile(path):
            with _reading(path), open(path, newline="") as f:
                for row in csv.DictReader(f):
                    yield parse(row)


@contextlib.contextmanager
def _reading(path: str):
    """Raise what malformed content raises in the block again as a ConfigError naming path."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise ConfigError(f"malformed run file {path}: {e!r}") from e


def _weight_row(r) -> tuple[float, bool]:
    """(weight, flipped) of a weights CSV row; training writes only finite
    weights >= 0 and flipped cells 0 or 1."""
    w = float(r["weight"])
    if not 0.0 <= w < np.inf:
        raise ValueError(f"weight must be finite and >= 0, got {r['weight']!r}")
    if r["flipped"] not in ("0", "1"):
        raise ValueError(f"flipped must be 0 or 1, got {r['flipped']!r}")
    return w, r["flipped"] == "1"


def _metrics_row(r) -> tuple[int, float, float, float]:
    """(step, test_error, train_loss, val_loss_G) of a metrics CSV row;
    training writes only test errors in [0, 1], finite training losses >= 0
    and validation losses >= 0 or NaN (a run without a validation set)."""
    step, error = int(r["step"]), float(r["test_error"])
    loss, val_loss = float(r["train_loss"]), float(r["val_loss_G"])
    if not 0.0 <= error <= 1.0:
        raise ValueError(f"test_error must lie in [0, 1], got {r['test_error']!r}")
    if not 0.0 <= loss < np.inf:
        raise ValueError(f"train_loss must be finite and >= 0, got {r['train_loss']!r}")
    if val_loss < 0.0 or val_loss == np.inf:
        raise ValueError(f"val_loss_G must be NaN or finite and >= 0, got {r['val_loss_G']!r}")
    return step, error, loss, val_loss


def cmd_report(args) -> int:
    runs = []  # (root, seeds, report_final.csv row) per run directory
    for root, _dirs, files in os.walk(args.dir):
        if "summary.json" in files:
            path = os.path.join(root, "summary.json")
            with _reading(path), open(path) as f:
                s = json.load(f)
                cfg = s.get("config", {})
                final = [s["config_hash"], s["strategy"], *(cfg.get(c, "") for c in _CONFIG_COLUMNS),
                         len(s["seeds"]), s["mean_test_error"], s["ci_half_width"]]
            runs.append((root, s["seeds"], final))
    if not runs:
        raise ConfigError(f"no summary.json found under {args.dir}")
    runs.sort(key=lambda run: (run[2][1], run[2][0], run[0]))  # strategy, config hash, root

    bins = 50
    curves, hist = [], []
    for root, seeds, final in runs:
        key = final[:2]
        by_step: dict[int, list[list[float]]] = {}
        for step, *means in _seed_rows(root, seeds, "metrics", _metrics_row):
            by_step.setdefault(step, []).append(means)
        for step in sorted(by_step):
            cols = np.array(by_step[step])
            curves.append(key + [step] + [cols[:, k].mean() for k in range(3)])

        logged = list(_seed_rows(root, seeds, "weights", _weight_row))
        if not logged:
            continue
        w, fl = (np.array(column) for column in zip(*logged))
        hi = max(float(w.max()), 1e-12)
        edges = np.linspace(0.0, hi, bins + 1)
        clean_hist, _ = np.histogram(w[~fl], bins=edges)
        flip_hist, _ = np.histogram(w[fl], bins=edges)
        for b in range(bins):
            hist.append(key + [edges[b], edges[b + 1], clean_hist[b], flip_hist[b]])

    paths = []
    for name, columns, rows in (
        ("final", [*_CONFIG_COLUMNS, "num_seeds", "mean_test_error", "ci_half_width"],
         [final for _, _, final in runs]),
        ("curves", ["step", "mean_test_error", "mean_train_loss", "mean_val_loss_G"], curves),
        ("weight_hist", ["bin_lo", "bin_hi", "clean_count", "flipped_count"], hist),
    ):
        paths.append(os.path.join(args.dir, f"report_{name}.csv"))
        write_csv(paths[-1], ["config_hash", "strategy", *columns], rows)
    print(f"wrote {', '.join(paths)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, DimensionError, IdxParseError, NonFiniteError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
