"""Run the test suite against each mutant of the package's catalogue.

    python3 scripts/mutants.py

MUTANTS holds one row per mutant: a name, a file under src/metareweight/,
an exact old text and the new text that replaces it. Each row is a fault
that a past change was shown to catch, so a later refactor or a deleted
test cannot let it pass unseen.

The script copies src/ into one temporary directory DIR for each of its
WORKERS (2) and runs the suite once on an unmutated copy; if that run
fails, no mutant is run. Then each worker in turn takes the next row,
replaces its old text in the worker's copy, runs

    python -m pytest -q -x -p no:cacheprovider --rootdir ROOT ROOT/tests --deselect ANCHOR_TEST
        --basetemp DIR/pytest

from DIR, with PYTHONPATH set to the copy's src/ and
PYTHONDONTWRITEBYTECODE=1, and restores the file; `--basetemp` keeps the
workers' test directories apart. Rows are independent, so the script prints
them in catalogue order with the verdicts one worker would give: `caught <id
of the first failing test>` or `SURVIVED`. ANCHOR_TEST, the test that every
row applies to the checked-in src/, is left out of these runs: it never
reads the mutated copy, and on an older tree copied out of history it fails
on rows that tree predates, which would stop the unmutated run. pytest's
exit code 1 means caught and 0 survived; any other code (a mutant that
breaks collection, say) marks the row BROKEN, as does an old text that does
not occur exactly once in its file. The exit status is 1 if any row survived
or is broken. ROOT is the repository root. The script writes nothing inside
the repository: a mutant that writes to a relative path (an ignored `--out`
falls back to the config's `output_dir = runs`) writes into the temporary
directory. A full run takes about 5 minutes on a 2-core machine, against
about 8 on one worker.
"""

import concurrent.futures
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANCHOR_TEST = "tests/test_mutants.py::test_every_row_applies_once_to_the_checked_in_sources"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--rootdir", ROOT,
          os.path.join(ROOT, "tests"), "--deselect", ANCHOR_TEST]
RUN_TIMEOUT_S = 600
WORKERS = 2  # rows run at once, each on its own copy of src/

# (name, file under src/metareweight/, old text, new text)
MUTANTS = [
    ("nn/bias-input-zero", "nn.py", "    out[:, d] = 1.0\n", "    out[:, d] = 0.0\n"),
    ("nn/bytes-unscaled", "nn.py",
     "np.divide(raw, 255.0, out=self.inputs, dtype=np.float64)", "self.inputs[...] = raw"),
    ("nn/float-batch-unchecked", "nn.py",
     '            self.inputs[...] = raw\n            _check_finite("batch inputs", self.inputs)\n',
     "            self.inputs[...] = raw\n"),
    ("nn/first-post-copied", "nn.py", "    post = [batch.augmented]\n",
     "    post = [batch.augmented.copy()]\n"),
    ("nn/label-signal-sign", "nn.py", "    g[np.arange(n), batch.labels] -= 1.0\n",
     "    g[np.arange(n), batch.labels] += 1.0\n"),
    ("nn/relu-subgradient-one-at-zero", "nn.py", "lambda a: (a > 0.0).astype", "lambda a: (a >= 0.0).astype"),
    ("nn/kept-rows-positive-only", "nn.py", "        kept = np.flatnonzero(w)\n",
     "        kept = np.flatnonzero(w > 0)\n"),
    ("nn/zero-rows-skipped-without-finite-guard", "nn.py",
     "    if dropped.size and all(np.isfinite(a[dropped]).all() for a in (*inputs, *signals)):\n",
     "    if dropped.size:\n"),
    ("nn/sgd-step-copies-gradient", "nn.py",
     "    grad = np.ascontiguousarray(grad, dtype=np.float64)\n",
     "    grad = np.array(grad, dtype=np.float64)\n"),
    ("nn/sgd-step-checks-first-layer-only", "nn.py", '    _check_finite("gradient", grad)\n',
     '    _check_finite("gradient", layers[0])\n'),
    ("nn/sgd-step-scales-before-check", "nn.py",
     '    _check_finite("gradient", grad)\n    grad *= -alpha\n',
     '    grad *= -alpha\n    _check_finite("gradient", grad)\n'),
    ("nn/sgd-step-in-place", "nn.py",
     "        g += w\n    return MLPModel(layers, model.activation)\n",
     "        w += g\n    return MLPModel(model.layers, model.activation)\n"),
    ("reweight/closed-form-without-bias", "reweight.py",
     "        scores += (zt @ zv.T) * (gt @ gv.T)\n",
     "        scores += (zt[:, :-1] @ zv[:, :-1].T) * (gt @ gv.T)\n"),
    ("reweight/closed-form-sum-not-mean", "reweight.py", "    return scores.sum(axis=1) / m\n",
     "    return scores.sum(axis=1)\n"),
    ("reweight/normalize-with-epsilon", "reweight.py", "    return clipped / total\n",
     "    return clipped / (total + 1e-12)\n"),
    ("reweight/random-weights-unclipped", "reweight.py", "    w = np.maximum(z, 0.0)\n",
     "    w = np.abs(z)\n"),
    ("reweight/proportion-not-inverse", "reweight.py", "    w = 1.0 / c\n", "    w = c.copy()\n"),
    ("reweight/hard-mining-easiest", "reweight.py", "np.argsort(-losses[maj], kind=\"stable\")",
     "np.argsort(losses[maj], kind=\"stable\")"),
    ("reweight/resample-by-example", "reweight.py",
     "    picks = rng.integers(0, classes.size, size=n)\n",
     "    picks = labels[rng.integers(0, labels.size, size=n)]\n"),
    ("trainer/config-not-frozen", "trainer.py", "@dataclass(frozen=True)\nclass TrainConfig:",
     "@dataclass\nclass TrainConfig:"),
    ("trainer/schedule-kept-as-list", "trainer.py",
     '        object.__setattr__(self, "lr_schedule", tuple(self.lr_schedule))\n', ""),
    ("trainer/negative-schedule-step-accepted", "trainer.py", "            if step < 0:\n", "            if False:\n"),
    ("trainer/nan-learning-rate-accepted", "trainer.py",
     "        if not 0 < self.learning_rate < np.inf:\n", "        if self.learning_rate <= 0:\n"),
    ("trainer/empty-test-set-accepted", "trainer.py", "    if len(test_ds) == 0:\n", "    if False:\n"),
    ("trainer/one-class-accepted", "trainer.py", "    if num_classes < 2:\n", "    if False:\n"),
    # Rows on `Dataset.join`, the join that builds the pool of `train`, keep their trainer/ names.
    ("trainer/validation-not-in-pool", "data.py",
     "        # np.concatenate would upcast pixel bytes to unscaled 0..255 floats.\n", "        return self\n"),
    ("trainer/pool-rows-copied", "data.py", "        if self.images.pixels is other.images.pixels:\n",
     "        if False:\n"),
    ("trainer/bytes-joined-with-floats", "data.py",
     "        if self.images.dtype != other.images.dtype:\n", "        if False:\n"),
    ("trainer/validation-draw-with-replacement", "trainer.py",
     "size=config.batch_size_val, replace=False)", "size=config.batch_size_val, replace=True)"),
    ("trainer/validation-batch-not-counted", "trainer.py", "        examples += len(vbatch)\n",
     "        examples += 0\n"),
    ("trainer/errstate-default", "trainer.py",
     'with np.errstate(over="ignore", invalid="ignore"):\n                    cache', "with np.errstate():\n                    cache"),
    ("trainer/worker-errstate-default", "trainer.py",
     'with np.errstate(over="ignore", invalid="ignore"):  # as in a step', "with np.errstate():  # as in a step"),
    ("trainer/evaluation-point-unchecked", "trainer.py", "    if not np.isfinite(value):\n", "    if False:\n"),
    ("trainer/point-named-at-filing-step", "trainer.py", '_at_step(config.seed, columns["step"] - 1)',
     "_at_step(config.seed, t)"),
    ("trainer/window-slice-whole-deque", "trainer.py",
     "list(log)[-(t % config.eval_every + 1) :]", "list(log)[-config.eval_every :]"),
    ("trainer/mean-w-clean-from-flipped", "trainer.py",
     "        mean_w_clean=w_clean / n_clean", "        mean_w_clean=w_flipped / n_clean"),
    ("trainer/early-stop-later-tie", "trainer.py",
     "record.hyperval_error < best[0].hyperval_error", "record.hyperval_error <= best[0].hyperval_error"),
    ("trainer/early-stop-returns-last-model", "trainer.py",
     "    final, model = best if config.early_stop_on_hyperval else (records[-1], model)\n",
     "    final = best[0] if config.early_stop_on_hyperval else records[-1]\n"),
    ("trainer/waits-instead-of-running-queued-pass", "trainer.py",
     "evaluate(snapshot, ds) if future.cancel() else future.result()", "future.result()"),
    ("trainer/last-point-not-filed", "trainer.py", "            pending = columns, model, futures\n        file(pending)\n",
     "            pending = columns, model, futures\n"),
    ("trainer/hyperval-filed-after-test", "trainer.py", "reversed(futures.items())", "futures.items()"),
    ("trainer/train-batch-bound-off-by-one", "trainer.py", '("batch_size_train", 1)', '("batch_size_train", 2)'),
    ("trainer/val-batch-bound-off-by-one", "trainer.py", '("batch_size_val", 1)', '("batch_size_val", 2)'),
    ("theory/descent-step-times-n", "theory.py",
     "stepped = sgd_step(model, direction, alpha / n)", "stepped = sgd_step(model, direction, alpha * n)"),
    ("theory/probe-difference-into-g0", "theory.py", "            diff -= g0\n",
     "            diff = np.subtract(diff, g0, out=g0)\n"),
    ("theory/segment-difference-into-grad-next", "theory.py",
     "np.subtract(grad_next, grad_g, out=grad_g)", "np.subtract(grad_next, grad_g, out=grad_next)"),
    ("theory/short-probe-budget", "theory.py", "PROBES_PER_RESTART = 15  #", "PROBES_PER_RESTART = 14  #"),
    ("theory/grad-bound-skips-a-row", "theory.py", "    batch = Batch(ds.images[:], ds.labels)\n",
     "    batch = Batch(ds.images[1:], ds.labels[1:])\n"),
    ("theory/step-size-without-safety", "theory.py", "2.0 * batch_size / (SAFETY * denom)",
     "2.0 * batch_size / denom"),
    ("theory/rate-running-max", "theory.py", "np.minimum.accumulate(norms)",
     "np.maximum.accumulate(norms)"),
    ("theory/descent-empty-training-set-accepted", "theory.py", "    if len(train_ds) == 0:\n",
     "    if False:\n"),
    ("theory/descent-zero-steps-accepted", "theory.py", "    if steps < 1:\n", "    if False:\n"),
    ("theory/short-trial-replayed", "theory.py", "        if merged == estimate or attempt == MAX_ATTEMPTS:\n",
     "        if (merged == estimate and len(trace) == steps) or attempt == MAX_ATTEMPTS:\n"),
    ("theory/violations-always-zero", "theory.py", "        return self.steps - held\n", "        return 0\n"),
    ("theory/nan-rise-not-counted", "theory.py", "e.g_after <= e.g_before + self.tolerance",
     "not e.g_after > e.g_before + self.tolerance"),
    ("theory/untaken-steps-not-counted", "theory.py", "return self.steps - held", "return len(self.trace) - held"),
    ("theory/flat-restart-probes-on", "theory.py", "if ratio == 0.0 or not np.isfinite(ratio):",
     "if not np.isfinite(ratio):"),
    ("theory/flat-estimate-divided", "theory.py", "    if denom <= 0:\n", "    if False:\n"),
    ("theory/overflowing-step-raises", "theory.py", "except NonFiniteError:", "except ZeroDivisionError:"),
    ("theory/trial-runs-on-past-ceiling", "theory.py", "if not np.isfinite(g_val) or g_val > ceiling:",
     "if False:"),
    ("theory/descent-pair-total", "theory.py", "PAIR = ImbalanceSpec(ratio=1, total=510)",
     "PAIR = ImbalanceSpec(ratio=1, total=500)"),
    ("theory/trial-errstate-default", "theory.py", 'with np.errstate(over="ignore", invalid="ignore"):',
     "with np.errstate():"),
    ("data/imbalance-spec-not-frozen", "data.py", "@dataclass(frozen=True)\nclass ImbalanceSpec:",
     "@dataclass\nclass ImbalanceSpec:"),
    ("data/noise-spec-not-frozen", "data.py", "@dataclass(frozen=True)\nclass NoiseSpec:",
     "@dataclass\nclass NoiseSpec:"),
    ("data/idx-images-scaled-floats", "data.py", "    images = pixels.reshape(count, rows * cols)\n",
     "    images = pixels.reshape(count, rows * cols) / 255.0\n"),
    ("data/idx-trailing-bytes-accepted", "data.py", "    if length - header != expected:\n",
     "    if length - header < expected:\n"),
    ("data/gzip-damage-unwrapped", "data.py",
     "    except (EOFError, zlib.error, gzip.BadGzipFile) as e:\n", "    except EOFError as e:\n"),
    ("data/idx-map-writable", "data.py", "access=mmap.ACCESS_READ", "access=mmap.ACCESS_COPY"),
    ("data/idx-empty-file-mapped", "data.py", "        if os.fstat(f.fileno()).st_size == 0:\n",
     "        if False:\n"),
    ("data/gzip-payload-read-at-once", "data.py", "f.read(min(GZ_CHUNK, len(buffer) - length))",
     "f.read(len(buffer) - length)"),
    ("data/gzip-promise-unbounded", "data.py",
     "                if size > DEFLATE_MAX_RATIO * os.path.getsize(path):\n", "                if False:\n"),
    ("data/subset-copies-pixels", "data.py", "Dataset(self.images.select(idx), self.labels[idx]",
     "Dataset(self.images[idx], self.labels[idx]"),
    ("data/explicit-root-falls-back-to-env", "data.py", "        candidates = [root]\n",
     '        candidates = [root, os.environ.get("MNIST_DIR", root)]\n'),
    ("data/imbalanced-pair-counts-swapped", "data.py", "(spec.minority_class, n_min), (spec.majority_class, n_maj)",
     "(spec.minority_class, n_maj), (spec.majority_class, n_min)"),
    ("data/imbalanced-pair-copies-pixels", "data.py", "    return Dataset(ds.images.select(idx), new_labels)\n",
     "    return Dataset(ds.images[idx], new_labels)\n"),
    ("data/corrupt-copies-pixels", "data.py", "    return Dataset(ds.images, labels, ds.original_labels.copy())\n",
     "    return Dataset(ds.images[:], labels, ds.original_labels.copy())\n"),
    ("data/filter-remap-indexes", "data.py", "    return Dataset(ds.images[keep], values",
     "    return Dataset(ds.images.select(keep), values"),
    ("data/remap-looks-up-keys", "data.py", "values[np.searchsorted(keys, ds.labels[keep])]",
     "keys[np.searchsorted(keys, ds.labels[keep])]"),
    ("data/empty-labels-not-writable", "data.py",
     "    if labels.size and (labels.min() < 0 or labels.max() > 255):\n",
     "    if labels.min() < 0 or labels.max() > 255:\n"),
    ("data/csv-floats-12-digits", "data.py", "        writer.writerows(rows)\n",
     '        writer.writerows([f"{c:.12g}" if isinstance(c, float) else c for c in r] for r in rows)\n'),
    ("data/uniform-flip-may-keep-label", "data.py", "labels[flip] = draw + (draw >= old)",
     "labels[flip] = draw"),
    ("data/empty-split-concatenated", "data.py", "np.array(chosen, dtype=np.int64).ravel()",
     "np.concatenate(chosen)"),
    ("data/validation-may-be-corrupted", "data.py",
     "pool = np.flatnonzero((ds.labels == c) & clean)", "pool = np.flatnonzero(ds.labels == c)"),
    ("data/minority-count-off", "data.py", "int(round(spec.total / (spec.ratio + 1)))",
     "int(round(spec.total / spec.ratio))"),
    ("data/minority-count-truncated", "data.py", "int(round(spec.total / (spec.ratio + 1)))",
     "int(spec.total / (spec.ratio + 1))"),
    ("experiment/flipped-column-bool", "experiment.py",
     'weight_log["flipped"].astype(np.int64)', 'weight_log["flipped"]'),
    ("experiment/repeats-share-a-seed", "experiment.py", "        seed = exp.train.seed + r\n",
     "        seed = exp.train.seed\n"),
    ("experiment/each-seed-result-kept", "experiment.py",
     "        result = train(cfg, train_ds, val_ds, test_ds, hyper)\n",
     "        result = train(cfg, train_ds, val_ds, test_ds, hyper)\n"
     '        run_experiment.__dict__.setdefault("results", []).append(result)\n'),
    ("experiment/subset-ignored", "experiment.py", "        ds = ds.subset(keep)\n", "        pass\n"),
    ("experiment/hyperval-always-split", "experiment.py",
     "        if exp.imbalance is None and rest is not None and len(rest) >= exp.hyperval_total:\n",
     "        if False:\n"),
    ("experiment/hyperval-uncorrupted", "experiment.py", "            hyper = corrupt(hyper, exp.noise, rng)\n",
     "            corrupt(hyper, exp.noise, rng)\n"),
    ("experiment/hyperval-csv-not-written", "experiment.py", "        if hyper is not None:\n            write_hyperval_csv(",
     "        if False:\n            write_hyperval_csv("),
    ("experiment/imbalance-test-set-unfiltered", "experiment.py",
     "        test = filter_remap(base_test, exp.imbalance.label_map)\n", "        test = base_test\n"),
    ("experiment/output-dir-before-data", "experiment.py",
     "    chash = config_hash(exp)\n    base_train = load_idx(exp.train_images, exp.train_labels)\n"
     "    base_test = load_idx(exp.test_images, exp.test_labels)\n    os.makedirs(exp.output_dir, exist_ok=True)\n",
     "    os.makedirs(exp.output_dir, exist_ok=True)\n    chash = config_hash(exp)\n"
     "    base_train = load_idx(exp.train_images, exp.train_labels)\n"
     "    base_test = load_idx(exp.test_images, exp.test_labels)\n"),
    ("config/comments-kept", "config.py", '        line = raw.split("#", 1)[0].strip()\n',
     "        line = raw.strip()\n"),
    ("config/duplicate-after-blank-accepted", "config.py", "        if key in seen:\n",
     "        if key in values:\n"),
    ("config/false-parses-true", "config.py", '("false", "0", "no", "off"):\n        return False\n',
     '("false", "0", "no", "off"):\n        return True\n'),
    ("config/schedule-entry-separator", "config.py", 'f"{step}:{mult!r}"', 'f"{step}/{mult!r}"'),
    ("config/bool-rendered-with-str", "config.py", '    _parse_bool: lambda v: "true" if v else "false",\n',
     "    _parse_bool: str,\n"),
    ("config/seed-in-hash", "config.py", "        if key in HASH_EXCLUDED:\n            continue\n",
     ""),
    ("config/hash-reads-schema-default", "config.py", "        value = values[key]\n",
     "        value = SCHEMA[key][1]\n"),
    ("config/experiment-config-not-frozen", "config.py", "@dataclass(frozen=True)\nclass ExperimentConfig:",
     "@dataclass\nclass ExperimentConfig:"),
    ("config/meta-without-validation-accepted", "config.py",
     'if self.train.strategy == "meta_reweight" and self.val_per_class == 0:', "if False:"),
    ("config/early-stop-without-hyperval-accepted", "config.py",
     "if self.train.early_stop_on_hyperval and self.hyperval_total == 0:", "if False:"),
    ("config/noise-ratio-without-kind-accepted", "config.py",
     "if noise is None and self.noise_ratio != 0:", "if False:"),
    ("config/negative-val-per-class-accepted", "config.py", '("val_per_class", 0), ', ""),
    ("config/negative-hyperval-total-accepted", "config.py", '("hyperval_total", 0), ', ""),
    ("config/zero-repeat-accepted", "config.py", '("repeat", 1), ', ""),
    ("config/zero-subset-total-accepted", "config.py", ', ("subset_total", 1)', ""),
    ("config/subset-total-bound-off-by-one", "config.py", '("subset_total", 1)', '("subset_total", 2)'),
    ("config/noisy-pair-class-count-unchecked", "config.py",
     "        if imbalance and noise and self.num_classes != 2:\n", "        if False:\n"),
    ("cli/verify-data-dir-unchecked", "cli.py",
     '    if args.level == "full" and args.data_dir and locate_mnist(args.data_dir) is None:\n', "    if False:\n"),
    ("cli/verify-out-unchecked", "cli.py",
     '    if args.level == "full" and args.out:\n        os.makedirs(args.out, exist_ok=True)', "    if False:\n        pass"),
    ("cli/seed-override-ignored", "cli.py", '        values["seed"] = args.seed\n', "        pass\n"),
    ("cli/out-override-ignored", "cli.py", '        values["output_dir"] = args.out\n', "        pass\n"),
    ("cli/entry-point-status-dropped", "cli.py", "    sys.exit(main())\n", "    main()\n"),
    ("cli/corrupt-negative-seed-accepted", "cli.py", "    if args.seed < 0:\n", "    if False:\n"),
    ("cli/oserror-not-exit-2", "cli.py",
     "except (ConfigError, DimensionError, IdxParseError, NonFiniteError, OSError) as e:",
     "except (ConfigError, DimensionError, IdxParseError, NonFiniteError) as e:"),
    ("cli/malformed-run-file-traceback", "cli.py", "    except (ValueError, KeyError, TypeError, AttributeError) as e:\n",
     "    except () as e:\n"),
    ("cli/curve-means-whole-array", "cli.py", "[cols[:, k].mean() for k in range(3)]",
     "list(cols.mean(axis=0))"),
    ("cli/report-weight-row-unchecked", "cli.py",
     '    if not 0.0 <= w < np.inf:\n        raise ValueError(f"weight must be finite and >= 0, got {r[\'weight\']!r}")\n'
     '    if r["flipped"] not in ("0", "1"):\n        raise ValueError(f"flipped must be 0 or 1, got {r[\'flipped\']!r}")\n',
     ""),
    ("cli/report-test-error-unchecked", "cli.py",
     "    if not 0.0 <= error <= 1.0:\n"
     '        raise ValueError(f"test_error must lie in [0, 1], got {r[\'test_error\']!r}")\n', ""),
    ("cli/report-train-loss-unchecked", "cli.py",
     "    if not 0.0 <= loss < np.inf:\n"
     '        raise ValueError(f"train_loss must be finite and >= 0, got {r[\'train_loss\']!r}")\n', ""),
    ("cli/report-val-loss-unchecked", "cli.py",
     "    if val_loss < 0.0 or val_loss == np.inf:\n"
     '        raise ValueError(f"val_loss_G must be NaN or finite and >= 0, got {r[\'val_loss_G\']!r}")\n', ""),
    ("checks/raising-check-not-caught", "checks.py",
     "        try:\n            ok, detail = fn()\n        except Exception as e:  # a crashed check is a failed check\n"
     '            ok, detail = False, f"raised {e!r}"\n', "        ok, detail = fn()\n"),
    # The finite-difference oracles going soft: the checks they back must notice.
    ("checks/fd-one-sided", "checks.py", "(f(plus) - f(minus)) / (2.0 * FD_STEP)", "(f(plus) - f(x)) / FD_STEP"),
    ("checks/fd-step-coarse", "checks.py", "FD_STEP = 1e-5  #", "FD_STEP = 1e-2  #"),
    ("checks/fd-meta-gradient-unnegated", "checks.py", "    return -_central_diff(", "    return _central_diff("),
]


def anchor_problem(text: str, old: str, new: str) -> str:
    """Why a row cannot be applied to a file's text, or '' if it can: its old
    text must occur exactly once and differ from its new text."""
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times"
    return "old and new text are the same" if old == new else ""


def run_suite(src: str) -> tuple[int, str]:
    """pytest's exit code on the tests against the package in src, and the
    id of its first failing test ('' if none)."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cwd = os.path.dirname(src)
    try:
        proc = subprocess.run([*PYTEST, "--basetemp", os.path.join(cwd, "pytest")], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {RUN_TIMEOUT_S} s"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return proc.returncode, ""
    # pytest gives the test's path from its working directory; report it from ROOT.
    path, sep, test = failed[0].partition("::")
    return proc.returncode, os.path.relpath(os.path.join(cwd, path), ROOT) + sep + test


def run_row(row: tuple, copies: queue.Queue) -> tuple[int | None, str, float]:
    """Apply one row to a free copy of src/, run the suite on it and restore
    the file: (pytest's exit code or None, first failing id or problem, seconds)."""
    _, file, old, new = row
    src = copies.get()
    try:
        path = os.path.join(src, "metareweight", file)
        with open(path) as f:
            text = f.read()
        started = time.perf_counter()
        problem = anchor_problem(text, old, new)
        if problem:
            return None, f"{problem} in {file}", time.perf_counter() - started
        with open(path, "w") as f:
            f.write(text.replace(old, new))
        try:
            code, first = run_suite(src)
        finally:
            with open(path, "w") as f:
                f.write(text)
        return code, first, time.perf_counter() - started
    finally:
        copies.put(src)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copies: queue.Queue = queue.Queue()
        for k in range(WORKERS):
            src = os.path.join(tmp, f"worker{k}", "src")
            shutil.copytree(os.path.join(ROOT, "src"), src,
                            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            copies.put(src)
        started = time.perf_counter()
        code, first = run_suite(src)
        if code != 0:
            print(f"the unmutated suite exits {code} {first}; no mutant was run")
            return 1
        print(f"unmutated suite passes ({time.perf_counter() - started:.1f} s)")
        width = max(len(name) for name, *_ in MUTANTS)
        bad = 0
        with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
            results = pool.map(lambda row: run_row(row, copies), MUTANTS)
            for (name, *_), (code, first, seconds) in zip(MUTANTS, results):
                verdict = {0: "SURVIVED", 1: f"caught {first}"}.get(code, f"BROKEN: {first or code}")
                bad += code != 1
                print(f"{name:<{width}}  {verdict}  ({seconds:.1f} s)", flush=True)
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught ({time.perf_counter() - started:.0f} s)")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
