"""Run the test suite against each mutant of the package's catalogue.

    python3 scripts/mutants.py

MUTANTS holds one row per mutant: a name, a file under src/metareweight/,
an exact old text and the new text that replaces it. Each row is a fault
that a past change was shown to catch, so a later refactor or a deleted
test cannot let it pass unseen.

The script copies src/ to a temporary directory and runs the suite once on
the unmutated copy; if that run fails, no mutant is run. Then, one row at a
time, it replaces the row's old text in the copy, runs

    python -m pytest -q -x -p no:cacheprovider --rootdir ROOT ROOT/tests --deselect ANCHOR_TEST

from the temporary directory, with PYTHONPATH set to the copy's src/ and
PYTHONDONTWRITEBYTECODE=1, restores the file, and prints `caught <id of the
first failing test>` or `SURVIVED`. ANCHOR_TEST, the test that every row
applies to the checked-in src/, is left out of these runs: it never reads
the mutated copy, and on an older tree copied out of history it fails on
rows that tree predates, which would stop the unmutated run. pytest's exit
code 1 means caught and 0 survived; any other code (a mutant that breaks
collection, say) marks the row BROKEN, as does an old text that does not
occur exactly once in its file. The exit status is 1 if any row survived or
is broken. ROOT is the repository root. The script writes nothing inside
the repository: a mutant that writes to a relative path (an ignored `--out`
falls back to the config's `output_dir = runs`) writes into the temporary
directory. A full run takes about 7 minutes on a 2-core machine.
"""

import os
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
    ("nn/relu-subgradient-one-at-zero", "nn.py", '"relu": lambda a: (a > 0.0)',
     '"relu": lambda a: (a >= 0.0)'),
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
    ("trainer/validation-not-in-pool", "trainer.py", "        pool = _concat(train_ds, val_ds)\n",
     "        pool = train_ds\n"),
    ("trainer/pool-rows-copied", "trainer.py", "    if a.images.pixels is b.images.pixels:\n",
     "    if False:\n"),
    ("trainer/bytes-joined-with-floats", "trainer.py",
     "    if a.images.dtype != b.images.dtype:\n", "    if False:\n"),
    ("trainer/validation-draw-with-replacement", "trainer.py",
     "size=config.batch_size_val, replace=False)", "size=config.batch_size_val, replace=True)"),
    ("trainer/validation-batch-not-counted", "trainer.py", "        examples += len(vbatch)\n",
     "        examples += 0\n"),
    ("trainer/errstate-default", "trainer.py",
     'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():"),
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
     "(evaluate(snapshot, ds) if future.cancel() else future.result())[0]",
     "future.result()[0]"),
    ("trainer/last-point-not-filed", "trainer.py", "            file(pending)\n        except",
     "            pass\n        except"),
    ("theory/descent-step-times-n", "theory.py",
     "stepped = sgd_step(model, direction, alpha / n)", "stepped = sgd_step(model, direction, alpha * n)"),
    ("theory/probe-difference-into-g0", "theory.py", "            diff -= g0\n",
     "            diff = np.subtract(diff, g0, out=g0)\n"),
    ("theory/segment-difference-into-grad-next", "theory.py",
     "np.subtract(grad_next, grad_g, out=grad_g)", "np.subtract(grad_next, grad_g, out=grad_next)"),
    ("theory/step-size-without-safety", "theory.py", "2.0 * batch_size / (SAFETY * denom)",
     "2.0 * batch_size / denom"),
    ("theory/rate-running-max", "theory.py", "np.minimum.accumulate(norms)",
     "np.maximum.accumulate(norms)"),
    ("theory/descent-empty-training-set-accepted", "theory.py", "    if len(train_ds) == 0:\n",
     "    if False:\n"),
    ("theory/descent-zero-steps-accepted", "theory.py", "    if steps < 1:\n", "    if False:\n"),
    ("theory/short-trial-replayed", "theory.py", "        if merged == estimate or attempt == MAX_ATTEMPTS:\n",
     "        if (merged == estimate and len(trace) == steps) or attempt == MAX_ATTEMPTS:\n"),
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
    ("experiment/imbalance-test-set-unfiltered", "experiment.py",
     "        test = filter_remap(base_test, exp.imbalance.label_map)\n", "        test = base_test\n"),
    ("experiment/output-dir-before-data", "experiment.py",
     "    chash = config_hash(exp.raw)\n    base_train = load_idx(exp.train_images, exp.train_labels)\n"
     "    base_test = load_idx(exp.test_images, exp.test_labels)\n    os.makedirs(exp.output_dir, exist_ok=True)\n",
     "    os.makedirs(exp.output_dir, exist_ok=True)\n    chash = config_hash(exp.raw)\n"
     "    base_train = load_idx(exp.train_images, exp.train_labels)\n"
     "    base_test = load_idx(exp.test_images, exp.test_labels)\n"),
    ("config/comments-kept", "config.py", '        line = raw.split("#", 1)[0].strip()\n',
     "        line = raw.strip()\n"),
    ("config/duplicate-after-blank-accepted", "config.py", "        if key in seen:\n",
     "        if key in values:\n"),
    ("config/seed-in-hash", "config.py", "        if key in HASH_EXCLUDED:\n            continue\n",
     ""),
    ("config/meta-without-validation-accepted", "config.py",
     'if values["strategy"] == "meta_reweight" and values["val_per_class"] == 0:', "if False:"),
    ("config/early-stop-without-hyperval-accepted", "config.py",
     'if values["early_stop_on_hyperval"] and values["hyperval_total"] == 0:', "if False:"),
    ("config/noise-ratio-without-kind-accepted", "config.py",
     'if noise is None and values["noise_ratio"] != 0:', "if False:"),
    ("config/negative-val-per-class-accepted", "config.py", '    if values["val_per_class"] < 0:\n',
     "    if False:\n"),
    ("config/negative-hyperval-total-accepted", "config.py", '    if values["hyperval_total"] < 0:\n',
     "    if False:\n"),
    ("config/zero-repeat-accepted", "config.py", '    if values["repeat"] < 1:\n', "    if False:\n"),
    ("config/zero-subset-total-accepted", "config.py",
     '    if values["subset_total"] is not None and values["subset_total"] < 1:\n', "    if False:\n"),
    ("cli/verify-data-dir-unchecked", "cli.py",
     '    if args.level == "full" and args.data_dir and locate_mnist(args.data_dir) is None:\n', "    if False:\n"),
    ("cli/seed-override-ignored", "cli.py", '        values["seed"] = args.seed\n', "        pass\n"),
    ("cli/out-override-ignored", "cli.py", '        values["output_dir"] = args.out\n', "        pass\n"),
    ("cli/corrupt-negative-seed-accepted", "cli.py", "    if args.seed < 0:\n", "    if False:\n"),
    ("cli/oserror-not-exit-2", "cli.py",
     "except (ConfigError, DimensionError, IdxParseError, NonFiniteError, OSError) as e:",
     "except (ConfigError, DimensionError, IdxParseError, NonFiniteError) as e:"),
    ("cli/malformed-run-file-traceback", "cli.py", "    except (ValueError, KeyError, TypeError, AttributeError) as e:\n",
     "    except () as e:\n"),
    ("cli/curve-means-whole-array", "cli.py", "[cols[:, k].mean() for k in range(3)]",
     "list(cols.mean(axis=0))"),
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
        proc = subprocess.run(PYTEST, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {RUN_TIMEOUT_S} s"
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if not failed:
        return proc.returncode, ""
    # pytest gives the test's path from its working directory; report it from ROOT.
    path, sep, test = failed[0].partition("::")
    return proc.returncode, os.path.relpath(os.path.join(cwd, path), ROOT) + sep + test


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        started = time.perf_counter()
        code, first = run_suite(src)
        if code != 0:
            print(f"the unmutated suite exits {code} {first}; no mutant was run")
            return 1
        print(f"unmutated suite passes ({time.perf_counter() - started:.1f} s)")
        width = max(len(name) for name, *_ in MUTANTS)
        bad = 0
        for name, file, old, new in MUTANTS:
            path = os.path.join(src, "metareweight", file)
            with open(path) as f:
                text = f.read()
            started = time.perf_counter()
            problem = anchor_problem(text, old, new)
            if problem:
                code, first = None, f"{problem} in {file}"
            else:
                with open(path, "w") as f:
                    f.write(text.replace(old, new))
                try:
                    code, first = run_suite(src)
                finally:
                    with open(path, "w") as f:
                        f.write(text)
            verdict = {0: "SURVIVED", 1: f"caught {first}"}.get(code, f"BROKEN: {first or code}")
            bad += code != 1
            print(f"{name:<{width}}  {verdict}  ({time.perf_counter() - started:.1f} s)", flush=True)
        print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants caught")
        return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
