"""Hash what the package computes, to show that a change keeps it bit for bit.

    python3 scripts/fingerprint.py                      # this checkout's src/
    python3 scripts/fingerprint.py OLD/src src          # each tree, then compare

For each source tree (a directory holding the `metareweight` package) the
script prints one SHA-256 per item and a combined hash over all items, and,
with two or more trees, whether their combined hashes agree (exit 1 if not).
Each tree runs in its own process with BLAS on one thread. The items:

- train/<strategy>: the final layer bytes, every `csv_row()` and
  `hyperval_error`, the weight log, the work counter `examples` (twice, as
  when it had a forward and a backward name) and the final test error of
  `train()` for each of the six strategies on
  `tests/test_trainer.py::blob_sets()` with `small_config()` (relu);
- train/<activation>/<strategy>: the same for uniform and meta_reweight
  with tanh and with sigmoid hidden units;
- train/early_stop/<strategy>: the same for uniform and meta_reweight with
  the first 20 test examples as the hyperval set, `early_stop_on_hyperval`
  and `eval_every` 7 of 60 steps, so that the model and test error returned
  are those of the chosen evaluation point;
- experiment/<workload>/<strategy>: every file `run_experiment` writes, with
  the wall times taken out of `summary.json`, for the imbalance config (six
  strategies) and the noise config (meta_reweight, uniform) of
  `perfbench/workload.py`, cut to 60 steps, seed 5, two repeats;
- nn/weighted_gradient: `weighted_gradient` on one seeded 784-256-10 batch of
  100 examples for fixed weight patterns: dense, rectified normal, a
  hard-mining mask, one nonzero weight and all zero, so that skipping
  zero-weight rows is checked whichever fixtures happen to draw zeros;
- descent: the final layer bytes, the trace, the step size and the two
  constants of the regularity estimate (smoothness, grad_bound) of one
  `run_descent_verification` on the 4-vs-9 pair of the benchmark's descent
  workload.

The experiments and the descent run read the IDX files `perfbench/gen.py`
writes for seed 5. Tests, benchmark files and data come from this checkout,
so every tree is run on the same inputs. One tree takes about 15 s on a
2-core machine.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA_SEED = 5
EXPERIMENT_OVERRIDES = {"total_steps": 60, "eval_every": 25, "seed": DATA_SEED, "repeat": 2}
EXPERIMENTS = {
    "imbalance": ("uniform", "meta_reweight", "proportion", "resample", "hard_mining", "random"),
    "noise": ("meta_reweight", "uniform"),
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _array(a) -> tuple:
    return (str(a.dtype), a.shape, a.tobytes())


def train_items() -> dict:
    from metareweight.trainer import STRATEGIES, train
    from test_trainer import blob_sets, small_config

    sets = blob_sets()
    hyperval = sets[2].subset(range(20))
    # name -> (config, hyperval set or None)
    runs = {f"train/{s}": (small_config(strategy=s), None) for s in STRATEGIES}
    for s in ("uniform", "meta_reweight"):
        for activation in ("tanh", "sigmoid"):
            config = small_config(strategy=s, activation=activation)
            runs[f"train/{activation}/{s}"] = (config, None)
        config = small_config(strategy=s, early_stop_on_hyperval=True, eval_every=7)
        runs[f"train/early_stop/{s}"] = (config, hyperval)
    items = {}
    for name, (config, hyperval_ds) in runs.items():
        r = train(config, *sets, hyperval_ds)
        items[name] = _sha([
            *(_array(w) for w in r.model.layers),
            *((rec.csv_row(), rec.hyperval_error) for rec in r.records),
            *((key, _array(a)) for key, a in sorted(r.weight_log.items())),
            r.examples, r.examples, r.final_test_error,
        ])
    return items


def gradient_items() -> dict:
    import numpy as np

    from metareweight.nn import Batch, MLPModel, backward_per_example, forward, weighted_gradient

    n = 100
    rng = np.random.default_rng(DATA_SEED)
    model = MLPModel.init([784, 256, 10], rng=rng)
    batch = Batch(rng.integers(0, 256, size=(n, 784), dtype=np.uint8), rng.integers(0, 10, size=n))
    cache = forward(model, batch)
    grads = backward_per_example(model, cache, batch)
    rectified = np.maximum(rng.standard_normal(n), 0.0)
    hard = np.zeros(n)
    hard[np.argsort(cache.losses)[-10:]] = 0.1
    one = np.zeros(n)
    one[7] = 1.0
    patterns = {"dense": np.full(n, 1.0 / n), "rectified": rectified / rectified.sum(),
                "hard_mining": hard, "one": one, "zero": np.zeros(n)}
    return {"nn/weighted_gradient": _sha(
        (name, _array(weighted_gradient(grads, w))) for name, w in patterns.items()
    )}


def experiment_items(work: str) -> dict:
    from metareweight.config import build_experiment, parse_config_file
    from metareweight.experiment import run_experiment
    from workload import WORKLOADS

    items = {}
    for name, strategies in EXPERIMENTS.items():
        for strategy in strategies:
            out = os.path.join(work, f"{name}-{strategy}")
            # Relative data paths: the config hash must not depend on `work`.
            values = {"train_images": "data/train-images-idx3-ubyte",
                      "train_labels": "data/train-labels-idx1-ubyte",
                      "test_images": "data/t10k-images-idx3-ubyte",
                      "test_labels": "data/t10k-labels-idx1-ubyte",
                      **WORKLOADS[name]["config"], **EXPERIMENT_OVERRIDES,
                      "strategy": strategy, "output_dir": out}
            path = os.path.join(work, f"{name}-{strategy}.cfg")
            with open(path, "w") as f:
                f.writelines(f"{key} = {value}\n" for key, value in values.items())
            run_experiment(build_experiment(parse_config_file(path)))
            parts = []
            for file in sorted(os.listdir(out)):
                with open(os.path.join(out, file), "rb") as f:
                    content = f.read()
                if file == "summary.json":
                    summary = json.loads(content)
                    del summary["wall_time_total"]
                    for entry in summary["per_seed"]:
                        del entry["wall_time"]
                    content = json.dumps(summary, sort_keys=True).encode()
                parts += [file, content]
            items[f"experiment/{name}/{strategy}"] = _sha(parts)
    return items


def descent_items() -> dict:
    import numpy as np

    from metareweight import data, theory
    from workload import DESCENT_BATCH, DESCENT_PAIR, DESCENT_STEPS, DESCENT_VAL_PER_CLASS

    rng = np.random.default_rng(DATA_SEED)
    full = data.load_idx("data/train-images-idx3-ubyte", "data/train-labels-idx1-ubyte")
    pair = data.make_imbalanced_pair(full, DESCENT_PAIR, rng)
    train_ds, val_ds = data.split_clean_validation(pair, DESCENT_VAL_PER_CLASS, rng)
    run = theory.run_descent_verification(
        train_ds, val_ds, steps=DESCENT_STEPS, batch_size=DESCENT_BATCH, seed=DATA_SEED
    )
    return {"descent": _sha([
        *(_array(w) for w in run.model.layers), run.trace, run.alpha,
        run.estimate.smoothness, run.estimate.grad_bound,
    ])}


def fingerprint() -> dict:
    """Item name -> SHA-256, computed with the `metareweight` on sys.path."""
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    import gen

    items = train_items()
    items.update(gradient_items())
    with tempfile.TemporaryDirectory() as work:
        gen.write_idx(os.path.join(work, "data"), DATA_SEED)
        cwd = os.getcwd()
        os.chdir(work)
        try:
            items.update(experiment_items(work))
            items.update(descent_items())
        finally:
            os.chdir(cwd)
    items["combined"] = _sha(sorted(items.items()))
    return items


def run_tree(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--one"],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=[os.path.join(ROOT, "src")],
                        help="source directories holding the metareweight package")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(fingerprint()))
        return 0
    combined = []
    for src in args.trees:
        items = run_tree(src)
        print(f"# {src}")
        for name, digest in items.items():
            print(f"{digest}  {name}")
        combined.append(items["combined"])
    if len(combined) > 1:
        same = len(set(combined)) == 1
        print("combined hashes " + ("agree" if same else "DIFFER"))
        return 0 if same else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
