"""The measured process of one benchmark run.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/workload.py \\
        --workload imbalance --seed 0 --seconds 30 --trace 0 --data DIR --work DIR

`run.py` starts it once the IDX files for the seed are on disk, with BLAS
pinned to one thread. The training workloads reach the package only through
the path `metareweight train` takes: a key=value config file,
`parse_config_file`, `build_experiment` and `run_experiment`. The descent
workload makes the set-up of `metareweight verify --level full` and calls
`theory.run_descent_verification`. The process prints one JSON line with the
untraced measurements, the output checks and, with --trace 1, the layer
numbers of a separate traced pass.

Load model: closed loop, one caller. Training is a batch job and every call
waits for the one before, so throughput is reported at a stated input size
(a 784-256-k ReLU MLP, training batch 100), not at an arrival rate.
"""

import argparse
import ctypes
import csv
import glob
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from metareweight import data, experiment, theory
from metareweight.config import build_experiment, parse_config_file
from metareweight.nn import Batch, MLPModel, backward_per_example, forward, sgd_step, weighted_gradient
from metareweight.reweight import meta_grad_closed_form, meta_grad_lookahead
from metareweight.trainer import evaluate

import spans

# Why each workload exists (one exercises a mechanism, another bypasses it
# and should show no change):
# - imbalance: the README's 200:1 class-imbalance config. The 784x256
#   matmuls in nn take most of each step, while meta scoring (m = 10) and
#   evaluation (once, at the end) are nearly idle, so an nn change shows here
#   and a reweight or evaluation change should not. The only workload that
#   runs the five baselines.
# - noise: 40% uniform label flips over 10 classes. The validation pass is
#   as large as the training pass (counted ratio 2.00), the 100x100 score
#   products are a real share of a meta step, and evaluation every 200 steps
#   over 15,000 images is a real share of the run; imbalance barely touches
#   any of these.
# - descent: the descent-guarantee check on the balanced 510-example 4-vs-9
#   pair of `verify --level full`. No trainer and no meta scoring: the
#   functional flat-vector path (`sgd_step` builds a new model every step,
#   `dot_with_each`, `with_params` probes, a validation objective per step)
#   that a training-path change should leave alone. The check itself runs
#   1,000 steps and up to 10 step-size trials, 28 to 91 s depending on the
#   data. Here each verification runs DESCENT_STEPS steps, with the check's
#   own limit of trials, and a run holds 36 of them, in passes that read the
#   IDX files once. A verification takes 1 to 6 trials, depending on its
#   pair. With short trials, the regularity estimate each verification pays
#   once outweighs the trials, so that the trial count moves a run's time
#   little.
WORKLOADS = {
    "imbalance": {
        "config": {
            "learning_rate": "1e-3",
            "batch_size_train": 100,
            "batch_size_val": 10,
            "total_steps": 250,
            "eval_every": 250,
            "imbalance_ratio": 200,
            "imbalance_total": 5000,
            "minority_class": 4,
            "majority_class": 9,
            "val_per_class": 5,
        },
        # One pass: one call per entry, in this order. meta_reweight and
        # uniform carry the gated numbers, so they run twice per pass,
        # interleaved so that both see the same machine.
        "pass": [
            "meta_reweight", "uniform", "proportion", "resample",
            "meta_reweight", "uniform", "hard_mining", "random",
        ],
        "pass_seconds": 15.0,
    },
    "noise": {
        "config": {
            "learning_rate": "0.1",
            "batch_size_train": 100,
            "batch_size_val": 100,
            "total_steps": 300,
            "eval_every": 200,
            "noise_kind": "uniform_flip",
            "noise_ratio": 0.4,
            "num_classes": 10,
            "subset_total": 10000,
            "hyperval_total": 5000,
            "val_per_class": 10,
        },
        "pass": ["meta_reweight", "uniform"] * 2,
        "pass_seconds": 15.0,
    },
    # One set-up, then one verification per entry.
    "descent": {"pass": ["descent"] * 9, "pass_seconds": 7.5},
}
# A run makes round(seconds / pass_seconds) whole passes (at least one): the
# work grows with --seconds but does not depend on how fast the machine is.
# A pass takes about pass_seconds, set-up included, on a 2-core machine.
WARMUP_STEPS = 20
ROUTE_RTOL = 1e-10

# The descent workload: the data set-up of `verify --level full`.
DESCENT_PAIR = data.ImbalanceSpec(ratio=1, total=510)
DESCENT_VAL_PER_CLASS = 5
DESCENT_BATCH = 100
DESCENT_STEPS = 20
# Plain SGD on the same pair, the reference the rectified update is timed
# and scored against: every example weighted 1/n, at the step-size cap of
# the check. (The verified step size is too small for plain SGD to learn.)
UNIFORM_LR = 0.1

METRICS_COLUMNS = [
    "step", "train_loss", "val_loss_G", "test_error", "grad_norm_sq",
    "mean_w_clean", "mean_w_flipped", "frac_zero_w",
]
SUMMARY_KEYS = {
    "config_hash", "config", "strategy", "seeds", "per_seed", "mean_test_error",
    "ci_half_width", "wall_time_total", "forward_examples_total", "backward_examples_total",
}


class Hooks:
    """What the end-to-end numbers need from inside the package.

    Wraps `experiment.train` (one call per seed, each a second or more) to
    note when set-up ended and to keep each final model with one batch for
    the output checks, and `sgd_step` in `theory` to count executed descent
    steps. One `perf_counter` or one increment per call: this is not tracing.
    """

    def __init__(self):
        self.first_step_at = None
        self.trained = []  # (config, train batch, val batch, final model) per seed
        self.descent_steps = 0
        self._originals = None

    def install(self) -> None:
        self._originals = train, step = experiment.train, theory.sgd_step

        def hooked_train(config, train_ds, val_ds, test_ds, hyperval_ds=None):
            if self.first_step_at is None:
                self.first_step_at = time.perf_counter()
            result = train(config, train_ds, val_ds, test_ds, hyperval_ds)
            n, m = config.batch_size_train, min(config.batch_size_val, len(val_ds))
            tb = Batch(train_ds.images[:n].copy(), train_ds.labels[:n].copy())
            vb = Batch(val_ds.images[:m].copy(), val_ds.labels[:m].copy())
            self.trained.append((config, tb, vb, result.model))
            return result

        def counted_step(model, grad_flat, alpha):
            self.descent_steps += 1
            return step(model, grad_flat, alpha)

        experiment.train, theory.sgd_step = hooked_train, counted_step

    def uninstall(self) -> None:
        experiment.train, theory.sgd_step = self._originals


def uniform_sgd(train_ds: data.Dataset, steps: int, seed: int) -> MLPModel:
    """The plain-SGD reference of the descent workload (see UNIFORM_LR)."""
    rng = np.random.default_rng(seed)
    model = MLPModel.init([train_ds.images.shape[1], 256, 2], rng=rng)
    weights = np.full(DESCENT_BATCH, 1.0 / DESCENT_BATCH)
    for _ in range(steps):
        idx = rng.choice(len(train_ds), size=DESCENT_BATCH, replace=False)
        batch = Batch(train_ds.images[idx], train_ds.labels[idx])
        grads = backward_per_example(model, forward(model, batch), batch)
        model = sgd_step(model, weighted_gradient(grads, weights), UNIFORM_LR)
    return model


class Workload:
    def __init__(self, name: str, seed: int, data_dir: str, work_dir: str):
        self.name = name
        self.spec = WORKLOADS[name]
        # A verification whose trials blew up ends near chance, and its
        # steps count as failed; the median keeps one such model in 36 from
        # moving the error of a descent run.
        self.average = statistics.median if name == "descent" else statistics.fmean
        self.seed = seed
        self.work_dir = work_dir
        self.hooks = Hooks()
        self.calls = 0
        self.paths = data.locate_mnist(data_dir)
        if self.paths is None:
            raise FileNotFoundError(f"no IDX files under {data_dir}")

    def _config(self, strategy: str, seed: int, out: str, **overrides) -> str:
        values = {**self.paths, **self.spec["config"], **overrides}
        values.update(strategy=strategy, seed=seed, repeat=1, output_dir=out)
        path = os.path.join(self.work_dir, "run.cfg")
        with open(path, "w") as f:
            f.writelines(f"{key} = {value}\n" for key, value in values.items())
        return path

    def call(self, strategy: str, seed: int) -> dict:
        """One training run, checked; see `train_call`."""
        self.calls += 1
        record = self.train_call(strategy, seed)
        why = check_call(record, self.spec["config"].get("hyperval_total", 0) > 0)
        record["errors"] = [] if why is None else [f"{strategy} seed {seed}: {why}"]
        record["attempted"], record["failed"] = 1, len(record["errors"])
        if why is None:
            entry = record["summary"]["per_seed"][0]
            steps = self.spec["config"]["total_steps"]
            record["timed"] = {strategy: (steps, entry["wall_time"])}
            record["test_error"] = {strategy: entry["final_test_error"]}
            record["passes_per_step"] = {
                strategy: (entry["forward_examples"] + entry["backward_examples"]) / steps
            }
        return record

    def train_call(self, strategy: str, seed: int) -> dict:
        """One `metareweight train` invocation, split into set-up and run time."""
        out = os.path.join(self.work_dir, f"out{self.calls}")
        self.hooks.first_step_at = None
        self.hooks.trained = []
        record = {"strategy": strategy, "seed": seed, "out": out}
        t0 = time.perf_counter()
        try:
            path = self._config(strategy, seed, out)
            record["summary"] = experiment.run_experiment(build_experiment(parse_config_file(path)))
        except Exception as e:  # a raising run is a failed operation, not a crash
            record["error"] = f"{type(e).__name__}: {e}"
        t1 = time.perf_counter()
        started = self.hooks.first_step_at or t1
        record["setup_s"] = started - t0
        record["run_s"] = t1 - started
        record["trained"] = self.hooks.trained
        return record

    def descent_pass(self, base: int, steps: int, count: int) -> list[dict]:
        """The set-up of `verify --level full` once, then `count` verifications.

        Set-up reads both IDX files and keeps the test images of the pair;
        the pair each verification draws is set-up work too. A pass's set-up
        time goes on its first record.
        """
        t0 = time.perf_counter()
        try:
            full = data.load_idx(self.paths["train_images"], self.paths["train_labels"])
            test = data.filter_remap(
                data.load_idx(self.paths["test_images"], self.paths["test_labels"]),
                {DESCENT_PAIR.minority_class: 0, DESCENT_PAIR.majority_class: 1},
            )
        except Exception as e:
            return [{"strategy": "descent", "seed": base, "attempted": steps, "failed": steps,
                     "errors": [f"descent seed {base}: set-up raised {type(e).__name__}: {e}"],
                     "violations": [], "setup_s": time.perf_counter() - t0, "run_s": 0.0}]
        setup_s = time.perf_counter() - t0
        records = [self.descent_call(full, test, base + i, steps) for i in range(count)]
        records[0]["setup_s"] = setup_s + sum(r.pop("pair_s") for r in records)
        return records

    def descent_call(self, full: data.Dataset, test: data.Dataset, seed: int, steps: int) -> dict:
        """One descent verification and its plain-SGD reference.

        Every step of the returned trajectory is an operation, checked as
        the program's own check does it: a step where G rose by more than
        its tolerance (or became NaN) failed. A trajectory that stops short
        is named too. A raise, or a trajectory without a step, is an error:
        the output is wrong, and every requested step counts as failed.
        """
        record = {"strategy": "descent", "seed": seed, "attempted": steps, "failed": steps,
                  "errors": [], "violations": []}
        t0 = time.perf_counter()
        t1 = t0
        try:
            rng = np.random.default_rng(seed)
            pair = data.make_imbalanced_pair(full, DESCENT_PAIR, rng)
            train_ds, val_ds = data.split_clean_validation(pair, DESCENT_VAL_PER_CLASS, rng)
            t1 = time.perf_counter()
            self.hooks.descent_steps = 0
            run = theory.run_descent_verification(
                train_ds, val_ds, steps=steps, batch_size=DESCENT_BATCH, seed=seed
            )
            t2 = time.perf_counter()
            reference = uniform_sgd(train_ds, steps, seed)
            t3 = time.perf_counter()
            errors = {"meta_reweight": evaluate(run.model, test)[0],
                      "uniform": evaluate(reference, test)[0]}
        except Exception as e:
            record["errors"].append(f"descent seed {seed}: raised {type(e).__name__}: {e}")
            record.update(pair_s=t1 - t0, run_s=time.perf_counter() - t1)
            return record
        record.update(pair_s=t1 - t0, run_s=time.perf_counter() - t1)
        if not run.trace:
            record["errors"].append(f"descent seed {seed}: no step was taken")
            return record
        rose = [e for e in run.trace if not e.g_after <= e.g_before + run.tolerance]
        record["violations"] = [
            f"descent seed {seed} step {e.step} (alpha {run.alpha:.3e}): G {e.g_before!r} -> {e.g_after!r}"
            for e in rose
        ]
        if len(run.trace) < steps:
            record["violations"].append(
                f"descent seed {seed}: the last trial stopped after {len(run.trace)} of {steps} steps"
            )
        record["attempted"], record["failed"] = len(run.trace), len(rose)
        record["violating_steps"] = len(rose)
        record["timed"] = {"meta_reweight": (self.hooks.descent_steps, t2 - t1),
                           "uniform": (steps, t3 - t2)}
        record["test_error"] = errors
        return record

    def read_inputs_untimed(self) -> None:
        for path in self.paths.values():
            with open(path, "rb") as f:
                while f.read(1 << 22):
                    pass

    def warm_up(self) -> None:
        """Run every operation kind briefly before anything is timed.

        A warm-up that raises is passed over: the timed calls meet the same
        error and report it as a failed operation.
        """
        for strategy in dict.fromkeys(self.spec["pass"]):
            if strategy == "descent":
                self.descent_pass(0, WARMUP_STEPS, 1)
                continue
            path = self._config(
                strategy, 0, os.path.join(self.work_dir, "warmup"),
                total_steps=WARMUP_STEPS, eval_every=WARMUP_STEPS,
            )
            try:
                experiment.run_experiment(build_experiment(parse_config_file(path)))
            except Exception:
                pass

    def one_pass(self, index: int) -> list[dict]:
        base = 1000 * self.seed + 100 * index
        if self.name == "descent":
            return self.descent_pass(base, DESCENT_STEPS, len(self.spec["pass"]))
        return [self.call(s, base + i) for i, s in enumerate(self.spec["pass"])]

    def passes(self, count: int) -> list[list[dict]]:
        return [self.one_pass(i) for i in range(count)]


def pass_count(seconds: float, pass_seconds: float) -> int:
    return max(1, round(seconds / pass_seconds))


def _read_rows(path: str, columns: list[str]) -> list[dict]:
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != columns:
            raise ValueError(f"{os.path.basename(path)}: columns {reader.fieldnames}, want {columns}")
        return list(reader)


def route_gap(config, tb: Batch, vb: Batch, model) -> float:
    """Relative gap between the lookahead scores and alpha times the closed form."""
    alpha = config.learning_rate
    closed = alpha * meta_grad_closed_form(
        backward_per_example(model, forward(model, tb), tb),
        backward_per_example(model, forward(model, vb), vb),
    )
    look = meta_grad_lookahead(model, tb, vb, alpha)
    return float(np.abs(look - closed).max()) / max(float(np.abs(closed).max()), 1e-300)


def check_call(record: dict, with_hyperval: bool) -> str | None:
    """Why one `train` run failed, or None.

    A run fails if it raised, logged a non-finite loss, left an artifact
    missing or without its documented columns, logged a step whose weights
    sum to neither 1 nor 0, or if on its final model the lookahead scores and
    alpha times the closed form differ by more than ROUTE_RTOL.
    """
    if "error" in record:
        return f"raised {record['error']}"
    out, seed = record["out"], record["seed"]
    try:
        with open(os.path.join(out, "summary.json")) as f:
            summary = json.load(f)
        if SUMMARY_KEYS - set(summary) or summary["seeds"] != [seed]:
            raise ValueError(f"summary.json: missing {sorted(SUMMARY_KEYS - set(summary))} or wrong seeds")
        rows = _read_rows(os.path.join(out, f"metrics_seed{seed}.csv"), METRICS_COLUMNS)
        losses = [float(r[c]) for r in rows for c in ("train_loss", "val_loss_G")]
        if not rows or not all(math.isfinite(v) for v in losses):
            raise ValueError("metrics: no rows, or a non-finite logged loss")
        if float(rows[-1]["test_error"]) != summary["per_seed"][0]["final_test_error"]:
            raise ValueError("metrics: final test error disagrees with summary.json")
        sums: dict = {}
        for r in _read_rows(os.path.join(out, f"weights_seed{seed}.csv"), ["step", "weight", "flipped"]):
            sums[r["step"]] = sums.get(r["step"], 0.0) + float(r["weight"])
        bad = [k for k, v in sums.items() if abs(v - 1.0) > 1e-9 and abs(v) > 1e-9]
        if not sums or bad:
            raise ValueError(f"weights: step {bad[:1]} sums to neither 1 nor 0")
        if with_hyperval:
            hv = _read_rows(os.path.join(out, f"hyperval_seed{seed}.csv"), ["step", "hyperval_error"])
            if [r["step"] for r in hv] != [r["step"] for r in rows]:
                raise ValueError("hyperval: steps differ from metrics")
        gap = route_gap(*record["trained"][0])
        if not gap <= ROUTE_RTOL:
            raise ValueError(f"lookahead vs closed form: relative gap {gap:.3e}")
    except Exception as e:  # a crashed check is a failed check
        return f"{type(e).__name__}: {e}"
    return None


def summarize(passes: list[list[dict]], average=statistics.fmean) -> dict:
    """The numbers of the passes of one mode, the output checks, and counts.

    Timings and test errors come from the operations that passed their
    checks; a strategy none of whose runs passed is left out. `average`
    takes the test errors of a strategy to one number.
    """
    records = [r for p in passes for r in p]
    setups = [r["setup_s"] for r in records if "setup_s" in r]
    run_s = [sum(r["run_s"] for r in p) for p in passes]
    timed, errors, passes_per_step = {}, {}, {}
    for r in records:
        for k, (steps, seconds) in r.get("timed", {}).items():
            timed.setdefault(k, []).append((steps, seconds))
        for k, e in r.get("test_error", {}).items():
            errors.setdefault(k, []).append(e)
        passes_per_step.update(r.get("passes_per_step", {}))
    artifact_bytes = [
        sum(os.path.getsize(os.path.join(r["out"], f))
            for r in p if os.path.isdir(r.get("out", "")) for f in os.listdir(r["out"]))
        for p in passes
    ]
    return {
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "setup_tail": spans.tail(setups),
        "run_s": statistics.median(run_s),
        "run_samples": run_s,
        "run_tail": spans.tail(run_s),
        # All time of a strategy pooled: its calls are spread over the
        # pass, so pooling averages over the machine's slow and fast spells.
        "steps_per_s": {k: sum(n for n, _ in v) / sum(t for _, t in v) for k, v in timed.items()},
        "steps_samples": {k: [n / t for n, t in v] for k, v in timed.items()},
        "test_error": {k: float(average(v)) for k, v in errors.items()},
        "passes_per_step": passes_per_step,
        "artifact_bytes": statistics.median(artifact_bytes),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "errors": [e for r in records for e in r["errors"]],
        "violations": [v for r in records for v in r.get("violations", [])],
        "violating_steps": sum(r.get("violating_steps", 0) for r in records),
    }


def derived(u: dict) -> dict:
    """meta/uniform ratios: reported next to each other, never gated.

    A speed-up in shared nn code shortens both step times and so raises the
    wall ratio: gating on it would reject a pure gain. The counted ratio is
    fixed by the config. A ratio reads 0 where a strategy is missing (descent
    counts no example passes).
    """
    s, p = u["steps_per_s"], u["passes_per_step"]
    both = ("meta_reweight", "uniform")
    return {
        "meta_overhead.wall": s["uniform"] / s["meta_reweight"] if all(s.get(k) for k in both) else 0.0,
        "meta_overhead.counted": p["meta_reweight"] / p["uniform"] if all(p.get(k) for k in both) else 0.0,
    }


def end_to_end_metrics(u: dict, peak_rss_mb: float) -> dict:
    # A strategy with no passing run reads 0; the run is then not correct.
    return {
        "setup_s": u["setup_s"],
        "run_s": u["run_s"],
        "steps_per_s.meta_reweight": u["steps_per_s"].get("meta_reweight", 0.0),
        "steps_per_s.uniform": u["steps_per_s"].get("uniform", 0.0),
        "peak_rss_mb": peak_rss_mb,
        "test_error.meta_reweight": u["test_error"].get("meta_reweight", 0.0),
        "test_error.uniform": u["test_error"].get("uniform", 0.0),
        # The complement of the failed fraction, so that it is never 0.
        "ok_frac": 1.0 - u["failed"] / u["attempted"],
    }


def per_layer_metrics(u: dict, t: dict, layers: dict) -> dict:
    """The traced pass's layer numbers, plus counts and ratios of the untraced one."""
    out = dict(layers)
    for s in spans.STRATEGIES:
        out[f"nn.example_passes_per_step.{s}"] = u["passes_per_step"].get(s, 0.0)
    out["experiment.artifact_bytes"] = u["artifact_bytes"]
    out["theory.violations"] = t["violating_steps"]
    out.update(derived(u))
    out["trace.overhead_frac"] = t["run_s"] / u["run_s"] - 1.0
    return out


def blas_info() -> dict:
    """NumPy and OpenBLAS versions, and the thread count OpenBLAS says it uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads = getattr(lib, fn)()
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads_in_use": threads}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    w = Workload(args.workload, args.seed, args.data, args.work)
    w.hooks.install()
    w.read_inputs_untimed()
    w.warm_up()
    # With --trace 1 half the passes are untraced, the reference for the
    # tracing overhead: the traced half repeats them with the same seeds, so
    # that both do the same work. No end-to-end number comes from a traced
    # pass.
    count = pass_count(args.seconds / 2 if args.trace else args.seconds, w.spec["pass_seconds"])
    untraced = w.passes(count)
    result = {"numpy": blas_info(), "untraced": summarize(untraced, w.average)}
    summaries = [result["untraced"]]
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-seed{args.seed}")
        w.hooks.uninstall()
        tracer.install()
        w.hooks.install()  # over the span wrappers, so train() stays traced
        traced = w.passes(count)
        w.hooks.uninstall()
        tracer.uninstall()
        tracer.write(os.path.join(args.work, "spans.jsonl"))
        result["traced"] = summarize(traced, w.average)
        summaries.append(result["traced"])
        result["metrics"] = per_layer_metrics(
            result["untraced"], result["traced"], spans.layer_metrics(tracer.spans)
        )
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = end_to_end_metrics(result["untraced"], peak_rss_mb)
    result["derived"] = derived(result["untraced"])
    for key in ("attempted", "failed"):
        result[key] = sum(s[key] for s in summaries)
    for key in ("errors", "violations"):
        result[key] = [m for s in summaries for m in s[key]]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
