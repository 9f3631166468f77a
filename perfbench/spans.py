"""Spans around the calls between the package's modules, and the layer
metrics computed from them.

`Tracer.install()` replaces, in the namespaces of `trainer`, `experiment`,
`theory` and `data`, every public function of the package (imported there or
defined there) with a wrapper that records one span per call: name, start,
end, parent span and run id. Those modules resolve the names at call time, so
their calls into `nn`, `reweight`, `data` and `trainer`, and into their own
functions, go through the wrappers, as do the benchmark's calls made through
the module (`theory.run_descent_verification`, `data.load_idx`). The
objective `theory.validation_objective` returns is wrapped too, as
`theory.objective`. Nothing in the package changes; `uninstall()` puts the
original functions back. Spans stay in memory until `write()`.
"""

import json
import time
import types

import numpy as np

from metareweight import data, experiment, theory, trainer

TRACED_NAMESPACES = (trainer, experiment, theory, data)
STRATEGIES = ("meta_reweight", "uniform", "proportion", "resample", "hard_mining", "random")
# Per-function groups: <name>.{calls,total_s,p50_ms,tail_ms}.
TIMED_FUNCTIONS = (
    "nn.forward",
    "nn.backward_per_example",
    "nn.weighted_gradient",
    "nn.sgd_step",
    "nn.dot_with_each",
    "reweight.meta_grad_closed_form",
    "reweight.rectify_normalize",
    "trainer.evaluate",
    "trainer.validation_loss_and_grad",
)
BASELINE_SELECTORS = (
    "reweight.proportion_weights",
    "reweight.random_weights",
    "reweight.hard_mining_select",
    "reweight.resample_indices",
)
NN_MATMULS = ("nn.forward", "nn.backward_per_example", "nn.weighted_gradient")
EVALUATION = ("trainer.evaluate", "trainer.validation_loss_and_grad")
# The descent workload's own set-up, called outside any package function.
DESCENT_PREPARE = ("data.make_imbalanced_pair", "data.split_clean_validation", "data.filter_remap")
ARTIFACT_WRITERS = (
    "experiment.write_metrics_csv",
    "experiment.write_weights_csv",
    "experiment.write_hyperval_csv",
)


def _images_bytes(result) -> int:
    """Bytes of float image arrays in a Dataset or a tuple of them."""
    items = result if isinstance(result, tuple) else (result,)
    return sum(d.images.nbytes for d in items if hasattr(d, "images"))


def _matmul_flops(shapes, n: int) -> int:
    return sum(2 * n * p * q for p, q in shapes)


# What a span keeps beside its times, by span name: f(args, result) -> note.
# For nn calls the note is the flops of their matrix products, computed
# from the operand shapes.
_NOTES = {
    "nn.forward": lambda a, r: _matmul_flops([w.shape for w in a[0].layers], len(a[1])),
    "nn.backward_per_example": lambda a, r: _matmul_flops(
        [(w.shape[0] - 1, w.shape[1]) for w in a[0].layers[1:]], len(a[2])
    ),
    "nn.weighted_gradient": lambda a, r: _matmul_flops(a[0].layer_shapes(), a[0].count),
    "trainer.train": lambda a, r: a[0].strategy,
    "reweight.rectify_normalize": lambda a, r: (int((r == 0.0).sum()), int(r.size)),
    "data.load_idx": lambda a, r: _images_bytes(r),
    "experiment.prepare_datasets": lambda a, r: _images_bytes(r),
    **{name: (lambda a, r: _images_bytes(r)) for name in DESCENT_PREPARE},
}


class Tracer:
    """In-memory span recorder. A span is [id, name, parent id, start, end, note]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, name: str):
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, result)
            if name == "theory.validation_objective":
                result = self._wrap(result, "theory.objective")
            return result

        return wrapper

    def install(self) -> None:
        for ns in TRACED_NAMESPACES:
            for attr, fn in list(vars(ns).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                package, _, module = fn.__module__.rpartition(".")
                if package != "metareweight" or module == "config":
                    continue
                self._originals.append((ns, attr, fn))
                setattr(ns, attr, self._wrap(fn, f"{module}.{fn.__name__}"))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._originals):
            setattr(ns, attr, fn)
        self._originals.clear()

    def write(self, path: str) -> None:
        """One JSON object per span: run id, span id, name, parent, start, end, note."""
        keys = ("id", "name", "parent", "start", "end", "note")
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps({"run": self.run_id, **dict(zip(keys, span))}) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans nest (one thread, every call returns before its caller does), so
    the children of a span never overlap and their durations subtract.
    """
    out = np.array([s[4] - s[3] for s in spans], dtype=np.float64)
    for s in spans:
        if s[2] >= 0:
            out[s[2]] -= s[4] - s[3]
    return out


def tail(values) -> tuple[str, float]:
    """Highest of p99.9, p99, p90, p50 with at least ten samples beyond it, else the max."""
    n = len(values)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")):
        if n * (1 - q) >= 10:
            return label, float(np.quantile(values, q))
    return "max", float(max(values)) if n else 0.0


def _timing(durations: list[float]) -> dict:
    return {
        "calls": len(durations),
        "total_s": float(sum(durations)),
        "p50_ms": 1000 * float(np.median(durations)) if durations else 0.0,
        "tail_ms": 1000 * tail(durations)[1],
    }


def _steps(span, children: list) -> tuple[list[float], float]:
    """Step times of one train() span, and the time of its validation passes.

    A step ends when its sgd_step returns. Evaluation inside a step is
    reported apart (trainer.evaluate, trainer.validation_loss_and_grad), so
    it is taken out of the step time. In a meta_reweight step the second
    forward/backward pair runs on the validation batch.
    """
    steps, val_pass = [], 0.0
    last_end, eval_time, nn_calls = span[3], 0.0, 0
    for c in children:
        dur = c[4] - c[3]
        if c[1] in EVALUATION:
            eval_time += dur
        elif c[1] in ("nn.forward", "nn.backward_per_example"):
            nn_calls += 1
            if nn_calls > 2 and span[5] == "meta_reweight":
                val_pass += dur
        elif c[1] == "nn.sgd_step":
            steps.append(c[4] - last_end - eval_time)
            last_end, eval_time, nn_calls = c[4], 0.0, 0
    return steps[1:], val_pass  # the first step also holds the model set-up


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers of one traced run, keyed by metric name."""
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[2], []).append(s)
    dur = {k: [s[4] - s[3] for s in v] for k, v in by_name.items()}
    selft = self_times(spans)
    out = {}
    for name in TIMED_FUNCTIONS:
        for k, v in _timing(dur.get(name, [])).items():
            out[f"{name}.{k}"] = v

    out["data.load_idx.calls"] = len(dur.get("data.load_idx", []))
    out["data.load_idx.total_s"] = sum(dur.get("data.load_idx", []))
    # Preparing is prepare_datasets in training, and the pair, split and
    # test filter the descent workload calls itself (parent -1).
    top = children.get(-1, [])
    prepare = dur.get("experiment.prepare_datasets", []) + [
        s[4] - s[3] for s in top if s[1] in DESCENT_PREPARE
    ]
    out["data.prepare.calls"] = len(prepare)
    out["data.prepare.total_s"] = sum(prepare)
    # Images held once set-up ends: the loaded files plus one seed's
    # datasets. Descent reads the files (two loads and the test filter) once
    # a pass, and draws one pair (pair and split) per verification.
    held = []
    for run in by_name.get("experiment.run_experiment", []):
        kids = children.get(run[0], [])
        loads = [c[5] for c in kids if c[1] == "data.load_idx"]
        prepared = [c[5] for c in kids if c[1] == "experiment.prepare_datasets"][:1]
        held.append(sum(loads) + sum(prepared))
    verifications = by_name.get("theory.run_descent_verification", [])
    if verifications:
        def per(names, count):
            return sum(s[5] for s in top if s[1] in names) / count
        setups = sum(s[1] == "data.load_idx" for s in top) / 2
        held.append(per(("data.load_idx", "data.filter_remap"), setups)
                    + per(DESCENT_PREPARE[:2], len(verifications)))
    out["data.images_mb"] = max(held, default=0) / 2**20

    nn_flops = sum(s[5] for k in NN_MATMULS for s in by_name.get(k, []))
    nn_time = sum(sum(dur.get(k, [])) for k in NN_MATMULS)
    out["nn.gflops"] = nn_flops / nn_time / 1e9 if nn_time else 0.0

    rect = [s[5] for s in by_name.get("reweight.rectify_normalize", [])]
    out["reweight.skip_frac"] = sum(z == n for z, n in rect) / len(rect) if rect else 0.0
    out["reweight.zero_weight_frac"] = sum(z for z, _ in rect) / max(sum(n for _, n in rect), 1)
    out["reweight.baseline_weights.total_s"] = sum(sum(dur.get(k, [])) for k in BASELINE_SELECTORS)

    step_times = {s: [] for s in STRATEGIES}
    val_pass, eval_in_train = 0.0, 0.0
    trains = by_name.get("trainer.train", [])
    for t in trains:
        kids = children.get(t[0], [])
        steps, vp = _steps(t, kids)
        step_times[t[5]] += steps
        val_pass += vp
        eval_in_train += sum(c[4] - c[3] for c in kids if c[1] in EVALUATION)
    out["reweight.val_pass.total_s"] = val_pass
    for s, times in step_times.items():
        timing = _timing(times)
        out[f"trainer.step.p50_ms.{s}"] = timing["p50_ms"]
        out[f"trainer.step.tail_ms.{s}"] = timing["tail_ms"]
    train_time = sum(t[4] - t[3] for t in trains)
    out["trainer.eval_share"] = eval_in_train / train_time if train_time else 0.0
    out["trainer.self_s"] = float(sum(selft[t[0]] for t in trains))

    out["theory.estimate_regularity.total_s"] = sum(dur.get("theory.estimate_regularity", []))
    out["theory.objective.calls"] = len(dur.get("theory.objective", []))
    out["theory.objective.total_s"] = sum(dur.get("theory.objective", []))
    # One step size per trial; the steps of every trial, the returned one too.
    ids = {s[0] for s in verifications}
    out["theory.trials"] = sum(s[2] in ids for s in by_name.get("theory.safe_step_size", []))
    out["theory.steps_executed"] = sum(s[2] in ids for s in by_name.get("nn.sgd_step", []))

    out["experiment.run_experiment.total_s"] = sum(dur.get("experiment.run_experiment", []))
    out["experiment.write_artifacts.total_s"] = sum(sum(dur.get(k, [])) for k in ARTIFACT_WRITERS)
    return out
