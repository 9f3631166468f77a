"""SGD training loop with pluggable per-batch example weighting strategies.

One parameter update per step regardless of strategy. The meta_reweight
strategy computes its weights with the closed-form validation alignment
scores, which costs one extra forward/backward pass over the validation
mini-batch per step; that extra work is counted in the result's `examples`.

Each evaluation point's test and hyperval passes go to one worker thread
while training goes on, so a run uses up to two cores: NumPy releases the
GIL in its matrix products and large loops, and models are immutable
(`sgd_step` returns a new one), so the snapshot the worker reads never
changes. At most one point is in flight. The next point, or the end of
training, waits for it, running itself any pass the worker has not started,
then records it and makes the early-stop choice, in step order. The
validation loss and gradient norm stay on the training thread: they cover
only the small validation set.
"""

import collections
import concurrent.futures
import functools
import operator
import time
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset
from .errors import ConfigError, NonFiniteError
from .nn import (
    ACTIVATIONS,
    Batch,
    MLPModel,
    backward_per_example,
    forward,
    weighted_gradient,
    sgd_step,
)
from .reweight import (
    hard_mining_select,
    meta_grad_closed_form,
    proportion_weights,
    random_weights,
    rectify_normalize,
    resample_indices,
)

STRATEGIES = ("uniform", "meta_reweight", "proportion", "resample", "hard_mining", "random")
EVAL_CHUNK = 128  # examples per forward pass of `evaluate`


@dataclass(frozen=True)
class TrainConfig:
    strategy: str = "uniform"
    learning_rate: float = 1e-3
    lr_schedule: tuple[tuple[int, float], ...] = ()
    batch_size_train: int = 100
    batch_size_val: int = 10
    total_steps: int = 8000
    seed: int = 0
    eval_every: int = 100
    include_val_in_train: bool = True
    early_stop_on_hyperval: bool = False
    hard_mining_k: int | None = None
    hidden_sizes: tuple[int, ...] = (256,)
    activation: str = "relu"

    def __post_init__(self):
        # Checked here only, so the schedule becomes a tuple that cannot change after the check.
        object.__setattr__(self, "lr_schedule", tuple(self.lr_schedule))
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy: unknown value {self.strategy!r}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError("learning_rate: must be positive and finite")
        if self.batch_size_train < 1:
            raise ConfigError("batch_size_train: must be at least 1")
        if self.batch_size_val < 1:
            raise ConfigError("batch_size_val: must be at least 1")
        if self.total_steps < 1:
            raise ConfigError("total_steps: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        if self.eval_every < 1:
            raise ConfigError("eval_every: must be at least 1")
        prev = -1
        for step, mult in self.lr_schedule:
            if step <= prev:
                raise ConfigError("lr_schedule: steps must be strictly increasing")
            if not 0 < mult < np.inf:
                raise ConfigError("lr_schedule: multipliers must be positive and finite")
            prev = step
        if self.hard_mining_k is not None and self.hard_mining_k < 1:
            raise ConfigError("hard_mining_k: must be at least 1 when set")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden_sizes: need positive sizes")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation: unknown value {self.activation!r}")


@dataclass
class MetricsRecord:
    step: int
    train_loss: float
    val_loss: float
    test_error: float
    grad_norm_sq: float
    mean_w_clean: float
    mean_w_flipped: float
    frac_zero_w: float
    hyperval_error: float = float("nan")

    CSV_COLUMNS = (
        "step",
        "train_loss",
        "val_loss_G",
        "test_error",
        "grad_norm_sq",
        "mean_w_clean",
        "mean_w_flipped",
        "frac_zero_w",
    )

    def csv_row(self) -> list:
        """The fields in CSV_COLUMNS order: every field but hyperval_error."""
        return [getattr(self, f.name) for f in fields(self) if f.name != "hyperval_error"]


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    model: MLPModel
    final_test_error: float
    examples: int  # examples through the stepping path, each once forward and once backward
    wall_time: float
    weight_log: dict  # arrays: step, weight, flipped, for the last eval_every steps


def evaluate(model: MLPModel, ds: Dataset) -> tuple[float, float]:
    """(error rate, mean loss) over a dataset, computed in chunks of EVAL_CHUNK.

    Chunks are kept small, so that their arrays (0.8 MB at 784 features) are
    smaller than a training step's: with 2,048-example chunks, peak memory
    varied by 25 MB between identical runs. `train` runs this on its worker
    thread while training goes on, so a chunk's arrays add to the step's
    instead of reusing its memory; 128 examples halve what 256 added. Rows
    are independent, so the error count does not depend on the chunk size,
    but the loss is summed per chunk, so the mean loss's last bits do."""
    if len(ds) == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    wrong = 0
    loss_sum = 0.0
    for start in range(0, len(ds), EVAL_CHUNK):
        part = Batch(ds.images[start : start + EVAL_CHUNK], ds.labels[start : start + EVAL_CHUNK])
        cache = forward(model, part)
        wrong += int((cache.logits.argmax(axis=1) != part.labels).sum())
        loss_sum += float(cache.losses.sum())
    return wrong / len(ds), loss_sum / len(ds)


def validation_loss_and_grad(model: MLPModel, batch: Batch) -> tuple[float, np.ndarray]:
    """Mean loss over a validation batch and its flat gradient, a new vector."""
    cache = forward(model, batch)
    grads = backward_per_example(model, cache, batch)
    g = weighted_gradient(grads, np.full(len(batch), 1.0 / len(batch)))
    return float(cache.losses.mean()), g


def _lr_multiplier(schedule: list[tuple[int, float]], step: int) -> float:
    mult = 1.0
    for boundary, m in schedule:
        if step >= boundary:
            mult = m
    return mult


def _concat(a: Dataset, b: Dataset) -> Dataset:
    # np.concatenate would upcast pixel bytes to unscaled 0..255 floats.
    if a.images.dtype != b.images.dtype:
        raise ConfigError(f"cannot join {a.images.dtype} images with {b.images.dtype} images")
    return Dataset(
        np.concatenate([a.images, b.images]),
        np.concatenate([a.labels, b.labels]),
        np.concatenate([a.original_labels, b.original_labels]),
    )


def _left_sum(values) -> float:
    """Floats added one at a time from 0.0, in order (sum() may compensate)."""
    return functools.reduce(operator.add, values, 0.0)


def _window_columns(window: list) -> dict:
    """MetricsRecord's window columns over logged (t, w, flipped, loss) steps.

    Weight mass is summed within each step first, then over the steps."""
    n_flipped = sum(int(f.sum()) for _, _, f, _ in window)
    n_clean = sum(f.size for _, _, f, _ in window) - n_flipped
    w_clean = _left_sum(float(w[~f].sum()) for _, w, f, _ in window)
    w_flipped = _left_sum(float(w[f].sum()) for _, w, f, _ in window)
    zero = sum(int((w == 0.0).sum()) for _, w, _, _ in window)
    return dict(
        train_loss=_left_sum(loss for *_, loss in window) / len(window),
        mean_w_clean=w_clean / n_clean if n_clean else float("nan"),
        mean_w_flipped=w_flipped / n_flipped if n_flipped else float("nan"),
        frac_zero_w=zero / (n_clean + n_flipped),
    )


def train(
    config: TrainConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    test_ds: Dataset,
    hyperval_ds: Dataset | None = None,
) -> TrainResult:
    """Run the configured strategy and return metrics plus the final model.

    The validation set must be provenance-clean. By default it is folded back
    into the training pool, so every strategy sees the same examples and
    meta_reweight gets no extra data, only the identity of the clean ones.
    A NonFiniteError is raised again with the seed and the step it hit.
    """
    if len(train_ds) == 0:
        raise ConfigError("training set is empty")
    if len(test_ds) == 0:
        raise ConfigError("test set is empty")
    if len(val_ds) and val_ds.flipped_mask.any():
        raise ConfigError("validation set contains corrupted labels")
    if config.strategy == "meta_reweight" and len(val_ds) == 0:
        raise ConfigError("meta_reweight needs a nonempty validation set")
    if config.early_stop_on_hyperval and (hyperval_ds is None or len(hyperval_ds) == 0):
        raise ConfigError("early_stop_on_hyperval needs a hyperval dataset")

    pool = train_ds
    if config.include_val_in_train and len(val_ds):
        pool = _concat(train_ds, val_ds)

    labels = (pool.labels, val_ds.labels, test_ds.labels)
    num_classes = int(max(s.max() for s in labels if s.size)) + 1
    if num_classes < 2:
        raise ConfigError("need at least two classes to train a classifier")

    rng = np.random.default_rng(config.seed)
    sizes = [pool.images.shape[1], *config.hidden_sizes, num_classes]
    model = MLPModel.init(sizes, activation=config.activation, rng=rng)

    counts = np.bincount(pool.labels, minlength=num_classes)
    majority_class = int(np.argmax(counts))
    pool_flipped = pool.flipped_mask
    n = config.batch_size_train
    # The whole validation set as one batch, built once: the evaluation pass
    # and, when batch_size_val covers the set, every meta_reweight step use it.
    val_batch = Batch(val_ds.images, val_ds.labels) if len(val_ds) else None
    examples = 0  # example passes (forward and backward alike) in the stepping path

    # Weight functions (batch, cache, grads) -> w, one per strategy, on the current model.
    def uniform(batch, cache, grads):
        return np.full(n, 1.0 / n)

    def hard_mining(batch, cache, grads):
        majority = batch.labels == majority_class
        k = config.hard_mining_k if config.hard_mining_k is not None else int((~majority).sum())
        k = min(k, int(majority.sum()))
        sel = hard_mining_select(cache.losses, batch.labels, majority_class, k)
        w = np.zeros(n)
        if sel.size:
            w[sel] = 1.0 / sel.size
        return w

    def meta_reweight(batch, cache, grads):
        nonlocal examples
        if config.batch_size_val >= len(val_ds):
            vbatch = val_batch
        else:
            vidx = rng.choice(len(val_ds), size=config.batch_size_val, replace=False)
            vbatch = Batch(val_ds.images[vidx], val_ds.labels[vidx])
        vgrads = backward_per_example(model, forward(model, vbatch), vbatch)
        examples += len(vbatch)
        return rectify_normalize(meta_grad_closed_form(grads, vgrads))

    weights = {
        "uniform": uniform,
        "meta_reweight": meta_reweight,
        "proportion": lambda batch, cache, grads: proportion_weights(batch.labels, counts),
        "resample": uniform,
        "hard_mining": hard_mining,
        "random": lambda batch, cache, grads: random_weights(n, rng),
    }[config.strategy]

    # (t, w, flipped, loss) per step; evaluation at step t reads the last t % eval_every + 1.
    log: collections.deque = collections.deque(maxlen=config.eval_every)
    records: list[MetricsRecord] = []
    with_hyperval = hyperval_ds is not None and len(hyperval_ds) > 0
    # The evaluation point in flight: its record fields, its model and the
    # futures of its test and hyperval passes.
    pending = None
    best = None  # (record, model) with the lowest hyperval error so far

    def file(point) -> None:
        """Record an evaluation point once its passes are done, and make the early-stop choice.

        A pass the worker has not started runs on this thread instead of
        being waited for: the hyperval pass first, as it was queued last."""
        nonlocal best
        columns, snapshot, test_pass, hyper_pass = point

        def error(ds, future) -> float:
            return (evaluate(snapshot, ds) if future.cancel() else future.result())[0]

        hyperval_error = error(hyperval_ds, hyper_pass) if hyper_pass else float("nan")
        record = MetricsRecord(
            test_error=error(test_ds, test_pass), hyperval_error=hyperval_error, **columns
        )
        records.append(record)
        if config.early_stop_on_hyperval and (
            best is None or record.hyperval_error < best[0].hyperval_error
        ):
            best = record, snapshot

    t0 = time.perf_counter()
    # Leaving the block, by return or raise, waits for the worker and ends its thread.
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for t in range(config.total_steps):
                alpha = config.learning_rate * _lr_multiplier(config.lr_schedule, t)
                if config.strategy == "resample":
                    idx = resample_indices(pool.labels, n, rng)
                else:
                    idx = rng.choice(len(pool), size=n, replace=len(pool) < n)
                batch = Batch(pool.images[idx], pool.labels[idx])
                # Overflow ends in a NonFiniteError that names the step; NumPy's warnings repeat it.
                with np.errstate(over="ignore", invalid="ignore"):
                    cache = forward(model, batch)
                    grads = backward_per_example(model, cache, batch)
                    examples += len(batch)
                    w = weights(batch, cache, grads)
                    log.append((t, w, pool_flipped[idx], float(w @ cache.losses)))
                    model = sgd_step(model, weighted_gradient(grads, w), alpha)

                if (t + 1) % config.eval_every and t + 1 < config.total_steps:
                    continue
                val_loss, grad_norm_sq = float("nan"), float("nan")
                if val_batch is not None:
                    val_loss, val_grad = validation_loss_and_grad(model, val_batch)
                    grad_norm_sq = float(val_grad @ val_grad)
                columns = dict(
                    step=t + 1, val_loss=val_loss, grad_norm_sq=grad_norm_sq,
                    **_window_columns(list(log)[-(t % config.eval_every + 1) :]),
                )
                if pending is not None:
                    file(pending)
                pending = (
                    columns,
                    model,
                    worker.submit(evaluate, model, test_ds),
                    worker.submit(evaluate, model, hyperval_ds) if with_hyperval else None,
                )
            file(pending)
        except NonFiniteError as e:
            raise NonFiniteError(f"seed {config.seed} step {t}: {e}") from e

    # An early-stopped run's test error is the one recorded at its chosen point.
    final, model = best if config.early_stop_on_hyperval else (records[-1], model)

    steps, ws, flipped, _ = zip(*log)
    return TrainResult(
        records=records,
        model=model,
        final_test_error=final.test_error,
        examples=examples,
        wall_time=time.perf_counter() - t0,
        weight_log={
            "step": np.repeat(steps, n),
            "weight": np.concatenate(ws),
            "flipped": np.concatenate(flipped),
        },
    )
