"""Empirical checks of the convergence story behind the reweighted update.

The update under test is the unnormalized rectified step

    theta' = theta - (alpha / n) * D,  D = sum_i c_i * grad_f_i,  c_i = max(<grad_G, grad_f_i>, 0).

If the validation objective G is L-smooth, the descent lemma gives

    G(theta') <= G(theta) - (alpha / n) * sum_i c_i^2 + (L / 2) * (alpha / n)^2 * ||D||^2.

The paper's step bound alpha <= 2 n / (L sigma^2), with sigma bounding every
example gradient norm, makes the right side at most G(theta) only if
||D||^2 <= sigma^2 * sum_i c_i^2. That holds for orthogonal example
gradients, but Cauchy-Schwarz gives only ||D||^2 <= n sigma^2 sum_i c_i^2, so
the bound does not guarantee descent. `safe_step_size` still follows the
paper's form. Neither L nor sigma is available in closed form for an MLP, so
a `RegularityEstimate` holds one fixed recipe's estimates of the two:
`smoothness` from 60 probes, `grad_bound` over the whole training set. Both
are lower bounds, which is why `safe_step_size` divides the bound by SAFETY = 2.

The check therefore measures rather than proves: `run_descent_verification`
picks the step size from the estimates, refines them along its own trials,
and records G before and after every step of the accepted trajectory. Its
`DescentRun.estimate` is the estimate that chose `alpha`, and
`DescentRun.violations` counts the requested steps that did not hold: a step
on which G rose by more than the class constant `DescentRun.tolerance`
(1e-9) or became NaN, and a step the trial never took because it stopped.
On MNIST-shaped two-class pairs that is a few percent of steps.

An objective is a callable model -> (G, flat gradient of G). The gradient
is a new array that the caller may overwrite, and the objective keeps
neither the model nor the array: `estimate_smoothness` reuses both.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, ImbalanceSpec, write_csv
from .errors import ConfigError, NonFiniteError
from .nn import (
    Batch,
    MLPModel,
    backward_per_example,
    dot_with_each,
    forward,
    layer_views,
    sgd_step,
    weighted_gradient,
)
from .trainer import TrainConfig, validation_loss_and_grad

# The descent check's fixed settings.
ALPHA_CAP = 0.1  # largest step size safe_step_size returns
SAFETY = 2.0  # divides the paper's bound, since L-hat and sigma-hat are lower bounds
ACTIVATION = "relu"
PROBE_RADIUS = 1e-3  # distance of each smoothness probe from the model
RESTARTS = 4  # random directions the smoothness probes power-iterate from
PROBES_PER_RESTART = 15  # power-iteration probes along each of them
MAX_ATTEMPTS = 10  # trials before the last one is returned unconfirmed
CHECKPOINTS = 20  # horizons in a rate report
PAIR = ImbalanceSpec(ratio=1, total=510)  # the balanced 4-vs-9 pair of the MNIST descent check
VAL_PER_CLASS = 5  # clean validation images per class taken from the pair


def validation_objective(images: np.ndarray, labels: np.ndarray):
    """Objective G(model) = mean loss on a fixed clean set.

    Returns a callable model -> (value, flat gradient), the set built into
    one batch once.
    """
    batch = Batch(images, labels)
    return lambda model: validation_loss_and_grad(model, batch)


def estimate_smoothness(model: MLPModel, objective, rng: np.random.Generator) -> float:
    """Largest observed ||grad G(a) - grad G(b)|| / ||a - b|| near the model.

    Every probe measures a secant ratio, which lower-bounds any true Lipschitz
    constant of grad G. Probing purely random directions is not enough: in a
    space with hundreds of thousands of parameters a random direction sees the
    average curvature, which sits far below the top eigenvalue that controls
    step-size safety. Each of the RESTARTS restarts therefore draws one random
    direction and power-iterates PROBES_PER_RESTART times, re-probing along the
    previous gradient difference so the direction climbs toward the dominant
    curvature; the estimate is the largest ratio seen anywhere.
    """
    theta = model.flatten()
    _, g0 = objective(model)
    # Every probe point theta + PROBE_RADIUS * d goes into one buffer, which
    # the probe model's layers view; the difference and the next direction
    # are computed in the gradient the objective has just handed over.
    probe = np.empty_like(theta)
    probe_model = MLPModel(layer_views(probe, [w.shape for w in model.layers]), model.activation)
    best = 0.0
    for _ in range(RESTARTS):
        d = rng.standard_normal(theta.size)
        d /= np.linalg.norm(d)
        for _ in range(PROBES_PER_RESTART):
            np.multiply(d, PROBE_RADIUS, out=probe)
            probe += theta
            _, diff = objective(probe_model)
            diff -= g0
            norm = np.linalg.norm(diff)
            ratio = float(norm) / PROBE_RADIUS
            best = max(best, ratio)
            if ratio == 0.0 or not np.isfinite(ratio):
                break
            diff /= norm
            d = diff
    return best


def estimate_grad_bound(model: MLPModel, ds: Dataset) -> float:
    """Largest per-example gradient norm over the whole dataset."""
    if len(ds) == 0:
        raise ConfigError("cannot estimate gradient bound on an empty dataset")
    batch = Batch(ds.images[:], ds.labels)
    grads = backward_per_example(model, forward(model, batch), batch)
    return float(np.sqrt(grads.norms_squared().max()))


@dataclass
class RegularityEstimate:
    """Measured stand-ins for the smoothness L and the gradient bound sigma.

    Both are lower bounds: the true constants may be larger."""

    smoothness: float
    grad_bound: float


def estimate_regularity(
    model: MLPModel, train_ds: Dataset, objective, rng: np.random.Generator
) -> RegularityEstimate:
    return RegularityEstimate(
        estimate_smoothness(model, objective, rng), estimate_grad_bound(model, train_ds)
    )


def safe_step_size(batch_size: int, estimate: RegularityEstimate) -> float:
    """Step size meeting alpha <= 2 n / (L sigma^2) with a safety factor, capped.

    With SAFETY = 2 this evaluates to n / (L_hat sigma_hat^2), compensating
    for the estimates being lower bounds; it never exceeds ALPHA_CAP.
    """
    denom = estimate.smoothness * estimate.grad_bound**2
    if denom <= 0:
        return ALPHA_CAP
    return min(2.0 * batch_size / (SAFETY * denom), ALPHA_CAP)


@dataclass
class DescentEntry:
    step: int
    g_before: float
    g_after: float
    grad_norm_sq: float
    align_sq: float  # sum of squared rectified alignments, the T_t statistic


@dataclass
class DescentRun:
    trace: list[DescentEntry]
    model: MLPModel
    alpha: float
    estimate: RegularityEstimate  # the one that chose alpha
    steps: int  # the steps asked for; the trace is shorter if the trial stopped
    tolerance = 1e-9  # a class constant, not a field: the rise G may take on a step

    @property
    def violations(self) -> int:
        """Requested steps that did not hold: G rose past g_before + tolerance
        or became NaN, or the trial stopped before taking the step."""
        held = sum(e.g_after <= e.g_before + self.tolerance for e in self.trace)
        return self.steps - held


def _descent_trial(
    model: MLPModel,
    batches,
    objective,
    alpha: float,
) -> tuple[MLPModel, list[DescentEntry], RegularityEstimate]:
    """Run one fixed-step trial, harvesting regularity probes as it goes.

    batches is any iterable of Batch, read once in order. Each step is the
    rectified unnormalized update of the module docstring, so a batch with
    no example aligned with grad G leaves the parameters unchanged. Every
    executed segment (theta_t, theta_{t+1}) doubles as a Lipschitz probe
    pair for grad G, and every batch contributes per-example gradient norms.
    Returns (final model, trace, RegularityEstimate of the largest segment
    ratio and gradient norm). The trial stops early if G blows up or leaves
    float range; its probes up to there are what force a smaller step next time.
    """
    g_val, grad_g = objective(model)
    ceiling = 10.0 * max(g_val, 1.0)
    trace: list[DescentEntry] = []
    seg_ratio = 0.0
    grad_norm = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as in a training step
        for t, batch in enumerate(batches):
            n = len(batch)
            try:
                grads = backward_per_example(model, forward(model, batch), batch)
                grad_norm = max(grad_norm, float(np.sqrt(grads.norms_squared().max())))
                coef = np.maximum(dot_with_each(grads, grad_g), 0.0)
                direction = weighted_gradient(grads, coef)
                step_len = (alpha / n) * float(np.linalg.norm(direction))
                stepped = sgd_step(model, direction, alpha / n)  # takes over direction
                g_next, grad_next = objective(stepped)
            except NonFiniteError:
                break
            trace.append(
                DescentEntry(
                    step=t,
                    g_before=g_val,
                    g_after=g_next,
                    grad_norm_sq=float(grad_g @ grad_g),
                    align_sq=float(coef @ coef),
                )
            )
            if step_len > 0:
                # grad_g is not read again: the segment difference goes into it.
                diff = np.subtract(grad_next, grad_g, out=grad_g)
                seg_ratio = max(seg_ratio, float(np.linalg.norm(diff)) / step_len)
            model, g_val, grad_g = stepped, g_next, grad_next
            if not np.isfinite(g_val) or g_val > ceiling:
                break
    return model, trace, RegularityEstimate(seg_ratio, grad_norm)


def run_descent_verification(
    train_ds: Dataset,
    val_ds: Dataset,
    steps: int = 1000,
    batch_size: int = 100,
    seed: int = 0,
    hidden_sizes: tuple[int, ...] = TrainConfig.hidden_sizes,
) -> DescentRun:
    """Pick a step size the estimated constants justify, then verify that G is
    monotonically nonincreasing along the whole trajectory.

    Constants estimated only at the starting point routinely undershoot what
    the trajectory encounters, and an undershot L or sigma inflates the step
    bound enough to break descent. So the estimates are refined to
    self-consistency: each trial replays the same batch sequence from the same
    initialization, the segments and batches of the trial feed back into L-hat
    and sigma-hat, and the run is accepted when a trial, whole or stopped
    short, adds nothing to either estimate: the constants that chose the step
    size held everywhere the run went, and another trial would replay it
    exactly. Estimates only grow, so the step size shrinks monotonically;
    after MAX_ATTEMPTS trials the last one is returned as it is. The
    starting estimate takes RESTARTS * PROBES_PER_RESTART smoothness probes
    and the largest gradient norm over the whole training set.

    Only the index draws are kept; each trial builds its batches as it
    reaches them, so memory does not grow with steps.
    """
    if len(train_ds) == 0:
        raise ConfigError("descent verification needs a training set")
    if len(val_ds) == 0:
        raise ConfigError("descent verification needs a validation set")
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    rng = np.random.default_rng(seed)
    num_classes = int(max(train_ds.labels.max(), val_ds.labels.max())) + 1
    model0 = MLPModel.init(
        [train_ds.images.shape[1], *hidden_sizes, num_classes], activation=ACTIVATION, rng=rng
    )
    objective = validation_objective(val_ds.images[:], val_ds.labels)
    estimate = estimate_regularity(model0, train_ds, objective, rng)

    n_pool = len(train_ds)
    draws = [rng.choice(n_pool, size=batch_size, replace=n_pool < batch_size) for _ in range(steps)]
    for attempt in range(1, MAX_ATTEMPTS + 1):
        alpha = safe_step_size(batch_size, estimate)
        batches = (Batch(train_ds.images[idx], train_ds.labels[idx]) for idx in draws)
        model, trace, seen = _descent_trial(model0, batches, objective, alpha)
        merged = RegularityEstimate(
            max(estimate.smoothness, seen.smoothness), max(estimate.grad_bound, seen.grad_bound)
        )
        if merged == estimate or attempt == MAX_ATTEMPTS:
            return DescentRun(trace=trace, model=model, alpha=alpha, estimate=estimate, steps=steps)
        estimate = merged


@dataclass
class RateRow:
    horizon: int
    min_grad_norm_sq: float
    envelope: float


def rate_report(trace: list[DescentEntry]) -> list[RateRow]:
    """Running minimum of ||grad G||^2 at up to CHECKPOINTS log-spaced horizons.

    The envelope column is C / sqrt(T) with C calibrated at the first
    checkpoint; it is descriptive, giving the reader the reference slope for
    the expected decay rate rather than a bound that is asserted.
    """
    if not trace:
        raise ValueError("empty trace")
    total = len(trace)
    marks = np.unique(
        np.geomspace(1, total, num=min(CHECKPOINTS, total)).round().astype(int)
    )
    norms = np.array([e.grad_norm_sq for e in trace])
    running = np.minimum.accumulate(norms)
    first = running[marks[0] - 1]
    c = first * np.sqrt(marks[0])
    return [
        RateRow(
            horizon=int(t),
            min_grad_norm_sq=float(running[t - 1]),
            envelope=float(c / np.sqrt(t)),
        )
        for t in marks
    ]


def write_descent_csv(trace: list[DescentEntry], path: str) -> None:
    rows = ((e.step, e.g_before, e.grad_norm_sq, e.align_sq) for e in trace)
    write_csv(path, ["step", "G", "grad_norm_sq", "T_t"], rows)


def write_rate_csv(rows: list[RateRow], path: str) -> None:
    cells = ((r.horizon, r.min_grad_norm_sq, r.envelope) for r in rows)
    write_csv(path, ["T", "min_grad_norm_sq", "envelope"], cells)
