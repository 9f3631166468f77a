"""Per-batch example weighting.

The main route scores each training example by how much a small step on it
alone would reduce the validation loss. Two equivalent computations are
provided: a closed form built from layerwise input/signal dot products, and
a literal one-step lookahead that perturbs the example weights, takes the
step, and differentiates the validation loss through it. The lookahead is
exact (not first order) because the stepped parameters are linear in the
perturbation under vanilla SGD.

Baselines: uniform, inverse class frequency, class-balanced resampling,
hard example mining, rectified random weights.
"""

import numpy as np

from .errors import ConfigError, DimensionError, NonFiniteError
from .nn import (
    Batch,
    MLPModel,
    PerExampleGrads,
    backward_per_example,
    dot_with_each,
    forward,
    sgd_step,
    weighted_gradient,
)


def meta_grad_closed_form(train: PerExampleGrads, val: PerExampleGrads) -> np.ndarray:
    """Alignment score of each training example with the mean validation gradient.

    u[i] = (1/m) * sum_j <grad f_i, grad f_j^val>, expanded layer by layer as
    (input_i . input_j) * (signal_i . signal_j) so the full gradients are never
    materialized. Bias components participate through the constant-1 input
    column. Positive u[i] means stepping on example i alone would reduce the
    mean validation loss.
    """
    if train.layer_shapes() != val.layer_shapes():
        raise DimensionError(
            f"train and validation gradients disagree on layer shapes: "
            f"{train.layer_shapes()} vs {val.layer_shapes()}"
        )
    n, m = train.count, val.count
    scores = np.zeros((n, m))
    for zt, gt, zv, gv in zip(train.inputs, train.signals, val.inputs, val.signals):
        scores += (zt @ zv.T) * (gt @ gv.T)
    return scores.sum(axis=1) / m


def meta_grad_lookahead(
    model: MLPModel,
    train_batch: Batch,
    val_batch: Batch,
    alpha: float,
    eps0: np.ndarray | None = None,
) -> np.ndarray:
    """Score examples by differentiating the validation loss through one step.

    The step theta_hat = theta - alpha * sum_i eps_i grad f_i(theta) is linear
    in eps, so d/d eps_i of the validation loss at theta_hat is exactly
    alpha * <grad f_i(theta), grad l_val(theta_hat)>. Returns u = minus that
    derivative, evaluated at the given eps0 (default all zeros, where
    theta_hat = theta and the result equals alpha times the closed form).
    `sgd_step` rejects a negative alpha and `weighted_gradient` an eps0 whose
    length is not the batch size.
    """
    if eps0 is None:
        eps0 = np.zeros(len(train_batch))
    train_grads = backward_per_example(model, forward(model, train_batch), train_batch)
    stepped = sgd_step(model, weighted_gradient(train_grads, eps0), alpha)
    val_grads = backward_per_example(stepped, forward(stepped, val_batch), val_batch)
    m = len(val_batch)
    return alpha * dot_with_each(train_grads, weighted_gradient(val_grads, np.full(m, 1.0 / m)))


def rectify_normalize(u: np.ndarray) -> np.ndarray:
    """Clip scores at zero and normalize to sum 1; an all-zero batch stays zero.

    The zero branch uses an exact comparison on purpose: only a batch whose
    every score is <= 0 yields a zero sum, and then skipping the step is the
    intended behavior rather than dividing by an epsilon.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.isfinite(u).all():
        raise NonFiniteError("weight scores contain non-finite values")
    clipped = np.maximum(u, 0.0)
    total = clipped.sum()
    if total == 0.0:
        return clipped
    return clipped / total


def random_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rectified standard normal draws, normalized; redraw if all are clipped."""
    if n < 1:
        raise ValueError("need at least one example")
    while True:
        z = rng.standard_normal(n)
        if (z > 0).any():
            break
    w = np.maximum(z, 0.0)
    return w / w.sum()


def proportion_weights(labels: np.ndarray, class_counts: np.ndarray) -> np.ndarray:
    """Inverse class frequency weights, normalized over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.asarray(class_counts, dtype=np.float64)
    if labels.min() < 0 or labels.max() >= counts.size:
        raise ConfigError("batch contains a label outside the class count table")
    c = counts[labels]
    if (c <= 0).any():
        bad = int(labels[np.argmin(c)])
        raise ConfigError(f"class {bad} has zero count; cannot take inverse frequency")
    w = 1.0 / c
    return w / w.sum()


def hard_mining_select(
    losses: np.ndarray, labels: np.ndarray, majority_class: int, k: int
) -> np.ndarray:
    """Indices of all minority examples plus the k highest-loss majority ones.

    Ties on loss keep the lower index. Returned indices are sorted.
    """
    losses = np.asarray(losses, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if losses.shape != labels.shape:
        raise DimensionError("losses and labels must align")
    maj = np.flatnonzero(labels == majority_class)
    if k < 0 or k > maj.size:
        raise ValueError(f"k={k} outside [0, {maj.size}] majority examples")
    order = np.argsort(-losses[maj], kind="stable")
    keep = maj[order[:k]]
    minority = np.flatnonzero(labels != majority_class)
    return np.sort(np.concatenate([minority, keep]))


def resample_indices(labels: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n indices: class uniform first, then uniform within the class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ConfigError("cannot resample from an empty label set")
    if n < 1:
        raise ValueError("need at least one draw")
    classes = np.unique(labels)
    members = [np.flatnonzero(labels == c) for c in classes]
    picks = rng.integers(0, classes.size, size=n)
    out = np.empty(n, dtype=np.int64)
    for ci, mem in enumerate(members):
        pos = np.flatnonzero(picks == ci)
        if pos.size:
            out[pos] = mem[rng.integers(0, mem.size, size=pos.size)]
    return out
