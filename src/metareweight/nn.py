"""Dense numeric core: small MLP classifiers with per-example gradient access.

Everything is float64 numpy. Each layer matrix has shape (d_in + 1, d_out);
the extra row is the bias, driven by a constant-1 column appended to the
layer input. Models are treated as immutable: operations that change
parameters return a new model, so a lookahead step and the committed step
can share the same base parameters.

Per-example gradients are kept in factored form. For example i and layer l
the gradient of loss_i with respect to that layer is the outer product
inputs[l][i] (x) signals[l][i], so a batch of n full gradients costs
O(n * (d_in + d_out)) memory instead of O(n * d_in * d_out).

A gradient is one flat float64 vector of param_count entries, the layers
laid out one after another in row-major order. `weighted_gradient` writes
each layer's product straight into its slice of a new vector and returns
the vector, so a norm or a dot over all parameters reads it as it is.
`sgd_step` takes the vector over: it scales it in place, adds the current
parameters through `layer_views`, and those views become the new model's
layers. `MLPModel.flatten` is the one place parameters are copied into a
flat vector.

Rectified weights max(u, 0) are often exactly zero (60-75% of a batch on a
200:1 imbalance), so `weighted_gradient` multiplies only the rows whose
weight is nonzero. A dropped row would only have added +-0 to each sum, so
the gradient is bitwise the one over the whole batch; when a dropped row
holds a non-finite input or signal, the whole batch is used, so the
non-finite value still reaches `sgd_step`'s check.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains non-finite values")


def layer_views(flat: np.ndarray, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
    """Consecutive row-major views of a flat vector, one per shape; no copy."""
    total = sum(p * q for p, q in shapes)
    if flat.shape != (total,):
        raise DimensionError(f"flat vector has shape {flat.shape}, the shapes need ({total},)")
    views = []
    offset = 0
    for p, q in shapes:
        views.append(flat[offset : offset + p * q].reshape(p, q))
        offset += p * q
    return views


def _with_ones_column(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """An (n, d + 1) float64 buffer whose last column is 1, and a view of its first d."""
    out = np.empty((n, d + 1), dtype=np.float64)
    out[:, d] = 1.0
    return out, out[:, :d]


@dataclass
class Batch:
    """A mini-batch of examples: float64 inputs (n, d) and integer labels (n,).

    uint8 inputs are pixel bytes: they become byte / 255.0, other dtypes stay
    unscaled and must be finite. Built once, in one pass, into `augmented`,
    the (n, d + 1) layer-0 input with its constant-1 column; `inputs` is a
    view of its first d columns."""

    inputs: np.ndarray
    labels: np.ndarray
    augmented: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        raw = np.asarray(self.inputs)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if raw.ndim != 2:
            raise DimensionError(f"batch inputs must be 2-d, got shape {raw.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != raw.shape[0]:
            raise DimensionError(
                f"batch labels shape {self.labels.shape} does not match {raw.shape[0]} inputs"
            )
        if raw.shape[0] == 0:
            raise DimensionError("batch must contain at least one example")
        self.augmented, self.inputs = _with_ones_column(*raw.shape)
        if raw.dtype == np.uint8:
            np.divide(raw, 255.0, out=self.inputs, dtype=np.float64)
        else:
            self.inputs[...] = raw
            _check_finite("batch inputs", self.inputs)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass
class MLPModel:
    """Fully connected classifier. layers[l] has shape (d_{l-1} + 1, d_l)."""

    layers: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise DimensionError(f"unknown activation {self.activation!r}")
        if not self.layers:
            raise DimensionError("model needs at least one layer")
        self.layers = [np.asarray(w, dtype=np.float64) for w in self.layers]
        for l, w in enumerate(self.layers):
            if w.ndim != 2:
                raise DimensionError(f"layer {l} must be a matrix, got shape {w.shape}")
            if l > 0 and w.shape[0] != self.layers[l - 1].shape[1] + 1:
                raise DimensionError(
                    f"layer {l} expects {w.shape[0] - 1} inputs but layer {l - 1} "
                    f"produces {self.layers[l - 1].shape[1]}"
                )

    @classmethod
    def init(cls, sizes: list[int], activation: str = "relu", rng=None) -> "MLPModel":
        """Glorot-uniform weights, zero biases. sizes = [d_in, hidden..., classes].

        rng=None draws from a fresh generator seeded 0."""
        if len(sizes) < 2:
            raise DimensionError("need at least input and output sizes")
        rng = np.random.default_rng(0) if rng is None else rng
        layers = []
        for d_in, d_out in zip(sizes[:-1], sizes[1:]):
            limit = math.sqrt(6.0 / (d_in + d_out))
            w = rng.uniform(-limit, limit, size=(d_in, d_out))
            layers.append(np.vstack([w, np.zeros((1, d_out))]))
        return cls(layers=layers, activation=activation)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].shape[0] - 1

    @property
    def num_classes(self) -> int:
        return self.layers[-1].shape[1]

    @property
    def param_count(self) -> int:
        return sum(w.size for w in self.layers)

    def flatten(self) -> np.ndarray:
        """The parameters as a new flat vector, never memory of the layers."""
        return np.concatenate([w.ravel() for w in self.layers])


@dataclass
class ForwardCache:
    """Everything the forward pass saw, kept for the backward pass.

    post[l]: input actually fed to layer l, shape (n, d_{l-1} + 1), ones column
    included. post[0] is the augmented batch input.
    """

    post: list[np.ndarray]
    logits: np.ndarray
    probs: np.ndarray
    losses: np.ndarray


@dataclass
class PerExampleGrads:
    """Per-example loss gradients in factored (input, signal) form.

    inputs[l][i] is the layer-l input row for example i (bias column included),
    signals[l][i] is d loss_i / d preactivation_l. The full gradient of
    loss_i w.r.t. layer l is outer(inputs[l][i], signals[l][i]).
    """

    inputs: list[np.ndarray]
    signals: list[np.ndarray]

    def __post_init__(self):
        if len(self.inputs) != len(self.signals):
            raise DimensionError("inputs and signals must have one entry per layer")

    @property
    def count(self) -> int:
        return self.signals[0].shape[0]

    def layer_shapes(self) -> list[tuple[int, int]]:
        return [(z.shape[1], g.shape[1]) for z, g in zip(self.inputs, self.signals)]

    def norms_squared(self) -> np.ndarray:
        """Squared L2 norm of each example's gradient, via the rank-1 structure."""
        total = np.zeros(self.count)
        for z, g in zip(self.inputs, self.signals):
            total += (z * z).sum(axis=1) * (g * g).sum(axis=1)
        return total


# (activation f(z, out) writing into out, its derivative from f's output).
# For relu the subgradient at exactly 0 is taken as 0.
_ACTIVATIONS = {
    "relu": (lambda z, out: np.maximum(z, 0.0, out=out), lambda a: (a > 0.0).astype(np.float64)),
    "tanh": (lambda z, out: np.tanh(z, out=out), lambda a: 1.0 - a * a),
    "sigmoid": (lambda z, out: np.divide(1.0, 1.0 + np.exp(-z), out=out), lambda a: a * (1.0 - a)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


def forward(model: MLPModel, batch: Batch) -> ForwardCache:
    """Forward pass with per-example softmax cross-entropy losses."""
    if batch.inputs.shape[1] != model.input_dim:
        raise DimensionError(
            f"batch has {batch.inputs.shape[1]} features, model expects {model.input_dim}"
        )
    k = model.num_classes
    if batch.labels.min() < 0 or batch.labels.max() >= k:
        raise DimensionError(f"labels must lie in [0, {k})")

    act = _ACTIVATIONS[model.activation][0]
    n = len(batch)
    post = [batch.augmented]
    last = model.num_layers - 1
    for l, w in enumerate(model.layers):
        z = post[-1] @ w
        if l < last:
            a, hidden = _with_ones_column(n, z.shape[1])
            act(z, hidden)
            post.append(a)

    logits = z
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1)
    log_total = np.log(total)
    losses = log_total - shifted[np.arange(n), batch.labels]
    probs = exp / total[:, None]
    return ForwardCache(post=post, logits=logits, probs=probs, losses=losses)


def backward_per_example(model: MLPModel, cache: ForwardCache, batch: Batch) -> PerExampleGrads:
    """Backward pass keeping each example's gradient separate (no averaging)."""
    n = len(batch)
    g = cache.probs.copy()
    g[np.arange(n), batch.labels] -= 1.0

    signals: list[np.ndarray] = [np.empty(0)] * model.num_layers
    signals[-1] = g
    for l in range(model.num_layers - 2, -1, -1):
        # Propagate through layer l+1 weights, dropping the bias row, then
        # through the activation of layer l.
        inner = signals[l + 1] @ model.layers[l + 1][:-1].T
        post_act = cache.post[l + 1][:, :-1]
        signals[l] = inner * _ACTIVATIONS[model.activation][1](post_act)
    return PerExampleGrads(inputs=cache.post, signals=signals)


def weighted_gradient(grads: PerExampleGrads, weights: np.ndarray) -> np.ndarray:
    """Gradient of sum_i weights[i] * loss_i as a new flat (param_count,) vector.

    Examples whose weight is exactly 0.0 (or -0.0) are left out of every
    layer's product. The result is bitwise the one over all rows: each such
    row only adds z * (g * 0) = +-0 to a sum that starts at +0, which changes
    no bit, and with every weight zero the result is +0.0 everywhere. A
    negative or NaN weight is kept. If a zero-weight row holds a non-finite
    input or signal, all rows are used, so its NaN reaches the gradient (and
    `sgd_step` raises NonFiniteError) as it would without the skip."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (grads.count,):
        raise DimensionError(f"weights shape {w.shape} does not match {grads.count} examples")
    shapes = grads.layer_shapes()
    flat = np.empty(sum(p * q for p, q in shapes))
    inputs, signals = grads.inputs, grads.signals
    dropped = np.flatnonzero(w == 0.0)
    if dropped.size and all(np.isfinite(a[dropped]).all() for a in (*inputs, *signals)):
        kept = np.flatnonzero(w)
        inputs = [z[kept] for z in inputs]
        signals = [g[kept] for g in signals]
        w = w[kept]
    # Scale the signal factor rather than the input factor: signals have the
    # layer's output width, which is never wider than the augmented input.
    for z, g, out in zip(inputs, signals, layer_views(flat, shapes)):
        np.matmul(z.T, g * w[:, None], out=out)
    return flat


def dot_with_each(grads: PerExampleGrads, flat: np.ndarray) -> np.ndarray:
    """Vector of <grad_i, flat> for every example i, without materializing grads."""
    views = layer_views(np.asarray(flat, dtype=np.float64), grads.layer_shapes())
    out = np.zeros(grads.count)
    for v, z, g in zip(views, grads.inputs, grads.signals):
        out += ((z @ v) * g).sum(axis=1)
    return out


def sgd_step(model: MLPModel, grad: np.ndarray, alpha: float) -> MLPModel:
    """Return a new model with parameters theta - alpha * grad.

    Takes over grad, a flat (param_count,) vector as `weighted_gradient`
    returns it: a C-contiguous float64 vector is scaled in place and its
    layer views become the new model's layers, so the caller must not use
    it afterwards; any other array is copied first. The input model is left
    as it was."""
    grad = np.ascontiguousarray(grad, dtype=np.float64)
    layers = layer_views(grad, [w.shape for w in model.layers])
    if alpha < 0:
        raise ValueError("step size must be nonnegative")
    _check_finite("gradient", grad)
    grad *= -alpha
    for g, w in zip(layers, model.layers):
        g += w
    return MLPModel(layers, model.activation)
