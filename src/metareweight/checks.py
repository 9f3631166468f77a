"""The oracle library: every property the package is checked against.

`metareweight verify` runs QUICK_CHECKS, and the test suite runs the same
functions by name, so each oracle, its inputs and its tolerance live here
only. Every check pits a fast implementation against an independent oracle:
a naive per-example loop, central finite differences, an explicit sort, a
materialized gradient, or a closed-form value, and returns (passed, detail).

The helpers only the oracles need live here as well: materialized flat
gradients, a model rebuilt from a flat vector, the two finite-difference
oracles and a quadratic objective with known curvature. One central-difference
rule with step FD_STEP serves both finite-difference oracles: over the
parameters for per-example gradients, over the example weights for the
meta-gradient. The runtime modules hold only what training and the descent
check run.
"""

import math
import os
from dataclasses import replace

import numpy as np

from . import reweight, theory
from .data import Dataset, ImbalanceSpec, load_idx, locate_mnist, make_imbalanced_pair, split_clean_validation
from .nn import (
    ACTIVATIONS,
    Batch,
    MLPModel,
    PerExampleGrads,
    backward_per_example,
    forward,
    layer_views,
    sgd_step,
    weighted_gradient,
)
from .trainer import TrainConfig, train

FD_STEP = 1e-5  # central-difference step of both finite-difference oracles

_ACT_SCALAR = {
    "relu": lambda v: v if v > 0 else 0.0,
    "tanh": math.tanh,
    "sigmoid": lambda v: 1.0 / (1.0 + math.exp(-v)),
}


def random_model(rng, sizes, activation="relu", bias_scale=0.0) -> MLPModel:
    """Glorot-initialized model; biases are drawn at bias_scale when it is nonzero."""
    model = MLPModel.init(sizes, activation=activation, rng=rng)
    if bias_scale:
        for w in model.layers:
            w[-1, :] = bias_scale * rng.standard_normal(w.shape[1])
    return model


def random_batch(rng, n, d, k) -> Batch:
    """n inputs uniform in [0, 1)^d, labels uniform over k classes."""
    return Batch(rng.random((n, d)), rng.integers(0, k, size=n))


def _seeded(seed, sizes, activation, bias_scale, *batch_sizes):
    """(rng, model, *batches): a model and batches drawn after it from one seeded generator."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, sizes, activation, bias_scale)
    return (rng, model, *[random_batch(rng, n, sizes[0], sizes[-1]) for n in batch_sizes])


def _grads(model, batch):
    return backward_per_example(model, forward(model, batch), batch)


def _fd_err(got, fd) -> float:
    """Largest deviation from a finite-difference value, relative to 1 + |fd|."""
    return float((np.abs(got - fd) / (1.0 + np.abs(fd))).max())


def flat_grads(grads: PerExampleGrads) -> np.ndarray:
    """Every example's gradient materialized as a row: shape (n, param_count)."""
    parts = [
        np.einsum("np,nq->npq", z, g).reshape(grads.count, -1)
        for z, g in zip(grads.inputs, grads.signals)
    ]
    return np.concatenate(parts, axis=1)


def with_params(model: MLPModel, flat: np.ndarray) -> MLPModel:
    """A model of the same shape built from a copy of a flat parameter vector."""
    flat = np.array(flat, dtype=np.float64)
    return MLPModel(layer_views(flat, [w.shape for w in model.layers]), model.activation)


def _central_diff(f, x: np.ndarray) -> np.ndarray:
    """g[k] = (f(x + h e_k) - f(x - h e_k)) / (2h) with h = FD_STEP, for every
    coordinate k of x: 2 * x.size evaluations of f."""
    g = np.empty_like(x)
    for k in range(x.size):
        plus = x.copy()
        plus[k] += FD_STEP
        minus = x.copy()
        minus[k] -= FD_STEP
        g[k] = (f(plus) - f(minus)) / (2.0 * FD_STEP)
    return g


def finite_diff_grad(model: MLPModel, evaluator) -> np.ndarray:
    """Central-difference gradient of evaluator(model) over all parameters."""
    return _central_diff(lambda theta: evaluator(with_params(model, theta)), model.flatten())


def fd_meta_gradient(
    model: MLPModel,
    train_batch: Batch,
    val_batch: Batch,
    alpha: float,
    eps0: np.ndarray | None = None,
) -> np.ndarray:
    """Finite-difference oracle for the lookahead scores.

    Perturbs each example's epsilon by +-FD_STEP, takes the actual SGD step,
    and returns minus the central difference of the validation loss. Slow by
    design; used to cross-check the analytic routes.
    """
    if eps0 is None:
        eps0 = np.zeros(len(train_batch))
    grads = _grads(model, train_batch)

    def val_loss_after(eps: np.ndarray) -> float:
        stepped = sgd_step(model, weighted_gradient(grads, eps), alpha)
        return float(forward(stepped, val_batch).losses.mean())

    return -_central_diff(val_loss_after, np.asarray(eps0, dtype=np.float64))


def quadratic_surrogate(curvature: float):
    """Objective G(model) = curvature/2 * ||theta||^2, whose smoothness L is
    exactly curvature."""

    def objective(model: MLPModel) -> tuple[float, np.ndarray]:
        theta = model.flatten()
        return 0.5 * curvature * float(theta @ theta), curvature * theta

    return objective


def _per_activation(worst: dict) -> str:
    return ", ".join(f"{a} {v:.2e}" for a, v in worst.items())


def _naive_loss_probs(model: MLPModel, x, label):
    """Pure-python forward pass for one example; the reference for `forward`."""
    act = _ACT_SCALAR[model.activation]
    a = [float(v) for v in x]
    z = []
    for l, w in enumerate(model.layers):
        a = a + [1.0]
        z = [sum(a[p] * w[p, q] for p in range(len(a))) for q in range(w.shape[1])]
        if l < len(model.layers) - 1:
            a = [act(v) for v in z]
    mx = max(z)
    exps = [math.exp(v - mx) for v in z]
    total = sum(exps)
    return math.log(total) - (z[label] - mx), [e / total for e in exps]


def check_forward_reference():
    cases = [
        (seed, sizes, activation, bias, n)
        for seed, sizes, bias, n in ((7, [6, 5, 4], 0.3, 8), (3, [7, 5, 4], 0.4, 9))
        for activation in ACTIVATIONS
    ] + [(4, [5, 6, 4, 3], "tanh", 0.2, 4)]
    worst = dict.fromkeys(ACTIVATIONS, 0.0)
    for seed, sizes, activation, bias, n in cases:
        _, model, batch = _seeded(seed, sizes, activation, bias, n)
        cache = forward(model, batch)
        for i in range(n):
            loss, probs = _naive_loss_probs(model, batch.inputs[i], int(batch.labels[i]))
            dev = max(abs(float(cache.losses[i]) - loss), float(np.abs(cache.probs[i] - probs).max()))
            worst[activation] = max(worst[activation], dev)
    return max(worst.values()) <= 1e-12, (
        f"max abs loss/probability deviation {_per_activation(worst)} (<=1e-12)"
    )


def check_per_example_gradients():
    cases = [
        (seed, [6, 5, 3], activation, bias, n)
        for seed, bias, n in ((11, 0.2, 4), (8, 0.3, 5))
        for activation in ACTIVATIONS
    ] + [(200 + t, [5, 8, 2 + t % 4], ACTIVATIONS[t % 3], 0.0, 4) for t in range(20)]
    worst = dict.fromkeys(ACTIVATIONS, 0.0)
    for seed, sizes, activation, bias, n in cases:
        _, model, batch = _seeded(seed, sizes, activation, bias, n)
        flats = flat_grads(_grads(model, batch))
        for i in range(n):
            fd = finite_diff_grad(model, lambda m, i=i: float(forward(m, batch).losses[i]))
            worst[activation] = max(worst[activation], _fd_err(flats[i], fd))
    # The weighted sum of them that a training step applies.
    rng, model, batch = _seeded(15, [5, 4, 2], "tanh", 0.1, 4)
    w = rng.random(4)
    fd = finite_diff_grad(model, lambda m: float(w @ forward(m, batch).losses))
    weighted = weighted_gradient(_grads(model, batch), w)
    worst["tanh"] = max(worst["tanh"], _fd_err(weighted, fd))
    return max(worst.values()) <= 1e-6, (
        f"max relative deviation from finite differences {_per_activation(worst)} (<=1e-6)"
    )


def check_closed_form_vs_flat():
    problems = [_seeded(17, [6, 5, 3], "relu", 0.2, 8, 4)[1:]]
    problems += [_seeded(30, [6, 5, 3], a, 0.3, 8, 4)[1:] for a in ACTIVATIONS]
    # One example scored against itself: its score is its squared gradient norm, > 0.
    _, solo_model, solo = _seeded(31, [5, 4, 2], "tanh", 0.2, 1)
    problems.append((solo_model, solo, solo))
    worst = 0.0
    for model, tb, vb in problems:
        tg, vg = _grads(model, tb), _grads(model, vb)
        u = reweight.meta_grad_closed_form(tg, vg)
        u_ref = (flat_grads(tg) @ flat_grads(vg).T).mean(axis=1)
        worst = max(worst, float(np.abs(u - u_ref).max()))
    g = _grads(solo_model, solo)
    (self_alignment,) = reweight.meta_grad_closed_form(g, g)
    if not self_alignment > 0:
        return False, f"self-alignment {self_alignment} is not positive"
    return worst <= 1e-12, f"max abs deviation from materialized form {worst:.2e} (<=1e-12)"


def _chain_trials():
    """Twenty random scoring problems (model, train batch, val batch, alpha)."""
    for t in range(20):
        rng, model, tb, vb = _seeded(100 + t, [6, 32, 2 + t % 9], ACTIVATIONS[t % 3], 0.0, 8, 4)
        yield model, tb, vb, float(10.0 ** rng.uniform(-3, -1))


def check_lookahead_matches_closed_form():
    problems = [(model, tb, vb, (alpha,)) for model, tb, vb, alpha in _chain_trials()]
    problems.append((*_seeded(19, [6, 5, 3], "tanh", 0.2, 8, 4)[1:], (0.05,)))
    problems += [(*_seeded(33, [6, 5, 3], a, 0.2, 8, 4)[1:], (1e-3, 0.05, 0.7)) for a in ACTIVATIONS]
    # Exact at any alpha, so lookahead / alpha cannot depend on alpha.
    problems.append((*_seeded(36, [5, 4, 2], "relu", 0.1, 5, 3)[1:], (1e-3, 1e-6)))
    worst = 0.0
    for model, tb, vb, alphas in problems:
        closed = reweight.meta_grad_closed_form(_grads(model, tb), _grads(model, vb))
        for alpha in alphas:
            look = reweight.meta_grad_lookahead(model, tb, vb, alpha)
            gap = np.abs(look - alpha * closed).max() / (np.abs(alpha * closed).max() + 1e-300)
            worst = max(worst, float(gap))
    return worst <= 1e-10, f"relative gap between routes {worst:.2e} (<=1e-10)"


def check_meta_gradient_finite_differences():
    worst = 0.0
    for model, tb, vb, alpha in _chain_trials():
        fd = fd_meta_gradient(model, tb, vb, alpha)
        closed = reweight.meta_grad_closed_form(_grads(model, tb), _grads(model, vb))
        look = reweight.meta_grad_lookahead(model, tb, vb, alpha)
        worst = max(worst, _fd_err(alpha * closed, fd), _fd_err(look, fd))
    # Away from eps = 0 and at a coarse step only the lookahead route applies.
    problems = []
    _, model, tb, vb = _seeded(23, [6, 5, 3], "sigmoid", 0.2, 6, 4)
    problems += [(model, tb, vb, 0.05, eps0) for eps0 in (None, np.full(6, 1.0 / 6))]
    rng, model, tb, vb = _seeded(34, [6, 5, 3], "tanh", 0.2, 6, 4)
    problems += [(model, tb, vb, 0.05, eps0) for eps0 in (None, np.full(6, 1.0 / 6), rng.random(6))]
    rng, model, tb, vb = _seeded(35, [5, 4, 2], "sigmoid", 0.3, 5, 3)
    problems.append((model, tb, vb, 2.0, rng.random(5)))
    for model, tb, vb, alpha, eps0 in problems:
        u = reweight.meta_grad_lookahead(model, tb, vb, alpha, eps0=eps0)
        worst = max(worst, _fd_err(u, fd_meta_gradient(model, tb, vb, alpha, eps0=eps0)))
    return worst <= 1e-4, f"max relative deviation from finite differences {worst:.2e} (<=1e-4)"


# Score vectors of 1 to 39 entries, in turn: signed, all nonpositive, all
# zero, positive at scales 10^-8..10^8, and signed at scales 10^-12..10^8.
_SCORE_STYLES = (
    lambda rng, n: rng.standard_normal(n),
    lambda rng, n: -np.abs(rng.standard_normal(n)),
    lambda rng, n: np.zeros(n),
    lambda rng, n: np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-8, 9),
    lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-12, 9),
)


def check_rectified_normalization():
    for u, want in (
        (np.array([-3.0, 0.0, -1e-300]), np.zeros(3)),
        (np.array([-1.0, 1e-12, -5.0]), np.array([0.0, 1.0, 0.0])),
    ):
        if not np.array_equal(reweight.rectify_normalize(u), want):
            return False, f"scores {u} did not give weights {want}"
    worst_sum = 0.0
    zero_vectors = 0
    rng = np.random.default_rng(31)
    for t in range(20_000):
        u = _SCORE_STYLES[t % 5](rng, int(rng.integers(1, 40)))
        w = reweight.rectify_normalize(u)
        if (w < 0).any():
            return False, "negative weight"
        if np.any((u <= 0) & (w != 0)):
            return False, "nonpositive score got positive weight"
        if (u > 0).any():
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        elif np.array_equal(w, np.zeros(u.size)):
            zero_vectors += 1
        else:
            return False, f"all-nonpositive batch got weights {w}"
    return worst_sum <= 1e-12, (
        f"20000 vectors ({zero_vectors} all-zero), sum error {worst_sum:.2e} (<=1e-12)"
    )


def check_scale_invariance():
    rng = np.random.default_rng(37)
    worst = 0.0
    for t in range(10_000):
        u = _SCORE_STYLES[t % 5](rng, int(rng.integers(1, 40)))
        base = reweight.rectify_normalize(u)
        for c in (1e-8, 3.7, 1e8, float(10.0 ** rng.uniform(-6, 6))):
            worst = max(worst, float(np.abs(reweight.rectify_normalize(c * u) - base).max()))
    return worst <= 1e-12, f"max deviation under positive scaling {worst:.2e} (<=1e-12)"


def check_sign_semantics():
    """Same input with the validation label helps; with the wrong label hurts."""
    rng = np.random.default_rng(41)
    model = random_model(rng, [4, 2], "relu")  # single layer: exact sign argument
    x = rng.random(4)
    vb = Batch(x[None, :], np.array([0]))
    tb = Batch(np.stack([x, x]), np.array([0, 1]))
    u = reweight.meta_grad_closed_form(_grads(model, tb), _grads(model, vb))
    if not (u[0] > 0 and u[1] < 0):
        return False, f"expected (+, -) scores, got {u}"
    w = reweight.rectify_normalize(u)
    if not (w[0] == 1.0 and w[1] == 0.0):
        return False, f"expected weights (1, 0), got {w}"
    return True, ""


def check_random_weights_distribution():
    # A seed whose first 3-draw is all negative exercises the redraw loop.
    seed = next(s for s in range(1000) if (np.random.default_rng(s).standard_normal(3) <= 0).all())
    draws = [reweight.random_weights(3, np.random.default_rng(seed))]
    for seed in (43, 42):
        rng = np.random.default_rng(seed)
        draws += [reweight.random_weights(5, rng) for _ in range(2000)]
    for w in draws:
        if abs(w.sum() - 1.0) > 1e-12 or (w < 0).any():
            return False, "weights not a rectified normalized draw"
    frac = float(np.mean([w == 0 for w in draws[1:]]))
    return abs(frac - 0.5) <= 0.05, f"clipped fraction {frac:.3f} (0.5 +- 0.05)"


def check_resampling_balance():
    worst = 0.0
    for seed, counts, draws in ((47, [990, 10], 10000), (44, [990, 10], 10000), (45, [500, 30, 5], 9000)):
        labels = np.repeat(np.arange(len(counts)), counts)
        idx = reweight.resample_indices(labels, draws, np.random.default_rng(seed))
        freqs = np.bincount(labels[idx], minlength=len(counts)) / draws
        worst = max(worst, float(np.abs(freqs - 1.0 / len(counts)).max()))
    return worst <= 0.02, f"largest class frequency gap from uniform {worst:.3f} (<=0.02)"


def check_hard_mining_matches_sort():
    for seed, trials in ((53, 200), (43, 300)):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            n = int(rng.integers(3, 20))
            losses = rng.integers(0, 4, size=n).astype(np.float64)  # force ties
            labels = rng.integers(0, 2, size=n)
            maj = [i for i in range(n) if labels[i] == 1]
            k = int(rng.integers(0, len(maj) + 1))
            got = reweight.hard_mining_select(losses, labels, 1, k)
            ranked = sorted(maj, key=lambda i: (-losses[i], i))[:k]
            want = sorted([i for i in range(n) if labels[i] != 1] + ranked)
            if list(got) != want:
                return False, f"selection {list(got)} != oracle {want}"
    return True, ""


def check_step_work_budget():
    # Counted passes do not depend on the data, only on the batch sizes.
    rng = np.random.default_rng(59)
    pool = Dataset(rng.random((160, 6)), rng.integers(0, 2, size=160))
    sets = (pool.subset(np.arange(120)), pool.subset(np.arange(120, 140)), pool.subset(np.arange(140, 160)))
    parts = []
    worst = 0.0
    for config in (
        TrainConfig(batch_size_train=16, batch_size_val=8, total_steps=200, eval_every=200, hidden_sizes=(16,)),
        TrainConfig(batch_size_train=10, batch_size_val=4, total_steps=30, eval_every=30, hidden_sizes=(8,),
                    include_val_in_train=False),
    ):
        meta, uni = (
            2 * train(replace(config, strategy=s), *sets).examples / config.total_steps
            for s in ("meta_reweight", "uniform")
        )
        worst = max(worst, meta / uni)
        parts.append(f"meta {meta:.0f}, uniform {uni:.0f}, ratio {meta / uni:.2f}")
    return worst <= 3.0, f"counted example passes per step: {'; '.join(parts)} (<=3)"


def check_descent_step_properties():
    # One step of a trial is the materialized rectified unnormalized update.
    _, model, batch, val = _seeded(73, [5, 4, 3], "sigmoid", 0.3, 8, 5)
    objective = theory.validation_objective(val.inputs, val.labels)
    alpha = 0.07
    stepped, (entry,), _ = theory._descent_trial(model, [batch], objective, alpha)
    _, grad_g = objective(model)
    flats = flat_grads(_grads(model, batch))
    coef = np.maximum(flats @ grad_g, 0.0)
    want = model.flatten() - (alpha / len(batch)) * (flats.T @ coef)
    if np.abs(stepped.flatten() - want).max() > 1e-12 * max(1.0, np.abs(want).max()):
        return False, "step differs from the materialized rectified update"
    for got, expected in ((entry.align_sq, float(coef @ coef)), (entry.grad_norm_sq, float(grad_g @ grad_g))):
        if abs(got - expected) > 1e-12 * max(expected, 1.0):
            return False, f"trace entry {entry} disagrees with the materialized statistics"

    rng, model, batch, val = _seeded(61, [5, 4, 3], "tanh", 0.3, 10, 6)
    # Zero-gradient objective: nothing aligns, parameters must not move.
    zero_model = with_params(model, np.zeros(model.param_count))
    for curvature, alpha in ((0.8, 0.1), (1.0, 0.5)):
        quad = quadratic_surrogate(curvature)
        stepped, (entry,), _ = theory._descent_trial(zero_model, [batch], quad, alpha)
        if entry.align_sq != 0.0 or entry.g_after != entry.g_before or not np.array_equal(
            stepped.flatten(), zero_model.flatten()
        ):
            return False, "orthogonal case moved the parameters"

    # Quadratic surrogate: smoothness estimate must equal the curvature.
    for curvature in (0.25, 0.8, 1.0, 8.0):
        quad = quadratic_surrogate(curvature)
        l_est = theory.estimate_smoothness(model, quad, probes=10, rng=rng)
        if abs(l_est - curvature) > 1e-12 * max(curvature, 1.0):
            return False, f"quadratic smoothness estimate {l_est} != {curvature}"

    # Gradient bound on a zero model has a closed form: the softmax signal
    # norm is sqrt((k-1)/k) for every example, so the bound factorizes.
    ds = Dataset(batch.inputs, batch.labels)
    for k, bound_ds in ((3, ds), (4, Dataset(rng.random((30, 6)), rng.integers(0, 4, size=30)))):
        zero_single = MLPModel([np.zeros((bound_ds.images.shape[1] + 1, k))])
        got = theory.estimate_grad_bound(zero_single, bound_ds, sample_count=len(bound_ds), rng=rng)
        inputs_aug = np.hstack([bound_ds.images[:], np.ones((len(bound_ds), 1))])
        want = math.sqrt((k - 1) / k) * float(np.linalg.norm(inputs_aug, axis=1).max())
        if abs(got - want) > 1e-12:
            return False, f"gradient bound {got} != closed form {want}"

    # Real objective: descent should hold at a compliant step size.
    objective = theory.validation_objective(val.inputs, val.labels)
    est = theory.estimate_regularity(model, ds, objective, probes=10, sample_count=None, rng=rng)
    alpha = theory.safe_step_size(len(batch), est)
    _, trace, _ = theory._descent_trial(model, [batch] * 50, objective, alpha)
    if len(trace) != 50:
        return False, f"trial stopped after {len(trace)} of 50 steps"
    for entry in trace:
        if entry.g_after > entry.g_before + theory.DescentRun.tolerance:
            return False, f"objective rose at step {entry.step}: {entry.g_before} -> {entry.g_after}"
        if entry.align_sq < 0:
            return False, "negative alignment statistic"
    return True, ""


def check_rate_report():
    rng = np.random.default_rng(67)
    traces = [
        [theory.DescentEntry(t, 0.0, 0.0, float(abs(rng.standard_normal())) + floor, 0.0) for t in range(1500)]
        for floor in (1e-3, 1e-4)
    ]
    traces.append([theory.DescentEntry(t, 0.0, 0.0, 1.0, 0.0) for t in range(64)])
    pool = Dataset(rng.random((240, 6)), rng.integers(0, 2, size=240))
    run = theory.run_descent_verification(
        pool.subset(np.arange(200)), pool.subset(np.arange(200, 240)),
        steps=600, batch_size=32, seed=0, hidden_sizes=(16,), sample_count=64,
    )
    traces.append(run.trace)
    for trace in traces:
        rows = theory.rate_report(trace)
        horizons = [r.horizon for r in rows]
        if len(rows) < 5 or horizons != sorted(set(horizons)) or horizons[0] != 1 or horizons[-1] != len(trace):
            return False, f"checkpoints {horizons} are not log-spaced over 1..{len(trace)}"
        norms = [e.grad_norm_sq for e in trace]
        if any(r.min_grad_norm_sq != min(norms[: r.horizon]) for r in rows):
            return False, "running minimum differs from the prefix minimum"
        c = rows[0].envelope * math.sqrt(rows[0].horizon)
        if not c > 0 or any(
            not abs(r.envelope - c / math.sqrt(r.horizon)) <= 1e-12 * c / math.sqrt(r.horizon) for r in rows
        ):
            return False, "envelope is not C/sqrt(T)"
    return True, (
        f"{len(rows)} log-spaced checkpoints on a {len(run.trace)}-step descent run, running minimum "
        "equals the prefix minimum; the 1/sqrt(T) envelope is emitted for plotting only, "
        "its constant is not observable and is not asserted"
    )


QUICK_CHECKS = [
    ("forward_matches_reference_loop", check_forward_reference),
    ("per_example_gradients_match_finite_differences", check_per_example_gradients),
    ("closed_form_matches_materialized_form", check_closed_form_vs_flat),
    ("lookahead_matches_closed_form_scaled", check_lookahead_matches_closed_form),
    ("meta_gradient_matches_finite_differences", check_meta_gradient_finite_differences),
    ("rectified_normalization_invariants", check_rectified_normalization),
    ("positive_scale_invariance", check_scale_invariance),
    ("alignment_sign_semantics", check_sign_semantics),
    ("random_weights_distribution", check_random_weights_distribution),
    ("class_balanced_resampling", check_resampling_balance),
    ("hard_mining_matches_sort", check_hard_mining_matches_sort),
    ("step_work_budget", check_step_work_budget),
    ("descent_step_properties", check_descent_step_properties),
    ("rate_report_properties", check_rate_report),
]


def check_mnist_monotone_descent(data_dir=None, out_dir=None):
    paths = locate_mnist(data_dir)
    if paths is None:
        return None, "MNIST IDX files not found (set MNIST_DIR or pass --data-dir)"
    full = load_idx(paths["train_images"], paths["train_labels"])
    rng = np.random.default_rng(0)
    pair = make_imbalanced_pair(full, ImbalanceSpec(ratio=1, total=510), rng)
    train_ds, val_ds = split_clean_validation(pair, 5, rng)
    run = theory.run_descent_verification(train_ds, val_ds, steps=1000, batch_size=100, seed=0)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        theory.write_descent_csv(run.trace, os.path.join(out_dir, "descent_trace.csv"))
        theory.write_rate_csv(
            theory.rate_report(run.trace), os.path.join(out_dir, "descent_rate.csv")
        )
    detail = (
        f"alpha={run.alpha:.3e} smoothness={run.estimate.smoothness:.3e} "
        f"grad_bound={run.estimate.grad_bound:.3e} violations={run.violations}"
    )
    return run.violations == 0, detail


def run_checks(level: str = "quick", data_dir: str | None = None, out_dir: str | None = None) -> int:
    """Run the suite, print one line per check, return a process exit code."""
    checks = list(QUICK_CHECKS)
    if level == "full":
        checks.append(("mnist_monotone_descent", lambda: check_mnist_monotone_descent(data_dir, out_dir)))
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"raised {e!r}"
        if ok is None:
            print(f"[SKIP] {name}: {detail}")
        elif ok:
            print(f"[PASS] {name}" + (f": {detail}" if detail else ""))
        else:
            failed += 1
            print(f"[FAIL] {name}: {detail}")
    return 1 if failed else 0
