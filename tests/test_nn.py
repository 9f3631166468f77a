"""Numeric core tests. The oracles (a pure-python per-example forward pass
and central finite differences) live in `metareweight.checks`; the tests
here cover what no check holds: shapes, validation, edge values and the
flat-vector helpers."""

import math

import numpy as np
import pytest

from metareweight.checks import (
    flat_grads,
    random_batch,
    random_model,
    with_params,
)
from metareweight.errors import DimensionError, NonFiniteError
from metareweight.nn import (
    Batch,
    MLPModel,
    backward_per_example,
    dot_with_each,
    forward,
    layer_views,
    sgd_step,
    weighted_gradient,
)


class TestForward:
    def test_losses_nonnegative_probs_normalized(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, [6, 4, 3], "relu")
        batch = random_batch(rng, 32, 6, 3)
        cache = forward(model, batch)
        assert (cache.losses >= 0).all()
        assert np.abs(cache.probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_extreme_logits_stay_finite(self):
        # Large weights drive logits to +-1e4; the shifted softmax must not
        # overflow, and the correct-class loss must be near zero.
        w = np.zeros((3, 2))
        w[0] = [1e4, -1e4]
        model = MLPModel([w])
        batch = Batch(np.array([[1.0, 0.0]]), np.array([0]))
        cache = forward(model, batch)
        assert np.isfinite(cache.losses).all()
        assert float(cache.losses[0]) <= 1e-12

    def test_input_is_batch_augmented(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, [6, 5, 3], "tanh")
        batch = random_batch(rng, 4, 6, 3)
        assert forward(model, batch).post[0] is batch.augmented


class TestBackward:
    def test_relu_dead_unit_has_zero_gradient(self):
        # Input 0 with zero bias lands exactly on the relu kink; the chosen
        # subgradient is 0, so weights into that unit get no signal.
        rng = np.random.default_rng(9)
        model = random_model(rng, [3, 4, 2], "relu")
        batch = Batch(np.zeros((1, 3)), np.array([0]))
        grads = backward_per_example(model, forward(model, batch), batch)
        assert np.array_equal(grads.signals[0], np.zeros((1, 4)))

    def test_saturated_correct_example_has_tiny_gradient(self):
        w = np.zeros((3, 2))
        w[0] = [50.0, -50.0]
        model = MLPModel([w])
        batch = Batch(np.array([[1.0, 0.0]]), np.array([0]))
        grads = backward_per_example(model, forward(model, batch), batch)
        assert math.sqrt(float(grads.norms_squared()[0])) <= 1e-12

    def test_norms_squared_matches_flat(self):
        rng = np.random.default_rng(12)
        model = random_model(rng, [5, 4, 3], "sigmoid", bias_scale=0.2)
        batch = random_batch(rng, 6, 5, 3)
        grads = backward_per_example(model, forward(model, batch), batch)
        want = (flat_grads(grads) ** 2).sum(axis=1)
        assert np.abs(grads.norms_squared() - want).max() <= 1e-12 * max(1.0, want.max())


class TestWeightedGradient:
    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, [6, 4, 3], "relu", bias_scale=0.2)
        batch = random_batch(rng, 5, 6, 3)
        grads = backward_per_example(model, forward(model, batch), batch)
        w = rng.random(5)
        got = weighted_gradient(grads, w)
        assert got.shape == (model.param_count,)
        want = w @ flat_grads(grads)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @staticmethod
    def _mnist_shaped_grads(seed=40, n=100):
        rng = np.random.default_rng(seed)
        model = random_model(rng, [784, 256, 10], "relu", bias_scale=0.1)
        batch = Batch(rng.integers(0, 256, size=(n, 784), dtype=np.uint8), rng.integers(0, 10, n))
        return rng, backward_per_example(model, forward(model, batch), batch)

    @pytest.mark.parametrize(
        "pattern",
        ["no_zeros", "half_zeros", "one_nonzero", "one_negative", "negative_zeros", "all_zero"],
    )
    def test_zero_weight_rows_skipped_bitwise(self, pattern):
        # Leaving out the rows whose weight is exactly 0 must not move a bit
        # of the product over all rows.
        rng, grads = self._mnist_shaped_grads()
        n = grads.count
        u = rng.standard_normal(n)
        w = {
            "no_zeros": rng.random(n) + 0.1,
            "half_zeros": np.maximum(u, 0.0),
            "one_nonzero": np.where(np.arange(n) == 37, 0.7, 0.0),
            "one_negative": np.where(np.arange(n) == np.argmin(u), -0.25, np.maximum(u, 0.0)),
            "negative_zeros": np.where(u > 0, u, -0.0),
            "all_zero": np.zeros(n),
        }[pattern]
        got = weighted_gradient(grads, w)
        want = np.concatenate(
            [(z.T @ (g * w[:, None])).ravel() for z, g in zip(grads.inputs, grads.signals)]
        )
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        if pattern == "all_zero":
            assert not np.signbit(got).any() and not got.any()

    def test_nan_weight_is_kept(self):
        _, grads = self._mnist_shaped_grads()
        w = np.zeros(grads.count)
        w[:3] = [0.5, np.nan, 0.5]
        assert np.isnan(weighted_gradient(grads, w)).all()

    @pytest.mark.parametrize("where", ["hidden_input_inf", "signal_nan"])
    def test_non_finite_zero_weight_row_still_reaches_sgd_step(self, where):
        # A dropped row must not hide a non-finite value that the product
        # over all rows would carry into the gradient.
        rng = np.random.default_rng(41)
        model = random_model(rng, [6, 5, 3], "relu", bias_scale=0.2)
        batch = random_batch(rng, 8, 6, 3)
        grads = backward_per_example(model, forward(model, batch), batch)
        w = np.array([0.3, 0.0, 0.2, 0.0, 0.1, 0.4, 0.0, 0.0])
        if where == "hidden_input_inf":
            grads.inputs[1][3, 2] = np.inf
        else:
            grads.signals[0][6, 1] = np.nan
        with np.errstate(invalid="ignore"):  # as in the training loop
            grad = weighted_gradient(grads, w)
        assert not np.isfinite(grad).all()
        with pytest.raises(NonFiniteError):
            sgd_step(model, grad, 0.1)

    def test_dot_with_each_matches_flat(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, [5, 4, 3], "sigmoid", bias_scale=0.3)
        batch = random_batch(rng, 6, 5, 3)
        grads = backward_per_example(model, forward(model, batch), batch)
        v = rng.standard_normal(model.param_count)
        want = flat_grads(grads) @ v
        got = dot_with_each(grads, v)
        assert np.abs(got - want).max() <= 1e-11 * max(1.0, np.abs(want).max())


class TestFlatLayout:
    def _gradient(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng, [5, 4, 3], "relu", bias_scale=0.2)
        batch = random_batch(rng, 6, 5, 3)
        grads = backward_per_example(model, forward(model, batch), batch)
        w = rng.random(6)
        return model, grads, w, weighted_gradient(grads, w)

    def test_weighted_gradient_layers_view_one_vector(self):
        # The stepped model's layers are consecutive row-major views of the
        # vector sgd_step took over. Each call fills a new vector.
        model, grads, weights, flat = self._gradient(30)
        assert not np.shares_memory(weighted_gradient(grads, weights), flat)
        stepped = sgd_step(model, flat, 0.1)
        assert all(w.base is flat for w in stepped.layers)
        flat[:] = np.arange(flat.size)
        offset = 0
        for w in stepped.layers:
            assert np.array_equal(w.ravel(), np.arange(offset, offset + w.size))
            offset += w.size
        assert offset == model.param_count

    def test_flatten_copies_separate_layers(self):
        model = MLPModel.init([5, 4, 3], rng=np.random.default_rng(32))
        flat = model.flatten()
        assert not any(np.shares_memory(flat, w) for w in model.layers)
        for v, w in zip(layer_views(flat, [w.shape for w in model.layers]), model.layers):
            assert np.array_equal(v, w)

    def test_model_flatten_never_aliases_layers(self):
        model, _, _, grad = self._gradient(33)
        stepped = sgd_step(model, grad, 0.1)
        before = [w.tobytes() for w in stepped.layers]
        flat = stepped.flatten()
        flat[:] = 0.0
        assert [w.tobytes() for w in stepped.layers] == before

    def test_with_params_does_not_alias_its_input(self):
        model = random_model(np.random.default_rng(34), [4, 3, 2], "tanh", bias_scale=0.5)
        flat = np.arange(float(model.param_count))
        rebuilt = with_params(model, flat)
        assert not any(np.shares_memory(flat, w) for w in rebuilt.layers)
        assert np.array_equal(rebuilt.flatten(), flat)
        for a, b in zip(model.layers, with_params(model, model.flatten()).layers):
            assert np.array_equal(a, b)


class TestModelAndStep:
    def test_init_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(19)
        model = MLPModel.init([20, 10, 4], rng=rng)
        for w, (d_in, d_out) in zip(model.layers, [(20, 10), (10, 4)]):
            limit = math.sqrt(6.0 / (d_in + d_out))
            assert np.abs(w[:-1]).max() <= limit
            assert np.array_equal(w[-1], np.zeros(d_out))
        assert model.param_count == 21 * 10 + 11 * 4

    def test_sgd_step_moves_exactly(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, [4, 3, 2], "relu", bias_scale=0.2)
        g = rng.standard_normal(model.param_count)
        for alpha in (0.05, 0.0):
            stepped = sgd_step(model, g.copy(), alpha)
            assert np.array_equal(stepped.flatten(), model.flatten() - alpha * g)

    def test_sgd_step_leaves_input_model_unchanged(self):
        rng = np.random.default_rng(24)
        model = random_model(rng, [4, 3, 2], "relu", bias_scale=0.2)
        before = [w.tobytes() for w in model.layers]
        stepped = sgd_step(model, rng.standard_normal(model.param_count), 0.05)
        assert [w.tobytes() for w in model.layers] == before
        assert all(not np.shares_memory(a, b) for a in stepped.layers for b in model.layers)

    def test_sgd_step_rejects_nan_in_last_layer(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, [4, 3, 2], "relu", bias_scale=0.2)
        before = [w.tobytes() for w in model.layers]
        g = np.zeros(model.param_count)
        g[model.param_count - model.layers[-1].size + 2] = np.nan  # row 1, column 0
        g_before = g.tobytes()
        with pytest.raises(NonFiniteError, match="^gradient contains non-finite values$"):
            sgd_step(model, g, 0.1)
        assert [w.tobytes() for w in model.layers] == before
        assert g.tobytes() == g_before

    def test_step_linear_in_weights(self):
        # theta_hat(w + h e_i) - theta_hat(w) must equal -alpha h grad_i to
        # machine precision: the lookahead's exactness rests on this.
        rng = np.random.default_rng(23)
        model = random_model(rng, [5, 4, 2], "tanh", bias_scale=0.1)
        batch = random_batch(rng, 4, 5, 2)
        grads = backward_per_example(model, forward(model, batch), batch)
        w0 = rng.random(4)
        alpha, h, i = 0.3, 0.7, 2
        base = sgd_step(model, weighted_gradient(grads, w0), alpha).flatten()
        w1 = w0.copy()
        w1[i] += h
        moved = sgd_step(model, weighted_gradient(grads, w1), alpha).flatten()
        want = -alpha * h * flat_grads(grads)[i]
        assert np.abs((moved - base) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestBatchValidation:
    def test_augmented_bytes_scaled_with_ones_column(self):
        images = np.arange(256, dtype=np.uint8).reshape(32, 8)
        batch = Batch(images, np.zeros(32, dtype=int))
        assert batch.augmented.dtype == np.float64 and batch.augmented.shape == (32, 9)
        assert np.array_equal(batch.augmented[:, -1], np.ones(32))
        want = images.astype(np.float64) / 255.0
        assert batch.augmented[:, :-1].tobytes() == want.tobytes()
        assert np.shares_memory(batch.inputs, batch.augmented)
        assert batch.inputs.tobytes() == want.tobytes()


def relu_grads(seed, sizes, n):
    """Per-example gradients of a random relu model on a random batch of n."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, sizes, "relu")
    batch = random_batch(rng, n, sizes[0], sizes[-1])
    return backward_per_example(model, forward(model, batch), batch)


def nan_at(shape, index):
    bad = np.zeros(shape)
    bad[index] = np.nan
    return bad


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: forward(MLPModel.init([4, 3, 2]), Batch(np.zeros((2, 5)), np.zeros(2, dtype=int))),
                 DimensionError, None, id="forward_feature_mismatch"),
    pytest.param(lambda: forward(MLPModel.init([3, 2]),
                                 Batch(nan_at((2, 3), (1, 1)), np.zeros(2, dtype=int))),
                 NonFiniteError, None, id="forward_nan_input"),
    pytest.param(lambda: forward(MLPModel.init([3, 4, 2]), Batch(np.zeros((1, 3)), np.array([2]))),
                 DimensionError, None, id="forward_label_out_of_range"),
    pytest.param(lambda: weighted_gradient(relu_grads(17, [4, 3, 2], 3), np.zeros(4)),
                 DimensionError, None, id="weighted_gradient_weight_count"),
    pytest.param(lambda: layer_views(np.zeros(11), [(2, 3), (3, 2)]),
                 DimensionError, None, id="layer_views_size"),
    pytest.param(lambda: MLPModel([np.zeros((4, 3)), np.zeros((3, 2))]),  # needs (3+1, 2)
                 DimensionError, None, id="model_shape_chain"),
    pytest.param(lambda: sgd_step(MLPModel.init([3, 2]), np.zeros(5), 0.1),
                 DimensionError, None, id="sgd_step_gradient_size"),
    pytest.param(lambda: sgd_step(MLPModel.init([3, 2]), np.zeros((4, 2)), 0.1),
                 DimensionError, None, id="sgd_step_gradient_2d"),
    pytest.param(lambda: sgd_step(MLPModel.init([3, 2]), np.full(8, np.nan), 0.1),
                 NonFiniteError, None, id="sgd_step_nan_gradient"),
    pytest.param(lambda: sgd_step(MLPModel.init([3, 2]), np.zeros(8), -0.1),
                 ValueError, None, id="sgd_step_negative_alpha"),
    pytest.param(lambda: Batch(np.zeros((3, 2)), np.zeros(2, dtype=int)),
                 DimensionError, None, id="batch_label_count"),
    pytest.param(lambda: Batch(np.zeros((0, 2)), np.zeros(0, dtype=int)),
                 DimensionError, None, id="batch_empty"),
    pytest.param(lambda: Batch(nan_at((2, 3), (0, 2)), np.zeros(2, dtype=int)),
                 NonFiniteError, "^batch inputs contains non-finite values$", id="batch_nan_inputs"),
    pytest.param(lambda: Batch(np.zeros(4), np.zeros(4, dtype=int)),
                 DimensionError, None, id="batch_not_2d"),
])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
