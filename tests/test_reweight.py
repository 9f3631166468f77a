"""Weighting route tests. The oracles (the materialized-gradient form, the
finite-difference lookahead, the sort, the counting and the normalization
invariants) live in `metareweight.checks`; the tests here cover input
validation and the edge cases no check holds."""

import numpy as np
import pytest

from metareweight.checks import grads_of, random_batch, random_model, seeded
from metareweight.errors import ConfigError, DimensionError, NonFiniteError
from metareweight.reweight import (
    hard_mining_select,
    meta_grad_closed_form,
    meta_grad_lookahead,
    proportion_weights,
    random_weights,
    rectify_normalize,
    resample_indices,
)


def mismatched_grads(seed):
    """Gradients of two models with different hidden widths on one batch."""
    rng, m1 = seeded(seed, [5, 4, 2], "relu", 0.0)
    m2 = random_model(rng, [5, 3, 2], "relu")
    b = random_batch(rng, 3, 5, 2)
    return [grads_of(m, b) for m in (m1, m2)]


class TestProportionWeights:
    def test_inverse_frequency(self):
        counts = np.array([10.0, 40.0])
        w = proportion_weights(np.array([0, 1, 1]), counts)
        raw = np.array([1 / 10, 1 / 40, 1 / 40])
        assert np.abs(w - raw / raw.sum()).max() <= 1e-15
        assert abs(w.sum() - 1.0) <= 1e-12


class TestResample:
    def test_deterministic_given_seed(self):
        labels = np.array([0, 0, 1, 1, 1])
        a = resample_indices(labels, 50, np.random.default_rng(7))
        b = resample_indices(labels, 50, np.random.default_rng(7))
        assert np.array_equal(a, b)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: meta_grad_closed_form(*mismatched_grads(32)), DimensionError, None,
                 id="closed_form_layer_shapes"),
    pytest.param(lambda: meta_grad_lookahead(*seeded(37, [4, 3, 2], "relu", 0.0, 4, 2)[1:], 0.1, eps0=np.zeros(3)),
                 DimensionError, r"^weights shape \(3,\) does not match 4 examples$", id="lookahead_eps0_shape"),
    pytest.param(lambda: meta_grad_lookahead(*seeded(38, [4, 3, 2], "relu", 0.0, 4, 2)[1:], -0.1), ValueError,
                 "^step size must be nonnegative$", id="lookahead_negative_alpha"),
    pytest.param(lambda: rectify_normalize(np.array([1.0, np.nan])), NonFiniteError, None,
                 id="rectify_non_finite"),
    pytest.param(lambda: random_weights(0, np.random.default_rng(0)), ValueError, None, id="random_weights_empty"),
    pytest.param(lambda: proportion_weights(np.array([0, 1]), np.array([5.0, 0.0])), ConfigError, None,
                 id="proportion_zero_count"),
    pytest.param(lambda: proportion_weights(np.array([2]), np.array([5.0, 5.0])), ConfigError, None,
                 id="proportion_label_outside_table"),
    pytest.param(lambda: hard_mining_select(np.array([1.0, 2.0]), np.array([1, 0]), 1, 2), ValueError, None,
                 id="hard_mining_k_too_large"),
    pytest.param(lambda: resample_indices(np.array([], dtype=int), 4, np.random.default_rng(0)), ConfigError, None,
                 id="resample_empty"),
    pytest.param(lambda: hard_mining_select(np.array([1.0, 2.0]), np.array([1]), 1, 1), DimensionError, None,
                 id="hard_mining_misaligned"),
    pytest.param(lambda: resample_indices(np.array([0, 1]), 0, np.random.default_rng(0)), ValueError, None,
                 id="resample_no_draws"),
])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
