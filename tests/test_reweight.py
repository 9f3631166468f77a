"""Weighting route tests. The oracles (the materialized-gradient form, the
finite-difference lookahead, the sort, the counting and the normalization
invariants) live in `metareweight.checks`; the tests here cover input
validation and the edge cases no check holds."""

import numpy as np
import pytest

from conftest import assert_check
from metareweight.checks import random_batch, random_model
from metareweight.errors import ConfigError, DimensionError, NonFiniteError
from metareweight.nn import backward_per_example, forward
from metareweight.reweight import (
    hard_mining_select,
    meta_grad_closed_form,
    meta_grad_lookahead,
    proportion_weights,
    random_weights,
    rectify_normalize,
    resample_indices,
)


def grads_for(model, batch):
    return backward_per_example(model, forward(model, batch), batch)


class TestClosedForm:
    def test_matches_materialized_gradients(self):
        assert_check("closed_form_matches_materialized_form")

    def test_single_example_is_self_alignment(self):
        assert_check("closed_form_matches_materialized_form")

    def test_layer_shape_mismatch_raises(self):
        rng = np.random.default_rng(32)
        m1 = random_model(rng, [5, 4, 2], "relu")
        m2 = random_model(rng, [5, 3, 2], "relu")
        b = random_batch(rng, 3, 5, 2)
        with pytest.raises(DimensionError):
            meta_grad_closed_form(grads_for(m1, b), grads_for(m2, b))


class TestLookahead:
    def test_zero_eps_equals_scaled_closed_form(self):
        assert_check("lookahead_matches_closed_form_scaled")

    def test_matches_finite_difference_oracle(self):
        assert_check("meta_gradient_matches_finite_differences")

    def test_exact_at_large_alpha(self):
        assert_check("meta_gradient_matches_finite_differences")

    def test_vanishes_linearly_with_alpha(self):
        assert_check("lookahead_matches_closed_form_scaled")

    def test_bad_eps_shape_raises(self):
        rng = np.random.default_rng(37)
        model = random_model(rng, [4, 3, 2], "relu")
        tb = random_batch(rng, 4, 4, 2)
        vb = random_batch(rng, 2, 4, 2)
        with pytest.raises(DimensionError):
            meta_grad_lookahead(model, tb, vb, 0.1, eps0=np.zeros(3))

    def test_negative_alpha_raises(self):
        rng = np.random.default_rng(38)
        model = random_model(rng, [4, 3, 2], "relu")
        with pytest.raises(ValueError):
            meta_grad_lookahead(model, random_batch(rng, 4, 4, 2), random_batch(rng, 2, 4, 2), -0.1)


class TestRectifyNormalize:
    def test_properties_over_many_vectors(self):
        assert_check("rectified_normalization_invariants")

    def test_positive_scale_invariance(self):
        assert_check("positive_scale_invariance")

    def test_all_nonpositive_gives_exact_zero_vector(self):
        assert_check("rectified_normalization_invariants")

    def test_single_positive_takes_all(self):
        assert_check("rectified_normalization_invariants")

    def test_non_finite_raises(self):
        with pytest.raises(NonFiniteError):
            rectify_normalize(np.array([1.0, np.nan]))


class TestSignSemantics:
    def test_helpful_up_harmful_zero(self):
        assert_check("alignment_sign_semantics")


class TestRandomWeights:
    def test_distribution(self):
        assert_check("random_weights_distribution")

    def test_redraw_on_all_negative(self):
        assert_check("random_weights_distribution")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_weights(0, np.random.default_rng(0))


class TestProportionWeights:
    def test_inverse_frequency(self):
        counts = np.array([10.0, 40.0])
        w = proportion_weights(np.array([0, 1, 1]), counts)
        raw = np.array([1 / 10, 1 / 40, 1 / 40])
        assert np.abs(w - raw / raw.sum()).max() <= 1e-15
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_zero_count_raises(self):
        with pytest.raises(ConfigError):
            proportion_weights(np.array([0, 1]), np.array([5.0, 0.0]))

    def test_label_outside_table_raises(self):
        with pytest.raises(ConfigError):
            proportion_weights(np.array([2]), np.array([5.0, 5.0]))


class TestHardMining:
    def test_matches_sort_oracle(self):
        assert_check("hard_mining_matches_sort")

    def test_k_zero_keeps_only_minority(self):
        losses = np.array([5.0, 1.0, 3.0])
        labels = np.array([1, 0, 1])
        assert list(hard_mining_select(losses, labels, 1, 0)) == [1]

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError):
            hard_mining_select(np.array([1.0, 2.0]), np.array([1, 0]), 1, 2)


class TestResample:
    def test_class_frequencies_balanced(self):
        assert_check("class_balanced_resampling")

    def test_three_classes(self):
        assert_check("class_balanced_resampling")

    def test_deterministic_given_seed(self):
        labels = np.array([0, 0, 1, 1, 1])
        a = resample_indices(labels, 50, np.random.default_rng(7))
        b = resample_indices(labels, 50, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            resample_indices(np.array([], dtype=int), 4, np.random.default_rng(0))
