"""Softmax/initializer/penalty/loss formulas at pinned spot values (the
activation layers' are in test_nn_network.py)."""

import math

import numpy as np
import pytest

from iotids.errors import BadOneHot
from iotids.nn.functional import (
    categorical_cross_entropy,
    elastic_net_penalty,
    glorot_uniform,
    glorot_uniform_bound,
    softmax,
)
from iotids.nn.layers import Softmax
from iotids.numerics import one_hot


class TestSoftmax:
    def test_constant_logits_uniform(self):
        for c in (-7.0, 0.0, 123.0):
            np.testing.assert_allclose(softmax(np.full(4, c)), 0.25, atol=1e-12)

    def test_zero_log3(self):
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0])
        np.testing.assert_allclose(softmax(z), softmax(z + 1234.5), atol=1e-12)

    def test_stability_at_large_magnitudes(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-1e3, 1e3, size=(50, 7))
        p = softmax(z)
        assert np.all(np.isfinite(p))
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


class TestCrossEntropy:
    def test_perfect_prediction_zero_loss(self):
        assert categorical_cross_entropy(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_uniform_seven_classes(self):
        p = np.full(7, 1.0 / 7.0)
        y = one_hot(np.array([2]), 7)[0]
        assert categorical_cross_entropy(p, y) == pytest.approx(math.log(7), abs=1e-12)

    def test_half_probability(self):
        loss = categorical_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_probability_floor(self):
        loss = categorical_cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_bad_one_hot(self):
        with pytest.raises(BadOneHot):
            categorical_cross_entropy(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(BadOneHot):
            categorical_cross_entropy(np.array([0.5, 0.5]), np.array([1.0, 1.0]))


class TestElasticNet:
    def test_disabled(self):
        w = [np.array([[1.0, -2.0]])]
        penalty, grads = elastic_net_penalty(w, 0.0, 0.0)
        assert penalty == 0.0
        np.testing.assert_array_equal(grads[0], np.zeros((1, 2)))

    def test_single_weight_value(self):
        penalty, grads = elastic_net_penalty([np.array([-2.0])], 0.1, 0.05)
        assert penalty == pytest.approx(0.1 * 2 + 0.05 * 4, abs=1e-12)
        assert grads[0][0] == pytest.approx(0.1 * -1 + 2 * 0.05 * -2, abs=1e-12)

    def test_zero_weight_zero_gradient(self):
        penalty, grads = elastic_net_penalty([np.zeros(3)], 0.5, 0.5)
        assert penalty == 0.0
        np.testing.assert_array_equal(grads[0], np.zeros(3))

    def test_negative_strengths_rejected(self):
        with pytest.raises(ValueError):
            elastic_net_penalty([np.ones(1)], -0.1, 0.0)


class TestGlorot:
    def test_bound_six_six(self):
        assert glorot_uniform_bound(6, 6) == pytest.approx(0.7071067812, abs=1e-9)

    def test_bound_one_five(self):
        assert glorot_uniform_bound(1, 5) == 1.0

    def test_samples_strictly_inside(self):
        rng = np.random.default_rng(99)
        bound = glorot_uniform_bound(6, 6)
        draws = np.concatenate([glorot_uniform(6, 6, rng).ravel() for _ in range(100_000 // 36 + 1)])
        assert draws.shape[0] >= 100_000
        assert np.all(draws > -bound) and np.all(draws < bound)

    def test_same_seed_identical(self):
        a = glorot_uniform(4, 3, np.random.default_rng(5))
        b = glorot_uniform(4, 3, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        assert glorot_uniform(7, 2, np.random.default_rng(0)).shape == (7, 2)


def test_fused_softmax_cce_gradient_matches_composed():
    # fused gradient p - y must equal Softmax-Jacobian backward composed
    # with dL/dp = -y/p (per-sample CCE)
    rng = np.random.default_rng(3)
    z = rng.normal(size=(20, 5))
    y = rng.integers(0, 5, 20)
    Y = one_hot(y, 5)
    layer = Softmax()
    p = layer.forward(z, training=False)
    fused = p - Y
    composed = layer.backward(-Y / p)
    np.testing.assert_allclose(fused, composed, atol=1e-10)
