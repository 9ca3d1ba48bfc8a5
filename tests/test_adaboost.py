"""SAMME AdaBoost: stage weights and reweighting tracked by hand."""

import math

import numpy as np
import pytest

from iotids.errors import EmptyInput
from iotids.models.adaboost import AdaModel, AdaParams, fit_adaboost, predict_adaboost


class TestFitAdaboost:
    def test_perfect_first_learner_stops(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_adaboost(X, y, AdaParams(n_rounds=10), n_classes=2)
        assert len(model.stages) == 1
        assert model.stages[0][1] > 20.0  # capped large alpha
        np.testing.assert_array_equal(model.predict(X), y)

    def test_binary_alpha_is_classic_formula(self):
        # C=2 makes ln(C-1)=0, so alpha = ln((1-e)/e) exactly
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([1, 1, 1, 0, 0, 0, 1, 1])
        model = fit_adaboost(X, y, AdaParams(n_rounds=1), n_classes=2)
        eps = 0.25  # first stump (thr 2.5) misclassifies rows 6 and 7
        assert model.stages[0][1] == pytest.approx(math.log((1 - eps) / eps), abs=1e-12)

    def test_three_stump_fixture_hand_tracked(self):
        # 1D labels 1,1,1,0,0,0,1,1 need three stumps; weights and alphas
        # below were tracked by hand through the SAMME recurrence
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([1, 1, 1, 0, 0, 0, 1, 1])
        model = fit_adaboost(X, y, AdaParams(n_rounds=3), n_classes=2)
        assert len(model.stages) == 3
        alphas = [a for _, a in model.stages]
        assert alphas[0] == pytest.approx(math.log(3), abs=1e-12)   # err 1/4
        assert alphas[1] == pytest.approx(math.log(3), abs=1e-12)   # err 1/4
        assert alphas[2] == pytest.approx(math.log(5), abs=1e-12)   # err 1/6
        # round thresholds: 2.5 then 5.5 then 2.5 again
        assert [t.threshold[0] for t, _ in model.stages] == [2.5, 5.5, 2.5]
        np.testing.assert_array_equal(model.predict(X), y)

    def test_weights_remain_distribution_every_round(self):
        # replay the reweighting recurrence alongside the fitted stages
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([1, 1, 1, 0, 0, 0, 1, 1])
        model = fit_adaboost(X, y, AdaParams(n_rounds=3), n_classes=2)
        w = np.full(8, 1.0 / 8.0)
        expected_after = [
            np.array([1, 1, 1, 1, 1, 1, 3, 3]) / 12.0,
            np.array([3, 3, 3, 1, 1, 1, 3, 3]) / 18.0,
            np.array([3, 3, 3, 5, 5, 5, 3, 3]) / 30.0,
        ]
        for (tree, alpha), expect in zip(model.stages, expected_after):
            miss = tree.predict(X) != y
            w = w * np.exp(alpha * miss)
            w = w / w.sum()
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) <= 1e-12
            np.testing.assert_allclose(w, expect, atol=1e-12)

    def test_multiclass_alpha_includes_log_c_minus_one(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c * 5, 1, (20, 2)) for c in range(3)])
        y = np.repeat(np.arange(3), 20)
        model = fit_adaboost(X, y, AdaParams(n_rounds=1, weak_depth=1), n_classes=3)
        tree, alpha = model.stages[0]
        miss = tree.predict(X) != y
        eps = miss.mean()  # uniform initial weights
        assert alpha == pytest.approx(math.log((1 - eps) / eps) + math.log(2), rel=1e-12)

    def test_multiclass_accuracy(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(c * 6, 1, (30, 2)) for c in range(3)])
        y = np.repeat(np.arange(3), 30)
        model = fit_adaboost(X, y, AdaParams(n_rounds=20, weak_depth=2), n_classes=3)
        assert float(np.mean(model.predict(X) == y)) >= 0.95

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_adaboost(np.zeros((0, 1)), np.zeros(0, dtype=int), n_classes=2)

    def test_zero_stage_model_predicts_lowest_class(self):
        model = AdaModel([], n_classes=3, n_features=1, params=AdaParams())
        np.testing.assert_array_equal(predict_adaboost(model, np.zeros((2, 1))), [0, 0])


def test_retrain_bitwise_identical_predictions():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(c * 5, 1, (15, 2)) for c in range(3)])
    y = np.repeat(np.arange(3), 15)
    a = fit_adaboost(X, y, AdaParams(n_rounds=8, weak_depth=2), n_classes=3)
    b = fit_adaboost(X, y, AdaParams(n_rounds=8, weak_depth=2), n_classes=3)
    np.testing.assert_array_equal(a.predict(X), b.predict(X))
    assert [s[1] for s in a.stages] == [s[1] for s in b.stages]


def test_one_presort_per_fit(monkeypatch):
    from iotids.models import adaboost, tree

    calls, presort = [], tree.presort

    def counting_presort(X):
        calls.append(X.shape)
        return presort(X)

    monkeypatch.setattr(adaboost, "presort", counting_presort)
    monkeypatch.setattr(tree, "presort", counting_presort)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(80, 3))
    y = rng.integers(0, 3, size=80)
    model = fit_adaboost(X, y, AdaParams(n_rounds=5, weak_depth=1), n_classes=3)
    assert len(model.stages) == 5
    assert calls == [(80, 3)]
