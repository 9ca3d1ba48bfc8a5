"""Gradient boosting: loss descent, early stopping, probability contract."""

import math

import numpy as np
import pytest

from iotids.errors import EmptyValidation, WidthMismatch
from iotids.models.gbm import GbmModel, GbmParams, fit_gbm
from iotids.models.tree import DecisionTree, TreeParams
from iotids.numerics import cross_entropy_mean, softmax


def blobs(seed, n=60, d=2, gap=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(gap, 1, (n, d))])
    y = np.array([0] * n + [1] * n)
    return X, y


def leaf_tree(score: float) -> DecisionTree:
    return DecisionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        leaf_class_counts=None,
        leaf_score=np.array([score]),
        params=TreeParams(task="regression"),
    )


class TestFitGbm:
    def test_single_newton_round_beats_uniform_loss(self):
        # eta=1, deep tree, no leaf regularization: exact Newton step on
        # isolated rows drops the loss strictly below the round-0 baseline
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        params = GbmParams(max_rounds=1, learning_rate=1.0, max_depth=8, leaf_l2=0.0, patience=5)
        model, curve = fit_gbm(X, y, X, y, params, n_classes=2)
        assert curve.train_loss[0] < math.log(2)

    def test_constant_label_val_loss_non_increasing(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.ones(10, dtype=int)
        model, curve = fit_gbm(X, y, X, y, GbmParams(max_rounds=8, patience=8), n_classes=2)
        diffs = np.diff(curve.val_loss)
        assert np.all(diffs <= 1e-12)
        assert np.all(model.predict(X) == 1)

    def test_train_loss_non_increasing_without_regularization(self):
        X, y = blobs(7, n=40)
        params = GbmParams(max_rounds=12, learning_rate=0.5, max_depth=3,
                           leaf_l2=0.0, patience=12)
        _, curve = fit_gbm(X, y, X, y, params, n_classes=2)
        assert np.all(np.diff(curve.train_loss) <= 1e-12)

    def test_planted_val_minimum_early_stop(self):
        # train separable; val from the same blobs but with two rows
        # mislabeled, so confidence eventually hurts: loss dips then climbs
        rng = np.random.default_rng(123)
        n = 60
        Xtr = np.vstack([rng.normal(0.0, 1.0, (n, 2)), rng.normal(3.0, 1.0, (n, 2))])
        ytr = np.array([0] * n + [1] * n)
        Xva = np.vstack([rng.normal(0.0, 1.0, (25, 2)), rng.normal(3.0, 1.0, (25, 2))])
        yva = np.array([0] * 25 + [1] * 25)
        yva[:2] = 1
        params = GbmParams(max_rounds=60, learning_rate=0.3, max_depth=2, patience=5)
        model, curve = fit_gbm(Xtr, ytr, Xva, yva, params, n_classes=2)
        val = np.array(curve.val_loss)
        assert model.best_round == int(val.argmin()) == 3
        assert curve.stopped_at - model.best_round == params.patience
        assert val[model.best_round] <= val.min() + 1e-15

    def test_empty_validation(self):
        X, y = blobs(1, n=10)
        with pytest.raises(EmptyValidation):
            fit_gbm(X, y, np.zeros((0, 2)), np.zeros(0, dtype=int), GbmParams(), n_classes=2)

    def test_curve_csv_format(self):
        X, y = blobs(2, n=15)
        _, curve = fit_gbm(X, y, X, y, GbmParams(max_rounds=3, patience=3), n_classes=2)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "round,train_loss,val_loss"
        assert len(lines) == 1 + len(curve.train_loss)


class TestPredictGbm:
    def test_zero_round_model_uniform(self):
        model = GbmModel([], 0.1, best_round=0, n_classes=4, n_features=2, params=GbmParams())
        labels, probs = model.predict(np.zeros((3, 2))), model.predict_proba(np.zeros((3, 2)))
        np.testing.assert_allclose(probs, 0.25)
        np.testing.assert_array_equal(labels, [0, 0, 0])

    def test_probabilities_sum_to_one(self):
        X, y = blobs(3, n=30)
        model, _ = fit_gbm(X, y, X, y, GbmParams(max_rounds=5, patience=5), n_classes=2)
        probs = model.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_hand_computed_scores_match_softmax(self):
        # one round of constant-leaf trees: scores are eta * leaf per class
        eta = 0.5
        model = GbmModel(
            rounds=[[leaf_tree(2.0), leaf_tree(-1.0), leaf_tree(0.5)]],
            learning_rate=eta,
            best_round=0,
            n_classes=3,
            n_features=1,
            params=GbmParams(learning_rate=eta),
        )
        probs = model.predict_proba(np.zeros((1, 1)))
        expected = softmax(np.array([[eta * 2.0, eta * -1.0, eta * 0.5]]))
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_best_round_truncates_prediction(self):
        model = GbmModel(
            rounds=[[leaf_tree(5.0), leaf_tree(0.0)], [leaf_tree(0.0), leaf_tree(50.0)]],
            learning_rate=1.0,
            best_round=0,
            n_classes=2,
            n_features=1,
            params=GbmParams(),
        )
        labels = model.predict(np.zeros((1, 1)))
        assert labels[0] == 0  # second round's class-1 tree is ignored

    def test_val_loss_at_best_round_is_minimum(self):
        X, y = blobs(9, n=50, gap=2.0)
        Xva, yva = blobs(10, n=20, gap=2.0)
        model, curve = fit_gbm(X, y, Xva, yva, GbmParams(max_rounds=30, patience=4), n_classes=2)
        assert curve.val_loss[model.best_round] == min(curve.val_loss)

    def test_width_mismatch(self):
        model = GbmModel([], 0.1, 0, 2, n_features=3, params=GbmParams())
        with pytest.raises(WidthMismatch):
            model.predict_proba(np.zeros((1, 2)))

    def test_loss_recomputed_by_brute_force(self):
        # recorded train loss equals a from-scratch recount of the model's
        # own predictions through each round
        X, y = blobs(11, n=25)
        params = GbmParams(max_rounds=4, learning_rate=0.2, max_depth=2, patience=4)
        model, curve = fit_gbm(X, y, X, y, params, n_classes=2)
        F = np.zeros((X.shape[0], 2))
        for r, round_trees in enumerate(model.rounds):
            for c, tree in enumerate(round_trees):
                F[:, c] += params.learning_rate * tree.leaf_score[tree.apply(X)]
            loss = cross_entropy_mean(softmax(F), y)
            assert curve.train_loss[r] == pytest.approx(loss, abs=1e-12)


def test_retrain_bitwise_identical_predictions():
    X, y = blobs(21, n=30)
    params = GbmParams(max_rounds=5, max_depth=3, patience=5)
    a, _ = fit_gbm(X, y, X, y, params, n_classes=2)
    b, _ = fit_gbm(X, y, X, y, params, n_classes=2)
    pa = a.predict_proba(X)
    pb = b.predict_proba(X)
    np.testing.assert_array_equal(pa, pb)


def test_one_presort_per_fit(monkeypatch):
    from iotids.models import gbm, tree

    calls, presort = [], tree.presort

    def counting_presort(X):
        calls.append(X.shape)
        return presort(X)

    monkeypatch.setattr(gbm, "presort", counting_presort)
    monkeypatch.setattr(tree, "presort", counting_presort)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(90, 3))
    y = rng.integers(0, 3, size=90)
    model, curve = fit_gbm(X, y, X[:30], y[:30], GbmParams(max_rounds=4, max_depth=3, patience=4), n_classes=3)
    assert len(model.rounds) == 4 and model.n_classes == 3  # 12 trees
    assert calls == [(90, 3)]
