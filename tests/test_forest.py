"""Random forest: bagging determinism, vote shares, tie-breaks."""

import numpy as np
import pytest

from iotids.errors import EmptyInput, WidthMismatch
from iotids.models.forest import ForestModel, ForestParams, fit_random_forest
from iotids.models.tree import DecisionTree, TreeParams, fit_tree


def constant_tree(label: int, n_classes: int) -> DecisionTree:
    counts = np.zeros((1, n_classes))
    counts[0, label] = 1.0
    return DecisionTree(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        leaf_class_counts=counts,
        leaf_score=None,
        params=TreeParams(task="classification", n_classes=n_classes),
    )


def forest_of(labels, n_classes=2, n_features=2) -> ForestModel:
    trees = [constant_tree(c, n_classes) for c in labels]
    return ForestModel(trees, [[0, i] for i in range(len(trees))], 1, n_classes, n_features,
                       ForestParams(n_trees=len(trees)))


def blobs(seed=0, n=60, d=4, gap=6.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(gap, 1, (n, d))])
    y = np.array([0] * n + [1] * n)
    perm = rng.permutation(2 * n)
    return X[perm], y[perm]


class TestFitForest:
    def test_single_tree_no_bootstrap_equals_fit_tree(self):
        X, y = blobs(seed=1)
        params = ForestParams(n_trees=1, bootstrap=False, features_per_split=X.shape[1], max_depth=4)
        forest = fit_random_forest(X, y, params, n_classes=2)
        tree = fit_tree(X, y, params=TreeParams(max_depth=4, n_classes=2))
        np.testing.assert_array_equal(forest.predict(X), tree.predict(X))

    def test_same_seed_identical_model(self):
        X, y = blobs(seed=2)
        params = ForestParams(n_trees=8, max_depth=5, seed=11)
        a = fit_random_forest(X, y, params, n_classes=2)
        b = fit_random_forest(X, y, params, n_classes=2)
        for ta, tb in zip(a.trees, b.trees):
            assert ta.to_dict() == tb.to_dict()

    def test_blob_accuracy(self):
        X, y = blobs(seed=3, n=120)
        split = 180
        forest = fit_random_forest(X[:split], y[:split], ForestParams(n_trees=25, max_depth=5, seed=7), n_classes=2)
        acc = float(np.mean(forest.predict(X[split:]) == y[split:]))
        assert acc >= 0.95

    def test_row_order_invariance_with_index_stable_bootstrap(self):
        # bootstrap indices derive from the seed, not the row order: permute
        # (X, y) and remap the same draws through the permutation
        X, y = blobs(seed=4, n=40)
        params = ForestParams(n_trees=5, max_depth=4, seed=9)
        base = fit_random_forest(X, y, params, n_classes=2)
        n = X.shape[0]
        draws = [np.random.default_rng([params.seed, t, 0]).integers(0, n, size=n) for t in range(5)]
        perm = np.random.default_rng(123).permutation(n)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        permuted = fit_random_forest(X[perm], y[perm], params,
                                     bootstrap_indices=[inverse[d] for d in draws], n_classes=2)
        for ta, tb in zip(base.trees, permuted.trees):
            assert ta.to_dict() == tb.to_dict()

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_random_forest(np.zeros((0, 2)), np.zeros(0, dtype=int), n_classes=2)


class TestPredictForest:
    def test_two_one_vote(self):
        model = forest_of([0, 0, 1])
        labels, shares = model.predict(np.zeros((1, 2))), model.predict_proba(np.zeros((1, 2)))
        assert labels[0] == 0
        np.testing.assert_allclose(shares[0], [2 / 3, 1 / 3])

    def test_unanimous(self):
        model = forest_of([1, 1, 1, 1])
        labels, shares = model.predict(np.zeros((2, 2))), model.predict_proba(np.zeros((2, 2)))
        np.testing.assert_array_equal(labels, [1, 1])
        np.testing.assert_array_equal(shares[:, 1], [1.0, 1.0])

    def test_tie_goes_to_lowest_class(self):
        model = forest_of([1, 0])
        labels, shares = model.predict(np.zeros((1, 2))), model.predict_proba(np.zeros((1, 2)))
        assert labels[0] == 0
        np.testing.assert_allclose(shares[0], [0.5, 0.5])

    def test_shares_sum_to_one(self):
        X, y = blobs(seed=5)
        forest = fit_random_forest(X, y, ForestParams(n_trees=7, max_depth=3, seed=1), n_classes=2)
        shares = forest.predict_proba(X)
        np.testing.assert_allclose(shares.sum(axis=1), 1.0)

    def test_width_mismatch(self):
        model = forest_of([0, 1, 1], n_features=3)
        with pytest.raises(WidthMismatch):
            model.predict_proba(np.zeros((1, 2)))
