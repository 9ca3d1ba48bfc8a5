"""Nearest-neighbour and linear SVM contracts, oracle-checked."""

import numpy as np
import pytest

from iotids.errors import BadK, SingleClass, WidthMismatch
from iotids.models.knn import fit_knn, predict_knn
from iotids.models.svm import (
    SvmClassifier,
    SvmParams,
    fit_linear_svm,
    predict_svm,
    svm_objective,
)


def knn_oracle(Xtr, ytr, Xq, k, n_classes):
    """Independent re-statement of the documented rules: sort all distances
    (stable on stored index), majority vote, tie by summed distance then
    lower class index."""
    out = []
    for q in Xq:
        dists = np.sqrt(((q - Xtr) ** 2).sum(axis=1))
        order = sorted(range(len(Xtr)), key=lambda i: (dists[i], i))[:k]
        counts = np.zeros(n_classes)
        for i in order:
            counts[ytr[i]] += 1
        top = counts.max()
        tied = [c for c in range(n_classes) if counts[c] == top]
        if len(tied) == 1:
            out.append(tied[0])
            continue
        sums = {c: sum(dists[i] for i in order if ytr[i] == c) for c in tied}
        best = min(tied, key=lambda c: (sums[c], c))
        out.append(best)
    return np.array(out)


class TestKnn:
    def test_k1_self_prediction(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 3, 20)
        model = fit_knn(X, y, k=1)
        np.testing.assert_array_equal(predict_knn(model, X), y)

    def test_k_equals_rows_modal_class(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 6 + [1] * 4)
        model = fit_knn(X, y, k=10)
        np.testing.assert_array_equal(predict_knn(model, X), np.zeros(10))

    def test_duplicate_rows_conflicting_labels_k1(self):
        # exact distance tie: the lower stored index wins
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1, 0])
        model = fit_knn(X, y, k=1)
        assert predict_knn(model, np.array([[1.0, 1.0]]))[0] == 1

    def test_majority_two_vs_one(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array([0, 0, 1])
        model = fit_knn(X, y, k=3)
        assert predict_knn(model, np.array([[0.05]]))[0] == 0

    def test_k2_sum_distance_tiebreak(self):
        # query at 1.0: neighbours are 0.9 (class 1, dist .1) and 1.2
        # (class 0, dist .2): tie 1-1, class 1 has the smaller summed distance
        X = np.array([[0.9], [1.2], [9.0], [9.5], [10.0]])
        y = np.array([1, 0, 0, 1, 0])
        model = fit_knn(X, y, k=2)
        assert predict_knn(model, np.array([[1.0]]))[0] == 1

    def test_oracle_exact_on_random_fixtures(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(20, 120))
            d = int(rng.integers(1, 4))
            n_classes = int(rng.integers(2, 4))
            # low-resolution grid values force plenty of exact ties
            Xtr = rng.integers(0, 4, size=(n, d)).astype(float)
            ytr = rng.integers(0, n_classes, n)
            Xq = rng.integers(0, 4, size=(15, d)).astype(float)
            k = int(rng.integers(1, 8))
            model = fit_knn(Xtr, ytr, k=k)
            np.testing.assert_array_equal(
                predict_knn(model, Xq), knn_oracle(Xtr, ytr, Xq, k, n_classes), f"trial {trial}"
            )

    def test_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, 50)
        Xq = rng.normal(size=(10, 2))
        a = predict_knn(fit_knn(X, y, 5), Xq)
        perm = rng.permutation(50)
        b = predict_knn(fit_knn(X[perm], y[perm], 5), Xq)
        np.testing.assert_array_equal(a, b)

    def test_bad_k(self):
        X = np.zeros((3, 1))
        with pytest.raises(BadK):
            fit_knn(X, np.zeros(3, dtype=int), k=0)
        with pytest.raises(BadK):
            fit_knn(X, np.zeros(3, dtype=int), k=4)

    def test_width_mismatch(self):
        model = fit_knn(np.zeros((3, 2)), np.array([0, 1, 0]), k=1)
        with pytest.raises(WidthMismatch):
            predict_knn(model, np.zeros((1, 3)))


def separable(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-3, 0.3, (n, 2)), rng.normal(3, 0.3, (n, 2))])
    y = np.concatenate([-np.ones(n), np.ones(n)])
    return X, y


class TestSvm:
    def test_separable_reaches_zero_hinge(self):
        # wide geometric margin and a large C: the optimum has zero hinge
        X, y = separable()
        model = fit_linear_svm(X, y, SvmParams(C=10.0, epochs=20, seed=1))
        labels, _ = predict_svm(model, X)
        assert np.all(labels == y)
        margins = y * (X @ model.w + model.b)
        assert np.all(margins >= 1.0 - 1e-9)

    def test_label_flip_negates_weights(self):
        X, y = separable(seed=3)
        a = fit_linear_svm(X, y, SvmParams(epochs=10, seed=5))
        b = fit_linear_svm(X, -y, SvmParams(epochs=10, seed=5))
        np.testing.assert_allclose(a.w, -b.w, atol=1e-12)
        assert a.b == pytest.approx(-b.b, abs=1e-12)

    def test_contradictory_duplicate_point(self):
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, -1.0])
        model = fit_linear_svm(X, y, SvmParams(epochs=30, seed=0))
        labels, _ = predict_svm(model, X)
        assert float(np.mean(labels == y)) == 0.5

    def test_boundary_margin_is_positive_class(self):
        model = SvmClassifier(w=np.array([1.0, 0.0]), b=0.0, C=1.0, epochs_trained=0)
        labels, margins = predict_svm(model, np.array([[0.0, 3.0]]))
        assert margins[0] == 0.0 and labels[0] == 1

    def test_margin_formula(self):
        model = SvmClassifier(w=np.array([1.0, 0.0]), b=0.0, C=1.0, epochs_trained=0)
        labels, margins = predict_svm(model, np.array([[3.0, 7.0]]))
        assert margins[0] == 3.0 and labels[0] == 1

    def test_margins_match_hand_dot_products(self):
        model = SvmClassifier(w=np.array([0.5, -2.0, 1.0]), b=0.25, C=1.0, epochs_trained=0)
        X = np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]])
        _, margins = predict_svm(model, X)
        for i, x in enumerate(X):
            expected = sum(wj * xj for wj, xj in zip(model.w, x)) + model.b
            assert margins[i] == pytest.approx(expected, abs=1e-12)

    def test_final_objective_no_worse_than_origin(self):
        X, y = separable(seed=9)
        model = fit_linear_svm(X, y, SvmParams(epochs=5, seed=2))
        at_final = svm_objective(model.w, model.b, X, y, model.C)
        at_zero = svm_objective(np.zeros(2), 0.0, X, y, model.C)
        assert at_final <= at_zero

    def test_positive_scaling_keeps_labels(self):
        X, y = separable(seed=4)
        model = fit_linear_svm(X, y, SvmParams(epochs=10, seed=3))
        scaled = SvmClassifier(w=17.0 * model.w, b=17.0 * model.b, C=model.C, epochs_trained=0)
        np.testing.assert_array_equal(predict_svm(model, X)[0], predict_svm(scaled, X)[0])

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            fit_linear_svm(np.zeros((3, 2)), np.ones(3), SvmParams())

    def test_classifier_adapter_maps_to_class_indices(self):
        clf = SvmClassifier(w=np.array([1.0]), b=0.0, C=1.0, epochs_trained=0)
        np.testing.assert_array_equal(clf.predict(np.array([[2.0], [-2.0]])), [1, 0])
        assert clf.n_classes == 2 and clf.n_features == 1


def test_oracle_exact_on_500_row_fixture():
    rng = np.random.default_rng(500)
    Xtr = rng.integers(0, 5, size=(500, 3)).astype(float)
    ytr = rng.integers(0, 3, 500)
    Xq = rng.integers(0, 5, size=(40, 3)).astype(float)
    model = fit_knn(Xtr, ytr, k=7)
    np.testing.assert_array_equal(
        predict_knn(model, Xq), knn_oracle(Xtr, ytr, Xq, 7, 3)
    )


def test_svm_retrain_bitwise_identical():
    X, y = separable(seed=8)
    a = fit_linear_svm(X, y, SvmParams(epochs=6, seed=4))
    b = fit_linear_svm(X, y, SvmParams(epochs=6, seed=4))
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b
