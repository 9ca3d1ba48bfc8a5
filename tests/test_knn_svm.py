"""Nearest-neighbour and linear SVM contracts, oracle-checked."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import iotids
from iotids.errors import BadK, SingleClass, WidthMismatch
from iotids.models import knn as knn_module
from iotids.models import svm as svm_module
from iotids.models.knn import KnnModel, fit_knn, predict_knn
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
        model = fit_knn(X, y, k=1, n_classes=3)
        np.testing.assert_array_equal(predict_knn(model, X), y)

    def test_k_equals_rows_modal_class(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 6 + [1] * 4)
        model = fit_knn(X, y, k=10, n_classes=2)
        np.testing.assert_array_equal(predict_knn(model, X), np.zeros(10))

    def test_duplicate_rows_conflicting_labels_k1(self):
        # exact distance tie: the lower stored index wins
        X = np.array([[1.0, 1.0], [1.0, 1.0]])
        y = np.array([1, 0])
        model = fit_knn(X, y, k=1, n_classes=2)
        assert predict_knn(model, np.array([[1.0, 1.0]]))[0] == 1

    def test_majority_two_vs_one(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array([0, 0, 1])
        model = fit_knn(X, y, k=3, n_classes=2)
        assert predict_knn(model, np.array([[0.05]]))[0] == 0

    def test_k2_sum_distance_tiebreak(self):
        # query at 1.0: neighbours are 0.9 (class 1, dist .1) and 1.2
        # (class 0, dist .2): tie 1-1, class 1 has the smaller summed distance
        X = np.array([[0.9], [1.2], [9.0], [9.5], [10.0]])
        y = np.array([1, 0, 0, 1, 0])
        model = fit_knn(X, y, k=2, n_classes=2)
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
            model = fit_knn(Xtr, ytr, k=k, n_classes=n_classes)
            np.testing.assert_array_equal(
                predict_knn(model, Xq), knn_oracle(Xtr, ytr, Xq, k, n_classes), f"trial {trial}"
            )

    def test_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 2))
        y = rng.integers(0, 2, 50)
        Xq = rng.normal(size=(10, 2))
        a = predict_knn(fit_knn(X, y, 5, n_classes=2), Xq)
        perm = rng.permutation(50)
        b = predict_knn(fit_knn(X[perm], y[perm], 5, n_classes=2), Xq)
        np.testing.assert_array_equal(a, b)

    def test_bad_k(self):
        X = np.zeros((3, 1))
        with pytest.raises(BadK):
            fit_knn(X, np.zeros(3, dtype=int), k=0, n_classes=2)
        with pytest.raises(BadK):
            fit_knn(X, np.zeros(3, dtype=int), k=4, n_classes=2)

    def test_width_mismatch(self):
        model = fit_knn(np.zeros((3, 2)), np.array([0, 1, 0]), k=1, n_classes=2)
        with pytest.raises(WidthMismatch):
            predict_knn(model, np.zeros((1, 3)))


def reference_predict_knn(model, X_query):
    """predict_knn as it was before the GEMM shortlist: every distance
    elementwise, 64 query rows at a time, a full stable argsort per row and
    a per-row majority loop."""
    X_query = np.asarray(X_query, dtype=float)
    n_classes = int(model.y.max()) + 1
    out = np.empty(X_query.shape[0], dtype=np.int64)
    for start in range(0, X_query.shape[0], 64):
        chunk = X_query[start : start + 64]
        dists = np.sqrt(((chunk[:, None, :] - model.X[None, :, :]) ** 2).sum(axis=-1))
        order = np.argsort(dists, axis=1, kind="stable")[:, : model.k]
        for i in range(chunk.shape[0]):
            nn = order[i]
            labels = model.y[nn]
            counts = np.bincount(labels, minlength=n_classes)
            top = counts.max()
            tied = np.flatnonzero(counts == top)
            if tied.shape[0] == 1:
                out[start + i] = tied[0]
                continue
            sums = np.array([dists[i, nn[labels == c]].sum() for c in tied])
            out[start + i] = tied[np.argmin(sums)]
    return out


def sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def summed_distance_case(rng):
    """d = 1, query at 0, k = n = 16: class a's 8 distances have a numpy
    (pairwise) sum that differs from their left-to-right sum; class b has 7
    zero distances and one equal to that pairwise sum, so the count tie is an
    exact summed-distance tie that goes to the lower class index, and a
    left-to-right sum of class a picks the other class."""
    while True:
        a = np.sort(1.0 + rng.random(8))
        pairwise = a.sum()
        if sequential_sum(a) != pairwise:
            break
    a_class = int(sequential_sum(a) < pairwise)  # the other order must pick the wrong class
    points = np.concatenate([a, np.zeros(7), [pairwise]])
    signs = rng.choice([-1.0, 1.0], size=16)
    y = np.array([a_class] * 8 + [1 - a_class] * 8)
    perm = rng.permutation(16)
    return (points * signs)[perm, None], y[perm], 16, np.zeros((1, 1))


def knn_case(rng):
    """A tie-heavy random case: integer grids at a random scale and offset
    (some far outside [0, 1], where the GEMM form rounds), duplicate stored
    rows with conflicting labels, queries on stored rows and on the grid."""
    if rng.random() < 0.06:
        return summed_distance_case(rng)
    n = int(rng.choice([1, int(rng.integers(2, 40))] + [int(rng.integers(40, 150))] * 3))
    d = int(rng.choice([1, 1, 2, 3, 5, 9]))
    n_classes = int(rng.integers(2, 5))
    levels = int(rng.integers(2, 6))
    if rng.random() < 0.2:
        grid = rng.normal(size=(n, d))  # no exact ties
    else:
        grid = rng.integers(0, levels, size=(n, d)).astype(float)
    scale = float(rng.choice([1.0, 0.1, 0.37, 1e-3, 3e5, 1e-150, 1e-160, 1e150, 4e153, 1e160]))
    offset = float(rng.choice([0.0, 0.0, 0.3, -7.1, 1e3 + 0.1, 1e6 / 3, 1e8 + 0.5, 1e12]))
    X = offset + scale * grid
    y = rng.integers(0, n_classes, n)
    if n > 1 and rng.random() < 0.5:  # duplicates with their own labels
        dup = rng.integers(0, n, size=n // 3 + 1)
        X = np.vstack([X, X[dup]])
        y = np.concatenate([y, rng.integers(0, n_classes, dup.shape[0])])
        perm = rng.permutation(X.shape[0])
        X, y = X[perm], y[perm]
    n = X.shape[0]
    k = int(rng.choice([1, n, min(n, int(rng.integers(8, 13))), int(rng.integers(1, min(n, 6) + 1))]))
    m = int(rng.choice([0, 1, int(rng.integers(2, 30)), int(rng.integers(30, 90))]))
    on_grid = offset + scale * rng.integers(-1, levels + 1, size=(m, d))
    Q = np.where(rng.random((m, 1)) < 0.4, X[rng.integers(0, n, m)], on_grid)
    if m and rng.random() < 0.05:
        Q[rng.integers(0, m)] = rng.choice([np.inf, np.nan])
    return X, y, k, Q


class TestShortlistEquivalence:
    @pytest.mark.parametrize("part", range(5))
    def test_same_predictions_as_exhaustive_search(self, part, monkeypatch):
        """A third of the cases run with a shortlist of exactly k and one
        query row per block, so uncertified queries take the full search and
        every block edge is crossed; the rest run with the default settings."""
        rng = np.random.default_rng(6000 + part)
        full_searches = []
        search = knn_module._nearest

        def counted_search(Q, X, candidates, k):
            full_searches.append(candidates.shape[1] == X.shape[0])
            return search(Q, X, candidates, k)

        monkeypatch.setattr(knn_module, "_nearest", counted_search)
        for case in range(48):
            X, y, k, Q = knn_case(rng)
            forced = case % 3 == 0
            monkeypatch.setattr(knn_module, "_SHORTLIST_EXTRA", 0 if forced else 16)
            monkeypatch.setattr(knn_module, "_BLOCK_ELEMENTS", 1 if forced else 1 << 18)
            model = fit_knn(X, y, k, n_classes=int(y.max()) + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                got = predict_knn(model, Q)
                want = reference_predict_knn(model, Q)
            assert got.dtype == np.int64 and got.shape == (Q.shape[0],)
            np.testing.assert_array_equal(got, want, f"part {part} case {case}")
        assert any(full_searches) and not all(full_searches)

    @pytest.mark.parametrize("k", [1, 3, 8, 12])
    @pytest.mark.parametrize("nearer", [0, 5, 16])
    def test_duplicates_straddling_the_shortlist_boundary(self, k, nearer):
        """`nearer` distinct stored rows, then 30 copies of one row, then 10
        far rows, in shuffled stored order: the shortlist (k + 16 rows) ends
        inside the copies.  Neighbours, their distance bits and the labels
        equal a brute-force elementwise search that sorts every stored row
        by (distance, index).  The query on the copies has k-th and left-out
        values equal, so it also takes the full search."""
        rng = np.random.default_rng(100 * k + nearer)
        shortlist = k + knn_module._SHORTLIST_EXTRA
        assert nearer < shortlist < nearer + 30
        X = np.vstack([
            np.column_stack([0.1 * np.arange(1, nearer + 1), np.zeros(nearer)]),
            np.tile([[5.0, 5.0]], (30, 1)),
            rng.normal(20.0, 1.0, (10, 2)),
        ])[rng.permutation(nearer + 40)]
        y = rng.integers(0, 3, X.shape[0])
        Q = np.vstack([[0.0, 0.0], rng.normal(0.0, 0.05, (5, 2)), [5.0, 5.0], [5.0, 5.5]])
        x_sq = (X * X).sum(axis=1)
        nn, nn_dist = knn_module._shortlist_nearest(Q, X, x_sq, x_sq.max(), k, shortlist)
        for i, q in enumerate(Q):
            dist = np.sqrt(((q - X) ** 2).sum(axis=1))
            order = sorted(range(X.shape[0]), key=lambda j: (dist[j], j))[:k]
            assert nn[i].tolist() == order, i
            assert nn_dist[i].tobytes() == dist[order].tobytes(), i
        model = fit_knn(X, y, k, n_classes=3)
        np.testing.assert_array_equal(predict_knn(model, Q), knn_oracle(X, y, Q, k, 3))

    def test_peak_memory_is_bounded(self):
        """20,000 x 20 store, 1,000 queries: the old 64-row chunks allocated
        64 x 20,000 x 20 doubles twice (about 410 MB)."""
        rng = np.random.default_rng(20)
        model = fit_knn(rng.random((20_000, 20)), rng.integers(0, 2, 20_000), k=5, n_classes=2)
        Q = rng.random((1_000, 20))
        tracemalloc.start()
        try:
            predict_knn(model, Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


class TestBlockIndependence:
    """A query's label does not depend on which queries share its call or
    its block, nor on how the shortlist's distances are buffered."""

    @pytest.mark.parametrize("part", range(3))
    def test_labels_do_not_depend_on_blocks_or_order(self, part, monkeypatch):
        rng = np.random.default_rng(7000 + part)
        for case in range(30):
            X, y, k, Q = knn_case(rng)
            m = Q.shape[0]
            if m == 0:
                continue
            model = fit_knn(X, y, k, n_classes=int(y.max()) + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                want = predict_knn(model, Q)
                for block_elements in (1, 1 << 10, 1 << 17, 1 << 20):
                    monkeypatch.setattr(knn_module, "_BLOCK_ELEMENTS", block_elements)
                    got = predict_knn(model, Q)
                    np.testing.assert_array_equal(got, want, f"part {part} case {case} {block_elements}")
                    for rows in (1, 7, m):
                        got = np.concatenate([predict_knn(model, Q[i : i + rows]) for i in range(0, m, rows)])
                        np.testing.assert_array_equal(got, want, f"part {part} case {case} rows {rows}")
                    perm = rng.permutation(m)
                    got = np.empty_like(want)
                    got[perm] = predict_knn(model, Q[perm])
                    np.testing.assert_array_equal(got, want, f"part {part} case {case} shuffled")

    @pytest.mark.parametrize("part", range(3))
    def test_a_reused_buffer_gives_the_same_neighbours_and_bits(self, part):
        """One buffer, larger than any block and holding the previous
        call's values (NaN before the first), serves several calls."""
        rng = np.random.default_rng(8000 + part)
        checked = 0
        for case in range(40):
            X, y, k, Q = knn_case(rng)
            n = X.shape[0]
            if Q.shape[0] == 0 or n <= k:
                continue
            shortlist = min(n - 1, k + knn_module._SHORTLIST_EXTRA)
            buffer = np.full((Q.shape[0] + 3, n), np.nan)
            with np.errstate(over="ignore", invalid="ignore"):
                x_sq = (X * X).sum(axis=1)
                for Q_block in (Q, Q[::-1], Q[: max(1, Q.shape[0] // 2)]):
                    want = knn_module._shortlist_nearest(Q_block, X, x_sq, x_sq.max(), k, shortlist)
                    got = knn_module._shortlist_nearest(Q_block, X, x_sq, x_sq.max(), k, shortlist, buffer)
                    assert got[0].tolist() == want[0].tolist(), f"part {part} case {case}"
                    assert got[1].tobytes() == want[1].tobytes(), f"part {part} case {case}"
            checked += 1
        assert checked >= 10


@pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"), reason="reads Linux ru_minflt")
def test_a_second_predict_does_not_fault_its_blocks_in_again():
    """A fresh interpreter (known allocator state) predicts 1,000 queries
    against a 4,000 x 20 store twice; the second predict reuses the memory
    of the first instead of having the allocator hand pages back to the OS
    and fault them in again (about 930 faults per block when each block
    allocated and freed its own distance matrix)."""
    code = """
import resource
import numpy as np
from iotids.models.knn import fit_knn, predict_knn
rng = np.random.default_rng(0)
model = fit_knn(rng.standard_normal((4000, 20)), rng.integers(0, 2, 4000), k=5, n_classes=2)
Q = rng.standard_normal((1000, 20))
predict_knn(model, Q)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
predict_knn(model, Q)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(iotids.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                         timeout=120)
    faults = int(run.stdout)
    assert faults < 2_000, f"{faults} minor page faults"


@pytest.mark.parametrize("encode_rows", [1, 3, 256])
def test_knn_json_is_its_dict_encoded_compactly(encode_rows, monkeypatch):
    """The stored rows are encoded a block at a time, to the bytes of
    encoding to_dict() whole, at every block edge."""
    monkeypatch.setattr(knn_module, "_ENCODE_ROWS", encode_rows)
    rng = np.random.default_rng(encode_rows)
    odd = [0.0, -0.0, 5e-324, 1e308, -1.5, 1 / 3, np.nan, np.inf]
    for n, d in [(1, 1), (2, 3), (3, 2), (255, 2), (256, 1), (257, 4), (600, 0)]:
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-300, 300, size=(n, d))
        if d:
            X.flat[rng.integers(0, X.size, size=min(X.size, len(odd)))] = odd[: min(X.size, len(odd))]
        model = KnnModel(X, rng.integers(0, 3, n), k=1, n_classes=3)
        assert model.to_json() == json.dumps(model.to_dict(), separators=(",", ":")), (n, d)


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
    model = fit_knn(Xtr, ytr, k=7, n_classes=3)
    np.testing.assert_array_equal(
        predict_knn(model, Xq), knn_oracle(Xtr, ytr, Xq, 7, 3)
    )


def test_svm_retrain_bitwise_identical():
    X, y = separable(seed=8)
    a = fit_linear_svm(X, y, SvmParams(epochs=6, seed=4))
    b = fit_linear_svm(X, y, SvmParams(epochs=6, seed=4))
    np.testing.assert_array_equal(a.w, b.w)
    assert a.b == b.b


def svm_reference(X, y, params):
    """The SGD loop restated with a new w each step, as first written; also
    counts the steps whose row violated the margin.  Rows come from a
    C-ordered copy, as in the fit: a strided row's dot product can round
    differently from a contiguous one."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    w, b, t, violations = np.zeros(d), 0.0, 0, 0
    rng = np.random.default_rng(params.seed)
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            eta = params.lr0 / (1.0 + t * params.decay)
            t += 1
            if y[i] * (X[i] @ w + b) < 1.0:
                violations += 1
                w = (1.0 - eta) * w + eta * params.C * y[i] * X[i]
                b = b + eta * params.C * y[i]
            else:
                w = (1.0 - eta) * w
    return w, b, violations


def svm_cases():
    """(name, X, y, params) for the bitwise comparison with svm_reference."""
    rng = np.random.default_rng(77)
    for case in range(6):
        n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
        X = rng.normal(0, rng.choice([0.1, 1.0, 50.0]), (n, d))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        y[:2] = [-1.0, 1.0]
        params = SvmParams(C=float(rng.choice([0.03, 1.0, 7.3])), epochs=int(rng.integers(1, 8)),
                           lr0=float(rng.choice([0.01, 0.1, 0.5])), decay=float(rng.choice([0.0, 0.01, 0.3])),
                           seed=case)
        yield f"random{case}", X, y, params
    X, y = separable(seed=5, n=30)
    yield "strided columns", np.hstack([X, X])[:, ::2], y, SvmParams(epochs=4, seed=2)
    yield "fortran order", np.asfortranarray(X), y, SvmParams(epochs=3, seed=6)
    yield "d=1", np.array([[0.5], [-1.5], [2.0], [-0.25]]), np.array([1.0, -1.0, 1.0, -1.0]), SvmParams(epochs=5)
    yield "n=2", np.array([[1.0, -2.0, 0.5], [-3.0, 1.0, 0.0]]), np.array([-1.0, 1.0]), SvmParams(epochs=7, seed=3)
    yield "every row violates", X, y, SvmParams(lr0=1e-6, epochs=3, seed=1)
    yield "only the first step violates", np.array([[100.0], [-100.0], [80.0]]), np.array([1.0, -1.0, 1.0]), \
        SvmParams(epochs=4, seed=0)
    yield "no step", X, y, SvmParams(epochs=0)
    for d in (20, 36):
        wide = rng.normal(0, 1.0, (50, d))
        labels = np.where(wide[:, 0] + rng.normal(0, 0.5, 50) > 0, 1.0, -1.0)
        labels[:2] = [-1.0, 1.0]
        yield f"d={d}", wide, labels, SvmParams(C=0.5, epochs=3, seed=d)
        yield f"d={d} fortran order", np.asfortranarray(wide), labels, SvmParams(C=0.5, epochs=3, seed=d)
    d = 32
    n = svm_module._CHUNK_ELEMENTS // d + 3
    wide = rng.normal(0, 1.0, (n, d))
    labels = np.where(wide[:, 0] > 0, 1.0, -1.0)
    labels[:2] = [-1.0, 1.0]
    yield "more steps than one chunk", wide, labels, SvmParams(lr0=1e-4, epochs=2, seed=4)


def test_svm_fit_bitwise_equals_reference_loop():
    violations = {}
    for name, X, y, params in svm_cases():
        model = fit_linear_svm(X, y, params)
        w, b, violations[name] = svm_reference(X, y, params)
        assert model.w.tobytes() == w.tobytes(), name
        assert float(model.b).hex() == float(b).hex(), name
        assert model.to_dict() == SvmClassifier(w, b, params.C, params.epochs).to_dict(), name
    assert violations["every row violates"] == 60 * 3
    # the first step always violates: it starts from w = 0, b = 0
    assert violations["only the first step violates"] == 1
    assert violations["no step"] == 0
    assert violations["more steps than one chunk"] > 2 * (svm_module._CHUNK_ELEMENTS // 32)


@pytest.mark.parametrize("d", [20, 36])
def test_svm_fit_does_not_depend_on_memory_order(d):
    cases = {name: (X, y, params) for name, X, y, params in svm_cases()}
    models = [fit_linear_svm(*cases[name]) for name in (f"d={d}", f"d={d} fortran order")]
    assert models[0].w.tobytes() == models[1].w.tobytes()
    assert float(models[0].b).hex() == float(models[1].b).hex()
