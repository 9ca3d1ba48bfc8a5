"""CART tree: split selection against an exhaustive brute-force oracle, the
presorted search against a per-node argsort reference, and the stacked
descent (and the forest, GBM and AdaBoost predictions built on it) against
the level-synchronous one-tree walk."""

import contextlib
import json
import signal
from pathlib import Path

import numpy as np
import pytest

from iotids.cli import main
from iotids.errors import EmptyInput, ModelDataMismatch, WidthMismatch
from iotids.models import tree as tree_module
from iotids.models.gbm import GbmModel
from iotids.models.tree import DecisionTree, TreeParams, fit_tree, grow_tree, stack_trees
from iotids.numerics import softmax
from iotids.persist import load_bundle
from iotids.pipeline import read_labeled_dir


def brute_force_best_split(X, y, n_classes):
    """Exhaustive (feature, midpoint) search with the documented tie-breaks:
    strictly larger gain wins; iteration order is feature asc, threshold asc."""
    n, d = X.shape
    counts = np.array([np.sum(y == c) for c in range(n_classes)], dtype=float)
    total = counts.sum()
    parent = 1.0 - ((counts / total) ** 2).sum()
    best = (0.0, -1, 0.0)
    for f in range(d):
        values = np.unique(X[:, f])
        for i in range(len(values) - 1):
            thr = (values[i] + values[i + 1]) / 2.0
            left = X[:, f] <= thr
            lc = np.array([np.sum(y[left] == c) for c in range(n_classes)], dtype=float)
            rc = counts - lc
            lt, rt = lc.sum(), total - lc.sum()
            gini_l = 1.0 - ((lc / lt) ** 2).sum()
            gini_r = 1.0 - ((rc / rt) ** 2).sum()
            gain = parent - (lt * gini_l + rt * gini_r) / total
            if gain > best[0]:
                best = (gain, f, thr)
    return best


class TestFitTree:
    def test_1d_separable_single_split(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(X, y)
        assert tree.feature[0] == 0
        assert 1.0 < tree.threshold[0] < 10.0
        np.testing.assert_array_equal(tree.predict(X), y)
        # both leaves pure
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            counts = tree.leaf_class_counts[leaf]
            assert np.count_nonzero(counts) == 1

    def test_constant_labels_single_leaf(self):
        X = np.arange(6, dtype=float).reshape(-1, 1)
        y = np.zeros(6, dtype=int)
        tree = fit_tree(X, y)
        assert tree.n_nodes == 1
        assert tree.feature[0] == -1

    def test_xor_depth_two(self):
        # XOR-style but unbalanced: the balanced 2x2 grid has exactly zero
        # Gini gain everywhere, so one corner gets fewer copies
        cells = [([0.0, 0.0], 0, 3), ([0.0, 1.0], 1, 3), ([1.0, 0.0], 1, 3), ([1.0, 1.0], 0, 2)]
        X = np.array([p for p, _, k in cells for _ in range(k)])
        y = np.array([c for _, c, k in cells for _ in range(k)])
        tree = fit_tree(X, y, params=TreeParams(max_depth=2))
        np.testing.assert_array_equal(tree.predict(X), y)
        gain, f, thr = brute_force_best_split(X, y, 2)
        assert gain > 0
        assert tree.feature[0] == f and tree.threshold[0] == thr
        # each depth-1 child re-splits on the other feature at 0.5
        for child in (tree.left[0], tree.right[0]):
            assert tree.feature[child] == 1 - f
            assert tree.threshold[child] == 0.5

    def test_root_split_matches_brute_force_50_random(self):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 5))
            n_classes = int(rng.integers(2, 5))
            # duplicated feature values make tie cases likely
            X = rng.integers(0, 6, size=(n, d)).astype(float)
            y = rng.integers(0, n_classes, size=n)
            if len(np.unique(y)) == 1:
                y[0] = (y[0] + 1) % n_classes
            tree = fit_tree(X, y, params=TreeParams(n_classes=n_classes))
            gain, f, thr = brute_force_best_split(X, y, n_classes)
            if f == -1:
                assert tree.feature[0] == -1
            else:
                assert tree.feature[0] == f, f"trial {trial}"
                assert tree.threshold[0] == thr, f"trial {trial}"

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0] * 9 + [1])
        tree = fit_tree(X, y, params=TreeParams(min_samples_leaf=3))
        leaves = tree.apply(X)
        for leaf in np.unique(leaves):
            assert np.sum(leaves == leaf) >= 3

    def test_max_depth_zero_is_stump_prior(self):
        X = np.arange(4, dtype=float).reshape(-1, 1)
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(X, y, params=TreeParams(max_depth=0))
        assert tree.n_nodes == 1

    def test_weighted_fit_shifts_majority(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        w = np.array([1.0, 10.0])
        tree = fit_tree(X, y, w, TreeParams(max_depth=0, n_classes=2))
        assert tree.predict(np.array([[0.5]]))[0] == 1

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_tree(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyInput):
            fit_tree(np.ones((3, 1)), np.array([0, 1, 0]), np.zeros(3))

    def test_argmax_tie_break_lowest_class(self):
        X = np.array([[0.0], [0.0]])
        y = np.array([1, 2])
        tree = fit_tree(X, y, params=TreeParams(n_classes=3))
        assert tree.predict(np.array([[0.0]]))[0] == 1  # tie between 1 and 2

    def test_regression_tree_fits_means(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        t = np.array([1.0, 1.0, 5.0, 5.0])
        tree = fit_tree(X, t, params=TreeParams(task="regression"))
        np.testing.assert_allclose(tree.predict(X), t)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, 30)
        tree = fit_tree(X, y, params=TreeParams(max_depth=3))
        clone = DecisionTree.from_dict(tree.to_dict(), 3, 2)
        np.testing.assert_array_equal(tree.predict(X), clone.predict(X))
        np.testing.assert_array_equal(tree.threshold, clone.threshold)


# --- reference: per-node, per-feature argsort split search -------------------------------


def _ref_gini(counts, total):
    return 1.0 - ((counts / total[..., None]) ** 2).sum(axis=-1)


def _ref_split_classification(X, class_w, rows, candidates, min_leaf):
    node_w = class_w[rows]
    total_counts = node_w.sum(axis=0)
    total = total_counts.sum()
    parent = float(_ref_gini(total_counts, np.asarray(total)))
    n = rows.shape[0]
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for f in candidates:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        cuts = np.flatnonzero(sv[:-1] < sv[1:])
        if cuts.size == 0:
            continue
        cum = np.cumsum(node_w[order], axis=0)
        left_counts = cum[cuts]
        right_counts = total_counts - left_counts
        n_left = cuts + 1
        valid = (n_left >= min_leaf) & (n - n_left >= min_leaf)
        if not valid.any():
            continue
        left_total = left_counts.sum(axis=1)
        right_total = total - left_total
        gains = parent - (left_total * _ref_gini(left_counts, left_total)
                          + right_total * _ref_gini(right_counts, right_total)) / total
        gains = np.where(valid, gains, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feature = int(f)
            best_threshold = float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2.0)
    return best_gain, best_feature, best_threshold


def _ref_split_regression(X, t, w, rows, candidates, min_leaf):
    tw = t[rows] * w[rows]
    t2w = t[rows] * tw
    W = float(w[rows].sum())
    S1 = float(tw.sum())
    S2 = float(t2w.sum())
    parent_sse = S2 - S1 * S1 / W
    n = rows.shape[0]
    min_gain = 1e-12 * max(1.0, abs(parent_sse))
    best_gain, best_feature, best_threshold = min_gain, -1, 0.0
    for f in candidates:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        cuts = np.flatnonzero(sv[:-1] < sv[1:])
        if cuts.size == 0:
            continue
        cw = np.cumsum(w[rows][order])
        c1 = np.cumsum(tw[order])
        c2 = np.cumsum(t2w[order])
        wl, s1l, s2l = cw[cuts], c1[cuts], c2[cuts]
        wr, s1r, s2r = W - wl, S1 - s1l, S2 - s2l
        n_left = cuts + 1
        valid = (n_left >= min_leaf) & (n - n_left >= min_leaf) & (wl > 0) & (wr > 0)
        if not valid.any():
            continue
        sse = (s2l - s1l * s1l / wl) + (s2r - s1r * s1r / wr)
        gains = np.where(valid, parent_sse - sse, -np.inf)
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feature = int(f)
            best_threshold = float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2.0)
    return best_gain, best_feature, best_threshold


def reference_fit_tree(X, y, sample_weights=None, params=TreeParams(), rng=None, features_per_split=None):
    """fit_tree as it was before the presorted search: every node sorts every
    candidate feature with a stable argsort."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    classification = params.task == "classification"
    if classification:
        y = np.asarray(y).astype(np.int64)
        n_classes = params.n_classes if params.n_classes is not None else int(y.max()) + 1
        class_w = np.zeros((n, n_classes))
        class_w[np.arange(n), y] = w
    else:
        t = np.asarray(y).astype(float)
    feature_, threshold_, left_, right_, leaf_counts_, leaf_score_ = [], [], [], [], [], []

    def new_node():
        feature_.append(-1)
        threshold_.append(0.0)
        left_.append(-1)
        right_.append(-1)
        if classification:
            leaf_counts_.append(np.zeros(n_classes))
        else:
            leaf_score_.append(0.0)
        return len(feature_) - 1

    stack = [(new_node(), np.arange(n), 0)]
    while stack:
        node, rows, depth = stack.pop()
        if classification:
            leaf_counts_[node] = class_w[rows].sum(axis=0)
        else:
            wr = w[rows]
            leaf_score_[node] = float((t[rows] * wr).sum() / wr.sum())
        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if rows.shape[0] < 2 * params.min_samples_leaf or rows.shape[0] < 2:
            continue
        if features_per_split is not None and features_per_split < d:
            candidates = np.sort(rng.choice(d, size=features_per_split, replace=False))
        else:
            candidates = np.arange(d)
        if classification:
            _, f, thr = _ref_split_classification(X, class_w, rows, candidates, params.min_samples_leaf)
        else:
            _, f, thr = _ref_split_regression(X, t, w, rows, candidates, params.min_samples_leaf)
        if f == -1:
            continue
        go_left = X[rows, f] <= thr
        feature_[node] = f
        threshold_[node] = thr
        left_child, right_child = new_node(), new_node()
        left_[node], right_[node] = left_child, right_child
        stack.append((right_child, rows[~go_left], depth + 1))
        stack.append((left_child, rows[go_left], depth + 1))

    return DecisionTree(
        feature=np.asarray(feature_, dtype=np.int64),
        threshold=np.asarray(threshold_, dtype=float),
        left=np.asarray(left_, dtype=np.int64),
        right=np.asarray(right_, dtype=np.int64),
        leaf_class_counts=np.stack(leaf_counts_) if classification else None,
        leaf_score=np.asarray(leaf_score_) if not classification else None,
        params=TreeParams(params.max_depth, params.min_samples_leaf, params.task,
                          n_classes if classification else None),
    )


def random_case(rng):
    """A small fit problem mixing the cases the presorted search must not
    change: heavy ties, duplicate rows, constant and all-but-one-constant
    columns, zero weights, leaf size, depth and feature subsampling."""
    n = int(rng.integers(1, 80))
    d = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        X = rng.integers(0, int(rng.integers(1, 5)), size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    if rng.random() < 0.3:  # duplicate rows
        X = X[rng.integers(0, max(1, n // 3), size=n)]
    for f in range(d):
        roll = rng.random()
        if roll < 0.2:
            X[:, f] = 7.0
        elif roll < 0.35:
            X[:, f] = -1.0
            X[rng.integers(0, n), f] = 2.0
    weights = None
    if rng.random() < 0.5:
        weights = rng.random(n) * rng.integers(0, 3, size=n)  # about a third zero
        weights[rng.integers(0, n)] = 0.5
    if rng.random() < 0.5:
        n_classes = int(rng.integers(2, 5))
        y = rng.integers(0, n_classes, size=n)
        params = TreeParams(n_classes=n_classes if rng.random() < 0.5 else None)
    else:
        y = rng.normal(size=n) if rng.random() < 0.5 else rng.integers(0, 3, size=n).astype(float)
        params = TreeParams(task="regression")
    max_depth = None if rng.random() < 0.5 else int(rng.integers(0, 5))
    params = TreeParams(max_depth, int(rng.integers(1, 5)), params.task, params.n_classes)
    features_per_split = int(rng.integers(1, d + 1)) if rng.random() < 0.5 else None
    return X, y, weights, params, features_per_split


class TestPresortedSearchEquivalence:
    @pytest.mark.parametrize("part", range(5))
    def test_same_tree_as_per_node_argsort(self, part, monkeypatch):
        """Also checks the leaves grow_tree returns against apply, and runs a
        third of the cases with one candidate per search block and a third
        with a few, so the cross-block tie rule is exercised."""
        rng = np.random.default_rng(9000 + part)
        budgets = [tree_module._BLOCK_ELEMENTS, 1, 100]
        for case in range(50):
            X, y, weights, params, fps = random_case(rng)
            split_seed = int(rng.integers(1 << 30))
            monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", budgets[case % 3])
            with np.errstate(divide="ignore", invalid="ignore"):
                got, leaves = grow_tree(X, y, weights, params, np.random.default_rng(split_seed), fps)
                want = reference_fit_tree(X, y, weights, params, np.random.default_rng(split_seed), fps)
            assert got.to_dict() == want.to_dict(), f"part {part} case {case}"
            assert np.array_equal(leaves, got.apply(X)), f"part {part} case {case}"


# --- stacked descent against the level-synchronous one-tree walk -------------------------


def reference_apply(tree, X):
    """DecisionTree.apply as it was before the stacked descent: one tree,
    level-synchronous over the rows that are still at a split node."""
    X = np.asarray(X, dtype=float)
    out = np.zeros(X.shape[0], dtype=np.int64)
    active = np.flatnonzero(tree.feature[out] != -1)
    while active.size:
        nodes = out[active]
        go_left = X[active, tree.feature[nodes]] <= tree.threshold[nodes]
        out[active] = np.where(go_left, tree.left[nodes], tree.right[nodes])
        active = active[tree.feature[out[active]] != -1]
    return out


def random_tree(rng, d, max_depth, regression=False, n_classes=3):
    """A random tree of depth at most max_depth over d features, numbered
    depth-first or breadth-first (children always above their parent), with
    integer thresholds so that integer inputs often equal one."""
    feature, threshold, left, right = [], [], [], []
    pending = [(0, 0)]
    feature.append(-1), threshold.append(0.0), left.append(-1), right.append(-1)
    breadth_first = rng.random() < 0.5
    while pending:
        node, depth = pending.pop(0 if breadth_first else -1)
        if depth >= max_depth or rng.random() < 0.25:
            continue
        feature[node] = int(rng.integers(0, d))
        threshold[node] = float(rng.integers(-3, 4))
        for side in (left, right):
            side[node] = len(feature)
            feature.append(-1), threshold.append(0.0), left.append(-1), right.append(-1)
        pending += [(left[node], depth + 1), (right[node], depth + 1)]
    n = len(feature)
    return DecisionTree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        leaf_class_counts=None if regression else rng.integers(0, 4, size=(n, n_classes)).astype(float),
        leaf_score=rng.normal(size=n) if regression else None,
        params=TreeParams(task="regression") if regression else TreeParams(n_classes=n_classes),
    )


def random_inputs(rng, n, d):
    """Integer inputs (often equal to a threshold), a few NaNs and infinities."""
    X = rng.integers(-4, 5, size=(n, d)).astype(float)
    X[rng.random(size=(n, d)) < 0.1] = np.nan
    X[rng.random(size=(n, d)) < 0.02] = np.inf
    X[rng.random(size=(n, d)) < 0.02] = -np.inf
    return X


@contextlib.contextmanager
def within_seconds(seconds):
    """Fail the block with TimeoutError once it has run for `seconds`, so
    that a hang is a test failure."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestStackedDescent:
    def test_apply_matches_level_synchronous_walk(self):
        rng = np.random.default_rng(77)
        depths = set()
        for case in range(200):
            d = int(rng.integers(1, 6))
            tree = random_tree(rng, d, int(rng.integers(0, 13)), regression=case % 2 == 1)
            X = random_inputs(rng, int(rng.integers(0, 300)), d)
            got = tree.apply(X)
            assert got.dtype == np.int64 and np.array_equal(got, reference_apply(tree, X)), case
            depths.add(stack_trees([tree]).depth)
        assert {0, 1}.issubset(depths) and max(depths) >= 10

    def test_threshold_ties_go_left_and_nan_goes_right(self):
        tree = DecisionTree(np.array([0, -1, -1]), np.array([2.0, 0.0, 0.0]), np.array([1, -1, -1]),
                            np.array([2, -1, -1]), None, np.zeros(3), TreeParams(task="regression"))
        leaves = tree.apply(np.array([[2.0], [np.nextafter(2.0, 3.0)], [np.nan], [-np.inf], [np.inf]]))
        assert leaves.tolist() == [tree.left[0], tree.right[0], tree.right[0], tree.left[0], tree.right[0]]

    @pytest.mark.parametrize("block_elements", [1, 7, 60, 1 << 16])
    def test_stacked_blocks_match_each_tree(self, block_elements, monkeypatch):
        """Every tree of a stack lands where it lands alone, at row counts
        around the block size; blocks cover the rows in order and stay
        within the element bound."""
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(block_elements)
        for case in range(12):
            d = int(rng.integers(1, 5))
            trees = [random_tree(rng, d, int(rng.integers(0, 13))) for _ in range(int(rng.integers(1, 9)))]
            table = stack_trees(trees)
            step = max(1, block_elements // len(trees))
            for n in sorted({0, 1, max(0, step - 1), step, step + 1, 2 * step + 1}):
                X = random_inputs(rng, n, d)
                leaves, covered = np.zeros((len(trees), n), dtype=np.int64), 0
                for rows, block in table.leaf_blocks(X):
                    assert rows.start == covered and block.shape == (len(trees), rows.stop - rows.start)
                    assert block.size <= max(block_elements, len(trees))
                    leaves[:, rows], covered = block, rows.stop
                assert covered == n
                for t, tree in enumerate(trees):
                    assert np.array_equal(leaves[t] - table.roots[t], reference_apply(tree, X)), (case, n, t)

    def test_no_trees_and_zero_rows(self):
        table = stack_trees([])
        blocks = list(table.leaf_blocks(np.zeros((3, 2))))
        assert [block.shape for _, block in blocks] == [(0, 3)]
        assert list(stack_trees([random_tree(np.random.default_rng(1), 2, 4)]).leaf_blocks(np.zeros((0, 2)))) == []

    @pytest.mark.parametrize("feature, left, right", [
        ([0], [-1], [-1]),  # a split node whose children are the last node of the table: itself
        ([0, -1, -1], [1, -1, -1], [0, -1, -1]),  # a child that is its parent
        ([0, 0, -1], [2, -1, -1], [1, 0, -1]),  # a child below its parent
        ([0, -1, -1], [1, -1, -1], [3, -1, -1]),  # a child past the tree's last node
    ])
    def test_hand_built_tree_with_bad_child_ids_is_rejected(self, feature, left, right):
        n = len(feature)
        tree = DecisionTree(np.array(feature), np.zeros(n), np.array(left), np.array(right), None, np.zeros(n),
                            TreeParams(task="regression"))
        good = random_tree(np.random.default_rng(3), 1, 4, regression=True)
        with within_seconds(5):  # such a tree once made the descent loop forever
            for trees in ([tree], [good, tree], [tree, good]):
                with pytest.raises(ModelDataMismatch):
                    stack_trees(trees)
            with pytest.raises(ModelDataMismatch):
                tree.apply(np.zeros((2, 1)))

    def test_narrower_input_than_split_features_is_width_mismatch(self):
        tree = DecisionTree(np.array([3, -1, -1]), np.zeros(3), np.array([1, -1, -1]),
                            np.array([2, -1, -1]), None, np.zeros(3), TreeParams(task="regression"))
        with pytest.raises(WidthMismatch):
            tree.apply(np.zeros((2, 3)))


def reference_forest_proba(model, X):
    votes = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        votes[np.arange(X.shape[0]), tree.predict_from_leaves(reference_apply(tree, X))] += 1.0
    return votes / len(model.trees)


def reference_gbm_proba(model, X):
    F = np.zeros((X.shape[0], model.n_classes))
    for round_trees in model.rounds[: model.best_round + 1]:
        for c, tree in enumerate(round_trees):
            F[:, c] += model.learning_rate * tree.leaf_score[reference_apply(tree, X)]
    return softmax(F)


def reference_adaboost(model, X):
    scores = np.zeros((X.shape[0], model.n_classes))
    for tree, alpha in model.stages:
        scores[np.arange(X.shape[0]), tree.predict_from_leaves(reference_apply(tree, X))] += alpha
    return np.argmax(scores, axis=1)


_WORKLOADS = json.loads((Path(__file__).parents[1] / "perfbench" / "workloads.json").read_text())
# the criterion-11 run of test_acceptance, with ada added; and the two multiclass bench configs
_RUNS = {
    "criterion_11": (
        {"task": "binary", "rows_per_class": 100, "seed": 21},
        {"task": "binary", "per_class": 80, "seed": 13, "split": [0.7, 0.2, 0.1],
         "model_params": {"rf": {"n_trees": 8, "max_depth": 5}, "gbm": {"max_rounds": 6, "max_depth": 3}}},
    ),
    **{name: (dict(_WORKLOADS[name]["data"], seed=6), dict(_WORKLOADS[name]["config"], seed=3))
       for name in ("train_multiclass", "score_flows")},
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """name -> (rf, gbm and ada bundles, the featurized training data), each
    trained through the CLI."""
    root = tmp_path_factory.mktemp("descent")
    out = {}
    for name, (spec, config) in _RUNS.items():
        (root / f"{name}_spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(root / f"{name}_spec.json"), "--out", str(root / f"{name}_data")]) == 0
        config = dict(config, config_version=1, models=["rf", "gbm", "ada"], cv_folds=0)
        (root / f"{name}_config.json").write_text(json.dumps(config))
        assert main(["train", "--config", str(root / f"{name}_config.json"), "--data", str(root / f"{name}_data"),
                     "--out", str(root / name)]) == 0
        bundles = {kind: load_bundle(root / name / "models" / f"{kind}.json") for kind in ("rf", "gbm", "ada")}
        X = bundles["rf"].featurize(read_labeled_dir(root / f"{name}_data").table)
        out[name] = bundles, X
    return out


def with_ties_and_nans(X, trees, rng):
    """X with a third of its rows set, at one split of one tree, exactly to
    that split's threshold, and a few cells NaN."""
    X = X.copy()
    for row in rng.choice(X.shape[0], X.shape[0] // 3, replace=False):
        tree = trees[int(rng.integers(0, len(trees)))]
        splits = np.flatnonzero(tree.feature >= 0)
        if splits.size:
            node = splits[int(rng.integers(0, splits.size))]
            X[row, tree.feature[node]] = tree.threshold[node]
    X[rng.random(size=X.shape) < 0.01] = np.nan
    return X


class TestModelsMatchTreeByTreePrediction:
    @pytest.mark.parametrize("name", list(_RUNS))
    def test_bitwise_equal_outputs(self, trained, name):
        bundles, X = trained[name]
        rf, gbm, ada = (bundles[kind].model for kind in ("rf", "gbm", "ada"))
        assert len(rf.trees) > 1 and len(gbm.rounds) > 1 and ada.stages
        trees = rf.trees + [t for rnd in gbm.rounds for t in rnd] + [t for t, _ in ada.stages]
        for inputs in (X, with_ties_and_nans(X, trees, np.random.default_rng(5))):
            assert rf.predict_proba(inputs).tobytes() == reference_forest_proba(rf, inputs).tobytes()
            assert gbm.predict_proba(inputs).tobytes() == reference_gbm_proba(gbm, inputs).tobytes()
            assert ada.predict(inputs).tobytes() == reference_adaboost(ada, inputs).tobytes()
            assert rf.predict(inputs).tobytes() == np.argmax(reference_forest_proba(rf, inputs), axis=1).tobytes()
            assert gbm.predict(inputs).tobytes() == np.argmax(reference_gbm_proba(gbm, inputs), axis=1).tobytes()

    def test_best_round_and_zero_rounds(self, trained):
        bundles, X = trained["score_flows"]
        gbm = bundles["gbm"].model
        for best_round in range(len(gbm.rounds)):
            cut = GbmModel(gbm.rounds, gbm.learning_rate, best_round, gbm.n_classes, gbm.n_features, gbm.params)
            assert cut.predict_proba(X).tobytes() == reference_gbm_proba(cut, X).tobytes()
        empty = GbmModel([], gbm.learning_rate, 0, gbm.n_classes, gbm.n_features, gbm.params)
        assert empty.predict_proba(X).tobytes() == np.full((X.shape[0], 7), 1 / 7).tobytes()
