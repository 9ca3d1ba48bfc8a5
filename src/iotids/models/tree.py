"""Greedy top-down CART decision tree on dense numpy matrices.

Classification splits maximize weighted Gini impurity gain; regression
splits maximize weighted squared-error reduction.  Candidate thresholds are
midpoints between consecutive distinct sorted feature values; ties in gain
break toward the lowest feature index, then the lowest threshold, so an
exhaustive brute-force split search reproduces the choice exactly.  Rows go
left when x[feature] <= threshold.

The search is exact and presorted (SLIQ; Mehta, Agrawal & Rissanen, EDBT
1996): the row ids of a fit matrix are sorted once per varying column, and
each split hands every child its share of those sorted rows by a stable
partition, so no node sorts.  Gains are evaluated at cut positions only, for
a block of candidate features at a time; a block holds at most
_BLOCK_ELEMENTS node rows x classes, so a large node is searched a few
features at a time and the search's temporaries stay O(node rows x classes).
A node's rows stay in ascending row order, so every sum adds its terms in the
order a per-node stable sort would.

The search does the least numpy work that gives those same sums.  Cuts are
found with one flat np.flatnonzero over the block's candidates x positions,
only at positions that leave min_samples_leaf rows on each side, and each
cut's prefix sums are read with one flat take; the first maximum of the
candidate-major gains is the chosen cut, and a NaN gain rules out its
candidate.  With unit weights (no sample_weights) a left weight is its row
count, exactly what a prefix sum of ones gives, so none is summed.  A
classification node with weight in one class only is not searched: each of
its gains is 0.0 or NaN, never above the 0.0 floor.  It still draws its
candidate features, so every later node draws what it would have.

Prediction descends all trees of a model together (stack_trees): the trees
are concatenated into one flat node table, and each block of rows moves
every tree one level down per step, a vectorised, predicated traversal
(Asadi, Lin & de Vries, IEEE TKDE 2014).  DecisionTree.apply is its
one-tree case.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import EmptyInput, ModelDataMismatch, WidthMismatch
from ..jsontypes import bundle_field, bundle_float_array

_NO_CHILD = -1
# bound on candidates x node rows (x classes) per temporary of the split search
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class TreeParams:
    max_depth: int | None = None
    min_samples_leaf: int = 1
    task: str = "classification"  # or "regression"
    n_classes: int | None = None  # inferred from y when None


@dataclass
class DecisionTree:
    feature: np.ndarray  # split feature per node; -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_class_counts: np.ndarray | None  # nodes x C, weighted; classification only
    leaf_score: np.ndarray | None  # per node; regression only
    params: TreeParams = dc_field(default_factory=TreeParams)

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for every row: the one-tree case of NodeTable.leaf_blocks."""
        X = np.asarray(X, dtype=float)
        out = np.empty(X.shape[0], dtype=np.int64)
        for rows, leaves in stack_trees([self]).leaf_blocks(X):
            out[rows] = leaves[0]
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels (argmax of leaf counts, ties to the lowest class index)
        for classification; leaf scores for regression."""
        return self.predict_from_leaves(self.apply(X))

    def predict_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        """predict, given each row's leaf node id."""
        if self.params.task == "classification":
            return np.argmax(self.leaf_class_counts[leaves], axis=1)
        return self.leaf_score[leaves]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "leaf_class_counts": None
            if self.leaf_class_counts is None
            else self.leaf_class_counts.tolist(),
            "leaf_score": None if self.leaf_score is None else self.leaf_score.tolist(),
            "params": {
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "task": self.params.task,
                "n_classes": self.params.n_classes,
            },
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int, n_classes: int | None) -> "DecisionTree":
        """A bundled tree of a model over n_features columns: a classification
        tree over n_classes classes, or a regression tree when n_classes is
        None.  Arrays that do not fit together, or child ids that could send
        a descent outside the tree or round a loop, make the bundle malformed."""
        params = TreeParams(**bundle_field(d, "params", TreeParams))
        task = "regression" if n_classes is None else "classification"
        if params.task != task or params.n_classes != n_classes:
            raise ModelDataMismatch(
                f"expected a {task} tree over {n_classes} classes, got {params.task} over {params.n_classes}"
            )
        feature, left, right = (_int_array(d, key) for key in ("feature", "left", "right"))
        threshold = bundle_float_array(d, "threshold")
        n = feature.shape[0]
        if n == 0 or not (threshold.shape == left.shape == right.shape == (n,)):
            raise ModelDataMismatch(
                f"tree arrays must have one entry per node, got {n}, {len(threshold)}, {len(left)}, {len(right)}"
            )
        leaf = feature == _NO_CHILD
        ids = np.arange(n)
        if not ((left[leaf] == _NO_CHILD) & (right[leaf] == _NO_CHILD)).all():
            raise ModelDataMismatch("a tree leaf has a child")
        split = ~leaf
        if not ((ids[split] < left[split]) & (ids[split] < right[split])
                & (left[split] < n) & (right[split] < n)).all():
            raise ModelDataMismatch(f"a tree node's child id is not above its own and below {n}")
        if not ((feature[split] >= 0) & (feature[split] < n_features)).all():
            raise ModelDataMismatch(f"a tree splits on a feature outside [0, {n_features})")
        if n_classes is None:
            key, unused, shape = "leaf_score", "leaf_class_counts", (n,)
        else:
            key, unused, shape = "leaf_class_counts", "leaf_score", (n, n_classes)
        values = bundle_float_array(d, key)
        if values.shape != shape or d[unused] is not None:
            raise ModelDataMismatch(f"a {task} tree of {n} nodes needs {key} of shape {shape} and {unused} null")
        counts, scores = (None, values) if n_classes is None else (values, None)
        return cls(feature, threshold, left, right, counts, scores, params)


def _int_array(d: dict, key: str) -> np.ndarray:
    """d[key] as a 1-D int64 array; a list of anything but ints is malformed."""
    values = np.asarray(d[key])
    if values.ndim != 1 or (values.size and values.dtype.kind != "i"):
        raise ModelDataMismatch(f"bundle field {key!r} must be a list of ints")
    return values.astype(np.int64)


@dataclass(frozen=True)
class NodeTable:
    """Trees concatenated into one flat node table, descended together.

    Tree t's node i is node roots[t] + i of the table.  A leaf splits on
    feature 0 at +inf and both its children are itself, so a row that has
    reached a leaf stays there: x <= inf goes left, and NaN goes right.
    """

    roots: np.ndarray  # per tree, the table id of its root
    feature: np.ndarray  # per node
    threshold: np.ndarray  # per node
    children: np.ndarray  # nodes x [left, right]
    value: np.ndarray  # per node: what predict gives for a row at that leaf
    depth: int  # splits on the longest root-to-leaf path
    width: int  # columns X needs: 1 + the highest split feature

    def leaf_blocks(self, X: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """(rows, leaves) for consecutive blocks of rows of X: rows is a
        slice, and leaves[t] the table id of tree t's leaf for each of those
        rows (trees x rows).  A block holds at most _BLOCK_ELEMENTS trees x
        rows, so the descent's temporaries stay bounded whatever X's size.
        Each of `depth` steps moves every (tree, row) pair one level down,
        with one take each of split feature, input value and threshold."""
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        if d < self.width:
            raise WidthMismatch(self.width, d)
        # the descent tracks slots, 2 * node + (x <= threshold): slot 2i + 1
        # leads to node i's left child and slot 2i to its right one, and
        # next_slot holds each child's first slot, so one step is one add
        feature, threshold = np.repeat(self.feature, 2), np.repeat(self.threshold, 2)
        next_slot = 2 * self.children[:, ::-1].ravel()
        step = max(1, _BLOCK_ELEMENTS // max(1, self.roots.shape[0]))
        for start in range(0, n, step):
            block = np.ascontiguousarray(X[start:start + step])
            row_start = np.arange(block.shape[0]) * d
            slots = np.repeat(2 * self.roots[:, None], block.shape[0], axis=1)
            for _ in range(self.depth):
                x = np.take(block, row_start + feature[slots])
                slots = next_slot[slots + (x <= threshold[slots])]
            yield slice(start, start + block.shape[0]), slots >> 1


def stack_trees(trees: list[DecisionTree]) -> NodeTable:
    """The NodeTable of trees, in their order."""
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes

    def concat(arrays: list[np.ndarray], dtype=np.int64) -> np.ndarray:
        return np.concatenate([np.zeros(0, dtype)] + arrays)  # also for no trees

    feature = concat([tree.feature for tree in trees])
    split = feature != _NO_CHILD
    children = np.stack([concat([tree.left for tree in trees]), concat([tree.right for tree in trees])], axis=1)
    children += np.repeat(roots, sizes)[:, None]
    ids = np.arange(feature.shape[0])[:, None]
    # a child at or below its parent would make the depth search below loop forever
    if not ((ids < children) & (children < np.repeat(roots + sizes, sizes)[:, None]))[split].all():
        raise ModelDataMismatch("a tree node's child id is not above its own and below its tree's size")
    children = np.where(split[:, None], children, ids)
    depth, level = 0, np.zeros(feature.shape[0], dtype=bool)  # split nodes at depth `depth`
    level[roots] = True
    level &= split
    while level.any():
        depth += 1
        reached = np.zeros_like(level)
        reached[children[level]] = True
        level = reached & split
    return NodeTable(
        roots=roots,
        feature=np.where(split, feature, 0),
        threshold=np.where(split, concat([tree.threshold for tree in trees], float), np.inf),
        children=children,
        value=concat([tree.predict_from_leaves(np.arange(tree.n_nodes)) for tree in trees]),
        depth=depth,
        width=int(feature.max(initial=-1)) + 1,
    )


@dataclass(frozen=True)
class Presort:
    """Row ids of one fit matrix, sorted once by each column that varies.

    order[i] holds every row id, stably sorted by column features[i], and
    values[i] is that column.  A column constant over the whole matrix has
    no cut at any node, so it is left out.
    """

    features: np.ndarray  # varying column ids, ascending
    values: np.ndarray  # len(features) x n, C-contiguous
    order: np.ndarray  # len(features) x n row ids (int32 below 2**31 rows)


def presort(X: np.ndarray) -> Presort:
    """The Presort of fit matrix X."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    ids = np.int32 if n < 2**31 else np.int64
    features, orders = [], []
    for f in range(X.shape[1]):  # a column at a time keeps the transient at n ids
        order = np.argsort(X[:, f], kind="stable")
        sv = X[order, f]
        if (sv[:-1] < sv[1:]).any():
            features.append(f)
            orders.append(order.astype(ids))
    features = np.asarray(features, dtype=np.int64)
    return Presort(
        features,
        np.ascontiguousarray(X[:, features].T),
        np.asarray(orders, dtype=ids).reshape(features.shape[0], n),
    )


def _gini(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    return 1.0 - ((counts / total[..., None]) ** 2).sum(axis=-1)


def _sorted_cuts(values: np.ndarray, order: np.ndarray, candidates: np.ndarray, min_leaf: int):
    """Each candidate's sorted node values (candidates x m), and the cuts:
    the places whose next sorted value is larger, the only places a split
    can go, that leave at least min_leaf rows on each side.  Cuts come
    candidate-major; for each this returns its candidate (a row of the
    block), its flat index into candidates x m (where its prefix sums sit)
    and its position, one less than its left row count.  candidates are
    rows of values (a flat take is faster than X[order, f], and
    np.flatnonzero than a 2-D np.nonzero)."""
    m, leaf = order.shape[1], max(min_leaf, 1)
    sv = np.take(values, candidates[:, None] * values.shape[1] + order)
    lo, hi = leaf - 1, m - leaf  # the positions that leave `leaf` rows on each side
    cand, pos = np.divmod(np.flatnonzero(sv[:, lo:hi] < sv[:, lo + 1:hi + 1]), hi - lo)
    pos += lo
    return sv, cand, cand * m + pos, pos


def _best_cut(cut_gains, values: np.ndarray, order: np.ndarray, candidates: np.ndarray, min_leaf: int,
              row_elements: int, floor: float) -> tuple[int, float]:
    """(candidate, threshold) of the best cut, or (-1, 0.0) if none.

    cut_gains(order, at, pos) scores the cuts of a block of candidates,
    given the at and pos of _sorted_cuts.  A block holds at most
    _BLOCK_ELEMENTS // row_elements candidates.  The first maximum of the
    candidate-major gains wins: the lowest candidate, then its first
    position, whose gain is strictly above floor and above every lower
    candidate's.  A NaN gain rules out its whole candidate."""
    best_candidate, best_threshold = _NO_CHILD, 0.0
    step = max(1, _BLOCK_ELEMENTS // row_elements)
    for start in range(0, candidates.shape[0], step):
        block = order[start:start + step]
        sv, cand, at, pos = _sorted_cuts(values, block, candidates[start:start + step], min_leaf)
        if cand.size == 0:
            continue
        gains = cut_gains(block, at, pos)
        i = int(np.argmax(gains))
        if np.isnan(gains[i]):  # np.argmax stops at the first NaN
            ruled_out = np.bincount(cand[np.isnan(gains)], minlength=sv.shape[0]) > 0
            gains = np.where(ruled_out[cand], -np.inf, gains)
            i = int(np.argmax(gains))
        if gains[i] > floor:
            floor = gains[i]
            best_candidate = start + int(cand[i])
            best_threshold = float((sv.flat[at[i]] + sv.flat[at[i] + 1]) / 2.0)
    return best_candidate, best_threshold


def _best_split_classification(
    values: np.ndarray,
    class_w: np.ndarray,
    total_counts: np.ndarray,
    order: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
    unit_weights: bool,
) -> tuple[int, float]:
    """(candidate, threshold) of the best positive-gain split over the
    candidate rows of values, whose sorted node rows are the rows of order.
    unit_weights says every row weighs 1."""
    total = total_counts.sum()
    parent = float(_gini(total_counts, np.asarray(total)))
    n_classes = class_w.shape[1]

    def cut_gains(order, at, pos):
        prefix = np.cumsum(class_w.take(order, axis=0), axis=1)
        left_counts = prefix.reshape(-1, n_classes).take(at, axis=0)
        # a sum of ones is exactly its count
        left_total = pos + 1.0 if unit_weights else left_counts.sum(axis=1)
        right_total = total - left_total
        return parent - (left_total * _gini(left_counts, left_total)
                         + right_total * _gini(total_counts - left_counts, right_total)) / total

    return _best_cut(cut_gains, values, order, candidates, min_leaf, order.shape[1] * n_classes, 0.0)


def _best_split_regression(
    values: np.ndarray,
    w: np.ndarray | None,
    tw: np.ndarray,
    t2w: np.ndarray,
    sums: tuple[float, float, float],
    order: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[int, float]:
    """As _best_split_classification, for squared error; `sums` are the
    node's sums of w, t*w and t*t*w, and w is None when every row weighs 1."""
    W, S1, S2 = sums
    parent_sse = S2 - S1 * S1 / W
    # float cancellation makes "zero" gains slightly noisy on regression targets
    min_gain = 1e-12 * max(1.0, abs(parent_sse))

    def cut_gains(order, at, pos):
        def left_sums(x):
            return np.cumsum(x.take(order), axis=1).take(at)

        # a prefix sum of ones is exactly its count
        wl = pos + 1.0 if w is None else left_sums(w)
        s1l, s2l = left_sums(tw), left_sums(t2w)
        wr, s1r, s2r = W - wl, S1 - s1l, S2 - s2l
        gains = parent_sse - ((s2l - s1l * s1l / wl) + (s2r - s1r * s1r / wr))
        if w is None:
            return gains
        return np.where((wl > 0) & (wr > 0), gains, -np.inf)  # a side of weight 0 has no mean

    return _best_cut(cut_gains, values, order, candidates, min_leaf, order.shape[1], min_gain)


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weights: np.ndarray | None = None,
    params: TreeParams = TreeParams(),
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> DecisionTree:
    """Grow a tree on X; see grow_tree."""
    return grow_tree(X, y, sample_weights, params, rng, features_per_split)[0]


def grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weights: np.ndarray | None = None,
    params: TreeParams = TreeParams(),
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
    presorted: Presort | None = None,
) -> tuple[DecisionTree, np.ndarray]:
    """Grow a tree; stops at max_depth, min_samples_leaf, or zero gain.

    Returns the tree and the leaf of every training row (what tree.apply(X)
    gives).  features_per_split (with rng) re-draws that many candidate
    features, without replacement, at every split; both default to using
    all features.  presorted is presort(X), computed here when not given;
    boosting passes one presort to every tree it grows on the same X.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("fit_tree needs at least one row")
    n, d = X.shape
    if y.shape[0] != n:
        raise WidthMismatch(n, y.shape[0])
    unit_weights = sample_weights is None
    w = np.ones(n) if unit_weights else np.asarray(sample_weights, dtype=float)
    if (w < 0).any() or not (w > 0).any():
        raise EmptyInput("sample weights must be non-negative and not all zero")
    if presorted is None:
        presorted = presort(X)
    elif presorted.order.shape[1] != n:
        raise WidthMismatch(n, presorted.order.shape[1])

    classification = params.task == "classification"
    if classification:
        y = y.astype(np.int64)
        n_classes = params.n_classes if params.n_classes is not None else int(y.max()) + 1
        class_w = np.zeros((n, n_classes))
        class_w[np.arange(n), y] = w
        labels = np.arange(n_classes)[y]  # each row's column of class_w
    else:
        t = y.astype(float)
        tw = t * w
        t2w = t * tw

    all_presort_rows = np.arange(presorted.features.shape[0])
    leaves = np.zeros(n, dtype=np.int64)
    goes_left = np.zeros(n, dtype=bool)  # per split: the side of each node row
    feature_: list[int] = []
    threshold_: list[float] = []
    left_: list[int] = []
    right_: list[int] = []
    leaf_counts_: list[np.ndarray] = []
    leaf_score_: list[float] = []

    def new_node() -> int:
        feature_.append(_NO_CHILD)
        threshold_.append(0.0)
        left_.append(_NO_CHILD)
        right_.append(_NO_CHILD)
        if classification:
            leaf_counts_.append(np.zeros(n_classes))
        else:
            leaf_score_.append(0.0)
        return len(feature_) - 1

    # rows: the node's row ids, ascending; order: its rows of presorted.order
    stack = [(new_node(), np.arange(n), presorted.order, 0)]
    while stack:
        node, rows, order, depth = stack.pop()
        leaves[rows] = node
        if classification:
            if unit_weights:  # a sum of ones is exactly its count
                counts = np.bincount(labels.take(rows), minlength=n_classes).astype(float)
            else:
                counts = class_w.take(rows, axis=0).sum(axis=0)
            leaf_counts_[node] = counts
        else:
            weight = float(rows.shape[0]) if unit_weights else float(w.take(rows).sum())
            sums = (weight, float(tw.take(rows).sum()), float(t2w.take(rows).sum()))
            leaf_score_[node] = sums[1] / sums[0]

        if params.max_depth is not None and depth >= params.max_depth:
            continue
        if rows.shape[0] < 2 * params.min_samples_leaf or rows.shape[0] < 2:
            continue

        if features_per_split is not None and features_per_split < d:
            if rng is None:
                raise ValueError("features_per_split needs an rng")
            drawn = np.zeros(d, dtype=bool)
            drawn[rng.choice(d, size=features_per_split, replace=False)] = True
            candidates = np.flatnonzero(drawn.take(presorted.features))  # presort rows, ascending
            candidate_order = order.take(candidates, axis=0)
        else:
            candidates, candidate_order = all_presort_rows, order

        if classification:
            # one class (or none) has weight: every gain is 0.0 or NaN, never above
            # the 0.0 floor; the node has drawn, so later nodes draw as they did
            if np.count_nonzero(counts) < 2:
                continue
            best, thr = _best_split_classification(
                presorted.values, class_w, counts, candidate_order, candidates, params.min_samples_leaf,
                unit_weights,
            )
        else:
            best, thr = _best_split_regression(
                presorted.values, None if unit_weights else w, tw, t2w, sums, candidate_order, candidates,
                params.min_samples_leaf,
            )
        if best == _NO_CHILD:
            continue
        f = int(presorted.features[candidates[best]])

        go_left = presorted.values[candidates[best]].take(rows) <= thr  # X[rows, f]
        goes_left[rows] = go_left
        in_left = goes_left.take(order)
        n_left = np.count_nonzero(go_left)
        feature_[node] = f
        threshold_[node] = thr
        left_child, right_child = new_node(), new_node()
        left_[node], right_[node] = left_child, right_child
        # a stable partition keeps each child's rows of every feature sorted
        # (np.compress is several times faster than a 2-D boolean index);
        # push right first so the left subtree is processed (and numbered) first
        right_order = np.compress(~in_left.ravel(), order).reshape(order.shape[0], rows.shape[0] - n_left)
        left_order = np.compress(in_left.ravel(), order).reshape(order.shape[0], n_left)
        stack.append((right_child, rows.compress(~go_left), right_order, depth + 1))
        stack.append((left_child, rows.compress(go_left), left_order, depth + 1))

    tree = DecisionTree(
        feature=np.asarray(feature_, dtype=np.int64),
        threshold=np.asarray(threshold_, dtype=float),
        left=np.asarray(left_, dtype=np.int64),
        right=np.asarray(right_, dtype=np.int64),
        leaf_class_counts=np.stack(leaf_counts_) if classification else None,
        leaf_score=np.asarray(leaf_score_) if not classification else None,
        params=TreeParams(
            params.max_depth,
            params.min_samples_leaf,
            params.task,
            n_classes if classification else None,
        ),
    )
    return tree, leaves
