"""Greedy top-down CART decision tree on dense numpy matrices.

Classification splits maximize weighted Gini impurity gain; regression
splits maximize weighted squared-error reduction.  Candidate thresholds are
midpoints between consecutive distinct sorted feature values; ties in gain
break toward the lowest feature index, then the lowest threshold, so an
exhaustive brute-force split search reproduces the choice exactly.  Rows go
left when x[feature] <= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..errors import EmptyInput, WidthMismatch

_NO_CHILD = -1


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
        """Leaf node id for every row (level-synchronous vectorized descent)."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0], dtype=np.int64)
        active = np.flatnonzero(self.feature[out] != _NO_CHILD)
        while active.size:
            nodes = out[active]
            go_left = X[active, self.feature[nodes]] <= self.threshold[nodes]
            out[active] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = active[self.feature[out[active]] != _NO_CHILD]
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class labels (argmax of leaf counts, ties to the lowest class index)
        for classification; leaf scores for regression."""
        leaves = self.apply(X)
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
    def from_dict(cls, d: dict) -> "DecisionTree":
        return cls(
            feature=np.asarray(d["feature"], dtype=np.int64),
            threshold=np.asarray(d["threshold"], dtype=float),
            left=np.asarray(d["left"], dtype=np.int64),
            right=np.asarray(d["right"], dtype=np.int64),
            leaf_class_counts=None
            if d["leaf_class_counts"] is None
            else np.asarray(d["leaf_class_counts"], dtype=float),
            leaf_score=None if d["leaf_score"] is None else np.asarray(d["leaf_score"], dtype=float),
            params=TreeParams(**d["params"]),
        )


def _gini(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    return 1.0 - ((counts / total[..., None]) ** 2).sum(axis=-1)


def _best_split_classification(
    X: np.ndarray,
    class_w: np.ndarray,
    rows: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float]:
    """Best (gain, feature, threshold) over candidate features; gain 0 if none."""
    node_w = class_w[rows]
    total_counts = node_w.sum(axis=0)
    total = total_counts.sum()
    parent = float(_gini(total_counts, np.asarray(total)))
    n = rows.shape[0]

    best_gain, best_feature, best_threshold = 0.0, _NO_CHILD, 0.0
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
        gains = parent - (left_total * _gini(left_counts, left_total)
                          + right_total * _gini(right_counts, right_total)) / total
        gains = np.where(valid, gains, -np.inf)
        j = int(np.argmax(gains))  # first max -> lowest threshold
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_feature = int(f)
            best_threshold = float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2.0)
    return best_gain, best_feature, best_threshold


def _best_split_regression(
    X: np.ndarray,
    t: np.ndarray,
    w: np.ndarray,
    rows: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[float, int, float]:
    tw = t[rows] * w[rows]
    t2w = t[rows] * tw
    W = float(w[rows].sum())
    S1 = float(tw.sum())
    S2 = float(t2w.sum())
    parent_sse = S2 - S1 * S1 / W
    n = rows.shape[0]
    # float cancellation makes "zero" gains slightly noisy on regression targets
    min_gain = 1e-12 * max(1.0, abs(parent_sse))

    best_gain, best_feature, best_threshold = min_gain, _NO_CHILD, 0.0
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


def fit_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_weights: np.ndarray | None = None,
    params: TreeParams = TreeParams(),
    rng: np.random.Generator | None = None,
    features_per_split: int | None = None,
) -> DecisionTree:
    """Grow a tree; stops at max_depth, min_samples_leaf, or zero gain.

    features_per_split (with rng) re-draws that many candidate features,
    without replacement, at every split; both default to using all features.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyInput("fit_tree needs at least one row")
    n, d = X.shape
    if y.shape[0] != n:
        raise WidthMismatch(n, y.shape[0])
    w = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    if (w < 0).any() or not (w > 0).any():
        raise EmptyInput("sample weights must be non-negative and not all zero")

    classification = params.task == "classification"
    if classification:
        y = y.astype(np.int64)
        n_classes = params.n_classes if params.n_classes is not None else int(y.max()) + 1
        class_w = np.zeros((n, n_classes))
        class_w[np.arange(n), y] = w
    else:
        t = y.astype(float)

    features = np.arange(d)
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
            if rng is None:
                raise ValueError("features_per_split needs an rng")
            chosen = rng.choice(d, size=features_per_split, replace=False)
            candidates = np.sort(chosen)
        else:
            candidates = features

        if classification:
            gain, f, thr = _best_split_classification(
                X, class_w, rows, candidates, params.min_samples_leaf
            )
        else:
            gain, f, thr = _best_split_regression(
                X, t, w, rows, candidates, params.min_samples_leaf
            )
        if f == _NO_CHILD:
            continue

        go_left = X[rows, f] <= thr
        feature_[node] = f
        threshold_[node] = thr
        left_child, right_child = new_node(), new_node()
        left_[node], right_[node] = left_child, right_child
        # push right first so the left subtree is processed (and numbered) first
        stack.append((right_child, rows[~go_left], depth + 1))
        stack.append((left_child, rows[go_left], depth + 1))

    return DecisionTree(
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
