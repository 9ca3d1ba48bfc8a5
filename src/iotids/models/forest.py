"""Random forest: bagged CART trees with per-split feature subsampling."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import EmptyInput, ModelDataMismatch, WidthMismatch
from ..jsontypes import bundle_field
from ..parallel import forked_map
from .tree import DecisionTree, TreeParams, fit_tree, stack_trees


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None  # default ceil(sqrt(d))
    bootstrap: bool = True
    seed: int = 0


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    tree_seeds: list[list[int]]
    features_per_split: int
    n_classes: int
    n_features: int
    params: ForestParams

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Share of the trees voting for each class."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise WidthMismatch(self.n_features, X.shape[1] if X.ndim == 2 else -1)
        table = stack_trees(self.trees)

        def shares(X: np.ndarray) -> np.ndarray:
            votes = np.zeros((X.shape[0], self.n_classes))
            for rows, leaves in table.leaf_blocks(X):
                cells = table.value[leaves] * leaves.shape[1] + np.arange(leaves.shape[1])  # class-major
                votes[rows] = np.bincount(cells.ravel(), minlength=votes[rows].size).reshape(self.n_classes, -1).T
            return votes / len(self.trees)

        return np.concatenate(table.map_row_ranges(shares, X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Modal tree vote; ties go to the lowest class."""
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "tree_seeds": self.tree_seeds,
            "features_per_split": self.features_per_split,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestModel":
        n_classes = bundle_field(d, "n_classes", int)
        n_features = bundle_field(d, "n_features", int)
        trees = bundle_field(d, "trees", list)
        if not trees or n_classes < 2:
            raise ModelDataMismatch(f"a forest needs trees and two classes, got {len(trees)} trees, {n_classes} classes")
        return cls(
            trees=[DecisionTree.from_dict(t, n_features, n_classes) for t in trees],
            tree_seeds=bundle_field(d, "tree_seeds", list[list[int]]),
            features_per_split=bundle_field(d, "features_per_split", int),
            n_classes=n_classes,
            n_features=n_features,
            params=ForestParams(**bundle_field(d, "params", ForestParams)),
        )


def fit_random_forest(
    X: np.ndarray,
    y: np.ndarray,
    params: ForestParams = ForestParams(),
    bootstrap_indices: list[np.ndarray] | None = None,
    *,
    n_classes: int,
) -> ForestModel:
    """Train n_trees CARTs on seeded bootstrap samples of labels in
    [0, n_classes).

    Per-tree rngs derive from [seed, tree_index], so bootstraps and per-split
    feature draws are independent of row order and of the other trees.
    bootstrap_indices, when given, overrides the seeded draw (one index array
    per tree); used to pin samples in tests.  The trees are grown in forked
    children, one per usable CPU (parallel.forked_map); the model is the same
    whatever their number.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyInput("fit_random_forest needs at least one row")
    if params.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n, d = X.shape
    mtry = params.features_per_split if params.features_per_split is not None else math.ceil(math.sqrt(d))
    mtry = min(mtry, d)

    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf,
        task="classification",
        n_classes=n_classes,
    )
    tree_seeds = [[params.seed, t] for t in range(params.n_trees)]

    def fit_one(t: int) -> DecisionTree:
        # independent streams so injected bootstraps leave split draws intact
        bootstrap_rng = np.random.default_rng(tree_seeds[t] + [0])
        split_rng = np.random.default_rng(tree_seeds[t] + [1])
        if bootstrap_indices is not None:
            idx = np.asarray(bootstrap_indices[t], dtype=np.int64)
        elif params.bootstrap:
            idx = bootstrap_rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        return fit_tree(X[idx], y[idx], None, tree_params, rng=split_rng, features_per_split=mtry)

    trees = forked_map(fit_one, range(params.n_trees))
    return ForestModel(trees, tree_seeds, mtry, n_classes, d, params)

