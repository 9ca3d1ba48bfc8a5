"""Gradient-boosted trees: softmax objective, second-order leaf values,
L2 leaf regularization, and validation-loss early stopping."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import EmptyInput, EmptyValidation, ModelDataMismatch, WidthMismatch
from ..jsontypes import bundle_field
from ..numerics import cross_entropy_mean, one_hot, softmax
from ..parallel import Workers, usable_cpus
from .tree import DecisionTree, TreeParams, grow_tree, presort, stack_trees


@dataclass(frozen=True)
class GbmParams:
    max_rounds: int = 100
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: int = 1
    leaf_l2: float = 1.0
    patience: int = 5


@dataclass
class TrainCurve:
    train_loss: list[float]
    val_loss: list[float]
    stopped_at: int

    def to_csv(self) -> str:
        lines = ["round,train_loss,val_loss"]
        for r, (tl, vl) in enumerate(zip(self.train_loss, self.val_loss)):
            lines.append(f"{r},{tl!r},{vl!r}")
        return "\n".join(lines) + "\n"


@dataclass
class GbmModel:
    rounds: list[list[DecisionTree]]  # per round, one score tree per class
    learning_rate: float
    best_round: int
    n_classes: int
    n_features: int
    params: GbmParams

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Softmax over scores accumulated through best_round; a zero-round
        model yields the uniform distribution."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise WidthMismatch(self.n_features, X.shape[1] if X.ndim == 2 else -1)
        kept = self.rounds[: self.best_round + 1]
        table = stack_trees([tree for round_trees in kept for tree in round_trees])
        steps = self.learning_rate * table.value

        def scores(X: np.ndarray) -> np.ndarray:
            F = np.zeros((X.shape[0], self.n_classes))
            for rows, leaves in table.leaf_blocks(X):
                round_steps = steps[leaves].reshape(len(kept), self.n_classes, leaves.shape[1])
                block = np.zeros((self.n_classes, leaves.shape[1]))
                for r in range(len(kept)):  # round by round, as fit_gbm added them
                    block += round_steps[r]
                F[rows] = block.T
            return F

        return softmax(np.concatenate(table.map_row_ranges(scores, X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "learning_rate": self.learning_rate,
            "best_round": self.best_round,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "rounds": [[t.to_dict() for t in rnd] for rnd in self.rounds],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GbmModel":
        n_classes = bundle_field(d, "n_classes", int)
        n_features = bundle_field(d, "n_features", int)
        rounds = bundle_field(d, "rounds", list[list])
        best_round = bundle_field(d, "best_round", int)
        if rounds and not 0 <= best_round < len(rounds):
            raise ModelDataMismatch(f"best_round {best_round} is outside the {len(rounds)} rounds")
        if any(len(rnd) != n_classes for rnd in rounds):
            raise ModelDataMismatch(f"every round needs one tree per class ({n_classes})")
        return cls(
            rounds=[[DecisionTree.from_dict(t, n_features, None) for t in rnd] for rnd in rounds],
            learning_rate=bundle_field(d, "learning_rate", float),
            best_round=best_round,
            n_classes=n_classes,
            n_features=n_features,
            params=GbmParams(**bundle_field(d, "params", GbmParams)),
        )


def _newton_leaf_scores(tree: DecisionTree, leaves: np.ndarray, g: np.ndarray, h: np.ndarray, l2: float) -> None:
    """Overwrite each leaf's score with -sum(g)/(sum(h) + l2) over its rows."""
    n_nodes = tree.n_nodes
    g_sum = np.bincount(leaves, weights=g, minlength=n_nodes)
    h_sum = np.bincount(leaves, weights=h, minlength=n_nodes)
    denom = h_sum + l2
    # internal nodes (and all-zero-Hessian leaves at l2=0) carry no step
    safe = np.where(denom == 0.0, 1.0, denom)
    tree.leaf_score = np.where(denom == 0.0, 0.0, -g_sum / safe)


def fit_gbm(
    X: np.ndarray,
    y: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    params: GbmParams = GbmParams(),
    *,
    n_classes: int,
) -> tuple[GbmModel, TrainCurve]:
    """Boost one regression tree per class in [0, n_classes) per round on
    the softmax gradient.

    Per round and class, with current probabilities p: gradient g = p - y,
    Hessian h = p(1 - p); the tree structure is fit to -g with squared-error
    splits and its leaves replaced by the Newton step -sum(g)/(sum(h)+l2),
    scaled into the scores by the learning rate.  Train/validation mean
    cross-entropy is recorded each round; training stops once validation
    loss has not improved for `patience` rounds, and prediction uses rounds
    0..best_round only.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    X_val = np.asarray(X_val, dtype=float)
    y_val = np.asarray(y_val, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyInput("fit_gbm needs at least one training row")
    if X_val.shape[0] == 0:
        raise EmptyValidation("early stopping needs a non-empty validation set")

    n, d = X.shape
    Y = one_hot(y, n_classes)
    F_train = np.zeros((n, n_classes))
    F_val = np.zeros((X_val.shape[0], n_classes))
    tree_params = TreeParams(
        max_depth=params.max_depth,
        min_samples_leaf=params.min_samples_leaf,
        task="regression",
    )

    sorted_rows = presort(X)  # X is the same for every round and class
    rounds: list[list[DecisionTree]] = []
    train_losses: list[float] = []
    val_losses: list[float] = []
    best_round = 0
    best_val = np.inf
    stopped_at = 0

    def grow(target):
        return grow_tree(X, target, None, tree_params, presorted=sorted_rows)

    # the class trees of a round all read that round's G, so they grow in
    # parallel, in workers forked once for the whole fit
    with Workers(grow, min(usable_cpus(), n_classes)) as workers:
        for r in range(params.max_rounds):
            P = softmax(F_train)
            G = P - Y
            grown = workers.map([-G[:, c] for c in range(n_classes)])
            round_trees: list[DecisionTree] = []
            for c, (tree, leaves) in enumerate(grown):
                g = G[:, c]
                h = P[:, c] * (1.0 - P[:, c])
                _newton_leaf_scores(tree, leaves, g, h, params.leaf_l2)
                F_train[:, c] += params.learning_rate * tree.leaf_score[leaves]
                F_val[:, c] += params.learning_rate * tree.leaf_score[tree.apply(X_val)]
                round_trees.append(tree)
            rounds.append(round_trees)

            train_losses.append(cross_entropy_mean(softmax(F_train), y))
            val_losses.append(cross_entropy_mean(softmax(F_val), y_val))
            stopped_at = r
            if val_losses[-1] < best_val:
                best_val = val_losses[-1]
                best_round = r
            if r - best_round >= params.patience:
                break

    model = GbmModel(rounds, params.learning_rate, best_round, n_classes, d, params)
    return model, TrainCurve(train_losses, val_losses, stopped_at)

