"""Hard-majority voting hybrids with first-member-priority tie-breaking, and
the table of model kinds whose classes the hybrids (and bundles) load."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import ModelDataMismatch, SchemaMismatch, WidthMismatch
from .models.adaboost import AdaModel
from .models.forest import ForestModel
from .models.gbm import GbmModel
from .models.knn import KnnModel
from .models.svm import SvmClassifier
from .nn.network import Network


class Model(Protocol):
    """What every model kind provides; kinds with class probabilities also
    have predict_proba(X)."""

    n_features: int
    n_classes: int

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def to_dict(self) -> dict: ...

    @classmethod
    def from_dict(cls, d: dict) -> "Model": ...


# each task's hybrid members in priority order: vote ties fall to the earliest
HYBRID_MEMBERS = {"binary": ("rf", "gbm", "svm", "knn"), "multiclass": ("rf", "gbm", "ada")}


@dataclass
class VotingEnsemble:
    members: list[Model]
    member_names: list[str]
    n_features: int
    n_classes: int
    task: str

    def predict(self, X: np.ndarray) -> np.ndarray:
        return vote(self, X)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "member_names": self.member_names,
            "members": [
                {"kind": name, "model": member.to_dict()}
                for name, member in zip(self.member_names, self.members)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VotingEnsemble":
        names = list(HYBRID_MEMBERS[d["task"]])
        kinds = [m["kind"] for m in d["members"]]
        if d["member_names"] != names or kinds != names:
            raise ModelDataMismatch(f"a {d['task']} hybrid has members {names}, got {kinds}")
        members = [MODEL_CLASSES[m["kind"]].from_dict(m["model"]) for m in d["members"]]
        return build_hybrid(d["task"], members)


def build_hybrid(task: str, members: Sequence[Model]) -> VotingEnsemble:
    """The task's voting hybrid; members come in HYBRID_MEMBERS[task] order."""
    names = HYBRID_MEMBERS[task]
    if len(members) != len(names):
        raise SchemaMismatch(f"a {task} hybrid has members {list(names)}, got {len(members)} models")
    widths = {m.n_features for m in members}
    classes = {m.n_classes for m in members}
    if len(widths) != 1 or len(classes) != 1:
        raise SchemaMismatch(
            f"members disagree on feature width {widths} or class count {classes}"
        )
    return VotingEnsemble(list(members), list(names), widths.pop(), classes.pop(), task)


# every model kind a config or bundle may name, with the class that loads it
MODEL_CLASSES: dict[str, type[Model]] = {
    "rf": ForestModel,
    "gbm": GbmModel,
    "ada": AdaModel,
    "knn": KnnModel,
    "svm": SvmClassifier,
    "ann": Network,
    "cnn": Network,
    "hybrid": VotingEnsemble,
}


def mode_with_priority(votes: np.ndarray, n_classes: int) -> int:
    """Modal class of one vote vector; among tied classes, the earliest
    member whose vote is in the tied set decides."""
    counts = np.bincount(votes, minlength=n_classes)
    top = counts.max()
    tied = np.flatnonzero(counts == top)
    if tied.shape[0] == 1:
        return int(tied[0])
    tied_set = set(int(c) for c in tied)
    for v in votes:
        if int(v) in tied_set:
            return int(v)
    raise AssertionError("unreachable: some vote is always in the tied set")


def vote(ensemble: VotingEnsemble, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != ensemble.n_features:
        raise WidthMismatch(ensemble.n_features, X.shape[1] if X.ndim == 2 else -1)
    all_votes = np.stack([m.predict(X) for m in ensemble.members])  # members x rows
    return np.array(
        [mode_with_priority(all_votes[:, i], ensemble.n_classes) for i in range(X.shape[0])],
        dtype=np.int64,
    )
