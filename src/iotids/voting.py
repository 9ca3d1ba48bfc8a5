"""Hard-majority voting hybrids with first-member-priority tie-breaking."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ModelDataMismatch, SchemaMismatch
from .jsontypes import compact_json
from .models import KINDS, Model, input_rows

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
        X = input_rows(X, self.n_features)
        return vote(np.stack([m.predict(X) for m in self.members]))

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "member_names": self.member_names,
            "members": [
                {"kind": name, "model": member.to_dict()}
                for name, member in zip(self.member_names, self.members)
            ],
        }

    def to_json(self, member_json: Sequence[str]) -> str:
        """The compact JSON text of to_dict(), spliced from each member's
        compact JSON text (in member order) instead of encoding it again."""
        head = compact_json({"task": self.task, "member_names": self.member_names})
        members = ",".join(
            f'{{"kind":{json.dumps(name)},"model":{text}}}' for name, text in zip(self.member_names, member_json)
        )
        return f'{head[:-1]},"members":[{members}]}}'

    @classmethod
    def from_dict(cls, d: dict) -> "VotingEnsemble":
        names = list(HYBRID_MEMBERS[d["task"]])
        kinds = [m["kind"] for m in d["members"]]
        if d["member_names"] != names or kinds != names:
            raise ModelDataMismatch(f"a {d['task']} hybrid has members {names}, got {kinds}")
        members = [KINDS[m["kind"]].model_class.from_dict(m["model"]) for m in d["members"]]
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


def vote(votes: np.ndarray) -> np.ndarray:
    """Per-row winner of a members x rows vote array: the vote of the
    earliest member whose class has the top count, so a strict majority
    wins and a tie falls to the earliest member voting for a tied class."""
    votes = np.asarray(votes)
    support = (votes[:, None, :] == votes[None, :, :]).sum(axis=1)  # members agreeing with each vote
    winner = (support == support.max(axis=0)).argmax(axis=0)
    return votes[winner, np.arange(votes.shape[1])].astype(np.int64)
