"""Versioned JSON persistence: one bundle per trained model, carrying the
exact preprocessing state (vocabulary, scaler, CIDR table) it was trained
with, so evaluation and prediction can never accidentally refit."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IoFailure, ModelDataMismatch, SchemaMismatch
from .features import (
    CidrTable,
    FeatureSchema,
    MinMaxParams,
    OneHotVocabulary,
    build_schema,
    matrix_from_records,
)
from .flows import FlowTable, task_class_names
from .voting import MODEL_CLASSES, Model

BUNDLE_VERSION = 1


@dataclass(frozen=True)
class PreprocState:
    vocabulary: OneHotVocabulary
    min_max: MinMaxParams
    cidr: CidrTable

    @property
    def schema(self) -> FeatureSchema:
        return build_schema(self.vocabulary)

    def to_dict(self) -> dict:
        return {
            "vocabulary": {f: list(c) for f, c in self.vocabulary.categories.items()},
            "min_max": {
                "x_min": self.min_max.x_min.tolist(),
                "x_max": self.min_max.x_max.tolist(),
                "fitted_on": self.min_max.fitted_on,
            },
            "cidr": [[str(network), country] for network, country in self.cidr.entries],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocState":
        vocab = OneHotVocabulary({f: tuple(c) for f, c in d["vocabulary"].items()})
        mm = MinMaxParams(
            np.asarray(d["min_max"]["x_min"], dtype=float),
            np.asarray(d["min_max"]["x_max"], dtype=float),
            d["min_max"]["fitted_on"],
        )
        return cls(vocab, mm, CidrTable.from_rows((r[0], r[1]) for r in d["cidr"]))


@dataclass
class ModelBundle:
    kind: str
    task: str
    model: Model
    preproc: PreprocState
    seed: int

    @property
    def class_names(self) -> list[str]:
        return task_class_names(self.task)

    def featurize(self, table: FlowTable) -> np.ndarray:
        values, _ = matrix_from_records(
            table, self.preproc.cidr, self.preproc.vocabulary, self.preproc.min_max
        )
        return values

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray | None:
        predict_proba = getattr(self.model, "predict_proba", None)
        return None if predict_proba is None else predict_proba(X)

    def to_json(self) -> str:
        doc = {
            "format_version": BUNDLE_VERSION,
            "kind": self.kind,
            "task": self.task,
            "seed": self.seed,
            "class_names": self.class_names,
            "preprocessing": self.preproc.to_dict(),
            "model": self.model.to_dict(),
        }
        return json.dumps(doc, indent=1) + "\n"

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(self.to_json())
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
        return path


def load_bundle(path: str | Path) -> ModelBundle:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read model bundle {path}: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != BUNDLE_VERSION:
        raise ModelDataMismatch(f"unsupported bundle version {version}")
    try:
        kind = doc["kind"]
        class_names = task_class_names(doc["task"])
        if doc["class_names"] != class_names:
            raise ModelDataMismatch(f"a {doc['task']} bundle has classes {class_names}, got {doc['class_names']}")
        preproc = PreprocState.from_dict(doc["preprocessing"])
        model = MODEL_CLASSES[kind].from_dict(doc["model"])
        if model.n_features != preproc.schema.width:
            raise ModelDataMismatch(
                f"model expects {model.n_features} features but bundled schema has {preproc.schema.width}"
            )
        if model.n_classes > len(class_names):
            raise ModelDataMismatch(f"model predicts {model.n_classes} classes, a {doc['task']} bundle has {len(class_names)}")
        return ModelBundle(kind, doc["task"], model, preproc, doc["seed"])
    except (LookupError, TypeError, ValueError, SchemaMismatch) as exc:
        raise ModelDataMismatch(f"malformed model bundle {path}: {exc!r}") from exc
