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
    CATEGORICAL_FIELDS,
    CidrTable,
    FeatureSchema,
    MinMaxParams,
    OneHotVocabulary,
    build_schema,
    matrix_from_records,
)
from .flows import FlowTable, task_class_names
from .jsontypes import bundle_field
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
        """The state a bundle holds: a category list for each categorical
        feature, a scaler bound per column of the schema those lists give,
        and (cidr, country) rows; anything else is ModelDataMismatch."""
        categories = bundle_field(d, "vocabulary", dict[str, list[str]])
        if categories.keys() != set(CATEGORICAL_FIELDS):
            raise ModelDataMismatch(f"bundle vocabulary must cover {CATEGORICAL_FIELDS}, got {list(categories)}")
        vocab = OneHotVocabulary({f: tuple(c) for f, c in categories.items()})
        mm = bundle_field(d, "min_max", dict)
        x_min, x_max = (np.asarray(bundle_field(mm, k, list[float]), dtype=float) for k in ("x_min", "x_max"))
        width = build_schema(vocab).width
        if len(x_min) != width or len(x_max) != width:
            raise ModelDataMismatch(f"bundle scaler has {len(x_min)} and {len(x_max)} bounds for {width} columns")
        cidr = CidrTable.from_rows(bundle_field(d, "cidr", list[tuple[str, str]]))
        return cls(vocab, MinMaxParams(x_min, x_max, bundle_field(mm, "fitted_on", str)), cidr)


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
        return json.dumps(doc, separators=(",", ":")) + "\n"

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
    if type(version) is not int or version != BUNDLE_VERSION:
        raise ModelDataMismatch(f"unsupported bundle version {version!r}")
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
        # every model but KNN is fit over its task's classes; KNN counts the labels it stores
        exact = kind != "knn"
        if model.n_classes > len(class_names) or exact and model.n_classes != len(class_names):
            raise ModelDataMismatch(f"model predicts {model.n_classes} classes, a {doc['task']} bundle has {len(class_names)}")
        return ModelBundle(kind, doc["task"], model, preproc, bundle_field(doc, "seed", int))
    except (LookupError, TypeError, ValueError, SchemaMismatch) as exc:
        raise ModelDataMismatch(f"malformed model bundle {path}: {exc!r}") from exc
