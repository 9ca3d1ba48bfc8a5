"""End-to-end experiment pipeline: ingest -> label -> sample -> split ->
fit encoders/scaler on train only -> featurize (imputing missing values) ->
train -> report.

The one-hot vocabulary and the min-max scaler see the training partition's
rows only; test and validation rows are featurized after both are fitted.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
import typing
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ModelError, SchemaMismatch
from .features import (
    CidrTable,
    fit_min_max,
    fit_one_hot,
    ip_and_categorical_columns,
    matrix_from_records,
)
from .flows import (
    Dataset,
    FlowTable,
    LABEL_MAP_VERSION,
    balance_sample,
    label_rows,
    parse_conn_log_file,
    task_class_names,
)
from .jsontypes import check_fields, from_json_object, value_problem
from .metrics import compute_metrics, confusion, export_report
from .models.adaboost import AdaParams, fit_adaboost
from .models.forest import ForestParams, fit_random_forest
from .models.gbm import GbmParams, fit_gbm
from .models.knn import fit_knn
from .models.svm import SvmParams, fit_linear_svm
from .nn.network import build_ann, build_cnn
from .nn.training import TrainParams, train_network
from .persist import ModelBundle, PreprocState
from .splits import k_fold, mean_score, stratified_split
from .voting import HYBRID_MEMBERS, MODEL_CLASSES, build_hybrid

VALID_MODELS = tuple(MODEL_CLASSES)
_MODEL_SEED_INDEX = {"rf": 1, "gbm": 2, "ada": 3, "knn": 4, "svm": 5, "ann": 6, "cnn": 7}
_TRAIN_KEYS = {f.name for f in fields(TrainParams)}

CONFIG_VERSION = 1


@dataclass
class ExperimentConfig:
    task: str
    models: list[str]
    per_class: int
    seed: int
    split: tuple[float, float, float] = (0.7, 0.2, 0.1)
    cv_folds: int = 0
    expected_width: int | None = None
    model_params: dict[str, dict] = field(default_factory=dict)
    paths: dict[str, str] = field(default_factory=dict)
    config_version: int = CONFIG_VERSION

    def validate(self) -> None:
        """The field checks (check_fields), then the rules across fields."""
        check_fields(self, "config")
        if self.config_version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config_version {self.config_version!r}")
        if self.task not in ("binary", "multiclass"):
            raise ConfigError(f"task must be binary or multiclass, got {self.task!r}")
        unknown = [m for m in self.models if m not in VALID_MODELS]
        if unknown:
            raise ConfigError(f"unknown models {unknown}; valid: {list(VALID_MODELS)}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names")
        if "svm" in self.models and self.task != "binary":
            raise ConfigError("svm is a binary-task model")
        if "hybrid" in self.models:
            missing = [m for m in HYBRID_MEMBERS[self.task] if m not in self.models]
            if missing:
                raise ConfigError(f"hybrid needs members {missing} in the model list")
        if not all(0 <= f <= 1 for f in self.split):
            raise ConfigError("split must be three fractions in [0, 1]")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ConfigError("split fractions must sum to 1")
        if self.split[0] == 0:
            raise ConfigError("split must give the train partition a fraction above 0")
        if self.cv_folds == 1:
            raise ConfigError("cv_folds must be 0 (off) or an integer >= 2")
        for kind in self.models:
            if kind != "hybrid":
                model_settings(kind, self.model_params.get(kind, {}), self.seed)

    def to_dict(self) -> dict:
        return {
            "config_version": self.config_version,
            "task": self.task,
            "models": list(self.models),
            "per_class": self.per_class,
            "seed": self.seed,
            "split": list(self.split),
            "cv_folds": self.cv_folds,
            "expected_width": self.expected_width,
            "model_params": self.model_params,
            "paths": self.paths,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        cfg = from_json_object(cls, d, "config")
        cfg.split = tuple(cfg.split)
        return cfg

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc


def read_labeled_dir(data_path: str | Path) -> Dataset:
    """Parse a .labeled file, or every sorted *.labeled file in a directory."""
    p = Path(data_path)
    if p.is_file():
        files = [p]
    elif p.is_dir():
        files = sorted(p.glob("*.labeled"))
    else:
        raise DataError(f"data path {p} does not exist")
    if not files:
        raise DataError(f"no .labeled files under {p}")
    tables = [parse_conn_log_file(f) for f in files]
    return label_rows(
        FlowTable.concat(tables), source_files=tuple(f.name for f in files), file_rows=tuple(map(len, tables))
    )


def _derived_seed(seed: int, name: str, extra: int = 0) -> int:
    return int(np.random.SeedSequence([seed, _MODEL_SEED_INDEX[name], extra]).generate_state(1)[0])


def _with_params(kind: str, target, overrides: dict, **derived):
    """partial(target, **overrides, **derived), once every override names a
    keyword parameter of target and has its annotated type and a value in
    its _VALUE_RANGES range.  Any other key, including one the pipeline
    derives itself, a wrong type or a value out of range is a config error
    naming the model kind and key."""
    accepted = inspect.signature(target).parameters
    hints = typing.get_type_hints(target)
    for key, value in overrides.items():
        if key in derived:
            raise ConfigError(f"{kind} model_params: {key!r} is derived from the experiment seed")
        if key not in accepted or accepted[key].default is inspect.Parameter.empty:
            raise ConfigError(f"{kind} model_params: unknown key {key!r}")
        problem = value_problem(key, value, hints[key])
        if problem:
            raise ConfigError(f"{kind} model_params: {key!r} {problem}")
    return partial(target, **overrides, **derived)


def model_settings(kind: str, overrides: dict, seed: int, fold_extra: int = 0):
    """One standalone model's settings from its model_params entry, checked
    by _with_params: the params object for rf, gbm, ada and svm, fit_knn
    bound to its keys for knn, and (builder bound to its keys, TrainParams)
    for ann and cnn.  No data is needed, so the config is checked before any
    is read."""
    if kind == "gbm":
        return _with_params(kind, GbmParams, overrides)()
    if kind == "ada":
        return _with_params(kind, AdaParams, overrides)()
    if kind == "knn":
        return _with_params(kind, fit_knn, overrides)
    if kind not in ("rf", "svm", "ann", "cnn"):
        raise ConfigError(f"not a standalone model: {kind!r}")
    seeded = {"seed": _derived_seed(seed, kind, fold_extra)}
    if kind == "rf":
        return _with_params(kind, ForestParams, overrides, **seeded)()
    if kind == "svm":
        return _with_params(kind, SvmParams, overrides, **seeded)()
    # TrainParams fields go to training, every other key to the builder
    build = build_ann if kind == "ann" else build_cnn
    arch = {k: v for k, v in overrides.items() if k not in _TRAIN_KEYS}
    train = {k: v for k, v in overrides.items() if k in _TRAIN_KEYS}
    return _with_params(kind, build, arch), _with_params(kind, TrainParams, train, **seeded)()


def train_one_model(
    kind: str,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_es: np.ndarray,
    y_es: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    seed: int,
    overrides: dict,
    n_classes: int,
    fold_extra: int = 0,
):
    """Train one standalone model; returns (model, curve-or-None).

    X_es/y_es is the training slice for early-stopping models (equal to the
    full train partition when a validation partition exists); X_val/y_val is
    their validation set.
    """
    settings = model_settings(kind, overrides, seed, fold_extra)
    if kind == "rf":
        return fit_random_forest(X_train, y_train, settings, n_classes=n_classes), None
    if kind == "gbm":
        return fit_gbm(X_es, y_es, X_val, y_val, settings, n_classes=n_classes)
    if kind == "ada":
        return fit_adaboost(X_train, y_train, settings, n_classes=n_classes), None
    if kind == "knn":
        return settings(X_train, y_train), None
    if kind == "svm":
        return fit_linear_svm(X_train, 2.0 * y_train - 1.0, settings), None
    build, train = settings
    return train_network(build(X_train.shape[1], n_classes), X_es, y_es, X_val, y_val, train)


@dataclass
class RunResult:
    out_dir: Path
    manifest_path: Path
    manifest: dict
    bundles: dict[str, ModelBundle]
    preproc: PreprocState
    X: dict[str, np.ndarray]
    y: dict[str, np.ndarray]
    curves: dict[str, object]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_training(
    config: ExperimentConfig,
    data_path: str | Path,
    out_dir: str | Path,
    cidr_path: str | Path | None = None,
) -> RunResult:
    """Run the whole training pipeline and write all artifacts + manifest."""
    config.validate()
    task = config.task
    class_names = task_class_names(task)
    n_classes = len(class_names)

    dataset = read_labeled_dir(data_path)
    sampled = balance_sample(dataset, task, config.per_class, config.seed)
    y_all = sampled.targets(task)
    split = stratified_split(y_all, config.split, config.seed)
    partitions = split.partitions()
    if not len(partitions["train"]):
        raise DataError(f"the train partition is empty: split {list(config.split)} of {len(y_all)} sampled rows")
    cidr = CidrTable.from_csv(cidr_path) if cidr_path else CidrTable()

    # fit encoders and scaler on the training partition only
    train_rows = sampled.table.take(partitions["train"])
    vocabulary = fit_one_hot(ip_and_categorical_columns(train_rows, cidr)[1])
    raw_train, schema = matrix_from_records(train_rows, cidr, vocabulary)
    if config.expected_width is not None and schema.width != config.expected_width:
        raise SchemaMismatch(f"finalized width {schema.width} != expected {config.expected_width}")
    min_max = fit_min_max(raw_train)
    preproc = PreprocState(vocabulary, min_max, cidr)

    X: dict[str, np.ndarray] = {}
    y: dict[str, np.ndarray] = {}
    for part in ("train", "test", "val"):
        X[part], _ = matrix_from_records(sampled.table.take(partitions[part]), cidr, vocabulary, min_max)
        y[part] = y_all[partitions[part]]

    # validation source for early-stopping models: the val partition when
    # present, otherwise the first rotation of the (cv_folds or 5)-fold plan
    if len(y["val"]):
        X_es, y_es, X_val, y_val = X["train"], y["train"], X["val"], y["val"]
    else:
        plan = k_fold(y["train"], config.cv_folds or 5, config.seed)
        inner_train, inner_val = next(iter(plan))
        X_es, y_es = X["train"][inner_train], y["train"][inner_train]
        X_val, y_val = X["train"][inner_val], y["train"][inner_val]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trained: dict[str, object] = {}
    curves: dict[str, object] = {}
    timings: dict[str, float] = {}
    standalone = [m for m in config.models if m != "hybrid"]
    for name in standalone:
        t0 = time.perf_counter()
        try:
            model, curve = train_one_model(
                name,
                X["train"],
                y["train"],
                X_es,
                y_es,
                X_val,
                y_val,
                config.seed,
                config.model_params.get(name, {}),
                n_classes,
            )
        except (ConfigError, DataError):
            raise
        except Exception as exc:
            raise ModelError(f"{name}: {exc}") from exc
        timings[name] = time.perf_counter() - t0
        trained[name] = model
        if curve is not None:
            curves[name] = curve

    if "hybrid" in config.models:
        t0 = time.perf_counter()
        trained["hybrid"] = build_hybrid(task, [trained[m] for m in HYBRID_MEMBERS[task]])
        timings["hybrid"] = time.perf_counter() - t0

    # persist bundles, curves, and test-partition reports
    bundles: dict[str, ModelBundle] = {}
    artifact_paths: list[Path] = []
    for name, model in trained.items():
        bundle = ModelBundle(name, task, model, preproc, config.seed)
        bundles[name] = bundle
        artifact_paths.append(bundle.save(out / "models" / f"{name}.json"))
    for name, curve in curves.items():
        path = out / "curves" / f"{name}_curve.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(curve.to_csv())
        artifact_paths.append(path)

    if len(y["test"]):
        for name, model in trained.items():
            matrix = confusion(y["test"], model.predict(X["test"]), n_classes, class_names)
            report = compute_metrics(matrix)
            written = export_report(report, matrix, out / "reports" / name, task)
            artifact_paths.extend(written)

    if config.cv_folds >= 2:
        artifact_paths.extend(
            _run_cross_validation(config, X["train"], y["train"], n_classes, out)
        )

    timings_path = out / "timings.json"
    timings_path.write_text(json.dumps(timings, indent=2) + "\n")

    manifest = {
        "manifest_version": 1,
        "config": config.to_dict(),
        "provenance": {
            "source_files": list(sampled.source_files),
            "seed": config.seed,
            "label_map_version": LABEL_MAP_VERSION,
            "sampled_rows": len(sampled),
            "partition_sizes": {k: int(len(v)) for k, v in partitions.items()},
            "feature_width": schema.width,
        },
        "artifacts": sorted(
            ({"path": str(p.relative_to(out)), "sha256": _sha256(p)} for p in artifact_paths),
            key=lambda a: a["path"],
        ),
        "unverified": [
            {"path": "timings.json", "sha256": None, "reason": "wall-clock timings"}
        ],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")

    return RunResult(out, manifest_path, manifest, bundles, preproc, X, y, curves)


def _run_cross_validation(
    config: ExperimentConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    n_classes: int,
    out: Path,
) -> list[Path]:
    """Per-fold accuracy for each non-neural standalone model, plus, when
    configured, the per-fold accuracy of a hybrid built from that fold's
    members."""
    plan = k_fold(y_train, config.cv_folds, config.seed)
    scores: dict[str, dict] = {}
    fold_models: list[dict[str, object]] = [{} for _ in range(config.cv_folds)]
    cv_models = [m for m in config.models if m in ("rf", "gbm", "ada", "knn", "svm")]
    for name in cv_models:
        fold_acc = []
        for fold_no, (tr, va) in enumerate(plan):
            model, _ = train_one_model(
                name,
                X_train[tr],
                y_train[tr],
                X_train[tr],
                y_train[tr],
                X_train[va],
                y_train[va],
                config.seed,
                config.model_params.get(name, {}),
                n_classes,
                fold_extra=fold_no + 1,
            )
            fold_models[fold_no][name] = model
            fold_acc.append(float(np.mean(model.predict(X_train[va]) == y_train[va])))
        scores[name] = {"fold_accuracy": fold_acc, "mean_accuracy": mean_score(fold_acc)}

    written = []
    cv_path = out / "cv_scores.json"
    cv_path.write_text(json.dumps(scores, indent=2) + "\n")
    written.append(cv_path)

    if "hybrid" in config.models:
        lines = ["fold,train_accuracy,val_accuracy"]
        for fold_no, (tr, va) in enumerate(plan):
            members = [fold_models[fold_no][m] for m in HYBRID_MEMBERS[config.task]]
            hybrid = build_hybrid(config.task, members)
            acc_tr = float(np.mean(hybrid.predict(X_train[tr]) == y_train[tr]))
            acc_va = float(np.mean(hybrid.predict(X_train[va]) == y_train[va]))
            lines.append(f"{fold_no},{acc_tr!r},{acc_va!r}")
        curve_path = out / "curves" / "hybrid_curve.csv"
        curve_path.parent.mkdir(parents=True, exist_ok=True)
        curve_path.write_text("\n".join(lines) + "\n")
        written.append(curve_path)
    return written
