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
from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
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
from .models import KINDS
from .output import output_dir, write_output
from .parallel import Workers, usable_cpus
from .persist import ModelBundle, PreprocState
from .splits import k_fold, mean_score, stratified_split
from .voting import HYBRID_MEMBERS, build_hybrid

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
        unknown = [m for m in self.models if m not in KINDS]
        if unknown:
            raise ConfigError(f"unknown models {unknown}; valid: {list(KINDS)}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError("duplicate model names")
        for kind in self.models:
            if KINDS[kind].binary_only and self.task != "binary":
                raise ConfigError(f"{kind} is a binary-task model")
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
        stray = [k for k in self.model_params if k not in KINDS or not KINDS[k].fit]
        if stray:
            raise ConfigError(f"model_params keys {stray} name no standalone model")
        for kind in self.models:
            if KINDS[kind].fit:
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
    return int(np.random.SeedSequence([seed, KINDS[name].seed_index, extra]).generate_state(1)[0])


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
    by _with_params: its KINDS row's settings target bound to the keys
    (called when the target is a params dataclass), paired with the row's
    train dataclass when it names one.  No data is needed, so the config is
    checked before any is read."""
    row = KINDS[kind]
    seeded = {} if row.seed_index is None else {"seed": _derived_seed(seed, kind, fold_extra)}
    target = row.load(row.settings)
    if row.train is None:
        bound = _with_params(kind, target, overrides, **seeded)
        return bound() if isinstance(target, type) else bound
    # keys naming a train field go to training, every other key to the target
    train = row.load(row.train)
    train_keys = inspect.signature(train).parameters
    arch = {k: v for k, v in overrides.items() if k not in train_keys}
    fitting = {k: v for k, v in overrides.items() if k in train_keys}
    return _with_params(kind, target, arch), _with_params(kind, train, fitting, **seeded)()


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
    background: "BackgroundFits | None" = None,
):
    """Train one standalone model; returns (model, curve-or-None).

    X_es/y_es is the training slice for early-stopping models (equal to the
    full train partition when a validation partition exists); X_val/y_val is
    their validation set.  A kind that `background` fits is collected from
    it, and fitted here only when its model did not come back.
    """
    if background is not None and (fitted := background.collect(kind)) is not None:
        return fitted
    row = KINDS[kind]
    settings = model_settings(kind, overrides, seed, fold_extra)
    return row.fit(import_module(row.module), settings, (X_train, y_train), (X_es, y_es, X_val, y_val), n_classes)


class BackgroundFits:
    """The background_fit kinds (ada, svm, ann, cnn) of a run, fitted in
    config order by one forked child (parallel.Workers.send) while this
    process fits the others: rf and gbm with their own workers, and knn;
    a context manager.  fit(kind) gives (model, curve).  Nothing is forked
    on one usable CPU, or when either side would have no kind to fit."""

    def __init__(self, kinds: list[str], fit):
        self.seconds: dict[str, float] = {}  # each collected kind's fit time in the child
        self._sent: list[str] = []
        self._workers = None
        background = [kind for kind in kinds if KINDS[kind].background_fit]
        if usable_cpus() > 1 and 0 < len(background) < len(kinds):
            self._workers = Workers(partial(_timed, fit), 2)
            try:
                self._workers.send(background)
                self._sent = background
            except ChildProcessError:
                pass  # the fork failed: every kind is fitted in this process

    def collect(self, kind: str):
        """(model, curve) of kind, the next kind sent, from the child; None
        when kind was not sent or did not come back (the child ended, or
        the fit raised or gave what cannot be pickled), for this process to
        fit it and so give the serial model or error."""
        if not self._sent or self._sent[0] != kind:
            return None
        self._sent.pop(0)
        try:
            model, curve, self.seconds[kind] = self._workers.collect()
        except Exception:  # whatever failed there, the fit here gives the serial outcome
            return None
        return model, curve

    def __enter__(self) -> "BackgroundFits":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._workers is not None:
            self._workers.close()


def _timed(fit, kind: str):
    t0 = time.perf_counter()
    model, curve = fit(kind)
    return model, curve, time.perf_counter() - t0


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
    # the flow tables and the raw train matrix are not needed past featurizing
    source_files, sampled_rows = list(sampled.source_files), len(sampled)
    del dataset, sampled, train_rows, raw_train

    # validation source for early-stopping models: the val partition when
    # present, otherwise the first rotation of the (cv_folds or 5)-fold plan
    if len(y["val"]):
        X_es, y_es, X_val, y_val = X["train"], y["train"], X["val"], y["val"]
    else:
        plan = k_fold(y["train"], config.cv_folds or 5, config.seed)
        inner_train, inner_val = next(iter(plan))
        X_es, y_es = X["train"][inner_train], y["train"][inner_train]
        X_val, y_val = X["train"][inner_val], y["train"][inner_val]

    # an --out that cannot be written fails here, before any fit
    out = output_dir(out_dir)
    trained: dict[str, object] = {}
    curves: dict[str, object] = {}
    timings: dict[str, float] = {}
    standalone = [m for m in config.models if KINDS[m].fit]

    def fit(name: str, background: BackgroundFits | None = None):
        return train_one_model(name, X["train"], y["train"], X_es, y_es, X_val, y_val, config.seed,
                               config.model_params.get(name, {}), n_classes, background=background)

    with BackgroundFits(standalone, fit) as background:
        for name in standalone:
            t0 = time.perf_counter()
            try:
                model, curve = fit(name, background)
            except (ConfigError, DataError):
                raise
            except Exception as exc:
                raise ModelError(f"{name}: {exc}") from exc
            timings[name] = background.seconds.get(name, time.perf_counter() - t0)
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
    encoded: dict[str, str] = {}  # each model's JSON text, for the hybrid's to reuse
    for name, model in trained.items():
        bundle = ModelBundle(name, task, model, preproc, config.seed)
        bundles[name] = bundle
        artifact_paths.append(bundle.save(out / "models" / f"{name}.json", encoded))
    del encoded
    for name, curve in curves.items():
        artifact_paths.append(write_output(out / "curves" / f"{name}_curve.csv", curve.to_csv()))

    if len(y["test"]):
        for name, model in trained.items():
            matrix = confusion(y["test"], model.predict(X["test"]), n_classes, class_names)
            report = compute_metrics(matrix)
            artifact_paths.extend(export_report(report, matrix, out / "reports" / name, task))

    if config.cv_folds >= 2:
        artifact_paths.extend(
            _run_cross_validation(config, X["train"], y["train"], n_classes, out)
        )

    write_output(out / "timings.json", json.dumps(timings, indent=2) + "\n")

    manifest = {
        "manifest_version": 1,
        "config": config.to_dict(),
        "provenance": {
            "source_files": source_files,
            "seed": config.seed,
            "label_map_version": LABEL_MAP_VERSION,
            "sampled_rows": sampled_rows,
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
    manifest_path = write_output(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    return RunResult(out, manifest_path, manifest, bundles, preproc, X, y, curves)


def _run_cross_validation(
    config: ExperimentConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    n_classes: int,
    out: Path,
) -> list[Path]:
    """Per-fold accuracy for each cross-validated standalone model, plus, when
    configured, the per-fold accuracy of a hybrid built from that fold's
    members."""
    plan = k_fold(y_train, config.cv_folds, config.seed)
    scores: dict[str, dict] = {}
    fold_models: list[dict[str, object]] = [{} for _ in range(config.cv_folds)]
    cv_models = [m for m in config.models if KINDS[m].cross_validated]
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

    written = [write_output(out / "cv_scores.json", json.dumps(scores, indent=2) + "\n")]

    if "hybrid" in config.models:
        lines = ["fold,train_accuracy,val_accuracy"]
        for fold_no, (tr, va) in enumerate(plan):
            members = [fold_models[fold_no][m] for m in HYBRID_MEMBERS[config.task]]
            hybrid = build_hybrid(config.task, members)
            acc_tr = float(np.mean(hybrid.predict(X_train[tr]) == y_train[tr]))
            acc_va = float(np.mean(hybrid.predict(X_train[va]) == y_train[va]))
            lines.append(f"{fold_no},{acc_tr!r},{acc_va!r}")
        written.append(write_output(out / "curves" / "hybrid_curve.csv", "\n".join(lines) + "\n"))
    return written
