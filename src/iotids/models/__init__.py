"""From-scratch classifiers and KINDS, the one table of the model kinds a
config or bundle may name.  A kind's module is imported on first use, so a
command imports only the kinds it fits or loads; a bundle's kind is only
ever a key into KINDS, never a module path."""

from __future__ import annotations

from importlib import import_module
from typing import Callable, NamedTuple, Protocol

import numpy as np

from ..errors import WidthMismatch


class Model(Protocol):
    """What every model kind provides; kinds with class probabilities also
    have predict_proba(X), and then predict(X) equals
    predict_proba(X).argmax(axis=1) (so `iotids predict` takes its labels
    from the probabilities it already has)."""

    n_features: int
    n_classes: int

    def predict(self, X: np.ndarray) -> np.ndarray: ...

    def to_dict(self) -> dict: ...

    @classmethod
    def from_dict(cls, d: dict) -> "Model": ...


def input_rows(X, width: int) -> np.ndarray:
    """X as a float64 matrix `width` columns wide; WidthMismatch otherwise."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != width:
        raise WidthMismatch(width, X.shape[1] if X.ndim == 2 else -1)
    return X


class Kind(NamedTuple):
    """One model kind.  `model` names its class and `settings` the target
    its model_params entry binds to (a params dataclass, fit_knn or a
    network builder), both in `module`; keys naming a field of `train`
    ("module:name") go to that dataclass instead.  A kind with a seed_index
    takes a seed derived from the experiment's, in `train` when it has one.
    fit(module, settings, (X, y), (X_es, y_es, X_val, y_val), n_classes)
    returns (model, curve or None).  A background_fit kind's fit forks no
    workers and computes its model (ada, svm and the networks): training
    may run it in a background child beside the others (see
    pipeline.BackgroundFits).  knn's fit only keeps the training rows,
    which a child would send back as a copy.  hybrid has no settings or
    fit: it is built from its members."""

    module: str
    model: str
    settings: str | None = None
    fit: Callable | None = None
    train: str | None = None
    seed_index: int | None = None
    cross_validated: bool = False
    binary_only: bool = False
    background_fit: bool = False

    def load(self, name: str):
        module, _, attr = name.rpartition(":")
        return getattr(import_module(module or self.module), attr)

    @property
    def model_class(self) -> type[Model]:
        return self.load(self.model)


def _fit_network(module, settings, train, early_stopping, n_classes):
    from ..nn.training import train_network

    build, params = settings
    return train_network(build(train[0].shape[1], n_classes), *early_stopping, params)


KINDS: dict[str, Kind] = {
    "rf": Kind("iotids.models.forest", "ForestModel", "ForestParams", seed_index=1, cross_validated=True,
               fit=lambda m, s, tr, es, n: (m.fit_random_forest(*tr, s, n_classes=n), None)),
    "gbm": Kind("iotids.models.gbm", "GbmModel", "GbmParams", cross_validated=True,
                fit=lambda m, s, tr, es, n: m.fit_gbm(*es, s, n_classes=n)),
    "ada": Kind("iotids.models.adaboost", "AdaModel", "AdaParams", cross_validated=True, background_fit=True,
                fit=lambda m, s, tr, es, n: (m.fit_adaboost(*tr, s, n_classes=n), None)),
    "knn": Kind("iotids.models.knn", "KnnModel", "fit_knn", cross_validated=True,
                fit=lambda m, s, tr, es, n: (s(*tr, n_classes=n), None)),
    "svm": Kind("iotids.models.svm", "SvmClassifier", "SvmParams", seed_index=5, cross_validated=True,
                binary_only=True, background_fit=True,
                fit=lambda m, s, tr, es, n: (m.fit_linear_svm(tr[0], 2.0 * tr[1] - 1.0, s), None)),
    "ann": Kind("iotids.nn.network", "Network", "build_ann", _fit_network, "iotids.nn.training:TrainParams",
                seed_index=6, background_fit=True),
    "cnn": Kind("iotids.nn.network", "Network", "build_cnn", _fit_network, "iotids.nn.training:TrainParams",
                seed_index=7, background_fit=True),
    "hybrid": Kind("iotids.voting", "VotingEnsemble"),
}
