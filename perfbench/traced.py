"""Run the iotids CLI in-process with spans and counters recorded around it.

Usage: python3 perfbench/traced.py TRACE_OUT.json <iotids CLI arguments...>

Tracing is done from outside the package: the public names that
iotids.cli, iotids.pipeline and iotids.persist look up at call time are
replaced by wrappers before iotids.cli.main runs, so the program's own code
is unchanged. Each wrapper records a span (name, start, end, parent) and
adds to named counters. Spans and counters stay in memory and are written to
TRACE_OUT.json when the run ends, together with the CLI's exit code.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

# model kind (as in the config's model list) -> layer name used in metrics
LAYER = {
    "rf": "models.forest",
    "gbm": "models.gbm",
    "ada": "models.adaboost",
    "svm": "models.svm",
    "knn": "models.knn",
    "ann": "nn.ann",
    "cnn": "nn.cnn",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, fn, name, count=None):
        """fn recording one span per call. `name` is a string or a function
        of the call's arguments; `count(counters, args, result)` adds counts."""

        def traced(*args, **kwargs):
            span = {
                "name": name if isinstance(name, str) else name(*args),
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced


# predicting class -> layer name; networks are told apart by their layers
_CLASS_LAYER = {
    "ForestModel": "models.forest",
    "GbmModel": "models.gbm",
    "AdaModel": "models.adaboost",
    "SvmClassifier": "models.svm",
    "KnnModel": "models.knn",
}


def _predict_layer(model) -> str:
    if type(model).__name__ == "Network":
        return "nn.cnn" if any(d["kind"] == "conv1d" for d in model.spec.layers) else "nn.ann"
    return _CLASS_LAYER[type(model).__name__]


def _count_fit(counters: Counter, args, result) -> None:
    kind, (model, curve) = args[0], result
    if kind == "rf":
        counters["models.forest.tree_nodes"] += sum(t.n_nodes for t in model.trees)
    elif kind == "gbm":
        counters["models.gbm.tree_nodes"] += sum(t.n_nodes for rnd in model.rounds for t in rnd)
        counters["models.gbm.rounds"] += len(model.rounds)
    elif kind == "ada":
        counters["models.adaboost.tree_nodes"] += sum(t.n_nodes for t, _ in model.stages)
    elif kind in ("ann", "cnn"):
        counters[f"nn.{kind}.epochs"] += len(curve.train_loss)


def _count_predict(counters: Counter, args, result) -> None:
    model, X = args[0], args[1]
    layer = _predict_layer(model)
    counters[f"{layer}.predict_calls"] += 1
    counters[f"{layer}.rows_predicted"] += len(X)
    if layer == "models.knn":
        counters["models.knn.distance_pairs"] += len(X) * model.X.shape[0]


def instrument(tracer: Tracer) -> None:
    """Replace the names the CLI, pipeline and persist modules call."""
    from iotids import cli, persist, pipeline
    from iotids.models.adaboost import AdaModel
    from iotids.models.forest import ForestModel
    from iotids.models.gbm import GbmModel
    from iotids.models.knn import KnnModel
    from iotids.models.svm import SvmClassifier
    from iotids.nn.network import Network
    from iotids.voting import VotingEnsemble

    w = tracer.wrap

    def add(key, size):
        return lambda c, a, r: c.update({key: size(a, r)})

    parsed = add("flows.rows_parsed", lambda a, r: len(r))
    for module in (pipeline, cli):
        module.parse_conn_log_file = w(module.parse_conn_log_file, "flows.parse", parsed)
        module.compute_metrics = w(module.compute_metrics, "metrics.compute")
    pipeline.label_rows = w(pipeline.label_rows, "flows.label")
    pipeline.balance_sample = w(pipeline.balance_sample, "flows.sample")
    pipeline.fit_one_hot = w(pipeline.fit_one_hot, "features.fit_one_hot")
    pipeline.fit_min_max = w(pipeline.fit_min_max, "features.fit_min_max")
    pipeline.matrix_from_records = w(
        pipeline.matrix_from_records,
        "features.featurize",
        add("features.rows_featurized", lambda a, r: len(a[0])),
    )
    persist.ModelBundle.featurize = w(
        persist.ModelBundle.featurize,
        "features.featurize",
        add("features.rows_featurized", lambda a, r: len(a[1])),
    )
    pipeline.train_one_model = w(pipeline.train_one_model, lambda kind, *_: f"{LAYER[kind]}.fit", _count_fit)
    pipeline.export_report = w(pipeline.export_report, "metrics.export")
    persist.ModelBundle.save = w(
        persist.ModelBundle.save, "persist.save", add("persist.bytes_written", lambda a, r: os.path.getsize(r))
    )
    cli.load_bundle = w(cli.load_bundle, "persist.load", add("persist.bytes_read", lambda a, r: os.path.getsize(a[0])))
    cli.run_training = w(cli.run_training, "pipeline.run_training")

    for cls in (ForestModel, GbmModel, AdaModel, SvmClassifier, KnnModel, Network):
        cls.predict = w(cls.predict, lambda model, X: f"{_predict_layer(model)}.predict", _count_predict)
    VotingEnsemble.predict = w(VotingEnsemble.predict, "voting.vote", add("voting.rows_voted", lambda a, r: len(a[1])))


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from iotids import cli

    tracer = Tracer()
    instrument(tracer)
    exit_code = tracer.wrap(cli.main, "cli.main")(cli_args)
    with open(out_path, "w") as f:
        json.dump({"exit_code": exit_code, "spans": tracer.spans, "counters": tracer.counters}, f)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
