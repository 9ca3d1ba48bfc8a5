"""Command-line entry point: synth, train, evaluate, predict, importance.

A command imports only the modules it uses: the names in _LAZY are this
module's attributes, imported on first use (PEP 562), and the handlers look
them up through _use, so a wrapper set on one beforehand (as
perfbench/traced.py sets) is the one called."""

from __future__ import annotations

import argparse
import gc
import logging
import os
import sys
from importlib import import_module

import numpy as np

from .errors import ConfigError, DataError, IoFailure, ModelError
from .output import write_output

log = logging.getLogger("iotids")

# name -> the module it comes from
_LAZY = {
    "permutation_importance": ".features",
    "parse_conn_log_file": ".flows",
    "compute_metrics": ".metrics",
    "confusion": ".metrics",
    "metrics_to_json": ".metrics",
    "load_bundle": ".persist",
    "ExperimentConfig": ".pipeline",
    "read_labeled_dir": ".pipeline",
    "run_training": ".pipeline",
    "SynthSpec": ".synth",
    "write_synth_dataset": ".synth",
}


def __getattr__(name: str):
    """A name of _LAZY, imported now and kept as this module's attribute."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(_LAZY[name], __package__), name)
    return value


def _use(name: str):
    """This module's attribute `name`: the one already set, or else the one
    __getattr__ imports."""
    return globals()[name] if name in globals() else __getattr__(name)


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _setup_logging() -> None:
    level = os.environ.get("IDS_LOG_LEVEL", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ConfigError(f"IDS_LOG_LEVEL must be one of {sorted(levels)}, got {level!r}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = _use("SynthSpec").from_json_file(args.spec)
    path = _use("write_synth_dataset")(spec, args.out)
    log.info("wrote %s", path)
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    config = _use("ExperimentConfig").from_json_file(args.config)
    data = args.data or config.paths.get("data")
    if not data:
        raise ConfigError("no data path: pass --data or set paths.data in the config")
    out = args.out or config.paths.get("out")
    if not out:
        raise ConfigError("no output path: pass --out or set paths.out in the config")
    cidr = args.cidr or config.paths.get("cidr")
    result = _use("run_training")(config, data, out, cidr)
    log.info("wrote %s", result.manifest_path)
    return EXIT_OK


def _labeled_task_rows(args: argparse.Namespace):
    """(bundle, featurized rows, targets) of the --model bundle's task in
    the --data files; sentinel rows dropped."""
    bundle = _use("load_bundle")(args.model)
    dataset = _use("read_labeled_dir")(args.data)
    kept = dataset.take(np.flatnonzero(dataset.targets(bundle.task) >= 0))
    return bundle, bundle.featurize(kept.table), kept.targets(bundle.task)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    bundle, X, y_true = _labeled_task_rows(args)
    matrix = _use("confusion")(y_true, bundle.predict(X), len(bundle.class_names), bundle.class_names)
    report = _use("compute_metrics")(matrix)
    report_path = write_output(args.report, _use("metrics_to_json")(report, bundle.task))
    write_output(report_path.with_suffix(".confusion.csv"), matrix.to_csv())
    log.info("accuracy %.4f -> %s", report.accuracy, report_path)
    return EXIT_OK


def predictions_csv(class_names: list[str], labels: np.ndarray, probs: np.ndarray | None) -> str:
    """One line per row: its index, its predicted class name and, when the
    model has class probabilities, each class's probability as repr(float)."""
    header = ["row_index", "predicted_label"]
    names = [class_names[k] for k in labels.tolist()]
    if probs is None:
        lines = [f"{i},{name}" for i, name in enumerate(names)]
    else:
        header.extend(f"p_{name}" for name in class_names)
        lines = [f"{i},{name}," + ",".join(map(repr, p)) for i, (name, p) in enumerate(zip(names, probs.tolist()))]
    return "\n".join([",".join(header)] + lines) + "\n"


def _cmd_predict(args: argparse.Namespace) -> int:
    bundle = _use("load_bundle")(args.model)
    X = bundle.featurize(_use("parse_conn_log_file")(args.input, allow_unlabeled=True))  # the table is freed here
    probs = bundle.predict_proba(X)
    labels = bundle.predict(X) if probs is None else probs.argmax(axis=1)
    out_path = write_output(args.output, predictions_csv(bundle.class_names, labels, probs))
    log.info("wrote %d predictions -> %s", X.shape[0], out_path)
    return EXIT_OK


def _cmd_importance(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    bundle, X, y_true = _labeled_task_rows(args)
    report = _use("permutation_importance")(bundle, X, y_true, repeats=args.repeats, seed=args.seed,
                                            feature_names=bundle.preproc.schema.names())
    log.info("wrote importance report -> %s", write_output(args.out, report.to_csv()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotids",
        description="IoT flow intrusion-detection experiments: synthesize data, "
        "train standalone and hybrid classifiers, evaluate, predict.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled conn log")
    p.add_argument("--spec", required=True, help="synthesis spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run the full training pipeline")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--data", help="conn-log file or directory of *.labeled files")
    p.add_argument("--out", help="run output directory")
    p.add_argument("--cidr", help="CIDR->country CSV table")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on labeled data")
    p.add_argument("--model", required=True, help="model bundle JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True, help="metrics JSON output path")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="predict labels for a conn log")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("importance", help="permutation feature importance")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_importance)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (DataError, IoFailure) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except ModelError as exc:
        log.error("model error: %s", exc)
        return EXIT_MODEL


def run() -> None:
    """The process entry point (the `iotids` script, `python -m iotids.cli`):
    exits with main's code.  Whatever ends the run (a return, argparse's
    exit, an uncaught error), gc.freeze() then moves every tracked object
    out of the collector's reach, so the interpreter's exit does not collect
    a heap that the OS frees anyway: tens of milliseconds per process.
    In-process callers of main keep their collector as it is."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
