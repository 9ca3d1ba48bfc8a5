"""Confusion matrix, accuracy/precision/recall/F1, and report export."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyMatrix, LengthMismatch
from .output import write_output


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # rows = true class, columns = predicted class
    class_names: list[str]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        lines = ["," + ",".join(self.class_names)]
        for name, row in zip(self.class_names, self.counts):
            lines.append(name + "," + ",".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"


@dataclass
class ClassMetrics:
    class_name: str
    precision: float
    recall: float
    f1: float
    support: int
    flagged_zero_denominator: bool


@dataclass
class MetricsReport:
    accuracy: float
    per_class: list[ClassMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float


def confusion(y_true: np.ndarray, y_pred: np.ndarray, class_count: int, class_names: list[str] | None = None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape[0] != y_pred.shape[0]:
        raise LengthMismatch(f"{y_true.shape[0]} true vs {y_pred.shape[0]} predicted labels")
    counts = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    names = class_names if class_names is not None else [str(c) for c in range(class_count)]
    return ConfusionMatrix(counts, names)


def compute_metrics(matrix: ConfusionMatrix) -> MetricsReport:
    """One-vs-rest precision/recall/F1 per class plus unweighted macro means.

    A zero denominator yields 0 for the affected metric and flags the class.
    """
    counts = matrix.counts
    total = counts.sum()
    if total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    accuracy = float(np.trace(counts) / total)

    per_class: list[ClassMetrics] = []
    for c, name in enumerate(matrix.class_names):
        tp = float(counts[c, c])
        fp = float(counts[:, c].sum() - counts[c, c])
        fn = float(counts[c, :].sum() - counts[c, c])
        flagged = False
        if tp + fp == 0:
            precision, flagged = 0.0, True
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall, flagged = 0.0, True
        else:
            recall = tp / (tp + fn)
        if precision + recall == 0:
            f1, flagged = 0.0, True
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        per_class.append(ClassMetrics(name, precision, recall, f1, int(counts[c, :].sum()), flagged))

    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        macro_precision=float(np.mean([m.precision for m in per_class])),
        macro_recall=float(np.mean([m.recall for m in per_class])),
        macro_f1=float(np.mean([m.f1 for m in per_class])),
    )


def metrics_to_json(report: MetricsReport, task: str) -> str:
    doc = {
        "task": task,
        "accuracy": report.accuracy,
        "macro_precision": report.macro_precision,
        "macro_recall": report.macro_recall,
        "macro_f1": report.macro_f1,
        "per_class": [
            {
                "class": m.class_name,
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
                "flagged_zero_denominator": m.flagged_zero_denominator,
            }
            for m in report.per_class
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def export_report(
    report: MetricsReport,
    matrix: ConfusionMatrix,
    destination: str | Path,
    task: str,
) -> list[Path]:
    """Write metrics.json and confusion.csv.

    File contents are pure functions of the inputs, so repeated exports are
    byte-identical.
    """
    dest = Path(destination)
    return [
        write_output(dest / "metrics.json", metrics_to_json(report, task)),
        write_output(dest / "confusion.csv", matrix.to_csv()),
    ]
