"""Confusion counting and metric formulas against a brute-force recount."""

import json

import numpy as np
import pytest

from iotids.errors import EmptyMatrix, LengthMismatch
from iotids.metrics import (
    ConfusionMatrix,
    compute_metrics,
    confusion,
    export_report,
    metrics_to_json,
)


def brute_force_metrics(y_true, y_pred, n_classes):
    """Recounts TP/FP/FN per class from scratch, no confusion matrix."""
    accuracy = sum(int(t == p) for t, p in zip(y_true, y_pred)) / len(y_true)
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    return accuracy, per_class


class TestConfusion:
    def test_perfect_prediction_is_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        m = confusion(y, y, 3)
        assert np.trace(m.counts) == 5
        assert m.counts.sum() == 5

    def test_binary_hand_count(self):
        # Malicious = positive class (index 1): TP=3, FN=1, FP=2, TN=4
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
        m = confusion(y_true, y_pred, 2, ["Benign", "Malicious"])
        np.testing.assert_array_equal(m.counts, [[4, 2], [1, 3]])

    def test_empty_inputs_zero_matrix(self):
        m = confusion(np.array([], dtype=int), np.array([], dtype=int), 3)
        np.testing.assert_array_equal(m.counts, np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion(np.array([0, 1]), np.array([0]), 2)

    def test_csv_has_name_headers(self):
        m = confusion(np.array([0, 1]), np.array([0, 1]), 2, ["Benign", "Malicious"])
        lines = m.to_csv().strip().split("\n")
        assert lines[0] == ",Benign,Malicious"
        assert lines[1] == "Benign,1,0"


class TestComputeMetrics:
    def test_precision_three_quarters(self):
        # class 1: TP=3, FP=1
        m = ConfusionMatrix(np.array([[5, 1], [0, 3]]), ["a", "b"])
        report = compute_metrics(m)
        assert report.per_class[1].precision == 0.75

    def test_recall_and_f1_three_quarters(self):
        # class 1: TP=3, FN=1 and precision also 0.75 -> harmonic mean 0.75
        m = ConfusionMatrix(np.array([[5, 1], [1, 3]]), ["a", "b"])
        report = compute_metrics(m)
        assert report.per_class[1].recall == 0.75
        assert report.per_class[1].precision == 0.75
        assert report.per_class[1].f1 == pytest.approx(0.75, abs=1e-12)

    def test_perfect_diagonal_all_ones(self):
        m = ConfusionMatrix(np.diag([3, 4, 5]), ["a", "b", "c"])
        report = compute_metrics(m)
        assert report.accuracy == 1.0
        for pc in report.per_class:
            assert pc.precision == pc.recall == pc.f1 == 1.0

    def test_zero_denominator_flagged(self):
        # class 1 never occurs and is never predicted
        m = ConfusionMatrix(np.array([[4, 0], [0, 0]]), ["a", "b"])
        report = compute_metrics(m)
        assert report.per_class[1].precision == 0.0
        assert report.per_class[1].flagged_zero_denominator
        assert not report.per_class[0].flagged_zero_denominator

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            compute_metrics(ConfusionMatrix(np.zeros((2, 2), dtype=int), ["a", "b"]))

    def test_accuracy_is_support_weighted_recall(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            counts = rng.integers(0, 30, (4, 4))
            if counts.sum() == 0:
                continue
            m = ConfusionMatrix(counts, list("abcd"))
            report = compute_metrics(m)
            supports = counts.sum(axis=1)
            weighted = sum(pc.recall * s for pc, s in zip(report.per_class, supports))
            assert abs(report.accuracy - weighted / counts.sum()) <= 1e-12

    def test_thousand_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 7, 1000)
        y_pred = rng.integers(0, 7, 1000)
        report = compute_metrics(confusion(y_true, y_pred, 7))
        acc, per_class = brute_force_metrics(y_true, y_pred, 7)
        assert report.accuracy == acc
        for pc, (p, r, f) in zip(report.per_class, per_class):
            assert pc.precision == p and pc.recall == r and abs(pc.f1 - f) <= 1e-12

    def test_binary_positive_class_matches_classic_formulas(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
        report = compute_metrics(confusion(y_true, y_pred, 2))
        tp, fp, fn = 3.0, 2.0, 1.0
        assert report.per_class[1].precision == tp / (tp + fp)
        assert report.per_class[1].recall == tp / (tp + fn)


class TestExport:
    def _fixture(self):
        y_true = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        y_pred = np.array([1, 1, 1, 0, 1, 1, 0, 0, 0, 0])
        matrix = confusion(y_true, y_pred, 2, ["Benign", "Malicious"])
        return compute_metrics(matrix), matrix

    def test_metrics_file_accuracy(self, tmp_path):
        report, matrix = self._fixture()
        export_report(report, matrix, tmp_path, "binary")
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert doc["accuracy"] == 0.7  # (4 + 3) / 10
        assert doc["task"] == "binary"
        assert {c["class"] for c in doc["per_class"]} == {"Benign", "Malicious"}

    def test_no_curve_file_when_empty(self, tmp_path):
        report, matrix = self._fixture()
        written = export_report(report, matrix, tmp_path, "binary")
        assert sorted(p.name for p in written) == ["confusion.csv", "metrics.json"]

    def test_rewrite_byte_identical(self, tmp_path):
        report, matrix = self._fixture()
        export_report(report, matrix, tmp_path, "binary")
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        export_report(report, matrix, tmp_path, "binary")
        second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert first == second
        assert sorted(first) == ["confusion.csv", "metrics.json"]

    def test_metrics_json_keys(self):
        report, _ = self._fixture()
        doc = json.loads(metrics_to_json(report, "binary"))
        assert list(doc) == ["task", "accuracy", "macro_precision", "macro_recall",
                             "macro_f1", "per_class"]
        assert list(doc["per_class"][0]) == ["class", "precision", "recall", "f1",
                                             "support", "flagged_zero_denominator"]
