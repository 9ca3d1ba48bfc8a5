"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 12 (full IoT23 data) is opt-in: set IOTIDS_IOT23_DIR to a
directory of *.labeled captures to run it (see README for the procedure).
"""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

from iotids.features import fit_min_max, permutation_importance, transform_min_max
from iotids.metrics import compute_metrics, confusion
from iotids.models.adaboost import AdaParams, fit_adaboost
from iotids.models.forest import ForestParams, fit_random_forest
from iotids.models.gbm import GbmParams, fit_gbm
from iotids.models.knn import fit_knn
from iotids.models.svm import SvmParams, fit_linear_svm
from iotids.models.tree import TreeParams, fit_tree
from iotids.nn.functional import (
    categorical_cross_entropy,
    elu,
    glorot_uniform,
    glorot_uniform_bound,
    softmax,
)
from iotids.nn.gradcheck import grad_check
from iotids.nn.network import Network, build_ann, build_cnn
from iotids.nn.training import TrainParams, train_network
from iotids.numerics import one_hot
from iotids.splits import k_fold, stratified_split
from iotids.synth import SynthSpec, make_blobs
from iotids.voting import build_hybrid


def ok(n: int, message: str) -> None:
    print(f"\ncriterion {n:2d} PASS: {message}")


# --- 1: metric oracle equivalence -------------------------------------------------


def test_criterion_01_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, 7, n)
        y_pred = rng.integers(0, 7, n)
        report = compute_metrics(confusion(y_true, y_pred, 7))

        # independent recount, no confusion matrix
        acc = sum(int(t == p) for t, p in zip(y_true, y_pred)) / n
        assert abs(report.accuracy - acc) <= 1e-12
        precisions, recalls, f1s = [], [], []
        for c in range(7):
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            pc = report.per_class[c]
            assert abs(pc.precision - precision) <= 1e-12
            assert abs(pc.recall - recall) <= 1e-12
            assert abs(pc.f1 - f1) <= 1e-12
            precisions.append(precision)
            recalls.append(recall)
            f1s.append(f1)
        assert abs(report.macro_precision - sum(precisions) / 7) <= 1e-12
        assert abs(report.macro_recall - sum(recalls) / 7) <= 1e-12
        assert abs(report.macro_f1 - sum(f1s) / 7) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(1, f"1000 random label pairs match the brute-force recount ({elapsed:.2f}s)")


# --- 2: leakage guard ---------------------------------------------------------------


def test_criterion_02_leakage_guard(tmp_path):
    from iotids.features import (
        CidrTable,
        fit_one_hot,
        ip_and_categorical_columns,
        matrix_from_records,
    )
    from iotids.flows import balance_sample
    from iotids.pipeline import ExperimentConfig, read_labeled_dir, run_training
    from iotids.synth import write_synth_dataset

    data_dir = tmp_path / "data"
    write_synth_dataset(SynthSpec("binary", 120, seed=5), data_dir)
    dataset = read_labeled_dir(data_dir)
    table = CidrTable()

    corrupted_detected = 0
    for seed in range(20):
        # independent train-only recount
        sampled = balance_sample(dataset, "binary", 60, seed)
        split = stratified_split(sampled.targets("binary"), (0.8, 0.2, 0.0), seed)
        rows = sampled.table
        vocab = fit_one_hot(ip_and_categorical_columns(rows.take(split.train), table)[1])
        raw_all, _ = matrix_from_records(rows, table, vocab)
        expected = fit_min_max(raw_all[split.train])

        cfg = ExperimentConfig("binary", ["knn"], 60, seed, split=(0.8, 0.2, 0.0),
                               model_params={"knn": {"k": 1}})
        result = run_training(cfg, data_dir, tmp_path / f"run{seed}")
        assert np.array_equal(result.preproc.min_max.x_min, expected.x_min)
        assert np.array_equal(result.preproc.min_max.x_max, expected.x_max)

        # deliberately corrupted fit on train+test, with a test row pushed
        # past the training maximum: must fail the same bitwise comparison
        raw_test = raw_all[split.test].copy()
        raw_test[0, 2] = raw_all[split.train][:, 2].max() + 100.0
        corrupted = fit_min_max(np.vstack([raw_all[split.train], raw_test]))
        if not (np.array_equal(corrupted.x_min, expected.x_min)
                and np.array_equal(corrupted.x_max, expected.x_max)):
            corrupted_detected += 1
    assert corrupted_detected == 20
    ok(2, "pipeline scaler params bitwise-equal train-only recounts for 20 seeds; "
          "corrupted train+test fit detected on all 20")


# --- 3: gradient checks ----------------------------------------------------------


def test_criterion_03_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    ann = Network.initialize(build_ann(5, 2, hidden=(4, 3, 2)), np.random.default_rng(42))
    X = rng.normal(size=(8, 5))
    y = rng.integers(0, 2, 8)
    err_ann = grad_check(ann, X, y, h=1e-4)
    assert err_ann <= 1e-4

    cnn = Network.initialize(build_cnn(8, 2, n_filters=2, hidden=4), np.random.default_rng(42))
    Xc = rng.normal(size=(6, 8))
    yc = rng.integers(0, 2, 6)
    err_cnn = grad_check(cnn, Xc, yc, h=1e-4)
    assert err_cnn <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(3, f"grad checks ANN {err_ann:.2e}, CNN {err_cnn:.2e} (limit 1e-4, {elapsed:.1f}s)")


# --- 4: formula spot values --------------------------------------------------------


def test_criterion_04_formula_spot_values():
    y_elu, _ = elu(np.array([-1.0]), alpha=1.0)
    assert abs(y_elu[0] - (-0.6321205588)) <= 1e-9

    p = softmax(np.array([0.0, math.log(3.0)]))
    assert abs(p[0] - 0.25) <= 1e-12 and abs(p[1] - 0.75) <= 1e-12

    loss = categorical_cross_entropy(np.full(7, 1.0 / 7.0), one_hot(np.array([3]), 7)[0])
    assert abs(loss - math.log(7)) <= 1e-12

    bound = glorot_uniform_bound(6, 6)
    assert abs(bound - 0.7071067812) <= 1e-9
    rng = np.random.default_rng(4)
    draws = np.concatenate(
        [glorot_uniform(6, 6, rng).ravel() for _ in range(100_000 // 36 + 1)]
    )[:100_000]
    assert draws.shape[0] == 100_000
    assert np.all(draws > -bound) and np.all(draws < bound)
    ok(4, "ELU/softmax/cross-entropy/Glorot spot values exact; 1e5 draws strictly in bounds")


# --- 5: tree split oracle --------------------------------------------------------


def test_criterion_05_tree_split_oracle():
    def brute_force(X, y, n_classes):
        counts = np.array([np.sum(y == c) for c in range(n_classes)], dtype=float)
        total = counts.sum()
        parent = 1.0 - ((counts / total) ** 2).sum()
        best = (0.0, -1, 0.0)
        for f in range(X.shape[1]):
            values = np.unique(X[:, f])
            for i in range(len(values) - 1):
                thr = (values[i] + values[i + 1]) / 2.0
                left = X[:, f] <= thr
                lc = np.array([np.sum(y[left] == c) for c in range(n_classes)], dtype=float)
                rc = counts - lc
                lt, rt = lc.sum(), total - lc.sum()
                gain = parent - (lt * (1.0 - ((lc / lt) ** 2).sum())
                                 + rt * (1.0 - ((rc / rt) ** 2).sum())) / total
                if gain > best[0]:
                    best = (gain, f, thr)
        return best

    rng = np.random.default_rng(505)
    matched = 0
    for _ in range(50):
        n = int(rng.integers(5, 201))
        d = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 5))
        X = rng.integers(0, 8, size=(n, d)).astype(float)
        y = rng.integers(0, n_classes, size=n)
        if len(np.unique(y)) == 1:
            y[0] = (y[0] + 1) % n_classes
        tree = fit_tree(X, y, params=TreeParams(n_classes=n_classes))
        _, f, thr = brute_force(X, y, n_classes)
        if f == -1:
            assert tree.feature[0] == -1
        else:
            assert tree.feature[0] == f and tree.threshold[0] == thr
        matched += 1
    assert matched == 50
    ok(5, "root split equals exhaustive brute-force search on 50/50 random datasets")


# --- 6: voting oracle --------------------------------------------------------------


class _Fixed:
    def __init__(self, label, n_classes):
        self.label = label
        self.n_features = 3
        self.n_classes = n_classes

    def predict(self, X):
        return np.full(X.shape[0], self.label, dtype=np.int64)


def _mode_oracle(votes, n_classes):
    counts = [0] * n_classes
    for v in votes:
        counts[v] += 1
    top = max(counts)
    tied = [c for c in range(n_classes) if counts[c] == top]
    if len(tied) == 1:
        return tied[0]
    for v in votes:
        if v in tied:
            return v
    raise AssertionError


def test_criterion_06_voting_oracle():
    X1 = np.zeros((1, 3))
    for votes in itertools.product([0, 1], repeat=4):
        ens = build_hybrid("binary", [_Fixed(v, 2) for v in votes])
        assert ens.predict(X1)[0] == _mode_oracle(votes, 2), votes

    checked = 0
    for votes in itertools.product(range(7), repeat=3):
        ens = build_hybrid("multiclass", [_Fixed(v, 7) for v in votes])
        assert ens.predict(X1)[0] == _mode_oracle(votes, 7), votes
        checked += 1
    assert checked == 343

    rng = np.random.default_rng(6)
    for _ in range(500):
        votes = tuple(rng.integers(0, 7, 3))
        ens = build_hybrid("multiclass", [_Fixed(v, 7) for v in votes])
        assert ens.predict(X1)[0] == _mode_oracle(votes, 7), votes
    ok(6, "all 2^4 binary and 7^3 multiclass vote combinations (+500 random) match the oracle")


# --- 7: synthetic end-to-end -----------------------------------------------------------


def _scaled_task(task, seed):
    X, y = make_blobs(SynthSpec(task, 2000, feature_width=20, seed=seed))
    split = stratified_split(y, (0.7, 0.2, 0.1), seed=seed)
    params = fit_min_max(X[split.train])
    Xp = {p: transform_min_max(params, X[idx]) for p, idx in split.partitions().items()}
    yp = {p: y[idx] for p, idx in split.partitions().items()}
    return Xp, yp


def test_criterion_07_synthetic_end_to_end():
    start = time.perf_counter()
    acc = {}

    Xm, ym = _scaled_task("multiclass", seed=77)

    def test_acc(model):
        return float(np.mean(model.predict(Xm["test"]) == ym["test"]))

    rf = fit_random_forest(Xm["train"], ym["train"], ForestParams(n_trees=15, max_depth=8, seed=1))
    acc["rf"] = test_acc(rf)
    gbm, _ = fit_gbm(Xm["train"], ym["train"], Xm["val"], ym["val"],
                     GbmParams(max_rounds=12, learning_rate=0.4, max_depth=4, patience=4))
    acc["gbm"] = test_acc(gbm)
    ada = fit_adaboost(Xm["train"], ym["train"], AdaParams(n_rounds=15, weak_depth=3))
    acc["ada"] = test_acc(ada)
    knn = fit_knn(Xm["train"], ym["train"], k=5)
    acc["knn"] = test_acc(knn)
    ann, _ = train_network(build_ann(20, 7, hidden=(64, 32, 16)), Xm["train"], ym["train"],
                           Xm["val"], ym["val"], TrainParams(epochs=25, batch_size=256,
                                                             patience=8, seed=2))
    acc["ann"] = test_acc(ann)
    cnn, _ = train_network(build_cnn(20, 7), Xm["train"], ym["train"], Xm["val"], ym["val"],
                           TrainParams(epochs=25, batch_size=256, patience=8, seed=3))
    acc["cnn"] = test_acc(cnn)

    multi_hybrid = build_hybrid("multiclass", [rf, gbm, ada])
    acc["multi_hybrid"] = test_acc(multi_hybrid)
    best_member = max(acc["rf"], acc["gbm"], acc["ada"])
    assert acc["multi_hybrid"] >= best_member - 0.02

    # the svm is binary-only by design, so it and the binary hybrid run on
    # the equally-sized 2-class fixture
    Xb, yb = _scaled_task("binary", seed=78)
    rf_b = fit_random_forest(Xb["train"], yb["train"], ForestParams(n_trees=15, max_depth=8, seed=4))
    gbm_b, _ = fit_gbm(Xb["train"], yb["train"], Xb["val"], yb["val"],
                       GbmParams(max_rounds=10, learning_rate=0.4, max_depth=3, patience=4))
    svm_b = fit_linear_svm(Xb["train"], 2.0 * yb["train"] - 1.0, SvmParams(C=10.0, epochs=5, seed=5))
    knn_b = fit_knn(Xb["train"], yb["train"], k=5)
    acc["svm"] = float(np.mean(svm_b.predict(Xb["test"]) == yb["test"]))

    binary_hybrid = build_hybrid("binary", [rf_b, gbm_b, svm_b, knn_b])
    member_acc = [float(np.mean(m.predict(Xb["test"]) == yb["test"]))
                  for m in (rf_b, gbm_b, svm_b, knn_b)]
    acc["binary_hybrid"] = float(np.mean(binary_hybrid.predict(Xb["test"]) == yb["test"]))
    assert acc["binary_hybrid"] >= max(member_acc) - 0.02

    for name in ("rf", "gbm", "ada", "knn", "svm", "ann", "cnn"):
        assert acc[name] >= 0.95, (name, acc[name])

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    summary = ", ".join(f"{k} {v:.3f}" for k, v in acc.items())
    ok(7, f"{summary} ({elapsed:.0f}s)")


# --- 8: early stopping ---------------------------------------------------------------


def test_criterion_08_early_stopping():
    rng = np.random.default_rng(123)
    n = 60
    Xtr = np.vstack([rng.normal(0.0, 1.0, (n, 2)), rng.normal(3.0, 1.0, (n, 2))])
    ytr = np.array([0] * n + [1] * n)
    Xva = np.vstack([rng.normal(0.0, 1.0, (25, 2)), rng.normal(3.0, 1.0, (25, 2))])
    yva = np.array([0] * 25 + [1] * 25)
    yva[:2] = 1  # planted minimum: mislabeled rows punish over-confidence

    gbm_params = GbmParams(max_rounds=60, learning_rate=0.3, max_depth=2, patience=5)
    gbm, curve = fit_gbm(Xtr, ytr, Xva, yva, gbm_params)
    val = np.array(curve.val_loss)
    assert gbm.best_round == int(val.argmin())
    assert 0 < gbm.best_round < len(val) - 1
    assert curve.stopped_at - gbm.best_round <= gbm_params.patience

    nn_params = TrainParams(epochs=80, batch_size=32, patience=6, seed=9)
    _, nn_curve = train_network(build_ann(2, 2, hidden=(16, 8, 4)), Xtr, ytr, Xva, yva, nn_params)
    nn_val = np.array(nn_curve.val_loss)
    assert nn_curve.best_epoch == int(nn_val.argmin())
    assert (len(nn_val) - 1) - nn_curve.best_epoch <= nn_params.patience
    ok(8, f"GBM best_round {gbm.best_round} and ANN best_epoch {nn_curve.best_epoch} "
          f"are the val-loss argmins; stop lag <= patience")


# --- 9: permutation importance ---------------------------------------------------------


def test_criterion_09_permutation_importance():
    rng = np.random.default_rng(909)
    n = 400
    informative = rng.random(n)
    noise = rng.random((n, 3))
    X = np.column_stack([informative, noise])
    y = (informative > 0.5).astype(np.int64)
    model = fit_tree(X, y, params=TreeParams(max_depth=4, n_classes=2))
    report = permutation_importance(model, X, y, repeats=5, seed=11)
    means = report.mean_importance
    assert np.argmax(means) == 0
    assert all(means[0] > means[j] for j in range(1, 4))
    for j in range(1, 4):
        assert abs(means[j]) <= 0.05
    ok(9, f"informative feature importance {means[0]:.3f} strictly highest; "
          f"noise features within +-0.05 of 0")


# --- 10: split/fold contracts ------------------------------------------------------------


def test_criterion_10_split_and_fold_contracts():
    rng = np.random.default_rng(10)
    for seed in range(100):
        sizes = rng.integers(6, 40, size=int(rng.integers(2, 6)))
        y = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        fractions = (0.7, 0.2, 0.1)
        s = stratified_split(y, fractions, seed=seed)
        merged = np.sort(np.concatenate([s.train, s.test, s.val]))
        np.testing.assert_array_equal(merged, np.arange(len(y)))
        for part, f in zip((s.train, s.test, s.val), fractions):
            assert abs(len(part) - f * len(y)) <= 1.0 + 1e-9
            for c, n_c in enumerate(sizes):
                assert abs(int(np.sum(y[part] == c)) - f * n_c) <= 1.0 + 1e-9

        plan = k_fold(y, 5, seed=seed)
        merged = np.sort(np.concatenate(plan.folds))
        np.testing.assert_array_equal(merged, np.arange(len(y)))
        lengths = [len(f) for f in plan.folds]
        assert max(lengths) - min(lengths) <= 1
        for c in range(len(sizes)):
            counts = [int(np.sum(y[f] == c)) for f in plan.folds]
            assert max(counts) - min(counts) <= 1
    ok(10, "partition, size (+-1), and stratification (+-1/class) hold for 100 seeds")


# --- 11: end-to-end determinism -----------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    from iotids.pipeline import ExperimentConfig, run_training
    from iotids.synth import write_synth_dataset

    data_dir = tmp_path / "data"
    write_synth_dataset(SynthSpec("binary", 100, seed=21), data_dir)
    cfg = ExperimentConfig(
        task="binary",
        models=["rf", "gbm", "svm", "knn", "hybrid"],
        per_class=80,
        seed=13,
        split=(0.7, 0.2, 0.1),
        model_params={
            "rf": {"n_trees": 8, "max_depth": 5},
            "gbm": {"max_rounds": 6, "max_depth": 3},
            "svm": {"epochs": 5},
            "knn": {"k": 3},
        },
    )
    a = run_training(cfg, data_dir, tmp_path / "a")
    b = run_training(cfg, data_dir, tmp_path / "b")
    assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
    compared = 0
    for entry in a.manifest["artifacts"]:
        pa = (tmp_path / "a" / entry["path"]).read_bytes()
        pb = (tmp_path / "b" / entry["path"]).read_bytes()
        assert pa == pb, entry["path"]
        compared += 1
    ok(11, f"manifests and all {compared} artifacts byte-identical across two runs")


# --- 12: optional full-data procedure -------------------------------------------------------


def test_criterion_12_full_iot23_optional(tmp_path):
    data_dir = os.environ.get("IOTIDS_IOT23_DIR")
    if not data_dir:
        pytest.skip(
            "full IoT23 run is a manual procedure: set IOTIDS_IOT23_DIR to a directory "
            "of IoT23 conn.log.labeled files (see README 'Full-dataset procedure')"
        )
    from iotids.pipeline import ExperimentConfig, run_training

    binary_cfg = ExperimentConfig(
        task="binary",
        models=["gbm"],
        per_class=50_000,
        seed=1,
        split=(0.7, 0.2, 0.1),
        expected_width=36,
    )
    result = run_training(binary_cfg, data_dir, tmp_path / "binary")
    doc = json.loads((result.out_dir / "reports" / "gbm" / "metrics.json").read_text())
    assert doc["accuracy"] >= 0.979

    multi_cfg = ExperimentConfig(
        task="multiclass",
        models=["rf", "gbm", "ada", "hybrid"],
        per_class=10_000,
        seed=1,
        split=(0.8, 0.2, 0.0),
        cv_folds=5,
        expected_width=36,
    )
    result = run_training(multi_cfg, data_dir, tmp_path / "multi")
    doc = json.loads((result.out_dir / "reports" / "hybrid" / "metrics.json").read_text())
    assert doc["accuracy"] >= 0.98
    ok(12, "full-data GBM binary and hybrid multiclass accuracies meet their thresholds")
