"""Pipeline ordering, leakage guards, manifests, and persistence."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotids.errors import ConfigError, DataError, ModelDataMismatch
from iotids.features import (
    CidrTable,
    fit_min_max,
    fit_one_hot,
    ip_and_categorical_columns,
    matrix_from_records,
)
from iotids.flows import balance_sample
from iotids.metrics import compute_metrics, confusion
from iotids.persist import load_bundle
from iotids.pipeline import ExperimentConfig, read_labeled_dir, run_training, train_one_model
from iotids.splits import k_fold, stratified_split
from iotids.synth import SynthSpec, write_synth_dataset
from iotids.voting import HYBRID_MEMBERS, build_hybrid

FAST_BINARY = {
    "rf": {"n_trees": 8, "max_depth": 5},
    "gbm": {"max_rounds": 8, "max_depth": 3},
    "svm": {"epochs": 5},
    "knn": {"k": 3},
}


# every value json.loads can return, NaN and infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
DROPPED = object()
VALID_CONFIG = {
    "config_version": 1,
    "task": "binary",
    "models": ["rf", "gbm", "svm", "knn", "hybrid"],
    "per_class": 5,
    "seed": 0,
    "split": [0.8, 0.2, 0.0],
    "cv_folds": 2,
    "expected_width": 30,
    "model_params": {"rf": {"n_trees": 2}},
    "paths": {"data": "data"},
}


@pytest.fixture(scope="module")
def binary_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    write_synth_dataset(SynthSpec("binary", 120, seed=5), root)
    return root


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory, binary_data):
    out = tmp_path_factory.mktemp("run")
    cfg = ExperimentConfig(
        task="binary",
        models=["rf", "gbm", "svm", "knn", "hybrid"],
        per_class=100,
        seed=7,
        split=(0.8, 0.2, 0.0),
        cv_folds=5,
        model_params=FAST_BINARY,
    )
    return run_training(cfg, binary_data, out)


class TestConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("binary", ["rf", "mystery"], 10, 0).validate()

    def test_svm_multiclass_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("multiclass", ["svm"], 10, 0).validate()

    def test_hybrid_requires_members(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("binary", ["rf", "hybrid"], 10, 0).validate()

    def test_fractions_must_sum(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("binary", ["rf"], 10, 0, split=(0.5, 0.2, 0.2)).validate()

    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig("binary", ["rf"], 50, 3, cv_folds=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json_file(path) == cfg

    def test_missing_data_path(self):
        with pytest.raises(DataError):
            read_labeled_dir("/nonexistent/place")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(JSON_VALUES, st.dictionaries(
        st.sampled_from(sorted(VALID_CONFIG)), JSON_VALUES | st.just(DROPPED), max_size=3
    ).map(lambda changes: {
        key: value for key, value in {**VALID_CONFIG, **changes}.items() if value is not DROPPED
    })))
    def test_from_dict_returns_config_or_config_error(self, d):
        # a valid config with up to three fields dropped or replaced, or any JSON value
        try:
            cfg = ExperimentConfig.from_dict(d)
        except ConfigError:
            return
        assert isinstance(cfg.split, tuple)


class TestLeakageGuard:
    def test_pipeline_params_equal_train_only_recount(self, binary_data):
        # for 20 split seeds: the pipeline's scaler params must equal a
        # bitwise-independent recount over the training partition alone
        dataset = read_labeled_dir(binary_data)
        table = CidrTable()
        for seed in range(20):
            sampled = balance_sample(dataset, "binary", 60, seed)
            split = stratified_split(sampled.targets("binary"), (0.8, 0.2, 0.0), seed)
            train_rows = sampled.table.take(split.train)
            vocab = fit_one_hot(ip_and_categorical_columns(train_rows, table)[1])
            raw_train, _ = matrix_from_records(train_rows, table, vocab)
            expected = fit_min_max(raw_train)

            cfg = ExperimentConfig("binary", ["knn"], 60, seed, split=(0.8, 0.2, 0.0),
                                   model_params={"knn": {"k": 1}})
            result = run_training(cfg, binary_data, Path(str(binary_data)) / f"run{seed}")
            got = result.preproc.min_max
            np.testing.assert_array_equal(got.x_min, expected.x_min)
            np.testing.assert_array_equal(got.x_max, expected.x_max)

    def test_corrupted_fit_detected_on_range_extending_fixture(self, binary_data):
        # deliberately corrupt the fit (train + test pooled) on a fixture
        # whose test rows are pushed past the training max: the bitwise
        # equality check above must now fail for every seed
        dataset = read_labeled_dir(binary_data)
        table = CidrTable()
        for seed in range(20):
            sampled = balance_sample(dataset, "binary", 60, seed)
            split = stratified_split(sampled.targets("binary"), (0.8, 0.2, 0.0), seed)
            rows = sampled.table
            vocab = fit_one_hot(ip_and_categorical_columns(rows.take(split.train), table)[1])
            raw_all, _ = matrix_from_records(rows, table, vocab)
            raw_train = raw_all[split.train]
            raw_test = raw_all[split.test].copy()
            raw_test[0, 2] = raw_train[:, 2].max() + 100.0  # duration beyond train range
            expected = fit_min_max(raw_train)
            corrupted = fit_min_max(np.vstack([raw_train, raw_test]))
            assert not (
                np.array_equal(corrupted.x_min, expected.x_min)
                and np.array_equal(corrupted.x_max, expected.x_max)
            ), seed

    def test_no_heldout_access_before_encoder_fit(self, binary_run):
        for phase, part in binary_run.access_log:
            if phase in ("init", "fit_encoders"):
                assert part == "train", (phase, part)

    def test_access_log_phases_ordered(self, binary_run):
        phases = [p for p, _ in binary_run.access_log]
        assert phases == sorted(phases, key=["init", "fit_encoders", "transform", "train"].index)


class TestRunArtifacts:
    def test_every_artifact_digest_matches(self, binary_run):
        out = binary_run.out_dir
        for entry in binary_run.manifest["artifacts"]:
            path = out / entry["path"]
            assert path.exists()
            import hashlib

            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]

    def test_timings_unverified(self, binary_run):
        assert binary_run.manifest["unverified"][0]["path"] == "timings.json"
        assert (binary_run.out_dir / "timings.json").exists()

    def test_expected_artifacts_present(self, binary_run):
        paths = {a["path"] for a in binary_run.manifest["artifacts"]}
        for name in ("rf", "gbm", "svm", "knn", "hybrid"):
            assert f"models/{name}.json" in paths
            assert f"reports/{name}/metrics.json" in paths
        assert "curves/gbm_curve.csv" in paths
        assert "curves/hybrid_curve.csv" in paths
        assert "cv_scores.json" in paths

    def test_cv_scores_shape(self, binary_run):
        doc = json.loads((binary_run.out_dir / "cv_scores.json").read_text())
        assert set(doc) == {"rf", "gbm", "svm", "knn"}
        for entry in doc.values():
            assert len(entry["fold_accuracy"]) == 5
            assert entry["mean_accuracy"] == pytest.approx(
                sum(entry["fold_accuracy"]) / 5, abs=1e-12
            )

    def test_cv_hybrid_curve_scores_fold_trained_hybrids(self, tmp_path):
        # overlapping classes, so a hybrid scored on its own training rows
        # would read higher than one trained without the fold
        write_synth_dataset(SynthSpec("multiclass", 40, center_spacing=1.5, label_noise=0.1, seed=8),
                            tmp_path / "data")
        cfg = ExperimentConfig(
            task="multiclass",
            models=["rf", "gbm", "ada", "hybrid"],
            per_class=30,
            seed=6,
            split=(0.8, 0.2, 0.0),
            cv_folds=3,
            model_params={
                "rf": {"n_trees": 5, "max_depth": 6},
                "gbm": {"max_rounds": 4, "max_depth": 3},
                "ada": {"n_rounds": 5, "weak_depth": 2},
            },
        )
        result = run_training(cfg, tmp_path / "data", tmp_path / "run")
        X, y = result.X["train"], result.y["train"]
        lines = (tmp_path / "run" / "curves" / "hybrid_curve.csv").read_text().splitlines()
        assert lines[0] == "fold,train_accuracy,val_accuracy"
        for fold_no, (tr, va) in enumerate(k_fold(y, 3, cfg.seed)):
            members = [
                train_one_model(name, X[tr], y[tr], X[tr], y[tr], X[va], y[va], cfg.seed,
                                cfg.model_params[name], 7, fold_extra=fold_no + 1)[0]
                for name in HYBRID_MEMBERS["multiclass"]
            ]
            hybrid = build_hybrid("multiclass", members)
            acc_tr = float(np.mean(hybrid.predict(X[tr]) == y[tr]))
            acc_va = float(np.mean(hybrid.predict(X[va]) == y[va]))
            assert lines[1 + fold_no] == f"{fold_no},{acc_tr!r},{acc_va!r}"

    def test_models_reach_high_test_accuracy(self, binary_run):
        for name, bundle in binary_run.bundles.items():
            acc = float(np.mean(bundle.predict(binary_run.X["test"]) == binary_run.y["test"]))
            assert acc >= 0.95, name

    def test_report_matches_manual_evaluation(self, binary_run):
        # cmd-level metrics equal ensemble_eval applied to the same predictions
        doc = json.loads((binary_run.out_dir / "reports" / "hybrid" / "metrics.json").read_text())
        bundle = binary_run.bundles["hybrid"]
        matrix = confusion(binary_run.y["test"], bundle.predict(binary_run.X["test"]), 2,
                           ["Benign", "Malicious"])
        manual = compute_metrics(matrix)
        assert doc["accuracy"] == manual.accuracy
        assert doc["macro_f1"] == manual.macro_f1


class TestDeterminism:
    def test_two_runs_byte_identical(self, binary_data, tmp_path):
        cfg = ExperimentConfig(
            task="binary",
            models=["rf", "gbm", "svm", "knn", "hybrid"],
            per_class=60,
            seed=11,
            split=(0.7, 0.2, 0.1),
            model_params=FAST_BINARY,
        )
        a = run_training(cfg, binary_data, tmp_path / "a")
        b = run_training(cfg, binary_data, tmp_path / "b")
        assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
        for entry in a.manifest["artifacts"]:
            pa = (tmp_path / "a" / entry["path"]).read_bytes()
            pb = (tmp_path / "b" / entry["path"]).read_bytes()
            assert pa == pb, entry["path"]


class TestPersistenceRoundTrip:
    def test_bundles_reload_with_identical_predictions(self, binary_run):
        X = binary_run.X["test"]
        for name, bundle in binary_run.bundles.items():
            loaded = load_bundle(binary_run.out_dir / "models" / f"{name}.json")
            np.testing.assert_array_equal(loaded.predict(X), bundle.predict(X))

    def test_bad_version_rejected(self, binary_run, tmp_path):
        doc = json.loads((binary_run.out_dir / "models" / "rf.json").read_text())
        doc["format_version"] = 99
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ModelDataMismatch):
            load_bundle(bad)

    def test_validation_partition_used_when_present(self, binary_data, tmp_path):
        cfg = ExperimentConfig(
            task="binary", models=["gbm"], per_class=60, seed=3,
            split=(0.7, 0.1, 0.2), model_params={"gbm": {"max_rounds": 6, "max_depth": 3}},
        )
        result = run_training(cfg, binary_data, tmp_path / "v")
        assert len(result.curves["gbm"].val_loss) >= 1

    def test_fold_fallback_when_no_val_partition(self, binary_data, tmp_path):
        cfg = ExperimentConfig(
            task="binary", models=["gbm"], per_class=60, seed=3,
            split=(0.8, 0.2, 0.0), model_params={"gbm": {"max_rounds": 6, "max_depth": 3}},
        )
        result = run_training(cfg, binary_data, tmp_path / "f")
        assert len(result.curves["gbm"].val_loss) >= 1


class TestMulticlassPipeline:
    def test_multiclass_hybrid_run_with_sentinel_rows(self, tmp_path):
        # a Torii row is outside the seven canonical classes: it stays in
        # the binary task but must vanish from the multiclass sample
        data_dir = tmp_path / "data"
        path = write_synth_dataset(SynthSpec("multiclass", 60, seed=9), data_dir)
        lines = path.read_text().rstrip("\n").split("\n")
        torii = lines[-1].split("\t")
        torii[-1] = "C&C-Torii"
        torii[1] = "CtoriiXYZ"
        lines.append("\t".join(torii))
        path.write_text("\n".join(lines) + "\n")

        cfg = ExperimentConfig(
            task="multiclass",
            models=["rf", "gbm", "ada", "hybrid"],
            per_class=50,
            seed=3,
            split=(0.8, 0.2, 0.0),
            model_params={
                "rf": {"n_trees": 8, "max_depth": 6},
                "gbm": {"max_rounds": 5, "max_depth": 3},
                "ada": {"n_rounds": 8, "weak_depth": 2},
            },
        )
        result = run_training(cfg, data_dir, tmp_path / "run")
        assert set(result.bundles) == {"rf", "gbm", "ada", "hybrid"}
        assert result.bundles["hybrid"].model.member_names == ["rf", "gbm", "ada"]
        # 7 classes x 50 sampled, none of them the sentinel row
        assert result.manifest["provenance"]["sampled_rows"] == 350
        acc = float(np.mean(result.bundles["hybrid"].predict(result.X["test"])
                            == result.y["test"]))
        assert acc >= 0.95

    def test_binary_task_keeps_sentinel_rows(self, tmp_path):
        from iotids.flows import BinaryClass

        data_dir = tmp_path / "data"
        path = write_synth_dataset(SynthSpec("binary", 30, seed=9), data_dir)
        lines = path.read_text().rstrip("\n").split("\n")
        torii = lines[-1].split("\t")
        torii[-1] = "C&C-Torii"
        torii[1] = "CtoriiXYZ"
        lines.append("\t".join(torii))
        path.write_text("\n".join(lines) + "\n")

        dataset = read_labeled_dir(data_dir)
        sampled = balance_sample(dataset, "binary", 31, seed=0)
        malicious = sampled.targets("binary") == BinaryClass.MALICIOUS
        assert int(malicious.sum()) == 31  # 30 DDoS rows + the Torii row


class TestNeuralPipeline:
    def test_ann_cnn_bundles_round_trip(self, binary_data, tmp_path):
        cfg = ExperimentConfig(
            task="binary",
            models=["ann", "cnn"],
            per_class=100,
            seed=19,
            split=(0.7, 0.2, 0.1),
            model_params={
                "ann": {"hidden": [16, 8, 4], "epochs": 40, "batch_size": 32, "patience": 40},
                "cnn": {"n_filters": 8, "hidden": 16, "epochs": 40, "batch_size": 32, "patience": 40},
            },
        )
        result = run_training(cfg, binary_data, tmp_path / "nn")
        X = result.X["test"]
        for name in ("ann", "cnn"):
            bundle = result.bundles[name]
            acc = float(np.mean(bundle.predict(X) == result.y["test"]))
            assert acc >= 0.95, name
            loaded = load_bundle(tmp_path / "nn" / "models" / f"{name}.json")
            np.testing.assert_array_equal(loaded.predict(X), bundle.predict(X))
            probs = loaded.predict_proba(X)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert (tmp_path / "nn" / "curves" / f"{name}_curve.csv").exists()
