"""Pipeline ordering, leakage guards, manifests, persistence, and fits in
a background child."""

import errno
import functools
import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotids import parallel
from iotids.errors import ConfigError, DataError, ModelDataMismatch, ModelError
from iotids.features import (
    CidrTable,
    fit_min_max,
    fit_one_hot,
    ip_and_categorical_columns,
    matrix_from_records,
)
from iotids.flows import balance_sample
from iotids.metrics import compute_metrics, confusion
from iotids.models import KINDS
from iotids.persist import load_bundle
from iotids import pipeline
from iotids.pipeline import ExperimentConfig, _derived_seed, read_labeled_dir, run_training, train_one_model
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
VALID_SPEC = {
    "task": "binary",
    "rows_per_class": 5,
    "feature_width": 3,
    "center_spacing": 6.0,
    "spread": 1.0,
    "label_noise": 0.1,
    "seed": 0,
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(JSON_VALUES, st.dictionaries(
        st.sampled_from(sorted(VALID_SPEC)), JSON_VALUES | st.just(DROPPED), max_size=3
    ).map(lambda changes: {
        key: value for key, value in {**VALID_SPEC, **changes}.items() if value is not DROPPED
    })))
    def test_synth_spec_from_dict_returns_spec_or_config_error(self, d):
        # the same reader as the config's: a valid synth spec changed as above, or any JSON value
        try:
            spec = SynthSpec.from_dict(d)
        except ConfigError:
            return
        assert isinstance(spec, SynthSpec)


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

    @pytest.fixture
    def fit_calls(self, binary_data, tmp_path, monkeypatch):
        # (calls, uids): the uids each featurize and fit call of one
        # run_training receives, and the uids of each split partition
        dataset = read_labeled_dir(binary_data)
        sampled = balance_sample(dataset, "binary", 60, 3)
        split = stratified_split(sampled.targets("binary"), (0.6, 0.2, 0.2), 3)
        uids = {part: sampled.table.take(rows)["uid"] for part, rows in split.partitions().items()}
        calls = []

        def spy(name, seen):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *a, **k: calls.append((name, seen(a[0]))) or real(*a, **k))

        spy("ip_and_categorical_columns", lambda table: table["uid"])
        spy("fit_one_hot", lambda columns: None)
        spy("matrix_from_records", lambda table: table["uid"])
        spy("fit_min_max", len)
        cfg = ExperimentConfig("binary", ["knn"], 60, 3, split=(0.6, 0.2, 0.2), model_params={"knn": {"k": 1}})
        run_training(cfg, binary_data, tmp_path / "run")
        return calls, uids

    def test_no_heldout_access_before_encoder_fit(self, fit_calls):
        # every featurize and fit call up to fit_min_max sees training rows only
        calls, uids = fit_calls
        fitted = [name for name, _ in calls].index("fit_min_max") + 1
        assert all(seen in (None, uids["train"], len(uids["train"])) for _, seen in calls[:fitted])

    def test_access_log_phases_ordered(self, fit_calls):
        # the calls keep the order and count that perfbench traces: fit on
        # train, then featurize train, test and val
        calls, uids = fit_calls
        assert calls == [
            ("ip_and_categorical_columns", uids["train"]),
            ("fit_one_hot", None),
            ("matrix_from_records", uids["train"]),
            ("fit_min_max", len(uids["train"])),
            ("matrix_from_records", uids["train"]),
            ("matrix_from_records", uids["test"]),
            ("matrix_from_records", uids["val"]),
        ]


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

    def test_cv_predicts_each_members_validation_rows_once(self, binary_data, tmp_path, monkeypatch):
        """The hybrid curve votes from the validation predictions that scored
        each member's fold, so no member predicts them a second time."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # every fit in this process
        predicted = []

        def counted(kind, predict):
            def counting_predict(self, X):
                predicted.append((kind, np.asarray(X).tobytes()))
                return predict(self, X)
            return counting_predict

        for kind in HYBRID_MEMBERS["binary"]:
            cls = KINDS[kind].model_class
            monkeypatch.setattr(cls, "predict", counted(kind, cls.predict))
        cfg = ExperimentConfig(task="binary", models=["rf", "gbm", "svm", "knn", "hybrid"], per_class=40,
                               seed=7, split=(0.8, 0.2, 0.0), cv_folds=3, model_params=FAST_BINARY)
        result = run_training(cfg, binary_data, tmp_path)
        X, y = result.X["train"], result.y["train"]
        for _, va in k_fold(y, 3, cfg.seed):
            rows = X[va].tobytes()
            assert [kind for kind, key in predicted if key == rows] == list(HYBRID_MEMBERS["binary"])

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

    def test_each_model_is_encoded_once(self, binary_data, tmp_path, monkeypatch):
        """The hybrid bundle's model text is spliced from its members' texts,
        so no model is encoded twice and the hybrid's to_dict never runs.
        KNN encodes through its own to_json, which is counted with its
        to_dict."""
        calls = []

        def counted(kind, encode):
            def counting_encode(self):
                calls.append(kind)
                return encode(self)
            return counting_encode

        for kind in ("rf", "gbm", "svm", "knn", "hybrid"):
            cls = KINDS[kind].model_class
            monkeypatch.setattr(cls, "to_dict", counted(kind, cls.to_dict))
        knn_class = KINDS["knn"].model_class
        monkeypatch.setattr(knn_class, "to_json", counted("knn", knn_class.to_json))
        cfg = ExperimentConfig(task="binary", models=["rf", "gbm", "svm", "knn", "hybrid"], per_class=40,
                               seed=7, split=(0.8, 0.2, 0.0), model_params=FAST_BINARY)
        run = run_training(cfg, binary_data, tmp_path)
        assert sorted(calls) == ["gbm", "knn", "rf", "svm"]
        hybrid = load_bundle(run.out_dir / "models" / "hybrid.json")
        assert hybrid.to_json() == (run.out_dir / "models" / "hybrid.json").read_text()

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


@pytest.mark.parametrize("kind, seed, fold_2_seed", [
    ("rf", 457190280, 1620210449),
    ("svm", 3746004709, 1019788328),
    ("ann", 534926514, 1951860232),
    ("cnn", 2580024465, 2979199701),
])
def test_derived_seeds_are_unchanged(kind, seed, fold_2_seed):
    # values of the earlier per-kind seed index table; a changed index reseeds every model of the kind
    assert (_derived_seed(3, kind), _derived_seed(3, kind, 2)) == (seed, fold_2_seed)


MULTICLASS_PARAMS = {
    "rf": {"n_trees": 4, "max_depth": 5},
    "gbm": {"max_rounds": 4, "max_depth": 3},
    "ada": {"n_rounds": 4, "weak_depth": 2},
    "knn": {"k": 3},
    "ann": {"hidden": [8], "epochs": 3, "patience": 3},
    "cnn": {"n_filters": 4, "hidden": 8, "epochs": 2, "patience": 2},
}
BINARY_PARAMS = dict(FAST_BINARY, ann=MULTICLASS_PARAMS["ann"])


class TestBackgroundFits:
    """On more than one usable CPU, ada, svm, ann and cnn are fitted in one
    background child while rf, gbm and knn are fitted here: the outputs,
    and any error, are those of the serial run."""

    @pytest.fixture(scope="class")
    def multiclass_data(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("multiclass")
        write_synth_dataset(SynthSpec("multiclass", 40, seed=4), root)
        return root

    @staticmethod
    def config(task, cv_folds=0):
        if task == "binary":
            return ExperimentConfig("binary", ["rf", "gbm", "svm", "knn", "ann", "hybrid"], 60, 5,
                                    split=(0.8, 0.2, 0.0), cv_folds=cv_folds, model_params=BINARY_PARAMS)
        return ExperimentConfig("multiclass", ["rf", "gbm", "ada", "knn", "ann", "cnn", "hybrid"], 30, 5,
                                split=(0.7, 0.2, 0.1), cv_folds=cv_folds, model_params=MULTICLASS_PARAMS)

    @staticmethod
    def outputs(out: Path) -> dict[str, bytes]:
        return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                if p.is_file() and p.name != "timings.json"}

    def run(self, monkeypatch, cpus, task, data, out, cv_folds=0):
        """The outputs of one run_training at `cpus` usable CPUs, the kinds
        it sent to a background child, and those whose fit came back."""
        sent, collected = [], []
        send, collect = parallel.Workers.send, pipeline.BackgroundFits.collect

        def collecting(self, kind):
            fitted = collect(self, kind)
            collected.extend([kind] * (fitted is not None))
            return fitted

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            m.setattr(parallel.Workers, "send", lambda self, items: send(self, items) or sent.extend(items))
            m.setattr(pipeline.BackgroundFits, "collect", collecting)
            run_training(self.config(task, cv_folds), data, out)
        return self.outputs(out), sent, collected

    @pytest.fixture
    def data(self, binary_data, multiclass_data):
        return {"binary": binary_data, "multiclass": multiclass_data}

    @pytest.mark.parametrize("cv_folds", [0, 3])
    @pytest.mark.parametrize("task, background", [
        ("binary", ["svm", "ann"]),
        ("multiclass", ["ada", "ann", "cnn"]),
    ])
    def test_same_bytes_on_one_and_two_cpus(self, monkeypatch, tmp_path, data, task, background, cv_folds):
        serial, none_sent, _ = self.run(monkeypatch, 1, task, data[task], tmp_path / "one", cv_folds)
        forked, sent, collected = self.run(monkeypatch, 2, task, data[task], tmp_path / "two", cv_folds)
        assert none_sent == [] and sent == collected == background
        assert ("cv_scores.json" in serial) == bool(cv_folds)
        assert forked == serial

    def test_timings_keep_their_keys_and_time_the_childs_fit(self, monkeypatch, tmp_path, data):
        # ada sleeps 0.3 s in the child, while this process spends 0.6 s
        # in rf: its wait for ada is short, the fit it records is not
        from iotids.models import adaboost, forest

        here = os.getpid()
        fit_ada, fit_rf = adaboost.fit_adaboost, forest.fit_random_forest
        monkeypatch.setattr(adaboost, "fit_adaboost",
                            lambda *a, **k: time.sleep(0.3 * (os.getpid() != here)) or fit_ada(*a, **k))
        monkeypatch.setattr(forest, "fit_random_forest", lambda *a, **k: time.sleep(0.6) or fit_rf(*a, **k))
        self.run(monkeypatch, 2, "multiclass", data["multiclass"], tmp_path)
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert list(timings) == ["rf", "gbm", "ada", "knn", "ann", "cnn", "hybrid"]
        assert timings["rf"] >= 0.6 and timings["ada"] >= 0.3

    def failure(self, monkeypatch, cpus, data, out):
        with pytest.raises(Exception) as raised:
            self.run(monkeypatch, cpus, "multiclass", data, out)
        return type(raised.value), str(raised.value)

    def test_first_failing_kind_in_config_order_is_the_error(self, monkeypatch, tmp_path, data):
        from iotids.models import adaboost, knn

        def broken(kind, fit):
            @functools.wraps(fit)  # fit_knn's signature checks the knn model_params
            def failing(*args, **kwargs):
                calls.append((kind, os.getpid()))
                raise ValueError(f"{kind} is broken")
            return failing

        calls = []
        monkeypatch.setattr(adaboost, "fit_adaboost", broken("ada", adaboost.fit_adaboost))
        monkeypatch.setattr(knn, "fit_knn", broken("knn", knn.fit_knn))
        serial = self.failure(monkeypatch, 1, data["multiclass"], tmp_path / "one")
        assert serial == (ModelError, "ada: ada is broken") and calls == [("ada", os.getpid())]
        calls.clear()
        assert self.failure(monkeypatch, 2, data["multiclass"], tmp_path / "two") == serial
        assert calls == [("ada", os.getpid())]  # refitted here; the child's calls stay in the child

    def test_a_failed_fork_fits_every_kind_here(self, monkeypatch, tmp_path, data):
        class NoFork(parallel.Workers):
            def _fork(self):
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        expected, _, _ = self.run(monkeypatch, 2, "multiclass", data["multiclass"], tmp_path / "forked")
        monkeypatch.setattr(pipeline, "Workers", NoFork)
        assert self.run(monkeypatch, 2, "multiclass", data["multiclass"], tmp_path / "eagain") == (expected, [], [])

    @pytest.mark.parametrize("failure", ["exit", "unpicklable"])
    def test_a_fit_that_does_not_come_back_is_refitted_here(self, monkeypatch, tmp_path, data, failure):
        from iotids.nn import training

        here, train_network = os.getpid(), training.train_network

        def in_child(*args, **kwargs):
            network, curve = train_network(*args, **kwargs)
            if os.getpid() != here:
                if failure == "exit":
                    os._exit(0)  # mid-run: ada came back, ann and cnn do not
                network.unpicklable = lambda: None
            return network, curve

        expected, _, _ = self.run(monkeypatch, 1, "multiclass", data["multiclass"], tmp_path / "serial")
        monkeypatch.setattr(training, "train_network", in_child)
        outputs, sent, collected = self.run(monkeypatch, 2, "multiclass", data["multiclass"], tmp_path / "refit")
        assert sent == ["ada", "ann", "cnn"] and collected == ["ada"] and outputs == expected

    def test_a_child_killed_during_a_gbm_fit_leaves_the_run_to_finish(self, monkeypatch, tmp_path, data):
        """The gbm workers are forked while the background child lives and
        hold none of its pipe ends: its death is seen at once, and ada, ann
        and cnn are fitted here."""
        from iotids.models import gbm

        background = []
        send = parallel.Workers.send

        def remembered(self, items):
            background.append(self._children[0][0])
            send(self, items)

        class KillingWorkers(parallel.Workers):
            def map(self, items):
                if background and self._children:  # the gbm workers are alive
                    os.kill(background.pop(), signal.SIGKILL)
                return super().map(items)

        def timeout(signum, frame):
            raise TimeoutError("the run did not finish within 60 s")

        expected, _, _ = self.run(monkeypatch, 1, "multiclass", data["multiclass"], tmp_path / "serial")
        monkeypatch.setattr(gbm, "Workers", KillingWorkers)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            with monkeypatch.context() as m:
                m.setattr(parallel.Workers, "send", remembered)
                outputs, _, _ = self.run(monkeypatch, 2, "multiclass", data["multiclass"], tmp_path / "killed")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert background == [] and outputs == expected
