"""CLI subcommands, file outputs, and exit codes."""

import errno
import json
import os
import select
import stat
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import iotids
from iotids import parallel
from iotids.cli import EXIT_CONFIG, EXIT_DATA, EXIT_MODEL, EXIT_OK, main, predictions_csv
from iotids.errors import ConfigError, IoFailure
from iotids.flows import parse_conn_log_file
from iotids.output import write_output
from iotids.persist import load_bundle


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train once; downstream commands reuse the run."""
    root = tmp_path_factory.mktemp("cli")
    spec = {"task": "binary", "rows_per_class": 100, "seed": 21}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == EXIT_OK

    cfg = {
        "config_version": 1,
        "task": "binary",
        "models": ["rf", "gbm", "svm", "knn", "hybrid"],
        "per_class": 80,
        "seed": 13,
        "split": [0.8, 0.2, 0.0],
        "cv_folds": 0,
        "model_params": {
            "rf": {"n_trees": 8, "max_depth": 5},
            "gbm": {"max_rounds": 6, "max_depth": 3},
            "svm": {"epochs": 5},
            "knn": {"k": 1},
        },
    }
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "cfg.json"), "--data", str(root / "data"),
                 "--out", str(root / "run")]) == EXIT_OK
    return root


class TestTrainOutputs:
    def test_manifest_and_models_exist(self, workspace):
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        assert manifest["config"]["task"] == "binary"
        for name in ("rf", "gbm", "svm", "knn", "hybrid"):
            assert (workspace / "run" / "models" / f"{name}.json").exists()

    def test_config_error_exit_code(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": "binary", "models": ["nope"], "per_class": 5, "seed": 1}))
        assert main(["train", "--config", str(bad), "--data", str(workspace / "data"),
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_data_error_exit_code(self, workspace, tmp_path):
        assert main(["train", "--config", str(workspace / "cfg.json"),
                     "--data", str(tmp_path / "missing"), "--out", str(tmp_path / "x")]) == EXIT_DATA


class TestEvaluate:
    def test_self_evaluation_writes_report(self, workspace):
        report = workspace / "eval" / "rf.json"
        code = main(["evaluate", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(workspace / "data"), "--report", str(report)])
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["task"] == "binary"
        assert doc["accuracy"] >= 0.95  # training data of a separable fixture
        assert report.with_suffix(".confusion.csv").exists()

    def test_confusion_csv_goes_beside_the_report_a_symlink_resolves_to(self, workspace, tmp_path):
        (tmp_path / "out").mkdir()
        (tmp_path / "target").mkdir()
        (tmp_path / "out" / "r.json").symlink_to(tmp_path / "target" / "report.json")
        assert main(command_args(workspace, "evaluate", tmp_path / "out")) == EXIT_OK
        assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "r.json"]
        assert sorted(p.name for p in (tmp_path / "target").iterdir()) == ["report.confusion.csv", "report.json"]

    def test_a_fifo_report_gets_no_confusion_csv(self, workspace, tmp_path):
        os.mkfifo(tmp_path / "r.json")
        proc = subprocess.Popen([sys.executable, "-m", "iotids.cli", *command_args(workspace, "evaluate", tmp_path)],
                                env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            received = read_fifo(tmp_path / "r.json", proc)
        finally:
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK, stderr
        assert json.loads(received)["task"] == "binary"
        assert list(tmp_path.iterdir()) == [tmp_path / "r.json"]
        assert b"no confusion CSV: the report" in stderr

    def test_empty_data_file_is_data_error(self, workspace, tmp_path):
        empty = tmp_path / "empty.labeled"
        empty.write_text("#fields\tts\tuid\n")
        code = main(["evaluate", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(empty), "--report", str(tmp_path / "r.json")])
        assert code == EXIT_DATA

    def test_corrupt_bundle_is_model_error(self, workspace, tmp_path):
        doc = json.loads((workspace / "run" / "models" / "rf.json").read_text())
        doc["format_version"] = 99
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(bad), "--data", str(workspace / "data"),
                     "--report", str(tmp_path / "r.json")])
        assert code == EXIT_MODEL


class TestPredict:
    def test_k1_knn_self_agreement(self, workspace):
        out = workspace / "knn_preds.csv"
        code = main(["predict", "--model", str(workspace / "run" / "models" / "knn.json"),
                     "--input", str(workspace / "data" / "synth_binary.labeled"),
                     "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "row_index,predicted_label"
        assert len(lines) == 201

    def test_probability_columns_sum_to_one(self, workspace):
        out = workspace / "gbm_preds.csv"
        main(["predict", "--model", str(workspace / "run" / "models" / "gbm.json"),
              "--input", str(workspace / "data" / "synth_binary.labeled"),
              "--output", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "row_index,predicted_label,p_Benign,p_Malicious"
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[2]) + float(cells[3]) - 1.0) <= 1e-9

    def test_unlabeled_input_predicts(self, workspace, tmp_path):
        labeled = (workspace / "data" / "synth_binary.labeled").read_text().split("\n")
        stripped = []
        for line in labeled:
            if line.startswith("#fields"):
                stripped.append("\t".join(line.split("\t")[:-2]))
            elif line.startswith("#") or not line:
                stripped.append(line)
            else:
                stripped.append("\t".join(line.split("\t")[:-2]))
        unlabeled = tmp_path / "unlabeled.log"
        unlabeled.write_text("\n".join(stripped))
        out = tmp_path / "preds.csv"
        code = main(["predict", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--input", str(unlabeled), "--output", str(out)])
        assert code == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 201

    @pytest.mark.parametrize("kind", ["hybrid", "rf"])
    def test_csv_matches_row_by_row_rendering(self, workspace, tmp_path, kind):
        """predictions.csv as the per-row loop wrote it, for a bundle without
        class probabilities (hybrid) and one with them (rf)."""
        model, data = workspace / "run" / "models" / f"{kind}.json", workspace / "data" / "synth_binary.labeled"
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(model), "--input", str(data), "--output", str(out)]) == EXIT_OK
        bundle = load_bundle(model)
        X = bundle.featurize(parse_conn_log_file(data, allow_unlabeled=True))
        assert (bundle.predict_proba(X) is None) == (kind == "hybrid")
        assert out.read_bytes() == row_by_row_csv(bundle, X).encode()

    def test_csv_of_no_rows_is_its_header(self):
        assert predictions_csv(["Benign", "Malicious"], np.zeros(0, dtype=np.int64), None) == \
            "row_index,predicted_label\n"
        assert predictions_csv(["Benign", "Malicious"], np.zeros(0, dtype=np.int64), np.zeros((0, 2))) == \
            "row_index,predicted_label,p_Benign,p_Malicious\n"


def row_by_row_csv(bundle, X):
    """The predictions CSV as _cmd_predict built it one row at a time."""
    labels = bundle.predict(X)
    probs = bundle.predict_proba(X)
    header = ["row_index", "predicted_label"]
    if probs is not None:
        header.extend(f"p_{name}" for name in bundle.class_names)
    lines = [",".join(header)]
    for i in range(X.shape[0]):
        row = [str(i), bundle.class_names[int(labels[i])]]
        if probs is not None:
            row.extend(repr(float(v)) for v in probs[i])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestImportance:
    def test_repeatable_csv(self, workspace, tmp_path):
        args = ["importance", "--model", str(workspace / "run" / "models" / "rf.json"),
                "--data", str(workspace / "data"), "--repeats", "1", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_header_and_feature_names(self, workspace, tmp_path):
        out = tmp_path / "imp.csv"
        main(["importance", "--model", str(workspace / "run" / "models" / "rf.json"),
              "--data", str(workspace / "data"), "--repeats", "2", "--seed", "1",
              "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "feature,mean_importance,repeat_values"
        names = [line.split(",")[0] for line in lines[1:]]
        assert "duration" in names and "orig_scope" in names

    def test_no_task_rows_is_data_error(self, workspace, tmp_path, caplog):
        # accuracy over zero rows is undefined: exit 3, as evaluate does, not a report of NaNs
        empty = tmp_path / "empty.labeled"
        empty.write_text("#fields\tts\tuid\n")
        out = tmp_path / "imp.csv"
        assert main(["importance", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(empty), "--out", str(out)]) == EXIT_DATA
        assert "at least one labeled row" in caplog.text and not out.exists()


class TestLogging:
    def test_bad_log_level_is_config_error(self, workspace, monkeypatch):
        monkeypatch.setenv("IDS_LOG_LEVEL", "verbose")
        assert main(["synth", "--spec", "x", "--out", "y"]) == EXIT_CONFIG


class TestSelfAgreement:
    def test_k1_knn_full_self_agreement(self, tmp_path):
        # train on the whole fixture (no holdout): k=1 predictions on the
        # training file agree with its labels row for row
        spec = {"task": "binary", "rows_per_class": 40, "seed": 31}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
        cfg = {
            "task": "binary",
            "models": ["knn"],
            "per_class": 40,
            "seed": 2,
            "split": [1.0, 0.0, 0.0],
            "model_params": {"knn": {"k": 1}},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--data", str(tmp_path / "data"), "--out", str(tmp_path / "run")]) == EXIT_OK
        out = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(tmp_path / "run" / "models" / "knn.json"),
                     "--input", str(tmp_path / "data" / "synth_binary.labeled"),
                     "--output", str(out)]) == EXIT_OK

        from iotids.flows import parse_conn_log_file

        table = parse_conn_log_file(tmp_path / "data" / "synth_binary.labeled")
        lines = out.read_text().strip().split("\n")[1:]
        assert len(lines) == len(table)
        for line, label in zip(lines, table["raw_label"]):
            assert line.split(",")[1] == label

    def test_train_partition_evaluation_is_optimistic(self, workspace, tmp_path):
        # separable fixture: accuracy on the model's own training data is
        # at least its held-out test accuracy
        report = tmp_path / "self.json"
        main(["evaluate", "--model", str(workspace / "run" / "models" / "rf.json"),
              "--data", str(workspace / "data"), "--report", str(report)])
        self_acc = json.loads(report.read_text())["accuracy"]
        test_acc = json.loads(
            (workspace / "run" / "reports" / "rf" / "metrics.json").read_text()
        )["accuracy"]
        assert self_acc >= test_acc - 1e-12


PROBE_CONFIG = {"task": "binary", "models": ["rf"], "per_class": 20, "seed": 1, "split": [0.8, 0.2, 0.0]}


@pytest.fixture(scope="module")
def probe_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    (root / "spec.json").write_text(json.dumps({"task": "binary", "rows_per_class": 20, "seed": 4}))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == EXIT_OK
    return root / "data"


def train_exit(config, data, tmp_path) -> int:
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(data),
                 "--out", str(tmp_path / "run")])


class TestConfigErrors:
    @pytest.mark.parametrize("kind, params", [
        ("rf", {"bogus": 1}),
        ("rf", {"seed": 5}),
        ("ann", {"bogus": 1}),
        ("knn", {"kk": 9}),
        ("svm", {"k": 3}),
    ])
    def test_unknown_model_params_key(self, probe_data, tmp_path, caplog, kind, params):
        config = dict(PROBE_CONFIG, models=[kind], model_params={kind: params})
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        (key,) = params
        assert f"{kind} model_params" in caplog.text and repr(key) in caplog.text

    @pytest.mark.parametrize("params", [{"rff": {"n_trees": 3}}, {"hybrid": {"x": 1}}])
    def test_model_params_naming_no_standalone_model(self, probe_data, tmp_path, caplog, params):
        config = dict(PROBE_CONFIG, model_params=params)
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        assert repr(list(params)) in caplog.text

    def test_model_params_of_an_unlisted_model_are_allowed(self):
        from iotids.pipeline import ExperimentConfig

        ExperimentConfig(task="binary", models=["rf"], per_class=20, seed=1, model_params={"gbm": {}}).validate()

    @pytest.mark.parametrize("kind, params", [
        ("rf", {"n_trees": "x"}),
        ("gbm", {"learning_rate": "a"}),
        ("svm", {"epochs": 2.5}),
        ("rf", {"bootstrap": 1}),
        ("rf", {"max_depth": True}),
        ("gbm", {"leaf_l2": float("nan")}),
        ("knn", {"k": "3"}),
        ("ann", {"hidden": [8, "4"]}),
        ("ann", {"hidden": 8}),
        ("cnn", {"epochs": None}),
    ])
    def test_mistyped_model_params_value(self, probe_data, tmp_path, caplog, kind, params):
        config = dict(PROBE_CONFIG, models=[kind], model_params={kind: params})
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        (key,) = params
        assert f"{kind} model_params" in caplog.text and repr(key) in caplog.text

    @pytest.mark.parametrize("kind, params", [
        ("knn", {"k": 0}),
        ("knn", {"k": -1}),
        ("rf", {"n_trees": 0}),
        ("rf", {"max_depth": -1}),
        ("rf", {"features_per_split": 0}),
        ("gbm", {"max_rounds": 0}),
        ("gbm", {"learning_rate": -1}),
        ("svm", {"epochs": 0}),
        ("svm", {"C": 0}),
        ("svm", {"decay": -0.5}),
        ("gbm", {"leaf_l2": -1e-9}),
        ("ada", {"weak_depth": 0}),
        ("ann", {"hidden": [8, 0]}),
        ("ann", {"dropout_rate": 1.0}),
        ("ann", {"elu_alpha": 0}),
        ("cnn", {"pool": 0}),
    ])
    def test_out_of_range_model_params_value(self, probe_data, tmp_path, caplog, monkeypatch, kind, params):
        from iotids import pipeline

        def must_not_run(*args, **kwargs):
            raise AssertionError("data read before the config error")

        monkeypatch.setattr(pipeline, "read_labeled_dir", must_not_run)
        config = dict(PROBE_CONFIG, models=[kind], model_params={kind: params})
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        (key,) = params
        assert f"{kind} model_params" in caplog.text and repr(key) in caplog.text

    def test_k_above_train_rows_is_a_model_error(self, probe_data, tmp_path):
        # the train row count depends on the data, so fit_knn checks it
        config = dict(PROBE_CONFIG, models=["knn"], model_params={"knn": {"k": 1000}})
        assert train_exit(config, probe_data, tmp_path) == EXIT_MODEL

    def test_every_numeric_model_param_has_a_range(self):
        import inspect
        import typing

        from iotids.models.adaboost import AdaParams
        from iotids.models.forest import ForestParams
        from iotids.models.gbm import GbmParams
        from iotids.models.knn import fit_knn
        from iotids.models.svm import SvmParams
        from iotids.nn.network import build_ann, build_cnn
        from iotids.nn.training import TrainParams
        from iotids.jsontypes import _VALUE_RANGES

        for target in (GbmParams, AdaParams, fit_knn, ForestParams, SvmParams, build_ann, build_cnn, TrainParams):
            hints = typing.get_type_hints(target)
            for name, param in inspect.signature(target).parameters.items():
                if param.default is not inspect.Parameter.empty and name != "seed" and hints[name] is not bool:
                    assert name in _VALUE_RANGES, f"{target.__name__}.{name}"

    def test_model_params_checked_before_data(self, probe_data, tmp_path, monkeypatch):
        from iotids import pipeline

        def must_not_run(*args, **kwargs):
            raise AssertionError("ran before the config error")

        monkeypatch.setattr(pipeline, "read_labeled_dir", must_not_run)
        monkeypatch.setattr(pipeline, "train_one_model", must_not_run)
        params = {"rf": {"n_trees": 2}, "gbm": {"max_rounds": 2}, "knn": {"kk": 5}}
        config = dict(PROBE_CONFIG, models=["rf", "gbm", "svm", "knn"], model_params=params)
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        unchecked = pipeline.ExperimentConfig(
            task="binary", models=["rf", "gbm", "svm", "knn"], per_class=20, seed=1, model_params=params
        )
        with pytest.raises(ConfigError, match="'kk'"):
            pipeline.run_training(unchecked, probe_data, tmp_path / "direct")

    def test_well_typed_model_params_accepted(self):
        from iotids.pipeline import model_settings

        rf = model_settings("rf", {"max_depth": None, "features_per_split": 3, "bootstrap": False}, 1)
        assert (rf.max_depth, rf.features_per_split, rf.bootstrap) == (None, 3, False)
        assert model_settings("gbm", {"learning_rate": 1, "leaf_l2": 0.5}, 1).learning_rate == 1
        gbm = model_settings("gbm", {"learning_rate": 1e-12, "leaf_l2": 0, "max_depth": 1, "patience": 1}, 1)
        assert (gbm.learning_rate, gbm.leaf_l2, gbm.max_depth) == (1e-12, 0, 1)
        assert model_settings("svm", {"decay": 0, "epochs": 1}, 1).decay == 0
        assert model_settings("knn", {"k": 1}, 1).keywords == {"k": 1}
        build, train = model_settings("ann", {"hidden": [4, 2], "learning_rate": 0.01, "epochs": 3}, 1)
        assert [l["n_out"] for l in build(5, 2).layers if l["kind"] == "dense"] == [4, 2, 2]
        assert (train.learning_rate, train.epochs) == (0.01, 3)

    @pytest.mark.parametrize("config", [
        [],
        dict(PROBE_CONFIG, models=5),
        dict(PROBE_CONFIG, per_class="x"),
        dict(PROBE_CONFIG, split=[0.5, "a", 0.5]),
        dict(PROBE_CONFIG, seed="s"),
        dict(PROBE_CONFIG, model_params={"rf": [1]}),
    ], ids=["list", "models", "per_class", "split", "seed", "model_params"])
    def test_mistyped_config(self, probe_data, tmp_path, config):
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG

    def test_mistyped_synth_seed(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"task": "binary", "rows_per_class": 5, "seed": "s"}))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_CONFIG

    def test_unknown_config_field_is_config_error(self, probe_data, tmp_path, caplog):
        # a misspelled cv_folds used to be ignored: the run exited 0 without cv_scores.json
        assert train_exit(dict(PROBE_CONFIG, cv_fold=3), probe_data, tmp_path) == EXIT_CONFIG
        assert "config: unknown fields ['cv_fold']" in caplog.text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field", ["task", "models", "per_class", "seed"])
    def test_missing_config_field_is_config_error(self, probe_data, tmp_path, caplog, field):
        config = {k: v for k, v in PROBE_CONFIG.items() if k != field}
        assert train_exit(config, probe_data, tmp_path) == EXIT_CONFIG
        assert f"config: missing fields [{field!r}]" in caplog.text

    @pytest.mark.parametrize("spec, message", [
        ({"task": "binary", "rows_per_class": 5, "noise": 0.1}, "synth spec: unknown fields ['noise']"),
        ({"task": "binary"}, "synth spec: missing fields ['rows_per_class']"),
        ({"task": "binary", "rows_per_class": 5, "spread": -1}, "synth spec: 'spread' must be >= 0"),
        ({"task": "binary", "rows_per_class": 5, "center_spacing": 10**400}, "'center_spacing' must be float"),
    ])
    def test_bad_synth_spec_field_is_config_error(self, tmp_path, caplog, spec, message):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_CONFIG
        assert message in caplog.text
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("spec", [
        {"task": "binary", "rows_per_class": 10**20},
        {"task": "multiclass", "rows_per_class": 2**60, "feature_width": 2},
    ])
    def test_synth_row_count_beyond_int64_is_config_error(self, tmp_path, caplog, spec):
        # rows_per_class x classes x feature_width values do not fit int64; no file is written
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_CONFIG
        assert "do not fit int64" in caplog.text
        assert not (tmp_path / "data").exists()

    def test_train_fraction_of_zero_is_config_error(self, probe_data, tmp_path, caplog):
        assert train_exit(dict(PROBE_CONFIG, split=[0, 1, 0]), probe_data, tmp_path) == EXIT_CONFIG
        assert "train partition" in caplog.text
        assert not (tmp_path / "run").exists()

    def test_empty_train_partition_is_data_error(self, probe_data, tmp_path, caplog):
        # 1% of 10 rows per class rounds to no train row
        config = dict(PROBE_CONFIG, per_class=10, split=[0.01, 0.99, 0])
        assert train_exit(config, probe_data, tmp_path) == EXIT_DATA
        assert "the train partition is empty" in caplog.text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spec", [
        {"task": "multiclass", "rows_per_class": 2, "center_spacing": 1e308},  # class centers overflow
        {"task": "binary", "rows_per_class": 2, "spread": 1e308},  # the blob noise overflows
        {"task": "binary", "rows_per_class": 2, "center_spacing": 1.5e308, "spread": 1e307},  # only the shift does
    ])
    def test_synth_spec_that_overflows_is_config_error(self, tmp_path, spec):
        # each spec passes SynthSpec.validate; no file is written
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_CONFIG
        assert not (tmp_path / "data").exists()


class TestCidrTableErrors:
    @pytest.mark.parametrize("name, text, where", [
        ("header.csv", "prefix,cc\n8.8.8.0/24,US\n", "header.csv: expected CSV header"),
        ("bad_cidr.csv", "cidr,country\n8.8.8.0/24,US\nnot-a-cidr,US\n", "bad_cidr.csv line 3"),
        ("one_column.csv", "cidr,country\n8.8.8.0/24\n", "one_column.csv line 2"),
    ])
    def test_bad_table_is_data_error(self, probe_data, tmp_path, caplog, name, text, where):
        (tmp_path / name).write_text(text)
        (tmp_path / "cfg.json").write_text(json.dumps(PROBE_CONFIG))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(probe_data),
                     "--out", str(tmp_path / "run"), "--cidr", str(tmp_path / name)]) == EXIT_DATA
        assert where in caplog.text

    def test_missing_table_is_data_error(self, probe_data, tmp_path, caplog):
        (tmp_path / "cfg.json").write_text(json.dumps(PROBE_CONFIG))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(probe_data),
                     "--out", str(tmp_path / "run"), "--cidr", str(tmp_path / "nope.csv")]) == EXIT_DATA
        assert "cannot read CIDR table" in caplog.text and "nope.csv" in caplog.text

    def test_bad_bundled_row_is_model_error(self, workspace, tmp_path):
        doc = json.loads((workspace / "run" / "models" / "rf.json").read_text())
        doc["preprocessing"]["cidr"] = [["bad", "US"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--input", str(workspace / "data" / "synth_binary.labeled"),
                     "--output", str(tmp_path / "preds.csv")]) == EXIT_MODEL


@pytest.fixture
def latin1_data(workspace, tmp_path):
    """A copy of the workspace data with one non-UTF-8 byte on line 10."""
    lines = (workspace / "data" / "synth_binary.labeled").read_bytes().split(b"\n")
    lines[9] = lines[9].replace(b"\t", b"\t\xe9", 1)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "latin1.labeled").write_bytes(b"\n".join(lines))
    return tmp_path / "data"


class TestUnreadableConnLog:
    def test_predict_missing_input(self, workspace, tmp_path, caplog):
        assert main(["predict", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--input", str(tmp_path / "nope.log"), "--output", str(tmp_path / "p.csv")]) == EXIT_DATA
        assert "nope.log" in caplog.text

    def test_predict_non_utf8(self, workspace, latin1_data, tmp_path, caplog):
        assert main(["predict", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--input", str(latin1_data / "latin1.labeled"),
                     "--output", str(tmp_path / "p.csv")]) == EXIT_DATA
        assert "latin1.labeled line 10: not UTF-8" in caplog.text

    def test_evaluate_non_utf8(self, workspace, latin1_data, tmp_path, caplog):
        assert main(["evaluate", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(latin1_data), "--report", str(tmp_path / "r.json")]) == EXIT_DATA
        assert "latin1.labeled line 10: not UTF-8" in caplog.text

    def test_train_non_utf8(self, workspace, latin1_data, tmp_path, caplog):
        assert main(["train", "--config", str(workspace / "cfg.json"), "--data", str(latin1_data),
                     "--out", str(tmp_path / "run")]) == EXIT_DATA
        assert "latin1.labeled line 10: not UTF-8" in caplog.text


def command_args(workspace, command, out):
    """A run of the command on the workspace that writes its output to, or
    under, out."""
    rf, data = str(workspace / "run" / "models" / "rf.json"), str(workspace / "data")
    return {
        "synth": ["synth", "--spec", str(workspace / "spec.json"), "--out", str(out)],
        "train": ["train", "--config", str(workspace / "cfg.json"), "--data", data, "--out", str(out)],
        "evaluate": ["evaluate", "--model", rf, "--data", data, "--report", str(out / "r.json")],
        "predict": ["predict", "--model", str(workspace / "run" / "models" / "hybrid.json"),
                    "--input", str(workspace / "data" / "synth_binary.labeled"), "--output", str(out / "p.csv")],
        "importance": ["importance", "--model", rf, "--data", data, "--repeats", "1", "--out", str(out / "i.csv")],
    }[command]


COMMANDS = ["synth", "train", "evaluate", "predict", "importance"]


class TestOutputErrors:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_output_under_a_regular_file_is_data_error(self, workspace, tmp_path, caplog, monkeypatch, command):
        # train fails before its first fit
        from iotids import pipeline

        fits = []
        monkeypatch.setattr(pipeline, "train_one_model", lambda *args, **kwargs: fits.append(args[0]))
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        assert main(command_args(workspace, command, blocker / "out")) == EXIT_DATA
        assert "data error: cannot write" in caplog.text and "Traceback" not in caplog.text
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "x"
        assert fits == []

    def test_output_that_cannot_replace_its_target_leaves_no_file(self, workspace, tmp_path, caplog):
        # the predictions file is a directory: the temporary file written beside it is removed
        (tmp_path / "p.csv").mkdir()
        assert main(command_args(workspace, "predict", tmp_path)) == EXIT_DATA
        assert "data error: cannot write" in caplog.text
        assert list(tmp_path.iterdir()) == [tmp_path / "p.csv"] and not any((tmp_path / "p.csv").iterdir())


def cli_env():
    """The environment of a `python -m iotids.cli` child that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(iotids.__file__).resolve().parents[1]))


def read_fifo(path, proc, timeout=120.0) -> bytes:
    """What proc writes to the FIFO at path, up to its close.  The FIFO is
    opened without blocking and polled, so a writer that fails before it
    opens the FIFO ends the read (short) instead of hanging the test."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    chunks, deadline = [], time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            exited = proc.poll() is not None  # before the poll: all it wrote is in the FIFO
            if poller.poll(100):
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break  # the writer closed it
                chunks.append(chunk)
            elif exited:
                break
    finally:
        os.close(fd)
    return b"".join(chunks)


class TestOutputTargets:
    """Only a regular file, or a new path, is replaced whole: a symlink is
    written through and kept, a FIFO is written in place."""

    @pytest.fixture(scope="class")
    def predictions(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("regular")
        assert main(command_args(workspace, "predict", out)) == EXIT_OK
        return (out / "p.csv").read_bytes()

    def test_fifo_is_written_in_place(self, workspace, predictions, tmp_path):
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        proc = subprocess.Popen([sys.executable, "-m", "iotids.cli", *command_args(workspace, "predict", tmp_path)],
                                env=cli_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            received = read_fifo(fifo, proc)
        finally:
            _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_OK, stderr
        assert received == predictions
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and list(tmp_path.iterdir()) == [fifo]

    def test_symlink_is_written_through(self, workspace, predictions, tmp_path):
        (tmp_path / "out").mkdir()
        (tmp_path / "target").mkdir()
        target = tmp_path / "target" / "kept.csv"
        target.write_text("old\n")
        (tmp_path / "out" / "p.csv").symlink_to(target)
        assert main(command_args(workspace, "predict", tmp_path / "out")) == EXIT_OK
        assert (tmp_path / "out" / "p.csv").is_symlink() and target.read_bytes() == predictions
        # the temporary file was written beside the target, and is gone
        assert list((tmp_path / "out").iterdir()) == [tmp_path / "out" / "p.csv"]
        assert list((tmp_path / "target").iterdir()) == [target]

    def test_dangling_symlink_makes_its_target(self, workspace, predictions, tmp_path):
        target = tmp_path / "made.csv"
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "p.csv").symlink_to(target)
        assert main(command_args(workspace, "predict", tmp_path / "out")) == EXIT_OK
        assert (tmp_path / "out" / "p.csv").is_symlink() and target.read_bytes() == predictions

    def test_symlink_to_a_directory_is_data_error(self, workspace, tmp_path, caplog):
        (tmp_path / "dir").mkdir()
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "p.csv").symlink_to(tmp_path / "dir")
        assert main(command_args(workspace, "predict", tmp_path / "out")) == EXIT_DATA
        assert "data error: cannot write" in caplog.text and "not a regular file" in caplog.text
        assert (tmp_path / "out" / "p.csv").is_symlink() and list((tmp_path / "dir").iterdir()) == []

    def test_dev_stdout_of_a_pipe_is_written_in_place(self, workspace, predictions, tmp_path):
        # /dev/stdout is a link to the pipe, whose own realpath names no file
        proc = subprocess.run([sys.executable, "-m", "iotids.cli",
                               *command_args(workspace, "predict", tmp_path)[:-1], "/dev/stdout"],
                              env=cli_env(), capture_output=True, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == predictions
        assert list(tmp_path.iterdir()) == []

    def test_failed_in_place_write_is_io_failure(self, tmp_path, monkeypatch):
        # as /dev/full's ENOSPC: the device is written in place, and its error is an IoFailure
        written = []

        def no_space(self, text):
            written.append(self)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        os.mkfifo(tmp_path / "full")
        monkeypatch.setattr(Path, "write_text", no_space)
        with pytest.raises(IoFailure, match="No space left on device"):
            write_output(tmp_path / "full", "x")
        assert written == [tmp_path / "full"]
        assert stat.S_ISFIFO(os.lstat(tmp_path / "full").st_mode) and list(tmp_path.iterdir()) == [tmp_path / "full"]


class TestForkFailure:
    """os.fork raising EAGAIN, as it does when no process is to spare: a
    command computes in this process what it would fork, and writes the
    same bytes."""

    @pytest.mark.parametrize("command", ["train", "predict", "importance"])
    def test_same_outputs_without_a_fork(self, workspace, tmp_path, monkeypatch, command):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)  # ranges worth a fork at any length
        fork, outputs = os.fork, []
        for fails in (False, True):
            calls = []

            def counted():
                calls.append(1)
                if fails:
                    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                return fork()

            out = tmp_path / str(fails)
            with monkeypatch.context() as m:
                m.setattr(os, "fork", counted)
                assert main(command_args(workspace, command, out)) == EXIT_OK
            assert calls  # the command tried to fork
            outputs.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                            if p.is_file() and p.name != "timings.json"})
        assert outputs[0] and outputs[0] == outputs[1]


class TestImportanceArguments:
    @pytest.mark.parametrize("flag, value", [("--repeats", "0"), ("--seed", "-1")])
    def test_out_of_range_is_config_error(self, workspace, tmp_path, caplog, flag, value):
        assert main(["importance", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(workspace / "data"), flag, value,
                     "--out", str(tmp_path / "imp.csv")]) == EXIT_CONFIG
        assert flag in caplog.text


class TestUnknownLabel:
    @pytest.fixture
    def two_files(self, workspace, tmp_path):
        """Two copies of the workspace data; the second has the label of
        lines 12 and 20 replaced by one that is neither benign nor malicious."""
        text = (workspace / "data" / "synth_binary.labeled").read_text()
        lines = text.split("\n")
        for i in (11, 19):
            cells = lines[i].split("\t")
            cells[-2] = "Suspicious"
            lines[i] = "\t".join(cells)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "a.labeled").write_text(text)
        (tmp_path / "data" / "b.labeled").write_text("\n".join(lines))
        return tmp_path / "data"

    def test_train_names_file_and_first_line(self, workspace, two_files, tmp_path, caplog):
        assert main(["train", "--config", str(workspace / "cfg.json"), "--data", str(two_files),
                     "--out", str(tmp_path / "run")]) == EXIT_DATA
        assert "b.labeled line 12: label 'Suspicious' is neither benign nor malicious" in caplog.text

    def test_evaluate_names_file_and_first_line(self, workspace, two_files, tmp_path, caplog):
        assert main(["evaluate", "--model", str(workspace / "run" / "models" / "rf.json"),
                     "--data", str(two_files), "--report", str(tmp_path / "r.json")]) == EXIT_DATA
        assert "b.labeled line 12: label 'Suspicious'" in caplog.text


@pytest.mark.parametrize("split", [[0.05, 0.85, 0.1], [0.15, 0.75, 0.1]])
def test_class_missing_from_train_partition_keeps_task_class_count(tmp_path, split):
    """Five rows per class leave classes out of a small train partition.
    rf, gbm and ada still have the task's seven classes, so the hybrid can
    be built (with split 0.15 their class counts used to differ: exit 3)
    and a gbm prediction row has a probability for every header column
    (with split 0.05 it used to have six under a seven-class header)."""
    (tmp_path / "spec.json").write_text(json.dumps({"task": "multiclass", "rows_per_class": 40, "seed": 4}))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
    config = {"task": "multiclass", "models": ["rf", "gbm", "ada", "knn", "hybrid"], "per_class": 5, "seed": 1,
              "split": split, "model_params": {"knn": {"k": 1}}}
    assert train_exit(config, tmp_path / "data", tmp_path) == EXIT_OK
    y_train = load_bundle(tmp_path / "run" / "models" / "knn.json").model.y
    assert len(np.unique(y_train)) < 7
    for kind in ("rf", "gbm", "ada", "hybrid"):
        assert load_bundle(tmp_path / "run" / "models" / f"{kind}.json").model.n_classes == 7, kind
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(tmp_path / "run" / "models" / "gbm.json"),
                 "--input", str(tmp_path / "data" / "synth_multiclass.labeled"), "--output", str(out)]) == EXIT_OK
    assert {line.count(",") for line in out.read_text().splitlines()} == {8}
