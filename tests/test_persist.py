"""Model bundles: byte-stable round trips and malformed bundles for every kind."""

import json

import pytest

from iotids.cli import EXIT_MODEL, EXIT_OK, main
from iotids.persist import load_bundle

RUNS = {
    "binary": {
        "models": ["rf", "gbm", "svm", "knn", "hybrid"],
        "model_params": {
            "rf": {"n_trees": 3, "max_depth": 3},
            "gbm": {"max_rounds": 2, "max_depth": 2},
            "svm": {"epochs": 2},
            "knn": {"k": 3},
        },
    },
    "multiclass": {
        "models": ["rf", "gbm", "ada", "ann", "cnn", "hybrid"],
        "model_params": {
            "rf": {"n_trees": 3, "max_depth": 3},
            "gbm": {"max_rounds": 2, "max_depth": 2},
            "ada": {"n_rounds": 3, "weak_depth": 2},
            "ann": {"hidden": [8, 4], "epochs": 2},
            "cnn": {"n_filters": 2, "hidden": 4, "epochs": 2},
        },
    },
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small trained run per task, through the CLI."""
    root = tmp_path_factory.mktemp("bundles")
    for task, run in RUNS.items():
        spec = {"task": task, "rows_per_class": 12, "seed": 3}
        (root / f"{task}_spec.json").write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(root / f"{task}_spec.json"),
                     "--out", str(root / f"{task}_data")]) == EXIT_OK
        cfg = dict(run, config_version=1, task=task, per_class=10, seed=4, split=[0.8, 0.2, 0.0])
        (root / f"{task}_cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(root / f"{task}_cfg.json"),
                     "--data", str(root / f"{task}_data"), "--out", str(root / task)]) == EXIT_OK
    return root


def bundle_paths(root):
    return [root / task / "models" / f"{kind}.json" for task, run in RUNS.items() for kind in run["models"]]


def test_every_kind_reloads_to_identical_bytes(runs):
    for path in bundle_paths(runs):
        assert load_bundle(path).to_json() == path.read_text(), path


def malformed_docs(doc):
    """(what, doc) pairs: the bundle with one key of its model dropped, or
    one key of a hybrid member entry dropped."""
    model = doc["model"]
    for key in model:
        yield f"model.{key}", dict(doc, model={k: v for k, v in model.items() if k != key})
    for i, entry in enumerate(model.get("members", [])):
        for key in entry:
            members = list(model["members"])
            members[i] = {k: v for k, v in entry.items() if k != key}
            yield f"members[{i}].{key}", dict(doc, model=dict(model, members=members))


def test_dropped_model_key_is_model_error(runs, tmp_path):
    bad = tmp_path / "bad.json"
    for path in bundle_paths(runs):
        task = path.parent.parent.name
        data = runs / f"{task}_data" / f"synth_{task}.labeled"
        for what, doc in malformed_docs(json.loads(path.read_text())):
            bad.write_text(json.dumps(doc))
            code = main(["predict", "--model", str(bad), "--input", str(data),
                         "--output", str(tmp_path / "preds.csv")])
            assert code == EXIT_MODEL, (path.name, task, what)


def test_unknown_member_kind_is_model_error(runs, tmp_path):
    doc = json.loads((runs / "binary" / "models" / "hybrid.json").read_text())
    doc["model"]["members"][2]["kind"] = "zzz"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(bad),
                 "--input", str(runs / "binary_data" / "synth_binary.labeled"),
                 "--output", str(tmp_path / "preds.csv")])
    assert code == EXIT_MODEL


def test_non_object_bundle_is_model_error(runs, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code = main(["predict", "--model", str(bad),
                 "--input", str(runs / "binary_data" / "synth_binary.labeled"),
                 "--output", str(tmp_path / "preds.csv")])
    assert code == EXIT_MODEL


@pytest.mark.parametrize("k", ["3", 3.0, 0, True])
def test_mistyped_knn_k_is_model_error(runs, tmp_path, k):
    doc = json.loads((runs / "binary" / "models" / "knn.json").read_text())
    doc["model"]["k"] = k
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["predict", "--model", str(bad),
                 "--input", str(runs / "binary_data" / "synth_binary.labeled"),
                 "--output", str(tmp_path / "preds.csv")])
    assert code == EXIT_MODEL


def predict_and_evaluate_exits(runs, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data = runs / "binary_data" / "synth_binary.labeled"
    return (
        main(["predict", "--model", str(bad), "--input", str(data), "--output", str(tmp_path / "p.csv")]),
        main(["evaluate", "--model", str(bad), "--data", str(data), "--report", str(tmp_path / "r.json")]),
    )


def test_unknown_task_is_model_error(runs, tmp_path):
    doc = json.loads((runs / "binary" / "models" / "rf.json").read_text())
    doc["task"] = "tertiary"
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


def test_task_not_matching_class_names_is_model_error(runs, tmp_path):
    doc = json.loads((runs / "binary" / "models" / "rf.json").read_text())
    doc["task"] = "multiclass"
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


def test_more_model_classes_than_class_names_is_model_error(runs, tmp_path):
    doc = json.loads((runs / "binary" / "models" / "rf.json").read_text())
    doc["model"]["n_classes"] = 7
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)
