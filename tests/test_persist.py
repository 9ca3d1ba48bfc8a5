"""Model bundles: compact byte-stable round trips, indented bundles of
earlier versions, and malformed bundles for every kind."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import iotids
from iotids.cli import EXIT_MODEL, EXIT_OK, main, predictions_csv
from iotids.flows import parse_conn_log_file, task_class_names
from iotids.persist import compact_json, load_bundle

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


@pytest.mark.parametrize("task", RUNS)
def test_hybrid_json_spliced_from_its_members_is_its_compact_encoding(runs, task):
    hybrid = load_bundle(runs / task / "models" / "hybrid.json").model
    member_json = [compact_json(member.to_dict()) for member in hybrid.members]
    assert hybrid.to_json(member_json) == json.dumps(hybrid.to_dict(), separators=(",", ":"))


def test_every_bundle_is_one_line_of_compact_json(runs):
    paths = sorted(runs.glob("*/models/*.json"))
    assert len(paths) == len(bundle_paths(runs))
    for path in paths:
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n"), path
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n", path


def test_indented_bundle_of_earlier_versions_loads_and_predicts_the_same(runs, tmp_path):
    kinds = set()
    for path in bundle_paths(runs):
        task = path.parent.parent.name
        doc = json.loads(path.read_text())
        old = tmp_path / f"{task}_{path.name}"
        old.write_text(json.dumps(doc, indent=1) + "\n")
        compact, indented = load_bundle(path), load_bundle(old)
        assert json.loads(indented.to_json()) == doc, path
        X = compact.featurize(parse_conn_log_file(runs / f"{task}_data" / f"synth_{task}.labeled"))
        np.testing.assert_array_equal(indented.predict(X), compact.predict(X), err_msg=str(path))
        kinds.add(doc["kind"])
    assert kinds == {"rf", "gbm", "ada", "knn", "svm", "ann", "cnn", "hybrid"}


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


def predict_in_new_process(bundle, data, out):
    """(exit code, modules before, modules after) of cli.main(["predict", ...])
    in a new interpreter that has imported iotids.cli."""
    script = (
        "import json, sys\n"
        "from iotids.cli import main\n"
        "before = sorted(sys.modules)\n"
        f"code = main(['predict', '--model', {str(bundle)!r}, '--input', {str(data)!r}, '--output', {str(out)!r}])\n"
        "print(json.dumps([code, before, sorted(sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(iotids.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    code, before, after = json.loads(run.stdout)
    return code, set(before), set(after)


@pytest.mark.parametrize("member, kind", [
    (True, "zzz"),
    (False, "os"),
    (False, "__class__"),
    (False, "Network"),
    (False, ["rf"]),
])
def test_unknown_member_kind_is_model_error(runs, tmp_path, member, kind):
    # a bundle's kind is only a key into KINDS, never a module or attribute name
    doc = json.loads((runs / "binary" / "models" / "hybrid.json").read_text())
    if member:
        doc["model"]["members"][2]["kind"] = kind
    else:
        doc["kind"] = kind
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, before, after = predict_in_new_process(
        bad, runs / "binary_data" / "synth_binary.labeled", tmp_path / "preds.csv"
    )
    assert code == EXIT_MODEL
    assert [m for m in after - before if m.startswith("iotids")] == []


def test_predict_imports_only_the_kinds_it_loads(runs, tmp_path):
    data = runs / "multiclass_data" / "synth_multiclass.labeled"
    code, _, after = predict_in_new_process(runs / "multiclass" / "models" / "hybrid.json", data, tmp_path / "h.csv")
    assert code == EXIT_OK
    assert [m for m in after if m.startswith(("iotids.nn", "iotids.models.svm", "iotids.models.knn"))] == []
    code, before, after = predict_in_new_process(runs / "multiclass" / "models" / "ann.json", data, tmp_path / "a.csv")
    assert code == EXIT_OK
    assert "iotids.nn.network" in after - before


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


@pytest.mark.parametrize("kind", ["rf", "gbm"])
def test_relabelled_probability_model_is_model_error(runs, tmp_path, kind):
    # a binary model under multiclass task and names would write 2 probabilities under 7 columns
    doc = json.loads((runs / "binary" / "models" / f"{kind}.json").read_text())
    doc["task"], doc["class_names"] = "multiclass", task_class_names("multiclass")
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


def set_min_max(key, value):
    def change(preprocessing):
        preprocessing["min_max"][key] = value(preprocessing["min_max"][key])
    return change


def set_preprocessing(key, value):
    def change(preprocessing):
        preprocessing[key] = value(preprocessing[key])
    return change


@pytest.mark.parametrize("change", [
    set_min_max("x_max", lambda v: [True] * len(v)),
    set_min_max("x_min", lambda v: [str(x) for x in v]),
    set_min_max("x_min", lambda v: v[:-1]),
    set_min_max("x_max", lambda v: v + [1.0]),
    set_min_max("fitted_on", lambda v: [1, 2]),
    set_preprocessing("cidr", lambda v: [["10.0.0.0/8", 5]]),
    set_preprocessing("cidr", lambda v: [["10.0.0.0/8", "US", "x"]]),
    set_preprocessing("vocabulary", lambda v: dict(v, proto=[1])),
    set_preprocessing("vocabulary", lambda v: {k: c for k, c in v.items() if k != "service"}),
    set_preprocessing("vocabulary", lambda v: dict(v, extra=[])),
], ids=["x_max_bools", "x_min_strings", "x_min_short", "x_max_long", "fitted_on_list", "cidr_country_int",
        "cidr_triple", "category_int", "feature_missing", "feature_extra"])
def test_malformed_preprocessing_is_model_error(runs, tmp_path, change):
    """Preprocessing values of the wrong type or width: exit 4 at load,
    before any row is featurized with them."""
    doc = json.loads((runs / "binary" / "models" / "gbm.json").read_text())
    change(doc["preprocessing"])
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


# one value of each JSON type; 1.5 is a valid value only for the float keys
RETYPED = [None, "x", [1], 1.5, True, {}]
FLOAT_KEYS = {"learning_rate", "b", "C"}


def retyped_docs(doc):
    """(key, value, doc) triples: the bundle with one top-level key or one
    key of its model set to each value of RETYPED."""
    for key in doc:
        for value in RETYPED:
            yield key, value, dict(doc, **{key: value})
    for key in doc["model"]:
        for value in RETYPED:
            yield f"model.{key}", value, dict(doc, model=dict(doc["model"], **{key: value}))


def test_retyped_key_is_model_error(runs, tmp_path):
    bad = tmp_path / "bad.json"
    checked = 0
    for path in bundle_paths(runs):
        task = path.parent.parent.name
        data = runs / f"{task}_data" / f"synth_{task}.labeled"
        for key, value, doc in retyped_docs(json.loads(path.read_text())):
            bad.write_text(json.dumps(doc))
            code = main(["predict", "--model", str(bad), "--input", str(data),
                         "--output", str(tmp_path / "preds.csv")])
            if key.removeprefix("model.") in FLOAT_KEYS and value == 1.5:
                assert code == EXIT_OK, (path.name, task, key)
            else:
                assert code == EXIT_MODEL, (path.name, task, key, value)
                checked += 1
    assert checked > 600


@pytest.mark.parametrize("kind, key, value", [
    ("rf", "n_classes", 1.5), ("rf", "n_classes", True), ("gbm", "n_classes", 1.5), ("gbm", "n_classes", True),
    ("gbm", "learning_rate", None), ("gbm", "learning_rate", "x"), ("gbm", "learning_rate", {}),
    ("gbm", "best_round", 0.0), ("gbm", "best_round", True),
    ("svm", "b", None), ("svm", "b", "x"), ("svm", "b", {}),
    ("knn", "y", [1]), ("knn", "y", 1.5), ("knn", "y", True), ("knn", "y", "x"),
    ("knn", "n_classes", 2.0), ("knn", "n_classes", True),
])
def test_retyped_model_value_is_model_error(runs, tmp_path, kind, key, value):
    doc = json.loads((runs / "binary" / "models" / f"{kind}.json").read_text())
    doc["model"][key] = value
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


def test_knn_bundle_without_class_count_is_model_error(runs, tmp_path, caplog):
    # KNN bundles written before the class count was stored
    doc = json.loads((runs / "binary" / "models" / "knn.json").read_text())
    del doc["model"]["n_classes"]
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)
    assert "n_classes" in caplog.text


def test_knn_keeps_the_task_class_count(tmp_path):
    """A train partition with no row of some class still gives a KNN over
    every class of the task, like the other kinds."""
    (tmp_path / "spec.json").write_text(json.dumps({"task": "multiclass", "rows_per_class": 40, "seed": 4}))
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
    cfg = {"config_version": 1, "task": "multiclass", "models": ["rf", "knn"], "per_class": 5, "seed": 1,
           "split": [0.15, 0.75, 0.1], "model_params": {"knn": {"k": 1}}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    knn = load_bundle(tmp_path / "run" / "models" / "knn.json").model
    assert len(set(knn.y.tolist())) < 7
    assert knn.n_classes == load_bundle(tmp_path / "run" / "models" / "rf.json").model.n_classes == 7


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_format_version_must_be_the_int_1(runs, tmp_path, version):
    doc = json.loads((runs / "binary" / "models" / "rf.json").read_text())
    doc["format_version"] = version
    assert predict_and_evaluate_exits(runs, tmp_path, doc) == (EXIT_MODEL, EXIT_MODEL)


def without_first(entries):
    return entries[1:]


def with_duplicate(entries):
    return entries + entries[:1]


@pytest.mark.parametrize("task, kind, key, change", [
    ("multiclass", "ann", "params", without_first),
    ("multiclass", "ann", "buffers", without_first),
    ("multiclass", "cnn", "params", with_duplicate),
    ("multiclass", "cnn", "params", lambda e: [dict(e[0], shape=e[0]["shape"][::-1])] + e[1:]),
    ("binary", "knn", "y", lambda y: y[:-1]),
    ("binary", "knn", "y", lambda y: [-1] * len(y)),
    ("binary", "knn", "y", lambda y: [2] * len(y)),
    ("binary", "knn", "n_classes", lambda n: 3),
])
def test_inconsistent_model_value_is_model_error(runs, tmp_path, task, kind, key, change):
    """Well-typed values that do not fit the rest of the model: a network
    missing, repeating or reshaping a parameter or buffer, KNN labels that
    are too few, negative or not below the class count, and a KNN class
    count that is not the task's."""
    doc = json.loads((runs / task / "models" / f"{kind}.json").read_text())
    doc["model"][key] = change(doc["model"][key])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data = runs / f"{task}_data" / f"synth_{task}.labeled"
    assert main(["predict", "--model", str(bad), "--input", str(data),
                 "--output", str(tmp_path / "preds.csv")]) == EXIT_MODEL


@pytest.mark.parametrize("kind, key", [("ann", "params"), ("ann", "buffers"), ("cnn", "params")])
@pytest.mark.parametrize("value", [None, True])
def test_network_value_that_is_not_a_number_is_model_error(runs, tmp_path, kind, key, value):
    """A stored network value of null (NaN if read as a float) or a bool
    exits 4 and writes no CSV."""
    doc = json.loads((runs / "multiclass" / "models" / f"{kind}.json").read_text())
    doc["model"][key][0]["values"][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data, out = runs / "multiclass_data" / "synth_multiclass.labeled", tmp_path / "preds.csv"
    assert main(["predict", "--model", str(bad), "--input", str(data), "--output", str(out)]) == EXIT_MODEL
    assert not out.exists()


@pytest.mark.parametrize("kind, key, at", [("knn", "X", (0, 0)), ("knn", "X", (-1, 5)), ("svm", "w", (0,))])
@pytest.mark.parametrize("value", [None, "x", float("inf"), float("nan")])
def test_stored_value_that_is_not_a_finite_number_is_model_error(runs, tmp_path, kind, key, at, value):
    """A null (NaN if read as a float), non-numeric or non-finite value in a
    KNN's stored rows or an SVM's weights exits 4 and writes no CSV."""
    doc = json.loads((runs / "binary" / "models" / f"{kind}.json").read_text())
    *outer, last = at
    target = doc["model"][key]
    for i in outer:
        target = target[i]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data, out = runs / "binary_data" / "synth_binary.labeled", tmp_path / "preds.csv"
    assert main(["predict", "--model", str(bad), "--input", str(data), "--output", str(out)]) == EXIT_MODEL
    assert not out.exists()


def set_dense_inputs(model, layer, n_in):
    """Dense layer `layer` of a network document takes n_in inputs, with a W
    of n_in rows (cut, or padded with zeros), so every shape fits the spec."""
    model["spec"]["layers"][layer]["n_in"] = n_in
    entry = next(e for e in model["params"] if e["layer"] == layer and e["name"] == "W")
    n_out = entry["shape"][1]
    entry["values"] = (entry["values"] + [0.0] * n_out)[:n_in * n_out]
    entry["shape"] = [n_in, n_out]


@pytest.mark.parametrize("kind, key, value", [
    ("ann", "l1", "x"), ("cnn", "l2", None), ("ann", "input_width", 3.0), ("cnn", "class_count", True),
    ("ann", "layers", [1]), ("cnn", "extra", 1),
])
def test_retyped_network_spec_value_is_model_error(runs, tmp_path, kind, key, value):
    doc = json.loads((runs / "multiclass" / "models" / f"{kind}.json").read_text())
    doc["model"]["spec"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data, out = runs / "multiclass_data" / "synth_multiclass.labeled", tmp_path / "preds.csv"
    assert main(["predict", "--model", str(bad), "--input", str(data), "--output", str(out)]) == EXIT_MODEL
    assert not out.exists()


@pytest.mark.parametrize("kind, n_in", [("ann", lambda n: 5), ("cnn", lambda n: n + 1)])
def test_network_layers_that_do_not_chain_are_model_error(runs, tmp_path, kind, n_in):
    """A network whose first dense layer (the ann's first layer, the cnn's
    layer after flatten) does not take the width the layers before it give,
    with weights of the width it claims, exits 4 and writes no CSV."""
    doc = json.loads((runs / "multiclass" / "models" / f"{kind}.json").read_text())
    layers = doc["model"]["spec"]["layers"]
    layer = next(i for i, d in enumerate(layers) if d["kind"] == "dense")
    set_dense_inputs(doc["model"], layer, n_in(layers[layer]["n_in"]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data, out = runs / "multiclass_data" / "synth_multiclass.labeled", tmp_path / "preds.csv"
    assert main(["predict", "--model", str(bad), "--input", str(data), "--output", str(out)]) == EXIT_MODEL
    assert not out.exists()


@pytest.mark.parametrize("layer, change", [
    ("batchnorm", {"eps": -10}),  # a NaN for every probability if it were read
    ("elu", {"alpha": -1}),
    ("dense", {"bias": True}),
])
def test_network_layer_value_out_of_range_is_model_error(runs, tmp_path, layer, change):
    """An ann bundle whose first `layer` descriptor carries an out-of-range
    value or a key the kind does not have exits 4 and writes no CSV."""
    doc = json.loads((runs / "multiclass" / "models" / "ann.json").read_text())
    next(d for d in doc["model"]["spec"]["layers"] if d["kind"] == layer).update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    data, out = runs / "multiclass_data" / "synth_multiclass.labeled", tmp_path / "preds.csv"
    assert main(["predict", "--model", str(bad), "--input", str(data), "--output", str(out)]) == EXIT_MODEL
    assert not out.exists()


def test_network_claiming_huge_widths_is_model_error_without_allocating(runs, tmp_path):
    """An ann bundle of a few kilobytes whose spec claims input_width
    100,000 and a first dense layer of 100,000 x 100,000 (74.5 GiB of
    weights), with its stored arrays left small, exits 4 with no traceback
    in a process whose address space is capped 2 GiB above its size after
    import: the spec is checked against the stored shapes before anything
    is allocated."""
    doc = json.loads((runs / "multiclass" / "models" / "ann.json").read_text())
    spec = doc["model"]["spec"]
    dense = [i for i, layer in enumerate(spec["layers"]) if layer["kind"] == "dense"]
    spec["input_width"] = 100_000
    spec["layers"][dense[0]].update(n_in=100_000, n_out=100_000)
    spec["layers"][dense[0] + 1]["width"] = 100_000
    spec["layers"][dense[1]]["n_in"] = 100_000
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert bad.stat().st_size < 50_000
    data, out = runs / "multiclass_data" / "synth_multiclass.labeled", tmp_path / "preds.csv"
    script = (
        "import os, resource, sys\n"
        "from iotids.cli import main\n"
        "size = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (2 << 30),) * 2)\n"
        f"sys.exit(main(['predict', '--model', {str(bad)!r}, '--input', {str(data)!r}, '--output', {str(out)!r}]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(iotids.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_MODEL, run.stderr[-2000:]
    assert "Traceback" not in run.stderr
    assert "do not match its spec" in run.stderr
    assert not out.exists()


def test_every_kind_predicts_a_header_only_log_as_a_header_only_csv(runs, tmp_path):
    for path in bundle_paths(runs):
        task = path.parent.parent.name
        log = (runs / f"{task}_data" / f"synth_{task}.labeled").read_text().splitlines(keepends=True)
        empty, out = tmp_path / "empty.labeled", tmp_path / "preds.csv"
        empty.write_text("".join(line for line in log if line.startswith("#")))
        assert main(["predict", "--model", str(path), "--input", str(empty), "--output", str(out)]) == EXIT_OK, path
        bundle = load_bundle(path)
        header = ["row_index", "predicted_label"]
        if hasattr(bundle.model, "predict_proba"):
            header += [f"p_{name}" for name in bundle.class_names]
        assert out.read_text() == ",".join(header) + "\n", path


@pytest.mark.parametrize("kind", ["gbm", "ann", "cnn"])
def test_predict_csv_of_a_probability_model_matches_its_predict(runs, tmp_path, kind):
    """The labels `iotids predict` takes from predict_proba are the model's
    predict(X): the CSV is byte-identical to one built from both calls (rf:
    tests/test_cli.py)."""
    path, data = runs / "multiclass" / "models" / f"{kind}.json", runs / "multiclass_data" / "synth_multiclass.labeled"
    out = tmp_path / "preds.csv"
    assert main(["predict", "--model", str(path), "--input", str(data), "--output", str(out)]) == EXIT_OK
    bundle = load_bundle(path)
    X = bundle.featurize(parse_conn_log_file(data, allow_unlabeled=True))
    assert out.read_text() == predictions_csv(bundle.class_names, bundle.predict(X), bundle.predict_proba(X))


def first_tree(model):
    """The first tree of an rf, gbm or ada model document."""
    if "trees" in model:
        return model["trees"][0]
    return model["rounds"][0][0] if "rounds" in model else model["stages"][0]["tree"]


def set_tree(key, value):
    """Change that sets one value of the first tree; value(tree) computes it."""
    def change(model):
        tree = first_tree(model)
        assert tree["feature"][0] != -1  # the root splits
        tree[key] = value(tree)
    return change


def set_node(key, node, value):
    """Change that sets tree[key][node(tree)] = value(tree) in the first tree."""
    def change(model):
        tree = first_tree(model)
        assert tree["feature"][0] != -1
        tree[key][node(tree)] = value(tree)
    return change


def set_model(key, value):
    def change(model):
        model[key] = value(model)
    return change


def first_leaf(tree):
    return tree["feature"].index(-1)


def ada_over(n_classes):
    """Change that makes an AdaBoost model consistent over n_classes classes,
    as if it had been fit on a partition holding fewer than its task's."""
    def change(model):
        model["n_classes"] = n_classes
        for stage in model["stages"]:
            stage["tree"]["params"]["n_classes"] = n_classes
            stage["tree"]["leaf_class_counts"] = [row[:n_classes] for row in stage["tree"]["leaf_class_counts"]]
    return change


@pytest.mark.parametrize("task, kind, change", [
    # tree arrays of different lengths
    ("binary", "rf", set_tree("threshold", lambda t: t["threshold"][:-1])),
    ("binary", "gbm", set_tree("right", lambda t: t["right"] + [-1])),
    # a child id not above its node's id, or not below n_nodes
    ("binary", "rf", set_node("left", lambda t: 0, lambda t: 0)),
    ("binary", "gbm", set_node("right", lambda t: t["left"][0], lambda t: 0)),
    ("binary", "rf", set_node("right", lambda t: 0, lambda t: len(t["feature"]))),
    # a leaf with a child
    ("binary", "rf", set_node("left", first_leaf, lambda t: len(t["feature"]) - 1)),
    ("multiclass", "ada", set_node("right", first_leaf, lambda t: len(t["feature"]) - 1)),
    # a split feature outside [0, n_features)
    ("binary", "rf", set_node("feature", lambda t: 0, lambda t: 99)),
    ("binary", "gbm", set_node("feature", lambda t: 0, lambda t: -2)),
    ("multiclass", "ada", set_node("feature", lambda t: 0, lambda t: 99)),
    # leaf values not one per node (and per class)
    ("binary", "rf", set_tree("leaf_class_counts", lambda t: t["leaf_class_counts"][:-1])),
    ("multiclass", "ada", set_tree("leaf_class_counts", lambda t: [row[:-1] for row in t["leaf_class_counts"]])),
    ("binary", "gbm", set_tree("leaf_score", lambda t: t["leaf_score"][:-1])),
    ("binary", "gbm", set_tree("leaf_score", lambda t: None)),
    ("binary", "rf", set_tree("params", lambda t: dict(t["params"], task="regression"))),
    # a forest without trees, or with fewer than two classes
    ("binary", "rf", set_model("trees", lambda m: [])),
    ("binary", "rf", set_model("n_classes", lambda m: 1)),
    ("binary", "rf", set_model("n_classes", lambda m: 0)),
    # best_round outside the rounds, a round without one tree per class
    ("binary", "gbm", set_model("best_round", lambda m: -1)),
    ("binary", "gbm", set_model("best_round", lambda m: len(m["rounds"]))),
    ("binary", "gbm", set_model("rounds", lambda m: [rnd[:1] for rnd in m["rounds"]])),
    ("binary", "gbm", set_model("rounds", lambda m: [rnd + rnd[:1] for rnd in m["rounds"]])),
    # an AdaBoost model over fewer classes than its task has
    ("multiclass", "ada", ada_over(6)),
])
def test_inconsistent_tree_value_is_model_error(runs, tmp_path, task, kind, change):
    """Tree bundles whose arrays do not fit together or would send a descent
    outside a tree, forest and GBM values that disagree with their trees, and
    a model over another class count than its task's: exit 4 from predict and
    from the hybrid that holds the model."""
    data = runs / f"{task}_data" / f"synth_{task}.labeled"
    bad = tmp_path / "bad.json"
    for name in (kind, "hybrid"):
        doc = json.loads((runs / task / "models" / f"{name}.json").read_text())
        model = doc["model"]
        change(model if name == kind else model["members"][model["member_names"].index(kind)]["model"])
        bad.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(bad), "--input", str(data),
                     "--output", str(tmp_path / "preds.csv")]) == EXIT_MODEL, name
