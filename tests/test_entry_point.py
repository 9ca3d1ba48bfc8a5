"""The process entry point, cli.run: `python -m iotids.cli` in a new
interpreter exits with the documented codes, logs whole lines, and ends
with its heap frozen (gc.freeze), so the interpreter's exit collects none
of it; cli.main called in-process leaves the collector alone."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iotids
from iotids.cli import EXIT_CONFIG, EXIT_DATA, EXIT_MODEL, EXIT_OK, main

SRC = str(Path(iotids.__file__).resolve().parents[1])

# run in the CLI's process at exit, after cli.run has ended: what it left
PROBE = (
    "import atexit, gc, json, runpy, sys\n"
    "atexit.register(lambda: print(json.dumps({'frozen': gc.get_freeze_count(),"
    " 'numpy_ma': 'numpy.ma' in sys.modules})))\n"
    "sys.argv = ['iotids'] + json.loads(sys.argv[1])\n"
    "runpy.run_module('iotids.cli', run_name='__main__', alter_sys=True)\n"
)


def run_module(*args, probe=False) -> subprocess.CompletedProcess:
    """`python -m iotids.cli ARGS` in a new interpreter; with probe, the
    same through runpy, printing PROBE's JSON line at exit."""
    argv = [sys.executable, "-c", PROBE, json.dumps(list(map(str, args)))] if probe else \
        [sys.executable, "-m", "iotids.cli", *map(str, args)]
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    (root / "spec.json").write_text(json.dumps({"task": "binary", "rows_per_class": 1, "seed": 3}))
    (root / "no_rows.json").write_text(json.dumps({"task": "binary", "seed": 3}))
    (root / "blocker").write_text("x")
    (root / "bundle.json").write_text("{}")
    return root


class TestExitCodes:
    def test_synth_is_ok_and_logs_whole_lines(self, specs, tmp_path):
        done = run_module("synth", "--spec", specs / "spec.json", "--out", tmp_path)
        assert done.returncode == EXIT_OK
        assert done.stderr == f"INFO iotids: wrote {tmp_path / 'synth_binary.labeled'}\n"
        assert (tmp_path / "synth_binary.labeled").is_file()

    def test_config_error(self, specs, tmp_path):
        done = run_module("synth", "--spec", specs / "no_rows.json", "--out", tmp_path)
        assert done.returncode == EXIT_CONFIG
        assert done.stderr == "ERROR iotids: config error: synth spec: missing fields ['rows_per_class']\n"

    def test_data_error(self, specs):
        done = run_module("synth", "--spec", specs / "spec.json", "--out", specs / "blocker" / "out")
        assert done.returncode == EXIT_DATA
        assert done.stderr.startswith("ERROR iotids: data error: cannot write ") and done.stderr.count("\n") == 1

    def test_model_error(self, specs, tmp_path):
        done = run_module("predict", "--model", specs / "bundle.json", "--input", specs / "spec.json",
                          "--output", tmp_path / "p.csv")
        assert done.returncode == EXIT_MODEL
        assert done.stderr == "ERROR iotids: model error: unsupported bundle version None\n"
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self):
        done = run_module("--help")
        assert done.returncode == 0 and done.stdout.startswith("usage: iotids") and done.stderr == ""

    def test_usage_error_exits_2(self):
        done = run_module()
        assert done.returncode == 2
        assert done.stderr.endswith("iotids: error: the following arguments are required: command\n")


class TestExitWithoutCollection:
    @pytest.mark.parametrize("command", ["synth", "--help"])
    def test_the_process_exits_frozen(self, specs, tmp_path, command):
        # a return from main and argparse's own exit end the same way
        args = ["--help"] if command == "--help" else ["synth", "--spec", specs / "spec.json", "--out", tmp_path]
        done = run_module(*args, probe=True)
        assert done.returncode == 0
        assert json.loads(done.stdout.splitlines()[-1])["frozen"] > 0

    def test_main_in_process_leaves_the_collector_alone(self, specs, tmp_path):
        assert gc.get_freeze_count() == 0
        assert main(["synth", "--spec", str(specs / "spec.json"), "--out", str(tmp_path)]) == EXIT_OK
        assert gc.get_freeze_count() == 0

    def test_train_never_imports_numpy_ma(self, tmp_path):
        # numpy >= 2.3 imports numpy.ma in np.unique without return_counts; splits, k-fold and the
        # SVM's label check all run here
        spec = {"task": "binary", "rows_per_class": 40, "seed": 5}
        config = {"config_version": 1, "task": "binary", "models": ["rf", "gbm", "svm", "knn", "hybrid"],
                  "per_class": 40, "seed": 5, "split": [0.8, 0.2, 0.0], "cv_folds": 2,
                  "model_params": {"rf": {"n_trees": 2, "max_depth": 3}, "gbm": {"max_rounds": 2, "max_depth": 2},
                                   "svm": {"epochs": 2}, "knn": {"k": 3}}}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
        done = run_module("train", "--config", tmp_path / "cfg.json", "--data", tmp_path / "data",
                          "--out", tmp_path / "run", probe=True)
        assert done.returncode == EXIT_OK, done.stderr
        probe = json.loads(done.stdout.splitlines()[-1])
        assert probe["numpy_ma"] is False and probe["frozen"] > 0
        assert (tmp_path / "run" / "manifest.json").is_file()
