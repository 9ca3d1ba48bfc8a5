"""Tree predicts and `iotids predict` over row ranges in forked workers: the
same bits as the serial call at any worker count, large inputs cut and
small ones kept whole, and no child process or descriptor left behind.

The tests that force a worker count patch usable_cpus and the smallest
range worth a fork; the others run with the CPUs this process really has,
so on one CPU they cover the path that forks nothing."""

import json
import os
import signal

import numpy as np
import pytest

from iotids import features, flows, parallel
from iotids.cli import EXIT_OK, main
from iotids.models import tree
from iotids.models.adaboost import AdaParams, fit_adaboost
from iotids.models.forest import ForestParams, fit_random_forest
from iotids.models.gbm import GbmParams, fit_gbm


def force_ranges(monkeypatch, cpus):
    """cpus usable CPUs, and a range worth a fork at any length."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_child_or_fd_left():
    """Each test ends within 60 s and leaves no child process and no open
    file descriptor behind."""
    def timeout(signum, frame):
        raise TimeoutError("row-range test took over 60 s")

    fds = open_fds()
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(8)
    y = np.repeat(np.arange(4), 60)
    X = y[:, None] * 0.8 + rng.normal(size=(240, 6))
    X[rng.random(X.shape) < 0.02] = 0.0  # ties at split thresholds
    rf = fit_random_forest(X, y, ForestParams(n_trees=7, max_depth=6, seed=2), n_classes=4)
    gbm, _ = fit_gbm(X, y, X[::4], y[::4], GbmParams(max_rounds=6, max_depth=3, patience=6), n_classes=4)
    ada = fit_adaboost(X, y, AdaParams(n_rounds=8, weak_depth=2), n_classes=4)
    queries = np.concatenate([X, rng.normal(size=(61, 6)) * 3.0])
    return {"rf": rf, "gbm": gbm, "ada": ada}, queries


def outputs(model, X):
    """The predict output, and the probabilities where the model has them, as bytes."""
    got = [model.predict(X)]
    if hasattr(model, "predict_proba"):
        got.append(model.predict_proba(X))
    return [(a.dtype, a.shape, a.tobytes()) for a in got]


@pytest.mark.parametrize("kind", ["rf", "gbm", "ada"])
@pytest.mark.parametrize("rows", [0, 1, 2, 301])
def test_tree_predicts_are_the_same_bits_at_every_worker_count(monkeypatch, models, kind, rows):
    members, queries = models
    X = queries[:rows]
    serial = outputs(members[kind], X)
    seen = []  # the rows of each descent in this process
    descend = tree.NodeTable.leaf_blocks
    monkeypatch.setattr(tree.NodeTable, "leaf_blocks", lambda self, X: seen.append(len(X)) or descend(self, X))
    for cpus in (2, 3):
        seen.clear()
        force_ranges(monkeypatch, cpus)
        assert outputs(members[kind], X) == serial, cpus
        assert set(seen) == {rows // max(1, min(cpus, rows))}  # the first range; the children descend the rest


def test_only_the_large_scoring_layers_are_cut(monkeypatch):
    """On two CPUs, at the real smallest range: the benchmark's predict of
    30,100 flows (4.8 MB) cuts its parse, featurize and gbm (70 trees of
    depth 4), but not its rf (8 trees of depth 8) or ada (10 of depth 3),
    whose ranges would gain too little; training keeps its parse of 0.67
    to 0.76 MB, its featurize of 4,973 rows and its test predicts of 997
    rows whole."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def ranges(n, row_s):
        return len(parallel.row_ranges(n, row_s))

    assert ranges(4_811_873, flows._PARSE_BYTE_S) == 2
    assert ranges(30_100, features._FEATURIZE_ROW_S) == 2
    assert ranges(30_100, tree._STEP_S * 70 * 4) == 2
    assert ranges(30_100, tree._STEP_S * 8 * 8) == 1
    assert ranges(30_100, tree._STEP_S * 10 * 3) == 1
    assert ranges(756_179, flows._PARSE_BYTE_S) == 1
    assert ranges(4_973, features._FEATURIZE_ROW_S) == 1
    assert ranges(997, tree._STEP_S * 70 * 4) == 1


@pytest.fixture(scope="module")
def hybrid_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ranged_predict")
    spec = {"task": "multiclass", "rows_per_class": 40, "seed": 5}
    (root / "spec.json").write_text(json.dumps(spec))
    assert main(["synth", "--spec", str(root / "spec.json"), "--out", str(root / "data")]) == EXIT_OK
    cfg = {"config_version": 1, "task": "multiclass", "models": ["rf", "gbm", "ada", "hybrid"], "per_class": 30,
           "seed": 6, "split": [0.8, 0.2, 0.0],
           "model_params": {"rf": {"n_trees": 4, "max_depth": 5}, "gbm": {"max_rounds": 3, "max_depth": 3},
                            "ada": {"n_rounds": 4, "weak_depth": 2}}}
    (root / "cfg.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(root / "cfg.json"), "--data", str(root / "data"),
                 "--out", str(root / "run")]) == EXIT_OK
    return root


@pytest.mark.parametrize("kind", ["hybrid", "gbm"])
def test_cli_predict_bytes_with_one_worker_and_with_three(monkeypatch, hybrid_run, kind):
    """The whole predict: parse, featurize and member predicts cut into
    ranges give the CSV of the serial run."""
    data = next((hybrid_run / "data").glob("*.labeled"))
    csvs = {}
    for cpus in (1, 3):
        force_ranges(monkeypatch, cpus)
        out = hybrid_run / f"{kind}_{cpus}.csv"
        args = ["predict", "--model", str(hybrid_run / "run" / "models" / f"{kind}.json"), "--input", str(data)]
        assert main(args + ["--output", str(out)]) == EXIT_OK
        csvs[cpus] = out.read_bytes()
    assert csvs[3] == csvs[1]
    assert csvs[1].count(b"\n") == 1 + 7 * 40


def test_ranges_follow_the_real_cpu_count(monkeypatch, models, hybrid_run, tmp_path):
    """Only the smallest range is forced: the CPU count is this process's
    own, one range per CPU (so on one CPU nothing forks), and the outputs
    are those of one worker."""
    members, queries = models
    serial = {kind: outputs(model, queries) for kind, model in members.items()}
    data = next((hybrid_run / "data").glob("*.labeled"))
    args = ["predict", "--model", str(hybrid_run / "run" / "models" / "hybrid.json"), "--input", str(data)]
    with pytest.MonkeyPatch.context() as m:
        force_ranges(m, 1)
        assert main(args + ["--output", str(tmp_path / "one.csv")]) == EXIT_OK
    monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)
    seen = []
    descend = tree.NodeTable.leaf_blocks
    monkeypatch.setattr(tree.NodeTable, "leaf_blocks", lambda self, X: seen.append(len(X)) or descend(self, X))
    for kind, model in members.items():
        assert outputs(model, queries) == serial[kind], kind
    assert set(seen) == {len(queries) // parallel.usable_cpus()}
    assert main(args + ["--output", str(tmp_path / "real.csv")]) == EXIT_OK
    assert (tmp_path / "real.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
