"""forked_map: item order, errors and reaping at forced worker counts, and
tree ensembles that are bitwise the same whatever the worker count."""

import json
import os
import signal

import numpy as np
import pytest

from iotids.errors import IotidsError, WidthMismatch
from iotids.models.forest import ForestParams, fit_random_forest
from iotids.models.gbm import GbmParams, fit_gbm
from iotids.parallel import forked_map, usable_cpus

# workers as a function of the item count: serial, two, three, and more CPUs than items
WORKERS = [lambda n: 1, lambda n: 2, lambda n: 3, lambda n: n + 1]
WORKER_IDS = ["1", "2", "3", "items+1"]


def force_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    assert usable_cpus() == count


@pytest.fixture(autouse=True)
def no_child_left_and_bounded_time():
    """Each test ends within 60 s and leaves no child process behind."""
    def timeout(signum, frame):
        raise TimeoutError("forked_map test took over 60 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_results_in_item_order(monkeypatch, workers):
    items = list(range(7))
    force_cpus(monkeypatch, workers(len(items)))
    assert forked_map(lambda i: (i, i * i), items) == [(i, i * i) for i in items]


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_one_process_per_worker(monkeypatch, workers):
    items = list(range(7))
    count = workers(len(items))
    force_cpus(monkeypatch, count)
    pids = forked_map(lambda i: os.getpid(), items)
    assert len(set(pids)) == min(count, len(items))
    assert pids[0] == os.getpid()  # share 0 is computed here


def test_no_items(monkeypatch):
    force_cpus(monkeypatch, 3)
    assert forked_map(lambda i: i, []) == []


def to_json(model) -> str:
    return json.dumps(model.to_dict())


def blobs(seed, n_classes, n=40, d=5):
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(n_classes), n)
    X = y[:, None] * 1.5 + rng.normal(size=(n_classes * n, d))
    return X, y


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
@pytest.mark.parametrize("n_classes, pinned", [(2, False), (3, False), (3, True)])
def test_forest_is_the_same_at_every_worker_count(monkeypatch, workers, n_classes, pinned):
    X, y = blobs(1, n_classes)
    params = ForestParams(n_trees=5, max_depth=6, features_per_split=2, seed=4)
    draws = None
    if pinned:
        draws = [np.random.default_rng([9, t]).integers(0, len(y), size=len(y)) for t in range(params.n_trees)]
    force_cpus(monkeypatch, 1)
    serial = to_json(fit_random_forest(X, y, params, draws, n_classes=n_classes))
    force_cpus(monkeypatch, workers(params.n_trees))
    assert to_json(fit_random_forest(X, y, params, draws, n_classes=n_classes)) == serial


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
@pytest.mark.parametrize("n_classes", [2, 4])
def test_gbm_is_the_same_at_every_worker_count(monkeypatch, workers, n_classes):
    X, y = blobs(2, n_classes)
    params = GbmParams(max_rounds=4, max_depth=3, patience=4)
    force_cpus(monkeypatch, 1)
    model, curve = fit_gbm(X, y, X[::3], y[::3], params, n_classes=n_classes)
    force_cpus(monkeypatch, workers(n_classes))
    forked_model, forked_curve = fit_gbm(X, y, X[::3], y[::3], params, n_classes=n_classes)
    assert to_json(forked_model) == to_json(model)
    assert forked_curve.to_csv() == curve.to_csv()


def raise_at(i):
    if i == 1:
        raise WidthMismatch(4, 5)
    if i == 2:
        raise IotidsError("item 2")
    return i


@pytest.mark.parametrize("workers", WORKERS, ids=WORKER_IDS)
def test_first_error_in_item_order_is_raised_with_its_type_and_message(monkeypatch, workers):
    force_cpus(monkeypatch, workers(5))
    with pytest.raises(WidthMismatch, match="model expects 4, got 5") as caught:
        forked_map(raise_at, range(5))
    assert (caught.value.expected, caught.value.got) == (4, 5)
    with pytest.raises(IotidsError, match="^item 2$") as caught:
        forked_map(raise_at, [0, 2, 3])
    assert type(caught.value) is IotidsError


@pytest.mark.parametrize("workers", WORKERS[1:], ids=WORKER_IDS[1:])
def test_child_that_ends_without_a_result_is_an_error(monkeypatch, workers):
    force_cpus(monkeypatch, workers(5))
    with pytest.raises(ChildProcessError, match="ended without a result"):
        forked_map(lambda i: os._exit(3) if i == 1 else i, range(5))
