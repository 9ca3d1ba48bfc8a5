"""forked_map, the workers a boosting fit keeps and a background child:
item order, errors and reaping at forced worker counts, tree ensembles that
are bitwise the same whatever the worker count, and BLAS on one thread."""

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from iotids.errors import IotidsError, WidthMismatch
from iotids.models import gbm as gbm_module
from iotids.models.forest import ForestParams, fit_random_forest
from iotids.models.gbm import GbmParams, fit_gbm
from iotids import parallel
from iotids.parallel import forked_map, map_row_ranges, row_ranges, usable_cpus

# workers as a function of the item count: serial, two, three, and more CPUs than items
WORKERS = [lambda n: 1, lambda n: 2, lambda n: 3, lambda n: n + 1]
WORKER_IDS = ["1", "2", "3", "items+1"]


def force_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    assert usable_cpus() == count


def open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_child_or_fd_left_and_bounded_time():
    """Each test ends within 60 s and leaves no child process and no open
    file descriptor behind."""
    def timeout(signum, frame):
        raise TimeoutError("forked_map test took over 60 s")

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


@pytest.mark.parametrize("workers", WORKERS[1:], ids=WORKER_IDS[1:])
def test_each_child_holds_only_its_own_pipe_ends(monkeypatch, workers):
    """A child keeps this process's descriptors and the two ends of its own
    pipes, and no end of an elder sibling's pipes (an elder sibling's
    request end held open elsewhere keeps its requests from ending)."""
    items = list(range(7))
    force_cpus(monkeypatch, workers(len(items)))
    here = len(open_fds())
    counts = forked_map(lambda i: (os.getpid(), len(open_fds())), items)
    assert {count for pid, count in counts if pid != os.getpid()} == {here + 2}


def fork_fails_after(monkeypatch, forks):
    """os.fork that forks `forks` children, then raises EAGAIN, as it does
    when no process is to spare; returns the list of its calls."""
    fork, calls = os.fork, []

    def limited():
        calls.append(len(calls))
        if len(calls) > forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", limited)
    return calls


@pytest.mark.parametrize("forks", [0, 1, 2])
def test_a_failed_fork_deals_the_items_over_the_children_forked(monkeypatch, forks):
    force_cpus(monkeypatch, 4)
    calls = fork_fails_after(monkeypatch, forks)
    pids = forked_map(lambda i: (i, os.getpid()), range(9))
    assert [i for i, _ in pids] == list(range(9))
    assert len(calls) == forks + 1  # no fork tried after the one that failed
    workers = forks + 1
    assert len({pid for _, pid in pids}) == workers
    assert {pid for _, pid in pids[0::workers]} == {os.getpid()}  # share 0 is computed here


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


@pytest.mark.parametrize("workers", WORKERS[1:], ids=WORKER_IDS[1:])
def test_child_whose_result_cannot_be_pickled_is_an_error(monkeypatch, workers):
    """The array is written down the pipe before the lambda fails to pickle,
    so this process reads a cut stream."""
    force_cpus(monkeypatch, workers(5))
    with pytest.raises(ChildProcessError, match="ended without a result"):
        forked_map(lambda i: [np.zeros(1 << 17), lambda: i] if i == 1 else i, range(5))


def gbm_failing_at(monkeypatch, y, target, failure):
    """Make fit_gbm's tree growth call failure(class) on the second round's
    tree of class `target` (the class whose rows the target column favours)."""
    grow = gbm_module.grow_tree
    calls = {}

    def failing_grow(X, target_column, *args, **kwargs):
        c = int(y[np.argmax(target_column)])
        calls[c] = calls.get(c, 0) + 1
        if c == target and calls[c] == 2:
            failure(c)
        return grow(X, target_column, *args, **kwargs)

    monkeypatch.setattr(gbm_module, "grow_tree", failing_grow)


def raise_width_mismatch(c):
    exc = WidthMismatch(c, 2)
    exc.pid = os.getpid()
    raise exc


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("n_classes", [2, 4])
@pytest.mark.parametrize("share", ["child", "parent"])
def test_gbm_error_in_a_share_is_raised_and_every_worker_reaped(monkeypatch, workers, n_classes, share):
    """Class 1 is grown by worker 1 (a child, with two workers or more) and
    class 0 by this process; the error raised for it in the second round
    comes back with its type and attributes, and the fixture checks that
    no worker and no pipe is left."""
    X, y = blobs(2, n_classes)
    target = 1 if share == "child" else 0
    gbm_failing_at(monkeypatch, y, target, raise_width_mismatch)
    force_cpus(monkeypatch, workers)
    with pytest.raises(WidthMismatch, match="model expects") as caught:
        fit_gbm(X, y, X[::3], y[::3], GbmParams(max_rounds=4, max_depth=3, patience=4), n_classes=n_classes)
    assert (caught.value.expected, caught.value.got) == (target, 2)
    assert (caught.value.pid != os.getpid()) == (share == "child" and workers > 1)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n_classes", [2, 4])
def test_gbm_worker_that_dies_is_a_child_process_error(monkeypatch, workers, n_classes):
    X, y = blobs(2, n_classes)
    gbm_failing_at(monkeypatch, y, 1, lambda c: os._exit(3))
    force_cpus(monkeypatch, workers)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        fit_gbm(X, y, X[::3], y[::3], GbmParams(max_rounds=4, max_depth=3, patience=4), n_classes=n_classes)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_gbm_early_stop_reaps_its_workers(monkeypatch, workers):
    """Early stopping leaves the rounds before max_rounds; the fixture checks
    that every worker is reaped and every pipe closed all the same."""
    X, y = blobs(3, 3)
    force_cpus(monkeypatch, workers)
    _, curve = fit_gbm(X, y, X[1::2], 2 - y[1::2], GbmParams(max_rounds=50, max_depth=3, patience=1), n_classes=3)
    assert curve.stopped_at < 49


# --- row ranges -----------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 100, 1001])
def test_row_ranges_cover_the_rows_in_order(monkeypatch, cpus, n):
    force_cpus(monkeypatch, cpus)
    for row_s in (0.0, 1e-9, parallel.MIN_RANGE_S / 7, parallel.MIN_RANGE_S, 1.0):
        ranges = row_ranges(n, row_s)
        work = int(n * row_s / parallel.MIN_RANGE_S)
        assert len(ranges) == max(1, min(cpus, n, work))
        assert [start for start, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
        assert ranges[-1][1] == n
        lengths = [stop - start for start, stop in ranges]
        assert max(lengths) - min(lengths) <= 1
        assert len(ranges) == 1 or min(lengths) * row_s >= parallel.MIN_RANGE_S


def force_ranges(monkeypatch, cpus):
    """cpus usable CPUs, and a range worth a fork at any length."""
    force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_row_ranges_gives_each_range_in_order(monkeypatch, workers):
    force_ranges(monkeypatch, workers)
    results = map_row_ranges(lambda start, stop: (start, stop, os.getpid()), 10, 1.0)
    assert [r[:2] for r in results] == row_ranges(10, 1.0)
    assert len({r[2] for r in results}) == workers


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failure", ["raise", "die"])
def test_map_row_ranges_reruns_serially_when_a_range_fails(monkeypatch, workers, failure):
    """A range that raises, or a child that dies, gives way to fn(0, n) in
    this process: its result when it succeeds, its error when not."""
    force_ranges(monkeypatch, workers)
    here = os.getpid()

    def fn(start, stop):
        if start > 0 and failure == "raise":
            raise WidthMismatch(start, stop)
        if start > 0:
            os._exit(3)
        return (start, stop, os.getpid())

    assert map_row_ranges(fn, 9, 1.0) == [(0, 9, here)]

    def every_call_fails(start, stop):
        raise WidthMismatch(start, stop)

    with pytest.raises(WidthMismatch) as caught:
        map_row_ranges(every_call_fails, 9, 1.0)
    assert (caught.value.expected, caught.value.got) == (0, 9)  # the serial call's error


# --- a background child ---------------------------------------------------------


def test_background_results_come_back_one_at_a_time_in_item_order():
    """Each result is in the pipe before the next item is computed, so the
    first comes back while the child still works on the second."""
    def slow_after_first(i):
        if i > 0:
            time.sleep(0.5)
        return i, os.getpid()

    with parallel.Workers(slow_after_first, 2) as workers:
        workers.send(range(3))
        t0 = time.perf_counter()
        first, child = workers.collect()
        assert first == 0 and time.perf_counter() - t0 < 0.4 and child != os.getpid()
        assert [workers.collect() for _ in range(2)] == [(1, child), (2, child)]


def test_background_error_is_raised_at_its_item_and_later_items_come_back():
    with parallel.Workers(raise_at, 2) as workers:
        workers.send([0, 1, 2, 3])
        assert workers.collect() == 0
        with pytest.raises(WidthMismatch, match="model expects 4, got 5") as caught:
            workers.collect()
        assert (caught.value.expected, caught.value.got) == (4, 5)
        with pytest.raises(IotidsError, match="^item 2$"):
            workers.collect()
        assert workers.collect() == 3


@pytest.mark.parametrize("failure", ["exit", "unpicklable"])
def test_background_child_that_ends_is_a_child_process_error_at_each_later_item(failure):
    def fn(i):
        if i == 1 and failure == "exit":
            os._exit(3)
        return [np.zeros(1 << 17), lambda: i] if i == 1 else i

    with parallel.Workers(fn, 2) as workers:
        workers.send(range(3))
        assert workers.collect() == 0
        for _ in range(2):
            with pytest.raises(ChildProcessError, match="ended without a result"):
                workers.collect()


def test_send_without_a_child_is_a_child_process_error(monkeypatch):
    fork_fails_after(monkeypatch, 0)
    with parallel.Workers(lambda i: i, 2) as workers:
        with pytest.raises(ChildProcessError, match="no forked worker"):
            workers.send([1])


def test_close_kills_a_child_that_owes_results():
    t0 = time.perf_counter()
    with parallel.Workers(time.sleep, 2) as workers:
        workers.send([30, 30])
    assert time.perf_counter() - t0 < 5  # not the 30 s the child would sleep


def test_a_child_forked_beside_a_background_child_holds_none_of_its_pipe_ends():
    """A child of a later Workers (a forest or GBM fit's worker) keeps this
    process's descriptors but not the background child's pipe ends; the
    background child, killed mid-item while the later child lives, is seen
    here at once as the end of its results."""
    here = len(open_fds())
    with parallel.Workers(lambda i: time.sleep(30 * i) or i, 2) as background:
        background.send([0, 1])

        def fn(i):
            os.kill(background._children[0][0], signal.SIGKILL)
            time.sleep(2)  # alive while the background child's end is read
            return len(open_fds())

        with parallel.Workers(fn, 2) as later:
            later.send([0])
            t0 = time.perf_counter()
            assert background.collect() == 0
            with pytest.raises(ChildProcessError, match="ended without a result"):
                background.collect()
            assert time.perf_counter() - t0 < 1.5
            assert later.collect() == here + 2  # its own two pipe ends


def test_a_child_forks_nothing(monkeypatch):
    force_cpus(monkeypatch, 4)
    seen = forked_map(lambda i: (usable_cpus(), os.getpid()), range(4))
    assert seen[0][0] == 4 and {cpus for cpus, pid in seen if pid != os.getpid()} == {1}


# --- BLAS threads ---------------------------------------------------------------


def python(code: str, **env) -> str:
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(parallel.__file__).resolve().parents[1])
    environ.update(env, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.mark.parametrize("user, seen", [(None, "1"), ("3", "3")])
def test_importing_iotids_gives_blas_one_thread_unless_the_user_set_it(user, seen):
    env = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
    assert python("import os, iotids; print(os.environ['OPENBLAS_NUM_THREADS'])", **env) == seen


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux's /proc")
def test_the_cli_runs_one_thread_after_numpy_loads():
    # `python -m iotids.cli --help`, then a matrix product
    code = ("import os, runpy, sys; sys.argv = ['iotids', '--help']\n"
            "try:\n    runpy.run_module('iotids.cli', run_name='__main__')\nexcept SystemExit:\n    pass\n"
            "import numpy as np\na = np.ones((256, 256))\na @ a\nprint(len(os.listdir('/proc/self/task')))")
    assert python(code).splitlines()[-1] == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in Linux's /proc")
@pytest.mark.skipif(os.environ.get("OPENBLAS_NUM_THREADS") != "1", reason="BLAS threads set by the user")
def test_the_test_process_runs_one_thread_after_a_matrix_product():
    # tests/conftest.py imports iotids before any test module imports numpy, so the forking tests
    # fork a one-threaded process
    a = np.ones((256, 256))
    a @ a
    assert len(os.listdir("/proc/self/task")) == 1
