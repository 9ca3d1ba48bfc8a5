"""Apply a function to items in forked children: one per usable CPU, or
one child in the background.

BLAS runs on one thread (importing iotids gives OPENBLAS_NUM_THREADS a
default of "1" before numpy loads); the CPUs are used by forking, and a
process with no thread but its main one is safe to fork.  The children are
made with os.fork, so they start with the parent's memory: the function and
its closure (a fit's training matrix and presorted rows) reach them once,
without pickling.  The children of a Workers live until it is closed and
serve any number of rounds: each round, every child gets its share of the
round's items, pickled down its request pipe, and sends its results back,
pickled down its result pipe, while this process computes share 0.  A
boosting fit forks its workers once and serves one round per boosting
round; forked_map is a single round.

A background child is the one child of a Workers(fn, 2) used through send
and collect: send hands it items at once, one round each, and collect reads
their results later, one at a time in item order, while this process does
other work.  Training fits AdaBoost, the SVM and the networks in one while
this process fits the forest and GBM with their own workers.  Its
result pipe is asked to hold RESULT_PIPE_BYTES, so a child that finishes an
item before its result is read goes on to the next.

Scoring spreads rows the same way: map_row_ranges cuts a predict's rows
into one contiguous range per usable CPU, and the results come back in range
order.  A range is worth a child only when it holds enough work: a fork and
its pickled result cost 1.6-3.8 ms in a predicting process (an empty result
to a 2.4 MB one, 2-vCPU VM), so every range must be estimated to take at
least MIN_RANGE_S serially, and smaller inputs stay in this process.

Fork is safe here only because of what a child runs: tree growth and
descent, conn-log parsing and featurizing, and model fits, whose modules
are loaded before any fork (a config's kinds when it is checked), with no
logging and no import.  A child may open and read its own range of an input
file; it writes only to its pipe.  A child forks nothing (usable_cpus is 1
there).  It closes this process's ends of the pipes of every live child, so
only this process can end a child's requests, and only the child holds its
result pipe's write end: a child that dies is seen here at once as the end
of its results.  A child leaves with os._exit, so it runs no exit handler
and flushes no buffer of the parent's.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

# the capacity asked for a background child's result pipe: the largest an
# unprivileged process may set by default (/proc/sys/fs/pipe-max-size),
# more than the 0.25 MB of pickled fits a train_multiclass child sends
RESULT_PIPE_BYTES = 1 << 20

# the Workers of this process with children alive, whose pipe ends a new
# child closes: descriptors belong to the process, so this list does too
_live: list["Workers"] = []
_in_child = False  # whether this process is a forked child, which forks nothing


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where that is not known or
    this process is a forked child."""
    if _in_child:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


# the least serial time, in seconds, a row range must be estimated to take
# to be worth a forked child: about three times what a fork and its result
# cost, as two ranges side by side run about 1.35 times slower than alone
MIN_RANGE_S = 0.01


def row_ranges(n: int, row_s: float) -> list[tuple[int, int]]:
    """range(n) cut into contiguous, non-empty (start, stop) ranges of
    near-equal length, in order: one per usable CPU, but none estimated to
    take less than MIN_RANGE_S at row_s seconds a row.  One range (empty
    when n is 0) when n rows take less than twice that or one CPU is
    usable."""
    k = max(1, min(usable_cpus(), n, int(n * row_s / MIN_RANGE_S)))
    bounds = [n * i // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def map_row_ranges(fn, n: int, row_s: float) -> list:
    """[fn(start, stop) for (start, stop) in row_ranges(n, row_s)], each
    range beyond the first computed in a forked child (forked_map).

    When any range raises, or a child ends without a result, fn(0, n) runs
    here and is the one item returned, or raises: errors are always the
    ones the serial call gives."""
    ranges = row_ranges(n, row_s)
    if len(ranges) > 1:
        try:
            return forked_map(lambda bounds: fn(*bounds), ranges)
        except Exception:
            pass  # fn(0, n) gives the result, or the error, of the serial call
    return [fn(0, n)]


def forked_map(fn, items) -> list:
    """[fn(item) for item in items], computed by this process and up to one
    forked child per usable CPU beyond the first (see Workers.map)."""
    items = list(items)
    with Workers(fn, min(usable_cpus(), len(items))) as workers:
        return workers.map(items)


class Workers:
    """This process and workers - 1 forked children that apply fn to rounds
    of items until close (a context manager); with workers <= 1 nothing is
    forked.  When a fork fails (EAGAIN: no process to spare), the children
    already forked are all the workers beyond this process.  Every child is
    reaped by close, whatever ended the rounds."""

    def __init__(self, fn, workers: int):
        self.fn = fn
        self._children: list[tuple] = []  # (pid, request writer, result reader)
        self._owed = 0  # results sent for and not yet collected
        if workers > 1:
            _live.append(self)
        try:
            for _ in range(1, workers):
                self._fork()
        except OSError:
            pass  # the items are dealt over this process and the children it has
        except BaseException:
            self.close()
            raise

    def _fork(self) -> None:
        request_r, request_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:
            # this process's ends of every live child's pipes, elder
            # siblings' included: a child's request write end held open
            # elsewhere would keep its requests from ever ending
            parent_ends = [request_w, result_r] + [
                f.fileno() for workers in _live for _, w, r in workers._children for f in (w, r)
            ]
            _serve(self.fn, parent_ends, request_r, result_w)
        os.close(request_r)
        os.close(result_w)
        self._children.append((pid, os.fdopen(request_w, "wb"), os.fdopen(result_r, "rb")))

    def map(self, items) -> list:
        """[fn(item) for item in items] for one round.

        Items are dealt round-robin: worker k computes items[k::workers], and
        worker 0 is this process.  The exception of the first item that
        raises, in item order, is raised here with its type, arguments and
        attributes, as the serial loop would raise it.  A child that ends
        without a result (killed, or holding a result or exception that
        cannot be pickled) raises ChildProcessError.
        """
        items = list(items)
        if not self._children:
            return [self.fn(item) for item in items]
        workers = 1 + len(self._children)
        for k, child in enumerate(self._children, start=1):
            _send(child, items[k::workers])
        shares = [_run_share(self.fn, items[0::workers])] + [_receive(child) for child in self._children]

        failed = [(k + workers * len(results), k) for k, (results, exc) in enumerate(shares) if exc is not None]
        if failed:
            raise shares[min(failed)[1]][1]
        out: list = [None] * len(items)
        for k, (results, _) in enumerate(shares):
            out[k::workers] = results
        return out

    def send(self, items) -> None:
        """Hand each item to the first child now, as a round of its own, for
        collect to read its result later; items should be small, as this
        blocks while the request pipe is full.  ChildProcessError when no
        child was forked or it has ended."""
        if not self._children:
            raise ChildProcessError("no forked worker to send items to")
        child = self._children[0]
        with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux's; the default pipe serves
            import fcntl

            fcntl.fcntl(child[2].fileno(), fcntl.F_SETPIPE_SZ, RESULT_PIPE_BYTES)
        for item in items:
            _send(child, [item])
            self._owed += 1

    def collect(self):
        """fn(item) of the first item sent and not yet collected, or its
        exception raised here as map raises it; ChildProcessError when the
        child ended without that result."""
        self._owed -= 1
        results, exc = _receive(self._children[0])
        if exc is not None:
            raise exc
        return results[0]

    def close(self) -> None:
        """End and reap every child: each sees the end of its requests, and
        a child still writing a result gets EPIPE; both leave.  A child
        that still owes results sent for is killed first: they are not
        wanted."""
        children, self._children = self._children, []
        with contextlib.suppress(ValueError):  # not listed when nothing was to be forked
            _live.remove(self)
        for pid, requests, results in children:
            if self._owed:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(BrokenPipeError):  # items a dead child never read
                requests.close()
            results.close()
        for pid, _, _ in children:
            os.waitpid(pid, 0)

    def __enter__(self) -> "Workers":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _send(child: tuple, share: list) -> None:
    pid, requests, _ = child
    try:
        pickle.dump(share, requests, pickle.HIGHEST_PROTOCOL)
        requests.flush()
    except BrokenPipeError:
        raise ChildProcessError(f"forked worker {pid} ended before its items were sent") from None


def _receive(child: tuple) -> tuple[list, Exception | None]:
    """A child's reply to one share: its results up to the first item that
    raised, and that exception rebuilt from the parts _serve sent."""
    pid, _, results = child
    try:
        results, parts = pickle.load(results)  # written by this process's own child
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"forked worker {pid} ended without a result") from None
    if parts is None:
        return results, None
    cls, args, state = parts
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return results, exc


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """fn of each item up to the first that raises, and that exception."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _serve(fn, parent_ends: list[int], request_r: int, result_w: int) -> None:
    """A forked child: compute each share that arrives and send it back,
    until the requests end; then leave."""
    global _in_child
    _in_child = True
    status = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        requests, replies = os.fdopen(request_r, "rb"), os.fdopen(result_w, "wb")
        while True:
            try:
                share = pickle.load(requests)
            except EOFError:  # the requests ended
                break
            results, exc = _run_share(fn, share)
            # an exception goes as its parts, so a subclass whose __init__
            # takes other arguments than its message is rebuilt all the
            # same; what cannot be pickled leaves the parent with a cut
            # stream (this process leaves unflushed), so with no result
            parts = None if exc is None else (type(exc), exc.args, vars(exc))
            pickle.dump((results, parts), replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
        status = 0
    finally:
        os._exit(status)

