"""Map a function over items in forked children, one per usable CPU.

The children are made with os.fork, so they start with the parent's memory:
the function, its closure and the items reach them without pickling; only
each child's results come back, pickled over a pipe.  Fork is safe here only
because of what a child runs: tree growth, numpy array operations with no
BLAS call (the parent's BLAS threads are not copied), no logging, no import
and no I/O other than its pipe.  A child leaves with os._exit, so it runs no
exit handler and flushes no buffer of the parent's.
"""

from __future__ import annotations

import os
import pickle


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where that is not known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


def forked_map(fn, items) -> list:
    """[fn(item) for item in items], computed by this process and up to one
    forked child per usable CPU beyond the first.

    Items are dealt round-robin: worker k computes items[k::workers], and
    worker 0 is this process.  The exception of the first item that raises,
    in item order, is raised here with its type, arguments and attributes,
    as the serial loop would raise it.  A child that ends without a result
    (killed, or holding a result or exception that cannot be pickled)
    raises ChildProcessError.  Every child is reaped before this returns.
    With one usable CPU, or one item, nothing is forked.
    """
    items = list(items)
    workers = min(usable_cpus(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]

    pids: list[int] = []
    pipes: list[int] = []  # read end of each child's pipe
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
            except OSError:
                os.close(write_fd)
                raise
            if pid == 0:
                _child(fn, items[k::workers], pipes, write_fd)
            os.close(write_fd)
            pids.append(pid)
        shares = [_run_share(fn, items[0::workers])]
        for pid, read_fd in zip(pids, pipes):
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise ChildProcessError(f"forked worker {pid} ended without a result")
            shares.append(pickle.loads(data))  # written by this process's own child
    finally:
        for read_fd in pipes:
            os.close(read_fd)  # a child still writing gets EPIPE and leaves
        for pid in pids:
            os.waitpid(pid, 0)

    failed = [(k + workers * len(results), k) for k, (results, exc) in enumerate(shares) if exc is not None]
    if failed:
        exc = shares[min(failed)[1]][1]
        if isinstance(exc, tuple):  # a child's exception, in the parts _child sent
            cls, args, state = exc
            exc = cls.__new__(cls, *args)
            exc.__dict__.update(state)
        raise exc
    out: list = [None] * len(items)
    for k, (results, _) in enumerate(shares):
        out[k::workers] = results
    return out


def _run_share(fn, share: list) -> tuple[list, Exception | None]:
    """fn of each item up to the first that raises, and that exception."""
    results = []
    try:
        for item in share:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _child(fn, share: list, pipes: list[int], write_fd: int) -> None:
    """Compute a share in a forked child, send it down the pipe and leave."""
    status = 1
    try:
        for read_fd in pipes:  # its own pipe's and its elder siblings'
            os.close(read_fd)
        results, exc = _run_share(fn, share)
        # an exception goes as its parts, so a subclass whose __init__ takes
        # other arguments than its message is rebuilt all the same; what
        # cannot be pickled leaves the parent with no result
        parts = None if exc is None else (type(exc), exc.args, vars(exc))
        data = pickle.dumps((results, parts), pickle.HIGHEST_PROTOCOL)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
