"""write_output, the one writer of the files the commands output;
replaced_file, the file such a write replaces; and output_dir, which makes
the directory a command writes under."""

import os
import re
import stat
from pathlib import Path

from .errors import IoFailure


def output_dir(path: str | Path) -> Path:
    """Make directory path and its parents as needed; an OSError is an
    IoFailure.  Returns the path."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path


# a path that names one of this process's open descriptors: its number, or the stream's name
_DESCRIPTOR_PATH = re.compile(r"/dev/(?:std(out|err)|fd/(\d+))|/proc/self/fd/(\d+)")


def _descriptor(path: str | Path) -> int | None:
    """The descriptor path names (/dev/stdout, /dev/stderr, /dev/fd/N or
    /proc/self/fd/N), or None."""
    match = _DESCRIPTOR_PATH.fullmatch(str(path))
    if match is None:
        return None
    stream, fd, proc_fd = match.groups()
    return {"out": 1, "err": 2}[stream] if stream else int(fd or proc_fd)


def replaced_file(path: str | Path) -> Path | None:
    """The file a write of path replaces: the regular file, existing or not,
    that path resolves to (os.path.realpath), or None for a path written in
    place: one that names an open descriptor of this process (_descriptor),
    a FIFO or a character device.  The kind is os.stat's, which follows
    /proc's fd links: /dev/stdout on a pipe is that pipe, where realpath
    names no file.  Any other kind, or an OSError, is an IoFailure."""
    if _descriptor(path) is not None:
        return None
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG  # a new file
        if stat.S_ISFIFO(mode) or stat.S_ISCHR(mode):
            return None
        if not stat.S_ISREG(mode):
            raise IoFailure(f"cannot write {path}: not a regular file, FIFO or character device")
        return Path(os.path.realpath(path))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_output(path: str | Path, text: str) -> Path:
    """Write text to path.  A regular file, or a path that does not exist
    yet, is written whole or not at all: a temporary file beside it, in a
    directory made as needed (output_dir), is moved into place.  A symlink is
    written through: the file it resolves to is the one replaced, and the
    link stays.  A path that names an open descriptor of this process
    (/dev/stdout, /dev/fd/3) is written through that descriptor, at its
    offset (the end, when it was opened to append), whatever its file is;
    an existing FIFO or character device (/dev/null, a pipe to a reader) is
    written in place; any other kind of file is refused (replaced_file).
    An OSError is an IoFailure.  Returns the path."""
    path = Path(path)
    target = replaced_file(path)
    try:
        fd = _descriptor(path)
        if fd is not None:
            with open(fd, "w", closefd=False) as stream:
                stream.write(text)
            return path
        if target is None:
            path.write_text(text)
            return path
        temp = output_dir(target.parent) / f".{target.name}.{os.getpid()}.tmp"
        try:
            temp.write_text(text)
            os.replace(temp, target)
        finally:
            temp.unlink(missing_ok=True)  # gone once moved into place
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path
