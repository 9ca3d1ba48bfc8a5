"""write_output, the one writer of the files the commands output;
replaced_file, the file such a write replaces; and output_dir, which makes
the directory a command writes under."""

import os
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


def replaced_file(path: str | Path) -> Path | None:
    """The file a write of path replaces: the regular file, existing or not,
    that path resolves to (os.path.realpath), or None for a FIFO or character
    device, which is written in place.  The kind is os.stat's, which follows
    /proc's fd links: /dev/stdout on a pipe is that pipe, where realpath
    names no file.  Any other kind, or an OSError, is an IoFailure."""
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
    link stays.  An existing FIFO or character device (/dev/null, a pipe
    to a reader, /dev/stdout) is written in place; any other kind of file
    is refused (replaced_file).  An OSError is an IoFailure.  Returns the
    path."""
    path = Path(path)
    target = replaced_file(path)
    try:
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
