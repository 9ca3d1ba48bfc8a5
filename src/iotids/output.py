"""write_output, the one writer of the files the commands output, and
output_dir, which makes the directory a command writes under."""

import os
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


def write_output(path: str | Path, text: str) -> Path:
    """Write text to path, whole or not at all: a temporary file beside it,
    in a directory made as needed (output_dir), is moved into place.  An
    OSError is an IoFailure.  Returns the path."""
    path = Path(path)
    temp = output_dir(path.parent) / f".{path.name}.{os.getpid()}.tmp"
    try:
        try:
            temp.write_text(text)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)  # gone once moved into place
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path
