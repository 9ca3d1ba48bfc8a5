"""write_output, the one writer of the files the commands output."""

import os
from pathlib import Path

from .errors import IoFailure


def write_output(path: str | Path, text: str) -> Path:
    """Write text to path, whole or not at all: a temporary file beside it,
    in a directory made as needed, is moved into place.  An OSError is an
    IoFailure.  Returns the path."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            temp.write_text(text)
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)  # gone once moved into place
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return path
