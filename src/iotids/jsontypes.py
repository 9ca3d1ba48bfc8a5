"""Type checks of decoded JSON values against annotations, shared by the
config loader (model_params) and the bundle loaders (from_dict)."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing

from .errors import ModelDataMismatch


def has_type(value, hint) -> bool:
    """A JSON value against an annotation: an int is a plain int (not a
    bool), a float an int or a finite float, `X | None` also takes null,
    `list[X]` and `tuple[X, ...]` a list of X, and a dataclass an object
    with exactly its fields, each of its annotated type."""
    if hint in (int, bool):
        return type(value) is hint
    if hint is float:
        return type(value) is int or (type(value) is float and math.isfinite(value))
    if dataclasses.is_dataclass(hint):
        hints = _field_hints(hint)
        return (
            isinstance(value, dict)
            and value.keys() == hints.keys()
            and all(has_type(value[k], h) for k, h in hints.items())
        )
    args = typing.get_args(hint)
    if type(None) in args:
        return value is None or any(has_type(value, a) for a in args if a is not type(None))
    if typing.get_origin(hint) in (list, tuple):
        return isinstance(value, (list, tuple)) and all(has_type(v, args[0]) for v in value)
    return isinstance(value, hint)


@functools.cache
def _field_hints(cls) -> dict:
    """The evaluated annotations of dataclass cls (evaluating them is slow,
    and a bundle checks one params object per tree)."""
    return typing.get_type_hints(cls)


def type_name(hint) -> str:
    return str(hint) if typing.get_args(hint) else hint.__name__


def bundle_field(d: dict, key: str, hint):
    """d[key] when it has the annotated type (see has_type); any other value
    makes the bundle malformed."""
    value = d[key]
    if not has_type(value, hint):
        raise ModelDataMismatch(f"bundle field {key!r} must be {type_name(hint)}, got {value!r:.80}")
    return value
