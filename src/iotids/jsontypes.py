"""Checks of decoded JSON values against annotations and value ranges: the
one reader of JSON records from outside (the experiment config and its
model_params, the synth spec, and every bundle value, network layer
descriptors included); and compact_json, the encoding of every bundle."""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing

import numpy as np

from .errors import ConfigError, ModelDataMismatch


def compact_json(value) -> str:
    """value as JSON with no whitespace, the encoding of every bundle."""
    return json.dumps(value, separators=(",", ":"))


def has_type(value, hint) -> bool:
    """A JSON value against an annotation: an int is a plain int (not a
    bool), a float an int or float that is finite as a float, `X | None`
    also takes null, `list[X]` and `tuple[X, ...]` a list of X,
    `tuple[X, Y]` a list of one X and one Y, `dict[K, V]` an object of V
    values, and a dataclass an object with exactly its fields, each of its
    annotated type."""
    if hint in (int, bool):
        return type(value) is hint
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
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
    origin = typing.get_origin(hint)
    if origin is dict:
        return isinstance(value, dict) and all(has_type(k, args[0]) and has_type(v, args[1]) for k, v in value.items())
    if origin is tuple and args[-1] is not Ellipsis:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(has_type, value, args))
    if origin in (list, tuple):
        return isinstance(value, (list, tuple)) and all(has_type(v, args[0]) for v in value)
    return isinstance(value, hint)


@functools.cache
def _field_hints(cls) -> dict:
    """The evaluated annotations of dataclass cls (evaluating them is slow,
    and a bundle checks one params object per tree)."""
    return typing.get_type_hints(cls)


def type_name(hint) -> str:
    return str(hint) if typing.get_args(hint) else hint.__name__


_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_POSITIVE = (lambda v: v > 0, "> 0")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_FRACTION = (lambda v: 0 <= v < 1, "in [0, 1)")
# the meaningful range of every numeric field of a config, synth spec,
# model_params entry or network layer descriptor, by name (a name means the
# same thing wherever it appears); null passes, and each entry of a list is
# checked
_VALUE_RANGES = {
    **dict.fromkeys(
        ("n_trees", "max_depth", "min_samples_leaf", "features_per_split", "max_rounds", "patience",
         "n_rounds", "weak_depth", "k", "epochs", "batch_size", "hidden", "n_filters", "kernel_width",
         "pool", "per_class", "rows_per_class", "feature_width", "n_in", "n_out", "width", "in_channels",
         "input_width", "class_count"),
        _AT_LEAST_ONE,
    ),
    **dict.fromkeys(("learning_rate", "C", "lr0", "eps", "elu_alpha", "alpha"), _POSITIVE),
    **dict.fromkeys(("leaf_l2", "decay", "l1", "l2", "seed", "spread", "cv_folds"), _NON_NEGATIVE),
    **dict.fromkeys(("dropout_rate", "rate", "beta1", "beta2"), _FRACTION),
    "label_noise": (lambda v: 0 <= v < 0.5, "in [0, 0.5)"),
}


def _in_range(key: str, value) -> bool:
    if key not in _VALUE_RANGES or value is None:
        return True
    values = value if isinstance(value, (list, tuple)) else (value,)
    return all(_VALUE_RANGES[key][0](v) for v in values)


def value_problem(key: str, value, hint) -> str | None:
    """What is wrong with value as the field `key` annotated `hint`: its
    type, or its range in _VALUE_RANGES; None when nothing is."""
    if not has_type(value, hint):
        return f"must be {type_name(hint)}, got {value!r:.80}"
    if not _in_range(key, value):
        return f"must be {_VALUE_RANGES[key][1]}, got {value!r:.80}"
    return None


def check_fields(record, what: str) -> None:
    """Raise ConfigError unless every field of dataclass instance record
    has its annotated type and a value in its range."""
    for name, hint in _field_hints(type(record)).items():
        problem = value_problem(name, getattr(record, name), hint)
        if problem:
            raise ConfigError(f"{what}: {name!r} {problem}")


def from_json_object(cls, d, what: str):
    """cls(**d), validated, when d is a JSON object whose keys are fields of
    dataclass cls and include every field without a default; anything else
    is a ConfigError naming `what`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(d.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"{what}: unknown fields {unknown}")
    missing = [
        name for name, f in fields.items()
        if name not in d and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{what}: missing fields {missing}")
    record = cls(**d)
    record.validate()
    return record


def bundle_field(d: dict, key: str, hint):
    """d[key] when it has the annotated type (see has_type); any other value
    makes the bundle malformed."""
    value = d[key]
    if not has_type(value, hint):
        raise ModelDataMismatch(f"bundle field {key!r} must be {type_name(hint)}, got {value!r:.80}")
    return value


def bundle_float_array(d: dict, key: str) -> np.ndarray:
    """d[key] as a float array of finite numbers, checked at array speed: a
    null (NaN as a float), a non-finite or non-numeric value, or ragged
    nesting makes the bundle malformed."""
    problem = f"bundle field {key!r} must hold finite numbers"
    try:
        values = np.asarray(d[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelDataMismatch(problem) from exc
    if not np.isfinite(values).all():
        raise ModelDataMismatch(problem)
    return values
