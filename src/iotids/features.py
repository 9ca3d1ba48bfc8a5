"""Flow featurization: missing-value imputation, IP scope/country
engineering, one-hot encoding, leakage-safe min-max scaling, and
permutation importance.

Encoders and scaler params are fitted on the training partition only; the
fitted state is immutable and applied unchanged to every other partition.
"""

from __future__ import annotations

import csv
import ipaddress
import logging
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .errors import BadIpSyntax, ColumnMismatch, DataError, IoFailure, SchemaMismatch
from .flows import RawFlowRecord

log = logging.getLogger(__name__)

# Numeric flow columns that survive column dropping, in schema order.
NUMERIC_FIELDS = [
    "orig_p",
    "resp_p",
    "duration",
    "orig_bytes",
    "resp_bytes",
    "local_orig",
    "local_resp",
    "missed_bytes",
    "orig_pkts",
    "orig_ip_bytes",
    "resp_pkts",
    "resp_ip_bytes",
]

# Engineered IP columns (0 = private, 1 = global), placed after the numerics.
SCOPE_FIELDS = ["orig_scope", "resp_scope"]

# Categorical survivors, one-hot encoded in this order.
CATEGORICAL_FIELDS = ["proto", "service", "conn_state", "orig_country", "resp_country"]

DROPPED_COLUMNS = [
    ("orig_h", "raw IP address; replaced by scope/country features"),
    ("resp_h", "raw IP address; replaced by scope/country features"),
    ("uid", "identifier column"),
    ("ts", "identifier-like timestamp"),
    ("tunnel_parents", "identifier/free-text column"),
    ("history", "no accuracy impact per permutation importance"),
]

_PRIVATE_RANGES = [
    ipaddress.ip_network(p)
    for p in (
        "10.0.0.0/8",
        "172.16.0.0/12",
        "192.168.0.0/16",
        "127.0.0.0/8",
        "169.254.0.0/16",
        "fc00::/7",
        "::1/128",
        "fe80::/10",
    )
]


def _parse_ip(address: str):
    try:
        return ipaddress.ip_address(address)
    except ValueError:
        raise BadIpSyntax(address) from None


@dataclass(frozen=True)
class CidrTable:
    """Offline CIDR -> country table; longest-prefix match, default "unknown"."""

    entries: tuple[tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, str], ...] = ()

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[str, str]]) -> "CidrTable":
        entries = tuple((ipaddress.ip_network(cidr), country) for cidr, country in rows)
        return cls(entries)

    @classmethod
    def from_csv(cls, path: str | Path) -> "CidrTable":
        """The table in a 'cidr,country' CSV; a bad header or row is a
        DataError naming the file and line."""
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None or [h.strip() for h in header[:2]] != ["cidr", "country"]:
                    raise DataError(f"{path}: expected CSV header 'cidr,country'")
                entries = []
                for row in reader:
                    if not row:
                        continue
                    try:
                        entries.append((ipaddress.ip_network(row[0].strip()), row[1].strip()))
                    except (IndexError, ValueError) as exc:
                        raise DataError(f"{path} line {reader.line_num}: bad CIDR row {row!r}: {exc}") from None
                return cls(tuple(entries))
        except OSError as exc:
            raise IoFailure(f"cannot read CIDR table {path}: {exc}") from exc
        except (UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"{path}: not a CSV text file: {exc}") from None

    def country(self, address: str) -> str:
        return self.lookup(_parse_ip(address))

    def lookup(self, ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> str:
        best: str | None = None
        best_len = -1
        for network, country in self.entries:
            if network.version == ip.version and ip in network and network.prefixlen > best_len:
                best, best_len = country, network.prefixlen
        return best if best is not None else "unknown"


def _is_private(ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> bool:
    return any(network.version == ip.version and ip in network for network in _PRIVATE_RANGES)


def ip_scope(address: str) -> str:
    return "private" if _is_private(_parse_ip(address)) else "global"


def ip_and_categorical_columns(
    records: Sequence[RawFlowRecord], table: CidrTable
) -> tuple[np.ndarray, dict[str, list[str]]]:
    """The scope block (rows x [orig, resp]; 0 private, 1 global) and each
    categorical feature's column in CATEGORICAL_FIELDS order, a missing or
    empty service as "unknown"; every address is parsed once."""
    ips = [_parse_ip(address) for r in records for address in (r.orig_h, r.resp_h)]
    scopes = np.array([0.0 if _is_private(ip) else 1.0 for ip in ips]).reshape(-1, 2)
    countries = [table.lookup(ip) for ip in ips]
    return scopes, {
        "proto": [r.proto for r in records],
        "service": [r.service or "unknown" for r in records],
        "conn_state": [r.conn_state for r in records],
        "orig_country": countries[0::2],
        "resp_country": countries[1::2],
    }


# --- one-hot -----------------------------------------------------------------

@dataclass(frozen=True)
class OneHotVocabulary:
    """Per-feature category lists in first-seen order over the fitting partition."""

    categories: dict[str, tuple[str, ...]]

    def width(self, feature: str) -> int:
        return len(self.categories[feature])


def fit_one_hot(columns: Mapping[str, Sequence[str]]) -> OneHotVocabulary:
    """Each feature's categories in first-seen order over its column."""
    return OneHotVocabulary({f: tuple(dict.fromkeys(column)) for f, column in columns.items()})


def encode_one_hot(vocabulary: OneHotVocabulary, feature: str, values: Sequence[str]) -> np.ndarray:
    """The len(values) x width indicator block of one feature; unseen
    categories encode as all-zero rows, counted in one warning."""
    column = {cat: j for j, cat in enumerate(vocabulary.categories[feature])}
    cols = np.array([column.get(v, -1) for v in values], dtype=np.intp)
    seen = cols >= 0
    block = np.zeros((len(values), len(column)))
    block[np.flatnonzero(seen), cols[seen]] = 1.0
    unseen = len(values) - int(seen.sum())
    if unseen:
        log.warning("%d rows with an unseen category for feature %r encoded as all zeros", unseen, feature)
    return block


# --- min-max scaling ----------------------------------------------------------

@dataclass(frozen=True)
class MinMaxParams:
    x_min: np.ndarray
    x_max: np.ndarray
    fitted_on: str

    @property
    def width(self) -> int:
        return self.x_min.shape[0]


def fit_min_max(train_matrix: np.ndarray, fitted_on: str = "train") -> MinMaxParams:
    if train_matrix.size == 0:
        raise ValueError("cannot fit scaler on an empty matrix")
    return MinMaxParams(
        x_min=train_matrix.min(axis=0).astype(float),
        x_max=train_matrix.max(axis=0).astype(float),
        fitted_on=fitted_on,
    )


def transform_min_max(params: MinMaxParams, matrix: np.ndarray) -> np.ndarray:
    """(X - x_min) / (x_max - x_min), clamped to [0, 1]; constant columns map to 0."""
    if matrix.shape[1] != params.width:
        raise ColumnMismatch(f"scaler fitted on {params.width} columns, matrix has {matrix.shape[1]}")
    span = params.x_max - params.x_min
    safe = np.where(span == 0.0, 1.0, span)
    scaled = (matrix - params.x_min) / safe
    scaled = np.where(span == 0.0, 0.0, scaled)
    return np.clip(scaled, 0.0, 1.0)


# --- schema and matrix assembly -------------------------------------------------

@dataclass(frozen=True)
class FeatureSchema:
    """Ordered column metadata; one-hot columns grouped per source feature."""

    columns: tuple[tuple[str, str], ...]  # (name, kind) with kind "numeric" | "one_hot"
    dropped: tuple[tuple[str, str], ...] = tuple(DROPPED_COLUMNS)

    @property
    def width(self) -> int:
        return len(self.columns)

    def names(self) -> list[str]:
        return [name for name, _ in self.columns]


def build_schema(vocabulary: OneHotVocabulary) -> FeatureSchema:
    columns: list[tuple[str, str]] = [(name, "numeric") for name in NUMERIC_FIELDS + SCOPE_FIELDS]
    for feature in CATEGORICAL_FIELDS:
        for cat in vocabulary.categories[feature]:
            columns.append((f"{feature}={cat}", "one_hot"))
    return FeatureSchema(tuple(columns))


def matrix_from_records(
    records: Sequence[RawFlowRecord],
    table: CidrTable,
    vocabulary: OneHotVocabulary,
    params: MinMaxParams | None = None,
) -> tuple[np.ndarray, FeatureSchema]:
    """Raw (unscaled) or scaled matrix for parsed records, plus its schema.

    Columns are the numerics (missing values, tri-state bools included, as
    0), the IP scopes, then one-hot blocks; their order is a pure function
    of the schema.
    """
    schema = build_schema(vocabulary)
    values = np.zeros((len(records), schema.width))
    numerics = operator.attrgetter(*NUMERIC_FIELDS)
    start = len(NUMERIC_FIELDS)
    values[:, :start] = np.array(
        [[0.0 if v is None else v for v in numerics(r)] for r in records], dtype=float
    ).reshape(-1, start)
    scopes, columns = ip_and_categorical_columns(records, table)
    values[:, start : start + 2] = scopes
    start += 2
    for feature in CATEGORICAL_FIELDS:
        block = encode_one_hot(vocabulary, feature, columns[feature])
        values[:, start : start + block.shape[1]] = block
        start += block.shape[1]
    if params is not None:
        if params.width != schema.width:
            raise SchemaMismatch(
                f"scaler fitted on {params.width} columns, schema has {schema.width}"
            )
        values = transform_min_max(params, values)
    return values, schema


# --- permutation importance -----------------------------------------------------

class LabelPredictor(Protocol):
    def predict(self, X: np.ndarray) -> np.ndarray: ...


@dataclass
class ImportanceReport:
    feature_names: list[str]
    per_repeat: np.ndarray  # features x repeats accuracy drops
    repeats: int
    seed: int

    @property
    def mean_importance(self) -> np.ndarray:
        return self.per_repeat.mean(axis=1)

    def to_csv(self) -> str:
        lines = ["feature,mean_importance,repeat_values"]
        means = self.mean_importance
        for i, name in enumerate(self.feature_names):
            joined = ";".join(repr(float(v)) for v in self.per_repeat[i])
            lines.append(f"{name},{float(means[i])!r},{joined}")
        return "\n".join(lines) + "\n"


def permutation_importance(
    model: LabelPredictor,
    X_val: np.ndarray,
    y_val: np.ndarray,
    repeats: int = 5,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> ImportanceReport:
    """Mean accuracy decrease per feature over seeded column shuffles.

    Shuffles are independent per (feature, repeat); the sub-seed for pair
    (j, r) derives as default_rng([seed, j, r]) so any cell is recomputable
    in isolation.  Negative importances are reported as-is.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    y_val = np.asarray(y_val)
    base = float(np.mean(model.predict(X_val) == y_val))
    n, d = X_val.shape
    drops = np.zeros((d, repeats))
    for j in range(d):
        for r in range(repeats):
            rng = np.random.default_rng([seed, j, r])
            shuffled = X_val.copy()
            shuffled[:, j] = X_val[rng.permutation(n), j]
            acc = float(np.mean(model.predict(shuffled) == y_val))
            drops[j, r] = base - acc
    names = list(feature_names) if feature_names is not None else [f"f{j}" for j in range(d)]
    return ImportanceReport(names, drops, repeats, seed)
