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
import mmap
import re
import socket
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .errors import BadIpSyntax, ColumnMismatch, DataError, EmptyMatrix, IoFailure, SchemaMismatch
from .flows import FlowTable
from .parallel import map_row_ranges, row_ranges

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

# The FlowTable attributes featurization reads: a parse of rows only to be
# featurized keeps these columns alone.
FEATURIZED_COLUMNS = (*NUMERIC_FIELDS, "orig_h", "resp_h", "proto", "service", "conn_state")

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
    """The address; an IPv4-mapped IPv6 address (::ffff:a.b.c.d) is its IPv4
    address, so it has the same scope and country however a capture wrote it."""
    try:
        ip = ipaddress.ip_address(address)
    except ValueError:
        raise BadIpSyntax(address) from None
    return getattr(ip, "ipv4_mapped", None) or ip


# a dotted quad as ipaddress accepts it: four decimal octets 0-255 without leading zeros
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = re.compile(rf"{_OCTET}\.{_OCTET}\.{_OCTET}\.{_OCTET}")


def _ipv4_mask(prefixlen: int) -> int:
    return (0xFFFFFFFF << (32 - prefixlen)) & 0xFFFFFFFF


@dataclass(frozen=True)
class CidrTable:
    """Offline CIDR -> country table; longest-prefix match, default "unknown".

    Among entries with the same network, the first one wins.  A lookup
    costs one search per distinct prefix length, whatever the table size.
    """

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

    @cached_property
    def _prefixes(self) -> tuple[list, list]:
        """The IPv4 and the IPv6 lookup lists, one item per distinct prefix
        length, longest first: (mask, sorted uint32 networks, their
        countries) for IPv4 and (host bits, network int -> country) for
        IPv6.  Each network appears once, with its first entry's country."""
        groups: dict[tuple[int, int], dict[int, str]] = {}
        for network, country in self.entries:
            group = groups.setdefault((network.version, network.prefixlen), {})
            group.setdefault(int(network.network_address), country)
        ipv4, ipv6 = [], []
        for version, prefixlen in sorted(groups, key=lambda key: -key[1]):
            group = groups[(version, prefixlen)]
            if version == 4:
                networks = sorted(group)
                countries = np.array([group[v] for v in networks], dtype=object)
                ipv4.append((np.uint32(_ipv4_mask(prefixlen)), np.array(networks, dtype=np.uint32), countries))
            else:
                ipv6.append((128 - prefixlen, group))
        return ipv4, ipv6

    def ipv4_countries(self, addresses: np.ndarray) -> np.ndarray:
        """The country of each uint32 IPv4 address, as an object array: one
        searchsorted per prefix length, longest first."""
        countries = np.full(len(addresses), "unknown", dtype=object)
        pending = np.ones(len(addresses), dtype=bool)
        for mask, networks, names in self._prefixes[0]:
            masked = addresses & mask
            at = np.minimum(np.searchsorted(networks, masked), len(networks) - 1)
            hit = pending & (networks[at] == masked)
            countries[hit] = names[at[hit]]
            pending &= ~hit
        return countries

    def country(self, address: str) -> str:
        return self.lookup(_parse_ip(address))

    def lookup(self, ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> str:
        if ip.version == 4:
            return self.ipv4_countries(np.array([int(ip)], dtype=np.uint32))[0]
        for host_bits, networks in self._prefixes[1]:
            country = networks.get(int(ip) >> host_bits << host_bits)
            if country is not None:
                return country
        return "unknown"


def _is_private(ip: ipaddress.IPv4Address | ipaddress.IPv6Address) -> bool:
    return any(network.version == ip.version and ip in network for network in _PRIVATE_RANGES)


_PRIVATE_IPV4 = [
    (np.uint32(int(n.network_address)), np.uint32(_ipv4_mask(n.prefixlen))) for n in _PRIVATE_RANGES if n.version == 4
]


def ip_scope(address: str) -> str:
    return "private" if _is_private(_parse_ip(address)) else "global"


def _address_features(addresses: list[str], table: CidrTable) -> tuple[np.ndarray, np.ndarray]:
    """(private, country) of each address.  Dotted quads are parsed into
    uint32 values and matched with array ops; any other token goes through
    _parse_ip once, so the first bad one in list order raises BadIpSyntax."""
    private = np.zeros(len(addresses), dtype=bool)
    countries = np.full(len(addresses), "unknown", dtype=object)
    is_v4 = np.fromiter((m is not None for m in map(_IPV4.fullmatch, addresses)), bool, len(addresses))
    v4 = np.flatnonzero(is_v4)
    if len(v4):
        quads = [addresses[k] for k in v4.tolist()]
        ints = np.frombuffer(b"".join(map(socket.inet_aton, quads)), dtype=">u4").astype(np.uint32)
        private[v4] = np.any([(ints & mask) == net for net, mask in _PRIVATE_IPV4], axis=0)
        countries[v4] = table.ipv4_countries(ints)
    for k in np.flatnonzero(~is_v4).tolist():
        ip = _parse_ip(addresses[k])
        private[k] = _is_private(ip)
        countries[k] = table.lookup(ip)
    return private, countries


def ip_and_categorical_columns(table: FlowTable, cidr: CidrTable) -> tuple[np.ndarray, dict[str, list[str]]]:
    """The scope block (rows x [orig, resp]; 0 private, 1 global) and each
    categorical feature's column in CATEGORICAL_FIELDS order, a missing or
    empty service as "unknown"; each distinct address is parsed once."""
    addresses = [""] * (2 * len(table))
    addresses[0::2] = table["orig_h"]
    addresses[1::2] = table["resp_h"]
    distinct = list(dict.fromkeys(addresses))  # first-seen order: the first bad address raises
    code = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code.__getitem__, addresses), np.intp, len(addresses))
    private, countries = _address_features(distinct, cidr)
    row_countries = countries[codes]
    return np.where(private[codes], 0.0, 1.0).reshape(-1, 2), {
        "proto": table["proto"],
        "service": [s or "unknown" for s in table["service"]],
        "conn_state": table["conn_state"],
        "orig_country": row_countries[0::2].tolist(),
        "resp_country": row_countries[1::2].tolist(),
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


def _write_one_hot(out: np.ndarray, vocabulary: OneHotVocabulary, feature: str, values: Sequence[str]) -> int:
    """Set the indicators of one feature in the zeroed columns out (a view
    may be given); an unseen category sets none.  Returns how many rows
    have an unseen category."""
    column = {cat: j for j, cat in enumerate(vocabulary.categories[feature])}
    cols = np.array([column.get(v, -1) for v in values], dtype=np.intp)
    seen = cols >= 0
    out[np.flatnonzero(seen), cols[seen]] = 1.0
    return len(values) - int(seen.sum())


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
    return _scale_in_place(params, matrix - params.x_min)  # the one copy


def _scale_in_place(params: MinMaxParams, shifted: np.ndarray) -> np.ndarray:
    """shifted = X - x_min, scaled in place as transform_min_max describes."""
    span = params.x_max - params.x_min
    constant = span == 0.0
    np.divide(shifted, np.where(constant, 1.0, span), out=shifted)
    shifted[:, constant] = 0.0
    return np.clip(shifted, 0.0, 1.0, out=shifted)


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


# estimated serial featurize time of a row: 32 ms for 30,100 flows (2-vCPU VM)
_FEATURIZE_ROW_S = 1e-6


def matrix_from_records(
    table: FlowTable,
    cidr: CidrTable,
    vocabulary: OneHotVocabulary,
    params: MinMaxParams | None = None,
) -> tuple[np.ndarray, FeatureSchema]:
    """Raw (unscaled) or scaled matrix for a parsed table, plus its schema.

    Columns are the numerics (missing values, tri-state bools included,
    imputed as 0), the IP scopes, then one-hot blocks; their order is a pure
    function of the schema.  Rows with an unseen category are counted in one
    warning per feature.  A large table's rows are filled in ranges spread
    over forked workers (parallel.map_row_ranges), which write them into a
    matrix in memory shared with them and send back only their counts; a
    row's values do not depend on its range.
    """
    schema = build_schema(vocabulary)
    scale = params is not None and params.width == schema.width
    shape = (len(table), schema.width)
    if len(row_ranges(len(table), _FEATURIZE_ROW_S)) > 1:
        values = np.ndarray(shape, buffer=mmap.mmap(-1, 8 * shape[0] * shape[1]))  # anonymous and shared
    else:
        values = np.empty(shape)

    def fill(start: int, stop: int) -> list[int]:
        return _fill_rows(values[start:stop], table.rows(start, stop), cidr, vocabulary, params if scale else None)

    unseen = np.sum(map_row_ranges(fill, len(table), _FEATURIZE_ROW_S), axis=0, dtype=np.int64)
    for feature, count in zip(CATEGORICAL_FIELDS, unseen.tolist()):
        if count:
            log.warning("%d rows with an unseen category for feature %r encoded as all zeros", count, feature)
    if params is not None and not scale:
        raise SchemaMismatch(f"scaler fitted on {params.width} columns, schema has {schema.width}")
    return values, schema


def _fill_rows(
    out: np.ndarray, table: FlowTable, cidr: CidrTable, vocabulary: OneHotVocabulary, params: MinMaxParams | None
) -> list[int]:
    """Write the table's matrix rows into out (scaled when params are
    given); returns each categorical feature's count of unseen categories."""
    start = len(NUMERIC_FIELDS)
    numerics = out[:, :start]  # a view into out
    for j, name in enumerate(NUMERIC_FIELDS):
        numerics[:, j] = table[name]
    numerics[np.isnan(numerics)] = 0.0
    scopes, columns = ip_and_categorical_columns(table, cidr)
    out[:, start : start + 2] = scopes
    start += 2
    out[:, start:] = 0.0
    unseen = []
    for feature in CATEGORICAL_FIELDS:
        width = vocabulary.width(feature)
        unseen.append(_write_one_hot(out[:, start : start + width], vocabulary, feature, columns[feature]))
        start += width
    if params is not None:
        np.subtract(out, params.x_min, out=out)
        _scale_in_place(params, out)
    return unseen


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
    in isolation.  Negative importances are reported as-is.  Zero rows are
    an EmptyMatrix error: accuracy is undefined.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    y_val = np.asarray(y_val)
    if not len(y_val):
        raise EmptyMatrix("permutation importance needs at least one labeled row")
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
