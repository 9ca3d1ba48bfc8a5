"""Zeek conn-log ingestion: parse, canonicalize labels, balance-sample.

Input files are IoT23-style labeled connection logs: tab-separated rows under
a ``#fields`` directive, ``-`` marking unset values and ``(empty)`` marking
empty strings.  Real IoT23 captures separate the last three logical columns
(tunnel_parents, label, detailed-label) by runs of spaces instead of tabs;
the parser repairs that before column mapping.

Rows have one representation, columns keyed by attribute: the parser builds
them as a FlowTable, and render_conn_log, its inverse, writes such columns
out as a conn log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BadNumeric,
    ColumnCountMismatch,
    DataError,
    EmptyClass,
    IoFailure,
    MalformedHeader,
    UnknownBinaryLabel,
)

UNSET = "-"
EMPTY = "(empty)"

# Zeek column name -> record attribute.
ZEEK_TO_ATTR = {
    "ts": "ts",
    "uid": "uid",
    "id.orig_h": "orig_h",
    "id.orig_p": "orig_p",
    "id.resp_h": "resp_h",
    "id.resp_p": "resp_p",
    "proto": "proto",
    "service": "service",
    "duration": "duration",
    "orig_bytes": "orig_bytes",
    "resp_bytes": "resp_bytes",
    "conn_state": "conn_state",
    "local_orig": "local_orig",
    "local_resp": "local_resp",
    "missed_bytes": "missed_bytes",
    "history": "history",
    "orig_pkts": "orig_pkts",
    "orig_ip_bytes": "orig_ip_bytes",
    "resp_pkts": "resp_pkts",
    "resp_ip_bytes": "resp_ip_bytes",
    "tunnel_parents": "tunnel_parents",
    "label": "raw_label",
    "detailed-label": "raw_detailed_label",
}

CONN_FIELDS = list(ZEEK_TO_ATTR)

FLOAT_COLUMNS = {"ts", "duration"}
INT_COLUMNS = {
    "id.orig_p",
    "id.resp_p",
    "orig_bytes",
    "resp_bytes",
    "missed_bytes",
    "orig_pkts",
    "orig_ip_bytes",
    "resp_pkts",
    "resp_ip_bytes",
}
BOOL_COLUMNS = {"local_orig", "local_resp"}
PORT_COLUMNS = {"id.orig_p", "id.resp_p"}

KNOWN_PROTOS = ("tcp", "udp", "icmp")


class BinaryClass(IntEnum):
    BENIGN = 0
    MALICIOUS = 1


class MultiClass(IntEnum):
    BENIGN = 0
    CC_HEARTBEAT = 1
    DDOS = 2
    OKIRU = 3
    PORT_SCAN = 4
    CC = 5
    ATTACK = 6


BINARY_CLASS_NAMES = ["Benign", "Malicious"]
MULTI_CLASS_NAMES = ["Benign", "CcHeartBeat", "DDoS", "Okiru", "PortScan", "Cc", "Attack"]
TASK_CLASS_NAMES = {"binary": BINARY_CLASS_NAMES, "multiclass": MULTI_CLASS_NAMES}
# each task's column in Dataset.labels
_TASK_COLUMN = {"binary": 0, "multiclass": 1}

_NAME_TO_MULTI = {name: MultiClass(i) for i, name in enumerate(MULTI_CLASS_NAMES)}


def _load_label_map() -> tuple[int, dict[str, MultiClass | None]]:
    raw = json.loads(resources.files("iotids.data").joinpath("label_map.json").read_text())
    table: dict[str, MultiClass | None] = {}
    for key, name in raw["detailed"].items():
        table[key] = None if name is None else _NAME_TO_MULTI[name]
    return raw["version"], table


LABEL_MAP_VERSION, _DETAILED_LABEL_MAP = _load_label_map()


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Parsed conn-log rows as columns keyed by attribute (ZEEK_TO_ATTR's values).

    Numeric and bool columns are float64 arrays with NaN for a missing
    value (a missing port is 0, bools are 1.0/0.0); text columns are lists
    in which a repeated value is one shared str (service and history keep
    None for unset).  ``line_no`` is each row's line in its source file.
    """

    columns: dict[str, np.ndarray | list]
    line_no: np.ndarray

    def __len__(self) -> int:
        return len(self.line_no)

    def __getitem__(self, attr: str) -> np.ndarray | list:
        return self.columns[attr]

    def take(self, indices: np.ndarray) -> "FlowTable":
        """The rows at `indices`, in that order."""
        indices = np.asarray(indices, dtype=np.intp)
        rows = indices.tolist()
        return FlowTable(
            {a: c[indices] if isinstance(c, np.ndarray) else [c[i] for i in rows] for a, c in self.columns.items()},
            self.line_no[indices],
        )

    @classmethod
    def concat(cls, tables: Sequence["FlowTable"]) -> "FlowTable":
        """The rows of every table, in order."""
        if len(tables) == 1:
            return tables[0]
        columns = {}
        for attr, first in tables[0].columns.items():
            if isinstance(first, np.ndarray):
                columns[attr] = np.concatenate([t.columns[attr] for t in tables])
            else:
                columns[attr] = [v for t in tables for v in t.columns[attr]]
        return cls(columns, np.concatenate([t.line_no for t in tables]))


@dataclass
class Dataset:
    """Parsed rows and their canonical labels: row i of the n x 2 int64
    labels is row i's binary class and its 7-class index, -1 for the
    sentinel (a malicious row outside the seven classes)."""

    table: FlowTable
    labels: np.ndarray
    source_files: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.table)

    def targets(self, task: str) -> np.ndarray:
        """Each row's class index in the task; -1 marks a sentinel row."""
        if task not in _TASK_COLUMN:
            raise ValueError(f"unknown task {task!r}")
        return self.labels[:, _TASK_COLUMN[task]]

    def take(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.table.take(indices), self.labels[indices], self.source_files)


# token -> value for the tokens that float() and int() do not convert: a
# missing value, and in a bool column the only tokens it accepts
_MISSING_VALUES = {UNSET: np.nan, EMPTY: np.nan}
_BOOL_VALUES = {UNSET: np.nan, "T": 1.0, "true": 1.0, "1": 1.0, "F": 0.0, "false": 0.0, "0": 0.0}


def _numeric_column(column: str, tokens: Sequence[str]) -> np.ndarray:
    """One numeric or bool column's float64 values: NaN for a missing value
    and inf for a token the column rejects (no accepted value is infinite).

    A column of plain numbers converts with one map of its conversion; any
    other column looks each distinct token up in its table of fixed values
    and converts the rest one at a time."""
    n = len(tokens)
    if column in BOOL_COLUMNS:
        fixed, convert = _BOOL_VALUES, _no_number
    else:
        fixed, convert = _MISSING_VALUES, float if column in FLOAT_COLUMNS else int
    try:
        return _reject(column, np.fromiter(map(convert, tokens), np.float64, n))
    except (ValueError, OverflowError):
        pass  # a missing value or a bad token: convert per distinct token
    distinct = {token: fixed.get(token) for token in set(tokens)}
    numbers = [token for token, value in distinct.items() if value is None]
    values = np.array([_number(convert, token) for token in numbers], dtype=np.float64)
    distinct.update(zip(numbers, _reject(column, values).tolist()))
    return np.fromiter(map(distinct.__getitem__, tokens), np.float64, n)


def _no_number(token: str) -> float:
    raise ValueError(token)  # a bool column accepts only the tokens of _BOOL_VALUES


def _number(convert, token: str) -> float:
    """convert(token) as a float, inf when convert rejects the token."""
    try:
        return float(convert(token))  # an int beyond float64 raises OverflowError
    except (ValueError, OverflowError):
        return np.inf


def _reject(column: str, values: np.ndarray) -> np.ndarray:
    """values, each one the column rejects set to inf: nan and inf (they
    would reach the scaler's min/max), a negative count or duration, and a
    port above 65535."""
    bad = ~np.isfinite(values)
    if column in INT_COLUMNS or column == "duration":
        bad |= values < 0
    if column in PORT_COLUMNS:
        bad |= values > 65535
    values[bad] = np.inf
    return values


def _text_value(attr: str, token: str) -> str | None:
    """One text cell's value, with the defaults for an unset or empty one."""
    value = None if token == UNSET else "" if token == EMPTY else token
    if attr == "proto":
        return value if value in KNOWN_PROTOS else "other"
    if attr == "raw_detailed_label":
        return value or UNSET
    if attr in ("service", "history"):
        return value
    return value or ""


def _repair_trailing_labels(parts: list[str], expected: int) -> list[str]:
    """Split a space-glued final cell so the row has the expected width.

    IoT23 quirk: tunnel_parents, label and detailed-label are sometimes
    separated by runs of spaces, arriving as one tab-separated cell.
    """
    deficit = expected - len(parts)
    if deficit <= 0:
        return parts
    tail = parts[-1].split()
    if len(tail) == deficit + 1:
        return parts[:-1] + tail
    return parts


# lines read and converted at a time; bounds the parser's working memory
BLOCK_LINES = 1024

_NUMERIC_ATTRS = {ZEEK_TO_ATTR[c] for c in FLOAT_COLUMNS | INT_COLUMNS | BOOL_COLUMNS}
_PORT_ATTRS = {ZEEK_TO_ATTR[c] for c in PORT_COLUMNS}
# the text tokens whose value is not the token itself, apart from proto's
_SPECIAL_TOKENS = {UNSET, EMPTY, ""}


class _TableBuilder:
    """Accumulates converted blocks of data rows into FlowTable columns."""

    def __init__(self, allow_unlabeled: bool):
        self.allow_unlabeled = allow_unlabeled
        self.numeric: dict[str, list[np.ndarray]] = {a: [] for a in _NUMERIC_ATTRS}
        self.text: dict[str, list] = {a: [] for a in ZEEK_TO_ATTR.values() if a not in _NUMERIC_ATTRS}
        # per text column: token -> value, so a repeated value is one str
        self.values: dict[str, dict[str, str | None]] = {a: {} for a in self.text}
        self.line_no: list[np.ndarray] = []

    def add(self, header: list[str], lines: list[str], first_line: int) -> None:
        """Convert consecutive data lines (the first at line `first_line`)
        under one #fields header.  The error raised is the one the first
        bad row has; within a row, the first bad column in header order,
        and a missing label after every column."""
        width = len(header)
        errors: list[tuple[int, int, DataError]] = []  # (row, position, error)
        if list(map(str.count, lines, repeat("\t"))).count(width - 1) == len(lines):
            # every row has the header's width: split the run once, slice out columns
            n = len(lines)
            flat = "\t".join(lines).split("\t")
            cells: list[Sequence[str]] = [flat[j::width] for j in range(width)]
        else:
            rows = [line.split("\t") for line in lines]
            for i, parts in enumerate(rows):
                if len(parts) != width:
                    rows[i] = parts = _repair_trailing_labels(parts, width)
                    if len(parts) != width:
                        errors.append((i, -1, ColumnCountMismatch(first_line + i, width, len(parts))))
                        del rows[i:]
                        break
            n = len(rows)
            cells = list(zip(*rows)) if rows else [()] * width
        block: dict[str, np.ndarray | list] = {}
        for j, (column, tokens) in enumerate(zip(header, cells)):
            attr = ZEEK_TO_ATTR.get(column)
            if attr is None:
                continue  # unknown column: not part of the schema
            if attr in _NUMERIC_ATTRS:
                values = _numeric_column(column, tokens)
                bad = np.flatnonzero(np.isinf(values))
                if len(bad):
                    row = int(bad[0])
                    errors.append((row, j, BadNumeric(first_line + row, column, tokens[row])))
                if attr in _PORT_ATTRS:
                    values[np.isnan(values)] = 0.0
                block[attr] = values
            else:
                known = self.values[attr]
                new = set(tokens).difference(known)
                if attr == "proto":
                    known.update((token, _text_value(attr, token)) for token in new)
                else:
                    known.update(zip(new, new))  # a plain token is its own value
                    known.update((token, _text_value(attr, token)) for token in new & _SPECIAL_TOKENS)
                block[attr] = list(map(known.__getitem__, tokens))
        if not self.allow_unlabeled and n:
            labels = block.get("raw_label", [""])
            if "" in labels:
                row = labels.index("")
                message = "row has no label; pass allow_unlabeled for prediction input"
                errors.append((row, width, MalformedHeader(first_line + row, message)))
        if errors:
            raise min(errors, key=lambda e: e[:2])[2]
        for attr, chunks in self.numeric.items():
            chunks.append(block[attr] if attr in block else np.full(n, 0.0 if attr in _PORT_ATTRS else np.nan))
        for attr, column in self.text.items():
            column.extend(block[attr] if attr in block else [_text_value(attr, UNSET)] * n)
        self.line_no.append(np.arange(first_line, first_line + n))

    def table(self) -> FlowTable:
        columns: dict[str, np.ndarray | list] = {}
        for attr in ZEEK_TO_ATTR.values():
            if attr in self.numeric:
                columns[attr] = np.concatenate(self.numeric[attr]) if self.numeric[attr] else np.zeros(0)
            else:
                columns[attr] = self.text[attr]
        line_no = np.concatenate(self.line_no) if self.line_no else np.zeros(0, dtype=np.int64)
        return FlowTable(columns, line_no)


def _blocks(lines: Iterable[str]) -> Iterator[list[str]]:
    """Up to BLOCK_LINES lines at a time.  When decoding fails part-way,
    the lines read before it form one last block before the error."""
    it = iter(lines)
    while True:
        block: list[str] = []
        try:
            block.extend(islice(it, BLOCK_LINES))  # keeps what was read if decoding fails
        except UnicodeDecodeError:
            yield block
            raise
        if not block:
            return
        yield block


def _parse_lines(lines: Iterable[str], allow_unlabeled: bool) -> FlowTable:
    """A FlowTable of conn-log lines; errors carry line numbers."""
    builder = _TableBuilder(allow_unlabeled)
    header: list[str] | None = None
    line_no = 0  # lines before the block
    for block in _blocks(lines):
        block = [line.rstrip("\n").rstrip("\r") for line in block]
        # blank and directive lines split the block into runs of data lines
        breaks = [i for i, line in enumerate(block) if not line or line[0] == "#"]
        start = 0
        for stop in breaks + [len(block)]:
            if stop > start:
                if header is None:
                    raise MalformedHeader(line_no + start + 1)
                builder.add(header, block[start:stop], line_no + start + 1)
            if stop < len(block) and block[stop].startswith("#fields"):
                header = block[stop].split("\t")[1:]
            start = stop + 1
        line_no += len(block)
    return builder.table()


def parse_conn_log(source: str | bytes | IO[str] | Iterable[str], *, allow_unlabeled: bool = False) -> FlowTable:
    """Parse a whole conn log from text, bytes, an open file, or lines."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = source.splitlines()
    return _parse_lines(source, allow_unlabeled)


def parse_conn_log_file(path: str | Path, *, allow_unlabeled: bool = False) -> FlowTable:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse_lines(fh, allow_unlabeled)
    except OSError as exc:
        raise IoFailure(f"cannot read conn log {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # the streaming decoder's offsets are per chunk; find the line in the bytes
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} line {line_no}: not UTF-8 text ({exc.reason})") from None


def conn_log_header() -> str:
    lines = [
        "#separator \\x09",
        "#set_separator\t,",
        "#empty_field\t(empty)",
        "#unset_field\t-",
        "#path\tconn",
        "#fields\t" + "\t".join(CONN_FIELDS),
    ]
    return "\n".join(lines)


# how render_conn_log writes a set value of a numeric or bool column
_CELL_TEXT = {
    **dict.fromkeys(FLOAT_COLUMNS, lambda v: repr(float(v))),
    **dict.fromkeys(INT_COLUMNS, lambda v: str(int(v))),
    **dict.fromkeys(BOOL_COLUMNS, lambda v: "T" if v else "F"),
}


def render_conn_log(columns: Mapping[str, np.ndarray | Sequence]) -> str:
    """The conn log of rows given as columns keyed by FlowTable attribute:
    the parser's inverse.  Numeric and bool columns are arrays or lists with
    NaN or None for an unset value; text columns are lists with None for an
    unset value and "" for an empty one."""
    cells = []
    for column, attr in ZEEK_TO_ATTR.items():
        values = columns[attr]
        values = values.tolist() if isinstance(values, np.ndarray) else values
        text = _CELL_TEXT.get(column)
        if text is None:
            cells.append([UNSET if v is None else v or EMPTY for v in values])
        else:
            cells.append([UNSET if v is None or v != v else text(v) for v in values])
    return "\n".join([conn_log_header(), *map("\t".join, zip(*cells)), ""])


def _normalize_label_token(token: str) -> str:
    return " ".join(token.strip().lower().split())


def canonicalize_label(raw_label: str, raw_detailed_label: str) -> tuple[BinaryClass, MultiClass | None]:
    """Map raw IoT23 label strings to the canonical (binary, 7-class) pair.

    The detailed-label table (shipped as a versioned data file) normalizes
    spelling variants; detailed labels outside the seven canonical classes
    map to the sentinel (None) and are dropped from the 7-class task.
    """
    binary_token = _normalize_label_token(raw_label)
    if binary_token == "benign":
        return BinaryClass.BENIGN, MultiClass.BENIGN
    if binary_token != "malicious":
        raise UnknownBinaryLabel(raw_label)
    detailed = _DETAILED_LABEL_MAP.get(_normalize_label_token(raw_detailed_label))
    if detailed is None or detailed == MultiClass.BENIGN:
        # unknown detailed label, or one that contradicts the malicious flag
        return BinaryClass.MALICIOUS, None
    return BinaryClass.MALICIOUS, detailed


def label_rows(
    table: FlowTable, *, source_files: tuple[str, ...] = (), file_rows: tuple[int, ...] = ()
) -> Dataset:
    """Label a parsed table into a Dataset, canonicalizing each distinct
    (label, detailed-label) pair once; missing values stay NaN until
    featurization.  A table concatenated from several files gives each
    file's row count in `file_rows`, so that a bad label names its file."""
    pairs = list(zip(table["raw_label"], table["raw_detailed_label"]))
    code = {pair: k for k, pair in enumerate(dict.fromkeys(pairs))}  # first-seen order: first bad row raises
    canonical = []
    for pair in code:
        try:
            binary, multi = canonicalize_label(*pair)
        except UnknownBinaryLabel as exc:
            row = pairs.index(pair)
            where = f"line {table.line_no[row]}"
            if file_rows:
                k = int(np.searchsorted(np.cumsum(file_rows), row, side="right"))
                where = f"{source_files[k]} {where}"
            raise UnknownBinaryLabel(exc.raw_label, where) from None
        canonical.append((binary, -1 if multi is None else multi))
    canonical = np.array(canonical, dtype=np.int64).reshape(-1, 2)
    return Dataset(table, canonical[np.fromiter(map(code.__getitem__, pairs), np.intp, len(pairs))], source_files)


def task_class_names(task: str) -> list[str]:
    if task not in TASK_CLASS_NAMES:
        raise ValueError(f"unknown task {task!r}")
    return list(TASK_CLASS_NAMES[task])


def balance_sample(dataset: Dataset, task: str, per_class: int, seed: int) -> Dataset:
    """Seeded per-class sample without replacement, min(per_class, available) each.

    Sentinel-labeled rows stay in the binary task (they are still malicious)
    and are excluded from the multiclass task.  Output order is class order,
    then draw order, so the result is deterministic given (inputs, seed).
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    y = dataset.targets(task)
    picked = []
    for c, name in enumerate(task_class_names(task)):
        indices = np.flatnonzero(y == c)
        if not len(indices):
            raise EmptyClass(name)
        rng = np.random.default_rng([seed, c])
        picked.append(indices[rng.choice(len(indices), size=min(per_class, len(indices)), replace=False)])
    return dataset.take(np.concatenate(picked))
