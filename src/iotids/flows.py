"""Zeek conn-log ingestion: parse, canonicalize labels, balance-sample.

Input files are IoT23-style labeled connection logs: tab-separated rows under
a ``#fields`` directive, ``-`` marking unset values and ``(empty)`` marking
empty strings.  Real IoT23 captures separate the last three logical columns
(tunnel_parents, label, detailed-label) by runs of spaces instead of tabs;
the parser repairs that before column mapping.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from pathlib import Path
from typing import IO, Iterable, Iterator

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


@dataclass(frozen=True)
class RawFlowRecord:
    """One parsed conn-log row; None marks a missing value."""

    ts: float | None
    uid: str
    orig_h: str
    resp_h: str
    orig_p: int
    resp_p: int
    proto: str
    service: str | None
    duration: float | None
    orig_bytes: int | None
    resp_bytes: int | None
    conn_state: str
    local_orig: bool | None
    local_resp: bool | None
    missed_bytes: int | None
    history: str | None
    orig_pkts: int | None
    orig_ip_bytes: int | None
    resp_pkts: int | None
    resp_ip_bytes: int | None
    tunnel_parents: str
    raw_label: str
    raw_detailed_label: str


@dataclass
class Dataset:
    """Parsed records and their canonical labels: row i of the n x 2 int64
    labels is record i's binary class and its 7-class index, -1 for the
    sentinel (a malicious row outside the seven classes)."""

    records: list[RawFlowRecord]
    labels: np.ndarray
    source_files: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def targets(self, task: str) -> np.ndarray:
        """Each row's class index in the task; -1 marks a sentinel row."""
        if task not in _TASK_COLUMN:
            raise ValueError(f"unknown task {task!r}")
        return self.labels[:, _TASK_COLUMN[task]]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset([self.records[i] for i in indices], self.labels[indices], self.source_files)


def _coerce(column: str, token: str, line_no: int):
    """Convert one cell token to its typed value (None for missing)."""
    if token == UNSET:
        return None
    if column in FLOAT_COLUMNS or column in INT_COLUMNS:
        if token == EMPTY:
            return None
        try:
            value = float(token) if column in FLOAT_COLUMNS else int(token)
        except ValueError:
            raise BadNumeric(line_no, column, token) from None
        if column in PORT_COLUMNS and not 0 <= value <= 65535:
            raise BadNumeric(line_no, column, token)
        if (column in INT_COLUMNS or column == "duration") and value < 0:
            raise BadNumeric(line_no, column, token)
        if not math.isfinite(value):  # nan/inf would reach the scaler's min/max
            raise BadNumeric(line_no, column, token)
        return value
    if column in BOOL_COLUMNS:
        if token in ("T", "true", "1"):
            return True
        if token in ("F", "false", "0"):
            return False
        raise BadNumeric(line_no, column, token)
    if token == EMPTY:
        return ""
    return token


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


def iter_conn_log(lines: Iterable[str], *, allow_unlabeled: bool = False) -> Iterator[RawFlowRecord]:
    """Stream RawFlowRecords from conn-log lines; errors carry line numbers."""
    columns: list[str] | None = None
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#fields"):
                columns = line.split("\t")[1:]
            continue
        if columns is None:
            raise MalformedHeader(line_no)
        parts = line.split("\t")
        parts = _repair_trailing_labels(parts, len(columns))
        if len(parts) != len(columns):
            raise ColumnCountMismatch(line_no, len(columns), len(parts))

        values: dict[str, object] = {attr: None for attr in ZEEK_TO_ATTR.values()}
        for column, token in zip(columns, parts):
            attr = ZEEK_TO_ATTR.get(column)
            if attr is None:
                continue  # unknown column: not part of the schema
            values[attr] = _coerce(column, token, line_no)

        for attr in ("uid", "orig_h", "resp_h", "conn_state", "tunnel_parents"):
            if values[attr] is None:
                values[attr] = ""
        proto = values["proto"] or ""
        values["proto"] = proto if proto in KNOWN_PROTOS else "other"
        for attr in ("orig_p", "resp_p"):
            if values[attr] is None:
                values[attr] = 0
        values["raw_label"] = values["raw_label"] or ""
        values["raw_detailed_label"] = values["raw_detailed_label"] or UNSET
        if not values["raw_label"] and not allow_unlabeled:
            raise MalformedHeader(line_no, "row has no label; pass allow_unlabeled for prediction input")
        yield RawFlowRecord(**values)  # type: ignore[arg-type]


def parse_conn_log(source: str | bytes | IO[str] | Iterable[str], *, allow_unlabeled: bool = False) -> list[RawFlowRecord]:
    """Parse a whole conn log from text, bytes, an open file, or lines."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = source.splitlines()
    return list(iter_conn_log(source, allow_unlabeled=allow_unlabeled))


def parse_conn_log_file(path: str | Path, *, allow_unlabeled: bool = False) -> list[RawFlowRecord]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return list(iter_conn_log(fh, allow_unlabeled=allow_unlabeled))
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


def _format_cell(column: str, value) -> str:
    if value is None:
        return UNSET
    if column in BOOL_COLUMNS:
        return "T" if value else "F"
    if column in FLOAT_COLUMNS:
        return repr(float(value))
    if column in INT_COLUMNS:
        return str(int(value))
    if value == "":
        return EMPTY
    return str(value)


def record_to_line(record: RawFlowRecord) -> str:
    """Serialize one record back to a tab-separated conn-log row."""
    return "\t".join(_format_cell(col, getattr(record, attr)) for col, attr in ZEEK_TO_ATTR.items())


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


def label_rows(records: Iterable[RawFlowRecord], *, source_files: tuple[str, ...] = ()) -> Dataset:
    """Label a parsed record stream into a Dataset; missing values stay
    None until featurization."""
    records = list(records)
    labels = []
    for rec in records:
        binary, multi = canonicalize_label(rec.raw_label, rec.raw_detailed_label)
        labels.append((binary, -1 if multi is None else multi))
    return Dataset(records, np.array(labels, dtype=np.int64).reshape(-1, 2), source_files)


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
    return dataset.subset(np.concatenate(picked))
