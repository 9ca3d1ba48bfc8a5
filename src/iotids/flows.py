"""Zeek conn-log ingestion: parse, canonicalize labels, balance-sample.

Input files are IoT23-style labeled connection logs: tab-separated rows under
a ``#fields`` directive, ``-`` marking unset values and ``(empty)`` marking
empty strings.  Real IoT23 captures separate the last three logical columns
(tunnel_parents, label, detailed-label) by runs of spaces instead of tabs;
the parser repairs that before column mapping.

Rows have one representation, columns keyed by attribute: the parser builds
them as a FlowTable, and render_conn_log, its inverse, writes such columns
out as a conn log.  A file is read through one reader of a byte range, in
line-aligned chunks of about 64 KiB, whether it is parsed whole or in ranges,
and each chunk's lines are the block the parser converts at a time.  One line
rule splits a file and a log held in memory alike: a line ends at \n, \r\n
or a lone \r.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import BinaryIO, Collection, Iterable, Iterator, Mapping, Sequence

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
    """Parsed conn-log rows as columns keyed by attribute (ZEEK_TO_ATTR's
    values): all of them, or those a parse was asked to keep.

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

    def rows(self, start: int, stop: int) -> "FlowTable":
        """Rows start to stop: array columns are views, lists are sliced."""
        if (start, stop) == (0, len(self)):
            return self
        return FlowTable({a: c[start:stop] for a, c in self.columns.items()}, self.line_no[start:stop])

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
                columns[attr] = joined = []
                for t in tables:
                    joined.extend(t.columns[attr])
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


_NUMERIC_ATTRS = {ZEEK_TO_ATTR[c] for c in FLOAT_COLUMNS | INT_COLUMNS | BOOL_COLUMNS}
_PORT_ATTRS = {ZEEK_TO_ATTR[c] for c in PORT_COLUMNS}
# the text tokens whose value is not the token itself, apart from proto's
_SPECIAL_TOKENS = {UNSET, EMPTY, ""}


class _TableBuilder:
    """Accumulates converted blocks of data rows into the FlowTable columns
    named in `columns` (every column when None).  Every numeric cell is
    converted and checked whether its column is kept or not; a text column
    that is not kept is not converted, as no text cell is checked, bar a
    missing label."""

    def __init__(self, allow_unlabeled: bool, columns: Collection[str] | None = None):
        self.allow_unlabeled = allow_unlabeled
        self.kept = [a for a in ZEEK_TO_ATTR.values() if columns is None or a in columns]
        self.numeric: dict[str, list[np.ndarray]] = {a: [] for a in self.kept if a in _NUMERIC_ATTRS}
        self.text: dict[str, list] = {a: [] for a in self.kept if a not in _NUMERIC_ATTRS}
        # per text column converted: token -> value, so a repeated value is one str
        self.values: dict[str, dict[str, str | None]] = {a: {} for a in self.text}
        if not allow_unlabeled:
            self.values.setdefault("raw_label", {})  # for the missing-label check
        self.line_no: list[np.ndarray] = []

    def add(self, header: list[str], lines: list[str], first_line: int) -> None:
        """Convert consecutive data lines (the first at line `first_line`)
        under one #fields header; `lines` is repaired in place.  The error
        raised is the one the first bad row has; within a row, the first bad
        column in header order, and a missing label after every column."""
        width = len(header)
        errors: list[tuple[int, int, DataError]] = []  # (row, position, error)
        tabs = list(map(str.count, lines, repeat("\t")))
        if tabs.count(width - 1) != len(lines):
            # repair each row of the wrong width in place; the first that stays wrong ends the run
            for i, count in enumerate(tabs):
                if count != width - 1:
                    parts = _repair_trailing_labels(lines[i].split("\t"), width)
                    if len(parts) != width:
                        errors.append((i, -1, ColumnCountMismatch(first_line + i, width, len(parts))))
                        del lines[i:]
                        break
                    lines[i] = "\t".join(parts)
        # every row has the header's width: split the run once, slice out columns
        n = len(lines)
        flat = "\t".join(lines).split("\t") if n else []
        cells = [flat[j::width] for j in range(width)]
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
            elif attr in self.values:
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
        # a numeric column's blocks are let go as it is joined
        columns = {a: np.concatenate(self.numeric.pop(a) or [np.zeros(0)]) if a in self.numeric else self.text[a]
                   for a in self.kept}
        line_no = np.concatenate(self.line_no) if self.line_no else np.zeros(0, dtype=np.int64)
        return FlowTable(columns, line_no)


def _parse_lines(
    blocks: Iterable[list[str]],
    allow_unlabeled: bool,
    header: list[str] | None = None,
    line_no: int = 0,
    columns: Collection[str] | None = None,
) -> FlowTable:
    """A FlowTable of conn-log lines, given as blocks of lines without their
    endings, holding the `columns` kept (_TableBuilder); errors carry line
    numbers.  The lines may start part-way through a file: after line
    `line_no`, with the #fields `header` in effect there."""
    builder = _TableBuilder(allow_unlabeled, columns)
    for block in blocks:
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


def _lines(text: str) -> list[str]:
    r"""The lines of text, ended as text mode ends them (\n, \r\n or a lone
    \r); text after the last line break is one more line."""
    if "\r" in text:  # str.replace copies even when nothing matches
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last line break
    return lines


def parse_conn_log(source: str | bytes, *, allow_unlabeled: bool = False) -> FlowTable:
    """Parse a whole conn log held in memory, as text or UTF-8 bytes."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    return _parse_lines([_lines(source)], allow_unlabeled)


# estimated serial parse time of a conn log's byte: 96 ms for the 4.8 MB of
# 30,100 flows (2-vCPU VM)
_PARSE_BYTE_S = 2e-8
# bytes read from a conn-log file at a time (_chunks); bounds what a parse holds beyond its table
_READ_BYTES = 1 << 16


def parse_conn_log_file(
    path: str | Path, *, allow_unlabeled: bool = False, columns: Collection[str] | None = None
) -> FlowTable:
    """Parse a conn-log file, read in bounded blocks (_parse_range), into a
    FlowTable of the attributes in `columns` (every one when None).  Every
    cell is still converted and checked, so a file fails as it does when
    every column is kept.  A large file is cut after a line break into byte
    ranges, one per usable CPU (see _line_ranges): this process parses the
    first and forked children the others, and the tables are joined in
    order.  A file not cut, or in which any range fails, is parsed here as
    one range, so every error (and its line) is that of a parse in file
    order."""
    from .parallel import forked_map, row_ranges  # here, so synth loads no module for parsing

    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            nominal = row_ranges(size, _PARSE_BYTE_S)
            ranges = _line_ranges(fh, nominal) if len(nominal) > 1 else []
        parse = partial(_parse_range, path, allow_unlabeled, columns=columns)
        if len(ranges) > 1:
            try:
                return FlowTable.concat(forked_map(parse, ranges))
            except Exception:
                pass  # the parse of the whole file below raises the error
        return parse((0, size, 0, None))
    except OSError as exc:
        raise IoFailure(f"cannot read conn log {path}: {exc}") from exc


def _parse_range(
    path: str | Path,
    allow_unlabeled: bool,
    piece: tuple[int, int, int, list[str] | None],
    columns: Collection[str] | None = None,
) -> FlowTable:
    """A FlowTable of the `columns` kept of a byte range of the file, as
    _line_ranges gives them."""
    start, stop, line_no, header = piece
    with open(path, "rb") as fh:
        fh.seek(start)
        return _parse_lines(_file_lines(fh, stop, line_no, path), allow_unlabeled, header, line_no, columns)


def _chunks(fh: BinaryIO, stop: int) -> Iterator[bytes]:
    r"""fh's bytes from its position to offset `stop` in chunks of about
    _READ_BYTES, each extended to the next \n within _READ_BYTES more."""
    while (left := stop - fh.tell()) > 0 and (chunk := fh.read(min(_READ_BYTES, left))):  # b"": the file shrank
        if len(chunk) < left and not chunk.endswith(b"\n"):
            chunk += fh.readline(min(_READ_BYTES, left - len(chunk)))
        yield chunk


def _file_lines(fh: BinaryIO, stop: int, line_no: int, path: str | Path) -> Iterator[list[str]]:
    r"""The lines of fh from its position (line line_no + 1) to offset
    `stop`, a list per chunk (_chunks), split by _lines.  A bad UTF-8 byte
    raises DataError naming its line, after the lines before that line."""
    tail, error = b"", None  # tail: the start of a line that goes on in the next chunk
    for chunk in chain(_chunks(fh, stop), [b""]):  # b"": the end, where tail is the last line
        data = tail + chunk
        # the lines data ends: up to its last line break, but a \r that ends it may begin a \r\n
        end = 1 + max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) if chunk else len(data)
        data, tail = data[:end], data[end:]
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            error, end = exc, 1 + max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start))
            text = data[:end].decode("utf-8")
        lines = _lines(text)
        yield lines
        line_no += len(lines)
        if error:
            raise DataError(f"{path} line {line_no + 1}: not UTF-8 text ({error.reason})")


def _line_ranges(fh: BinaryIO, nominal: list[tuple[int, int]]) -> list[tuple[int, int, int, list[str] | None]]:
    r"""The byte ranges of an open conn-log file to parse apart: (start,
    stop, lines before start, the #fields header in effect at start), in
    file order and covering the file.

    Each range but the first starts just after the first \n at or after the
    start of a range of `nominal`, byte ranges that cover the file (from
    parallel.row_ranges), when the file is read from its start.  Lines end as
    text mode ends them (\n, \r\n or a lone \r).  One pass reads the file in
    _chunks, so that no \r\n or line is cut between chunks; a chunk that
    does not end in \n (the last, or one in a line too long) ends the search
    after its own line breaks, and the last range runs to the end."""
    size = nominal[-1][1]
    cuts = [start for start, _ in nominal[1:]]
    starts = [(0, 0, None)]  # (offset, lines before it, header in effect there)
    pos, lines, header = 0, 0, None  # the same, at the chunk's start
    for chunk in _chunks(fh, size):
        done = 0  # the chunk's bytes counted into lines and header
        while cuts and cuts[0] < pos + len(chunk):
            end = chunk.find(b"\n", max(0, cuts[0] - pos)) + 1
            if not end or pos + end == size:
                cuts = []  # no line break to cut after
                break
            lines, header = _scanned(chunk, done, end, lines, header)
            starts.append((pos + end, lines, header))
            cuts = [cut for cut in cuts if cut >= pos + end]
            done = end
        if not (cuts and chunk.endswith(b"\n")):
            break
        lines, header = _scanned(chunk, done, len(chunk), lines, header)
        pos += len(chunk)
    stops = [start for start, _, _ in starts[1:]] + [size]
    return [(start, stop, lines, header) for (start, lines, header), stop in zip(starts, stops)]


def _scanned(chunk: bytes, start: int, end: int, lines: int, header: list[str] | None) -> tuple[int, list[str] | None]:
    r"""(lines, header) after chunk[start:end], whole lines that neither
    start nor end between \r and \n, given the lines before it and the
    #fields header in effect at its start."""
    lines += chunk.count(b"\n", start, end)
    if chunk.find(b"\r", start, end) >= 0:  # a \r not before \n ends a line too
        lines += chunk.count(b"\r", start, end) - chunk.count(b"\r\n", start, end)
    at = chunk.rfind(b"#", start, end)
    while at >= 0 and not (chunk.startswith(b"#fields", at) and (at == start or chunk[at - 1] in b"\r\n")):
        at = chunk.rfind(b"#", start, at)
    if at >= 0:
        stops = [stop for stop in (chunk.find(b"\n", at, end), chunk.find(b"\r", at, end)) if stop >= 0]
        # an undecodable header also fails its own range's decode, so the parse
        header = chunk[at : min(stops, default=end)].decode("utf-8", "replace").split("\t")[1:]
    return lines, header


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
