"""Conn-log parsing, imputation, label canonicalization, and sampling."""

import dataclasses
import json
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iotids.cli import EXIT_DATA, EXIT_OK, main

from iotids.errors import (
    BadNumeric,
    ColumnCountMismatch,
    DataError,
    EmptyClass,
    IoFailure,
    MalformedHeader,
    UnknownBinaryLabel,
)
from iotids.features import (
    FEATURIZED_COLUMNS,
    NUMERIC_FIELDS,
    CidrTable,
    fit_one_hot,
    ip_and_categorical_columns,
    matrix_from_records,
)
from iotids import flows, parallel
from iotids.flows import (
    BOOL_COLUMNS,
    FLOAT_COLUMNS,
    INT_COLUMNS,
    KNOWN_PROTOS,
    PORT_COLUMNS,
    ZEEK_TO_ATTR,
    BinaryClass,
    Dataset,
    MultiClass,
    balance_sample,
    canonicalize_label,
    conn_log_header,
    label_rows,
    parse_conn_log,
    parse_conn_log_file,
    render_conn_log,
    task_class_names,
    _DETAILED_LABEL_MAP,
)

FIELDS = (
    "ts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\tproto\tservice\tduration\t"
    "orig_bytes\tresp_bytes\tconn_state\tlocal_orig\tlocal_resp\tmissed_bytes\thistory\t"
    "orig_pkts\torig_ip_bytes\tresp_pkts\tresp_ip_bytes\ttunnel_parents\tlabel\tdetailed-label"
)

HEADER = "#separator \\x09\n#fields\t" + FIELDS.replace("#fields\t", "")


def full_row(**overrides) -> str:
    cells = {
        "ts": "1532985600.1",
        "uid": "CxUID1",
        "id.orig_h": "192.168.1.5",
        "id.orig_p": "49152",
        "id.resp_h": "8.8.8.8",
        "id.resp_p": "53",
        "proto": "udp",
        "service": "dns",
        "duration": "0.25",
        "orig_bytes": "100",
        "resp_bytes": "200",
        "conn_state": "SF",
        "local_orig": "T",
        "local_resp": "F",
        "missed_bytes": "0",
        "history": "Dd",
        "orig_pkts": "2",
        "orig_ip_bytes": "156",
        "resp_pkts": "2",
        "resp_ip_bytes": "256",
        "tunnel_parents": "(empty)",
        "label": "Benign",
        "detailed-label": "-",
    }
    cells.update(overrides)
    return "\t".join(cells[c] for c in FIELDS.split("\t"))


def make_log(*rows: str) -> str:
    return "#fields\t" + FIELDS + "\n" + "\n".join(rows) + "\n"


def column_values(table, attr):
    """One table column as Python values, None for NaN."""
    return [None if isinstance(v, float) and v != v else v for v in list(table[attr])]


class TestParsing:
    def test_missing_duration_token(self):
        table = parse_conn_log(make_log(full_row(duration="-")))
        assert np.isnan(table["duration"][0])

    def test_fully_populated_row_identity(self):
        table = parse_conn_log(make_log(full_row()))
        assert table["ts"][0] == 1532985600.1
        assert table["uid"] == ["CxUID1"]
        assert table["orig_h"] == ["192.168.1.5"]
        assert table["orig_p"][0] == 49152
        assert table["resp_p"][0] == 53
        assert table["proto"] == ["udp"]
        assert table["service"] == ["dns"]
        assert table["duration"][0] == 0.25
        assert table["orig_bytes"][0] == 100
        assert table["resp_bytes"][0] == 200
        assert table["conn_state"] == ["SF"]
        assert table["local_orig"][0] == 1.0
        assert table["local_resp"][0] == 0.0
        assert table["history"] == ["Dd"]
        assert table["tunnel_parents"] == [""]
        assert table["raw_label"] == ["Benign"]
        assert table["raw_detailed_label"] == ["-"]
        assert table.line_no.tolist() == [2]

    def test_space_separated_trailing_labels(self):
        # known IoT23 quirk: last three logical columns glued by spaces
        base = full_row().split("\t")
        glued = "\t".join(base[:-3]) + "\t" + "(empty)   Malicious   PartOfAHorizontalPortScan"
        normal = full_row(label="Benign")
        table = parse_conn_log("#fields\t" + FIELDS + "\n" + glued + "\n" + normal + "\n")
        assert len(table) == 2
        assert table["raw_label"] == ["Malicious", "Benign"]
        assert table["raw_detailed_label"][0] == "PartOfAHorizontalPortScan"
        assert table["tunnel_parents"][0] == ""

    def test_directives_and_blank_lines_skipped(self):
        text = "#separator \\x09\n#path\tconn\n\n" + make_log(full_row()) + "#close\t2020\n"
        table = parse_conn_log(text)
        assert len(table) == 1
        assert table.line_no.tolist() == [5]

    def test_no_fields_directive_raises_with_line_number(self):
        with pytest.raises(MalformedHeader) as exc:
            parse_conn_log("#separator x\n" + full_row())
        assert exc.value.line_no == 2

    def test_column_count_mismatch(self):
        with pytest.raises(ColumnCountMismatch) as exc:
            parse_conn_log("#fields\t" + FIELDS + "\n" + full_row() + "\textra_cell")
        assert exc.value.line_no == 2

    def test_bad_numeric_token(self):
        with pytest.raises(BadNumeric) as exc:
            parse_conn_log(make_log(full_row(orig_bytes="lots")))
        assert exc.value.column == "orig_bytes"
        assert exc.value.line_no == 2

    def test_oversized_integer_is_bad_numeric(self, tmp_path):
        # an integer beyond float64 is a typed error naming its line and column, not a crash
        huge = "1" + "0" * 400
        with pytest.raises(BadNumeric) as exc:
            parse_conn_log(make_log(full_row(), full_row(orig_bytes=huge)))
        assert (exc.value.line_no, exc.value.column, exc.value.token) == (3, "orig_bytes", huge)
        (tmp_path / "in.labeled").write_text(make_log(full_row(orig_bytes=huge)))
        (tmp_path / "spec.json").write_text(json.dumps({"task": "binary", "rows_per_class": 20, "seed": 1}))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
        cfg = {"config_version": 1, "task": "binary", "models": ["rf"], "per_class": 10, "seed": 1,
               "split": [0.8, 0.2, 0.0], "cv_folds": 0, "model_params": {"rf": {"n_trees": 2, "max_depth": 2}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "run")]) == EXIT_OK
        assert main(["predict", "--model", str(tmp_path / "run" / "models" / "rf.json"),
                     "--input", str(tmp_path / "in.labeled"), "--output", str(tmp_path / "p.csv")]) == EXIT_DATA

    def test_port_out_of_range_rejected(self):
        with pytest.raises(BadNumeric):
            parse_conn_log(make_log(full_row(**{"id.orig_p": "70000"})))

    @pytest.mark.parametrize("column", ["ts", "duration"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, column, token):
        with pytest.raises(BadNumeric) as exc:
            parse_conn_log(make_log(full_row(**{column: token})))
        assert exc.value.column == column

    def test_negative_duration_rejected(self):
        with pytest.raises(BadNumeric) as exc:
            parse_conn_log(make_log(full_row(duration="-0.5")))
        assert exc.value.column == "duration"

    def test_nan_duration_in_training_data_is_data_error(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps({"task": "binary", "rows_per_class": 20, "seed": 1}))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == EXIT_OK
        path = tmp_path / "data" / "synth_binary.labeled"
        lines = path.read_text().split("\n")
        fields = next(line for line in lines if line.startswith("#fields")).split("\t")[1:]
        row = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        cells = lines[row].split("\t")
        cells[fields.index("duration")] = "nan"
        lines[row] = "\t".join(cells)
        path.write_text("\n".join(lines))
        cfg = {"config_version": 1, "task": "binary", "models": ["rf"], "per_class": 10, "seed": 1,
               "split": [0.8, 0.2, 0.0], "cv_folds": 0, "model_params": {"rf": {"n_trees": 2, "max_depth": 2}}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["train", "--config", str(tmp_path / "cfg.json"), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "run")]) == EXIT_DATA

    def test_unlabeled_input_needs_flag(self):
        lines = "#fields\t" + "\t".join(FIELDS.split("\t")[:-2]) + "\n"
        lines += "\t".join(full_row().split("\t")[:-2]) + "\n"
        with pytest.raises(MalformedHeader):
            parse_conn_log(lines)
        table = parse_conn_log(lines, allow_unlabeled=True)
        assert table["raw_label"] == [""]

    def test_round_trip_preserves_values(self):
        original = parse_conn_log(make_log(full_row(), full_row(duration="-", service="-")))
        reparsed = parse_conn_log(render_conn_log(original.columns))
        for attr in ZEEK_TO_ATTR.values():
            assert column_values(reparsed, attr) == column_values(original, attr), attr


def render_rows(records):
    """The conn log of rows given as dicts keyed by attribute."""
    return render_conn_log({attr: [r[attr] for r in records] for attr in ZEEK_TO_ATTR.values()})


# cell values render_conn_log can write and the parser reads back: text
# without control or line-break characters that is not itself a "-" or
# "(empty)" token, finite floats and non-negative ints
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), min_size=1).filter(
    lambda t: t not in (flows.UNSET, flows.EMPTY))
_CELLS = {
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "duration": st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    "int": st.integers(0, 10**20),
    "port": st.integers(0, 65535),
    "bool": st.booleans(),
    "text": st.just("") | _TEXT | st.sampled_from(KNOWN_PROTOS),
}


def _cell_kind(column):
    if column == "duration":
        return "duration"
    return "port" if column in PORT_COLUMNS else _kind(column)


@st.composite
def _columns(draw):
    """Columns keyed by attribute: floats as arrays with NaN unset, every
    other kind as lists with None unset."""
    n = draw(st.integers(0, 12))
    columns = {}
    for column, attr in ZEEK_TO_ATTR.items():
        values = draw(st.lists(st.none() | _CELLS[_cell_kind(column)], min_size=n, max_size=n))
        if column in FLOAT_COLUMNS:
            values = np.array([np.nan if v is None else v for v in values], dtype=np.float64)
        columns[attr] = values
    return columns


def _canonical(column, attr, values):
    """The column as the parser gives it back."""
    if column in FLOAT_COLUMNS | INT_COLUMNS | BOOL_COLUMNS:
        unset = 0.0 if column in PORT_COLUMNS else np.nan
        return np.array([unset if v is None or v != v else float(v) for v in values], dtype=np.float64)
    if attr == "proto":
        return [v if v in KNOWN_PROTOS else "other" for v in values]
    if attr == "raw_detailed_label":
        return [v or flows.UNSET for v in values]
    return list(values) if attr in ("service", "history") else [v or "" for v in values]


class TestRenderRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_columns())
    def test_parse_inverts_render(self, columns):
        table = parse_conn_log(render_conn_log(columns), allow_unlabeled=True)
        assert len(table) == len(columns["uid"])
        for column, attr in ZEEK_TO_ATTR.items():
            expected = _canonical(column, attr, columns[attr])
            if isinstance(expected, np.ndarray):
                assert table[attr].tobytes() == expected.tobytes(), attr
            else:
                assert table[attr] == expected, attr


# tokens a hostile or damaged conn log may hold in any cell
_HOSTILE_TOKENS = [
    "-", "(empty)", "", "1e400", "nan", "inf", "-1", "0", "3.5", "65536", "T", "F", "tcp",
    "::ffff:1.2.3.4", "1.2.3.4", "fe80::1", "256.1.1.1", "Benign", "malicious", "C&C", "DDoS", "x y",
]


def _plausible_token(column):
    if column in ("id.orig_h", "id.resp_h"):
        return "192.168.1.1"
    if column in ("label", "detailed-label"):
        return "Malicious" if column == "label" else "DDoS"
    if column in BOOL_COLUMNS:
        return "T"
    return "1" if column in FLOAT_COLUMNS | INT_COLUMNS else "tcp"


@st.composite
def _hostile_logs(draw):
    """A log under the header less up to three columns (and shuffled one
    time in four), whose rows hold plausible values with up to two hostile
    tokens, may glue their last cells with spaces, and may be short by up
    to two cells."""
    dropped = draw(st.lists(st.sampled_from(list(ZEEK_TO_ATTR)), unique=True, max_size=3))
    header = [c for c in ZEEK_TO_ATTR if c not in dropped]
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.permutations(header))
    lines = ["#fields\t" + "\t".join(header)]
    for _ in range(draw(st.integers(1, 4))):
        cells = [_plausible_token(c) for c in header]
        for at in draw(st.lists(st.integers(0, len(header) - 1), max_size=2)):
            cells[at] = draw(st.sampled_from(_HOSTILE_TOKENS))
        glued = draw(st.sampled_from([0, 0, 2, 3]))
        if 1 < glued <= len(cells):
            cells[-glued:] = ["   ".join(cells[-glued:])]
        lines.append("\t".join(cells[: len(cells) - draw(st.sampled_from([0, 0, 0, 1, 2]))]))
    return "\n".join(lines) + "\n"


class TestHostileTokens:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_hostile_logs(), st.sampled_from(["binary", "multiclass", None]))
    def test_parse_label_featurize_gives_matrix_or_data_error(self, text, task):
        # the train path labels the rows of a task; the predict path (None) reads unlabeled rows
        cidr = CidrTable()
        try:
            table = parse_conn_log(text, allow_unlabeled=task is None)
            if task is not None:
                dataset = label_rows(table)
                table = dataset.take(np.flatnonzero(dataset.targets(task) >= 0)).table
            vocab = fit_one_hot(ip_and_categorical_columns(table, cidr)[1])
            values, schema = matrix_from_records(table, cidr, vocab)
        except DataError:
            return
        assert values.shape == (len(table), schema.width) and np.isfinite(values).all()


def featurized(*rows):
    """Raw feature rows, keyed by column name, of parsed rows under a
    vocabulary fitted on those rows."""
    parsed, table = parse_conn_log(make_log(*rows)), CidrTable()
    vocab = fit_one_hot(ip_and_categorical_columns(parsed, table)[1])
    values, schema = matrix_from_records(parsed, table, vocab)
    return values, [dict(zip(schema.names(), row)) for row in values]


class TestImpute:
    def test_missing_numerics_become_zero(self):
        _, (row,) = featurized(full_row(duration="-", orig_bytes="(empty)"))
        assert row["duration"] == 0.0
        assert row["orig_bytes"] == 0.0

    def test_missing_service_becomes_unknown(self):
        _, rows = featurized(full_row(service="-"), full_row(service="(empty)"))
        assert all(row["service=unknown"] == 1.0 for row in rows)

    def test_fully_populated_record_unchanged(self):
        table = parse_conn_log(make_log(full_row()))
        _, (row,) = featurized(full_row())
        assert [row[f] for f in NUMERIC_FIELDS] == [float(table[f][0]) for f in NUMERIC_FIELDS]
        assert row[f"service={table['service'][0]}"] == 1.0

    def test_tri_state_bools_default_false(self):
        _, (row,) = featurized(full_row(local_orig="-", local_resp="-"))
        assert row["local_orig"] == 0.0 and row["local_resp"] == 0.0

    def test_no_missing_fields_after_full_scan(self):
        values, rows = featurized(full_row(duration="-"), full_row(service="-"),
                                  full_row(orig_bytes="-", history="-"))
        assert np.isfinite(values).all()
        for row in rows:
            assert sum(v for name, v in row.items() if name.startswith("service=")) == 1.0


class TestLabels:
    def test_benign(self):
        assert canonicalize_label("Benign", "-") == (BinaryClass.BENIGN, MultiClass.BENIGN)

    def test_portscan_dataset_spelling(self):
        lbl = canonicalize_label("Malicious", "PartOfAHorizontalPortScan")
        assert lbl == (BinaryClass.MALICIOUS, MultiClass.PORT_SCAN)

    def test_portscan_variant_spelling(self):
        _, multi = canonicalize_label("malicious", "PartOfHorizontalPortscan")
        assert multi == MultiClass.PORT_SCAN

    def test_heartbeat_and_cc(self):
        assert canonicalize_label("Malicious", "C&C-HeartBeat")[1] == MultiClass.CC_HEARTBEAT
        assert canonicalize_label("Malicious", "C&C")[1] == MultiClass.CC

    def test_heartbeat_spaced_variant(self):
        # spelling with a stray space after the dash also canonicalizes
        assert canonicalize_label("Malicious", "C&C- HeartBeat")[1] == MultiClass.CC_HEARTBEAT

    def test_torii_maps_to_sentinel(self):
        binary, multi = canonicalize_label("Malicious", "C&C-Torii")
        assert binary == BinaryClass.MALICIOUS
        assert multi is None

    def test_unknown_binary_label(self):
        with pytest.raises(UnknownBinaryLabel):
            canonicalize_label("Suspicious", "-")

    def test_binary_benign_iff_multi_benign(self):
        # malicious rows can never land on the Benign multiclass bucket
        for detailed in ("-", "(empty)", "Benign", "C&C", "DDoS", "NoSuchLabel"):
            _, multi = canonicalize_label("Malicious", detailed)
            assert multi != MultiClass.BENIGN

    def test_total_over_mapping_table(self):
        # every table entry maps to one of the 7 classes or the sentinel
        for key in _DETAILED_LABEL_MAP:
            _, multi = canonicalize_label("Malicious", key)
            assert multi is None or isinstance(multi, MultiClass)

    def test_unlisted_label_is_sentinel(self):
        assert canonicalize_label("Malicious", "BrandNewMalware2031")[1] is None


def _toy_dataset() -> Dataset:
    # ten distinct rows (uid 0..9): 6 benign, then 4 DDoS
    table = parse_conn_log(make_log(*(full_row(uid=str(i)) for i in range(10))))
    labels = np.array([(BinaryClass.BENIGN, MultiClass.BENIGN)] * 6 + [(BinaryClass.MALICIOUS, MultiClass.DDOS)] * 4)
    return Dataset(table, labels)


class TestBalanceSample:
    def test_toy_selection_is_frozen(self):
        # enumerate the seeded sampler's choices independently: positions
        # default_rng([42, 0]).choice(6, 3) -> [5, 0, 3]
        # default_rng([42, 1]).choice(4, 3) -> [3, 2, 1] -> rows [9, 8, 7]
        ds = _toy_dataset()
        out = balance_sample(ds, "binary", per_class=3, seed=42)
        assert len(out) == 6
        assert out.targets("binary").tolist() == [0, 0, 0, 1, 1, 1]
        assert out.table["uid"] == ["5", "0", "3", "9", "8", "7"]
        assert out.table.line_no.tolist() == [7, 2, 5, 11, 10, 9]
        rng_b = np.random.default_rng([42, 0])
        rng_m = np.random.default_rng([42, 1])
        expected_b = list(rng_b.choice(6, size=3, replace=False))
        expected_m = [6 + j for j in rng_m.choice(4, size=3, replace=False)]
        assert expected_b == [5, 0, 3] and expected_m == [9, 8, 7]

    def test_rerun_identical(self):
        ds = _toy_dataset()
        a = balance_sample(ds, "binary", 3, seed=42)
        b = balance_sample(ds, "binary", 3, seed=42)
        assert a.table["uid"] == b.table["uid"]
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_per_class_larger_than_population(self):
        out = balance_sample(_toy_dataset(), "binary", per_class=50, seed=0)
        assert np.bincount(out.targets("binary")).tolist() == [6, 4]

    def test_empty_class_raises(self):
        ds = _toy_dataset()
        benign_only = ds.take(np.flatnonzero(ds.targets("binary") == BinaryClass.BENIGN))
        with pytest.raises(EmptyClass):
            balance_sample(benign_only, "binary", 2, seed=0)

    def test_sentinel_rows_binary_vs_multiclass(self):
        table = parse_conn_log(make_log(full_row(), full_row(), full_row()))
        labels = np.array([
            (BinaryClass.BENIGN, MultiClass.BENIGN),
            (BinaryClass.MALICIOUS, -1),  # e.g. C&C-Torii
            (BinaryClass.MALICIOUS, MultiClass.DDOS),
        ])
        ds = Dataset(table, labels)
        binary = balance_sample(ds, "binary", 5, seed=1)
        assert int(np.sum(binary.targets("binary") == BinaryClass.MALICIOUS)) == 2
        with pytest.raises(EmptyClass):
            balance_sample(ds, "multiclass", 1, seed=1)  # five classes have no rows

    def test_bounds_property(self):
        ds = _toy_dataset()
        for seed in range(10):
            out = balance_sample(ds, "binary", 2, seed=seed)
            counts = np.bincount(out.targets("binary"), minlength=2)
            assert len(out) <= 2 * 2
            assert all(v <= 2 for v in counts)


# --- equivalence with the per-row label-object path ----------------------------

@dataclasses.dataclass(frozen=True)
class _OldLabel:
    binary: BinaryClass
    multi: MultiClass | None


@dataclasses.dataclass(frozen=True)
class _OldFlow:
    record: dict
    label: _OldLabel


def _old_class_index(flow, task):
    if task == "binary":
        return int(flow.label.binary)
    return None if flow.label.multi is None else int(flow.label.multi)


def _old_label_and_sample(records, task, per_class, seed):
    """The label-object pipeline as it was: one (record, label) object per
    row, class indices recomputed per row; returns (records, targets).  A
    bad label names its row's line in render_rows's text."""
    flows = []
    header_lines = conn_log_header().count("\n") + 1
    for i, r in enumerate(records):
        try:
            flows.append(_OldFlow(r, _OldLabel(*canonicalize_label(r["raw_label"], r["raw_detailed_label"]))))
        except UnknownBinaryLabel as exc:
            raise UnknownBinaryLabel(exc.raw_label, f"line {header_lines + i + 1}") from None
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    names = task_class_names(task)
    by_class = {c: [] for c in range(len(names))}
    for i, flow in enumerate(flows):
        c = _old_class_index(flow, task)
        if c is not None:
            by_class[c].append(i)
    picked = []
    for c, indices in by_class.items():
        if not indices:
            raise EmptyClass(names[c])
        rng = np.random.default_rng([seed, c])
        chosen = rng.choice(len(indices), size=min(per_class, len(indices)), replace=False)
        picked.extend(indices[j] for j in chosen)
    return [flows[i].record for i in picked], [_old_class_index(flows[i], task) for i in picked]


# (label, detailed-label) spellings: canonical, spacing/case variants and sentinels
_LABEL_POOL = [
    ("Benign", "-"), (" Benign ", "-"), ("benign", "(empty)"), ("Malicious", "C&C-HeartBeat"),
    ("Malicious", "C&C- HeartBeat"), ("Malicious", "DDoS"), ("Malicious", "Okiru"),
    ("Malicious", "PartOfAHorizontalPortScan"), ("Malicious", "PartOfHorizontalPortScan"),
    ("Malicious", "C&C"), ("Malicious", "Attack"), ("Malicious", "C&C-Torii"),
    ("Malicious", "Okiru-Attack"), ("malicious", "NoSuchLabel"),
]


def _outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (EmptyClass, UnknownBinaryLabel, ValueError) as exc:
        return type(exc), str(exc)


def _new_label_and_sample(records, task, per_class, seed):
    table = parse_conn_log(render_rows(records))
    sampled = balance_sample(label_rows(table), task, per_class, seed)
    return sampled.table["uid"], sampled.targets(task).tolist()


class TestLabelArrayEquivalence:
    def test_matches_label_object_path(self):
        template = {attr: column[0] for attr, column in parse_conn_log(make_log(full_row())).columns.items()}
        outcomes = []
        for corpus in range(60):
            rng = np.random.default_rng([2031, corpus])
            n = int(rng.integers(1, 120))
            pool = _LABEL_POOL[: int(rng.integers(3, len(_LABEL_POOL) + 1))]
            records = []
            for i in rng.integers(0, len(pool), size=n):
                label, detailed = pool[i]
                records.append({**template, "uid": f"C{len(records)}", "raw_label": label,
                                "raw_detailed_label": detailed})
            if corpus % 15 == 7:
                records[int(rng.integers(0, n))] = {**template, "raw_label": "Suspicious"}
            for task in ("binary", "multiclass"):
                per_class = int(rng.integers(0, n // 3 + 3))  # 0 checks the per_class guard
                seed = int(rng.integers(0, 1000))
                old = _outcome(_old_label_and_sample, records, task, per_class, seed)
                new = _outcome(_new_label_and_sample, records, task, per_class, seed)
                if isinstance(old[0], type):
                    assert new == old, (corpus, task)
                    outcomes.append(old[0])
                    continue
                assert new[0] == [r["uid"] for r in old[0]], (corpus, task)
                assert new[1] == old[1], (corpus, task)
                available = np.bincount(label_rows(parse_conn_log(render_rows(records))).targets(task) + 1)[1:]
                outcomes.extend("above" if a < per_class else "below" for a in available if a != per_class)
        # the corpora reach every outcome: per_class above and below what a
        # class has, empty classes, bad labels and a bad per_class
        assert {"above", "below", EmptyClass, UnknownBinaryLabel, ValueError} <= set(outcomes)
        assert outcomes.count("above") >= 50 and outcomes.count("below") >= 50


class TestConnLogFile:
    def test_missing_file_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure, match="nope.labeled"):
            parse_conn_log_file(tmp_path / "nope.labeled")

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.labeled"
        path.write_bytes(make_log(full_row(), full_row(), full_row(service="caf\xe9")).encode("latin-1"))
        with pytest.raises(DataError, match=r"latin1\.labeled line 4: not UTF-8"):
            parse_conn_log_file(path)

    # the characters other than \n and \r at which str.splitlines breaks a line
    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_text_in_memory_splits_lines_as_a_file_does(self, tmp_path, separator):
        text = make_log(full_row(history=f"S{separator}D"), full_row(uid=f"C{separator}"), full_row())
        path = tmp_path / "separator.labeled"
        path.write_bytes(text.encode())
        want = parse_conn_log_file(path)
        assert want["history"] == [f"S{separator}D", "Dd", "Dd"] and want.line_no.tolist() == [2, 3, 4]
        same_outcome(parse_conn_log(text), want)
        same_outcome(parse_conn_log(text.encode()), want)


# --- equivalence with the per-row parser -------------------------------------------


def _old_coerce(column, token, line_no):
    """The per-cell conversion as it was, with an int beyond float64 a
    BadNumeric instead of an OverflowError."""
    if token == "-":
        return None
    if column in FLOAT_COLUMNS or column in INT_COLUMNS:
        if token == "(empty)":
            return None
        try:
            value = float(token) if column in FLOAT_COLUMNS else int(token)
        except ValueError:
            raise BadNumeric(line_no, column, token) from None
        if column in PORT_COLUMNS and not 0 <= value <= 65535:
            raise BadNumeric(line_no, column, token)
        if (column in INT_COLUMNS or column == "duration") and value < 0:
            raise BadNumeric(line_no, column, token)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise BadNumeric(line_no, column, token) from None
        if not finite:
            raise BadNumeric(line_no, column, token)
        return value
    if column in BOOL_COLUMNS:
        if token in ("T", "true", "1"):
            return True
        if token in ("F", "false", "0"):
            return False
        raise BadNumeric(line_no, column, token)
    if token == "(empty)":
        return ""
    return token


def _old_repair(parts, expected):
    deficit = expected - len(parts)
    if deficit <= 0:
        return parts
    tail = parts[-1].split()
    if len(tail) == deficit + 1:
        return parts[:-1] + tail
    return parts


def _old_iter_conn_log(lines, allow_unlabeled=False):
    """The per-row parser as it was: one dict per row; yields (line number,
    row dict)."""
    columns = None
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
        parts = _old_repair(line.split("\t"), len(columns))
        if len(parts) != len(columns):
            raise ColumnCountMismatch(line_no, len(columns), len(parts))
        values = {attr: None for attr in ZEEK_TO_ATTR.values()}
        for column, token in zip(columns, parts):
            attr = ZEEK_TO_ATTR.get(column)
            if attr is None:
                continue
            values[attr] = _old_coerce(column, token, line_no)
        for attr in ("uid", "orig_h", "resp_h", "conn_state", "tunnel_parents"):
            if values[attr] is None:
                values[attr] = ""
        proto = values["proto"] or ""
        values["proto"] = proto if proto in KNOWN_PROTOS else "other"
        for attr in ("orig_p", "resp_p"):
            if values[attr] is None:
                values[attr] = 0
        values["raw_label"] = values["raw_label"] or ""
        values["raw_detailed_label"] = values["raw_detailed_label"] or "-"
        if not values["raw_label"] and not allow_unlabeled:
            raise MalformedHeader(line_no, "row has no label; pass allow_unlabeled for prediction input")
        yield line_no, values


_COLUMNS = FIELDS.split("\t")
# per column kind: tokens a mutated cell takes, good and bad
_BAD_NUMBERS = ["lots", "", " ", "1.5.2", "nan", "inf", "-inf", "1e400", "-1", "-0.5", "1" + "0" * 400, "0x10"]
_CELL_TOKENS = {
    "float": ["-", "(empty)", "0", "-0.0", "1e3", " 2.5 ", "1_0.5", "12"] + _BAD_NUMBERS,
    "int": ["-", "(empty)", "0", "-0", "007", " 42 ", "1_000", "65535", "65536", "70000", "2.0"] + _BAD_NUMBERS,
    "bool": ["-", "(empty)", "T", "F", "true", "false", "1", "0", "yes", "t", ""],
    "text": ["-", "(empty)", "", "x y", "tcp", "udp", "icmp", "gre", "Benign", "Malicious", "C&C"],
}


def _kind(column):
    if column in FLOAT_COLUMNS:
        return "float"
    if column in INT_COLUMNS:
        return "int"
    return "bool" if column in BOOL_COLUMNS else "text"


def _corpus_lines(rng, n_rows):
    """Conn-log lines with a seeded mix of directives, blank lines, header
    variants and malformed cells or rows; every row is bad with a small
    probability so that clean files are common too."""
    header = list(_COLUMNS)
    lines = []
    if rng.random() > 0.05:
        lines += ["#separator \\x09", "#fields\t" + "\t".join(header)]
    error_rate = rng.choice([0.0, 0.0, 0.01, 0.05, 0.3])
    missing_rate = rng.choice([0.0, 0.0, 0.1, 1.0])
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.01:
            lines.append(rng.choice(["", "#close\t2020", "#path\tconn", "" if rng.random() < 0.9 else " "]))
            continue
        if roll < 0.015:  # a new header: reordered, missing label columns, unknown or duplicate columns
            variant = rng.integers(0, 4)
            if variant == 0:
                header = list(_COLUMNS)
            elif variant == 1:
                header = list(_COLUMNS[:-2])
            elif variant == 2:
                header = list(_COLUMNS) + ["extra"]
            else:
                header = list(rng.permutation(_COLUMNS)) + ["proto"]
            lines.append("#fields\t" + "\t".join(header))
            continue
        cells = {"extra": "zzz"}
        base = full_row(uid=f"C{len(lines)}", **{"id.orig_p": str(rng.integers(0, 65536))}).split("\t")
        cells.update(zip(_COLUMNS, base))
        if rng.random() < 0.3:
            label, detailed = _LABEL_POOL[rng.integers(0, len(_LABEL_POOL))]
            cells["label"], cells["detailed-label"] = label, detailed
        if rng.random() < missing_rate:  # a missing cell, which is no error
            column = _COLUMNS[rng.integers(0, len(_COLUMNS) - 2)]
            cells[column] = "-" if _kind(column) == "bool" else rng.choice(["-", "(empty)"])
        row = [cells[c] for c in header]
        if rng.random() < error_rate:
            fault = rng.integers(0, 6)
            if fault <= 2:  # one cell, most often a numeric one, gets a token its column may reject
                typed = [j for j, c in enumerate(header) if _kind(c) != "text"]
                j = rng.choice(typed) if typed and rng.random() < 0.8 else rng.integers(0, len(header))
                tokens = _CELL_TOKENS[_kind(header[j])]
                row[j] = tokens[rng.integers(0, len(tokens))]
            elif fault == 3:  # short or long row
                row = row[: rng.integers(1, len(row))] if rng.random() < 0.5 else row + ["x"]
            elif fault == 4:  # unlabeled row
                if "label" in header:
                    row[header.index("label")] = rng.choice(["-", "(empty)", ""])
            else:  # labels glued by spaces; sometimes too few to repair
                k = rng.integers(2, 4)
                row = row[:-k] + ["   ".join(row[-k:][: rng.integers(1, k + 1)])]
        elif rng.random() < 0.05:  # glued labels that repair
            row = row[:-3] + ["   ".join(row[-3:])]
        lines.append("\t".join(row))
    return lines


def _outcome_of(parse):
    try:
        return parse()
    except DataError as exc:
        return type(exc), str(exc)


def _same(table, old):
    """A FlowTable against the old parser's (line, record) pairs: equal
    values (None as NaN, bools as 1.0/0.0) and the same lines."""
    if isinstance(old, tuple):
        assert table == old
        return
    assert not isinstance(table, tuple), table
    assert table.line_no.tolist() == [line for line, _ in old]
    for attr in ZEEK_TO_ATTR.values():
        expected = [r[attr] for _, r in old]
        got = table[attr]
        if isinstance(got, np.ndarray):
            assert got.dtype == np.float64, attr
            expected = np.array([np.nan if v is None else float(v) for v in expected], dtype=np.float64)
            assert got.tobytes() == expected.tobytes(), attr
        else:
            assert got == expected, attr


# the last line of the first block in test_error_next_to_block_boundary
_EDGE = 1024


class TestParserEquivalence:
    def test_matches_per_row_parser(self, tmp_path, monkeypatch):
        # small read chunks (each one a block), so that runs, errors and
        # #fields lines fall on every side of a block boundary
        seen = []
        for corpus in range(200):
            rng = np.random.default_rng([77, corpus])
            monkeypatch.setattr(flows, "_READ_BYTES", int(rng.choice([1, 20, 90, 200, 300])))
            lines = _corpus_lines(rng, int(rng.integers(0, 120)))
            crlf = bool(rng.random() < 0.3)
            ending = "\r\n" if crlf else "\n"
            path = tmp_path / f"c{corpus}.labeled"
            path.write_bytes((ending.join(lines) + ending).encode())
            for allow in (False, True):
                with open(path, encoding="utf-8") as file:
                    old = _outcome_of(lambda: list(_old_iter_conn_log(file, allow)))
                _same(_outcome_of(lambda: parse_conn_log_file(path, allow_unlabeled=allow)), old)
                # the same text held in memory
                raw = [line + ending for line in lines]
                _same(_outcome_of(lambda: parse_conn_log("".join(raw), allow_unlabeled=allow)),
                      _outcome_of(lambda: list(_old_iter_conn_log(raw, allow))))
                seen.append("ok" if isinstance(old, list) else old[0].__name__)
        # the corpus reaches clean files and every parse error
        assert {"ok", "BadNumeric", "ColumnCountMismatch", "MalformedHeader"} <= set(seen)
        assert seen.count("ok") >= 50 and seen.count("BadNumeric") >= 50

    def test_featurized_columns_are_those_of_the_full_parse(self, tmp_path, monkeypatch):
        """Parsed keeping only the columns featurize reads, in one range or
        two, each corpus gives the full parse's values of those columns, its
        line numbers, or its error: every cell is still checked, so a bad
        token in a column not kept (ts) fails the parse as before."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)
        two_ranges = parallel.row_ranges  # at two CPUs and any length
        seen = []
        for corpus in range(200):
            rng = np.random.default_rng([77, corpus])
            monkeypatch.setattr(flows, "_READ_BYTES", int(rng.choice([1, 20, 90, 200, 300])))
            lines = _corpus_lines(rng, int(rng.integers(0, 120)))
            ending = "\r\n" if rng.random() < 0.3 else "\n"
            path = tmp_path / f"c{corpus}.labeled"
            path.write_bytes((ending.join(lines) + ending).encode())
            for allow in (False, True):
                full = serial_outcome(path, allow)
                want = full if isinstance(full, tuple) else \
                    flows.FlowTable({a: full[a] for a in FEATURIZED_COLUMNS}, full.line_no)
                for ranges in (lambda n, row_s: [(0, n)], two_ranges):
                    monkeypatch.setattr(parallel, "row_ranges", ranges)
                    same_outcome(_outcome_of(lambda: parse_conn_log_file(
                        path, allow_unlabeled=allow, columns=FEATURIZED_COLUMNS)), want)
                seen.append(full[0].__name__ + " ts" * ("column 'ts'" in full[1]) if isinstance(full, tuple) else "ok")
        assert {"ok", "BadNumeric", "BadNumeric ts", "ColumnCountMismatch", "MalformedHeader"} <= set(seen)

    @pytest.mark.parametrize("column, token", [("ts", "soon"), ("ts", "nan"), ("missed_bytes", "1.5.2")])
    def test_a_bad_token_fails_the_parse_that_keeps_only_featurized_columns(self, tmp_path, column, token):
        rows = [full_row(uid=f"C{i}") for i in range(6)]
        rows[3] = full_row(**{column: token})
        path = tmp_path / "bad.labeled"
        path.write_text(make_log(*rows))
        want = _outcome_of(lambda: parse_conn_log_file(path))
        assert want[0] is BadNumeric and f"column {column!r}" in want[1]
        assert _outcome_of(lambda: parse_conn_log_file(path, columns=FEATURIZED_COLUMNS)) == want

    def test_every_typed_column_and_token(self):
        # each numeric or bool column holding each token, in a column of
        # plain numbers and in one that also holds a missing value
        for column in [c for c in _COLUMNS if _kind(c) != "text"]:
            for token in _CELL_TOKENS[_kind(column)]:
                for other in ("", "-"):
                    rows = [full_row(uid=f"C{i}") for i in range(6)]
                    rows[3] = full_row(**{column: token})
                    if other:
                        rows[5] = full_row(**{column: other})
                    lines = make_log(*rows).splitlines()
                    _same(_outcome_of(lambda: parse_conn_log("\n".join(lines))),
                          _outcome_of(lambda: list(_old_iter_conn_log(lines))))

    def test_bad_row_before_undecodable_bytes(self, tmp_path):
        # rows decoded before a non-UTF-8 chunk are checked before the decode error is
        rows = [full_row(uid=f"C{i}") for i in range(300)]
        rows[1] = full_row(orig_pkts="many")
        path = tmp_path / "mixed.labeled"
        path.write_bytes(make_log(*rows).encode() + b"\xff\n")
        with open(path, encoding="utf-8") as file:
            old = _outcome_of(lambda: list(_old_iter_conn_log(file)))
        assert old[0] is BadNumeric
        _same(_outcome_of(lambda: parse_conn_log_file(path)), old)

    @pytest.mark.parametrize("bad_line", [_EDGE - 1, _EDGE, _EDGE + 1, _EDGE + 2])
    @pytest.mark.parametrize("fault", ["cell", "width", "unlabeled"])
    def test_error_next_to_block_boundary(self, tmp_path, monkeypatch, bad_line, fault):
        # line 1 is the header, so data line k is line k + 1 of the file
        rows = [full_row(uid=f"C{i}") for i in range(_EDGE + 40)]
        later = {"cell": full_row(resp_bytes="x"), "width": "a\tb", "unlabeled": full_row(label="-")}
        rows[bad_line + 5] = later[fault]  # a second, later error must not be the one reported
        rows[bad_line - 2] = {"cell": full_row(local_resp="maybe"), "width": full_row() + "\tz",
                              "unlabeled": full_row(label="(empty)")}[fault]
        path = tmp_path / "big.labeled"
        path.write_text(make_log(*rows))
        # the first read chunk, and so the first block, is lines 1 to _EDGE
        monkeypatch.setattr(flows, "_READ_BYTES", len("".join(make_log(*rows).splitlines(True)[:_EDGE])))
        with open(path, encoding="utf-8") as file:
            old = _outcome_of(lambda: list(_old_iter_conn_log(file)))
        assert isinstance(old, tuple) and f"line {bad_line}:" in old[1]
        _same(_outcome_of(lambda: parse_conn_log_file(path)), old)


# --- parsing a file in byte ranges ------------------------------------------------


def ranged(monkeypatch, cpus):
    """cpus usable CPUs and a byte range worth a fork at any length; returns
    a list that gets the ranges each parse_conn_log_file is cut into, and a
    counter of the serial parses it falls back to in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(parallel, "MIN_RANGE_S", 1e-12)
    cuts, fallbacks = [], Counter()
    line_ranges, parse_range = flows._line_ranges, flows._parse_range

    def recorded(fh, nominal):
        cuts.append(line_ranges(fh, nominal))
        return cuts[-1]

    def counted(path, allow, piece, **options):
        # the whole file as one range, read in this process (a child's count is its own)
        fallbacks["serial"] += piece[:2] == (0, os.path.getsize(path))
        return parse_range(path, allow, piece, **options)

    monkeypatch.setattr(flows, "_line_ranges", recorded)
    monkeypatch.setattr(flows, "_parse_range", counted)
    return cuts, fallbacks


def ranged_outcome(path, allow, cuts, fallbacks):
    """The outcome of the ranged parse, which parses serially only a file
    it could not cut, or on an error."""
    before, scans = fallbacks["serial"], len(cuts)
    got = _outcome_of(lambda: parse_conn_log_file(path, allow_unlabeled=allow))
    whole = len(cuts) == scans or len(cuts[-1]) == 1  # too small to scan, or not cut
    assert fallbacks["serial"] == before + (isinstance(got, tuple) or whole)
    return got


def serial_outcome(path, allow=False):
    """The table or (error class, text) of parsing the file in one piece."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(parallel, "row_ranges", lambda n, row_s: [(0, n)])
        return _outcome_of(lambda: parse_conn_log_file(path, allow_unlabeled=allow))


def same_outcome(got, want):
    """Equal errors, or tables with equal line numbers and values (NaN and
    signed zeros compared by their bits)."""
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert got.line_no.tobytes() == want.line_no.tobytes()
    assert got.columns.keys() == want.columns.keys()
    for attr, column in want.columns.items():
        if isinstance(column, np.ndarray):
            assert got[attr].dtype == column.dtype and got[attr].tobytes() == column.tobytes(), attr
        else:
            assert got[attr] == column, attr


class TestRangedParse:
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_corpora_match_the_serial_parse(self, tmp_path, monkeypatch, cpus):
        cuts, fallbacks = ranged(monkeypatch, cpus)
        seen = []
        for corpus in range(100):
            rng = np.random.default_rng([78, corpus])
            lines = _corpus_lines(rng, int(rng.integers(0, 150)))
            if corpus % 3 == 2:  # \n, \r\n and lone \r endings mixed in one file
                text = "".join(line + ["\n", "\r\n", "\r"][rng.integers(0, 3)] for line in lines)
            else:
                ending = "\r\n" if corpus % 3 else "\n"
                text = "".join(line + ending for line in lines)
            path = tmp_path / f"c{corpus}.labeled"
            path.write_bytes(text.encode())
            for allow in (False, True):
                want = serial_outcome(path, allow)
                same_outcome(ranged_outcome(path, allow, cuts, fallbacks), want)
                seen.append("ok" if not isinstance(want, tuple) else want[0].__name__)
        assert sum(len(c) == cpus for c in cuts) >= 100  # most files were cut
        assert {"ok", "BadNumeric", "ColumnCountMismatch", "MalformedHeader"} <= set(seen)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "mixed"])
    def test_a_cut_after_every_line_matches_the_serial_parse(self, tmp_path, monkeypatch, ending):
        """Cuts at a header change, next to blank and directive lines, and
        around glued labels, with every ending; then two cuts at once."""
        cuts, fallbacks = ranged(monkeypatch, 3)
        glued = full_row(uid="G").split("\t")
        short = [c for c in FIELDS.split("\t") if c not in ("label", "detailed-label")]
        lines = [
            "#separator \\x09", "#fields\t" + FIELDS, full_row(uid="A"),
            "\t".join(glued[:-3] + ["   ".join(glued[-3:])]), "", "#path\tconn", full_row(uid="B"),
            "#fields\t" + "\t".join(short), "\t".join(full_row(uid="C").split("\t")[:-2]), "",
            "#fields\t" + FIELDS, "#close\t2020", full_row(uid="D", service="-"), full_row(uid="E"),
        ]
        rng = np.random.default_rng(5)
        ends = [ending if ending != "mixed" else ["\n", "\r\n", "\r"][rng.integers(0, 3)] for _ in lines]
        path = tmp_path / "cuts.labeled"
        data = "".join(map(str.__add__, lines, ends)).encode()
        path.write_bytes(data)
        breaks = [i for i, b in enumerate(data) if b == ord("\n")][:-1]
        for allow in (True, False):
            want = serial_outcome(path, allow)
            assert isinstance(want, tuple) != allow  # row C has no label
            for cut_points in [[at] for at in breaks] + [list(pair) for pair in zip(breaks, breaks[2:])]:
                bounds = [0] + cut_points + [len(data)]
                monkeypatch.setattr(parallel, "row_ranges", lambda n, row_s: list(zip(bounds, bounds[1:])))
                same_outcome(ranged_outcome(path, allow, cuts, fallbacks), want)
                assert [start for start, *_ in cuts[-1]] == [0] + [at + 1 for at in cut_points]

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("faults", [
        {50: "byte"}, {200: "byte"}, {350: "byte"},
        {300: "row", 50: "byte"}, {50: "row", 300: "byte"},
        {300: "row"}, {50: "width", 250: "row", 350: "byte"},
    ])
    def test_errors_are_the_serial_ones(self, tmp_path, monkeypatch, cpus, faults):
        """A bad UTF-8 byte or a bad row in any range, a bad row in one range
        and a bad byte in another: the error raised, and its line, are the
        serial parse's."""
        cuts, fallbacks = ranged(monkeypatch, cpus)
        rows = [full_row(uid=f"C{i}") for i in range(400)]
        for at, fault in faults.items():
            rows[at] = {"byte": full_row(service="caf\xe9"), "row": full_row(orig_pkts="many"),
                        "width": full_row() + "\tz"}[fault]
        path = tmp_path / "faults.labeled"
        path.write_bytes(make_log(*rows).encode("latin-1"))
        want = serial_outcome(path)
        assert isinstance(want, tuple)
        assert f"line {min(faults) + 2}" in want[1]  # line 1 is the header
        assert ranged_outcome(path, False, cuts, fallbacks) == want
        assert [len(c) for c in cuts] == [cpus]

    def test_a_file_without_line_feeds_is_one_range(self, tmp_path, monkeypatch):
        cuts, _ = ranged(monkeypatch, 2)
        path = tmp_path / "cr.labeled"
        path.write_bytes(make_log(*[full_row(uid=f"C{i}") for i in range(50)]).replace("\n", "\r").encode())
        same_outcome(parse_conn_log_file(path), serial_outcome(path))
        assert [len(c) for c in cuts] == [1]


# --- reading a file in bounded blocks ----------------------------------------------


def _faulty_file(path, n_rows, faults, endings=lambda line: "\n"):
    """A conn log of n_rows rows under a header on line 1, the row on line k
    replaced as faults[k] says and line k ended by endings(k), in Latin-1."""
    rows = [full_row(uid=f"C{i}") for i in range(n_rows)]
    for line, fault in faults.items():
        rows[line - 2] = {"byte": full_row(service="caf\xe9"), "row": full_row(orig_pkts="many")}[fault]
    lines = ["#fields\t" + FIELDS] + rows
    path.write_bytes("".join(line + endings(k) for k, line in enumerate(lines, start=1)).encode("latin-1"))
    return path


@pytest.mark.parametrize("cpus", [1, 2, 3])
class TestReadErrors:
    """The one-range parse (cpus 1) and ranged parses report a bad UTF-8
    byte on its line as the parser counts lines, and only after the rows
    before it are checked."""

    def outcome(self, path, monkeypatch, cpus):
        if cpus == 1:
            return serial_outcome(path)
        return ranged_outcome(path, False, *ranged(monkeypatch, cpus))

    def test_lone_cr_endings_count_as_lines(self, tmp_path, monkeypatch, cpus):
        path = _faulty_file(tmp_path / "cr.labeled", 40, {8: "byte"}, lambda line: "\r")
        assert self.outcome(path, monkeypatch, cpus) == \
            (DataError, f"{path} line 8: not UTF-8 text (invalid continuation byte)")

    def test_lone_cr_after_line_feeds(self, tmp_path, monkeypatch, cpus):
        # lines 1-200 end in \n, so a ranged parse cuts the file; the rest in a lone \r
        path = _faulty_file(tmp_path / "mixed.labeled", 400, {300: "byte"}, lambda line: "\n" if line <= 200 else "\r")
        assert self.outcome(path, monkeypatch, cpus) == \
            (DataError, f"{path} line 300: not UTF-8 text (invalid continuation byte)")

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_bad_row_before_a_bad_byte_two_lines_on(self, tmp_path, monkeypatch, cpus, ending):
        path = _faulty_file(tmp_path / "near.labeled", 400, {22: "row", 24: "byte"}, lambda line: ending)
        assert self.outcome(path, monkeypatch, cpus) == \
            (BadNumeric, "line 22: non-numeric token 'many' in column 'orig_pkts'")


def test_a_parse_holds_a_bounded_block_beyond_its_table(tmp_path, monkeypatch):
    """The one-range parse of a 1 MiB file, read 8 KiB at a time, and each
    range of a ranged parse read in this process, peak within a fixed bound
    above the table returned (640 KiB): the bytes, text, lines and cells of
    a read chunk or two, and one numeric column as it is joined (at this
    file size, about 48 KiB).  Reading a whole range at once, or joining
    every column at once, peaks 1.3-2 MB above the table here."""
    monkeypatch.setattr(flows, "_READ_BYTES", 8 << 10)
    row = full_row()
    path = tmp_path / "big.labeled"
    path.write_text(make_log(*[row] * (16 * (64 << 10) // len(row))))
    size = path.stat().st_size
    with open(path, "rb") as fh:
        halves = flows._line_ranges(fh, [(0, size // 2), (size // 2, size)])
    assert len(halves) == 2
    monkeypatch.setattr(parallel, "row_ranges", lambda n, row_s: [(0, n)])
    for parse in [lambda: parse_conn_log_file(path)] + [lambda p=p: flows._parse_range(path, False, p) for p in halves]:
        tracemalloc.start()
        try:
            table = parse()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) > 0
        assert peak - held < 10 * (64 << 10), (peak - held, held)
