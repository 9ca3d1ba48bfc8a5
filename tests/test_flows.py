"""Conn-log parsing, imputation, label canonicalization, and sampling."""

import dataclasses
import json

import numpy as np
import pytest

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
    NUMERIC_FIELDS,
    CidrTable,
    fit_one_hot,
    ip_and_categorical_columns,
    matrix_from_records,
)
from iotids.flows import (
    BinaryClass,
    Dataset,
    MultiClass,
    RawFlowRecord,
    balance_sample,
    canonicalize_label,
    conn_log_header,
    label_rows,
    parse_conn_log,
    parse_conn_log_file,
    record_to_line,
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


class TestParsing:
    def test_missing_duration_token(self):
        rec = parse_conn_log(make_log(full_row(duration="-")))[0]
        assert rec.duration is None

    def test_fully_populated_row_identity(self):
        rec = parse_conn_log(make_log(full_row()))[0]
        assert rec.ts == 1532985600.1
        assert rec.uid == "CxUID1"
        assert rec.orig_h == "192.168.1.5"
        assert rec.orig_p == 49152
        assert rec.resp_p == 53
        assert rec.proto == "udp"
        assert rec.service == "dns"
        assert rec.duration == 0.25
        assert rec.orig_bytes == 100
        assert rec.resp_bytes == 200
        assert rec.conn_state == "SF"
        assert rec.local_orig is True
        assert rec.local_resp is False
        assert rec.history == "Dd"
        assert rec.tunnel_parents == ""
        assert rec.raw_label == "Benign"
        assert rec.raw_detailed_label == "-"

    def test_space_separated_trailing_labels(self):
        # known IoT23 quirk: last three logical columns glued by spaces
        base = full_row().split("\t")
        glued = "\t".join(base[:-3]) + "\t" + "(empty)   Malicious   PartOfAHorizontalPortScan"
        normal = full_row(label="Benign")
        records = parse_conn_log("#fields\t" + FIELDS + "\n" + glued + "\n" + normal + "\n")
        assert len(records) == 2
        assert records[0].raw_label == "Malicious"
        assert records[0].raw_detailed_label == "PartOfAHorizontalPortScan"
        assert records[0].tunnel_parents == ""
        assert records[1].raw_label == "Benign"

    def test_directives_and_blank_lines_skipped(self):
        text = "#separator \\x09\n#path\tconn\n\n" + make_log(full_row()) + "#close\t2020\n"
        assert len(parse_conn_log(text)) == 1

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
        rec = parse_conn_log(lines, allow_unlabeled=True)[0]
        assert rec.raw_label == ""

    def test_round_trip_preserves_values(self):
        original = parse_conn_log(make_log(full_row(), full_row(duration="-", service="-")))
        text = conn_log_header() + "\n" + "\n".join(record_to_line(r) for r in original)
        reparsed = parse_conn_log(text)
        assert reparsed == original


def featurized(*rows):
    """Raw feature rows, keyed by column name, of parsed rows under a
    vocabulary fitted on those rows."""
    records, table = parse_conn_log(make_log(*rows)), CidrTable()
    vocab = fit_one_hot(ip_and_categorical_columns(records, table)[1])
    values, schema = matrix_from_records(records, table, vocab)
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
        rec = parse_conn_log(make_log(full_row()))[0]
        _, (row,) = featurized(full_row())
        assert [row[f] for f in NUMERIC_FIELDS] == [float(getattr(rec, f)) for f in NUMERIC_FIELDS]
        assert row[f"service={rec.service}"] == 1.0

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
    # ten distinct records (uid 0..9): 6 benign, then 4 DDoS
    records = [parse_conn_log(make_log(full_row(uid=str(i))))[0] for i in range(10)]
    labels = np.array([(BinaryClass.BENIGN, MultiClass.BENIGN)] * 6 + [(BinaryClass.MALICIOUS, MultiClass.DDOS)] * 4)
    return Dataset(records, labels)


class TestBalanceSample:
    def test_toy_selection_is_frozen(self):
        # enumerate the seeded sampler's choices independently: positions
        # default_rng([42, 0]).choice(6, 3) -> [5, 0, 3]
        # default_rng([42, 1]).choice(4, 3) -> [3, 2, 1] -> rows [9, 8, 7]
        ds = _toy_dataset()
        out = balance_sample(ds, "binary", per_class=3, seed=42)
        assert len(out) == 6
        assert out.targets("binary").tolist() == [0, 0, 0, 1, 1, 1]
        assert [r.uid for r in out.records] == ["5", "0", "3", "9", "8", "7"]
        rng_b = np.random.default_rng([42, 0])
        rng_m = np.random.default_rng([42, 1])
        expected_b = list(rng_b.choice(6, size=3, replace=False))
        expected_m = [6 + j for j in rng_m.choice(4, size=3, replace=False)]
        assert expected_b == [5, 0, 3] and expected_m == [9, 8, 7]

    def test_rerun_identical(self):
        ds = _toy_dataset()
        a = balance_sample(ds, "binary", 3, seed=42)
        b = balance_sample(ds, "binary", 3, seed=42)
        assert a.records == b.records
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_per_class_larger_than_population(self):
        out = balance_sample(_toy_dataset(), "binary", per_class=50, seed=0)
        assert np.bincount(out.targets("binary")).tolist() == [6, 4]

    def test_empty_class_raises(self):
        ds = _toy_dataset()
        benign_only = ds.subset(np.flatnonzero(ds.targets("binary") == BinaryClass.BENIGN))
        with pytest.raises(EmptyClass):
            balance_sample(benign_only, "binary", 2, seed=0)

    def test_sentinel_rows_binary_vs_multiclass(self):
        rec = parse_conn_log(make_log(full_row()))[0]
        labels = np.array([
            (BinaryClass.BENIGN, MultiClass.BENIGN),
            (BinaryClass.MALICIOUS, -1),  # e.g. C&C-Torii
            (BinaryClass.MALICIOUS, MultiClass.DDOS),
        ])
        ds = Dataset([rec] * 3, labels)
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
    record: RawFlowRecord
    label: _OldLabel


def _old_class_index(flow, task):
    if task == "binary":
        return int(flow.label.binary)
    return None if flow.label.multi is None else int(flow.label.multi)


def _old_label_and_sample(records, task, per_class, seed):
    """The label-object pipeline as it was: one (record, label) object per
    row, class indices recomputed per row; returns (records, targets)."""
    flows = [_OldFlow(r, _OldLabel(*canonicalize_label(r.raw_label, r.raw_detailed_label))) for r in records]
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
    sampled = balance_sample(label_rows(records), task, per_class, seed)
    return sampled.records, sampled.targets(task).tolist()


class TestLabelArrayEquivalence:
    def test_matches_label_object_path(self):
        template = parse_conn_log(make_log(full_row()))[0]
        outcomes = []
        for corpus in range(60):
            rng = np.random.default_rng([2031, corpus])
            n = int(rng.integers(1, 120))
            pool = _LABEL_POOL[: int(rng.integers(3, len(_LABEL_POOL) + 1))]
            records = []
            for i in rng.integers(0, len(pool), size=n):
                label, detailed = pool[i]
                records.append(dataclasses.replace(
                    template, uid=f"C{len(records)}", raw_label=label, raw_detailed_label=detailed))
            if corpus % 15 == 7:
                records[int(rng.integers(0, n))] = dataclasses.replace(template, raw_label="Suspicious")
            for task in ("binary", "multiclass"):
                per_class = int(rng.integers(0, n // 3 + 3))  # 0 checks the per_class guard
                seed = int(rng.integers(0, 1000))
                old = _outcome(_old_label_and_sample, records, task, per_class, seed)
                new = _outcome(_new_label_and_sample, records, task, per_class, seed)
                if isinstance(old[0], type):
                    assert new == old, (corpus, task)
                    outcomes.append(old[0])
                    continue
                assert [id(r) for r in new[0]] == [id(r) for r in old[0]], (corpus, task)
                assert new[1] == old[1], (corpus, task)
                available = np.bincount(label_rows(records).targets(task) + 1)[1:]
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
