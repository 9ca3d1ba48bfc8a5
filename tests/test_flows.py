"""Conn-log parsing, imputation, label canonicalization, and sampling."""

import json

import numpy as np
import pytest

from iotids.cli import EXIT_DATA, EXIT_OK, main

from iotids.errors import (
    BadNumeric,
    ColumnCountMismatch,
    EmptyClass,
    MalformedHeader,
    UnknownBinaryLabel,
)
from iotids.flows import (
    BinaryClass,
    ClassLabel,
    Dataset,
    LabeledFlow,
    MultiClass,
    balance_sample,
    canonicalize_label,
    conn_log_header,
    impute_missing,
    parse_conn_log,
    record_to_line,
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


class TestImpute:
    def test_missing_numerics_become_zero(self):
        rec = parse_conn_log(make_log(full_row(duration="-", orig_bytes="-")))[0]
        fixed = impute_missing(rec)
        assert fixed.duration == 0.0
        assert fixed.orig_bytes == 0

    def test_missing_service_becomes_unknown(self):
        rec = parse_conn_log(make_log(full_row(service="-")))[0]
        assert impute_missing(rec).service == "unknown"

    def test_fully_populated_record_unchanged(self):
        rec = parse_conn_log(make_log(full_row()))[0]
        assert impute_missing(rec) == rec

    def test_tri_state_bools_default_false(self):
        rec = parse_conn_log(make_log(full_row(local_orig="-", local_resp="-")))[0]
        fixed = impute_missing(rec)
        assert fixed.local_orig is False and fixed.local_resp is False

    def test_no_missing_fields_after_full_scan(self):
        rows = [full_row(duration="-"), full_row(service="-"), full_row(orig_bytes="-", history="-")]
        for rec in parse_conn_log(make_log(*rows)):
            fixed = impute_missing(rec)
            for attr in ("ts", "duration", "orig_bytes", "resp_bytes", "missed_bytes",
                         "orig_pkts", "orig_ip_bytes", "resp_pkts", "resp_ip_bytes",
                         "service", "local_orig", "local_resp", "history"):
                assert getattr(fixed, attr) is not None


class TestLabels:
    def test_benign(self):
        assert canonicalize_label("Benign", "-") == ClassLabel(BinaryClass.BENIGN, MultiClass.BENIGN)

    def test_portscan_dataset_spelling(self):
        lbl = canonicalize_label("Malicious", "PartOfAHorizontalPortScan")
        assert lbl == ClassLabel(BinaryClass.MALICIOUS, MultiClass.PORT_SCAN)

    def test_portscan_variant_spelling(self):
        lbl = canonicalize_label("malicious", "PartOfHorizontalPortscan")
        assert lbl.multi == MultiClass.PORT_SCAN

    def test_heartbeat_and_cc(self):
        assert canonicalize_label("Malicious", "C&C-HeartBeat").multi == MultiClass.CC_HEARTBEAT
        assert canonicalize_label("Malicious", "C&C").multi == MultiClass.CC

    def test_heartbeat_spaced_variant(self):
        # spelling with a stray space after the dash also canonicalizes
        assert canonicalize_label("Malicious", "C&C- HeartBeat").multi == MultiClass.CC_HEARTBEAT

    def test_torii_maps_to_sentinel(self):
        lbl = canonicalize_label("Malicious", "C&C-Torii")
        assert lbl.binary == BinaryClass.MALICIOUS
        assert lbl.multi is None

    def test_unknown_binary_label(self):
        with pytest.raises(UnknownBinaryLabel):
            canonicalize_label("Suspicious", "-")

    def test_binary_benign_iff_multi_benign(self):
        # malicious rows can never land on the Benign multiclass bucket
        for detailed in ("-", "(empty)", "Benign", "C&C", "DDoS", "NoSuchLabel"):
            lbl = canonicalize_label("Malicious", detailed)
            assert lbl.multi != MultiClass.BENIGN

    def test_total_over_mapping_table(self):
        # every table entry maps to one of the 7 classes or the sentinel
        for key in _DETAILED_LABEL_MAP:
            lbl = canonicalize_label("Malicious", key)
            assert lbl.multi is None or isinstance(lbl.multi, MultiClass)

    def test_unlisted_label_is_sentinel(self):
        assert canonicalize_label("Malicious", "BrandNewMalware2031").multi is None


def _toy_dataset() -> Dataset:
    rec = parse_conn_log(make_log(full_row()))[0]
    rows = []
    for i in range(6):
        rows.append(LabeledFlow(rec, ClassLabel(BinaryClass.BENIGN, MultiClass.BENIGN)))
    for i in range(4):
        rows.append(LabeledFlow(rec, ClassLabel(BinaryClass.MALICIOUS, MultiClass.DDOS)))
    return Dataset(rows)


class TestBalanceSample:
    def test_toy_selection_is_frozen(self):
        # enumerate the seeded sampler's choices independently: positions
        # default_rng([42, 0]).choice(6, 3) -> [5, 0, 3]
        # default_rng([42, 1]).choice(4, 3) -> [3, 2, 1] -> rows [9, 8, 7]
        ds = _toy_dataset()
        out = balance_sample(ds, "binary", per_class=3, seed=42)
        assert len(out.rows) == 6
        assert [int(r.label.binary) for r in out.rows] == [0, 0, 0, 1, 1, 1]
        rng_b = np.random.default_rng([42, 0])
        rng_m = np.random.default_rng([42, 1])
        expected_b = list(rng_b.choice(6, size=3, replace=False))
        expected_m = [6 + j for j in rng_m.choice(4, size=3, replace=False)]
        assert expected_b == [5, 0, 3] and expected_m == [9, 8, 7]

    def test_rerun_identical(self):
        ds = _toy_dataset()
        a = balance_sample(ds, "binary", 3, seed=42)
        b = balance_sample(ds, "binary", 3, seed=42)
        assert a.rows == b.rows

    def test_per_class_larger_than_population(self):
        out = balance_sample(_toy_dataset(), "binary", per_class=50, seed=0)
        counts = {0: 0, 1: 0}
        for r in out.rows:
            counts[int(r.label.binary)] += 1
        assert counts == {0: 6, 1: 4}

    def test_empty_class_raises(self):
        ds = _toy_dataset()
        benign_only = Dataset([r for r in ds.rows if r.label.binary == BinaryClass.BENIGN])
        with pytest.raises(EmptyClass):
            balance_sample(benign_only, "binary", 2, seed=0)

    def test_sentinel_rows_binary_vs_multiclass(self):
        rec = parse_conn_log(make_log(full_row()))[0]
        rows = [
            LabeledFlow(rec, ClassLabel(BinaryClass.BENIGN, MultiClass.BENIGN)),
            LabeledFlow(rec, ClassLabel(BinaryClass.MALICIOUS, None)),  # e.g. C&C-Torii
            LabeledFlow(rec, ClassLabel(BinaryClass.MALICIOUS, MultiClass.DDOS)),
        ]
        ds = Dataset(rows)
        binary = balance_sample(ds, "binary", 5, seed=1)
        assert sum(1 for r in binary.rows if r.label.binary == BinaryClass.MALICIOUS) == 2
        with pytest.raises(EmptyClass):
            balance_sample(ds, "multiclass", 1, seed=1)  # five classes have no rows

    def test_bounds_property(self):
        ds = _toy_dataset()
        for seed in range(10):
            out = balance_sample(ds, "binary", 2, seed=seed)
            counts = {0: 0, 1: 0}
            for r in out.rows:
                counts[int(r.label.binary)] += 1
            assert len(out.rows) <= 2 * 2
            assert all(v <= 2 for v in counts.values())
