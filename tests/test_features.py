"""IP feature engineering, one-hot encoding, min-max scaling, importance."""

import logging

import numpy as np
import pytest

from iotids.errors import BadIpSyntax, ColumnMismatch, SchemaMismatch
from iotids.features import (
    CATEGORICAL_FIELDS,
    NUMERIC_FIELDS,
    CidrTable,
    build_schema,
    categorical_values,
    encode_one_hot,
    fit_min_max,
    fit_one_hot,
    ip_scope,
    matrix_from_records,
    permutation_importance,
    transform_min_max,
)
from iotids.flows import RawFlowRecord
from iotids.pipeline import ExperimentConfig, run_training
from iotids.synth import SynthSpec, write_synth_dataset


def make_record(**overrides) -> RawFlowRecord:
    base = dict(
        ts=1.0,
        uid="C1",
        orig_h="192.168.1.5",
        resp_h="8.8.8.8",
        orig_p=49152,
        resp_p=53,
        proto="udp",
        service="dns",
        duration=0.25,
        orig_bytes=100,
        resp_bytes=200,
        conn_state="SF",
        local_orig=True,
        local_resp=False,
        missed_bytes=0,
        history="Dd",
        orig_pkts=2,
        orig_ip_bytes=156,
        resp_pkts=2,
        resp_ip_bytes=256,
        tunnel_parents="",
        raw_label="Benign",
        raw_detailed_label="-",
    )
    base.update(overrides)
    return RawFlowRecord(**base)


TABLE = CidrTable.from_rows([("8.8.8.0/24", "US"), ("8.0.0.0/8", "XX"), ("1.2.0.0/16", "AU")])


class TestIpFeatures:
    def test_private_rfc1918(self):
        record = make_record(orig_h="192.168.1.5")
        scope, country = ip_scope(record.orig_h), categorical_values(record, TABLE)["orig_country"]
        assert scope == "private" and country == "unknown"

    def test_global_with_table_entry(self):
        record = make_record(resp_h="8.8.8.8")
        scope, country = ip_scope(record.resp_h), categorical_values(record, TABLE)["resp_country"]
        assert scope == "global" and country == "US"

    def test_longest_prefix_wins(self):
        assert TABLE.country("8.8.8.1") == "US"  # /24 beats /8
        assert TABLE.country("8.9.9.9") == "XX"

    def test_global_absent_from_table(self):
        scope, country = ip_scope("203.0.113.9"), TABLE.country("203.0.113.9")
        assert scope == "global" and country == "unknown"

    def test_private_ranges(self):
        for ip in ("10.1.2.3", "172.16.0.1", "172.31.255.255", "192.168.0.1",
                   "127.0.0.1", "169.254.10.10", "fc00::1", "fe80::1", "::1"):
            assert ip_scope(ip) == "private", ip
        for ip in ("172.32.0.1", "11.0.0.1", "8.8.8.8", "2001:4860::1"):
            assert ip_scope(ip) == "global", ip

    def test_bad_ip_syntax(self):
        with pytest.raises(BadIpSyntax):
            ip_scope("not.an.ip")

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "cidr.csv"
        path.write_text("cidr,country\n8.8.8.0/24,US\n1.2.0.0/16,AU\n")
        table = CidrTable.from_csv(path)
        assert table.country("1.2.3.4") == "AU"

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "cidr.csv"
        path.write_text("prefix,cc\n8.8.8.0/24,US\n")
        with pytest.raises(ValueError):
            CidrTable.from_csv(path)


class TestOneHot:
    def test_first_seen_order(self):
        rows = [{"proto": "tcp"}, {"proto": "udp"}, {"proto": "tcp"}]
        vocab = fit_one_hot(rows, ["proto"])
        assert vocab.categories["proto"] == ("tcp", "udp")

    def test_unknown_is_first_class_category(self):
        rows = [{"service": "unknown"}, {"service": "dns"}]
        vocab = fit_one_hot(rows, ["service"])
        assert "unknown" in vocab.categories["service"]
        np.testing.assert_array_equal(encode_one_hot(vocab, "service", ["unknown"])[0], [1.0, 0.0])

    def test_refit_identical(self):
        rows = [{"proto": p} for p in ("tcp", "udp", "icmp", "tcp")]
        assert fit_one_hot(rows, ["proto"]) == fit_one_hot(rows, ["proto"])

    def test_encode_known(self):
        vocab = fit_one_hot([{"proto": "tcp"}, {"proto": "udp"}], ["proto"])
        np.testing.assert_array_equal(encode_one_hot(vocab, "proto", ["tcp"])[0], [1.0, 0.0])

    def test_encode_unseen_is_zeros_with_warning(self, caplog):
        vocab = fit_one_hot([{"proto": "tcp"}, {"proto": "udp"}], ["proto"])
        with caplog.at_level(logging.WARNING, logger="iotids.features"):
            vec = encode_one_hot(vocab, "proto", ["icmp"])[0]
        np.testing.assert_array_equal(vec, [0.0, 0.0])
        assert any("unseen category" in r.message for r in caplog.records)

    def test_encode_positional(self):
        vocab = fit_one_hot([{"x": "a"}, {"x": "b"}, {"x": "c"}], ["x"])
        np.testing.assert_array_equal(encode_one_hot(vocab, "x", ["c"])[0], [0.0, 0.0, 1.0])

    def test_sum_property(self):
        vocab = fit_one_hot([{"x": v} for v in "abcd"], ["x"])
        for v in "abcd":
            assert encode_one_hot(vocab, "x", [v]).sum() == 1.0
        assert encode_one_hot(vocab, "x", ["z"]).sum() == 0.0


class TestMinMax:
    def test_fit_basic(self):
        params = fit_min_max(np.array([[0.0], [10.0], [5.0]]))
        assert params.x_min[0] == 0.0 and params.x_max[0] == 10.0
        assert params.fitted_on == "train"

    def test_constant_column(self):
        params = fit_min_max(np.array([[7.0], [7.0], [7.0]]))
        assert params.x_min[0] == params.x_max[0] == 7.0
        out = transform_min_max(params, np.array([[7.0], [9.0]]))
        np.testing.assert_array_equal(out, [[0.0], [0.0]])

    def test_transform_endpoints_and_midpoint(self):
        params = fit_min_max(np.array([[0.0], [10.0]]))
        out = transform_min_max(params, np.array([[0.0], [10.0], [5.0]]))
        np.testing.assert_array_equal(out.ravel(), [0.0, 1.0, 0.5])

    def test_clamp_above_range(self):
        # formula gives 1.2; the documented clamp rule caps at 1.0
        params = fit_min_max(np.array([[0.0], [10.0]]))
        assert transform_min_max(params, np.array([[12.0]]))[0, 0] == 1.0
        assert transform_min_max(params, np.array([[-3.0]]))[0, 0] == 0.0

    def test_train_only_params_differ_from_pooled(self):
        train = np.array([[0.0], [10.0]])
        test = np.array([[20.0]])
        p_train = fit_min_max(train)
        p_pooled = fit_min_max(np.vstack([train, test]))
        assert p_train.x_max[0] == 10.0 and p_pooled.x_max[0] == 20.0
        assert p_train.x_max[0] != p_pooled.x_max[0]

    def test_train_columns_attain_exact_bounds(self):
        rng = np.random.default_rng(3)
        train = rng.normal(size=(40, 5))
        scaled = transform_min_max(fit_min_max(train), train)
        np.testing.assert_array_equal(scaled.min(axis=0), np.zeros(5))
        np.testing.assert_array_equal(scaled.max(axis=0), np.ones(5))

    def test_column_mismatch(self):
        params = fit_min_max(np.zeros((2, 3)))
        with pytest.raises(ColumnMismatch):
            transform_min_max(params, np.zeros((2, 4)))


class TestFeatureMatrix:
    def test_empty_dataset_keeps_schema_width(self):
        vocab = fit_one_hot([categorical_values(make_record(), TABLE)], CATEGORICAL_FIELDS)
        values, schema = matrix_from_records([], TABLE, vocab)
        assert values.shape == (0, schema.width)

    def test_two_row_matrix_hand_assembled(self):
        r1 = make_record()  # private orig, global US resp, udp/dns/SF
        r2 = make_record(orig_h="10.0.0.9", resp_h="1.2.3.4", proto="tcp",
                         service="http", conn_state="S0", orig_p=1, resp_p=2,
                         duration=4.0, orig_bytes=8, resp_bytes=16, local_orig=False,
                         local_resp=True, missed_bytes=1, orig_pkts=3,
                         orig_ip_bytes=5, resp_pkts=7, resp_ip_bytes=9)
        vocab = fit_one_hot([categorical_values(r, TABLE) for r in (r1, r2)], CATEGORICAL_FIELDS)
        values, schema = matrix_from_records([r1, r2], TABLE, vocab)
        # documented order: 12 numerics, 2 scopes, then one-hot blocks
        # proto [udp, tcp], service [dns, http], conn_state [SF, S0],
        # orig_country [unknown], resp_country [US, AU]
        row1 = [49152, 53, 0.25, 100, 200, 1, 0, 0, 2, 156, 2, 256,
                0, 1,
                1, 0, 1, 0, 1, 0, 1, 1, 0]
        row2 = [1, 2, 4.0, 8, 16, 0, 1, 1, 3, 5, 7, 9,
                0, 1,
                0, 1, 0, 1, 0, 1, 1, 0, 1]
        np.testing.assert_array_equal(values, np.array([row1, row2], dtype=float))
        assert schema.width == 23

    def test_deterministic_across_runs(self):
        records = [make_record(), make_record(proto="tcp")]
        vocab = fit_one_hot([categorical_values(r, TABLE) for r in records], CATEGORICAL_FIELDS)
        a_values, a_schema = matrix_from_records(records, TABLE, vocab)
        b_values, b_schema = matrix_from_records(records, TABLE, vocab)
        np.testing.assert_array_equal(a_values, b_values)
        assert a_schema == b_schema

    def test_column_order_is_schema_function(self):
        records = [make_record(), make_record(proto="tcp")]
        vocab = fit_one_hot([categorical_values(r, TABLE) for r in records], CATEGORICAL_FIELDS)
        schema = build_schema(vocab)
        names = schema.names()
        assert names[: len(NUMERIC_FIELDS)] == NUMERIC_FIELDS
        assert names[len(NUMERIC_FIELDS) : len(NUMERIC_FIELDS) + 2] == ["orig_scope", "resp_scope"]
        # one-hot groups contiguous and in categorical-field order
        onehot = names[len(NUMERIC_FIELDS) + 2 :]
        groups = [n.split("=")[0] for n in onehot]
        seen = []
        for g in groups:
            if not seen or seen[-1] != g:
                seen.append(g)
        assert seen == [f for f in CATEGORICAL_FIELDS if vocab.categories[f]]

    def test_expected_width_guard(self, tmp_path):
        write_synth_dataset(SynthSpec("binary", 20, seed=1), tmp_path / "data")
        cfg = ExperimentConfig("binary", ["rf"], 10, 0, expected_width=36)
        with pytest.raises(SchemaMismatch):
            run_training(cfg, tmp_path / "data", tmp_path / "run")

    def test_scaled_matrix_in_unit_interval(self):
        records = [make_record(), make_record(orig_bytes=9999, duration=50.0)]
        vocab = fit_one_hot([categorical_values(r, TABLE) for r in records], CATEGORICAL_FIELDS)
        raw, _ = matrix_from_records(records, TABLE, vocab)
        params = fit_min_max(raw)
        scaled, _ = matrix_from_records(records, TABLE, vocab, params)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


def per_record_matrix(records, table, vocabulary, params=None):
    """Reference encoder: one record at a time, each address parsed for its
    scope and again for its country, one indicator vector per value."""

    def encode(record):
        row = [float(v) if v is not None else 0.0 for v in (getattr(record, f) for f in NUMERIC_FIELDS)]
        row += [0.0 if ip_scope(a) == "private" else 1.0 for a in (record.orig_h, record.resp_h)]
        values = {
            "proto": record.proto,
            "service": record.service or "unknown",
            "conn_state": record.conn_state,
            "orig_country": table.country(record.orig_h),
            "resp_country": table.country(record.resp_h),
        }
        parts = [np.asarray(row)]
        for feature in CATEGORICAL_FIELDS:
            cats = vocabulary.categories[feature]
            vec = np.zeros(len(cats))
            if values[feature] in cats:
                vec[cats.index(values[feature])] = 1.0
            parts.append(vec)
        return np.concatenate(parts)

    width = build_schema(vocabulary).width
    values = np.stack([encode(r) for r in records]) if records else np.zeros((0, width))
    return values if params is None else transform_min_max(params, values)


ORACLE_TABLE = CidrTable.from_rows(
    [("8.8.8.0/24", "US"), ("8.0.0.0/8", "XX"), ("1.2.0.0/16", "AU"),
     ("2001:db8::/32", "V6"), ("2001:db8:1::/48", "V6X")]
)


class TestColumnwiseMatrix:
    TRAIN = [
        make_record(),
        make_record(resp_h="8.9.9.9", proto="tcp", service=None, duration=None,
                    orig_bytes=None, local_orig=None, resp_ip_bytes=None),
        make_record(orig_h="fe80::1", resp_h="2001:db8::5", service="", conn_state="S0"),
        make_record(orig_h="10.0.0.1", resp_h="2001:db8:1::9", duration=7.5, orig_p=1),
    ]
    # one value unseen in training per categorical feature, in that order
    TEST = [
        make_record(proto="icmp"),
        make_record(service="ssh"),
        make_record(conn_state="REJ"),
        make_record(orig_h="1.2.3.4"),
        make_record(resp_h="203.0.113.9", missed_bytes=None, duration=99.0),
    ]

    def vocab(self):
        return fit_one_hot([categorical_values(r, ORACLE_TABLE) for r in self.TRAIN], CATEGORICAL_FIELDS)

    def test_bitwise_equal_to_per_record_encoder(self):
        vocab = self.vocab()
        raw_train, _ = matrix_from_records(self.TRAIN, ORACLE_TABLE, vocab)
        assert raw_train.tobytes() == per_record_matrix(self.TRAIN, ORACLE_TABLE, vocab).tobytes()
        params = fit_min_max(raw_train)
        for records in (self.TRAIN, self.TEST, self.TRAIN + self.TEST, []):
            raw, _ = matrix_from_records(records, ORACLE_TABLE, vocab)
            scaled, _ = matrix_from_records(records, ORACLE_TABLE, vocab, params)
            assert raw.shape == (len(records), build_schema(vocab).width)
            assert raw.tobytes() == per_record_matrix(records, ORACLE_TABLE, vocab).tobytes()
            assert scaled.tobytes() == per_record_matrix(records, ORACLE_TABLE, vocab, params).tobytes()

    def test_each_unseen_feature_is_an_all_zero_block(self):
        vocab = self.vocab()
        raw, schema = matrix_from_records(self.TEST, ORACLE_TABLE, vocab)
        names = schema.names()
        for row, feature in zip(raw, CATEGORICAL_FIELDS):
            block = [j for j, n in enumerate(names) if n.startswith(feature + "=")]
            assert row[block].sum() == 0.0, feature

    def test_each_address_parsed_once(self, monkeypatch):
        import iotids.features as features

        vocab = self.vocab()
        records = self.TRAIN + self.TEST
        calls = []
        parse = features._parse_ip
        monkeypatch.setattr(features, "_parse_ip", lambda a: calls.append(a) or parse(a))
        matrix_from_records(records, ORACLE_TABLE, vocab)
        assert len(calls) == 2 * len(records)

    def test_unseen_values_give_one_counted_warning(self, caplog):
        vocab = fit_one_hot([categorical_values(make_record(), TABLE)], CATEGORICAL_FIELDS)
        records = [make_record(proto=p) for p in ("icmp", "udp", "gre", "icmp")]
        with caplog.at_level(logging.WARNING, logger="iotids.features"):
            matrix_from_records(records, TABLE, vocab)
        warnings = [r.getMessage() for r in caplog.records if "unseen category" in r.getMessage()]
        assert len(warnings) == 1
        assert "3 rows" in warnings[0] and "'proto'" in warnings[0]


class _ThresholdModel:
    """Predicts 1 when feature 0 exceeds 0.5; ignores everything else."""

    def predict(self, X):
        return (X[:, 0] > 0.5).astype(np.int64)


class TestPermutationImportance:
    def test_ignored_feature_importance_exactly_zero(self):
        rng = np.random.default_rng(0)
        X = rng.random((40, 3))
        y = (X[:, 0] > 0.5).astype(np.int64)
        report = permutation_importance(_ThresholdModel(), X, y, repeats=3, seed=1)
        np.testing.assert_array_equal(report.per_repeat[1], np.zeros(3))
        np.testing.assert_array_equal(report.per_repeat[2], np.zeros(3))

    def test_threshold_model_drop_recomputed_by_hand(self):
        # 1-feature model: accuracy 1.0 unshuffled; recompute the shuffled
        # accuracy by brute force with the documented sub-seed derivation
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = _ThresholdModel()
        report = permutation_importance(model, X, y, repeats=2, seed=7)
        for r in range(2):
            rng = np.random.default_rng([7, 0, r])
            shuffled = X.copy()
            shuffled[:, 0] = X[rng.permutation(4), 0]
            acc = float(np.mean(model.predict(shuffled) == y))
            assert report.per_repeat[0, r] == 1.0 - acc

    def test_negative_importance_reported_as_is(self):
        # anti-predictive feature: shuffling it can only help
        X = np.array([[1.0], [0.9], [0.1], [0.0]])
        y = np.array([0, 0, 1, 1])  # model gets everything wrong unshuffled
        report = permutation_importance(_ThresholdModel(), X, y, repeats=5, seed=3)
        assert report.mean_importance[0] < 0.0

    def test_report_shapes_and_csv(self):
        X = np.random.default_rng(1).random((20, 2))
        y = (X[:, 0] > 0.5).astype(np.int64)
        report = permutation_importance(_ThresholdModel(), X, y, repeats=4, seed=0,
                                        feature_names=["a", "b"])
        assert report.per_repeat.shape == (2, 4)
        csv_text = report.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "feature,mean_importance,repeat_values"
        assert lines[1].startswith("a,")
        assert lines[1].count(";") == 3

    def test_same_seed_same_report(self):
        X = np.random.default_rng(2).random((30, 3))
        y = (X[:, 0] > 0.5).astype(np.int64)
        a = permutation_importance(_ThresholdModel(), X, y, repeats=2, seed=5)
        b = permutation_importance(_ThresholdModel(), X, y, repeats=2, seed=5)
        np.testing.assert_array_equal(a.per_repeat, b.per_repeat)
