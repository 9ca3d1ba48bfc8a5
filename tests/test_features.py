"""IP feature engineering, one-hot encoding, min-max scaling, importance."""

import ipaddress
import logging
import os

import numpy as np
import pytest

from iotids import features, parallel
from iotids.errors import BadIpSyntax, ColumnMismatch, DataError, EmptyMatrix, SchemaMismatch
from iotids.features import (
    CATEGORICAL_FIELDS,
    NUMERIC_FIELDS,
    CidrTable,
    _write_one_hot,
    build_schema,
    fit_min_max,
    fit_one_hot,
    ip_and_categorical_columns,
    ip_scope,
    matrix_from_records,
    permutation_importance,
    transform_min_max,
)
from iotids.flows import ZEEK_TO_ATTR, parse_conn_log, render_conn_log
from iotids.pipeline import ExperimentConfig, run_training
from iotids.synth import SynthSpec, write_synth_dataset


def make_record(**overrides) -> dict:
    """One conn-log row as a dict keyed by attribute; None marks a missing value."""
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
    return base


def table_of(records):
    """A FlowTable of records, through the conn-log text they render to."""
    records = list(records)
    return parse_conn_log(render_conn_log({attr: [r[attr] for r in records] for attr in ZEEK_TO_ATTR.values()}))


def fit_vocab(records, table):
    return fit_one_hot(ip_and_categorical_columns(table_of(records), table)[1])


TABLE = CidrTable.from_rows([("8.8.8.0/24", "US"), ("8.0.0.0/8", "XX"), ("1.2.0.0/16", "AU")])


class TestIpFeatures:
    def test_private_rfc1918(self):
        record = make_record(orig_h="192.168.1.5")
        _, columns = ip_and_categorical_columns(table_of([record]), TABLE)
        scope, country = ip_scope(record["orig_h"]), columns["orig_country"][0]
        assert scope == "private" and country == "unknown"

    def test_global_with_table_entry(self):
        record = make_record(resp_h="8.8.8.8")
        _, columns = ip_and_categorical_columns(table_of([record]), TABLE)
        scope, country = ip_scope(record["resp_h"]), columns["resp_country"][0]
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

    def test_ipv4_mapped_ipv6_is_its_ipv4_address(self):
        assert ip_scope("::ffff:10.1.2.3") == "private"
        assert ip_scope("::ffff:8.8.8.8") == "global"
        table = CidrTable.from_rows([("10.0.0.0/8", "LAN"), ("8.8.8.0/24", "US")])
        assert table.country("::ffff:10.1.2.3") == "LAN"
        assert table.country("::ffff:a01:203") == "LAN"  # the same address in hex
        assert table.country("::ffff:8.8.8.8") == "US"

    def test_ipv4_mapped_row_featurizes_as_its_ipv4_row(self):
        table = CidrTable.from_rows([("10.0.0.0/8", "LAN"), ("8.8.8.0/24", "US")])
        mapped = [make_record(orig_h="::ffff:10.1.2.3", resp_h="::ffff:8.8.8.8")]
        plain = [make_record(orig_h="10.1.2.3", resp_h="8.8.8.8")]
        vocab = fit_vocab(plain, table)
        assert vocab.categories["orig_country"] == ("LAN",) and vocab.categories["resp_country"] == ("US",)
        got, _ = matrix_from_records(table_of(mapped), table, vocab)
        want, _ = matrix_from_records(table_of(plain), table, vocab)
        assert got.tobytes() == want.tobytes()

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "cidr.csv"
        path.write_text("cidr,country\n8.8.8.0/24,US\n1.2.0.0/16,AU\n")
        table = CidrTable.from_csv(path)
        assert table.country("1.2.3.4") == "AU"

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "cidr.csv"
        path.write_text("prefix,cc\n8.8.8.0/24,US\n")
        with pytest.raises(DataError, match="cidr.csv"):
            CidrTable.from_csv(path)


def encode_one_hot(vocab, feature, values):
    """The len(values) x width indicator block that matrix_from_records
    writes for one feature."""
    block = np.zeros((len(values), vocab.width(feature)))
    _write_one_hot(block, vocab, feature, values)
    return block


class TestOneHot:
    def test_first_seen_order(self):
        vocab = fit_one_hot({"proto": ["tcp", "udp", "tcp"]})
        assert vocab.categories["proto"] == ("tcp", "udp")

    def test_unknown_is_first_class_category(self):
        vocab = fit_one_hot({"service": ["unknown", "dns"]})
        assert "unknown" in vocab.categories["service"]
        np.testing.assert_array_equal(encode_one_hot(vocab, "service", ["unknown"])[0], [1.0, 0.0])

    def test_refit_identical(self):
        columns = {"proto": ["tcp", "udp", "icmp", "tcp"]}
        assert fit_one_hot(columns) == fit_one_hot(columns)

    def test_encode_known(self):
        vocab = fit_one_hot({"proto": ["tcp", "udp"]})
        np.testing.assert_array_equal(encode_one_hot(vocab, "proto", ["tcp"])[0], [1.0, 0.0])

    def test_encode_unseen_is_zeros_with_warning(self, caplog):
        # _write_one_hot counts the row; matrix_from_records logs the count
        vocab = fit_one_hot({"proto": ["tcp", "udp"]})
        block = np.zeros((1, 2))
        assert _write_one_hot(block, vocab, "proto", ["icmp"]) == 1
        np.testing.assert_array_equal(block[0], [0.0, 0.0])
        with caplog.at_level(logging.WARNING, logger="iotids.features"):
            matrix_from_records(table_of([make_record(proto="icmp")]), TABLE, fit_vocab([make_record()], TABLE))
        assert any("unseen category" in r.message for r in caplog.records)

    def test_encode_positional(self):
        vocab = fit_one_hot({"x": ["a", "b", "c"]})
        np.testing.assert_array_equal(encode_one_hot(vocab, "x", ["c"])[0], [0.0, 0.0, 1.0])

    def test_sum_property(self):
        vocab = fit_one_hot({"x": list("abcd")})
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

    def test_matches_three_array_formula_and_keeps_input(self):
        # the in-place transform against the formula it replaced, with constant
        # columns, values outside the fitted range, NaN and infinities
        rng = np.random.default_rng(8)
        train = rng.normal(size=(30, 6))
        train[:, [1, 4]] = 3.0
        params = fit_min_max(train)
        matrix = rng.normal(scale=2.0, size=(50, 6))
        matrix[rng.random(size=matrix.shape) < 0.05] = np.nan
        matrix[0, :3], matrix[1, 3:] = np.inf, -np.inf
        before = matrix.copy()
        span = params.x_max - params.x_min
        expected = np.clip(np.where(span == 0.0, 0.0, (matrix - params.x_min) / np.where(span == 0.0, 1.0, span)),
                           0.0, 1.0)
        got = transform_min_max(params, matrix)
        assert got.tobytes() == expected.tobytes()
        assert matrix.tobytes() == before.tobytes()

    def test_column_mismatch(self):
        params = fit_min_max(np.zeros((2, 3)))
        with pytest.raises(ColumnMismatch):
            transform_min_max(params, np.zeros((2, 4)))


class TestFeatureMatrix:
    def test_empty_dataset_keeps_schema_width(self):
        vocab = fit_vocab([make_record()], TABLE)
        values, schema = matrix_from_records(table_of([]), TABLE, vocab)
        assert values.shape == (0, schema.width)

    def test_two_row_matrix_hand_assembled(self):
        r1 = make_record()  # private orig, global US resp, udp/dns/SF
        r2 = make_record(orig_h="10.0.0.9", resp_h="1.2.3.4", proto="tcp",
                         service="http", conn_state="S0", orig_p=1, resp_p=2,
                         duration=4.0, orig_bytes=8, resp_bytes=16, local_orig=False,
                         local_resp=True, missed_bytes=1, orig_pkts=3,
                         orig_ip_bytes=5, resp_pkts=7, resp_ip_bytes=9)
        vocab = fit_vocab([r1, r2], TABLE)
        values, schema = matrix_from_records(table_of([r1, r2]), TABLE, vocab)
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
        vocab = fit_vocab(records, TABLE)
        a_values, a_schema = matrix_from_records(table_of(records), TABLE, vocab)
        b_values, b_schema = matrix_from_records(table_of(records), TABLE, vocab)
        np.testing.assert_array_equal(a_values, b_values)
        assert a_schema == b_schema

    def test_column_order_is_schema_function(self):
        records = [make_record(), make_record(proto="tcp")]
        vocab = fit_vocab(records, TABLE)
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
        vocab = fit_vocab(records, TABLE)
        raw, _ = matrix_from_records(table_of(records), TABLE, vocab)
        params = fit_min_max(raw)
        scaled, _ = matrix_from_records(table_of(records), TABLE, vocab, params)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0


_LINEAR_PRIVATE = [ipaddress.ip_network(p) for p in (
    "10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16", "127.0.0.0/8", "169.254.0.0/16", "fc00::/7", "::1/128", "fe80::/10",
)]


_MAPPED = ipaddress.ip_network("::ffff:0:0/96")


def linear_ip(address):
    """Reference address parse: an address in ::ffff:0:0/96 is the IPv4
    address in its low 32 bits."""
    ip = ipaddress.ip_address(address)
    return ipaddress.IPv4Address(int(ip) & 0xFFFFFFFF) if ip in _MAPPED else ip


def linear_is_private(address):
    """Reference scope test: the address against every private network."""
    ip = linear_ip(address)
    return any(network.version == ip.version and ip in network for network in _LINEAR_PRIVATE)


def linear_country(table, address):
    """Reference CIDR lookup: a scan of every entry, the longest prefix
    winning and the first entry among equal networks."""
    ip = linear_ip(address)
    best, best_len = None, -1
    for network, country in table.entries:
        if network.version == ip.version and ip in network and network.prefixlen > best_len:
            best, best_len = country, network.prefixlen
    return best if best is not None else "unknown"


def per_record_matrix(records, table, vocabulary, params=None):
    """Reference encoder: one record at a time, each address parsed for its
    scope and again for its country, one indicator vector per value."""

    def encode(record):
        row = [float(v) if v is not None else 0.0 for v in (record[f] for f in NUMERIC_FIELDS)]
        row += [0.0 if linear_is_private(a) else 1.0 for a in (record["orig_h"], record["resp_h"])]
        values = {
            "proto": record["proto"],
            "service": record["service"] or "unknown",
            "conn_state": record["conn_state"],
            "orig_country": linear_country(table, record["orig_h"]),
            "resp_country": linear_country(table, record["resp_h"]),
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
        return fit_vocab(self.TRAIN, ORACLE_TABLE)

    def test_bitwise_equal_to_per_record_encoder(self):
        vocab = self.vocab()
        raw_train, _ = matrix_from_records(table_of(self.TRAIN), ORACLE_TABLE, vocab)
        assert raw_train.tobytes() == per_record_matrix(self.TRAIN, ORACLE_TABLE, vocab).tobytes()
        params = fit_min_max(raw_train)
        for records in (self.TRAIN, self.TEST, self.TRAIN + self.TEST, []):
            raw, _ = matrix_from_records(table_of(records), ORACLE_TABLE, vocab)
            scaled, _ = matrix_from_records(table_of(records), ORACLE_TABLE, vocab, params)
            assert raw.shape == (len(records), build_schema(vocab).width)
            assert raw.tobytes() == per_record_matrix(records, ORACLE_TABLE, vocab).tobytes()
            assert scaled.tobytes() == per_record_matrix(records, ORACLE_TABLE, vocab, params).tobytes()

    def test_each_unseen_feature_is_an_all_zero_block(self):
        vocab = self.vocab()
        raw, schema = matrix_from_records(table_of(self.TEST), ORACLE_TABLE, vocab)
        names = schema.names()
        for row, feature in zip(raw, CATEGORICAL_FIELDS):
            block = [j for j, n in enumerate(names) if n.startswith(feature + "=")]
            assert row[block].sum() == 0.0, feature

    def test_each_address_parsed_once(self, monkeypatch):
        # dotted quads take the array path; every other distinct address
        # goes through _parse_ip exactly once
        vocab = self.vocab()
        records = self.TRAIN + self.TEST + self.TRAIN
        calls = []
        parse = features._parse_ip
        monkeypatch.setattr(features, "_parse_ip", lambda a: calls.append(a) or parse(a))
        matrix_from_records(table_of(records), ORACLE_TABLE, vocab)
        assert sorted(calls) == sorted({a for r in records for a in (r["orig_h"], r["resp_h"]) if ":" in a})

    def test_unseen_values_give_one_counted_warning(self, caplog):
        vocab = fit_vocab([make_record()], TABLE)
        records = [make_record(proto=p) for p in ("icmp", "udp", "gre", "icmp")]
        with caplog.at_level(logging.WARNING, logger="iotids.features"):
            matrix_from_records(table_of(records), TABLE, vocab)
        warnings = [r.getMessage() for r in caplog.records if "unseen category" in r.getMessage()]
        assert len(warnings) == 1
        assert "3 rows" in warnings[0] and "'proto'" in warnings[0]


def _cidr_corpus(rng):
    """A 1,000-entry table with nested prefixes, networks listed twice with
    different countries and IPv6 entries, and addresses that hit it at every
    depth, miss it, or are IPv6 or IPv4-mapped IPv6."""
    bases = [int(rng.integers(0, 2**32)) for _ in range(60)] + [0x08080808, 0x0A000001, 0xC0A80105]
    entries = []
    while len(entries) < 900:
        base = bases[int(rng.integers(0, len(bases)))]
        prefixlen = int(rng.choice([8, 12, 16, 20, 23, 24, 28, 31, 32]))
        network = ipaddress.ip_network((base >> (32 - prefixlen) << (32 - prefixlen), prefixlen))
        entries.append((str(network), f"C{len(entries) % 37}"))
        if rng.random() < 0.1:
            entries.append((str(network), f"D{len(entries)}"))  # duplicate network, later entry loses
    for k in range(100 - (len(entries) - 900)):
        v6 = ["2001:db8::/32", f"2001:db8:{k:x}::/48", "::ffff:0:0/96", f"::ffff:{k % 256}.0.0.0/104",
              "fe80::/10", "2001:db8::/32"][k % 6]
        entries.append((v6, f"V{k % 5}"))
    table = CidrTable.from_rows(entries[:1000])
    assert len(table.entries) == 1000
    addresses = []
    for _ in range(400):
        base = bases[int(rng.integers(0, len(bases)))]
        near = (base ^ int(rng.integers(0, 2 ** int(rng.integers(0, 33))))) & 0xFFFFFFFF
        addresses.append(str(ipaddress.IPv4Address(near)))
    addresses += ["0.0.0.0", "255.255.255.255", "172.31.255.255", "172.32.0.0", "169.254.1.1", "127.0.0.1",
                  "2001:db8::5", "2001:db8:3::1", "2001:db8:ffff::1", "fe80::1", "::1", "fc00::5", "2a00::1",
                  "::ffff:8.8.8.8", "::ffff:10.1.2.3", "::ffff:7.1.2.3"]
    return table, addresses


class TestScopeCountryEquivalence:
    def test_matches_linear_lookup(self):
        rng = np.random.default_rng(2024)
        table, addresses = _cidr_corpus(rng)
        records = [make_record(orig_h=addresses[int(rng.integers(0, len(addresses)))],
                               resp_h=addresses[int(rng.integers(0, len(addresses)))]) for _ in range(600)]
        records += [make_record(orig_h=a, resp_h=addresses[-1 - i]) for i, a in enumerate(addresses)]
        vocab = fit_vocab(records, table)
        raw, _ = matrix_from_records(table_of(records), table, vocab)
        assert raw.tobytes() == per_record_matrix(records, table, vocab).tobytes()
        countries = [linear_country(table, a) for a in addresses]
        assert [table.country(a) for a in addresses] == countries
        # the corpus reaches nested hits, IPv4 and IPv6 misses and the IPv6 entries
        assert len(set(countries)) > 20 and any(c.startswith("V") for c in countries)
        assert "unknown" in countries[:400] and "unknown" in countries[400:]
        assert not any(c.startswith("D") for c in countries)  # a duplicate network never wins
        assert [ip_scope(a) for a in addresses] == ["private" if linear_is_private(a) else "global" for a in addresses]
        catch_all = CidrTable.from_rows([("0.0.0.0/0", "ANY"), ("8.0.0.0/8", "XX"), ("::/0", "ANY6")])
        assert [catch_all.country(a) for a in addresses] == [linear_country(catch_all, a) for a in addresses]

    @pytest.mark.parametrize("bad", ["10.0.0.256", "01.2.3.4", "1.2.3", "1.2.3.4 ", "１.2.3.4", "host", ""])
    def test_first_bad_address_raises(self, bad):
        table, addresses = _cidr_corpus(np.random.default_rng(7))
        records = [make_record(orig_h=a, resp_h="::ffff:1.2.3.4") for a in addresses[:50]]
        records[30] = make_record(resp_h=bad)
        records[40] = make_record(orig_h="999.1.1.1")
        vocab = fit_vocab(records[:30], table)
        with pytest.raises(BadIpSyntax) as exc:
            matrix_from_records(table_of(records), table, vocab)
        assert exc.value.address == bad


class TestRangedFeaturize:
    """matrix_from_records over row ranges in forked workers gives the
    serial call's bytes, warnings and errors."""

    def corpus(self, rows=300):
        table, addresses = _cidr_corpus(np.random.default_rng(11))
        rng = np.random.default_rng(12)
        records = [make_record(orig_h=addresses[int(rng.integers(0, len(addresses)))],
                               resp_h=addresses[int(rng.integers(0, len(addresses)))],
                               proto=["tcp", "udp", "icmp", "gre"][int(rng.integers(0, 4))],
                               service=[None, "", "dns", "http", "ssh"][int(rng.integers(0, 5))],
                               conn_state=["SF", "S0", "REJ"][int(rng.integers(0, 3))],
                               duration=[None, 0.5, 2.0][int(rng.integers(0, 3))]) for _ in range(rows)]
        # a vocabulary of two plain rows, so every feature has unseen categories
        return table_of(records), table, fit_vocab([make_record(), make_record(proto="tcp", service="http")], table)

    def featurize(self, monkeypatch, cpus, *args, min_range_s):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(parallel, "MIN_RANGE_S", min_range_s)
        return matrix_from_records(*args)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_same_bytes_and_one_warning_per_feature(self, monkeypatch, caplog, cpus, scaled):
        rows, table, vocab = self.corpus()
        args = [rows, table, vocab]
        if scaled:
            args.append(fit_min_max(matrix_from_records(rows, table, vocab)[0][:50]))
        records = {}
        for name, workers, min_range_s in [("serial", 1, parallel.MIN_RANGE_S), ("ranged", cpus, 1e-12)]:
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="iotids.features"):
                values, schema = self.featurize(monkeypatch, workers, *args, min_range_s=min_range_s)
            records[name] = values.tobytes(), schema, [r.getMessage() for r in caplog.records]
        assert records["ranged"] == records["serial"]
        warnings = records["serial"][2]
        assert [w.split("feature ")[1] for w in warnings] == [f"{f!r} encoded as all zeros" for f in
                                                               ("proto", "service", "conn_state", "orig_country",
                                                                "resp_country")]
        assert all(int(w.split()[0]) > 1 for w in warnings)  # counts summed over the ranges

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("at", [10, 150, 290])
    def test_bad_address_in_any_range_is_the_serial_error(self, monkeypatch, cpus, at):
        rows, table, vocab = self.corpus()
        rows.columns["resp_h"][at] = "10.0.0.256"
        rows.columns["orig_h"][200] = "999.1.1.1"
        with pytest.raises(BadIpSyntax) as serial:
            self.featurize(monkeypatch, 1, rows, table, vocab, min_range_s=parallel.MIN_RANGE_S)
        with pytest.raises(BadIpSyntax) as ranged:
            self.featurize(monkeypatch, cpus, rows, table, vocab, min_range_s=1e-12)
        assert ranged.value.address == serial.value.address == ("999.1.1.1" if at == 290 else "10.0.0.256")

    def test_small_tables_stay_in_this_process(self, monkeypatch):
        rows, table, vocab = self.corpus()
        pids = []
        monkeypatch.setattr(features, "_fill_rows", lambda *args: pids.append(os.getpid()) or [0] * 5)
        self.featurize(monkeypatch, 4, rows, table, vocab, min_range_s=parallel.MIN_RANGE_S)
        assert pids == [os.getpid()]


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

    def test_no_rows_is_empty_matrix(self):
        with pytest.raises(EmptyMatrix):
            permutation_importance(_ThresholdModel(), np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_same_seed_same_report(self):
        X = np.random.default_rng(2).random((30, 3))
        y = (X[:, 0] > 0.5).astype(np.int64)
        a = permutation_importance(_ThresholdModel(), X, y, repeats=2, seed=5)
        b = permutation_importance(_ThresholdModel(), X, y, repeats=2, seed=5)
        np.testing.assert_array_equal(a.per_repeat, b.per_repeat)
