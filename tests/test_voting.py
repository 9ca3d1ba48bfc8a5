"""Hard-voting hybrids and the array vote against an exhaustive mode-with-priority oracle."""

import itertools

import numpy as np
import pytest

from iotids.errors import SchemaMismatch, WidthMismatch
from iotids.voting import build_hybrid, vote


class FixedModel:
    """Member that always predicts one class; enough for voting mechanics."""

    def __init__(self, label, n_features=3, n_classes=2):
        self.label = label
        self.n_features = n_features
        self.n_classes = n_classes

    def predict(self, X):
        return np.full(X.shape[0], self.label, dtype=np.int64)


def oracle(votes, n_classes):
    """Independent restatement: strict modal winner, else the earliest
    member whose vote belongs to the tied set."""
    counts = [0] * n_classes
    for v in votes:
        counts[v] += 1
    top = max(counts)
    tied = [c for c in range(n_classes) if counts[c] == top]
    if len(tied) == 1:
        return tied[0]
    for v in votes:
        if v in tied:
            return v
    raise AssertionError


X1 = np.zeros((1, 3))


def binary_ensemble(votes):
    return build_hybrid("binary", [FixedModel(v) for v in votes])


def multi_ensemble(votes):
    return build_hybrid("multiclass", [FixedModel(v, n_classes=7) for v in votes])


class TestBinaryHybrid:
    def test_unanimous_malicious(self):
        assert binary_ensemble([1, 1, 1, 1]).predict(X1)[0] == 1

    def test_two_two_tie_goes_to_rf(self):
        assert binary_ensemble([1, 1, 0, 0]).predict(X1)[0] == 1
        assert binary_ensemble([0, 1, 0, 1]).predict(X1)[0] == 0

    def test_all_sixteen_combinations_match_oracle(self):
        for votes in itertools.product([0, 1], repeat=4):
            got = binary_ensemble(list(votes)).predict(X1)[0]
            assert got == oracle(votes, 2), votes

    def test_member_order_is_rf_gbm_svm_knn(self):
        ens = binary_ensemble([0, 1, 1, 0])
        assert ens.member_names == ["rf", "gbm", "svm", "knn"]


class TestMulticlassHybrid:
    def test_forced_majority(self):
        assert multi_ensemble([2, 2, 3]).predict(X1)[0] == 2

    def test_three_way_split_goes_to_rf(self):
        assert multi_ensemble([2, 3, 5]).predict(X1)[0] == 2

    def test_unanimous_benign(self):
        assert multi_ensemble([0, 0, 0]).predict(X1)[0] == 0

    def test_all_343_combinations_match_oracle(self):
        for votes in itertools.product(range(7), repeat=3):
            got = multi_ensemble(list(votes)).predict(X1)[0]
            assert got == oracle(votes, 7), votes


class TestVoteProperties:
    @pytest.mark.parametrize("members, n_classes", [(3, 7), (4, 2)])
    def test_every_vote_tuple_matches_oracle(self, members, n_classes):
        tuples = list(itertools.product(range(n_classes), repeat=members))
        got = vote(np.array(tuples).T)  # members x rows, one row per tuple
        assert got.tolist() == [oracle(t, n_classes) for t in tuples]

    def test_identical_members_equal_member_prediction(self):
        members = [FixedModel(1) for _ in range(4)]
        ens = build_hybrid("binary", members)
        X = np.zeros((5, 3))
        np.testing.assert_array_equal(ens.predict(X), members[0].predict(X))

    def test_duplication_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            votes = list(rng.integers(0, 7, 3))
            single = vote(np.array(votes)[:, None])[0]
            doubled = vote(np.array(votes + votes)[:, None])[0]
            assert single == doubled

    def test_member_permutation_changes_only_tied_rows(self):
        for votes in itertools.product([0, 1], repeat=4):
            counts = [votes.count(0), votes.count(1)]
            original = oracle(votes, 2)
            for perm in itertools.permutations(votes):
                permuted = oracle(perm, 2)
                if counts[0] != counts[1]:
                    assert permuted == original  # untied: order irrelevant


class TestComposition:
    def test_width_disagreement_rejected(self):
        with pytest.raises(SchemaMismatch):
            build_hybrid("binary", [FixedModel(0, n_features=3), FixedModel(0, n_features=4),
                                    FixedModel(0), FixedModel(0)])

    def test_class_count_disagreement_rejected(self):
        with pytest.raises(SchemaMismatch):
            build_hybrid("multiclass", [FixedModel(0, n_classes=7), FixedModel(0, n_classes=7),
                                        FixedModel(0, n_classes=2)])

    def test_needs_two_members(self):
        with pytest.raises(SchemaMismatch):
            build_hybrid("binary", [FixedModel(0)])

    def test_vote_width_mismatch(self):
        ens = binary_ensemble([0, 1, 1, 0])
        with pytest.raises(WidthMismatch):
            ens.predict(np.zeros((2, 5)))
