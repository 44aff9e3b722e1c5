"""Clustering metric tests, each checked against an independent oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_accuracy, direct_entropy_nmi, pair_counting_ari
from stdac.errors import ShapeError
from stdac.metrics import ari, clustering_accuracy, contingency_table, nmi

labelings = st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40)


def relabel(labels, rng):
    """Random bijection on the label alphabet."""
    labels = np.asarray(labels)
    k = labels.max() + 1
    perm = rng.permutation(k)
    return perm[labels]


class TestContingencyTable:
    def test_identical_partitions_are_diagonal(self):
        table = contingency_table([0, 0, 1, 1], [0, 0, 1, 1])
        np.testing.assert_array_equal(table, [[2, 0], [0, 2]])

    def test_constant_pred_gives_truth_marginals(self):
        table = contingency_table([0, 0, 0, 0], [0, 1, 1, 2])
        np.testing.assert_array_equal(table, [[1, 2, 1]])

    def test_pair_enumeration_oracle_50_points(self, rng):
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 5, size=50)
        table = contingency_table(pred, truth)
        assert table.sum() == 50
        # pairs sharing both labels, from the table and by direct enumeration
        from_table = sum(c * (c - 1) // 2 for c in table.reshape(-1))
        direct = sum(1 for i in range(50) for j in range(i + 1, 50)
                     if pred[i] == pred[j] and truth[i] == truth[j])
        assert from_table == direct

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            contingency_table([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            contingency_table([], [])


class TestClusteringAccuracy:
    def test_identical_is_one(self):
        assert clustering_accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_flipped_binary_is_one(self):
        assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_frozen_three_cluster_example(self):
        assert clustering_accuracy([0, 0, 1, 2], [1, 1, 0, 0]) == pytest.approx(0.75)
        assert brute_force_accuracy([0, 0, 1, 2], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_matches_brute_force_on_200_random_instances(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 61))
            pred = rng.integers(0, int(rng.integers(1, 7)), size=n)
            truth = rng.integers(0, int(rng.integers(1, 7)), size=n)
            assert clustering_accuracy(pred, truth) == brute_force_accuracy(pred, truth)

    def test_rectangular_contingency_both_directions(self):
        # more predicted clusters than true ones and vice versa
        assert clustering_accuracy([0, 1, 2, 3], [0, 0, 1, 1]) == pytest.approx(0.5)
        assert clustering_accuracy([0, 0, 1, 1], [0, 1, 2, 3]) == pytest.approx(0.5)

    @given(labelings, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariance(self, labels, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        truth = rng.integers(0, 3, size=len(labels))
        base = clustering_accuracy(labels, truth)
        assert clustering_accuracy(relabel(labels, rng), truth) == base
        assert clustering_accuracy(labels, relabel(truth, rng)) == base


class TestNmi:
    def test_identical_partitions_exactly_one(self):
        assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0
        # relabeled copies too: still one nonzero cell per row and column
        assert nmi([2, 0, 1, 2], [0, 1, 2, 0]) == 1.0

    def test_constant_pred_is_zero(self):
        assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_independent_partitions_are_zero(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)

    def test_both_constant_is_one(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0

    def test_matches_direct_entropy_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 80))
            pred = rng.integers(0, 5, size=n)
            truth = rng.integers(0, 4, size=n)
            assert nmi(pred, truth) == pytest.approx(direct_entropy_nmi(pred, truth),
                                                     abs=1e-12)

    @given(labelings, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariance_and_range(self, labels, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        truth = rng.integers(0, 3, size=len(labels))
        value = nmi(labels, truth)
        assert 0.0 <= value <= 1.0
        assert nmi(relabel(labels, rng), truth) == pytest.approx(value, abs=1e-12)


class TestAri:
    def test_identical_partitions_exactly_one(self):
        assert ari([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_single_cluster_pred_is_zero(self):
        assert ari([0, 0, 0, 0], [0, 1, 2, 0]) == 0.0
        assert pair_counting_ari([0, 0, 0, 0], [0, 1, 2, 0]) == 0.0

    def test_frozen_example_equals_pair_counting_oracle(self):
        got = ari([0, 0, 1, 2], [1, 1, 0, 0])
        assert got == pytest.approx(pair_counting_ari([0, 0, 1, 2], [1, 1, 0, 0]),
                                    abs=1e-15)

    def test_matches_pair_counting_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 60))
            pred = rng.integers(0, 5, size=n)
            truth = rng.integers(0, 4, size=n)
            assert ari(pred, truth) == pytest.approx(pair_counting_ari(pred, truth),
                                                     abs=1e-12)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ShapeError):
            ari([0], [0])

    @given(labelings, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_invariance_and_range(self, labels, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        truth = rng.integers(0, 3, size=len(labels))
        value = ari(labels, truth)
        assert -1.0 <= value <= 1.0
        assert ari(relabel(labels, rng), truth) == pytest.approx(value, abs=1e-12)
