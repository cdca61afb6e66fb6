"""Unit tests for repro.metric.permutations."""

import numpy as np
import pytest

from repro.exceptions import PivotError
from repro.metric.permutations import (
    inverse_permutation,
    pivot_permutation,
    pivot_permutations,
    prefix_promise,
)


class TestPivotPermutation:
    def test_orders_by_distance(self):
        perm = pivot_permutation(np.array([3.0, 1.0, 2.0]))
        assert perm.tolist() == [1, 2, 0]

    def test_ties_broken_by_index(self):
        # paper's rule: equal distances -> smaller pivot index first
        perm = pivot_permutation(np.array([2.0, 1.0, 1.0, 2.0]))
        assert perm.tolist() == [1, 2, 0, 3]

    def test_empty_rejected(self):
        with pytest.raises(PivotError):
            pivot_permutation(np.array([]))

    def test_matrix_form_matches_rowwise(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(10, 6))
        perms = pivot_permutations(matrix)
        for i in range(10):
            assert perms[i].tolist() == pivot_permutation(matrix[i]).tolist()

    def test_dtype_is_int32(self):
        assert pivot_permutation(np.array([1.0, 0.5])).dtype == np.int32


class TestInverse:
    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        perm = rng.permutation(9)
        inv = inverse_permutation(perm)
        assert perm[inv[perm]].tolist() == perm.tolist()
        for pivot in range(9):
            assert perm[inv[pivot]] == pivot

    def test_rejects_non_permutation(self):
        with pytest.raises(PivotError):
            inverse_permutation(np.array([0, 0, 1]))
        with pytest.raises(PivotError):
            inverse_permutation(np.array([0, 3]))


class TestPrefixPromise:
    def test_perfect_prefix_scores_zero(self):
        query_perm = np.array([3, 1, 0, 2])
        ranks = inverse_permutation(query_perm)
        assert prefix_promise(ranks, (3, 1)) == 0.0

    def test_worse_prefix_scores_higher(self):
        query_perm = np.array([3, 1, 0, 2])
        ranks = inverse_permutation(query_perm)
        good = prefix_promise(ranks, (3,))
        bad = prefix_promise(ranks, (2,))
        assert bad > good

    def test_level_decay_discounts_later_levels(self):
        query_perm = np.array([0, 1, 2, 3])
        ranks = inverse_permutation(query_perm)
        # displacement at level 0 vs the same displacement at level 1
        first_level = prefix_promise(ranks, (1,), level_decay=0.5)
        second_level = prefix_promise(ranks, (0, 2), level_decay=0.5)
        assert second_level < first_level

    def test_empty_prefix_rejected(self):
        with pytest.raises(PivotError):
            prefix_promise(np.array([0, 1]), ())

    def test_invalid_decay_rejected(self):
        with pytest.raises(PivotError):
            prefix_promise(np.array([0, 1]), (0,), level_decay=0.0)
