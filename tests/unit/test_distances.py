"""Unit tests for repro.metric.distances."""

import numpy as np
import pytest

from repro.exceptions import MetricError
from repro.metric import distances
from repro.metric.distances import (
    CanberraDistance,
    ChebyshevDistance,
    CosineDistance,
    L1Distance,
    L2Distance,
    MinkowskiDistance,
    WeightedCombination,
    get_distance,
)


class TestL1:
    def test_known_value(self):
        d = L1Distance()
        assert d(np.array([1.0, 2.0]), np.array([4.0, 0.0])) == 5.0

    def test_zero_for_identical(self):
        d = L1Distance()
        x = np.array([3.0, -1.0, 2.5])
        assert d(x, x) == 0.0

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(0)
        d = L1Distance()
        q = rng.normal(size=7)
        xs = rng.normal(size=(20, 7))
        batch = d.batch(q, xs)
        for i in range(20):
            assert batch[i] == pytest.approx(d(q, xs[i]))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(MetricError):
            L1Distance()(np.zeros(3), np.zeros(4))

    def test_non_vector_raises(self):
        with pytest.raises(MetricError):
            L1Distance()(np.zeros((2, 2)), np.zeros((2, 2)))


class TestL2:
    def test_known_value(self):
        d = L2Distance()
        assert d(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(1)
        d = L2Distance()
        q = rng.normal(size=5)
        xs = rng.normal(size=(15, 5))
        np.testing.assert_allclose(
            d.batch(q, xs), [d(q, x) for x in xs], rtol=1e-12
        )


class TestMinkowski:
    def test_p1_equals_l1(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert MinkowskiDistance(1)(x, y) == pytest.approx(L1Distance()(x, y))

    def test_p2_equals_l2(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert MinkowskiDistance(2)(x, y) == pytest.approx(L2Distance()(x, y))

    def test_p_below_one_rejected(self):
        with pytest.raises(MetricError):
            MinkowskiDistance(0.5)

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(4)
        d = MinkowskiDistance(3)
        q = rng.normal(size=4)
        xs = rng.normal(size=(10, 4))
        np.testing.assert_allclose(
            d.batch(q, xs), [d(q, x) for x in xs], rtol=1e-12
        )

    def test_equality_depends_on_p(self):
        assert MinkowskiDistance(3) == MinkowskiDistance(3)
        assert MinkowskiDistance(3) != MinkowskiDistance(4)


class TestChebyshev:
    def test_known_value(self):
        d = ChebyshevDistance()
        assert d(np.array([1.0, 5.0]), np.array([2.0, 1.0])) == 4.0

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(5)
        d = ChebyshevDistance()
        q = rng.normal(size=6)
        xs = rng.normal(size=(12, 6))
        np.testing.assert_allclose(d.batch(q, xs), [d(q, x) for x in xs])


class TestCosine:
    def test_parallel_vectors_zero(self):
        d = CosineDistance()
        x = np.array([1.0, 2.0, 3.0])
        assert d(x, 2.5 * x) == pytest.approx(0.0, abs=1e-7)

    def test_opposite_vectors_one(self):
        d = CosineDistance()
        x = np.array([1.0, 0.0])
        assert d(x, -x) == pytest.approx(1.0)

    def test_orthogonal_half(self):
        d = CosineDistance()
        assert d(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            0.5
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(MetricError):
            CosineDistance()(np.zeros(3), np.ones(3))

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(6)
        d = CosineDistance()
        q = rng.normal(size=5) + 3
        xs = rng.normal(size=(9, 5)) + 3
        np.testing.assert_allclose(
            d.batch(q, xs), [d(q, x) for x in xs], rtol=1e-10
        )


class TestCanberra:
    def test_known_value(self):
        d = CanberraDistance()
        # |1-3|/(1+3) + |2-2|/(2+2) = 0.5
        assert d(np.array([1.0, 2.0]), np.array([3.0, 2.0])) == pytest.approx(
            0.5
        )

    def test_both_zero_coordinate_ignored(self):
        d = CanberraDistance()
        assert d(np.array([0.0, 1.0]), np.array([0.0, 1.0])) == 0.0

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(7)
        d = CanberraDistance()
        q = np.abs(rng.normal(size=5))
        xs = np.abs(rng.normal(size=(9, 5)))
        np.testing.assert_allclose(d.batch(q, xs), [d(q, x) for x in xs])


class TestWeightedCombination:
    def test_weighted_sum_of_blocks(self):
        d = WeightedCombination(
            [(L1Distance(), 0, 2, 2.0), (L2Distance(), 2, 4, 1.0)]
        )
        x = np.array([1.0, 1.0, 0.0, 0.0])
        y = np.array([0.0, 0.0, 3.0, 4.0])
        assert d(x, y) == pytest.approx(2.0 * 2.0 + 5.0)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(MetricError):
            WeightedCombination(
                [(L1Distance(), 0, 3, 1.0), (L2Distance(), 2, 5, 1.0)]
            )

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            WeightedCombination([])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(MetricError):
            WeightedCombination([(L1Distance(), 0, 2, 0.0)])

    def test_batch_matches_pairwise(self):
        rng = np.random.default_rng(10)
        d = WeightedCombination(
            [(L1Distance(), 0, 3, 1.5), (L2Distance(), 3, 6, 0.5)]
        )
        q = rng.normal(size=6)
        xs = rng.normal(size=(11, 6))
        np.testing.assert_allclose(
            d.batch(q, xs), [d(q, x) for x in xs], rtol=1e-12
        )

    def test_dimension_property(self):
        d = WeightedCombination([(L1Distance(), 2, 7, 1.0)])
        assert d.dimension == 7


def _every_distance(dim):
    return [
        L1Distance(),
        L2Distance(),
        MinkowskiDistance(3),
        ChebyshevDistance(),
        CosineDistance(),
        CanberraDistance(),
        WeightedCombination(
            [(L1Distance(), 0, 6, 1.5), (L2Distance(), 6, dim, 0.5)]
        ),
    ]


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 1000])
@pytest.mark.parametrize(
    "distance", _every_distance(16), ids=lambda distance: distance.name
)
def test_pairwise_rows_equal_batch_bit_for_bit(distance, rows):
    """The contract of ``Distance.pairwise`` — row ``i`` is
    ``batch(Q[i], X)`` bit for bit — on either side of a row-block
    boundary: against 32 x 16 objects a serial block is 64 query rows."""
    rng = np.random.default_rng(rows)
    xs = np.abs(rng.normal(size=(32, 16))) + 0.1
    qs = np.abs(rng.normal(size=(rows, 16))) + 0.1
    assert distances._BLOCK_BYTES // (8 * xs.size) == 64
    matrix = distance.pairwise(qs, xs)
    assert matrix.shape == (rows, 32)
    for q, row in zip(qs, matrix):
        assert np.array_equal(row, distance.batch(q, xs))


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_distance("l1"), L1Distance)
        assert isinstance(get_distance("euclidean"), L2Distance)
        assert isinstance(get_distance("linf"), ChebyshevDistance)

    def test_lp_with_parameter(self):
        d = get_distance("lp", p=3)
        assert isinstance(d, MinkowskiDistance)
        assert d.p == 3

    def test_unknown_name_raises(self):
        with pytest.raises(MetricError):
            get_distance("no-such-distance")

    def test_unexpected_kwargs_raise(self):
        with pytest.raises(MetricError):
            get_distance("l1", p=2)
