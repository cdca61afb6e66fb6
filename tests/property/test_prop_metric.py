"""Property-based tests for the metric substrate: permutations and
distances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metric.distances import (
    ChebyshevDistance,
    L1Distance,
    L2Distance,
    MinkowskiDistance,
)
from repro.metric.permutations import inverse_permutation, pivot_permutation

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def vectors(dim):
    return arrays(np.float64, (dim,), elements=finite_floats)


_DISTANCES = [
    L1Distance(),
    L2Distance(),
    ChebyshevDistance(),
    MinkowskiDistance(3),
]


@settings(max_examples=60, deadline=None)
@given(
    x=vectors(6),
    y=vectors(6),
    z=vectors(6),
    dist_index=st.integers(min_value=0, max_value=len(_DISTANCES) - 1),
)
def test_metric_postulates(x, y, z, dist_index):
    d = _DISTANCES[dist_index]
    dxy = d(x, y)
    assert dxy >= 0.0
    assert d(x, x) == 0.0
    assert dxy == d(y, x)
    assert dxy <= d(x, z) + d(z, y) + 1e-6 * max(1.0, dxy)


@settings(max_examples=60, deadline=None)
@given(
    distances=arrays(
        np.float64,
        (8,),
        elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
)
def test_pivot_permutation_is_valid_and_sorted(distances):
    perm = pivot_permutation(distances)
    assert sorted(perm.tolist()) == list(range(8))
    sorted_values = distances[perm]
    assert np.all(np.diff(sorted_values) >= 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_inverse_permutation_property(seed):
    perm = np.random.default_rng(seed).permutation(10)
    inv = inverse_permutation(perm)
    identity = np.arange(10)
    np.testing.assert_array_equal(inv[perm], identity)
    np.testing.assert_array_equal(perm[inv], identity)
