"""Metric-space substrate: distances, pivots, permutations.

This package provides everything the M-Index family of structures needs
from the underlying metric space ``(D, d)``:

* :mod:`repro.metric.distances` — distance functions (L1, L2, general Lp,
  Chebyshev, cosine, Canberra and weighted combinations in the style of
  the CoPhIR MPEG-7 metric),
* :mod:`repro.metric.space` — :class:`MetricSpace` with distance-call
  accounting and metric-postulate validation,
* :mod:`repro.metric.pivots` — pivot (reference object) selection,
* :mod:`repro.metric.permutations` — pivot permutations as defined in §4.1
  of the paper and the cell promise of the approximate search.
"""

from repro.metric.distances import (
    CanberraDistance,
    ChebyshevDistance,
    CosineDistance,
    Distance,
    EuclideanDistance,
    L1Distance,
    L2Distance,
    ManhattanDistance,
    MinkowskiDistance,
    WeightedCombination,
    get_distance,
)
from repro.metric.permutations import (
    pivot_permutation,
    pivot_permutations,
    prefix_promise,
)
from repro.metric.pivots import select_pivots
from repro.metric.space import MetricSpace, check_metric_postulates
from repro.metric.strings import GenericMetricSpace, levenshtein

__all__ = [
    "CanberraDistance",
    "ChebyshevDistance",
    "CosineDistance",
    "Distance",
    "EuclideanDistance",
    "GenericMetricSpace",
    "L1Distance",
    "L2Distance",
    "ManhattanDistance",
    "MetricSpace",
    "MinkowskiDistance",
    "WeightedCombination",
    "check_metric_postulates",
    "get_distance",
    "levenshtein",
    "pivot_permutation",
    "pivot_permutations",
    "prefix_promise",
    "select_pivots",
]
