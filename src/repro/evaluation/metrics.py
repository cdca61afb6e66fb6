"""Result-quality metrics: brute-force ground truth and recall (§4.1)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import EvaluationError
from repro.metric.distances import Distance

__all__ = ["exact_knn", "exact_range", "recall"]


def exact_knn(
    distance: Distance, data: np.ndarray, query: np.ndarray, k: int
) -> list[int]:
    """Ground-truth k-NN object ids (row indices) by brute force."""
    if k <= 0:
        raise EvaluationError(f"k must be positive, got {k}")
    data = np.asarray(data, dtype=np.float64)
    distances = distance.batch(query, data)
    k = min(k, data.shape[0])
    # argsort with stable tie-break on index, matching SearchHit sorting
    order = np.lexsort((np.arange(data.shape[0]), distances))
    return [int(i) for i in order[:k]]


def exact_range(
    distance: Distance, data: np.ndarray, query: np.ndarray, radius: float
) -> list[int]:
    """Ground-truth range-query object ids by brute force."""
    if not radius >= 0:
        raise EvaluationError(f"radius must be >= 0, got {radius}")
    data = np.asarray(data, dtype=np.float64)
    distances = distance.batch(query, data)
    return [int(i) for i in np.nonzero(distances <= radius)[0]]


def recall(result: Sequence[int], truth: Sequence[int]) -> float:
    """``|A ∩ A_P| / |A_P| * 100%`` — the paper's recall definition."""
    truth_set = set(truth)
    if not truth_set:
        raise EvaluationError("ground truth is empty")
    return 100.0 * len(set(result) & truth_set) / len(truth_set)
