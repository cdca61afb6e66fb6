"""Pivot permutations (§4.1 of the paper) and the cell promise.

For an object ``o`` and pivots ``p_1 .. p_n``, the pivot permutation is
the sequence of pivot *indices* ordered by increasing distance to ``o``,
with ties broken by pivot index — exactly the paper's definition:

    ``(i)_o < (j)_o  <=>  d(p_(i)o, o) < d(p_(j)o, o)
                          or (equal and (i)o's index smaller)``

Permutations are represented as ``int32`` numpy arrays where
``perm[rank] = pivot_index``. The *inverse* permutation maps
``pivot_index -> rank`` and is what the M-Index cell-promise computation
consumes.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PivotError

__all__ = [
    "pivot_permutation",
    "pivot_permutations",
    "inverse_permutation",
    "prefix_promise",
]


def pivot_permutation(distances: np.ndarray) -> np.ndarray:
    """Permutation of pivot indices ordered by increasing distance.

    ``distances[i]`` is ``d(o, p_i)``. Ties are broken by pivot index;
    numpy's stable sort provides exactly that ordering.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.shape[0] == 0:
        raise PivotError(f"expected non-empty 1-D distances, got {d.shape}")
    return np.argsort(d, kind="stable").astype(np.int32)


def pivot_permutations(distance_matrix: np.ndarray) -> np.ndarray:
    """Row-wise pivot permutations for a ``(n_objects, n_pivots)`` matrix.

    The server's ``insert_bulk`` path derives all permutations of a
    batch through this one call.
    """
    m = np.asarray(distance_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] == 0:
        raise PivotError(f"expected a 2-D distance matrix, got {m.shape}")
    return np.argsort(m, axis=1, kind="stable").astype(np.int32)


def inverse_permutation(permutation: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[pivot_index] = rank``."""
    perm = np.asarray(permutation, dtype=np.int64)
    _validate(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv.astype(np.int32)


def prefix_promise(
    query_ranks: np.ndarray, prefix: tuple[int, ...], *, level_decay: float = 0.75
) -> float:
    """Promise value of a Voronoi cell for a query (lower = more promising).

    The M-Index approximate search visits cells ordered by a heuristic
    "promise". We score a cell whose identifier is the pivot-index tuple
    ``prefix`` by a damped generalized footrule against the query's
    permutation: the rank the query assigns to the cell's level-``l``
    pivot, discounted by ``level_decay**l`` so that the first-level pivot
    dominates (it defines the Voronoi cell) and deeper levels refine.

    Parameters
    ----------
    query_ranks:
        Inverse permutation of the query (``query_ranks[pivot] = rank``).
    prefix:
        The cell identifier (tuple of pivot indices, level 1 first).
    level_decay:
        Geometric damping factor in (0, 1].
    """
    if not prefix:
        raise PivotError("cell prefix must be non-empty")
    if not 0.0 < level_decay <= 1.0:
        raise PivotError(f"level_decay must be in (0, 1], got {level_decay}")
    score = 0.0
    weight = 1.0
    for level, pivot in enumerate(prefix):
        displacement = abs(int(query_ranks[pivot]) - level)
        score += weight * displacement
        weight *= level_decay
    return score


def _validate(perm: np.ndarray) -> None:
    if perm.ndim != 1:
        raise PivotError(f"permutation must be 1-D, got shape {perm.shape}")
    n = perm.shape[0]
    if n == 0:
        raise PivotError("permutation must be non-empty")
    seen = np.zeros(n, dtype=bool)
    for value in perm:
        if value < 0 or value >= n or seen[value]:
            raise PivotError(f"not a permutation of 0..{n - 1}: {perm}")
        seen[value] = True

