"""Answer checking against brute force — feeds ``failed`` and ``recall``.

Every object the benchmark ever stores is a row of one ``catalog``
matrix and its oid is the row number, so the true distance of any hit
is one subtraction away and a live set is a boolean mask over rows.

The program sums |x - y| in its own order, so true distances are
compared within ``TOLERANCE`` (relative) and an object that close to a
range query's radius may fall on either side.
"""

from __future__ import annotations

import hashlib

import numpy as np

TOLERANCE = 1e-9


def l1(query: np.ndarray, points: np.ndarray) -> np.ndarray:
    """True L1 distances from ``query`` to every row of ``points``."""
    return np.abs(points - query).sum(axis=1)


def _close(measured: np.ndarray, true: np.ndarray) -> bool:
    return bool(
        np.all(np.abs(measured - true) <= TOLERANCE * np.maximum(1.0, true))
    )


def as_arrays(hits) -> tuple[np.ndarray, np.ndarray]:
    """(oids, distances) of a ``SearchHit`` list."""
    oids = np.fromiter((hit.oid for hit in hits), np.int64, len(hits))
    distances = np.fromiter(
        (hit.distance for hit in hits), np.float64, len(hits)
    )
    return oids, distances


def _hits_are_true(oids, distances, query, catalog) -> str | None:
    """Structural checks every search answer must pass."""
    if len(oids) and (oids.min() < 0 or oids.max() >= len(catalog)):
        return "an oid nobody inserted"
    if len(np.unique(oids)) != len(oids):
        return "duplicate oids"
    if not _close(distances, l1(query, catalog[oids])):
        return "a hit's distance is not its true distance"
    order = np.lexsort((oids, distances))
    if not np.array_equal(order, np.arange(len(oids))):
        return "hits not sorted by (distance, oid)"
    return None


def check_knn(
    oids, distances, query, catalog, live, k, possible=None
) -> tuple[str | None, float]:
    """(what is wrong or None, recall@k) of one k-NN answer.

    ``live`` masks the rows certainly stored when the query ran and
    ``possible`` (default: every row) the ones that may have been.
    Recall is against the true ``k`` nearest live rows; an approximate
    answer may miss some, so only a hit outside ``possible``, a wrong
    distance, a wrong order or a short answer is a failure.
    """
    problem = _hits_are_true(oids, distances, query, catalog)
    if problem is None and possible is not None:
        if oids.max(initial=0) >= len(possible) or not possible[oids].all():
            problem = "a hit outside the live set"
    rows = np.flatnonzero(live)
    if problem is None and len(oids) != min(k, len(rows)):
        problem = f"{len(oids)} hits for k={k}"
    true = l1(query, catalog[rows])
    nearest = rows[np.argpartition(true, min(k, len(rows)) - 1)[:k]]
    recall = len(np.intersect1d(oids, nearest)) / max(1, len(nearest))
    return problem, recall


def check_range(
    oids, distances, query, radius, catalog, certain, possible
) -> str | None:
    """What is wrong with one range answer, or None.

    Every ``certain`` row within the radius must be there, and nothing
    outside ``possible`` or outside the radius ever may.
    """
    problem = _hits_are_true(oids, distances, query, catalog)
    if problem is not None:
        return problem
    true = l1(query, catalog)
    slack = TOLERANCE * max(1.0, radius)
    must = np.flatnonzero(certain & (true <= radius - slack))
    may = possible & (true <= radius + slack)
    if not np.all(may[oids]):
        return "an object outside the radius or the live set"
    if len(np.setdiff1d(must, oids)):
        return "an object within the radius is missing"
    return None


class Digest:
    """SHA-256 over every answer, in op order."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def add(self, kind: str, oids=(), distances=(), value: int = 0) -> None:
        self._sha.update(kind.encode())
        self._sha.update(np.asarray(oids, np.int64).tobytes())
        self._sha.update(np.asarray(distances, np.float64).tobytes())
        self._sha.update(int(value).to_bytes(8, "little", signed=True))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _require(condition, message: str) -> None:
    # not ``assert``: the self-check must also bite under ``python -O``
    if not condition:
        raise AssertionError(message)


def self_check() -> None:
    """Show that the checker bites: corrupted answers must be refused."""
    rng = np.random.default_rng(0)
    catalog = rng.normal(size=(500, 8))
    live = np.ones(500, dtype=bool)
    query = rng.normal(size=8)
    true = l1(query, catalog)
    order = np.lexsort((np.arange(500), true))
    oids, distances = order[:10].astype(np.int64), true[order[:10]]
    problem, recall = check_knn(oids, distances, query, catalog, live, 10)
    _require(problem is None and recall == 1.0, "a correct k-NN answer failed")
    wrong_distance = distances.copy()
    wrong_distance[3] *= 1.0 + 1e-6
    swapped = oids.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    for bad_oids, bad_distances in (
        (oids, wrong_distance),
        (swapped, distances),
        (oids[:9], distances[:9]),
    ):
        problem, _ = check_knn(
            bad_oids, bad_distances, query, catalog, live, 10
        )
        _require(problem is not None, "a corrupted k-NN answer passed")
    far = order[10:20].astype(np.int64)
    _, recall = check_knn(far, true[far], query, catalog, live, 10)
    _require(recall == 0.0, "recall did not see a wrong neighbour set")

    radius = float(true[order[24]] + true[order[25]]) / 2.0
    inside = order[:25].astype(np.int64)
    extra = order[:26].astype(np.int64)
    dead = live.copy()
    dead[inside[0]] = False
    _require(
        check_range(inside, true[inside], query, radius, catalog, live, live)
        is None,
        "a correct range answer failed",
    )
    for bad, certain, possible in (
        (inside[:-1], live, live),  # one missing
        (extra, live, live),  # one beyond the radius
        (inside, dead, dead),  # one that was deleted
    ):
        problem = check_range(
            bad, true[bad], query, radius, catalog, certain, possible
        )
        _require(problem is not None, "a corrupted range answer passed")
