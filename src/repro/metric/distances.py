"""Distance functions over numeric vectors.

All distances operate on one-dimensional :class:`numpy.ndarray` vectors of
``float64`` and expose three entry points:

* ``d(x, y)`` — single pair, returns a Python ``float``;
* ``d.batch(q, X)`` — one query against the rows of a matrix ``X``,
  returns a ``float64`` vector. The batch form is what the index hot
  paths use; it must be numerically identical to the pairwise form.
* ``d.pairwise(Q, X)`` — every row of ``Q`` against every row of ``X``,
  returns a ``(len(Q), len(X))`` matrix. The batched query engine uses
  it to compute all query–pivot distances of a batch in one call; row
  ``i`` must be bit-identical to ``d.batch(Q[i], X)`` so batched and
  single-query searches return the same answers.

The :class:`WeightedCombination` distance mirrors the structure of the
CoPhIR metric used in the paper: five MPEG-7 sub-descriptors living in
disjoint coordinate blocks of a 280-dimensional vector, each compared with
its own (cheap) metric, combined by a weighted sum. A weighted sum of
metrics over fixed coordinate blocks is itself a metric.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import MetricError

__all__ = [
    "Distance",
    "L1Distance",
    "ManhattanDistance",
    "L2Distance",
    "EuclideanDistance",
    "MinkowskiDistance",
    "ChebyshevDistance",
    "CosineDistance",
    "CanberraDistance",
    "WeightedCombination",
    "get_distance",
]


#: what one broadcast temporary of a serial :meth:`Distance.pairwise`
#: kernel call (``rows x len(xs) x dim`` float64) is held to: enough
#: rows to amortize the call, few enough that the temporaries stay in
#: cache and are reused by the allocator rather than returned to the OS
_BLOCK_BYTES = 256 * 1024


def _as_vector(x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise MetricError(f"expected a 1-D vector, got shape {arr.shape}")
    return arr


def _check_same_dim(x: np.ndarray, y: np.ndarray) -> None:
    if x.shape[0] != y.shape[0]:
        raise MetricError(
            f"dimensionality mismatch: {x.shape[0]} vs {y.shape[0]}"
        )


class Distance:
    """Base class for metric distance functions.

    Subclasses implement :meth:`_pair` and (optionally, for speed)
    :meth:`_batch`. ``name`` identifies the distance in serialized
    configurations and table output.
    """

    #: short identifier used by :func:`get_distance` and config files
    name = "abstract"

    #: rough relative cost of one evaluation; only used by documentation
    #: and cost-model sanity checks, never by the algorithms themselves.
    relative_cost = 1.0

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        x = _as_vector(x)
        y = _as_vector(y)
        _check_same_dim(x, y)
        return float(self._pair(x, y))

    def batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Distances from ``q`` to every row of ``xs``."""
        q = _as_vector(q)
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim == 1:
            xs = xs.reshape(1, -1)
        if xs.shape[1] != q.shape[0]:
            raise MetricError(
                f"dimensionality mismatch: query {q.shape[0]} vs "
                f"matrix rows {xs.shape[1]}"
            )
        return self._batch(q, xs)

    def pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Distance matrix between the rows of ``qs`` and the rows of
        ``xs``; ``pairwise(Q, X)[i] == batch(Q[i], X)`` bit for bit.

        The matrix is computed in blocks of query rows into one
        preallocated output, each block as many rows as keep the
        kernels' broadcast temporaries (``rows x len(xs) x dim`` each)
        within :data:`_BLOCK_BYTES` — a size the allocator reuses,
        instead of tens of megabytes per call that go back to the OS
        and fault in again on the next. Every ``_pairwise``
        implementation reduces strictly per row (sum/max over the
        trailing axis), so a row block of the full kernel is the same
        floating-point program as the corresponding rows of one
        whole-matrix call — the split preserves the bit-for-bit
        contract.
        """
        qs = np.asarray(qs, dtype=np.float64)
        xs = np.asarray(xs, dtype=np.float64)
        if qs.ndim == 1:
            qs = qs.reshape(1, -1)
        if xs.ndim == 1:
            xs = xs.reshape(1, -1)
        if qs.shape[1] != xs.shape[1]:
            raise MetricError(
                f"dimensionality mismatch: queries {qs.shape[1]} vs "
                f"matrix rows {xs.shape[1]}"
            )
        out = np.empty((qs.shape[0], xs.shape[0]), dtype=np.float64)
        block = max(1, _BLOCK_BYTES // (8 * max(1, xs.size)))
        for start in range(0, qs.shape[0], block):
            stop = start + block
            out[start:stop] = self._pairwise(qs[start:stop], xs)
        return out

    # -- implementation hooks ------------------------------------------

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        raise NotImplementedError

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.array([self._pair(q, row) for row in xs], dtype=np.float64)

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        # Row-by-row fallback: trivially bit-identical to _batch.
        # Subclasses override only with kernels that keep the same
        # per-row reduction order (sum/max over the trailing axis).
        return np.stack([self._batch(q, xs) for q in qs])

    # -- misc -----------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        """Equality key; subclasses with parameters override this."""
        return ()


class L1Distance(Distance):
    """Manhattan / city-block distance; the YEAST and HUMAN metric."""

    name = "l1"

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.abs(x - y).sum())

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs - q).sum(axis=1)

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs[None, :, :] - qs[:, None, :]).sum(axis=2)


#: Alias matching the common name.
ManhattanDistance = L1Distance


class L2Distance(Distance):
    """Euclidean distance."""

    name = "l2"

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        diff = x - y
        return float(np.sqrt(np.dot(diff, diff)))

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        diff = xs - q
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        diff = xs[None, :, :] - qs[:, None, :]
        return np.sqrt(np.einsum("qij,qij->qi", diff, diff))


#: Alias matching the common name.
EuclideanDistance = L2Distance


class MinkowskiDistance(Distance):
    """General Lp distance for ``p >= 1`` (p < 1 violates the triangle
    inequality and is rejected)."""

    name = "lp"

    def __init__(self, p: float) -> None:
        if p < 1:
            raise MetricError(f"Lp with p={p} < 1 is not a metric")
        self.p = float(p)

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.abs(x - y).__pow__(self.p).sum() ** (1.0 / self.p))

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return (np.abs(xs - q) ** self.p).sum(axis=1) ** (1.0 / self.p)

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        diff = np.abs(xs[None, :, :] - qs[:, None, :])
        return (diff ** self.p).sum(axis=2) ** (1.0 / self.p)

    def _key(self) -> tuple:
        return (self.p,)

    def __repr__(self) -> str:  # pragma: no cover
        return f"MinkowskiDistance(p={self.p})"


class ChebyshevDistance(Distance):
    """L-infinity distance: the maximum coordinate difference."""

    name = "linf"

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.abs(x - y).max())

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs - q).max(axis=1)

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return np.abs(xs[None, :, :] - qs[:, None, :]).max(axis=2)


class CosineDistance(Distance):
    """Angular distance ``arccos(cos_similarity) / pi``, a proper metric
    on the unit sphere, normalized into [0, 1]."""

    name = "cosine"
    relative_cost = 1.5

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        nx = np.linalg.norm(x)
        ny = np.linalg.norm(y)
        if nx == 0.0 or ny == 0.0:
            raise MetricError("cosine distance undefined for zero vectors")
        cos = np.clip(np.dot(x, y) / (nx * ny), -1.0, 1.0)
        return float(np.arccos(cos) / np.pi)

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        nq = np.linalg.norm(q)
        norms = np.linalg.norm(xs, axis=1)
        if nq == 0.0 or np.any(norms == 0.0):
            raise MetricError("cosine distance undefined for zero vectors")
        cos = np.clip(xs @ q / (norms * nq), -1.0, 1.0)
        return np.arccos(cos) / np.pi


class CanberraDistance(Distance):
    """Canberra distance; a weighted L1 variant, metric on positives."""

    name = "canberra"
    relative_cost = 2.0

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        denom = np.abs(x) + np.abs(y)
        num = np.abs(x - y)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0.0, num / denom, 0.0)
        return float(terms.sum())

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        denom = np.abs(xs) + np.abs(q)
        num = np.abs(xs - q)
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0.0, num / denom, 0.0)
        return terms.sum(axis=1)

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        denom = np.abs(xs[None, :, :]) + np.abs(qs[:, None, :])
        num = np.abs(xs[None, :, :] - qs[:, None, :])
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(denom > 0.0, num / denom, 0.0)
        return terms.sum(axis=2)


class WeightedCombination(Distance):
    """Weighted sum of sub-distances over disjoint coordinate blocks.

    Mirrors the CoPhIR metric: each MPEG-7 descriptor occupies a block of
    the concatenated vector and is compared with its own metric; the
    global distance is ``sum_i w_i * d_i(x[block_i], y[block_i])``.

    Parameters
    ----------
    components:
        Sequence of ``(distance, start, stop, weight)`` tuples. Blocks
        must not overlap; together they need not cover the full vector.
    """

    name = "combined"
    relative_cost = 5.0

    def __init__(
        self, components: Sequence[tuple[Distance, int, int, float]]
    ) -> None:
        if not components:
            raise MetricError("WeightedCombination needs at least one component")
        spans: list[tuple[int, int]] = []
        for dist, start, stop, weight in components:
            if stop <= start or start < 0:
                raise MetricError(f"invalid block [{start}, {stop})")
            if weight <= 0:
                raise MetricError(f"component weight must be positive: {weight}")
            for s, e in spans:
                if start < e and s < stop:
                    raise MetricError("component blocks must be disjoint")
            spans.append((start, stop))
            if not isinstance(dist, Distance):
                raise MetricError("component distance must be a Distance")
        self.components = tuple(
            (dist, int(start), int(stop), float(weight))
            for dist, start, stop, weight in components
        )

    @property
    def dimension(self) -> int:
        """Smallest vector length the combination can be applied to."""
        return max(stop for _, _, stop, _ in self.components)

    def _pair(self, x: np.ndarray, y: np.ndarray) -> float:
        total = 0.0
        for dist, start, stop, weight in self.components:
            total += weight * dist._pair(x[start:stop], y[start:stop])
        return total

    def _batch(self, q: np.ndarray, xs: np.ndarray) -> np.ndarray:
        total = np.zeros(xs.shape[0], dtype=np.float64)
        for dist, start, stop, weight in self.components:
            total += weight * dist._batch(q[start:stop], xs[:, start:stop])
        return total

    def _pairwise(self, qs: np.ndarray, xs: np.ndarray) -> np.ndarray:
        total = np.zeros((qs.shape[0], xs.shape[0]), dtype=np.float64)
        for dist, start, stop, weight in self.components:
            total += weight * dist.pairwise(
                qs[:, start:stop], xs[:, start:stop]
            )
        return total

    def _key(self) -> tuple:
        return tuple(
            (dist, start, stop, weight)
            for dist, start, stop, weight in self.components
        )


_REGISTRY: dict[str, type[Distance]] = {
    "l1": L1Distance,
    "manhattan": L1Distance,
    "l2": L2Distance,
    "euclidean": L2Distance,
    "linf": ChebyshevDistance,
    "chebyshev": ChebyshevDistance,
    "cosine": CosineDistance,
    "canberra": CanberraDistance,
}


def get_distance(name: str, **kwargs) -> Distance:
    """Instantiate a distance by its registry ``name``.

    ``get_distance("lp", p=3)`` builds a Minkowski distance; parameterless
    distances accept no keyword arguments.
    """
    if name == "lp":
        return MinkowskiDistance(**kwargs)
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise MetricError(f"unknown distance: {name!r}") from None
    if kwargs:
        raise MetricError(f"distance {name!r} takes no parameters")
    return cls()
