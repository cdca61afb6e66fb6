"""The search protocol: the method names the paper's three searches
travel under, and the one request layout each of them has.

A search — approximate k-NN (Algorithm 4), range (Algorithm 3) or
transformed range (§6) — is served in three *forms*, each under its own
RPC method name (:data:`FORMS`, the first three fields of a
:class:`Search`):

``single``
    one query; the answer is one candidate table in rank order;
``batch``
    a matrix of queries; the answer is one deduplicated table plus each
    query's rows of it (:func:`~repro.wire.scatter.read_candidate_lists`
    reads both answers, the single one as a batch of one);
``scatter``
    the batch request, byte for byte, answered by a shard with its
    per-leaf candidate groups for the router to merge.

The request of a search has one layout::

    k-NN               i32 permutations | u32 cand_size | u32 max_cells
    range              f64 distances    | f64 radius
    transformed range  f64 lows         | f64 highs

where the queries are a shape-prefixed matrix, one row per query — and,
in the single form, that matrix's one row as a length-prefixed array. A
single query is a batch of one on every layer, so each search has one
writer and one reader, both told which form they are looking at, and the
reader always hands back matrices. ``max_cells`` 0 means no limit.

Client, server, router and the retry layer's read-only set all take the
method names from :data:`SEARCHES`; none of them spells one out.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.exceptions import ProtocolError, QueryError
from repro.wire.encoding import Reader, Writer

__all__ = [
    "FORMS",
    "KNN",
    "RANGE",
    "RANGE_TRANSFORMED",
    "SEARCHES",
    "SEARCH_METHODS",
    "Search",
]


def _write_queries(
    write_array: Callable, write_matrix: Callable, queries, single: bool
) -> None:
    """Append a query matrix with the writer's matrix codec — in the
    single form its one row, with the array codec."""
    if not single:
        write_matrix(queries)
    elif len(queries) != 1:
        raise ProtocolError(
            f"a single-query request carries one query, got {len(queries)}"
        )
    else:
        write_array(queries[0])


def _read_queries(
    read_array: Callable, read_matrix: Callable, single: bool
) -> np.ndarray:
    """Decode what :func:`_write_queries` wrote, as a matrix either
    way.

    The row count of a matrix comes from outside and is what every
    layer below loops over and allocates by; with at least one column
    the bytes present bound it, without any nothing does, so rows of no
    columns are refused here.
    """
    if single:
        return read_array()[np.newaxis, :]
    queries = read_matrix()
    if queries.shape[0] and not queries.shape[1]:
        raise ProtocolError(
            f"query matrix announces {queries.shape[0]} rows of no columns"
        )
    return queries


def _write_knn_request(
    permutations: np.ndarray,
    cand_size: int,
    max_cells: int | None = None,
    *,
    single: bool = False,
) -> Writer:
    writer = Writer()
    _write_queries(writer.i32_array, writer.i32_matrix, permutations, single)
    return writer.u32(cand_size).u32(max_cells if max_cells is not None else 0)


def _read_knn_request(
    reader: Reader, *, single: bool = False
) -> tuple[tuple, dict]:
    permutations = _read_queries(reader.i32_array, reader.i32_matrix, single)
    cand_size = reader.u32()
    max_cells = reader.u32()
    reader.expect_end()
    if cand_size == 0:
        raise QueryError("cand_size must be positive")
    return (permutations,), {
        "cand_size": cand_size,
        "max_cells": max_cells if max_cells > 0 else None,
    }


def _write_range_request(
    distances: np.ndarray, radius: float, *, single: bool = False
) -> Writer:
    writer = Writer()
    _write_queries(writer.f64_array, writer.f64_matrix, distances, single)
    return writer.f64(radius)


def _read_range_request(
    reader: Reader, *, single: bool = False
) -> tuple[tuple, dict]:
    distances = _read_queries(reader.f64_array, reader.f64_matrix, single)
    radius = reader.f64()
    reader.expect_end()
    return (distances,), {"radius": radius}


def _write_range_transformed_request(
    lows: np.ndarray, highs: np.ndarray, *, single: bool = False
) -> Writer:
    writer = Writer()
    _write_queries(writer.f64_array, writer.f64_matrix, lows, single)
    _write_queries(writer.f64_array, writer.f64_matrix, highs, single)
    return writer


def _read_range_transformed_request(
    reader: Reader, *, single: bool = False
) -> tuple[tuple, dict]:
    lows = _read_queries(reader.f64_array, reader.f64_matrix, single)
    highs = _read_queries(reader.f64_array, reader.f64_matrix, single)
    reader.expect_end()
    return (lows, highs), {}


#: the forms a search is served in — the :class:`Search` fields that
#: hold their method names, in field order
FORMS = ("single", "batch", "scatter")


class Search(NamedTuple):
    """One search on the wire: its method name in each form, and its
    request codec.

    ``write_request(*queries, single=..., **options)`` encodes query
    matrices (one row each when ``single``) and the search's options;
    ``read_request(reader, single=...)`` decodes the whole body back
    into ``(queries, options)`` — matrices in both forms, options keyed
    like the keyword arguments of the
    :class:`~repro.mindex.index.MIndex` searches — so a request read in
    one form can be written in the other.
    """

    single: str
    batch: str
    scatter: str
    write_request: Callable[..., Writer]
    read_request: Callable[..., tuple[tuple, dict]]

    def method(self, single: bool) -> str:
        """The method a client sends its request under."""
        return self.single if single else self.batch


KNN = Search(
    "approx_knn",
    "knn_batch",
    "knn_scatter",
    _write_knn_request,
    _read_knn_request,
)
RANGE = Search(
    "range",
    "range_batch",
    "range_scatter",
    _write_range_request,
    _read_range_request,
)
RANGE_TRANSFORMED = Search(
    "range_transformed",
    "range_transformed_batch",
    "range_transformed_scatter",
    _write_range_transformed_request,
    _read_range_transformed_request,
)

SEARCHES = (KNN, RANGE, RANGE_TRANSFORMED)

#: every search method name, all forms
SEARCH_METHODS = frozenset(
    getattr(search, form) for search in SEARCHES for form in FORMS
)
