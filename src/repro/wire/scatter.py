"""Wire codecs for the sharded cluster's scatter–gather protocol.

A shard cannot apply the global kNN stopping rule (it only sees its own
prefix range), so scatter responses carry *per-leaf candidate groups*
tagged with the ordering keys the single-server search loop uses —
``(promise, prefix)`` for kNN, the top-level pivot for range scans. The
client-side router interleaves the groups of every shard into the exact
single-server visit order, replays the stopping rule, and reproduces the
single-server candidate stream bit for bit (asserted in
``tests/unit/test_shard_router.py`` and ``bench_shard_scaling.py``).

Like the batched search responses, each scatter response deduplicates
payloads: every unique ``(oid, payload)`` travels once in a table and
groups reference it by index, so a record surfacing in several queries'
groups costs its bytes once.

Also here: the shard-map codec (``u32 n_shards`` + the
pivot→shard assignment column), the cell-dump codec used by equivalence
benchmarks to fingerprint a remote index's cell tree, and the candidate
writers shared by the single-server handlers and the router (moved from
``core/server.py`` so both sides emit byte-identical responses through
one implementation).
"""

from __future__ import annotations

import numpy as np

from repro.core.records import CandidateEntry, IndexedRecord
from repro.exceptions import ProtocolError
from repro.wire.encoding import Reader, Writer

__all__ = [
    "KnnScatterGroup",
    "RangeScatterGroup",
    "read_candidate_table",
    "read_cell_dump",
    "read_knn_scatter_response",
    "read_range_scatter_response",
    "read_shard_map",
    "read_stats_map",
    "write_candidate_lists",
    "write_candidates",
    "write_cell_dump",
    "write_knn_scatter_response",
    "write_range_scatter_response",
    "write_shard_map",
    "write_stats_map",
]


class KnnScatterGroup:
    """One visited leaf of a shard-local kNN search: the global ordering
    key ``(promise, prefix)`` plus this leaf's scored candidates as
    indices into the response's unique table."""

    __slots__ = ("promise", "prefix", "indices", "scores")

    def __init__(
        self,
        promise: float,
        prefix: tuple[int, ...],
        indices: np.ndarray,
        scores: np.ndarray,
    ) -> None:
        self.promise = promise
        self.prefix = prefix
        self.indices = indices
        self.scores = scores


class RangeScatterGroup:
    """One top-level-pivot run of a shard-local range scan: the top
    pivot (``-1`` while the shard's root has not split) plus filtered
    candidates, in leaf order, as indices into the unique table."""

    __slots__ = ("top_pivot", "indices")

    def __init__(self, top_pivot: int, indices: np.ndarray) -> None:
        self.top_pivot = top_pivot
        self.indices = indices


# -- candidate writers (shared single-server / router) --------------------


def write_candidates(candidates: list[IndexedRecord]) -> Writer:
    """Encode a candidate set: only oid + opaque payload go back."""
    writer = Writer()
    writer.u32(len(candidates))
    for record in candidates:
        CandidateEntry(record.oid, record.payload).write_to(writer)
    return writer


def read_candidate_table(reader: Reader) -> tuple[list[int], list[bytes]]:
    """Decode a counted (oid, payload) table — a whole
    :func:`write_candidates` response, or the unique table that opens a
    batch or scatter response — as two columns in wire order."""
    oids: list[int] = []
    payloads: list[bytes] = []
    for _ in range(reader.u32()):
        oids.append(reader.u64())
        payloads.append(reader.blob())
    return oids, payloads


def write_candidate_lists(
    candidate_lists: list[list[IndexedRecord]],
) -> Writer:
    """Encode a batch of candidate sets with cross-query deduplication.

    Candidate sets of a batch overlap heavily (nearby queries visit the
    same cells), so each unique (oid, payload) travels once; every query
    then gets a list of indices into that table, in its rank order. The
    client decrypts the unique table once instead of once per query.
    """
    writer = Writer()
    order: dict[int, int] = {}
    uniques: list[IndexedRecord] = []
    index_lists: list[list[int]] = []
    for records in candidate_lists:
        indices: list[int] = []
        for record in records:
            position = order.get(record.oid)
            if position is None:
                position = len(uniques)
                order[record.oid] = position
                uniques.append(record)
            indices.append(position)
        index_lists.append(indices)
    writer.u32(len(uniques))
    for record in uniques:
        writer.u64(record.oid)
        writer.blob(record.payload)
    writer.u32(len(index_lists))
    for indices in index_lists:
        writer.i32_array(indices)
    return writer


# -- scatter responses ----------------------------------------------------


def _write_unique_table(writer, group_lists, records_of):
    """Dedup every record reachable through ``group_lists`` into a
    (oid, payload) table, returning oid→index for group encoding."""
    order: dict[int, int] = {}
    uniques: list = []
    for groups in group_lists:
        for group in groups:
            for record in records_of(group):
                if record.oid not in order:
                    order[record.oid] = len(uniques)
                    uniques.append(record)
    writer.u32(len(uniques))
    for record in uniques:
        writer.u64(record.oid)
        writer.blob(record.payload)
    return order


def _read_unique_table(reader: Reader) -> list[CandidateEntry]:
    return [
        CandidateEntry(oid, payload)
        for oid, payload in zip(*read_candidate_table(reader))
    ]


def write_knn_scatter_response(
    query_groups: list[list[tuple]],
) -> Writer:
    """Encode per-query kNN leaf groups.

    ``query_groups[q]`` is a list of ``(promise, prefix, records,
    scores)`` tuples in this shard's visit order, as produced by
    :meth:`MIndex.approx_knn_scatter_batch`.
    """
    writer = Writer()
    order = _write_unique_table(
        writer, query_groups, lambda group: group[2]
    )
    writer.u32(len(query_groups))
    for groups in query_groups:
        writer.u32(len(groups))
        for promise, prefix, records, scores in groups:
            writer.f64(promise)
            writer.i32_array(np.asarray(prefix, dtype=np.int32))
            writer.i32_array(
                np.asarray([order[r.oid] for r in records], dtype=np.int32)
            )
            writer.f64_array(np.asarray(scores, dtype=np.float64))
    return writer


def read_knn_scatter_response(
    reader: Reader,
) -> tuple[list[CandidateEntry], list[list[KnnScatterGroup]]]:
    """Decode a kNN scatter response into its unique table and the
    per-query ordered leaf groups."""
    uniques = _read_unique_table(reader)
    queries = []
    for _ in range(reader.u32()):
        groups = []
        for _ in range(reader.u32()):
            promise = reader.f64()
            prefix = tuple(int(p) for p in reader.i32_array())
            indices = reader.i32_array()
            scores = reader.f64_array()
            if indices.shape[0] != scores.shape[0]:
                raise ProtocolError(
                    "scatter group indices and scores disagree: "
                    f"{indices.shape[0]} != {scores.shape[0]}"
                )
            groups.append(KnnScatterGroup(promise, prefix, indices, scores))
        queries.append(groups)
    reader.expect_end()
    return uniques, queries


def write_range_scatter_response(
    query_groups: list[list[tuple]],
) -> Writer:
    """Encode per-query range-scan groups.

    ``query_groups[q]`` is a list of ``(top_pivot, records)`` tuples in
    this shard's leaf order; ``top_pivot`` is ``-1`` for records still
    sitting in an unsplit root (encoded with a +1 offset so the column
    stays unsigned).
    """
    writer = Writer()
    order = _write_unique_table(
        writer, query_groups, lambda group: group[1]
    )
    writer.u32(len(query_groups))
    for groups in query_groups:
        writer.u32(len(groups))
        for top_pivot, records in groups:
            writer.u32(top_pivot + 1)
            writer.i32_array(
                np.asarray([order[r.oid] for r in records], dtype=np.int32)
            )
    return writer


def read_range_scatter_response(
    reader: Reader,
) -> tuple[list[CandidateEntry], list[list[RangeScatterGroup]]]:
    """Decode a range scatter response into its unique table and the
    per-query ordered pivot groups."""
    uniques = _read_unique_table(reader)
    queries = []
    for _ in range(reader.u32()):
        groups = []
        for _ in range(reader.u32()):
            top_pivot = reader.u32() - 1
            indices = reader.i32_array()
            groups.append(RangeScatterGroup(top_pivot, indices))
        queries.append(groups)
    reader.expect_end()
    return uniques, queries


# -- shard map ------------------------------------------------------------


def write_shard_map(n_shards: int, assignment) -> Writer:
    """Encode a shard map: shard count plus the pivot→shard column."""
    writer = Writer()
    writer.u32(n_shards)
    writer.i32_array(np.asarray(assignment, dtype=np.int32))
    return writer


def read_shard_map(reader: Reader) -> tuple[int, np.ndarray]:
    """Decode a shard map written by :func:`write_shard_map`."""
    n_shards = reader.u32()
    assignment = reader.i32_array()
    if n_shards == 0:
        raise ProtocolError("shard map must name at least one shard")
    if assignment.shape[0] == 0:
        raise ProtocolError("shard map must cover at least one pivot")
    if assignment.min() < 0 or assignment.max() >= n_shards:
        raise ProtocolError(
            f"shard assignment out of range for {n_shards} shards"
        )
    return n_shards, assignment


# -- cell dump ------------------------------------------------------------


def write_cell_dump(cells: list[tuple[tuple[int, ...], list]]) -> Writer:
    """Encode a cell-tree content dump: per non-empty leaf, its prefix
    and the stored ``(oid, payload)`` pairs. Diagnostics surface used by
    equivalence benches to fingerprint a remote index."""
    writer = Writer()
    writer.u32(len(cells))
    for prefix, records in cells:
        writer.i32_array(np.asarray(prefix, dtype=np.int32))
        writer.u32(len(records))
        for record in records:
            writer.u64(record.oid)
            writer.blob(record.payload)
    return writer


def read_cell_dump(
    reader: Reader,
) -> dict[tuple[int, ...], list[tuple[int, bytes]]]:
    """Decode a cell dump into ``{prefix: [(oid, payload), ...]}``."""
    cells: dict[tuple[int, ...], list[tuple[int, bytes]]] = {}
    for _ in range(reader.u32()):
        prefix = tuple(int(p) for p in reader.i32_array())
        cells[prefix] = [
            (reader.u64(), reader.blob()) for _ in range(reader.u32())
        ]
    reader.expect_end()
    return cells


# -- stats map ------------------------------------------------------------


def write_stats_map(stats: dict[str, float]) -> Writer:
    """Encode a counter map in the ``stats`` RPC's response format."""
    writer = Writer()
    writer.u32(len(stats))
    for key, value in sorted(stats.items()):
        writer.string(key)
        writer.f64(float(value))
    return writer


def read_stats_map(reader: Reader) -> dict[str, float]:
    """Decode a ``stats`` response body into a counter map."""
    stats = {reader.string(): reader.f64() for _ in range(reader.u32())}
    reader.expect_end()
    return stats
