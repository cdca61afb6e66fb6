"""Wire codecs for candidate sets: the six search responses and the
sharded cluster's scatter–gather protocol.

**The candidate table.** Candidates travel one way only — as a table of
two columns, the ``u64`` oids and one blob region holding the opaque
payloads (the layout :class:`~repro.core.records.RecordBatch` uses for
inserts)::

    u64_array   oids         u32 n | n x u64
    blob_region payloads     u32 n | n x u32 length | payload bytes

:func:`read_candidate_table` hands it back as a
:class:`CandidateTable` — the oid column and the payloads as a
:class:`~repro.wire.encoding.BlobColumn`, a view of the message —
without building anything per record; the client gathers the token
matrix of the candidates it decrypts out of the region. A *ragged
column* (one variable-length list of integers per query or per group)
is a column of sizes plus the values end to end. On top of these:

* a single-query response (``approx_knn``, ``range``,
  ``range_transformed``) is one table, in rank order;
* a batch response (``*_batch``) is the table of every candidate any
  query refers to, each once, in order of first use, plus a ragged
  column of table rows per query, in rank order — candidate sets of a
  batch overlap heavily, so a shared candidate costs its bytes once and
  the client decrypts it once;
* a scatter response (``*_scatter``) is a table plus flat columns
  describing *per-leaf candidate groups*. A shard cannot apply the
  global kNN stopping rule (it only sees its own prefix range), so it
  answers with the leaves it visited, tagged with the ordering keys the
  single-server search loop uses — ``(promise, prefix)`` for kNN, the
  top-level pivot for range scans. The client-side router interleaves
  the groups of every shard into the exact single-server visit order,
  replays the stopping rule, and reproduces the single-server candidate
  stream bit for bit (asserted in ``tests/unit/test_shard_router.py``
  and ``bench_shard_scaling.py``).

The writers take their candidates one way: as a list of *tables* —
anything with an ``oids`` column and a ``payloads``
:class:`~repro.wire.encoding.BlobColumn` — laid end to end, never
concatenated, plus row numbers counting through them. A server passes
the stored cells its index visited, as the storage backend read them
(:class:`~repro.core.records.RecordBatch`); the router passes the
tables its shards answered with. The same candidates encode to the same
bytes either way: the payloads wanted are gathered out of wherever they
lie straight into the response's blob region, one strided copy per
table (:func:`~repro.wire.encoding.pack_blobs`). Every count, length
and row number a reader takes from the wire is checked against what is
actually there before it is used.

Also here: the shard-map codec (``u32 n_shards`` + the pivot→shard
assignment column), the cell-dump codec used by equivalence benchmarks
to fingerprint a remote index's cell tree, and the stats-map codec.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ProtocolError
from repro.wire.encoding import BlobColumn, Reader, Writer, pack_blobs

__all__ = [
    "CandidateTable",
    "oid_column",
    "per_query",
    "read_candidate_lists",
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

class CandidateTable(NamedTuple):
    """A candidate table off the wire: the ``u64`` oid column and the
    payloads, left in the message they came in."""

    oids: np.ndarray
    payloads: BlobColumn


#: leads every concatenation of a list of columns that may be empty
_NO_ROWS = np.empty(0, dtype=np.int64)


# -- the candidate table ----------------------------------------------------


def read_candidate_table(reader: Reader) -> CandidateTable:
    """Decode a candidate table, its payloads a view of the message,
    not a copy."""
    oids = reader.u64_array()
    offsets, region = reader.blob_columns()
    if offsets.shape[0] - 1 != oids.shape[0]:
        raise ProtocolError(
            f"candidate table carries {oids.shape[0]} oids and "
            f"{offsets.shape[0] - 1} payloads"
        )
    return CandidateTable(oids, BlobColumn.packed(offsets, region))


def oid_column(tables: list) -> np.ndarray:
    """The oid columns of ``tables`` end to end (none, of no tables)."""
    return np.concatenate(
        [np.empty(0, dtype=np.uint64)] + [table.oids for table in tables]
    )


def _write_table(writer: Writer, tables: list, rows: np.ndarray | None) -> None:
    """Append the candidate table of ``rows`` of ``tables`` (all of
    them when None), in that order.

    A row counts through the tables end to end. Each table has an
    ``oids`` column and a ``payloads`` blob column: a stored cell as its
    backend read it, or a table off the wire.
    """
    oids = oid_column(tables)
    writer.u64_array(oids if rows is None else oids[rows])
    writer.blob_columns(
        *pack_blobs([table.payloads for table in tables], rows)
    )


def _write_ragged(writer: Writer, sizes, values) -> None:
    """Append a ragged column: the lists' sizes, then their values end
    to end."""
    writer.i32_array(sizes)
    writer.i32_array(values)


def _read_ragged(reader: Reader, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Decode a ragged column as ``(sizes, values)``, the sizes checked
    to be non-negative and to add up to the values present."""
    sizes = reader.i32_array()
    values = reader.i32_array()
    _check_sizes(sizes, values.shape[0], what)
    return sizes, values


def _check_sizes(sizes: np.ndarray, total: int, what: str) -> None:
    if sizes.shape[0] and sizes.min() < 0:
        raise ProtocolError(f"negative {what} size")
    if int(sizes.sum(dtype=np.int64)) != total:
        raise ProtocolError(
            f"{what} sizes add up to {int(sizes.sum(dtype=np.int64))}, "
            f"{total} follow"
        )


def _check_rows(rows: np.ndarray, table: CandidateTable) -> None:
    """Row numbers off the wire must address the table they came with."""
    if rows.shape[0] and (rows.min() < 0 or rows.max() >= table[0].shape[0]):
        raise ProtocolError(
            "response references candidates outside its table of "
            f"{table[0].shape[0]}"
        )


# -- search responses -------------------------------------------------------


def write_candidates(
    tables: list, rows: np.ndarray | None = None
) -> Writer:
    """Encode a single-query candidate set — ``rows`` of ``tables`` (see
    :func:`_write_table`; all of them when None) in rank order. Only
    oid + opaque payload go back."""
    writer = Writer()
    _write_table(writer, tables, rows)
    return writer


def write_candidate_lists(tables: list, rows_per_query: list) -> Writer:
    """Encode a batch of candidate sets with cross-query deduplication.

    ``rows_per_query[q]`` are the rows of ``tables`` (see
    :func:`_write_table`) that are query ``q``'s candidates, in rank
    order. Every row any query uses travels once, in order of first
    use, and each query gets its list as rows of that table — so two
    sources holding the same candidates in the same per-query order
    encode to the same bytes, whatever else they hold and however it is
    laid out.
    """
    rows = np.concatenate([_NO_ROWS, *rows_per_query])
    # first[r]: where row r is first used, len(rows) when it never is
    first = np.full(int(rows.max()) + 1 if len(rows) else 0, len(rows))
    np.minimum.at(first, rows, np.arange(len(rows)))
    used = np.flatnonzero(first < len(rows))
    used = used[np.argsort(first[used])]
    first[used] = np.arange(len(used))
    writer = Writer()
    _write_table(writer, tables, used)
    _write_ragged(writer, [len(rows) for rows in rows_per_query], first[rows])
    return writer


def read_candidate_lists(
    reader: Reader, *, single: bool = False
) -> tuple[CandidateTable, list[np.ndarray]]:
    """Decode a search response as ``(table, rows_per_query)``, every
    row checked to lie inside the table. A ``single`` response — a bare
    table in rank order — reads as a batch of one that uses every row
    in turn."""
    table = read_candidate_table(reader)
    if single:
        reader.expect_end()
        return table, [np.arange(table[0].shape[0])]
    sizes, rows = _read_ragged(reader, "candidate list")
    reader.expect_end()
    _check_rows(rows, table)
    return table, per_query(rows, sizes)


def per_query(rows: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Cut a flat row column into one array per query of a batch."""
    return np.split(rows, np.cumsum(sizes)[:-1]) if len(sizes) else []


# -- scatter responses ------------------------------------------------------


def _write_groups(
    writer: Writer, tables: list, query_groups: list, at: int
) -> list:
    """Open a scatter response — the table, the groups-per-query column
    and the ragged column of each group's table rows — and return the
    groups end to end.

    ``group[at]`` holds a group's rows in ``tables`` (see
    :func:`_write_table`). Every visited cell sits there once, so a row
    identifies a record: the table is ``tables`` less the rows no group
    refers to, and nothing is looked up per record.
    """
    groups = [group for groups in query_groups for group in groups]
    rows = np.concatenate([_NO_ROWS, *(group[at] for group in groups)])
    used = np.zeros(sum(len(table.oids) for table in tables), dtype=bool)
    used[rows] = True
    _write_table(
        writer, tables, None if used.all() else np.flatnonzero(used)
    )
    writer.i32_array([len(groups) for groups in query_groups])
    _write_ragged(
        writer,
        [len(group[at]) for group in groups],
        (np.cumsum(used) - 1)[rows],
    )
    return groups


def _read_groups(reader: Reader) -> tuple:
    """Decode what :func:`_write_groups` wrote as ``(table,
    groups_per_query, group_sizes, rows)``, checked for consistency."""
    table = read_candidate_table(reader)
    groups_per_query = reader.i32_array()
    group_sizes, rows = _read_ragged(reader, "scatter group")
    _check_sizes(groups_per_query, group_sizes.shape[0], "groups-per-query")
    _check_rows(rows, table)
    return table, groups_per_query, group_sizes, rows


def _check_column(column: np.ndarray, count: int, what: str) -> None:
    if column.shape[0] != count:
        raise ProtocolError(
            f"scatter response carries {column.shape[0]} {what} "
            f"for {count}"
        )


def write_knn_scatter_response(tables: list, query_groups: list) -> Writer:
    """Encode per-query kNN leaf groups — the cells and
    ``query_groups`` :meth:`MIndex.approx_knn_scatter_batch` returns,
    ``query_groups[q]`` listing ``(promise, prefix, rows,
    scores)`` tuples in this shard's visit order.

    After the shared opening (:func:`_write_groups`) come the groups'
    promises, their ragged prefixes and one score per group row.
    """
    writer = Writer()
    groups = _write_groups(writer, tables, query_groups, 2)
    promises, prefixes, _rows, scores = zip(*groups) if groups else [()] * 4
    writer.f64_array(promises)
    _write_ragged(
        writer,
        [len(prefix) for prefix in prefixes],
        [pivot for prefix in prefixes for pivot in prefix],
    )
    writer.f64_array(np.concatenate([_NO_ROWS, *scores]))
    return writer


def read_knn_scatter_response(
    reader: Reader,
) -> tuple[CandidateTable, tuple]:
    """Decode a kNN scatter response as ``(table, columns)`` with
    ``columns = (groups_per_query, group_sizes, rows, promises,
    prefix_sizes, prefixes, scores)`` — one entry per query, per group,
    per group row, per group, per group, per prefix element and per
    group row respectively."""
    table, groups_per_query, group_sizes, rows = _read_groups(reader)
    promises = reader.f64_array()
    prefix_sizes, prefixes = _read_ragged(reader, "group prefix")
    scores = reader.f64_array()
    reader.expect_end()
    _check_column(promises, group_sizes.shape[0], "promises")
    _check_column(prefix_sizes, group_sizes.shape[0], "prefixes")
    _check_column(scores, rows.shape[0], "scores")
    return table, (
        groups_per_query, group_sizes, rows,
        promises, prefix_sizes, prefixes, scores,
    )


def write_range_scatter_response(tables: list, query_groups: list) -> Writer:
    """Encode per-query range-scan groups — the cells and
    ``query_groups`` :meth:`MIndex.range_scatter_batch` returns,
    ``query_groups[q]`` listing ``(prefix, rows)`` tuples in this
    shard's leaf order.

    After the shared opening (:func:`_write_groups`) comes each group's
    top-level pivot, ``-1`` for records still sitting in an unsplit
    root.
    """
    writer = Writer()
    groups = _write_groups(writer, tables, query_groups, 1)
    writer.i32_array(
        [prefix[0] if prefix else -1 for prefix, _rows in groups]
    )
    return writer


def read_range_scatter_response(
    reader: Reader,
) -> tuple[CandidateTable, tuple]:
    """Decode a range scatter response as ``(table, columns)`` with
    ``columns = (groups_per_query, group_sizes, rows, top_pivots)``."""
    table, groups_per_query, group_sizes, rows = _read_groups(reader)
    top_pivots = reader.i32_array()
    reader.expect_end()
    _check_column(top_pivots, group_sizes.shape[0], "top pivots")
    return table, (groups_per_query, group_sizes, rows, top_pivots)


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
