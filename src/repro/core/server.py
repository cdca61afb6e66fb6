"""The untrusted similarity-cloud server (paper §4.2, Algorithms 3–4).

:class:`SimilarityCloudServer` hosts an M-Index over records whose pivot
permutations/distances were computed *elsewhere* — the server holds **no
pivots, no metric function and no plaintext**. Its entire knowledge is
what §4.3 says may leak to an attacker: encrypted payloads plus pivot
permutations (or object–pivot distances under the precise strategy).

The server exposes these RPC methods:

``insert`` / ``insert_bulk`` / ``delete``
    Index maintenance (Algorithm 1's server part: locate the cell tree
    leaf, store, split if needed). ``insert`` takes per-record wire
    encodings; ``insert_bulk`` takes one columnar
    :class:`~repro.core.records.RecordBatch`, handed to
    :meth:`MIndex.bulk_insert` as it was decoded — missing permutations
    are derived for the whole batch in one vectorized call and each
    touched cell receives its rows of the batch in one storage write,
    no object built per record. Both produce identical indexes. Writers —
    they take the exclusive side of the server's read–write lock.
``range`` / ``range_transformed`` / ``approx_knn``
    The three searches, one query each. ``range`` is Algorithm 3 —
    candidate set of a range query from query–pivot distances, after
    tree pruning and pivot filtering; ``range_transformed`` the §6
    future-work variant — candidate set from per-pivot
    *transformed-space intervals*, so the server filters without ever
    seeing a true distance value; ``approx_knn`` Algorithm 4 —
    pre-ranked candidate set of a given size from the query
    permutation, optionally restricted to a number of cells.
``knn_batch`` / ``range_batch`` / ``range_transformed_batch``
    Batched forms of the three searches: one wire message carries a
    whole query batch (permutation/distance *matrices*), the index
    answers all queries with shared bucket loads and one vectorized
    promise kernel, and the response deduplicates candidates that occur
    in several queries' sets — each unique candidate travels once, in
    one candidate table (an oid column and one region of payload
    bytes, :mod:`repro.wire.scatter`), followed by each query's list of
    table rows in rank order.
``knn_scatter`` / ``range_scatter`` / ``range_transformed_scatter``
    Shard-local forms of the batched searches for the scatter–gather
    cluster (request bodies identical to their ``*_batch``
    counterparts): instead of final candidate sets they return the
    visited per-leaf candidate groups tagged with the global ordering
    keys — a candidate table that is the visited leaves end to end,
    plus flat group columns — so the client-side
    :class:`~repro.cluster.router.ShardRouter` can interleave the
    groups of every shard, replay the stopping rule, and reproduce the
    single-server answer bit for bit.

    These nine are three searches in three forms, registered from the
    table in :mod:`repro.wire.search` through one handler
    (:func:`_search_handler`): decode the request with the search's one
    reader — a single query reads as a batch of one — take the shared
    lock, call the :class:`~repro.mindex.index.MIndex` method of that
    form, write the answer in that form.
``export_cells`` / ``drop_cells`` / ``dump_cells``
    Rebalance and diagnostics surface: ``export_cells`` returns every
    record of a set of top-level pivots in the ``insert`` request
    format (so a rebalance replays it verbatim on the receiving
    shard), ``drop_cells`` removes them, and ``dump_cells``
    fingerprints cell-tree contents for equivalence benches.
``stats``
    Index statistics (diagnostics; not part of any measured phase),
    including the fault-tolerance counters (requests shed, deadline
    expirations, idempotent dedup hits).
``ping`` / ``healthz``
    Liveness and health probes: ``ping`` answers ``"pong"``;
    ``healthz`` reports whether the transport is draining plus the
    record count.

Concurrency: searches are read-only, so all search handlers take the
shared side of a :class:`~repro.core.locks.ReadWriteLock` and may run
concurrently (the socket transport's handler pool);
``insert``/``delete`` serialize exclusively so no reader can observe a
half-split cell tree.
"""

from __future__ import annotations

from repro.core.costs import KERNEL_COUNTERS
from repro.core.locks import ReadWriteLock
from repro.core.records import IndexedRecord, RecordBatch
from repro.mindex.index import MIndex
from repro.net.aio import AsyncTcpServer
from repro.net.clock import Clock
from repro.net.rpc import RpcDispatcher
from repro.storage.memory import MemoryStorage
from repro.wire.encoding import Reader, Writer
from repro.wire.scatter import (
    write_candidate_lists as _write_candidate_lists,
    write_candidates as _write_candidates,
    write_cell_dump,
    write_knn_scatter_response,
    write_range_scatter_response,
    write_stats_map,
)
from repro.wire.search import FORMS, KNN, RANGE, RANGE_TRANSFORMED, Search

__all__ = ["SimilarityCloudServer"]

#: the :class:`MIndex` method that answers each search in its single,
#: batch and scatter form (the order of ``FORMS``)
_INDEX_METHODS = {
    KNN: (
        "approx_knn_candidates",
        "approx_knn_candidates_batch",
        "approx_knn_scatter_batch",
    ),
    RANGE: ("range_search", "range_search_batch", "range_scatter_batch"),
    RANGE_TRANSFORMED: (
        "range_search_transformed",
        "range_search_transformed_batch",
        "range_transformed_scatter_batch",
    ),
}


def _search_handler(
    index: MIndex, lock: ReadWriteLock, search: Search, form: str
):
    """The handler of one search RPC — every search, every form.

    It holds the index and the lock, not the server: the dispatcher
    keeps plain functions strongly, and one that led back to the server
    owning the dispatcher would be the reference cycle that keeps a
    closed deployment alive until the cyclic collector runs.
    """
    single = form == "single"
    index_method = _INDEX_METHODS[search][FORMS.index(form)]

    def handle(body: Reader) -> Writer:
        queries, options = search.read_request(body, single=single)
        if single:
            queries = [matrix[0] for matrix in queries]
        with lock.read():
            found = getattr(index, index_method)(*queries, **options)
        # the index answers with the stored cells it visited, as
        # columns, and rows of them; the writers are module globals
        # looked up per call, which is where the end-to-end benchmark's
        # tracer wraps them
        if single:
            return _write_candidates(found.cells, found.rows)
        visited, per_query = found
        if form == "batch":
            return _write_candidate_lists(visited.cells, per_query)
        if search is KNN:
            return write_knn_scatter_response(visited.cells, per_query)
        return write_range_scatter_response(visited.cells, per_query)

    return handle


class SimilarityCloudServer:
    """Server-side endpoint owning the M-Index and its storage backend.

    Parameters
    ----------
    n_pivots:
        Size of the pivot permutations (the server knows the *number* of
        pivots — public protocol information — never the pivots).
    bucket_capacity:
        M-Index leaf capacity (Table 2).
    storage:
        Bucket backend; defaults to :class:`MemoryStorage`.
    max_level:
        Maximum cell-tree depth.
    clock:
        Clock used for the dispatcher's server-time accounting.
    """

    def __init__(
        self,
        n_pivots: int,
        bucket_capacity: int,
        *,
        storage=None,
        max_level: int = 8,
        clock: Clock | None = None,
    ) -> None:
        self.storage = storage if storage is not None else MemoryStorage()
        self.index = MIndex(
            n_pivots, bucket_capacity, self.storage, max_level=max_level
        )
        # searches share the lock; insert/delete take it exclusively
        self._lock = ReadWriteLock()
        self.dispatcher = RpcDispatcher(clock=clock)
        self.dispatcher.register("insert", self._handle_insert)
        self.dispatcher.register("insert_bulk", self._handle_insert_bulk)
        self.dispatcher.register("delete", self._handle_delete)
        for search in _INDEX_METHODS:
            for form in FORMS:
                self.dispatcher.register(
                    getattr(search, form),
                    _search_handler(self.index, self._lock, search, form),
                )
        self.dispatcher.register("export_cells", self._handle_export_cells)
        self.dispatcher.register("drop_cells", self._handle_drop_cells)
        self.dispatcher.register("dump_cells", self._handle_dump_cells)
        self.dispatcher.register("stats", self._handle_stats)
        self.dispatcher.register("ping", self._handle_ping)
        self.dispatcher.register("healthz", self._handle_healthz)
        # mutating RPCs carry idempotency keys (see
        # repro.net.resilience); dedup makes their retries exactly-once
        self.dispatcher.enable_idempotency()
        #: the socket transport serving this endpoint (set by
        #: serve_async; None in process); healthz and stats read
        #: drain/shed state off it
        self.transport: AsyncTcpServer | None = None

    # -- channel plumbing -------------------------------------------------

    def handle(self, request: bytes) -> bytes:
        """Raw request entry point, pluggable into any channel.

        Locking happens per handler (read for searches, write for index
        maintenance), so concurrent TCP clients can search
        simultaneously while never observing a half-split cell tree.
        """
        return self.dispatcher.handle(request)

    def serve_async(self, *, host: str = "127.0.0.1", port: int = 0, **kwargs):
        """Expose this server over the pipelined asyncio transport.

        Returns a started :class:`~repro.net.aio.AsyncTcpServer`; extra
        keyword arguments pass through (``max_workers``,
        ``max_inflight_per_connection``, ``max_pending``,
        ``chunk_size``). Handlers run on the transport's executor
        threads, under the same read–write lock and cost accounting as
        in-process calls.
        """
        self.transport = AsyncTcpServer(
            self.handle, host=host, port=port, **kwargs
        )
        return self.transport

    @property
    def server_time(self) -> float:
        """Accumulated processing time across all handled calls."""
        return self.dispatcher.server_time

    def reset_accounting(self) -> None:
        """Zero server-side accounting (between experiment phases)."""
        self.dispatcher.reset_accounting()
        self.storage.reset_accounting()

    def flush_storage(self) -> None:
        """Push buffered storage state to durable form (no-op backends
        simply return). Called by :meth:`drain` before declaring every
        acknowledged write safe."""
        flush = getattr(self.storage, "flush", None)
        if flush is not None:
            flush()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain: finish in-flight requests, then flush storage.

        Drains the socket transport when one is attached (it refuses
        new requests with a retryable error while existing ones
        complete), then flushes the storage backend so no acknowledged
        write is lost on the shutdown that follows. Returns whether the
        transport drained within ``timeout``.
        """
        drained = True
        if self.transport is not None:
            drained = self.transport.drain(timeout)
        self.flush_storage()
        return drained

    def close(self) -> None:
        """End of the endpoint's life, called by every deployment's
        shutdown. The server owns no thread or file of its own — a
        socket transport is shut down by whoever started it, the
        storage backend by whoever opened it — so nothing is released
        here and requests keep being answered."""

    # -- handlers ------------------------------------------------------------

    def _handle_insert(self, body: Reader) -> Writer:
        count = body.u32()
        records = []
        for _ in range(count):
            record = IndexedRecord.read_from(body)
            record.ensure_permutation()
            records.append(record)
        body.expect_end()
        with self._lock.write():
            for record in records:
                self.index.insert(record)
            return Writer().u64(len(self.index))

    def _handle_insert_bulk(self, body: Reader) -> Writer:
        batch = RecordBatch.read_from(body)
        body.expect_end()
        with self._lock.write():
            self.index.bulk_insert(batch)
            return Writer().u64(len(self.index))

    def _handle_delete(self, body: Reader) -> Writer:
        record = IndexedRecord.read_from(body)
        body.expect_end()
        with self._lock.write():
            removed = self.index.delete(
                record.oid, record.ensure_permutation()
            )
        return Writer().boolean(removed)

    def _handle_export_cells(self, body: Reader) -> Writer:
        pivots = body.i32_array()
        body.expect_end()
        with self._lock.read():
            records = self.index.export_top_pivots(
                {int(pivot) for pivot in pivots}
            )
        # response body == the ``insert`` request body, so a rebalance
        # replays the export verbatim on the receiving shard
        writer = Writer()
        writer.u32(len(records))
        for record in records:
            record.write_to(writer)
        return writer

    def _handle_drop_cells(self, body: Reader) -> Writer:
        pivots = body.i32_array()
        body.expect_end()
        with self._lock.write():
            removed = self.index.drop_top_pivots(
                {int(pivot) for pivot in pivots}
            )
            return Writer().u64(removed)

    def _handle_dump_cells(self, body: Reader) -> Writer:
        body.expect_end()
        with self._lock.read():
            cells = [
                (
                    leaf.prefix,
                    self.index.storage.load(leaf.prefix).to_records(),
                )
                for leaf in self.index.tree.leaves()
                if leaf.count > 0
            ]
        return write_cell_dump(cells)

    def _handle_stats(self, body: Reader) -> Writer:
        body.expect_end()
        with self._lock.read():
            stats = self.index.statistics()
            storage = self.storage
            # the storage backend's I/O and cache accounting rides the
            # same diagnostics surface, with the number of chunks its
            # cells are in (chunk fill is records / chunks), its data
            # files and their bytes that are not live chunks; counters
            # a backend does not define (e.g. block cache on
            # MemoryStorage) are omitted
            for counter in (
                "reads",
                "writes",
                "bytes_read",
                "bytes_written",
                "block_cache_hits",
                "block_cache_misses",
                "chunks_decompressed",
                "manifest_writes",
                "chunks",
                "segments",
                "dead_bytes",
            ):
                value = getattr(storage, counter, None)
                if value is not None:
                    stats[f"storage_{counter}"] = value
            # fault-tolerance counters: what the transport refused or
            # shed, and what the idempotency cache answered for free
            if self.transport is not None:
                stats["requests_shed"] = self.transport.shed_requests
                stats["deadline_expirations"] = (
                    self.transport.deadline_expirations
                )
            stats["idempotent_dedup_hits"] = self.dispatcher.dedup_hits
            # always 0: the benchmark reads these keys (see costs.py)
            stats.update(KERNEL_COUNTERS)
        return write_stats_map(stats)


    def _handle_ping(self, body: Reader) -> Writer:
        body.expect_end()
        return Writer().string("pong")

    def _handle_healthz(self, body: Reader) -> Writer:
        body.expect_end()
        draining = self.transport is not None and self.transport.draining
        writer = Writer()
        writer.string("draining" if draining else "ok")
        with self._lock.read():
            writer.u64(len(self.index))
        return writer


