"""Client-side scatter–gather routing over a shard set.

:class:`ShardRouter` is a drop-in for
:class:`~repro.net.rpc.RpcClient`: it exposes the same ``call`` /
``server_time`` / ``calls`` / ``channel`` surface, so an
:class:`~repro.core.client.EncryptedClient` talks to a whole cluster
without knowing it — the router intercepts each method by name, fans it
out, and re-encodes the merged answer in the exact single-server
response format.

**Bit-identity.** Searches scatter to the ``*_scatter`` RPCs, which
return per-leaf candidate groups instead of final sets (see
:mod:`repro.wire.scatter`). Because the shard map partitions by
top-level pivot, a shard's visit order is the global visit order
restricted to its own leaves — so for kNN, the groups of all shards
sorted by ``(promise, prefix)`` reproduce the global promise order, and
replaying the stopping rule over that stream consumes exactly the
leaves the single server would have accessed (each shard over-visits
under its *local* stopping rule, never under-visits). For range scans,
sorting groups by top pivot reassembles the global lexicographic leaf
order. Nothing is decoded per record on the way: the shard answers are
read as columns, the merges (:func:`merge_knn_candidates`,
:func:`merge_range_candidates`) are array code over all queries of a
batch at once, and the merged answer is spliced out of the shards'
payload bytes by the same writers the single server uses, so response
bytes — not just result sets — are identical (hard-asserted in
``tests/unit/test_shard_router.py`` and ``bench_shard_scaling.py``).

**Resilience.** Each shard gets its own
:class:`~repro.net.resilience.ResilientRpcClient` with its *own*
:class:`~repro.net.resilience.CircuitBreaker`, so one dead shard trips
one breaker. Strict mode (default) surfaces that as a typed
:class:`~repro.exceptions.ShardUnavailableError`; ``allow_partial``
degrades gracefully instead — the dead shard's prefix range goes dark,
the rest of the batch is answered, and every skip is counted in
``shards_skipped`` (surfaced in the client report) so degraded answers
are always visibly degraded. Mutations never degrade: an unreachable
shard always fails the write.

**Rebalance.** :meth:`ShardRouter.rebalance` moves a set of top-level
pivots between live shards with zero record loss: ``export_cells`` on
the source (response body == an ``insert_bulk`` request body), that
body forwarded verbatim to the target — one bulk, one storage commit —
and ``drop_cells`` on the source: copy before delete, so a crash
between the steps leaves duplicates, which the merge suppresses by oid,
rather than losing records.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.cluster.shard_map import ShardMap
from repro.core.records import IndexedRecord, RecordBatch
from repro.exceptions import (
    ChannelError,
    DeadlineExceededError,
    ProtocolError,
    ShardUnavailableError,
)
from repro.net.resilience import (
    CircuitBreaker,
    ResilientRpcClient,
    RetryPolicy,
)
from repro.net.rpc import RpcClient
from repro.wire.encoding import Reader, Writer
from repro.wire.scatter import (
    read_knn_scatter_response,
    read_range_scatter_response,
    read_stats_map,
    oid_column,
    per_query,
    write_candidate_lists,
    write_candidates,
    write_stats_map,
)
from repro.wire.search import KNN, SEARCHES, Search

__all__ = [
    "ShardRouter",
    "merge_knn_candidates",
    "merge_range_candidates",
    "merge_stats",
]

#: the search methods a client sends, each with its search and whether
#: it is the single form
_ROUTED_SEARCHES = {
    search.method(single): (search, single)
    for search in SEARCHES
    for single in (True, False)
}

#: stats counters where the cluster-level view is a maximum, not a sum
#: (``kernel_workers`` always reads 0 and stays for the benchmark: see
#: ``KERNEL_COUNTERS`` in :mod:`repro.core.costs`)
_MAX_COUNTERS = frozenset(
    {"max_level", "bucket_capacity", "kernel_workers"}
)


def _joined(arrays: list) -> np.ndarray:
    """One column out of one per shard (none, when no shard answered)."""
    return np.concatenate([np.empty(0, dtype=np.int64), *arrays])


def _stacked(
    shard_payloads: list[tuple], n_queries: int, n_keys: int
) -> tuple:
    """The common first half of both merges: every shard's answer in
    one set of columns.

    Returns ``(tables, oids, query, shard, sizes, rows, keys)``: the
    shard tables, laid end to end but not copied together, and their
    one oid column; per group, in the order the shards emitted them,
    its query, its shard and its size; the groups' table rows
    renumbered to count through all the tables; and the ``n_keys``
    columns that follow in a scatter response, each concatenated across
    shards.
    """
    for _shard, _table, columns in shard_payloads:
        if columns[0].shape[0] != n_queries:
            raise ProtocolError(
                f"scatter response answers {columns[0].shape[0]} queries, "
                f"{n_queries} were asked"
            )
    tables = [table for _shard, table, _columns in shard_payloads]
    first_row = np.cumsum([0] + [len(table.oids) for table in tables])
    columns = [columns for _shard, _table, columns in shard_payloads]
    queries = np.arange(n_queries)
    return (
        tables,
        oid_column(tables),
        _joined([np.repeat(queries, c[0]) for c in columns]),
        _joined(
            [
                np.full(c[1].shape[0], shard)
                for (shard, _t, _c), c in zip(shard_payloads, columns)
            ]
        ),
        _joined([c[1] for c in columns]),
        _joined([c[2] + base for c, base in zip(columns, first_row)]),
        [_joined([c[3 + key] for c in columns]) for key in range(n_keys)],
    )


def _stream(
    oids: np.ndarray,
    query: np.ndarray,
    sizes: np.ndarray,
    rows: np.ndarray,
    order: np.ndarray,
) -> tuple:
    """Lay the candidates out in merged visit order and mark the ones a
    sequential reader would keep.

    ``order`` sorts the groups into visit order, query-major; ``query``
    is already in that order, ``sizes`` and ``rows`` are as emitted.
    Returns ``(group, at, row, first, canonical)``. Per candidate of
    the stream: the position of its group in ``order``; where it sits
    in the emitted per-candidate columns; its table row; and whether no
    earlier candidate *of the same query* carries its oid (repeats
    exist only mid-rebalance, while source and target both hold a pivot
    range). Per table row: the first row holding the same oid, so that
    the copies of a record are one candidate across queries too.
    """
    emitted = (np.cumsum(sizes) - sizes)[order]
    sizes = sizes[order]
    group = np.repeat(np.arange(len(order)), sizes)
    at = np.arange(len(rows)) + np.repeat(
        emitted - (np.cumsum(sizes) - sizes), sizes
    )
    row = rows[at]
    _, canonical, inverse, copies = np.unique(
        oids, return_index=True, return_inverse=True, return_counts=True
    )
    canonical = canonical[inverse]
    # only rows whose oid occurs more than once can be repeats: order
    # those by (query, oid) and keep the first of each in the stream
    suspects = np.flatnonzero((copies > 1)[inverse][row])
    first = np.ones(len(row), dtype=bool)
    first[suspects] = False
    key = query[group[suspects]] * len(oids) + canonical[row[suspects]]
    first[suspects[np.unique(key, return_index=True)[1]]] = True
    return group, at, row, first, canonical


def merge_knn_candidates(
    shard_payloads: list[tuple],
    n_queries: int,
    cand_size: int,
    max_cells: int | None,
) -> tuple[list, list[np.ndarray]]:
    """Merge per-shard kNN scatter payloads into final candidate sets.

    ``shard_payloads`` holds ``(shard_index, table, columns)`` triples
    (:func:`~repro.wire.scatter.read_knn_scatter_response`). Returns
    the shards' tables and, per query, its candidates as rows counting
    through those tables, in rank order — what
    :func:`~repro.wire.scatter.write_candidate_lists` takes.

    All queries are merged at once, as columns. The groups of every
    shard are ordered by ``(query, promise, prefix, shard)`` — per
    query the single-server visit order — and the global stopping rule
    is replayed exactly from running counts: with ``d(g)`` the number
    of distinct oids in the groups of its query before group ``g``, and
    ``g`` counted from 0 within its query, the sequential loop consumes
    ``g`` iff ``d(g) < cand_size`` and ``g < max_cells`` (both
    conditions only ever switch off, so the consumed groups are a
    prefix, as in the loop). The candidates of consumed groups, less
    repeated oids, then get the single-server final sort ``(promise,
    score, oid)`` and trim.
    """
    tables, oids, query, shard, sizes, rows, keys = _stacked(
        shard_payloads, n_queries, 4
    )
    promises, prefix_sizes, prefixes, scores = keys
    # prefixes compare as tuples; rank the distinct ones (a few per
    # leaf, nothing per record)
    bounds = np.cumsum(prefix_sizes).tolist()
    flat = prefixes.tolist()
    prefix = [tuple(flat[a:b]) for a, b in zip([0] + bounds, bounds)]
    rank_of = {key: rank for rank, key in enumerate(sorted(set(prefix)))}
    order = np.lexsort(
        (
            shard,
            np.array([rank_of[key] for key in prefix], dtype=np.int64),
            promises,
            query,
        )
    )
    # groups are in visit order from here on, query by query
    query, promises = query[order], promises[order]
    group, at, row, first, canonical = _stream(
        oids, query, sizes, rows, order
    )
    sizes = sizes[order]
    groups_in = np.bincount(query, minlength=n_queries)
    opening = (np.cumsum(groups_in) - groups_in)[query]
    seen = np.concatenate(([0], np.cumsum(first)))[np.cumsum(sizes) - sizes]
    consumed = seen - seen[opening] < cand_size
    if max_cells is not None:
        consumed &= np.arange(len(order)) - opening < max_cells

    kept = np.flatnonzero(first & consumed[group])
    group, at, row = group[kept], at[kept], row[kept]
    # (query, promise) is the leading sort key and the groups already
    # ascend in it: number its runs instead of sorting by both columns
    run = np.cumsum(
        (query[1:] != query[:-1]) | (promises[1:] != promises[:-1])
    )
    run = np.concatenate(([0], run))[group]
    final = np.lexsort((oids[row], scores[at], run))
    query = query[group[final]]
    found = np.bincount(query, minlength=n_queries)
    rank = np.arange(len(final)) - (np.cumsum(found) - found)[query]
    return tables, per_query(
        canonical[row[final[rank < cand_size]]], np.minimum(found, cand_size)
    )


def merge_range_candidates(
    shard_payloads: list[tuple], n_queries: int
) -> tuple[list, list[np.ndarray]]:
    """Merge per-shard range scatter payloads into candidate sets, in
    the form :func:`merge_knn_candidates` returns.

    Groups sort (stably) by ``(query, top_pivot, shard)`` — the
    single-server candidate order is lexicographic leaf order, each top
    pivot's leaves live on exactly one shard (ties only mid-rebalance),
    and each shard emits its groups in its own leaf order — then
    concatenate, less repeated oids.
    """
    tables, oids, query, shard, sizes, rows, (top_pivots,) = _stacked(
        shard_payloads, n_queries, 1
    )
    order = np.lexsort((shard, top_pivots, query))
    query = query[order]
    group, _at, row, first, canonical = _stream(
        oids, query, sizes, rows, order
    )
    return tables, per_query(
        canonical[row[first]],
        np.bincount(query[group[first]], minlength=n_queries),
    )


def merge_stats(shard_stats: list[dict]) -> dict:
    """Cluster-level view of per-shard ``stats`` maps: counters sum,
    structural bounds (:data:`_MAX_COUNTERS`) take the maximum, and the
    occupancy average is recomputed from the summed numerator and
    denominator."""
    merged: dict[str, float] = {}
    for stats in shard_stats:
        for key, value in stats.items():
            if key in _MAX_COUNTERS:
                current = merged.get(key)
                merged[key] = (
                    value if current is None else max(current, value)
                )
            else:
                merged[key] = merged.get(key, 0.0) + value
    if merged.get("occupied_cells"):
        merged["avg_occupied_bucket"] = (
            merged.get("records", 0.0) / merged["occupied_cells"]
        )
    return merged


class _ClusterChannel:
    """Channel-shaped accounting view summing every shard's channel.

    Holds the router's shard clients, not the router: a view pointing
    back at its owner would be a reference cycle keeping a closed
    cluster alive until the cyclic collector runs.
    """

    def __init__(self, shard_clients: list) -> None:
        self._shard_clients = shard_clients

    @property
    def bytes_sent(self) -> int:
        return sum(rpc.channel.bytes_sent for rpc in self._shard_clients)

    @property
    def bytes_received(self) -> int:
        return sum(rpc.channel.bytes_received for rpc in self._shard_clients)

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def communication_time(self) -> float:
        return sum(
            rpc.channel.communication_time for rpc in self._shard_clients
        )

    @property
    def requests(self) -> int:
        return sum(rpc.channel.requests for rpc in self._shard_clients)

    def reset_accounting(self) -> None:
        for rpc in self._shard_clients:
            rpc.channel.reset_accounting()


class ShardRouter:
    """Scatter–gather RPC front end over a shard set.

    Parameters
    ----------
    shard_map:
        The :class:`~repro.cluster.shard_map.ShardMap`; its shard count
        must match ``channel_factories``.
    channel_factories:
        One zero-argument channel factory per shard (reconnects go
        through the factory when resilient).
    resilient:
        When True (default) each shard gets its own
        :class:`ResilientRpcClient` with a private breaker; when False,
        plain :class:`RpcClient` instances over eagerly opened channels
        (deterministic accounting for simulation tests).
    policy:
        Retry policy shared by the per-shard resilient clients.
    allow_partial:
        Degrade searches on shard loss (skip + count) instead of
        raising :class:`ShardUnavailableError`. Mutations are always
        strict.
    key_seed:
        Base idempotency-key seed; shard ``i`` derives a disjoint key
        space from it so retried mutations never collide across shards.
    sleep:
        Sleep injected into the per-shard retry loops.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        channel_factories: list[Callable],
        *,
        resilient: bool = True,
        policy: RetryPolicy | None = None,
        allow_partial: bool = False,
        key_seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if len(channel_factories) != shard_map.n_shards:
            raise ProtocolError(
                f"shard map names {shard_map.n_shards} shards but "
                f"{len(channel_factories)} channel factories were given"
            )
        self.shard_map = shard_map
        self.allow_partial = allow_partial
        #: scatters that skipped an unreachable shard (allow_partial)
        self.shards_skipped = 0
        self._count_lock = threading.Lock()
        if resilient:
            self.shard_clients = [
                ResilientRpcClient(
                    factory,
                    policy=policy,
                    breaker=CircuitBreaker(),
                    sleep=sleep,
                    key_seed=(
                        None
                        if key_seed is None
                        else key_seed + (index << 32)
                    ),
                )
                for index, factory in enumerate(channel_factories)
            ]
        else:
            self.shard_clients = [
                RpcClient(factory()) for factory in channel_factories
            ]
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, len(self.shard_clients)),
            thread_name_prefix="shard-router",
        )
        self._view = _ClusterChannel(self.shard_clients)

    # -- RpcClient surface -------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self.shard_map.n_shards

    @property
    def channel(self) -> _ClusterChannel:
        """Accounting view summing every shard channel."""
        return self._view

    @property
    def server_time(self) -> float:
        """Summed server-reported processing time across shards."""
        return sum(rpc.server_time for rpc in self.shard_clients)

    @property
    def calls(self) -> int:
        """Summed request/response exchanges across shards."""
        return sum(rpc.calls for rpc in self.shard_clients)

    @property
    def retries_attempted(self) -> int:
        return sum(
            getattr(rpc, "retries_attempted", 0)
            for rpc in self.shard_clients
        )

    @property
    def reconnects(self) -> int:
        return sum(
            getattr(rpc, "reconnects", 0) for rpc in self.shard_clients
        )

    def reset_accounting(self) -> None:
        """Zero every shard client's counters and the skip counter."""
        for rpc in self.shard_clients:
            rpc.reset_accounting()
        with self._count_lock:
            self.shards_skipped = 0

    def close(self) -> None:
        """Shut the fan-out pool and every shard connection down."""
        self._pool.shutdown(wait=True)
        for rpc in self.shard_clients:
            close = getattr(rpc, "close", None)
            if close is not None:
                close()
            else:
                channel_close = getattr(rpc.channel, "close", None)
                if channel_close is not None:
                    channel_close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(
        self,
        method: str,
        body: "Writer | bytes" = b"",
        *,
        deadline: float | None = None,
        idempotency_key: int | None = None,
    ) -> Reader:
        """Route ``method`` across the cluster; the response Reader is
        byte-compatible with the single-server response.

        ``idempotency_key`` is accepted for interface compatibility but
        ignored: each per-shard resilient client generates its own keys
        (a caller-supplied key must not be replayed to several shards —
        their dedup caches are independent, but the *sub-requests*
        differ per shard).
        """
        data = body.getvalue() if isinstance(body, Writer) else bytes(body)
        if method in _ROUTED_SEARCHES:
            return self._route_search(
                *_ROUTED_SEARCHES[method], data, deadline
            )
        # looked up per call: a table of bound methods on the instance
        # would be a reference cycle through the router
        handler = getattr(self, f"_call_{method}", None)
        if handler is None:
            raise ProtocolError(
                f"method {method!r} is not routable across shards"
            )
        return handler(data, deadline)

    # -- fan-out machinery -------------------------------------------------

    def _scatter(
        self,
        method: str,
        per_shard: "dict[int, bytes] | bytes",
        deadline: float | None,
        *,
        strict: bool,
    ) -> list[tuple[int, Reader]]:
        """Send to many shards concurrently; responses in shard order.

        ``per_shard`` is either one body broadcast to every shard or an
        explicit ``{shard: body}`` mapping. Unreachable shards raise
        :class:`ShardUnavailableError` when ``strict`` (or whenever the
        router is not ``allow_partial``); otherwise they are skipped
        and counted. Deadline expiry always propagates — the budget is
        spent, a partial answer would not make it back in time anyway.
        """
        if isinstance(per_shard, dict):
            targets = [(shard, body) for shard, body in per_shard.items()]
        else:
            targets = [
                (shard, per_shard)
                for shard in range(len(self.shard_clients))
            ]
        futures = [
            (
                shard,
                self._pool.submit(
                    self.shard_clients[shard].call,
                    method,
                    body,
                    deadline=deadline,
                ),
            )
            for shard, body in targets
        ]
        responses: list[tuple[int, Reader]] = []
        for shard, future in futures:
            try:
                responses.append((shard, future.result()))
            except DeadlineExceededError:
                raise
            except ChannelError as exc:
                if strict or not self.allow_partial:
                    raise ShardUnavailableError(
                        f"shard {shard} unavailable for {method!r}: {exc}",
                        shard=shard,
                    ) from exc
                with self._count_lock:
                    self.shards_skipped += 1
        return responses

    # -- mutations ----------------------------------------------------------

    def _call_insert_bulk(
        self, data: bytes, deadline: float | None
    ) -> Reader:
        reader = Reader(data)
        batch = RecordBatch.read_from(reader)
        reader.expect_end()
        if batch.permutations is not None:
            tops = batch.permutations[:, 0].astype(np.int64)
        else:
            # under the precise/transformed strategies only distances
            # travel; the top pivot is the argmin of each row (stable
            # first-minimum, matching pivot_permutations' tie-break —
            # and preserved by the monotone OPE transform)
            tops = np.argmin(batch.distances, axis=1).astype(np.int64)
        per_shard: dict[int, bytes] = {}
        for shard, rows in enumerate(self.shard_map.split_rows(tops)):
            per_shard[shard] = (
                batch.select(rows).write_to(Writer()).getvalue()
            )
        responses = self._scatter(
            "insert_bulk", per_shard, deadline, strict=True
        )
        total = sum(response.u64() for _shard, response in responses)
        return Reader(Writer().u64(total).getvalue())

    def _call_delete(self, data: bytes, deadline: float | None) -> Reader:
        reader = Reader(data)
        record = IndexedRecord.read_from(reader)
        reader.expect_end()
        shard = self.shard_map.shard_of(
            int(record.ensure_permutation()[0])
        )
        responses = self._scatter(
            "delete", {shard: data}, deadline, strict=True
        )
        return responses[0][1]

    # -- searches -----------------------------------------------------------

    def _route_search(
        self,
        search: Search,
        single: bool,
        data: bytes,
        deadline: float | None,
    ) -> Reader:
        """Answer a search request in the form it was asked in.

        The shards are sent the batch request — a single request
        re-encoded as a batch of one — under the search's scatter
        method, their groups are merged into the single-server
        candidate sets, and those are written as one server would.
        What the request codec does not check (a negative radius,
        crossed intervals, the number of pivots) the shards do.
        """
        queries, options = search.read_request(Reader(data), single=single)
        if single:
            data = search.write_request(*queries, **options).getvalue()
        responses = self._scatter(
            search.scatter, data, deadline, strict=False
        )
        n_queries = queries[0].shape[0]
        if search is KNN:
            tables, rows = merge_knn_candidates(
                [
                    (shard, *read_knn_scatter_response(response))
                    for shard, response in responses
                ],
                n_queries,
                **options,
            )
        else:
            tables, rows = merge_range_candidates(
                [
                    (shard, *read_range_scatter_response(response))
                    for shard, response in responses
                ],
                n_queries,
            )
        if single:
            return Reader(write_candidates(tables, rows[0]).getvalue())
        return Reader(write_candidate_lists(tables, rows).getvalue())

    # -- diagnostics ---------------------------------------------------------

    def _call_stats(self, data: bytes, deadline: float | None) -> Reader:
        Reader(data).expect_end()
        per_shard, merged = self.cluster_stats(deadline=deadline)
        del per_shard
        return Reader(write_stats_map(merged).getvalue())

    def cluster_stats(
        self, *, deadline: float | None = None
    ) -> tuple[dict[int, dict], dict]:
        """Per-shard and cluster-summed counter views.

        Returns ``({shard: stats}, merged)`` where ``merged`` sums
        every counter (maxima for structural bounds), recomputes the
        occupancy average, and adds ``shards`` (responding shard count)
        plus the router-side ``shards_skipped``.
        """
        responses = self._scatter("stats", b"", deadline, strict=False)
        per_shard = {
            shard: read_stats_map(response)
            for shard, response in responses
        }
        merged = merge_stats(list(per_shard.values()))
        merged["shards"] = float(len(per_shard))
        with self._count_lock:
            merged["shards_skipped"] = float(self.shards_skipped)
        return per_shard, merged

    def _call_ping(self, data: bytes, deadline: float | None) -> Reader:
        Reader(data).expect_end()
        responses = self._scatter("ping", b"", deadline, strict=False)
        for _shard, response in responses:
            if response.string() != "pong":
                raise ProtocolError("unexpected ping response from shard")
        return Reader(Writer().string("pong").getvalue())

    def _call_healthz(self, data: bytes, deadline: float | None) -> Reader:
        Reader(data).expect_end()
        responses = self._scatter("healthz", b"", deadline, strict=False)
        draining = False
        records = 0
        for _shard, response in responses:
            if response.string() == "draining":
                draining = True
            records += response.u64()
        writer = Writer()
        writer.string("draining" if draining else "ok")
        writer.u64(records)
        return Reader(writer.getvalue())

    # -- rebalance ----------------------------------------------------------

    def rebalance(
        self,
        pivots,
        target: int,
        *,
        deadline: float | None = None,
    ) -> int:
        """Move the given top-level pivots to shard ``target``.

        Copy-before-delete per source shard: export the range (the
        export body is forwarded verbatim as an ``insert_bulk``; a range
        without records has nothing to copy), land it on the target,
        then drop it from the source and update the shard map.
        A failure leaves at worst a duplicated range — the merges
        suppress duplicate oids — never a lost one. Returns the number
        of records moved. All involved shards must be reachable
        (rebalance is a mutation: never partial).
        """
        if not 0 <= target < self.n_shards:
            raise ProtocolError(
                f"shard {target} outside 0..{self.n_shards - 1}"
            )
        by_source: dict[int, list[int]] = {}
        for pivot in sorted({int(p) for p in pivots}):
            source = self.shard_map.shard_of(pivot)
            if source != target:
                by_source.setdefault(source, []).append(pivot)
        moved = 0
        for source, group in sorted(by_source.items()):
            pivot_body = (
                Writer()
                .i32_array(np.asarray(group, dtype=np.int32))
                .getvalue()
            )
            try:
                exported = self.shard_clients[source].call(
                    "export_cells", pivot_body, deadline=deadline
                ).rest()
                count = Reader(exported).u32()
                if count:
                    self.shard_clients[target].call(
                        "insert_bulk", exported, deadline=deadline
                    )
                self.shard_clients[source].call(
                    "drop_cells", pivot_body, deadline=deadline
                )
            except DeadlineExceededError:
                raise
            except ChannelError as exc:
                raise ShardUnavailableError(
                    f"rebalance of pivots {group} from shard {source} to "
                    f"{target} failed: {exc}",
                    shard=source,
                ) from exc
            self.shard_map = self.shard_map.moved(group, target)
            moved += count
        return moved

    # -- cluster-wide diagnostics -------------------------------------------

    def dump_cells(
        self, *, deadline: float | None = None
    ) -> dict[tuple[int, ...], list[tuple[int, bytes]]]:
        """Union of every shard's cell-tree contents (strict read).

        For equivalence checks: with every shard root split, this
        equals the single-server dump for the same records.
        """
        from repro.wire.scatter import read_cell_dump

        responses = self._scatter("dump_cells", b"", deadline, strict=True)
        cells: dict[tuple[int, ...], list[tuple[int, bytes]]] = {}
        for _shard, response in responses:
            for prefix, records in read_cell_dump(response).items():
                cells.setdefault(prefix, []).extend(records)
        return cells
