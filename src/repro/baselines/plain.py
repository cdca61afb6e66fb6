"""The non-encrypted M-Index baseline (paper Tables 4, 7 and 8).

In the "No encryption" setting of §2.3 the server holds the plaintext
MS objects, the pivots and the metric, so the *entire* search runs
server-side and only the final answer set (k objects) travels back —
which is why the paper's plain-variant communication cost is flat in
the candidate-set size while the encrypted variant grows linearly.

The server reuses the very same :class:`~repro.mindex.index.MIndex`;
the difference is solely *who* computes distances and what the payloads
contain (plaintext vectors instead of AES tokens).
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.core.costs import CLIENT, DISTANCE, CostRecorder, CostReport
from repro.core.client import SearchHit
from repro.core.records import (
    CellRecords,
    IndexedRecord,
    RecordBatch,
    rows_to_vectors,
    vector_to_payload,
)
from repro.exceptions import QueryError
from repro.metric.distances import Distance
from repro.metric.permutations import pivot_permutation, pivot_permutations
from repro.metric.space import MetricSpace
from repro.mindex.index import MIndex
from repro.net.channel import InProcessChannel
from repro.net.clock import Clock
from repro.net.rpc import RpcClient, RpcDispatcher
from repro.storage.memory import MemoryStorage
from repro.wire.encoding import BlobColumn, Reader, Writer

__all__ = ["PlainServer", "PlainClient", "build_plain"]


class PlainServer:
    """Server of the non-encrypted variant: pivots, metric and all.

    RPC methods: ``insert_plain`` (per-record raw vectors; the server
    computes pivot distances itself), ``insert_plain_bulk`` (one oid
    column + one vector matrix per bulk; distances, permutations and
    group-wise index routing all run vectorized — the plain twin of the
    encrypted ``insert_bulk``, so the construction comparison isolates
    the encryption layer rather than loop overhead), ``knn_plain``
    (full search + refinement server-side, returns the answer set),
    ``range_plain`` and ``stats``. Handlers serialize on a mutex — the
    plain server computes distances and charges its own cost recorder,
    neither of which is concurrency-safe, and as the comparison
    baseline it should not gain or lose time to locking subtleties.
    """

    def __init__(
        self,
        pivots: np.ndarray,
        distance: Distance,
        bucket_capacity: int,
        *,
        storage=None,
        max_level: int = 8,
        clock: Clock | None = None,
    ) -> None:
        pivots = np.asarray(pivots, dtype=np.float64)
        self.pivots = pivots
        self.space = MetricSpace(distance, pivots.shape[1])
        self.storage = storage if storage is not None else MemoryStorage()
        self.index = MIndex(
            pivots.shape[0], bucket_capacity, self.storage, max_level=max_level
        )
        self.costs = CostRecorder()
        self._mutex = threading.Lock()
        self.dispatcher = RpcDispatcher(clock=clock)
        self.dispatcher.register("insert_plain", self._handle_insert)
        self.dispatcher.register(
            "insert_plain_bulk", self._handle_insert_bulk
        )
        self.dispatcher.register("knn_plain", self._handle_knn)
        self.dispatcher.register("range_plain", self._handle_range)
        self.dispatcher.register("stats", self._handle_stats)

    def handle(self, request: bytes) -> bytes:
        """Raw request entry point, pluggable into any channel."""
        return self.dispatcher.handle(request)

    @property
    def server_time(self) -> float:
        """Accumulated processing time across handled calls."""
        return self.dispatcher.server_time

    @property
    def distance_time(self) -> float:
        """Server-side distance-computation time (subset of server time)."""
        return self.costs.seconds(DISTANCE)

    def reset_accounting(self) -> None:
        """Zero all server-side accounting."""
        self.dispatcher.reset_accounting()
        self.costs.reset()
        self.space.reset_counter()
        self.storage.reset_accounting()

    # -- handlers ------------------------------------------------------------

    def _handle_insert(self, body: Reader) -> Writer:
        count = body.u32()
        dim = self.pivots.shape[1]
        with self._mutex:
            for _ in range(count):
                oid = body.u64()
                vector = body.f64_array()
                if vector.shape[0] != dim:
                    raise QueryError(
                        f"vector of dim {vector.shape[0]} does not match "
                        f"index dim {dim}"
                    )
                with self.costs.time(DISTANCE):
                    distances = self.space.d_batch(vector, self.pivots)
                record = IndexedRecord(
                    oid,
                    pivot_permutation(distances),
                    distances,
                    vector_to_payload(vector),
                )
                self.index.insert(record)
            body.expect_end()
            return Writer().u64(len(self.index))

    def _handle_insert_bulk(self, body: Reader) -> Writer:
        oids = body.u64_array()
        vectors = body.f64_matrix()
        body.expect_end()
        if vectors.shape[0] != oids.shape[0]:
            raise QueryError(
                f"bulk carries {vectors.shape[0]} vectors for "
                f"{oids.shape[0]} oids"
            )
        dim = self.pivots.shape[1]
        if vectors.shape[0] and vectors.shape[1] != dim:
            raise QueryError(
                f"vectors of dim {vectors.shape[1]} do not match "
                f"index dim {dim}"
            )
        if oids.shape[0] == 0:
            with self._mutex:
                return Writer().u64(len(self.index))
        with self._mutex:
            with self.costs.time(DISTANCE):
                distance_matrix = self.space.d_pairwise(vectors, self.pivots)
            # a payload is the vector's float64 bytes (vector_to_payload)
            rows = np.ascontiguousarray(vectors, dtype="<f8")
            self.index.bulk_insert(
                RecordBatch(
                    oids,
                    pivot_permutations(distance_matrix),
                    distance_matrix,
                    BlobColumn(rows.view(np.uint8).reshape(len(rows), -1)),
                )
            )
            return Writer().u64(len(self.index))

    def _handle_knn(self, body: Reader) -> Writer:
        query = body.f64_array()
        k = body.u32()
        cand_size = body.u32()
        max_cells = body.u32()
        body.expect_end()
        if k == 0 or cand_size < k:
            raise QueryError(
                f"invalid k={k} / cand_size={cand_size} combination"
            )
        with self._mutex:
            with self.costs.time(DISTANCE):
                q_dists = self.space.d_batch(query, self.pivots)
            permutation = pivot_permutation(q_dists)
            candidates = self.index.approx_knn_candidates(
                permutation,
                cand_size,
                max_cells=max_cells if max_cells > 0 else None,
            )
            hits = self._refine(query, candidates)
        return _write_answers(hits[:k])

    def _handle_range(self, body: Reader) -> Writer:
        query = body.f64_array()
        radius = body.f64()
        body.expect_end()
        with self._mutex:
            with self.costs.time(DISTANCE):
                q_dists = self.space.d_batch(query, self.pivots)
            candidates = self.index.range_search(q_dists, radius)
            hits = [
                hit for hit in self._refine(query, candidates)
                if hit.distance <= radius
            ]
        return _write_answers(hits)

    def _refine(
        self, query: np.ndarray, candidates: CellRecords
    ) -> list[SearchHit]:
        if not len(candidates):
            return []
        # the candidates arrive as columns and stay columns, as on the
        # encrypted client: one matrix gathered out of the cells' payloads
        payloads = [cell.payloads for cell in candidates.cells]
        vectors = rows_to_vectors(
            BlobColumn.gathered(payloads, candidates.rows).as_matrix()
        )
        with self.costs.time(DISTANCE):
            distances = self.space.d_batch(query, vectors)
        hits = [
            SearchHit(oid, vector, dist)
            for oid, vector, dist in zip(
                candidates.oids.tolist(), vectors, distances.tolist()
            )
        ]
        hits.sort(key=lambda hit: (hit.distance, hit.oid))
        return hits

    def _handle_stats(self, body: Reader) -> Writer:
        body.expect_end()
        with self._mutex:
            stats = self.index.statistics()
        writer = Writer()
        writer.u32(len(stats))
        for key, value in sorted(stats.items()):
            writer.string(key)
            writer.f64(float(value))
        return writer


def _write_answers(hits: list[SearchHit]) -> Writer:
    writer = Writer()
    writer.u32(len(hits))
    for hit in hits:
        writer.u64(hit.oid)
        writer.f64(hit.distance)
        writer.f64_array(hit.vector)
    return writer


def _read_answers(reader: Reader) -> list[SearchHit]:
    count = reader.u32()
    hits = []
    for _ in range(count):
        oid = reader.u64()
        distance = reader.f64()
        vector = reader.f64_array()
        hits.append(SearchHit(oid, vector, distance))
    reader.expect_end()
    return hits


class PlainClient:
    """Client of the non-encrypted variant: sends queries, gets answers.

    Client-side work is serialization only, matching the paper's "the
    amount of work on the client is negligible".
    """

    def __init__(self, rpc: RpcClient) -> None:
        self.rpc = rpc
        self.costs = CostRecorder()

    def insert_many(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
    ) -> int:
        """Send raw objects in columnar bulks; the server does all
        indexing work (vectorized, see ``insert_plain_bulk``)."""
        if len(oids) != len(vectors):
            raise QueryError(
                f"oids ({len(oids)}) and vectors ({len(vectors)}) differ"
            )
        total = 0
        for start in range(0, len(oids), bulk_size):
            stop = min(start + bulk_size, len(oids))
            with self.costs.time(CLIENT):
                writer = Writer()
                writer.u64_array(
                    np.array(
                        [int(o) for o in oids[start:stop]], dtype=np.uint64
                    )
                )
                writer.f64_matrix(
                    np.asarray(vectors[start:stop], dtype=np.float64)
                )
            response = self.rpc.call("insert_plain_bulk", writer)
            total = response.u64()
        return total

    def knn_search(
        self,
        query: np.ndarray,
        k: int,
        *,
        cand_size: int,
        max_cells: int | None = None,
    ) -> list[SearchHit]:
        """Approximate k-NN, fully server-side."""
        with self.costs.time(CLIENT):
            writer = Writer()
            writer.f64_array(np.asarray(query, dtype=np.float64))
            writer.u32(k)
            writer.u32(cand_size)
            writer.u32(max_cells if max_cells is not None else 0)
        reader = self.rpc.call("knn_plain", writer)
        with self.costs.time(CLIENT):
            return _read_answers(reader)

    def range_search(self, query: np.ndarray, radius: float) -> list[SearchHit]:
        """Precise range query, fully server-side."""
        if not radius >= 0:  # NaN compares false either way
            raise QueryError(f"radius must be >= 0, got {radius}")
        with self.costs.time(CLIENT):
            writer = Writer()
            writer.f64_array(np.asarray(query, dtype=np.float64))
            writer.f64(radius)
        reader = self.rpc.call("range_plain", writer)
        with self.costs.time(CLIENT):
            return _read_answers(reader)

    # -- batched queries ---------------------------------------------------

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        cand_size: int,
        max_cells: int | None = None,
    ) -> list[list[SearchHit]]:
        """Approximate k-NN for a query batch: looped
        :meth:`knn_search` calls (this baseline has no client-side work
        to amortize, and its server answers one request at a time)."""
        return [
            self.knn_search(query, k, cand_size=cand_size, max_cells=max_cells)
            for query in self._as_query_matrix(queries)
        ]

    def range_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[SearchHit]]:
        """Precise range queries for a batch sharing one radius: looped
        :meth:`range_search` calls."""
        return [
            self.range_search(query, radius)
            for query in self._as_query_matrix(queries)
        ]

    @staticmethod
    def _as_query_matrix(queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries, dtype=np.float64)
        return queries.reshape(1, -1) if queries.ndim == 1 else queries

    def report(self) -> CostReport:
        """Cost snapshot (client side + server view + channel)."""
        return CostReport(
            client_time=self.costs.seconds(CLIENT),
            server_time=self.rpc.server_time,
            communication_time=self.rpc.channel.communication_time,
            communication_bytes=self.rpc.channel.bytes_total,
        )

    def reset_accounting(self) -> None:
        """Zero client-side and channel accounting."""
        self.costs.reset()
        self.rpc.reset_accounting()


def build_plain(
    pivots: np.ndarray,
    distance: Distance,
    bucket_capacity: int,
    *,
    storage=None,
    max_level: int = 8,
    latency: float = 50e-6,
    bandwidth: float | None = 1.25e9,
) -> tuple[PlainServer, PlainClient]:
    """Wire a plain server and client over an in-process channel.

    Pass the same pivots the encrypted variant uses so the comparison
    isolates the encryption layer, as in the paper ("all the settings
    were the same, the only difference was the absence of the
    encryption layer").
    """
    server = PlainServer(
        pivots, distance, bucket_capacity, storage=storage, max_level=max_level
    )
    channel = InProcessChannel(
        server.handle, latency=latency, bandwidth=bandwidth
    )
    return server, PlainClient(RpcClient(channel))
