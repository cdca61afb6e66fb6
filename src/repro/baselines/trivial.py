"""The trivial "download everything" baseline (paper §3).

The data owner uploads AES tokens with no index information at all; an
authorized client answers any query by downloading the whole collection,
decrypting it and searching locally. Perfect privacy, catastrophic
communication cost — the paper's lower bound on privacy and upper bound
on cost, against which everything else is judged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.client import SearchHit
from repro.core.costs import (
    CLIENT,
    DECRYPTION,
    DISTANCE,
    ENCRYPTION,
    CostRecorder,
    CostReport,
)
from repro.core.records import rows_to_vectors
from repro.crypto.keys import SecretKey
from repro.exceptions import QueryError
from repro.metric.space import MetricSpace
from repro.net.channel import InProcessChannel
from repro.net.clock import Clock
from repro.net.rpc import RpcClient, RpcDispatcher
from repro.wire.encoding import BlobColumn, Reader, Writer

__all__ = ["TrivialServer", "TrivialClient", "build_trivial"]


class TrivialServer:
    """A pure blob store: ``store`` tokens, ``fetch_all`` of them."""

    def __init__(self, *, clock: Clock | None = None) -> None:
        self._blobs: list[tuple[int, bytes]] = []
        self.dispatcher = RpcDispatcher(clock=clock)
        self.dispatcher.register("store", self._handle_store)
        self.dispatcher.register("fetch_all", self._handle_fetch_all)

    def handle(self, request: bytes) -> bytes:
        """Raw request entry point, pluggable into any channel."""
        return self.dispatcher.handle(request)

    @property
    def server_time(self) -> float:
        """Accumulated processing time across handled calls."""
        return self.dispatcher.server_time

    def reset_accounting(self) -> None:
        """Zero server-side accounting."""
        self.dispatcher.reset_accounting()

    def __len__(self) -> int:
        return len(self._blobs)

    def _handle_store(self, body: Reader) -> Writer:
        count = body.u32()
        for _ in range(count):
            oid = body.u64()
            token = body.blob()
            self._blobs.append((oid, token))
        body.expect_end()
        return Writer().u64(len(self._blobs))

    def _handle_fetch_all(self, body: Reader) -> Writer:
        body.expect_end()
        writer = Writer()
        writer.u32(len(self._blobs))
        for oid, token in self._blobs:
            writer.u64(oid)
            writer.blob(token)
        return writer


class TrivialClient:
    """Authorized client: encrypt-and-upload, download-and-search."""

    def __init__(
        self, secret_key: SecretKey, space: MetricSpace, rpc: RpcClient
    ) -> None:
        self.secret_key = secret_key
        self.space = space
        self.rpc = rpc
        self.costs = CostRecorder()

    def insert_many(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
    ) -> int:
        """Encrypt and upload tokens; no index information leaves."""
        if len(oids) != len(vectors):
            raise QueryError(
                f"oids ({len(oids)}) and vectors ({len(vectors)}) differ"
            )
        total = 0
        for start in range(0, len(oids), bulk_size):
            stop = min(start + bulk_size, len(oids))
            with self.costs.time(CLIENT):
                with self.costs.time(ENCRYPTION):
                    rows = np.ascontiguousarray(vectors[start:stop], dtype="<f8")
                    tokens = self.secret_key.cipher.encrypt_many(
                        rows.view(np.uint8)
                    )
                writer = Writer()
                writer.u32(stop - start)
                for position, token in zip(range(start, stop), tokens):
                    writer.u64(int(oids[position]))
                    writer.blob(token)
            total = self.rpc.call("store", writer).u64()
        return total

    def knn_search(self, query: np.ndarray, k: int) -> list[SearchHit]:
        """Exact k-NN by downloading and scanning the whole collection."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        hits = self._download_and_refine(query)
        return hits[:k]

    def range_search(self, query: np.ndarray, radius: float) -> list[SearchHit]:
        """Exact range query by full download."""
        if radius < 0:
            raise QueryError(f"radius must be >= 0, got {radius}")
        hits = self._download_and_refine(query)
        return [hit for hit in hits if hit.distance <= radius]

    # -- batched queries ---------------------------------------------------

    def knn_batch(
        self, queries: np.ndarray, k: int
    ) -> list[list[SearchHit]]:
        """Exact k-NN for a query batch from a *single* full download.

        For this baseline, batching is the natural amortization: the
        catastrophic download + decryption cost is paid once for the
        whole batch instead of once per query, and all query–object
        distances come out of one ``d_pairwise`` call. Per-query answers
        equal looped :meth:`knn_search` calls.
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        return [hits[:k] for hits in self._download_and_refine_batch(queries)]

    def range_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[SearchHit]]:
        """Exact range queries for a batch sharing one radius, from a
        single full download."""
        if radius < 0:
            raise QueryError(f"radius must be >= 0, got {radius}")
        return [
            [hit for hit in hits if hit.distance <= radius]
            for hits in self._download_and_refine_batch(queries)
        ]

    def _download_and_refine(self, query: np.ndarray) -> list[SearchHit]:
        oids, vectors = self._download()
        if not oids:
            return []
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                distances = self.space.d_batch(query, vectors)
            hits = [
                SearchHit(oid, vector, float(dist))
                for oid, vector, dist in zip(oids, vectors, distances)
            ]
            hits.sort(key=lambda hit: (hit.distance, hit.oid))
        return hits

    def _download_and_refine_batch(
        self, queries: np.ndarray
    ) -> list[list[SearchHit]]:
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.shape[0] == 0:
            return []
        oids, vectors = self._download()
        if not oids:
            return [[] for _ in range(queries.shape[0])]
        results: list[list[SearchHit]] = []
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                distance_matrix = self.space.d_pairwise(queries, vectors)
            for row in distance_matrix:
                hits = [
                    SearchHit(oid, vector, float(dist))
                    for oid, vector, dist in zip(oids, vectors, row)
                ]
                hits.sort(key=lambda hit: (hit.distance, hit.oid))
                results.append(hits)
        return results

    def _download(self) -> tuple[list[int], np.ndarray | None]:
        """Fetch and decrypt the whole collection (the baseline's cost)."""
        reader = self.rpc.call("fetch_all")
        with self.costs.time(CLIENT):
            count = reader.u32()
            oids: list[int] = []
            tokens: list[bytes] = []
            for _ in range(count):
                oids.append(reader.u64())
                tokens.append(reader.blob())
            reader.expect_end()
            if not tokens:
                return [], None
            with self.costs.time(DECRYPTION):
                vectors = rows_to_vectors(
                    self.secret_key.cipher.decrypt_many(
                        BlobColumn.of(tokens).as_matrix()
                    )
                )
        return oids, vectors

    def report(self) -> CostReport:
        """Cost snapshot in the paper's components."""
        return CostReport(
            client_time=self.costs.seconds(CLIENT),
            encryption_time=self.costs.seconds(ENCRYPTION),
            decryption_time=self.costs.seconds(DECRYPTION),
            distance_time=self.costs.seconds(DISTANCE),
            server_time=self.rpc.server_time,
            communication_time=self.rpc.channel.communication_time,
            communication_bytes=self.rpc.channel.bytes_total,
        )

    def reset_accounting(self) -> None:
        """Zero client-side and channel accounting."""
        self.costs.reset()
        self.rpc.reset_accounting()


def build_trivial(
    secret_key: SecretKey,
    space: MetricSpace,
    *,
    latency: float = 50e-6,
    bandwidth: float | None = 1.25e9,
) -> tuple[TrivialServer, TrivialClient]:
    """Wire a trivial server and client over an in-process channel."""
    server = TrivialServer()
    channel = InProcessChannel(
        server.handle, latency=latency, bandwidth=bandwidth
    )
    return server, TrivialClient(secret_key, space, RpcClient(channel))
