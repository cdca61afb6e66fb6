"""Metric-Preserving Transformation (MPT) — Yiu et al., paper §3.2.

Each object is stored with its distances to a secret set of reference
points, passed through an **order-preserving encryption** — a secret
strictly increasing function. The server can compare transformed values
but cannot recover true distances, hiding the distance distribution
(privacy level 4 of §2.3).

Filtering works because OPE preserves interval membership: an object
``o`` can satisfy ``d(q, o) <= r`` only if, for every reference ``p``,

    ``d(q, p) - r  <=  d(o, p)  <=  d(q, p) + r``

and applying the monotone ``E`` to all three sides keeps the
inequalities. The authorized client therefore computes the transformed
interval endpoints ``[E(d(q,p)-r), E(d(q,p)+r)]`` and the server
filters by interval membership — the pivot-filter lower bound evaluated
entirely in OPE space.

k-NN is answered by radius doubling over range queries (the classic
reduction), costing extra round trips — one of the drawbacks the paper
notes for this family. The scheme's operational weakness is faithfully
reproduced too: the OPE must be **fitted on a representative sample of
distances before outsourcing** (:meth:`MptClient.outsource` does the
calibration), which is brittle for dynamic collections (§3.2).
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
from repro.crypto.cipher import AesCipher
from repro.crypto.ope import OrderPreservingEncryption
from repro.exceptions import QueryError
from repro.metric.space import MetricSpace
from repro.net.channel import InProcessChannel
from repro.net.clock import Clock
from repro.net.rpc import RpcClient, RpcDispatcher
from repro.wire.encoding import BlobColumn, Reader, Writer

__all__ = ["MptServer", "MptClient", "build_mpt"]


class MptServer:
    """Stores (oid, OPE-transformed reference distances, token) rows and
    filters range queries by transformed-interval membership."""

    def __init__(self, *, clock: Clock | None = None) -> None:
        self._oids: list[int] = []
        self._tokens: list[bytes] = []
        self._rows: list[np.ndarray] = []
        self._matrix: np.ndarray | None = None
        self.dispatcher = RpcDispatcher(clock=clock)
        self.dispatcher.register("mpt_insert", self._handle_insert)
        self.dispatcher.register("mpt_range", self._handle_range)

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
        return len(self._oids)

    def _handle_insert(self, body: Reader) -> Writer:
        count = body.u32()
        for _ in range(count):
            oid = body.u64()
            transformed = body.f64_array()
            token = body.blob()
            self._oids.append(oid)
            self._rows.append(transformed)
            self._tokens.append(token)
        body.expect_end()
        self._matrix = None  # invalidate the filter cache
        return Writer().u64(len(self._oids))

    def _handle_range(self, body: Reader) -> Writer:
        lows = body.f64_array()
        highs = body.f64_array()
        body.expect_end()
        if lows.shape != highs.shape:
            raise QueryError(
                f"interval bound arrays differ: {lows.shape} vs {highs.shape}"
            )
        writer = Writer()
        if not self._rows:
            writer.u32(0)
            return writer
        if self._matrix is None:
            self._matrix = np.stack(self._rows)
        if self._matrix.shape[1] != lows.shape[0]:
            raise QueryError(
                f"query uses {lows.shape[0]} references, index has "
                f"{self._matrix.shape[1]}"
            )
        mask = np.all(
            (self._matrix >= lows) & (self._matrix <= highs), axis=1
        )
        matches = np.nonzero(mask)[0]
        writer.u32(len(matches))
        for row in matches:
            writer.u64(self._oids[row])
            writer.blob(self._tokens[row])
        return writer


class MptClient:
    """Authorized client holding references, the OPE key and the cipher."""

    def __init__(
        self,
        references: np.ndarray,
        ope: OrderPreservingEncryption,
        cipher: AesCipher,
        space: MetricSpace,
        rpc: RpcClient,
    ) -> None:
        references = np.asarray(references, dtype=np.float64)
        if references.ndim != 2 or references.shape[0] == 0:
            raise QueryError(
                f"references must be a non-empty 2-D array, got shape "
                f"{references.shape}"
            )
        self.references = references
        self.ope = ope
        self.cipher = cipher
        self.space = space
        self.rpc = rpc
        self.costs = CostRecorder()

    # -- construction -----------------------------------------------------

    def outsource(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
        calibration_sample: int = 500,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Calibrate the OPE on sampled distances, then upload.

        The calibration-before-outsourcing step is MPT's documented
        weakness for dynamic collections; it is modeled explicitly.
        """
        if len(oids) != len(vectors):
            raise QueryError(
                f"oids ({len(oids)}) and vectors ({len(vectors)}) differ"
            )
        vectors = np.asarray(vectors, dtype=np.float64)
        rng = rng or np.random.default_rng(0)
        with self.costs.time(CLIENT):
            sample_size = min(calibration_sample, len(vectors))
            sample = vectors[
                rng.choice(len(vectors), size=sample_size, replace=False)
            ]
            with self.costs.time(DISTANCE):
                sample_distances = np.stack(
                    [
                        self.space.d_batch(vector, self.references)
                        for vector in sample
                    ]
                )
            self.ope.fit(sample_distances)
        total = 0
        for start in range(0, len(oids), bulk_size):
            stop = min(start + bulk_size, len(oids))
            with self.costs.time(CLIENT):
                with self.costs.time(DISTANCE):
                    rows = [
                        self.space.d_batch(vectors[position], self.references)
                        for position in range(start, stop)
                    ]
                with self.costs.time(ENCRYPTION):
                    transformed = [self.ope.encrypt(row) for row in rows]
                    plain = np.ascontiguousarray(vectors[start:stop], dtype="<f8")
                    tokens = self.cipher.encrypt_many(plain.view(np.uint8))
                writer = Writer()
                writer.u32(stop - start)
                for position, row, token in zip(
                    range(start, stop), transformed, tokens
                ):
                    writer.u64(int(oids[position]))
                    writer.f64_array(np.asarray(row))
                    writer.blob(token)
            total = self.rpc.call("mpt_insert", writer).u64()
        return total

    # -- search -----------------------------------------------------------------

    def range_search(self, query: np.ndarray, radius: float) -> list[SearchHit]:
        """Exact range query via OPE-space interval filtering."""
        if radius < 0:
            raise QueryError(f"radius must be >= 0, got {radius}")
        hits = self._range_round(query, radius)
        return [hit for hit in hits if hit.distance <= radius]

    def knn_search(
        self, query: np.ndarray, k: int, *, initial_radius: float | None = None
    ) -> list[SearchHit]:
        """Exact k-NN by radius doubling over range rounds."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                ref_dists = self.space.d_batch(query, self.references)
            radius = (
                initial_radius
                if initial_radius is not None
                else max(float(ref_dists.min()) / 2.0, 1e-9)
            )
        while True:
            hits = self._range_round(query, radius)
            enough = len([h for h in hits if h.distance <= radius]) >= k
            if enough:
                hits.sort(key=lambda hit: (hit.distance, hit.oid))
                return hits[:k]
            radius *= 2.0
            self.costs.add_count("knn_rounds")
            if radius > 1e18:  # collection smaller than k
                hits.sort(key=lambda hit: (hit.distance, hit.oid))
                return hits[:k]

    def _range_round(self, query: np.ndarray, radius: float) -> list[SearchHit]:
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                ref_dists = self.space.d_batch(query, self.references)
            with self.costs.time(ENCRYPTION):
                lows = self.ope.encrypt(np.maximum(ref_dists - radius, 0.0))
                highs = self.ope.encrypt(ref_dists + radius)
            writer = Writer()
            writer.f64_array(np.asarray(lows))
            writer.f64_array(np.asarray(highs))
        reader = self.rpc.call("mpt_range", writer)
        with self.costs.time(CLIENT):
            count = reader.u32()
            oids: list[int] = []
            tokens: list[bytes] = []
            for _ in range(count):
                oids.append(reader.u64())
                tokens.append(reader.blob())
            reader.expect_end()
            if not tokens:
                return []
            with self.costs.time(DECRYPTION):
                candidates = rows_to_vectors(
                    self.cipher.decrypt_many(BlobColumn.of(tokens).as_matrix())
                )
            with self.costs.time(DISTANCE):
                distances = self.space.d_batch(query, candidates)
            hits = [
                SearchHit(oid, vector, float(dist))
                for oid, vector, dist in zip(oids, candidates, distances)
            ]
            hits.sort(key=lambda hit: (hit.distance, hit.oid))
        return hits

    # -- accounting ----------------------------------------------------------------

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
            extras={
                "round_trips": self.rpc.channel.requests,
                "knn_rounds": self.costs.count("knn_rounds"),
            },
        )

    def reset_accounting(self) -> None:
        """Zero client-side and channel accounting."""
        self.costs.reset()
        self.rpc.reset_accounting()


def build_mpt(
    references: np.ndarray,
    cipher: AesCipher,
    space: MetricSpace,
    *,
    ope_key: bytes = b"mpt-ope-key",
    latency: float = 50e-6,
    bandwidth: float | None = 1.25e9,
) -> tuple[MptServer, MptClient]:
    """Wire an MPT server and client over an in-process channel."""
    server = MptServer()
    channel = InProcessChannel(
        server.handle, latency=latency, bandwidth=bandwidth
    )
    client = MptClient(
        references,
        OrderPreservingEncryption(ope_key),
        cipher,
        space,
        RpcClient(channel),
    )
    return server, client
