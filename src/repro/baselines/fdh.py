"""Flexible Distance-based Hashing (FDH) — Yiu et al. (paper §5.4).

A secret set of *anchor spheres* ``(a_i, r_i)`` hashes every object to
the bit vector ``h(o)[i] = [d(o, a_i) <= r_i]``. The server groups
encrypted objects by hash value; at query time it returns the buckets
whose hashes are closest to the query's in **Hamming distance** until
the requested candidate-set size is reached. The authorized client
decrypts and refines — an approximate scheme, like the approximate
Encrypted M-Index, which is why the paper's §5.4 singles FDH out for
the CPU-time comparison.

Anchors and radii are part of the secret key; the server sees only bit
patterns and ciphertext, so the distance distribution stays hidden
(privacy level 4), at the price of a much coarser server-side pruning
signal than pivot permutations provide.
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
from repro.exceptions import QueryError
from repro.metric.space import MetricSpace
from repro.net.channel import InProcessChannel
from repro.net.clock import Clock
from repro.net.rpc import RpcClient, RpcDispatcher
from repro.wire.encoding import BlobColumn, Reader, Writer

__all__ = ["FdhServer", "FdhClient", "build_fdh", "select_anchors"]


def select_anchors(
    vectors: np.ndarray,
    n_anchors: int,
    space: MetricSpace,
    *,
    rng: np.random.Generator | None = None,
    sample_size: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """Choose anchor objects and per-anchor radii from the collection.

    Anchors are random data objects; each radius is the **median**
    distance from the anchor to a data sample, which balances the bit
    (half the collection inside, half outside) and maximizes its
    pruning information.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if n_anchors <= 0:
        raise QueryError(f"n_anchors must be positive, got {n_anchors}")
    if n_anchors > len(vectors):
        raise QueryError(
            f"cannot pick {n_anchors} anchors from {len(vectors)} objects"
        )
    rng = rng or np.random.default_rng(0)
    anchor_idx = rng.choice(len(vectors), size=n_anchors, replace=False)
    anchors = vectors[anchor_idx].copy()
    sample = vectors[
        rng.choice(len(vectors), size=min(sample_size, len(vectors)), replace=False)
    ]
    radii = np.array(
        [float(np.median(space.d_batch(anchor, sample))) for anchor in anchors]
    )
    return anchors, radii


def _hash_bits(
    vector: np.ndarray,
    anchors: np.ndarray,
    radii: np.ndarray,
    space: MetricSpace,
) -> int:
    """Hash an object to an integer bit pattern (bit i = inside sphere i)."""
    dists = space.d_batch(vector, anchors)
    bits = 0
    for i, (dist, radius) in enumerate(zip(dists, radii)):
        if dist <= radius:
            bits |= 1 << i
    return bits


class FdhServer:
    """Buckets of encrypted objects keyed by hash bit patterns."""

    def __init__(self, *, clock: Clock | None = None) -> None:
        self._buckets: dict[int, list[tuple[int, bytes]]] = {}
        self.dispatcher = RpcDispatcher(clock=clock)
        self.dispatcher.register("fdh_insert", self._handle_fdh_insert)
        self.dispatcher.register("fdh_candidates", self._handle_candidates)

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
        return sum(len(bucket) for bucket in self._buckets.values())

    def _handle_fdh_insert(self, body: Reader) -> Writer:
        count = body.u32()
        for _ in range(count):
            oid = body.u64()
            hash_bits = body.u64()
            token = body.blob()
            self._buckets.setdefault(hash_bits, []).append((oid, token))
        body.expect_end()
        return Writer().u64(len(self))

    def _handle_candidates(self, body: Reader) -> Writer:
        query_hash = body.u64()
        cand_size = body.u32()
        body.expect_end()
        if cand_size == 0:
            raise QueryError("cand_size must be positive")
        # rank buckets by Hamming distance to the query hash
        ranked = sorted(
            self._buckets.items(),
            key=lambda item: (int(item[0] ^ query_hash).bit_count(), item[0]),
        )
        selected: list[tuple[int, bytes]] = []
        for _hash_value, bucket in ranked:
            if len(selected) >= cand_size:
                break
            selected.extend(bucket)
        selected = selected[:cand_size]
        writer = Writer()
        writer.u32(len(selected))
        for oid, token in selected:
            writer.u64(oid)
            writer.blob(token)
        return writer


class FdhClient:
    """Authorized client holding the anchors, radii and cipher."""

    def __init__(
        self,
        anchors: np.ndarray,
        radii: np.ndarray,
        cipher: AesCipher,
        space: MetricSpace,
        rpc: RpcClient,
    ) -> None:
        anchors = np.asarray(anchors, dtype=np.float64)
        radii = np.asarray(radii, dtype=np.float64)
        if anchors.ndim != 2 or anchors.shape[0] == 0:
            raise QueryError(
                f"anchors must be a non-empty 2-D array, got {anchors.shape}"
            )
        if radii.shape != (anchors.shape[0],):
            raise QueryError(
                f"radii shape {radii.shape} does not match "
                f"{anchors.shape[0]} anchors"
            )
        if anchors.shape[0] > 64:
            raise QueryError("at most 64 anchors fit the u64 hash")
        self.anchors = anchors
        self.radii = radii
        self.cipher = cipher
        self.space = space
        self.rpc = rpc
        self.costs = CostRecorder()

    def outsource(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
    ) -> int:
        """Hash, encrypt and upload the collection."""
        if len(oids) != len(vectors):
            raise QueryError(
                f"oids ({len(oids)}) and vectors ({len(vectors)}) differ"
            )
        vectors = np.asarray(vectors, dtype=np.float64)
        total = 0
        for start in range(0, len(oids), bulk_size):
            stop = min(start + bulk_size, len(oids))
            with self.costs.time(CLIENT):
                with self.costs.time(DISTANCE):
                    hashes = [
                        _hash_bits(
                            vectors[position], self.anchors, self.radii, self.space
                        )
                        for position in range(start, stop)
                    ]
                with self.costs.time(ENCRYPTION):
                    rows = np.ascontiguousarray(vectors[start:stop], dtype="<f8")
                    tokens = self.cipher.encrypt_many(rows.view(np.uint8))
                writer = Writer()
                writer.u32(stop - start)
                for position, hash_bits, token in zip(
                    range(start, stop), hashes, tokens
                ):
                    writer.u64(int(oids[position]))
                    writer.u64(hash_bits)
                    writer.blob(token)
            total = self.rpc.call("fdh_insert", writer).u64()
        return total

    def knn_search(
        self, query: np.ndarray, k: int, *, cand_size: int
    ) -> list[SearchHit]:
        """Approximate k-NN via Hamming-nearest hash buckets."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if cand_size < k:
            raise QueryError(
                f"cand_size ({cand_size}) must be at least k ({k})"
            )
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                query_hash = _hash_bits(
                    query, self.anchors, self.radii, self.space
                )
            writer = Writer()
            writer.u64(query_hash)
            writer.u32(cand_size)
        reader = self.rpc.call("fdh_candidates", writer)
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
        return hits[:k]

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
            extras={"round_trips": self.rpc.channel.requests},
        )

    def reset_accounting(self) -> None:
        """Zero client-side and channel accounting."""
        self.costs.reset()
        self.rpc.reset_accounting()


def build_fdh(
    anchors: np.ndarray,
    radii: np.ndarray,
    cipher: AesCipher,
    space: MetricSpace,
    *,
    latency: float = 50e-6,
    bandwidth: float | None = 1.25e9,
) -> tuple[FdhServer, FdhClient]:
    """Wire an FDH server and client over an in-process channel."""
    server = FdhServer()
    channel = InProcessChannel(
        server.handle, latency=latency, bandwidth=bandwidth
    )
    client = FdhClient(anchors, radii, cipher, space, RpcClient(channel))
    return server, client
