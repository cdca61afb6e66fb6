"""Authorized client and data owner (paper §4.2, Algorithms 1–2).

The client holds the :class:`~repro.crypto.keys.SecretKey` — pivots plus
cipher key — and therefore performs everything the server must not:

* computing object/query–pivot distances (Algorithm 1 line 1,
  Algorithm 2 line 1),
* encrypting payloads on insert and decrypting candidates on search,
* the final candidate-set refinement with true distances
  (Algorithm 2 lines 11–16).

Every one of those steps is charged to the cost components the paper
reports: client / encryption / decryption / distance-computation time.

Beyond the paper's one-query-at-a-time protocol, the client offers a
**batched** search path (:meth:`EncryptedClient.knn_batch`,
:meth:`EncryptedClient.range_batch`): all query–pivot distances of a
batch come out of one ``d_pairwise`` matrix call, the whole batch
travels in a single wire message, and refinement decrypts each unique
candidate once — the server deduplicates candidates shared by several
queries, and an LRU cache of decrypted payloads (keyed by record id)
carries reuse across calls. There is one search path: a single query
(:meth:`EncryptedClient.knn_search`, :meth:`EncryptedClient.range_search`)
is a batch of one through the same request builder and the same
refiner, sent under the single-query method name in the single-query
wire form, so batched searches return exactly the same hits as looped
single-query calls.

Construction is columnar as well: :meth:`EncryptedClient.insert_many`
computes one object×pivot distance matrix per bulk, transforms and
permutes it with whole-matrix kernels, and ships the bulk as a single
:class:`~repro.core.records.RecordBatch` wire message (see the
server's ``insert_bulk``). The resulting index is identical to the
per-record protocol's — :meth:`EncryptedClient.insert` is just a bulk
of one.

:class:`DataOwner` is the construction-phase role: it generates the
secret key and bulk-outsources the collection; afterwards it hands the
key to authorized clients (here: :meth:`DataOwner.authorize`).
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.costs import (
    CACHE_HITS,
    CACHE_MISSES,
    CLIENT,
    DECRYPTION,
    DISTANCE,
    ENCRYPTION,
    KERNEL_COUNTERS,
    RECONNECTS,
    RETRIES_ATTEMPTED,
    SHARDS_SKIPPED,
    CostRecorder,
    CostReport,
)
from repro.core.records import IndexedRecord, RecordBatch, rows_to_vectors
from repro.crypto.keys import SecretKey
from repro.crypto.ope import OrderPreservingEncryption
from repro.exceptions import QueryError
from repro.metric.permutations import pivot_permutation, pivot_permutations
from repro.metric.space import MetricSpace
from repro.net.rpc import RpcClient
from repro.wire.encoding import BlobColumn, Reader, Writer
from repro.wire.scatter import read_candidate_lists
from repro.wire.search import KNN, RANGE, RANGE_TRANSFORMED

__all__ = ["Strategy", "SearchHit", "EncryptedClient", "DataOwner"]


class _CandidateCache:
    """LRU cache of decrypted candidate payloads, keyed by record id.

    Entries remember the ciphertext they were decrypted from: a lookup
    only hits when the incoming payload matches bit for bit, so a
    record that was deleted and re-inserted under the same oid with new
    content can never serve a stale plaintext.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise QueryError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = int(capacity)
        self._entries: OrderedDict[int, tuple[bytes, np.ndarray]] = (
            OrderedDict()
        )

    def get(self, oid: int, payload: bytes) -> np.ndarray | None:
        """The cached plaintext vector, or None on miss."""
        entry = self._entries.get(oid)
        if entry is None or entry[0] != payload:
            return None
        self._entries.move_to_end(oid)
        return entry[1]

    def put(self, oid: int, payload: bytes, vector: np.ndarray) -> None:
        """Insert/refresh an entry, evicting the least recently used."""
        self._entries[oid] = (payload, vector)
        self._entries.move_to_end(oid)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def invalidate(self, oid: int) -> None:
        """Drop one record's entry (after a delete)."""
        self._entries.pop(oid, None)

    def __len__(self) -> int:
        return len(self._entries)


class Strategy(enum.Enum):
    """The server-side representations of an indexed object.

    ``PRECISE`` stores object–pivot distances on the server: range
    queries and pivot filtering work, but the distance distribution
    leaks. ``APPROXIMATE`` stores only the pivot permutation: less
    leakage, approximate k-NN only. ``TRANSFORMED`` is the paper's §6
    future-work extension, implemented here: pivot distances are passed
    through a secret order-preserving transformation before upload, so
    range queries still work (via transformed-interval filtering) while
    the distance *distribution* stays hidden — privacy level 4.
    """

    PRECISE = "precise"
    APPROXIMATE = "approximate"
    TRANSFORMED = "transformed"


@dataclass(frozen=True)
class SearchHit:
    """One refined search answer: object id, plaintext and distance."""

    oid: int
    vector: np.ndarray
    distance: float


class EncryptedClient:
    """Authorized client of the Encrypted M-Index.

    Parameters
    ----------
    secret_key:
        The pivots + cipher key shared by the data owner.
    space:
        Client-side metric space (the client owns the metric; the
        server never sees it). Its distance counter tracks exactly the
        paper's "relocated" computations.
    rpc:
        RPC client bound to the server's channel.
    strategy:
        Which representation inserts produce (must match across all
        writers of one index).
    cache_size:
        Capacity (in records) of the LRU cache of decrypted candidate
        payloads; the default ``0`` disables caching, matching the
        paper's stateless per-query protocol (so reproduction sweeps
        measure what the paper measured). Enable it for throughput
        workloads: hits skip AES decryption and are counted separately
        so the cost breakdown still reconciles.
    deadline:
        Optional per-RPC time budget in seconds applied to every call
        this client makes. Deadline-capable transports ship the budget
        to the server (which sheds the request unexecuted once it
        expires) and raise
        :class:`~repro.exceptions.DeadlineExceededError` locally; the
        default ``None`` keeps the unbounded behaviour.
    """

    def __init__(
        self,
        secret_key: SecretKey,
        space: MetricSpace,
        rpc: RpcClient,
        *,
        strategy: Strategy = Strategy.APPROXIMATE,
        cache_size: int = 0,
        deadline: float | None = None,
    ) -> None:
        self.secret_key = secret_key
        self.space = space
        self.rpc = rpc
        self.strategy = strategy
        self.deadline = deadline
        self.costs = CostRecorder()
        self.cache = _CandidateCache(cache_size) if cache_size else None
        self._ope: OrderPreservingEncryption | None = None

    def _call(self, method: str, body=b"") -> Reader:
        """One RPC under the client's deadline policy."""
        if self.deadline is None:
            return self.rpc.call(method, body)
        return self.rpc.call(method, body, deadline=self.deadline)

    @property
    def ope(self) -> OrderPreservingEncryption:
        """The secret monotone distance transformation (TRANSFORMED).

        Derived deterministically from the secret key: the OPE key is a
        hash of the cipher key, and its domain is calibrated on the
        pivot–pivot distance matrix — both available to every key
        holder, so no extra key material travels out of band.
        """
        if self._ope is None:
            ope_key = hashlib.sha256(
                b"repro.ope\x00" + self.secret_key.cipher_key
            ).digest()
            with self.costs.time(CLIENT):
                with self.costs.time(DISTANCE):
                    pivots = self.secret_key.pivots
                    pairwise = np.stack(
                        [self.space.d_batch(p, pivots) for p in pivots]
                    )
            self._ope = OrderPreservingEncryption(ope_key).fit(
                pairwise, margin=1.0
            )
        return self._ope

    # ------------------------------------------------------------------
    # construction phase (Algorithm 1)
    # ------------------------------------------------------------------

    def insert_many(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
    ) -> int:
        """Encrypt and outsource objects in bulks (paper uses 1,000).

        Each bulk travels as one columnar record batch through the
        server's ``insert_bulk`` method. Returns the server's total
        record count after the last bulk.
        """
        if len(oids) != len(vectors):
            raise QueryError(
                f"oids ({len(oids)}) and vectors ({len(vectors)}) differ"
            )
        if bulk_size <= 0:
            raise QueryError(f"bulk_size must be positive, got {bulk_size}")
        total = 0
        for start in range(0, len(oids), bulk_size):
            stop = min(start + bulk_size, len(oids))
            with self.costs.time(CLIENT):
                writer = self._encode_bulk(
                    [int(o) for o in oids[start:stop]], vectors[start:stop]
                )
            response = self._call("insert_bulk", writer)
            total = response.u64()
        return total

    def insert(self, oid: int, vector: np.ndarray) -> int:
        """Insert a single object (Algorithm 1) — a bulk of one."""
        return self.insert_many([oid], np.asarray(vector)[None, :])

    def _encode_bulk(self, oids: list[int], vectors: np.ndarray) -> Writer:
        """Algorithm 1 for one bulk, fully vectorized.

        All object–pivot distances come out of a single
        :meth:`MetricSpace.d_pairwise` matrix call (rows bit-identical
        to per-object ``d_batch``), the OPE transform and the pivot
        permutations are applied to the whole matrix at once, the
        vectors' ``float64`` bytes are encrypted as one matrix whose
        token matrix is the payload column, and the bulk is serialized
        as one columnar :class:`~repro.core.records.RecordBatch` instead
        of per-record encodings.
        """
        pivots = self.secret_key.pivots
        matrix = np.asarray(vectors, dtype=np.float64)
        with self.costs.time(DISTANCE):
            distance_matrix = self.space.d_pairwise(matrix, pivots)
        with self.costs.time(ENCRYPTION):
            rows = np.ascontiguousarray(matrix, dtype="<f8").view(np.uint8)
            payloads = BlobColumn(self.secret_key.cipher.encrypt_many(rows))
        if self.strategy is Strategy.TRANSFORMED:
            with self.costs.time(ENCRYPTION):
                # a strictly monotone transform preserves the sort
                # order, so the server still derives the correct pivot
                # permutation from the transformed values
                distance_matrix = np.asarray(
                    self.ope.encrypt(distance_matrix)
                )
        oid_column = np.array(oids, dtype=np.uint64)
        if self.strategy is Strategy.APPROXIMATE:
            batch = RecordBatch(
                oid_column,
                pivot_permutations(distance_matrix),
                None,
                payloads,
            )
        else:
            batch = RecordBatch(oid_column, None, distance_matrix, payloads)
        writer = batch.write_to(Writer())
        self.costs.add_count("objects_inserted", len(oids))
        return writer

    def delete(self, oid: int, vector: np.ndarray) -> bool:
        """Remove an outsourced object (dynamic-index maintenance).

        The client recomputes the object's pivot permutation — just as
        on insert — so the server can address the right Voronoi cell
        without learning anything new. Returns True when the server
        removed a record.
        """
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                distances = self.space.d_batch(vector, self.secret_key.pivots)
            record = IndexedRecord(
                oid, pivot_permutation(distances), None, b""
            )
            writer = Writer()
            record.write_to(writer)
        if self.cache is not None:
            self.cache.invalidate(oid)
        return self._call("delete", writer).boolean()

    # ------------------------------------------------------------------
    # search phase (Algorithm 2)
    # ------------------------------------------------------------------

    def range_search(self, query: np.ndarray, radius: float) -> list[SearchHit]:
        """Precise range query ``R(q, r)`` (Algorithm 2, precise branch).

        Requires the PRECISE or TRANSFORMED strategy (the server stores
        no pivot distances under APPROXIMATE). Under TRANSFORMED the
        request carries per-pivot transformed intervals instead of raw
        query–pivot distances, hiding the distance distribution.
        """
        (hits,) = self._range(
            np.asarray(query)[np.newaxis], radius, single=True
        )
        return hits

    def knn_search(
        self,
        query: np.ndarray,
        k: int,
        *,
        cand_size: int,
        max_cells: int | None = None,
        refine_limit: int | None = None,
    ) -> list[SearchHit]:
        """Approximate k-NN (Algorithm 2, approximate branch).

        ``cand_size`` is the paper's CandSize parameter; because the
        candidate set arrives pre-ranked, ``refine_limit`` optionally
        decrypts/refines only its head (§4.2: "the client can choose to
        decrypt and compute distances only for candidates with the
        highest rank").
        """
        (hits,) = self._knn(
            np.asarray(query)[np.newaxis],
            k,
            cand_size,
            max_cells,
            refine_limit,
            single=True,
        )
        return hits

    def knn_precise(
        self, query: np.ndarray, k: int, *, cand_size: int | None = None
    ) -> list[SearchHit]:
        """Precise k-NN: approximate pass for an upper bound rho_k, then
        a confirming range query ``R(q, rho_k)`` (§4.2).

        Requires the PRECISE or TRANSFORMED strategy (for the range
        phase).
        """
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if self.strategy is Strategy.APPROXIMATE:
            raise QueryError(
                "precise k-NN requires the PRECISE or TRANSFORMED strategy"
            )
        cand_size = cand_size if cand_size is not None else max(4 * k, 64)
        approx = self.knn_search(query, k, cand_size=cand_size)
        if len(approx) < k:
            # Fewer than k objects nearby in the approximate pass
            # (tiny index): an infinite radius disables all pruning and
            # the confirming range query returns the whole collection.
            rho_k = float("inf")
        else:
            rho_k = approx[k - 1].distance
        hits = self.range_search(query, rho_k)
        return hits[:k]

    # ------------------------------------------------------------------
    # batched search (amortized Algorithm 2)
    # ------------------------------------------------------------------

    def knn_batch(
        self,
        queries: np.ndarray,
        k: int,
        *,
        cand_size: int,
        max_cells: int | None = None,
        refine_limit: int | None = None,
    ) -> list[list[SearchHit]]:
        """Approximate k-NN for a whole batch of queries at once.

        Returns one hit list per query row, each exactly equal to
        ``knn_search(query, k, ...)`` — but the batch computes all
        query–pivot distances in one :meth:`MetricSpace.d_pairwise`
        call, travels as a single wire message, is answered by the
        server's vectorized batch search, and decrypts every unique
        candidate only once (the response deduplicates candidates
        shared between queries; the LRU cache carries reuse across
        calls).
        """
        return self._knn(
            queries, k, cand_size, max_cells, refine_limit, single=False
        )

    def range_batch(
        self, queries: np.ndarray, radius: float
    ) -> list[list[SearchHit]]:
        """Precise range queries ``R(q, r)`` for a batch sharing one
        radius; per-query hits are identical to looped
        :meth:`range_search` calls.

        Requires the PRECISE or TRANSFORMED strategy, like
        :meth:`range_search`; under TRANSFORMED the request carries the
        per-pivot transformed interval *matrices* of the whole batch.
        """
        return self._range(queries, radius, single=False)

    def _knn(
        self,
        queries: np.ndarray,
        k: int,
        cand_size: int,
        max_cells: int | None,
        refine_limit: int | None,
        *,
        single: bool,
    ) -> list[list[SearchHit]]:
        """The k-NN request path: validate, permutations of the whole
        query matrix, one message in the form asked, refine."""
        if k <= 0:
            raise QueryError(f"k must be positive, got {k}")
        if cand_size < k:
            raise QueryError(
                f"cand_size ({cand_size}) must be at least k ({k})"
            )
        if refine_limit is not None and refine_limit < 0:
            raise QueryError(
                f"refine_limit must be >= 0, got {refine_limit}"
            )
        query_matrix = self._as_query_matrix(queries)
        if query_matrix.shape[0] == 0:
            return []
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                distance_matrix = self.space.d_pairwise(
                    query_matrix, self.secret_key.pivots
                )
            writer = KNN.write_request(
                pivot_permutations(distance_matrix),
                cand_size,
                max_cells,
                single=single,
            )
        reader = self._call(KNN.method(single), writer)
        return self._refine(
            query_matrix, reader, single, k=k, refine_limit=refine_limit
        )

    def _range(
        self, queries: np.ndarray, radius: float, *, single: bool
    ) -> list[list[SearchHit]]:
        """The range request path: validate, query–pivot distances of
        the whole query matrix (transformed intervals under
        TRANSFORMED), one message in the form asked, refine."""
        if not radius >= 0:  # NaN compares false either way
            raise QueryError(f"radius must be >= 0, got {radius}")
        if self.strategy is Strategy.APPROXIMATE:
            raise QueryError(
                "range queries require the PRECISE or TRANSFORMED "
                "strategy (the server stores no pivot distances under "
                "APPROXIMATE)"
            )
        query_matrix = self._as_query_matrix(queries)
        if query_matrix.shape[0] == 0:
            return []
        with self.costs.time(CLIENT):
            with self.costs.time(DISTANCE):
                distance_matrix = self.space.d_pairwise(
                    query_matrix, self.secret_key.pivots
                )
            if self.strategy is Strategy.TRANSFORMED:
                with self.costs.time(ENCRYPTION):
                    lows = np.asarray(
                        self.ope.encrypt(
                            np.maximum(distance_matrix - radius, 0.0)
                        )
                    )
                    if radius == float("inf"):
                        highs = np.full_like(distance_matrix, np.inf)
                    else:
                        highs = np.asarray(
                            self.ope.encrypt(distance_matrix + radius)
                        )
                search = RANGE_TRANSFORMED
                writer = search.write_request(lows, highs, single=single)
            else:
                search = RANGE
                writer = search.write_request(
                    distance_matrix, radius, single=single
                )
        reader = self._call(search.method(single), writer)
        return self._refine(query_matrix, reader, single, radius=radius)

    @staticmethod
    def _as_query_matrix(queries: np.ndarray) -> np.ndarray:
        matrix = np.asarray(queries, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix.reshape(1, -1)
        if matrix.ndim != 2:
            raise QueryError(
                f"queries must form a 2-D matrix, got shape {matrix.shape}"
            )
        return matrix

    # ------------------------------------------------------------------
    # refinement (Algorithm 2 lines 11–16)
    # ------------------------------------------------------------------

    def _decrypt_candidates(
        self, oids: np.ndarray, tokens: np.ndarray
    ) -> np.ndarray:
        """The ``(n, dim)`` plaintext matrix of ``n >= 1`` candidates,
        given as their ``(n, width)`` token matrix.

        The token matrix is decrypted in one vectorized AES call and the
        plaintext matrix read as ``float64``. With the LRU cache on, the
        tokens' bytes key its lookups, only its misses are decrypted
        (and charged to decryption time), and hits and decrypted misses
        are stacked into one matrix; hit/miss counters record exactly
        how many candidates skipped decryption.
        """
        if self.cache is None:
            with self.costs.time(DECRYPTION):
                plaintexts = self.secret_key.cipher.decrypt_many(tokens)
            return rows_to_vectors(plaintexts)
        payloads = BlobColumn(tokens).tolist()
        oids = oids.tolist()
        vectors = [
            self.cache.get(oid, payload) for oid, payload in zip(oids, payloads)
        ]
        misses = [row for row, vector in enumerate(vectors) if vector is None]
        self.costs.add_count(CACHE_HITS, len(vectors) - len(misses))
        self.costs.add_count(CACHE_MISSES, len(misses))
        if misses:
            with self.costs.time(DECRYPTION):
                plaintexts = self.secret_key.cipher.decrypt_many(tokens[misses])
            for row, vector in zip(misses, rows_to_vectors(plaintexts)):
                vectors[row] = vector
                self.cache.put(oids[row], payloads[row], vector.copy())
        return np.stack(vectors)

    def _select(
        self,
        query: np.ndarray,
        oids: np.ndarray,
        vectors: np.ndarray,
        radius: float | None,
        k: int | None,
    ) -> list[SearchHit]:
        """Algorithm 2 lines 11-16 for one query: true distances to its
        candidates, ascending ``(distance, oid)`` order, the radius
        filter, the first ``k``. Hits are built for the survivors only,
        over a copy of their rows, so an answer does not keep its whole
        candidate matrix alive."""
        with self.costs.time(DISTANCE):
            distances = self.space.d_batch(query, vectors)
        order = np.lexsort((oids, distances))
        if radius is not None:
            order = order[distances[order] <= radius]
        order = order[:k]
        return [
            SearchHit(oid, vector, distance)
            for oid, vector, distance in zip(
                oids[order].tolist(), vectors[order], distances[order].tolist()
            )
        ]

    def _refine(
        self,
        queries: np.ndarray,
        reader: Reader,
        single: bool,
        *,
        radius: float | None = None,
        k: int | None = None,
        refine_limit: int | None = None,
    ) -> list[list[SearchHit]]:
        """Bulk refinement of a search response, one hit list per query.

        The response is a table of unique candidates — an oid column
        and one region of payload bytes — with one list of table rows
        per query in rank order (a ``single`` response is the table
        alone: one list, every row). The token matrix of the union of
        all refined heads — the region itself when that union is the
        whole table in order, else gathered out of it — is decrypted in
        a single pass (tokens of different sizes are a
        :class:`~repro.exceptions.ProtocolError`); each query then
        selects its hits from its own candidate rows.
        """
        with self.costs.time(CLIENT):
            table, index_lists = read_candidate_lists(reader, single=single)
            if len(index_lists) != queries.shape[0]:
                raise QueryError(
                    f"batch response carries {len(index_lists)} result "
                    f"lists for {queries.shape[0]} queries"
                )
            oids = table[0]
            heads = [indices[:refine_limit] for indices in index_lists]
            # the candidates any head refers to, in first-use order, and
            # each one's row in the decrypted matrix
            used = np.concatenate(heads)
            _, first_use = np.unique(used, return_index=True)
            needed = used[np.sort(first_use)]
            row_of = np.empty(len(oids), dtype=np.intp)
            row_of[needed] = np.arange(len(needed))
            if len(needed):
                # servers and routers write the table in first-use order,
                # so without a refine_limit the tokens are decrypted where
                # they lie: decrypt_many verifies and opens its own copy
                payloads = (
                    table.payloads
                    if np.array_equal(needed, np.arange(len(oids)))
                    else BlobColumn.gathered([table.payloads], needed)
                )
                vectors = self._decrypt_candidates(
                    oids[needed], payloads.as_matrix()
                )
            results: list[list[SearchHit]] = []
            for query, indices, head in zip(queries, index_lists, heads):
                results.append(
                    self._select(
                        query, oids[head], vectors[row_of[head]], radius, k
                    )
                    if len(head)
                    else []
                )
                self.costs.add_count("candidates_received", len(indices))
                self.costs.add_count("candidates_refined", len(head))
        return results

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip liveness probe against the server."""
        return self._call("ping").string() == "pong"

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def report(self) -> CostReport:
        """Snapshot of all cost components since the last reset."""
        return CostReport(
            client_time=self.costs.seconds(CLIENT),
            encryption_time=self.costs.seconds(ENCRYPTION),
            decryption_time=self.costs.seconds(DECRYPTION),
            distance_time=self.costs.seconds(DISTANCE),
            server_time=self.rpc.server_time,
            communication_time=self.rpc.channel.communication_time,
            communication_bytes=self.rpc.channel.bytes_total,
            extras=self._report_extras(),
        )

    def _report_extras(self) -> dict:
        extras = {
            "distance_computations": self.space.distance_count,
            "candidates_received": self.costs.count("candidates_received"),
            "candidates_refined": self.costs.count("candidates_refined"),
            CACHE_HITS: self.costs.count(CACHE_HITS),
            CACHE_MISSES: self.costs.count(CACHE_MISSES),
        }
        # a resilient RPC layer surfaces its retry/reconnect work; a
        # shard router additionally counts degraded (partial) scatters
        for counter in (RETRIES_ATTEMPTED, RECONNECTS, SHARDS_SKIPPED):
            value = getattr(self.rpc, counter, None)
            if value is not None:
                extras[counter] = value
        # always 0: the benchmark reads these keys (see costs.py)
        extras.update(KERNEL_COUNTERS)
        return extras

    def reset_accounting(self) -> None:
        """Zero client, server-view and channel accounting."""
        self.costs.reset()
        self.rpc.reset_accounting()
        self.space.reset_counter()


class DataOwner:
    """The construction-phase role: generates the key, outsources data.

    The owner *is* an authorized client with extra responsibilities, so
    it wraps an :class:`EncryptedClient` and exposes
    :meth:`authorize` for handing the secret key to further clients.
    """

    def __init__(
        self,
        secret_key: SecretKey,
        space: MetricSpace,
        rpc: RpcClient,
        *,
        strategy: Strategy = Strategy.APPROXIMATE,
    ) -> None:
        self.client = EncryptedClient(secret_key, space, rpc, strategy=strategy)

    @classmethod
    def create(
        cls,
        data: np.ndarray,
        space: MetricSpace,
        rpc: RpcClient,
        *,
        n_pivots: int,
        strategy: Strategy = Strategy.APPROXIMATE,
        rng: np.random.Generator | None = None,
        pivot_strategy: str = "random",
        key_bits: int = 128,
    ) -> "DataOwner":
        """Generate a fresh secret key from the collection and wire up."""
        key = SecretKey.generate(
            data,
            n_pivots,
            rng=rng,
            strategy=pivot_strategy,
            space=space,
            key_bits=key_bits,
        )
        return cls(key, space, rpc, strategy=strategy)

    @property
    def secret_key(self) -> SecretKey:
        """The owner's secret key."""
        return self.client.secret_key

    def outsource(
        self,
        oids: Sequence[int],
        vectors: np.ndarray,
        *,
        bulk_size: int = 1000,
    ) -> int:
        """Construction phase: encrypt + send the whole collection."""
        return self.client.insert_many(oids, vectors, bulk_size=bulk_size)

    def authorize(self) -> SecretKey:
        """Hand the secret key to an authorized client (out of band)."""
        return self.secret_key
