"""Equivalence suite for the vectorized bulk-construction pipeline.

The columnar path (client ``insert_many`` → ``insert_bulk`` RPC →
``MIndex.bulk_insert`` group routing → ``append_many``/``save_many``
storage writes) must be *indistinguishable* from the seed's per-record
protocol in everything except speed: identical cell trees, byte-identical
storage contents, and bit-identical search answers — for all three
strategies, on both storage backends.

The per-record oracle is kept alive on purpose: the server still serves
the legacy ``insert`` method, and this suite drives it with the seed's
row-wise encoding to pin the new pipeline against it.
"""

import itertools

import numpy as np
import pytest

from repro.core.client import EncryptedClient, Strategy
from repro.core.records import IndexedRecord, RecordBatch, vector_to_payload
from repro.core.server import SimilarityCloudServer
from repro.crypto.keys import SecretKey
from repro.metric.distances import L1Distance
from repro.metric.permutations import pivot_permutation
from repro.metric.space import MetricSpace
from repro.mindex.index import MIndex
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage
from repro.wire.encoding import Writer

_DIM = 8
_N_PIVOTS = 8
_N_RECORDS = 400
_CAPACITY = 25

STRATEGIES = [Strategy.PRECISE, Strategy.APPROXIMATE, Strategy.TRANSFORMED]
BACKENDS = ["memory", "disk"]


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(99)
    centers = rng.normal(0.0, 5.0, size=(5, _DIM))
    data = centers[rng.integers(0, 5, size=_N_RECORDS)] + rng.normal(
        0.0, 1.0, size=(_N_RECORDS, _DIM)
    )
    queries = rng.normal(0.0, 4.0, size=(6, _DIM))
    pivots = data[rng.choice(_N_RECORDS, _N_PIVOTS, replace=False)]
    return data, queries, pivots


def _counter_nonces():
    """Deterministic nonce factory: two clients built from the same key
    material produce byte-identical tokens for identical plaintext
    sequences, making whole-storage comparisons exact."""
    state = itertools.count()
    return lambda: next(state).to_bytes(16, "little")


def _make_storage(backend, tmp_path, tag):
    if backend == "memory":
        return MemoryStorage()
    return DiskStorage(tmp_path / tag)


def _deployment(pivots, strategy, storage):
    server = SimilarityCloudServer(_N_PIVOTS, _CAPACITY, storage=storage)
    key = SecretKey(pivots, b"k" * 16, nonce_factory=_counter_nonces())
    channel = InProcessChannel(server.handle, latency=0.0, bandwidth=None)
    client = EncryptedClient(
        key, MetricSpace(L1Distance(), _DIM), RpcClient(channel),
        strategy=strategy,
    )
    return server, client


def _legacy_insert_many(client, oids, vectors):
    """The seed's construction protocol, record by record: row-wise
    distances, one encryption and one request per record — an
    ``insert_bulk`` of that one record."""
    pivots = client.secret_key.pivots
    total = 0
    for oid, vector in zip(oids, vectors):
        distances = client.space.d_batch(vector, pivots)
        payload = client.secret_key.cipher.encrypt_many(
            [vector_to_payload(vector)]
        )[0]
        if client.strategy is Strategy.TRANSFORMED:
            distances = np.asarray(client.ope.encrypt(distances))
        if client.strategy is Strategy.APPROXIMATE:
            record = IndexedRecord(
                int(oid), pivot_permutation(distances), None, payload
            )
        else:
            record = IndexedRecord(int(oid), None, distances, payload)
        total = client.rpc.call(
            "insert_bulk", RecordBatch.of_cell([record]).write_to(Writer())
        ).u64()
    return total


def _tree_snapshot(index):
    return {
        leaf.prefix: (
            leaf.count,
            None
            if leaf.intervals is None
            else [tuple(interval) for interval in leaf.intervals],
        )
        for leaf in index.tree.leaves()
    }


def _storage_snapshot(storage):
    return {
        tuple(cell): [record.to_bytes() for record in storage.load(cell)]
        for cell in storage.cells()
    }


def _assert_same_hits(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.oid == right.oid
        assert left.distance == right.distance  # bit-identical
        np.testing.assert_array_equal(left.vector, right.vector)


class TestClientPipelineEquivalence:
    """Columnar insert path vs the seed per-record protocol, end to end."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_identical_index_and_answers(
        self, dataset, strategy, backend, tmp_path
    ):
        data, queries, pivots = dataset
        oids = list(range(len(data)))
        storage_a = _make_storage(backend, tmp_path, "legacy")
        server_a, client_a = _deployment(pivots, strategy, storage_a)
        _legacy_insert_many(client_a, oids, data)
        storage_b = _make_storage(backend, tmp_path, "bulk")
        server_b, client_b = _deployment(pivots, strategy, storage_b)
        client_b.insert_many(oids, data, bulk_size=128)
        assert len(server_a.index) == len(server_b.index) == len(data)

        # identical cell trees: prefixes, counts and pruning intervals
        assert _tree_snapshot(server_a.index) == _tree_snapshot(
            server_b.index
        )
        # byte-identical storage contents, cell by cell
        assert _storage_snapshot(storage_a) == _storage_snapshot(storage_b)

        # bit-identical search answers on both builds
        for query in queries:
            _assert_same_hits(
                client_a.knn_search(query, 10, cand_size=80),
                client_b.knn_search(query, 10, cand_size=80),
            )
            if strategy is not Strategy.APPROXIMATE:
                radius = client_a.knn_search(query, 5, cand_size=80)[
                    -1
                ].distance
                _assert_same_hits(
                    client_a.range_search(query, radius),
                    client_b.range_search(query, radius),
                )
        server_a.close()
        server_b.close()

    def test_insert_is_a_bulk_of_one(self, dataset, tmp_path):
        data, _queries, pivots = dataset
        storage_a = MemoryStorage()
        server_a, client_a = _deployment(
            pivots, Strategy.PRECISE, storage_a
        )
        _legacy_insert_many(client_a, range(60), data[:60])
        storage_b = MemoryStorage()
        server_b, client_b = _deployment(
            pivots, Strategy.PRECISE, storage_b
        )
        for oid in range(60):
            client_b.insert(oid, data[oid])
        assert _tree_snapshot(server_a.index) == _tree_snapshot(
            server_b.index
        )
        assert _storage_snapshot(storage_a) == _storage_snapshot(storage_b)
        server_a.close()
        server_b.close()

    def test_bulk_write_amplification_is_lower(self, dataset, tmp_path):
        data, _queries, pivots = dataset
        oids = list(range(len(data)))
        storage_a = DiskStorage(tmp_path / "legacy-io")
        server_a, client_a = _deployment(
            pivots, Strategy.APPROXIMATE, storage_a
        )
        _legacy_insert_many(client_a, oids, data)
        storage_b = DiskStorage(tmp_path / "bulk-io")
        server_b, client_b = _deployment(
            pivots, Strategy.APPROXIMATE, storage_b
        )
        client_b.insert_many(oids, data, bulk_size=len(data))
        # one write per touched cell (plus split rewrites) must beat
        # one write per record by a wide margin
        assert storage_b.writes < storage_a.writes / 3
        server_a.close()
        server_b.close()


def _described_records(data, pivots, *, with_distances):
    distance = L1Distance()
    records = []
    for oid, vector in enumerate(data):
        dists = distance.batch(vector, pivots)
        records.append(
            IndexedRecord(
                oid,
                pivot_permutation(dists),
                dists if with_distances else None,
                vector_to_payload(vector),
            )
        )
    return records


class TestIndexLevelEquivalence:
    """MIndex.bulk_insert / bulk_load vs a per-record insert loop."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("with_distances", [True, False])
    def test_all_builders_identical(
        self, dataset, backend, with_distances, tmp_path
    ):
        data, _queries, pivots = dataset
        records = _described_records(
            data, pivots, with_distances=with_distances
        )
        snapshots = []
        for tag, build in (
            ("loop", lambda ix: [ix.insert(r) for r in records]),
            ("bulk_insert", lambda ix: ix.bulk_insert(records)),
            ("bulk_load", lambda ix: ix.bulk_load(records)),
        ):
            storage = _make_storage(backend, tmp_path, tag)
            index = MIndex(_N_PIVOTS, _CAPACITY, storage, max_level=4)
            build(index)
            assert len(index) == len(records)
            snapshots.append(
                (_tree_snapshot(index), _storage_snapshot(storage))
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_bulk_insert_extends_existing_index(self, dataset):
        data, _queries, pivots = dataset
        records = _described_records(data, pivots, with_distances=True)
        reference = MIndex(_N_PIVOTS, _CAPACITY, MemoryStorage(), max_level=4)
        for record in records:
            reference.insert(record)
        extended = MIndex(_N_PIVOTS, _CAPACITY, MemoryStorage(), max_level=4)
        for record in records[:150]:
            extended.insert(record)
        extended.bulk_insert(records[150:])
        assert _tree_snapshot(reference) == _tree_snapshot(extended)
        assert _storage_snapshot(reference.storage) == _storage_snapshot(
            extended.storage
        )

    def test_bulk_insert_empty_is_a_noop(self):
        index = MIndex(_N_PIVOTS, _CAPACITY, MemoryStorage())
        assert index.bulk_insert([]) == 0
        assert len(index) == 0

    def test_bulk_insert_rejects_wrong_pivot_count(self):
        from repro.exceptions import IndexError_

        index = MIndex(4, _CAPACITY, MemoryStorage())
        record = IndexedRecord(0, np.arange(6, dtype=np.int32), None, b"x")
        with pytest.raises(IndexError_):
            index.bulk_insert([record])
