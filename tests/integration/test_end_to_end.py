"""End-to-end integration: the full encrypted system against brute force."""

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.records import IndexedRecord
from repro.crypto.keys import SecretKey
from repro.metric.distances import L1Distance, L2Distance
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage

from tests.conftest import brute_force_knn


class TestPreciseStrategyIsExact:
    """Precise range and k-NN must equal brute force, always."""

    def test_range_queries_many_radii(self, precise_cloud, small_data, rng):
        client = precise_cloud.new_client()
        for _ in range(10):
            q = rng.normal(size=12) * 2
            dists = np.abs(small_data - q).sum(axis=1)
            for percentile in (1, 10, 50):
                radius = float(np.percentile(dists, percentile))
                hits = client.range_search(q, radius)
                assert {h.oid for h in hits} == set(
                    np.nonzero(dists <= radius)[0]
                )

    def test_precise_knn_many_k(self, precise_cloud, small_data, rng):
        client = precise_cloud.new_client()
        for k in (1, 5, 30):
            q = rng.normal(size=12) * 2
            hits = client.knn_precise(q, k)
            assert [h.oid for h in hits] == brute_force_knn(small_data, q, k)

    def test_knn_larger_than_collection(self, small_data):
        cloud = SimilarityCloud.build(
            small_data[:20],
            distance=L1Distance(),
            n_pivots=4,
            bucket_capacity=10,
            strategy=Strategy.PRECISE,
            seed=1,
        )
        cloud.owner.outsource(range(20), small_data[:20])
        client = cloud.new_client()
        hits = client.knn_precise(np.zeros(12), 50)
        assert len(hits) == 20  # whole collection, ranked


class TestApproximateStrategyQuality:
    def test_recall_grows_and_saturates(self, approx_cloud, small_data, rng):
        client = approx_cloud.new_client()
        recalls = []
        queries = rng.normal(size=(10, 12)) * 2
        for cand_size in (30, 120, 600):
            total = 0.0
            for q in queries:
                truth = set(brute_force_knn(small_data, q, 10))
                hits = client.knn_search(q, 10, cand_size=cand_size)
                total += len({h.oid for h in hits} & truth) / 10
            recalls.append(total / len(queries) * 100)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] == 100.0  # cand = collection size -> exact

    def test_key_serialization_roundtrip_preserves_access(
        self, approx_cloud, small_data, queries
    ):
        """A client restored from serialized key bytes must read the
        same index."""
        blob = approx_cloud.owner.authorize().to_bytes()
        restored_key = SecretKey.from_bytes(blob)
        restored_client = approx_cloud.new_client(secret_key=restored_key)
        original_client = approx_cloud.new_client()
        restored_hits = restored_client.knn_search(
            queries[0], 5, cand_size=200
        )
        original_hits = original_client.knn_search(
            queries[0], 5, cand_size=200
        )
        assert [h.oid for h in restored_hits] == [
            h.oid for h in original_hits
        ]
        assert len(restored_hits) == 5


class TestDiskBackedDeployment:
    def test_disk_storage_end_to_end(self, small_data, queries, tmp_path):
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.PRECISE,
            storage=DiskStorage(tmp_path / "index"),
            seed=7,
        )
        cloud.owner.outsource(range(len(small_data)), small_data)
        client = cloud.new_client()
        q = queries[0]
        dists = np.abs(small_data - q).sum(axis=1)
        radius = float(np.sort(dists)[10])
        hits = client.range_search(q, radius)
        assert {h.oid for h in hits} == set(np.nonzero(dists <= radius)[0])
        assert cloud.server.storage.bytes_read > 0


class TestNoRecordOnASearch:
    """Stored cells travel as columns from the storage read to the
    response: a search builds no :class:`IndexedRecord` anywhere, on
    either backend (over cells of equal-sized objects, which is every
    cell of an index like this one)."""

    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_searches_construct_no_record(
        self, backend, small_data, queries, tmp_path, monkeypatch
    ):
        storage = (
            MemoryStorage()
            if backend == "memory"
            else DiskStorage(tmp_path / "index", cache_bytes=64 * 1024)
        )
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.PRECISE,
            storage=storage,
            seed=7,
        )
        cloud.owner.outsource(range(len(small_data)), small_data)
        client = cloud.new_client()
        radius = float(
            np.sort(np.abs(small_data - queries[0]).sum(axis=1))[25]
        )

        def search():
            return (
                client.knn_search(queries[0], 5, cand_size=80),
                client.knn_batch(queries[:6], 5, cand_size=80),
                client.range_search(queries[0], radius),
                client.range_search(queries[1], float("inf")),
            )

        expected = search()  # every cell has now been read once
        constructed = []
        original = IndexedRecord.__init__

        def counting(self, *args, **kwargs):
            constructed.append(args[0] if args else kwargs.get("oid"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(IndexedRecord, "__init__", counting)
        found = search()
        monkeypatch.undo()
        assert constructed == []
        assert len(found[3]) == len(small_data)

        def answers(result):
            knn, batch, *ranges = result
            return [
                [(hit.oid, hit.distance) for hit in hits]
                for hits in (knn, *batch, *ranges)
            ]

        assert answers(found) == answers(expected)
        # the rows are there for whoever asks
        assert len(storage.load(next(iter(storage.cells()))).to_records())


class TestNoRecordOnAWrite:
    """A construction bulk is columns from the wire to the chunk: the
    server decodes one batch, the index hands each leaf a row selection
    of it, a split partitions the loaded cell's columns and a delete
    masks its oid column — on either backend no
    :class:`IndexedRecord` is built on the way."""

    @pytest.mark.parametrize("strategy", [Strategy.APPROXIMATE, Strategy.PRECISE])
    @pytest.mark.parametrize("backend", ["memory", "disk"])
    def test_bulk_inserts_and_deletes_construct_no_record(
        self, backend, strategy, small_data, tmp_path, monkeypatch
    ):
        storage = (
            MemoryStorage()
            if backend == "memory"
            else DiskStorage(tmp_path / "index", cache_bytes=64 * 1024)
        )
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=strategy,
            storage=storage,
            seed=7,
        )
        client = cloud.owner.client
        index = cloud.server.index
        half = len(small_data) // 2
        client.insert_many(range(half), small_data[:half], bulk_size=100)
        victims = [
            (int(oid), batch.permutations[row].copy())
            for cell in list(storage.cells())[:3]
            for batch in [storage.load(cell)]
            for row, oid in enumerate(batch.oids[:2])
        ]
        constructed = []
        original = IndexedRecord.__init__

        def counting(self, *args, **kwargs):
            constructed.append(args[0] if args else kwargs.get("oid"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(IndexedRecord, "__init__", counting)
        cells_before = index.n_cells
        writes_before = storage.writes
        # appends to the cells there are, splits the ones that overflow
        # (each split deletes its parent cell), then deletes — through
        # the index: the delete *request* is one record, at the edge
        client.insert_many(
            range(half, len(small_data)), small_data[half:], bulk_size=100
        )
        removed = [index.delete(oid, perm) for oid, perm in victims]
        monkeypatch.undo()
        assert constructed == []
        assert index.n_cells > cells_before  # it did split
        assert storage.writes > writes_before
        assert removed == [True] * len(victims)
        assert len(index) == len(small_data) - len(victims)
        # and everything is where a search finds it
        stored = sorted(
            int(oid) for cell in storage.cells() for oid in storage.load(cell).oids
        )
        gone = {oid for oid, _perm in victims}
        assert stored == [o for o in range(len(small_data)) if o not in gone]


class TestMultipleMetrics:
    @pytest.mark.parametrize("distance", [L1Distance(), L2Distance()])
    def test_precise_knn_under_both_metrics(self, small_data, rng, distance):
        cloud = SimilarityCloud.build(
            small_data,
            distance=distance,
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.PRECISE,
            seed=3,
        )
        cloud.owner.outsource(range(len(small_data)), small_data)
        client = cloud.new_client()
        q = rng.normal(size=12)
        hits = client.knn_precise(q, 5)
        true_dists = distance.batch(q, small_data)
        expected = list(
            np.lexsort((np.arange(len(small_data)), true_dists))[:5]
        )
        assert [h.oid for h in hits] == expected


class TestDynamicInserts:
    def test_search_after_incremental_inserts(self, small_data, rng):
        """The paper stresses the index is dynamic: inserts after
        construction must be searchable immediately."""
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.PRECISE,
            seed=7,
        )
        cloud.owner.outsource(range(300), small_data[:300])
        client = cloud.new_client()
        # insert the rest through a regular authorized client
        client.insert_many(
            range(300, len(small_data)), small_data[300:], bulk_size=64
        )
        q = rng.normal(size=12)
        hits = client.knn_precise(q, 10)
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)
