"""Unit tests for repro.core.client / repro.core.server / repro.core.cloud."""

import numpy as np
import pytest

from repro.core.client import DataOwner, Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.records import IndexedRecord, RecordBatch
from repro.core.server import SimilarityCloudServer
from repro.exceptions import ProtocolError, QueryError, ReproError
from repro.metric.distances import L1Distance
from repro.metric.space import MetricSpace
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage
from repro.wire.encoding import Writer
from repro.wire.scatter import read_stats_map

from tests.conftest import brute_force_knn


class TestInsertPath:
    def test_owner_outsources_whole_collection(self, approx_cloud, small_data):
        assert len(approx_cloud.server.index) == len(small_data)

    def test_bulk_size_respected(self, small_data):
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            seed=7,
        )
        cloud.owner.outsource(
            range(100), small_data[:100], bulk_size=30
        )
        # 100 objects in bulks of 30 -> 4 insert calls
        assert cloud.owner.client.rpc.calls == 4

    def test_mismatched_oids_rejected(self, approx_cloud, small_data):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.insert_many([1, 2], small_data[:3])

    def test_single_insert(self, approx_cloud, small_data, rng):
        client = approx_cloud.new_client()
        new_vector = rng.normal(size=12)
        total = client.insert(10_000, new_vector)
        assert total == len(small_data) + 1

    def test_strategy_controls_wire_fields(self, small_data):
        for strategy, has_distances in (
            (Strategy.PRECISE, True),
            (Strategy.APPROXIMATE, False),
        ):
            cloud = SimilarityCloud.build(
                small_data,
                distance=L1Distance(),
                n_pivots=8,
                bucket_capacity=40,
                strategy=strategy,
                seed=7,
            )
            cloud.owner.outsource(range(50), small_data[:50])
            stored = cloud.server.storage.load(
                next(iter(cloud.server.storage.cells()))
            )
            assert (stored[0].distances is not None) is has_distances


class TestSearchPath:
    def test_approx_knn_head_is_correct_subset(
        self, approx_cloud, small_data, queries
    ):
        client = approx_cloud.new_client()
        for q in queries:
            hits = client.knn_search(q, 10, cand_size=300)
            truth = brute_force_knn(small_data, q, 10)
            got = [hit.oid for hit in hits]
            # at cand_size = half the collection recall should be high
            assert len(set(got) & set(truth)) >= 5
            # returned distances must be the true distances
            for hit in hits:
                true_d = float(np.abs(small_data[hit.oid] - q).sum())
                assert hit.distance == pytest.approx(true_d)

    def test_full_cand_size_gives_exact_answer(
        self, approx_cloud, small_data, queries
    ):
        client = approx_cloud.new_client()
        q = queries[0]
        hits = client.knn_search(q, 10, cand_size=len(small_data))
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

    def test_range_search_exact(self, precise_cloud, small_data, queries):
        client = precise_cloud.new_client()
        for q in queries[:4]:
            dists = np.abs(small_data - q).sum(axis=1)
            radius = float(np.sort(dists)[15])
            hits = client.range_search(q, radius)
            expected = set(np.nonzero(dists <= radius)[0])
            assert {h.oid for h in hits} == expected

    def test_range_requires_precise_strategy(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.range_search(queries[0], 1.0)

    def test_knn_precise_matches_brute_force(
        self, precise_cloud, small_data, queries
    ):
        client = precise_cloud.new_client()
        for q in queries[:4]:
            hits = client.knn_precise(q, 7)
            assert [h.oid for h in hits] == brute_force_knn(small_data, q, 7)

    def test_knn_precise_requires_precise_strategy(
        self, approx_cloud, queries
    ):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.knn_precise(queries[0], 3)

    def test_refine_limit_truncates_work(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        client.knn_search(queries[0], 5, cand_size=200, refine_limit=50)
        assert client.costs.count("candidates_received") == 200
        assert client.costs.count("candidates_refined") == 50

    def test_refinement_orders_by_distance_then_oid(self, rng):
        """The array selection step equals the per-hit reference: true
        distances, a Python sort on ``(distance, oid)``, the first k —
        ties between equal vectors included."""
        base = rng.normal(0.0, 3.0, size=(40, 6))
        data = np.concatenate([base, base, base])  # every vector 3 times
        oids = [int(o) for o in rng.permutation(1000)[: len(data)]]
        cloud = SimilarityCloud.build(
            data, distance=L1Distance(), n_pivots=6, bucket_capacity=30,
            strategy=Strategy.PRECISE, seed=3,
        )
        cloud.owner.outsource(oids, data)
        client = cloud.new_client()
        for query in base[:5] + 0.01:
            distances = np.abs(data - query).sum(axis=1)
            reference = sorted(zip(distances.tolist(), oids))
            hits = client.knn_search(query, 7, cand_size=len(data))
            assert [(h.distance, h.oid) for h in hits] == reference[:7]
            radius = reference[10][0]
            in_range = client.range_search(query, radius)
            assert [(h.distance, h.oid) for h in in_range] == [
                pair for pair in reference if pair[0] <= radius
            ]
            batched = client.knn_batch(query[None, :], 7, cand_size=len(data))
            assert [(h.distance, h.oid) for h in batched[0]] == reference[:7]

    def test_answer_does_not_pin_its_candidate_matrix(
        self, approx_cloud, small_data, queries
    ):
        client = approx_cloud.new_client()
        hits = client.knn_search(queries[0], 5, cand_size=200)
        assert len(hits) == 5
        for hit in hits:
            assert type(hit.oid) is int and type(hit.distance) is float
            np.testing.assert_array_equal(hit.vector, small_data[hit.oid])
            hit.vector[0] += 1.0  # a private, writable copy
            owner = hit.vector if hit.vector.base is None else hit.vector.base
            assert owner.size <= 5 * small_data.shape[1]

    def test_invalid_parameters(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.knn_search(queries[0], 0, cand_size=10)
        with pytest.raises(QueryError):
            client.knn_search(queries[0], 10, cand_size=5)


class TestCostReporting:
    def test_search_report_components(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        client.knn_search(queries[0], 5, cand_size=100)
        report = client.report()
        assert report.decryption_time > 0.0
        assert report.distance_time > 0.0
        assert report.client_time >= (
            report.decryption_time + report.distance_time
        )
        assert report.communication_bytes > 0
        assert report.extras["candidates_received"] == 100

    def test_reset_accounting(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        client.knn_search(queries[0], 5, cand_size=100)
        client.reset_accounting()
        report = client.report()
        assert report.client_time == 0.0
        assert report.communication_bytes == 0

    def test_insert_report_has_encryption(self, small_data):
        cloud = SimilarityCloud.build(
            small_data, distance=L1Distance(), n_pivots=8,
            bucket_capacity=40, seed=7,
        )
        cloud.owner.outsource(range(100), small_data[:100])
        report = cloud.owner.client.report()
        assert report.encryption_time > 0.0
        assert report.distance_time > 0.0
        assert report.server_time > 0.0


class TestServerValidation:
    def test_unknown_cand_size_zero_rejected(self, approx_cloud):
        client = approx_cloud.new_client()
        writer = Writer()
        writer.i32_array(np.arange(8, dtype=np.int32))
        writer.u32(0)
        writer.u32(0)
        with pytest.raises(ProtocolError):
            client.rpc.call("approx_knn", writer)

    @pytest.mark.parametrize("strategy", [Strategy.APPROXIMATE, Strategy.PRECISE])
    @pytest.mark.parametrize("method", ["insert_bulk", "insert", "delete"])
    def test_a_row_that_is_no_permutation_is_refused_before_anything_changes(
        self, strategy, method, small_data, queries
    ):
        """A bulk carrying ``[99, 1, 2, ...]`` as a permutation used to be
        accepted (APPROXIMATE) or to die half-way (PRECISE) with the
        tree already grown a cell ``(99,)``, after which every search
        raised a stray ``IndexError``. It is refused, typed, with tree,
        storage and record count as they were, and searches answer."""
        cloud = SimilarityCloud.build(
            small_data, distance=L1Distance(), n_pivots=8,
            bucket_capacity=40, strategy=strategy, seed=7,
        )
        cloud.owner.outsource(range(len(small_data)), small_data)
        index, storage = cloud.server.index, cloud.server.storage
        client = cloud.new_client()

        def state():
            return (
                len(index),
                [(leaf.prefix, leaf.count, leaf.intervals)
                 for leaf in index.tree.leaves()],
                {cell: [r.to_bytes() for r in storage.load(cell)]
                 for cell in sorted(storage.cells())},
                client.knn_search(queries[0], 5, cand_size=60),
            )

        before = state()
        good = np.argsort(np.abs(small_data[:3] - 1.0) @ np.ones((12, 8)), axis=1)
        with_distances = strategy is Strategy.PRECISE
        for bad_row in (
            [99, 1, 2, 3, 4, 5, 6, 7],  # outside the pivots
            [-1, 1, 2, 3, 4, 5, 6, 7],
            [1, 1, 2, 3, 4, 5, 6, 7],  # inside them, twice
        ):
            permutations = good.astype(np.int32)
            permutations[1] = bad_row
            distances = np.ones((3, 8)) if with_distances else None
            if method == "insert_bulk":
                body = RecordBatch(
                    [7000, 7001, 7002], permutations, distances, [b"t"] * 3
                ).write_to(Writer())
            else:
                # the per-record requests: one bad record
                record = IndexedRecord(
                    7001, permutations[1], None if distances is None
                    else distances[1], b"t",
                )
                body = Writer()
                if method == "insert":
                    body.u32(1)
                record.write_to(body)
            with pytest.raises(ReproError, match="permutation"):
                client.rpc.call(method, body)
            after = state()
            assert after[:3] == before[:3]
            assert [(h.oid, h.distance) for h in after[3]] == [
                (h.oid, h.distance) for h in before[3]
            ]

    def test_stats_handler(self, approx_cloud):
        client = approx_cloud.new_client()
        reader = client.rpc.call("stats")
        count = reader.u32()
        stats = {}
        for _ in range(count):
            key = reader.string()
            stats[key] = reader.f64()
        assert stats["records"] == 600

    def test_stats_report_chunk_fill_of_a_disk_backend(
        self, approx_cloud, small_data, tmp_path
    ):
        def stats_of(cloud):
            return read_stats_map(cloud.new_client().rpc.call("stats"))

        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=512)
        cloud = SimilarityCloud.build(
            small_data, distance=L1Distance(), n_pivots=8,
            bucket_capacity=40, storage=storage, seed=7,
        )
        cloud.owner.outsource(range(200), small_data[:200], bulk_size=50)
        stats = stats_of(cloud)
        assert stats["storage_chunks"] == storage.chunks > 0
        assert stats["storage_segments"] == storage.segments > 0
        assert stats["storage_dead_bytes"] == storage.dead_bytes > 0
        assert stats["records"] == 200
        # a memory backend has no chunks, files or dead bytes to report
        assert not {
            "storage_chunks", "storage_segments", "storage_dead_bytes"
        } & set(stats_of(approx_cloud))

    def test_server_reset_accounting(self, approx_cloud):
        approx_cloud.server.reset_accounting()
        assert approx_cloud.server.server_time == 0.0


class TestDataOwner:
    def test_create_generates_key(self, small_data):
        server = SimilarityCloudServer(8, 40)
        channel = InProcessChannel(server.handle)
        space = MetricSpace(L1Distance(), 12)
        owner = DataOwner.create(
            small_data,
            space,
            RpcClient(channel),
            n_pivots=8,
            rng=np.random.default_rng(5),
        )
        assert owner.secret_key.n_pivots == 8
        assert owner.authorize() is owner.secret_key

    def test_authorized_client_can_search(
        self, approx_cloud, small_data, queries
    ):
        key = approx_cloud.owner.authorize()
        client = approx_cloud.new_client(secret_key=key)
        hits = client.knn_search(queries[0], 5, cand_size=150)
        assert len(hits) == 5


class TestCloudTcp:
    def test_build_over_tcp(self, small_data, queries):
        with SimilarityCloud.build(
            small_data[:200],
            distance=L1Distance(),
            n_pivots=6,
            bucket_capacity=40,
            seed=3,
            transport="tcp-async",
        ) as cloud:
            cloud.owner.outsource(range(200), small_data[:200])
            client = cloud.new_client()
            hits = client.knn_search(queries[0], 5, cand_size=100)
            assert len(hits) == 5
            report = client.report()
            assert report.communication_bytes > 0
