"""Operational integration: server restart recovery and concurrent
TCP clients."""

import threading

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.server import SimilarityCloudServer
from repro.exceptions import IndexError_
from repro.metric.distances import L1Distance
from repro.mindex.index import MIndex
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage

from tests.conftest import brute_force_knn


class TestRecovery:
    def _build_disk_cloud(self, small_data, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
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
        return cloud, storage

    def test_restarted_server_answers_identically(
        self, small_data, queries, tmp_path
    ):
        cloud, storage = self._build_disk_cloud(small_data, tmp_path)
        key = cloud.owner.authorize()

        # simulate a restart: fresh server process over the same disk
        restarted = SimilarityCloudServer(8, 40, storage=storage)
        recovered = restarted.index.rebuild_from_storage()
        assert recovered == len(small_data)

        from repro.core.client import EncryptedClient
        from repro.metric.space import MetricSpace

        client = EncryptedClient(
            key,
            MetricSpace(L1Distance(), 12),
            RpcClient(InProcessChannel(restarted.handle)),
            strategy=Strategy.PRECISE,
        )
        q = queries[0]
        hits = client.knn_precise(q, 10)
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

    def test_recovered_tree_structure_matches(self, small_data, tmp_path):
        cloud, storage = self._build_disk_cloud(small_data, tmp_path)
        original = cloud.server.index
        restarted = MIndex(8, 40, storage, max_level=8)
        restarted.rebuild_from_storage()
        original_leaves = {
            leaf.prefix: leaf.count
            for leaf in original.tree.leaves()
            if leaf.count
        }
        recovered_leaves = {
            leaf.prefix: leaf.count
            for leaf in restarted.tree.leaves()
            if leaf.count
        }
        assert recovered_leaves == original_leaves

    def test_recovery_restores_intervals(self, small_data, queries, tmp_path):
        """Range-pivot pruning must work identically after recovery."""
        cloud, storage = self._build_disk_cloud(small_data, tmp_path)
        restarted = MIndex(8, 40, storage, max_level=8)
        restarted.rebuild_from_storage()
        pivots = cloud.owner.secret_key.pivots
        for q in queries[:3]:
            q_dists = np.abs(pivots - q).sum(axis=1)
            a = sorted(
                r.oid
                for r in cloud.server.index.range_search(q_dists, 15.0)
            )
            b = sorted(r.oid for r in restarted.range_search(q_dists, 15.0))
            assert a == b

    def test_rebuild_on_nonempty_index_replaces_state(
        self, small_data, tmp_path
    ):
        cloud, storage = self._build_disk_cloud(small_data, tmp_path)
        index = cloud.server.index
        count_before = len(index)
        assert index.rebuild_from_storage() == count_before
        assert len(index) == count_before

    def test_conflicting_prefix_rejected(self, tmp_path):
        """A storage holding a cell at both a prefix and its extension
        is corrupt and must be reported."""
        from repro.core.records import IndexedRecord

        storage = DiskStorage(tmp_path / "bad")
        record = IndexedRecord(
            1, np.arange(4, dtype=np.int32), None, b"x"
        )
        storage.save((0,), [record])
        storage.save((0, 1), [record])
        index = MIndex(4, 10, storage)
        with pytest.raises(IndexError_):
            index.rebuild_from_storage()


class TestConcurrentTcpClients:
    def test_parallel_inserts_and_searches(self, rng):
        data = rng.normal(size=(600, 8)) * 2
        cloud = SimilarityCloud.build(
            data,
            distance=L1Distance(),
            n_pivots=6,
            bucket_capacity=30,
            strategy=Strategy.APPROXIMATE,
            seed=5,
            transport="tcp-async",
        )
        try:
            cloud.owner.outsource(range(300), data[:300])
            errors: list[Exception] = []

            def writer_thread():
                try:
                    client = cloud.new_client()
                    client.insert_many(
                        range(300, 600), data[300:], bulk_size=25
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            def reader_thread():
                try:
                    client = cloud.new_client()
                    for _ in range(30):
                        hits = client.knn_search(
                            data[5], 5, cand_size=50
                        )
                        assert len(hits) == 5
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=writer_thread),
                threading.Thread(target=reader_thread),
                threading.Thread(target=reader_thread),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(cloud.server.index) == 600
        finally:
            cloud.close()
