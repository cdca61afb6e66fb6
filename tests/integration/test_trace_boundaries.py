"""The end-to-end benchmark's tracer against the program it wraps.

``benchmarks/e2e/trace.py`` (read-only for performance changes) records
its spans by replacing attributes of classes and modules under ``src/``
by name — ``owner.__dict__[attribute]`` — so renaming or re-homing one
of them breaks every traced run and the CI smoke with a ``KeyError``,
and a name that is kept but no longer called silently zeroes a
per-layer metric. Nothing else in tier-1 would notice either.
"""

import importlib.util
from pathlib import Path

import numpy as np

from repro import L1Distance, SimilarityCloud, Strategy
from repro.core.records import RecordBatch
from repro.mindex.index import MIndex
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage
from repro.wire.scatter import read_stats_map

TRACE = Path(__file__).parents[2] / "benchmarks" / "e2e" / "trace.py"


def test_trace_targets_resolve_and_are_the_calls_made(tmp_path):
    trace = _load_trace()
    for owner, attribute, label, _metric, _role in trace._targets():
        target = owner.__dict__[attribute]  # as Tracer.install() does
        assert callable(getattr(target, "__func__", target)), label

    # and the search path goes through them: install the tracer the way
    # run.py does (before the deployment exists) and look at the spans
    data = np.random.default_rng(5).normal(size=(300, 6))
    loner = np.full(6, 40.0)  # far from everything: a cell of its own
    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        for strategy, shards, storage in (
            (Strategy.APPROXIMATE, 1, None),
            (Strategy.APPROXIMATE, 2, None),
            (Strategy.PRECISE, 2, None),
            # one server on disk answering a range query itself: the
            # read boundaries storage.read_ms_per_op is summed over
            (Strategy.PRECISE, 1, DiskStorage(tmp_path / "cells")),
        ):
            cloud = SimilarityCloud.build(
                data, distance=L1Distance(), n_pivots=6, bucket_capacity=20,
                strategy=strategy, seed=1, shards=shards, storage=storage,
            )
            try:
                # the write side: bulks that append and split (300
                # objects into buckets of 20), a delete that rewrites a
                # cell and one that empties it, a drain that flushes
                cloud.owner.outsource(range(len(data)), data)
                writer = cloud.owner.client
                assert writer.delete(7, data[7])
                writer.insert_many([1000], loner[np.newaxis])
                assert writer.delete(1000, loner)
                client = cloud.new_client()
                client.knn_search(data[0], 3, cand_size=30)
                client.knn_batch(data[:4], 3, cand_size=30)
                if strategy is Strategy.PRECISE:
                    client.range_search(data[0], 2.0)
                assert cloud.drain()
            finally:
                cloud.close()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    seen = {span[trace.LABEL] for span in tracer.spans}
    assert {
        "server.write_candidates",
        "server.write_candidate_lists",
        "server.write_knn_scatter_response",
        "server.write_range_scatter_response",
        "router.read_knn_scatter_response",
        "router.read_range_scatter_response",
        "router.merge_knn_candidates",
        "router.merge_range_candidates",
        "router.write_candidates",
        "router.write_candidate_lists",
        "MIndex.approx_knn_candidates",
        "MIndex.approx_knn_candidates_batch",
        "MIndex.approx_knn_scatter_batch",
        "MIndex.range_search",
        "DiskStorage.load",
        "DiskStorage.load_many",
        "MemoryStorage.load",
        "ShardRouter.call",
        "AesCipher.decrypt_many",
        # the write side, client to chunk
        "EncryptedClient.insert_many",
        "EncryptedClient.delete",
        "AesCipher.encrypt_many",
        "RecordBatch.write_to",
        "RecordBatch.read_from",
        "MIndex.bulk_insert",
        "MIndex.delete",
        "DiskStorage.append_many",
        "DiskStorage.save",
        "DiskStorage.save_many",
        "DiskStorage.delete",
        "DiskStorage.flush",
        "MemoryStorage.append_many",
        "MemoryStorage.save",
        "MemoryStorage.save_many",
        "MemoryStorage.delete",
        "MemoryStorage.flush",
    } <= seen
    # crypto.decrypt_us_per_candidate divides by len() of the tokens
    assert all(
        span[trace.WORK] > 0
        for span in tracer.spans
        if span[trace.LABEL] == "AesCipher.decrypt_many"
    )


def _load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


class _Recording:
    """A storage backend that notes which of its attributes are used."""

    def __init__(self, storage, used):
        self._storage, self._used = storage, used

    def __getattr__(self, name):
        self._used.add(name)
        return getattr(self._storage, name)


def test_every_storage_call_of_the_write_path_is_a_traced_boundary(tmp_path):
    """``storage.write_ms_per_op`` / ``read_ms_per_op`` are sums over the
    storage methods the tracer wraps by name. Whatever the index calls
    on its backend while inserting, splitting, deleting, bulk-loading,
    dropping and rebuilding must therefore be one of those names (or
    one of the three that touch no data): a write path that grew a new
    storage method would move its time out of the layer unnoticed."""
    trace = _load_trace()
    rng = np.random.default_rng(11)
    distances = rng.random((400, 6))
    batch = RecordBatch(
        np.arange(400), None, distances, [bytes(24)] * 400
    )
    for backend, make in (
        (MemoryStorage, lambda name: MemoryStorage()),
        (DiskStorage, lambda name: DiskStorage(tmp_path / name)),
    ):
        traced = {
            attribute
            for owner, attribute, *_rest in trace._targets()
            if owner is backend
        }
        used: set[str] = set()
        index = MIndex(6, 20, _Recording(make("grown"), used), max_level=4)
        index.bulk_insert(batch.select(np.arange(300)))
        assert index.n_cells > 1
        for record in batch.select(np.arange(300, 310)).to_records():
            index.insert(record)
        permutations = batch.ensure_permutations()
        assert index.delete(3, permutations[3])
        assert index.drop_top_pivots({0, 1}) > 0
        index.export_top_pivots({2})
        index.rebuild_from_storage()
        fresh = MIndex(6, 20, _Recording(make("loaded"), used), max_level=4)
        fresh.bulk_load(batch)
        assert used - {"batch", "cell_size", "cells"} <= traced, used - traced
        assert {"append_many", "save", "save_many", "delete", "load"} <= used


def test_benchmark_reads_three_kernel_counters_that_are_zero():
    """``benchmarks/e2e/workloads.py`` indexes ``report().extras`` and
    the ``stats`` map — a router's merged one on the cluster workload —
    by these names and raises ``KeyError`` without them. Kernels are
    serial, so each reads 0."""
    data = np.random.default_rng(5).normal(size=(200, 6))
    for shards in (1, 2):
        cloud = SimilarityCloud.build(
            data, distance=L1Distance(), n_pivots=6, bucket_capacity=20,
            strategy=Strategy.APPROXIMATE, seed=1, shards=shards,
        )
        try:
            cloud.owner.outsource(range(len(data)), data)
            client = cloud.new_client()
            client.knn_batch(data[:4], 3, cand_size=30)
            views = [
                client.report().extras,
                read_stats_map(client.rpc.call("stats")),
            ]
            if shards > 1:
                per_shard, merged = client.rpc.cluster_stats()
                views += [merged, *per_shard.values()]
            for view in views:
                assert [
                    view[key]
                    for key in (
                        "kernel_tasks",
                        "kernel_parallel_batches",
                        "kernel_workers",
                    )
                ] == [0, 0, 0]
        finally:
            cloud.close()
