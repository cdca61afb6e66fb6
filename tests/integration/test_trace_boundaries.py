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
from repro.storage.disk import DiskStorage
from repro.wire.scatter import read_stats_map

TRACE = Path(__file__).parents[2] / "benchmarks" / "e2e" / "trace.py"


def test_trace_targets_resolve_and_are_the_calls_made(tmp_path):
    spec = importlib.util.spec_from_file_location("e2e_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for owner, attribute, label, _metric, _role in trace._targets():
        target = owner.__dict__[attribute]  # as Tracer.install() does
        assert callable(getattr(target, "__func__", target)), label

    # and the search path goes through them: install the tracer the way
    # run.py does (before the deployment exists) and look at the spans
    data = np.random.default_rng(5).normal(size=(300, 6))
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
                cloud.owner.outsource(range(len(data)), data)
                client = cloud.new_client()
                client.knn_search(data[0], 3, cand_size=30)
                client.knn_batch(data[:4], 3, cand_size=30)
                if strategy is Strategy.PRECISE:
                    client.range_search(data[0], 2.0)
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
    } <= seen
    # crypto.decrypt_us_per_candidate divides by len() of the tokens
    assert all(
        span[trace.WORK] > 0
        for span in tracer.spans
        if span[trace.LABEL] == "AesCipher.decrypt_many"
    )


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
