"""Cluster deployments end to end: equivalence, rebalance, shard loss.

The cluster is only worth its complexity if it is *invisible* to
correctness: an encrypted client over N shards must return exactly the
single-server answers, keep them across a live rebalance, and degrade
visibly (typed error or counted skip) when a shard dies mid-run.
"""

import numpy as np
import pytest

from repro.cluster import LocalShardCluster, ProcessShardCluster, ShardRouter
from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.records import RecordBatch
from repro.exceptions import ShardUnavailableError
from repro.metric.distances import L2Distance
from repro.metric.permutations import pivot_permutations
from repro.net.resilience import RetryPolicy
from repro.wire.encoding import Writer
from tests.conftest import candidate_lists

N = 500
DIM = 10
N_PIVOTS = 12


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(N, DIM))
    queries = rng.normal(size=(10, DIM))
    return data, queries


def _run_deployment(data, queries, *, shards, strategy, resilient=False):
    cloud = SimilarityCloud.build(
        data,
        distance=L2Distance(),
        n_pivots=N_PIVOTS,
        bucket_capacity=20,
        strategy=strategy,
        seed=5,
        shards=shards,
    )
    try:
        cloud.owner.outsource(range(len(data)), data)
        client = (
            cloud.new_resilient_client()
            if resilient
            else cloud.new_client()
        )
        # in full, and refining only the head of the pre-ranked set
        # (batched, then one query at a time)
        knn = [
            [[(hit.oid, hit.distance) for hit in hits] for hits in answers]
            for answers in (
                client.knn_batch(queries, k=5, cand_size=60),
                client.knn_batch(queries, k=5, cand_size=60, refine_limit=15),
                [
                    client.knn_search(q, 5, cand_size=60, refine_limit=15)
                    for q in queries
                ],
            )
        ]
        assert knn[1] == knn[2] != knn[0]
        ranges = None
        if strategy is not Strategy.APPROXIMATE:
            ranges = [
                [(hit.oid, hit.distance) for hit in hits]
                for hits in (
                    client.range_search(q, radius=2.5) for q in queries
                )
            ]
        report = client.report()
        return knn, ranges, report
    finally:
        cloud.close()


@pytest.mark.parametrize(
    "strategy", [Strategy.APPROXIMATE, Strategy.TRANSFORMED]
)
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_cloud_equals_single_server(dataset, strategy, shards):
    data, queries = dataset
    knn_one, ranges_one, _ = _run_deployment(
        data, queries, shards=1, strategy=strategy
    )
    knn_many, ranges_many, report = _run_deployment(
        data, queries, shards=shards, strategy=strategy
    )
    assert knn_many == knn_one
    assert ranges_many == ranges_one
    # the cluster stayed invisible: nothing was skipped
    assert report.extras.get("shards_skipped", 0) == 0


def test_resilient_clients_see_identical_answers(dataset):
    data, queries = dataset
    knn_one, _r, _ = _run_deployment(
        data, queries, shards=1, strategy=Strategy.APPROXIMATE
    )
    knn_many, _r, report = _run_deployment(
        data,
        queries,
        shards=3,
        strategy=Strategy.APPROXIMATE,
        resilient=True,
    )
    assert knn_many == knn_one
    assert report.extras.get("retries_attempted") == 0


def test_rebalance_round_trip_preserves_answers(dataset):
    data, queries = dataset
    cloud = SimilarityCloud.build(
        data,
        distance=L2Distance(),
        n_pivots=N_PIVOTS,
        bucket_capacity=20,
        strategy=Strategy.TRANSFORMED,
        seed=5,
        shards=2,
    )
    try:
        cloud.owner.outsource(range(len(data)), data)
        client = cloud.new_client()

        def snapshot():
            knn = [
                [(h.oid, h.distance) for h in hits]
                for hits in client.knn_batch(queries, k=5, cand_size=60)
            ]
            rng = [
                (h.oid, h.distance)
                for h in client.range_search(queries[0], radius=2.5)
            ]
            return knn, rng

        before = snapshot()
        router = client.rpc
        total_before = sum(
            len(server.index) for server in cloud.cluster.servers
        )
        # move half of shard 0's range to shard 1 and back again
        donors = list(router.shard_map.pivots_of(0))[:3]
        moved = router.rebalance(donors, target=1)
        assert moved > 0
        assert all(router.shard_map.shard_of(p) == 1 for p in donors)
        assert (
            sum(len(server.index) for server in cloud.cluster.servers)
            == total_before
        )
        assert snapshot() == before  # identical answers mid-move
        back = router.rebalance(donors, target=0)
        assert back == moved  # the full range came home, zero loss
        assert snapshot() == before
    finally:
        cloud.close()


# ---------------------------------------------------------------------------
# process cluster: real parallelism and real shard loss


def _make_corpus(n, rng):
    distances = rng.uniform(0.0, 10.0, size=(n, N_PIVOTS))
    permutations = pivot_permutations(distances)
    oids = np.arange(n, dtype=np.uint64)
    payloads = [rng.bytes(24) for _ in range(n)]
    batch = RecordBatch(oids, permutations, distances, payloads)
    return batch.write_to(Writer()).getvalue(), permutations


def _knn_body(perms, cand_size):
    return (
        Writer()
        .i32_matrix(np.asarray(perms, dtype=np.int32))
        .u32(cand_size)
        .u32(0)
        .getvalue()
    )


@pytest.mark.slow
def test_process_cluster_serves_and_degrades_on_shard_loss():
    rng = np.random.default_rng(123)
    insert_body, perms = _make_corpus(400, rng)
    query = _knn_body(perms[:5], cand_size=30)
    with ProcessShardCluster(N_PIVOTS, 16, n_shards=2) as cluster:
        strict = cluster.router(
            resilient=True,
            policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            sleep=lambda _s: None,
        )
        partial = cluster.router(
            resilient=True,
            policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            allow_partial=True,
            sleep=lambda _s: None,
        )
        try:
            total = strict.call("insert_bulk", insert_body).u64()
            assert total == 400
            healthy = candidate_lists(strict.call("knn_batch", query))
            assert any(healthy)
            # chaos: shard 1 dies without draining
            cluster.kill_shard(1)
            with pytest.raises(ShardUnavailableError) as excinfo:
                strict.call("knn_batch", query)
            assert excinfo.value.shard == 1
            degraded = candidate_lists(partial.call("knn_batch", query))
            assert partial.shards_skipped >= 1
            # the surviving shard still answers with its own prefix
            # range: every degraded hit lives on shard 0
            assert any(degraded)
            for hits in degraded:
                for oid, _payload in hits:
                    top = int(perms[oid][0])
                    assert cluster.shard_map.shard_of(top) == 0
            # mutations must NOT degrade
            with pytest.raises(ShardUnavailableError):
                partial.call("insert_bulk", insert_body)
        finally:
            strict.close()
            partial.close()


@pytest.mark.slow
def test_process_cluster_matches_local_cluster():
    rng = np.random.default_rng(9)
    insert_body, perms = _make_corpus(300, rng)
    query = _knn_body(perms[:8], cand_size=40)
    with LocalShardCluster(
        N_PIVOTS, 16, n_shards=2, latency=0.0, bandwidth=None
    ) as local:
        local_router = local.router(resilient=False)
        local_router.call("insert_bulk", insert_body)
        expected = candidate_lists(local_router.call("knn_batch", query))
        local_router.close()
    with ProcessShardCluster(N_PIVOTS, 16, n_shards=2) as cluster:
        router = cluster.router(resilient=False)
        try:
            router.call("insert_bulk", insert_body)
            assert candidate_lists(router.call("knn_batch", query)) == expected
        finally:
            router.close()
