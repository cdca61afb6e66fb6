"""The batched query engine: equivalence, caching, concurrency.

Three guarantees are pinned here:

* ``knn_batch`` / ``range_batch`` return *exactly* the hits of looped
  single-query calls (same oids, bit-identical distances and vectors),
  on every strategy and baseline that offers a batch path;
* the decrypted-candidate LRU cache accounts every hit and miss
  exactly, and decryption time is only ever charged for misses;
* concurrent execution (8 independent client threads, searches racing
  inserts) returns the same results as serial calls.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.baselines.plain import build_plain
from repro.baselines.trivial import build_trivial
from repro.core import client as client_module
from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.costs import CACHE_HITS, CACHE_MISSES, DECRYPTION
from repro.core.locks import ReadWriteLock
from repro.crypto.keys import SecretKey
from repro.exceptions import QueryError
from repro.metric.distances import L1Distance
from repro.metric.space import MetricSpace
from repro.wire.encoding import BlobColumn, Reader, Writer
from repro.wire.scatter import CandidateTable, read_candidate_lists


def _same_hits(single_lists, batched_lists):
    assert len(single_lists) == len(batched_lists)
    for single, batched in zip(single_lists, batched_lists):
        assert [h.oid for h in single] == [h.oid for h in batched]
        for s, b in zip(single, batched):
            assert s.distance == b.distance  # bit-identical, not approx
            assert np.array_equal(s.vector, b.vector)


@pytest.fixture
def transformed_cloud(small_data) -> SimilarityCloud:
    cloud = SimilarityCloud.build(
        small_data,
        distance=L1Distance(),
        n_pivots=8,
        bucket_capacity=40,
        strategy=Strategy.TRANSFORMED,
        seed=7,
    )
    cloud.owner.outsource(range(len(small_data)), small_data)
    return cloud


# ---------------------------------------------------------------------------
# batched == looped single-query
# ---------------------------------------------------------------------------


class TestBatchEquivalence:
    def test_knn_batch_matches_looped_searches(self, approx_cloud, queries):
        single_client = approx_cloud.new_client()
        batch_client = approx_cloud.new_client()
        singles = [
            single_client.knn_search(q, 5, cand_size=60) for q in queries
        ]
        batched = batch_client.knn_batch(queries, 5, cand_size=60)
        _same_hits(singles, batched)

    def test_knn_batch_with_max_cells_and_refine_limit(
        self, approx_cloud, queries
    ):
        single_client = approx_cloud.new_client()
        batch_client = approx_cloud.new_client()
        singles = [
            single_client.knn_search(
                q, 5, cand_size=60, max_cells=3, refine_limit=40
            )
            for q in queries
        ]
        batched = batch_client.knn_batch(
            queries, 5, cand_size=60, max_cells=3, refine_limit=40
        )
        _same_hits(singles, batched)

    def test_range_batch_matches_looped_searches(
        self, precise_cloud, queries
    ):
        single_client = precise_cloud.new_client()
        batch_client = precise_cloud.new_client()
        radius = 18.0
        singles = [single_client.range_search(q, radius) for q in queries]
        batched = batch_client.range_batch(queries, radius)
        _same_hits(singles, batched)

    def test_range_batch_transformed_matches_looped_searches(
        self, transformed_cloud, queries
    ):
        single_client = transformed_cloud.new_client()
        batch_client = transformed_cloud.new_client()
        radius = 18.0
        singles = [single_client.range_search(q, radius) for q in queries]
        batched = batch_client.range_batch(queries, radius)
        _same_hits(singles, batched)

    def test_batch_with_cache_still_matches(self, approx_cloud, queries):
        single_client = approx_cloud.new_client()
        cached_client = approx_cloud.new_client(cache_size=4096)
        singles = [
            single_client.knn_search(q, 5, cand_size=60) for q in queries
        ]
        # twice: the second pass answers from a warm cache
        for _ in range(2):
            batched = cached_client.knn_batch(queries, 5, cand_size=60)
            _same_hits(singles, batched)

    def test_duplicate_queries_in_one_batch(self, approx_cloud, queries):
        batch_client = approx_cloud.new_client()
        doubled = np.vstack([queries, queries])
        batched = batch_client.knn_batch(doubled, 5, cand_size=60)
        _same_hits(batched[: len(queries)], batched[len(queries) :])

    def test_empty_batch(self, approx_cloud):
        client = approx_cloud.new_client()
        assert client.knn_batch(np.empty((0, 12)), 5, cand_size=60) == []

    def test_single_row_batch_accepts_1d_query(self, approx_cloud, queries):
        client = approx_cloud.new_client()
        [batched] = client.knn_batch(queries[0], 5, cand_size=60)
        single = approx_cloud.new_client().knn_search(
            queries[0], 5, cand_size=60
        )
        _same_hits([single], [batched])

    def test_knn_batch_validates_arguments(
        self, approx_cloud, queries, small_data
    ):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.knn_batch(queries, 0, cand_size=60)
        with pytest.raises(QueryError):
            client.knn_batch(queries, 5, cand_size=3)
        # a negative refine_limit is not a slice end and NaN is not a
        # radius (``nan < 0`` is false), on any strategy, routed or not
        nan = float("nan")
        for strategy in Strategy:
            for shards in (1, 2):
                with SimilarityCloud.build(
                    small_data[:60], distance=L1Distance(), n_pivots=8,
                    bucket_capacity=40, strategy=strategy, seed=7,
                    shards=shards,
                ) as cloud:
                    client = cloud.new_client()
                    with pytest.raises(QueryError, match="refine_limit"):
                        client.knn_search(
                            queries[0], 5, cand_size=60, refine_limit=-1
                        )
                    with pytest.raises(QueryError, match="refine_limit"):
                        client.knn_batch(
                            queries, 5, cand_size=60, refine_limit=-4
                        )
                    with pytest.raises(QueryError, match="radius must be"):
                        client.range_search(queries[0], nan)
                    with pytest.raises(QueryError, match="radius must be"):
                        client.range_batch(queries, nan)

    def test_range_batch_rejected_under_approximate(
        self, approx_cloud, queries
    ):
        client = approx_cloud.new_client()
        with pytest.raises(QueryError):
            client.range_batch(queries, 10.0)

    def test_response_for_another_batch_is_refused(
        self, approx_cloud, queries
    ):
        """A response whose query count disagrees with the request is
        not refined, whatever its candidates."""
        client = approx_cloud.new_client()
        real_call = client.rpc.call
        client.rpc.call = lambda method, body, **kwargs: real_call(
            method,
            Writer()
            .i32_matrix(Reader(body.getvalue()).i32_matrix()[:2])
            .u32(60)
            .u32(0),
        )
        with pytest.raises(QueryError, match="2 result lists for 3 queries"):
            client.knn_batch(queries[:3], 5, cand_size=60)


class TestBaselineBatchEquivalence:
    @pytest.fixture
    def plain(self, small_data):
        space = MetricSpace(L1Distance(), 12)
        key = SecretKey.generate(
            small_data, 8, rng=np.random.default_rng(3), space=space
        )
        server, client = build_plain(key.pivots, L1Distance(), 40)
        client.insert_many(range(len(small_data)), small_data)
        return key, client

    def test_plain_batches_match(self, plain, queries):
        _key, client = plain
        singles = [client.knn_search(q, 5, cand_size=60) for q in queries]
        _same_hits(singles, client.knn_batch(queries, 5, cand_size=60))
        radius = 18.0
        singles = [client.range_search(q, radius) for q in queries]
        _same_hits(singles, client.range_batch(queries, radius))

    def test_trivial_batches_match(self, plain, small_data, queries):
        key, _ = plain
        space = MetricSpace(L1Distance(), 12)
        _server, client = build_trivial(key, space)
        client.insert_many(range(len(small_data)), small_data)
        singles = [client.knn_search(q, 5) for q in queries]
        _same_hits(singles, client.knn_batch(queries, 5))
        radius = 18.0
        singles = [client.range_search(q, radius) for q in queries]
        _same_hits(singles, client.range_batch(queries, radius))


# ---------------------------------------------------------------------------
# tokens decrypted where they lie
# ---------------------------------------------------------------------------


def _reversed_tables(reader, *, single=False):
    """A response's table in reverse order, its row lists renumbered:
    the same candidates, no longer in first-use order."""
    table, rows_per_query = read_candidate_lists(reader, single=single)
    back = np.arange(len(table.oids))[::-1]
    return CandidateTable(
        table.oids[back], BlobColumn.gathered([table.payloads], back)
    ), [back[rows] for rows in rows_per_query]


@pytest.mark.parametrize("shards", [1, 2])
def test_whole_table_is_decrypted_without_a_gather(
    small_data, queries, shards, monkeypatch
):
    """Servers and routers write a response's table in first-use order,
    so without a ``refine_limit`` the client decrypts the tokens where
    they lie; a cut head, or a table in another order, is gathered —
    to the same hits."""
    cloud = SimilarityCloud.build(
        small_data,
        distance=L1Distance(),
        n_pivots=8,
        bucket_capacity=40,
        strategy=Strategy.APPROXIMATE,
        seed=7,
        shards=shards,
    )
    cloud.owner.outsource(range(len(small_data)), small_data)
    client = cloud.new_client()
    gathered = BlobColumn.gathered.__func__
    calls = []

    def counting(cls, columns, rows=None):
        calls.append(rows)
        return gathered(cls, columns, rows)

    monkeypatch.setattr(BlobColumn, "gathered", classmethod(counting))
    singles = [client.knn_search(q, 5, cand_size=60) for q in queries]
    batched = client.knn_batch(queries, 5, cand_size=60)
    assert calls == []
    client.knn_batch(queries, 5, cand_size=60, refine_limit=40)
    assert len(calls) == 1
    monkeypatch.setattr(client_module, "read_candidate_lists", _reversed_tables)
    _same_hits(singles, [client.knn_search(q, 5, cand_size=60) for q in queries])
    _same_hits(batched, client.knn_batch(queries, 5, cand_size=60))
    assert len(calls) == 1 + 2 * (len(queries) + 1)


# ---------------------------------------------------------------------------
# candidate-cache accounting
# ---------------------------------------------------------------------------


class TestCandidateCache:
    def test_repeat_query_hits_cache_exactly(self, approx_cloud, queries):
        client = approx_cloud.new_client(cache_size=4096)
        client.knn_search(queries[0], 5, cand_size=60)
        first_misses = client.costs.count(CACHE_MISSES)
        assert client.costs.count(CACHE_HITS) == 0
        assert first_misses == client.costs.count("candidates_refined")
        decryption_after_first = client.costs.seconds(DECRYPTION)
        client.knn_search(queries[0], 5, cand_size=60)
        # the repeat refines the same candidates: all hits, no misses,
        # and not a single additional second of decryption time
        assert client.costs.count(CACHE_MISSES) == first_misses
        assert client.costs.count(CACHE_HITS) == first_misses
        assert client.costs.seconds(DECRYPTION) == decryption_after_first

    def test_batch_decrypts_each_unique_candidate_once(
        self, approx_cloud, queries
    ):
        client = approx_cloud.new_client(cache_size=4096)
        results = client.knn_batch(queries, 5, cand_size=60)
        assert len(results) == len(queries)
        # within-batch dedup: every lookup in the first batch missed
        # (nothing cached yet) and each unique candidate was looked up
        # exactly once
        first_misses = client.costs.count(CACHE_MISSES)
        assert client.costs.count(CACHE_HITS) == 0
        assert first_misses <= client.costs.count("candidates_refined")
        assert first_misses == len(client.cache)
        client.knn_batch(queries, 5, cand_size=60)
        # identical batch: same unique set, all hits
        assert client.costs.count(CACHE_MISSES) == first_misses
        assert client.costs.count(CACHE_HITS) == first_misses

    def test_counters_idle_when_cache_disabled(self, approx_cloud, queries):
        client = approx_cloud.new_client()  # default: no cache
        assert client.cache is None
        client.knn_search(queries[0], 5, cand_size=60)
        assert client.costs.count(CACHE_HITS) == 0
        assert client.costs.count(CACHE_MISSES) == 0
        report = client.report()
        assert report.extras[CACHE_HITS] == 0
        assert report.extras[CACHE_MISSES] == 0

    def test_lru_eviction_bounds_the_cache(self, approx_cloud, queries):
        client = approx_cloud.new_client(cache_size=10)
        client.knn_batch(queries, 5, cand_size=60)
        assert len(client.cache) <= 10

    def test_reinserted_record_never_serves_stale_plaintext(
        self, small_data
    ):
        cloud = SimilarityCloud.build(
            small_data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.APPROXIMATE,
            seed=7,
        )
        cloud.owner.outsource(range(len(small_data)), small_data)
        client = cloud.new_client(cache_size=4096)
        target = small_data[0]
        [old_hit] = client.knn_search(target, 1, cand_size=30)
        assert old_hit.oid == 0
        # replace object 0 with a different vector under the same oid
        replacement = target + 1.0
        client.delete(0, target)
        client.insert(0, replacement)
        [new_hit] = client.knn_search(replacement, 1, cand_size=30)
        assert new_hit.oid == 0
        assert np.array_equal(new_hit.vector, replacement)


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


class TestConcurrentSearch:
    def test_search_batch_under_8_threads_matches_serial(
        self, approx_cloud, queries
    ):
        """8 concurrent client threads, each sending the whole batch,
        all reproduce the serial answers."""
        serial_client = approx_cloud.new_client()
        serial = [
            serial_client.knn_search(q, 5, cand_size=60) for q in queries
        ]

        def run(_worker: int):
            client = approx_cloud.new_client()
            return client.knn_batch(queries, 5, cand_size=60)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(run, range(8)))
        for batched in outcomes:
            _same_hits(serial, batched)

    def test_close_releases_pool_but_keeps_single_queries_working(
        self, approx_cloud, queries
    ):
        """An in-process server holds no thread of its own, so
        ``close()`` takes nothing away from its clients."""
        client = approx_cloud.new_client()
        assert client.knn_batch(queries[:2], 5, cand_size=60)
        approx_cloud.close()
        assert len(client.knn_search(queries[0], 5, cand_size=60)) == 5
        assert client.knn_batch(queries[:2], 5, cand_size=60)

    def test_closed_deployment_is_not_cyclic_garbage(self, small_data):
        """Dropping a closed deployment frees it by reference counting:
        with the collector off, its servers, indexes and router are
        gone the moment the last name is, and a collection afterwards
        finds no record left behind in a cycle. (The dispatcher used to
        hold the server's bound methods strongly, the router a view and
        a method table pointing back at itself, and a stopped socket
        transport the handler of the server that owned it.)"""
        import gc
        import weakref

        from repro.core.records import IndexedRecord

        gc.collect()
        gc.disable()
        try:
            for deployment in (
                {},
                {"shards": 2},
                {"transport": "tcp-async"},
                {"shards": 2, "transport": "tcp-async"},
            ):
                cloud = SimilarityCloud.build(
                    small_data,
                    distance=L1Distance(),
                    n_pivots=8,
                    bucket_capacity=40,
                    strategy=Strategy.APPROXIMATE,
                    seed=7,
                    **deployment,
                )
                cloud.owner.outsource(range(len(small_data)), small_data)
                client = cloud.new_client()
                assert len(client.knn_batch(small_data[:3], 5, cand_size=60)) == 3
                servers = (
                    cloud.cluster.servers if cloud.cluster else [cloud.server]
                )
                watched = [weakref.ref(client.rpc)]
                for server in servers:
                    watched += [weakref.ref(server), weakref.ref(server.index)]
                close = getattr(client.rpc, "close", None)
                if close is not None:
                    close()
                cloud.close()
                del cloud, client, servers, server, close
                assert [ref() for ref in watched] == [None] * len(watched), (
                    deployment
                )
            gc.set_debug(gc.DEBUG_SAVEALL)  # keep what collect() finds
            gc.collect()
            found = [o for o in gc.garbage if isinstance(o, IndexedRecord)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []

    def test_concurrent_searches_during_inserts_stay_consistent(
        self, approx_cloud, small_data, queries, rng
    ):
        """Readers never observe a half-split tree: every concurrent
        k-NN result is a valid answer over at least the initial data."""
        extra = rng.normal(0.0, 5.0, size=(120, 12))
        errors: list[BaseException] = []

        def writer_thread():
            try:
                client = approx_cloud.new_client()
                client.insert_many(
                    range(10_000, 10_000 + len(extra)), extra, bulk_size=10
                )
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        def reader_thread():
            try:
                client = approx_cloud.new_client()
                for _ in range(5):
                    for q in queries[:3]:
                        hits = client.knn_search(q, 5, cand_size=60)
                        assert len(hits) == 5
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = [threading.Thread(target=writer_thread)] + [
            threading.Thread(target=reader_thread) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(approx_cloud.server.index) == len(small_data) + len(extra)


class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock()
        active = {"readers": 0, "writers": 0}
        peak = {"readers": 0}
        violations: list[str] = []
        gate = threading.Barrier(4)

        def reader():
            gate.wait()
            with lock.read():
                active["readers"] += 1
                peak["readers"] = max(peak["readers"], active["readers"])
                if active["writers"]:
                    violations.append("reader saw a writer")
                threading.Event().wait(0.01)
                active["readers"] -= 1

        def writer():
            gate.wait()
            with lock.write():
                active["writers"] += 1
                if active["writers"] != 1 or active["readers"]:
                    violations.append("writer was not exclusive")
                threading.Event().wait(0.01)
                active["writers"] -= 1

        threads = [threading.Thread(target=reader) for _ in range(3)] + [
            threading.Thread(target=writer)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not violations
        assert peak["readers"] >= 1
