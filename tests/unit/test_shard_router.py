"""Shard map, scatter–gather merges and router behavior.

The cluster's core claim is *bit-identity*: a router over N shards
answers every query with the exact response a single server would have
produced. These tests pin the pieces — the deterministic shard map,
the merge order of the candidate streams, oid dedup, strict vs
degraded shard-loss handling, and the rebalance round trip.
"""

import numpy as np
import pytest

from repro.cluster import (
    LocalShardCluster,
    ShardMap,
    ShardRouter,
    merge_knn_candidates,
    merge_range_candidates,
    merge_stats,
)
from repro.cluster.router import _final_order, _padded_prefixes
from repro.core.records import IndexedRecord, RecordBatch
from repro.core.server import SimilarityCloudServer
from repro.exceptions import (
    ChannelError,
    ProtocolError,
    ShardUnavailableError,
)
from repro.metric.permutations import pivot_permutations
from repro.net.channel import InProcessChannel
from repro.net.resilience import RetryPolicy
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage
from repro.wire.encoding import BlobColumn, Reader, Writer
from repro.wire.scatter import (
    CandidateTable,
    read_candidate_lists,
    read_candidate_table,
    read_knn_scatter_response,
    read_range_scatter_response,
    write_candidate_lists,
    write_knn_scatter_response,
    write_range_scatter_response,
)
from tests.conftest import candidate_lists

N_PIVOTS = 12
BUCKET = 16


# ---------------------------------------------------------------------------
# shard map


class TestShardMap:
    def test_uniform_partitions_every_pivot_once(self):
        for n_shards in (1, 2, 3, 4, 7, 12):
            shard_map = ShardMap.uniform(12, n_shards)
            owned = [shard_map.pivots_of(s) for s in range(n_shards)]
            flat = [p for pivots in owned for p in pivots]
            assert sorted(flat) == list(range(12))
            # contiguous blocks, ascending by shard
            assert flat == sorted(flat)

    def test_uniform_is_deterministic(self):
        assert ShardMap.uniform(30, 4) == ShardMap.uniform(30, 4)

    def test_wire_round_trip(self):
        shard_map = ShardMap.uniform(17, 5).moved([0, 16], 2)
        assert ShardMap.from_bytes(shard_map.to_bytes()) == shard_map

    def test_split_rows_partitions_batch(self):
        shard_map = ShardMap.uniform(10, 3)
        tops = np.array([9, 0, 5, 5, 2, 7], dtype=np.int64)
        rows = shard_map.split_rows(tops)
        assert len(rows) == 3
        together = np.sort(np.concatenate(rows))
        assert np.array_equal(together, np.arange(6))
        for shard, indices in enumerate(rows):
            assert all(
                shard_map.shard_of(int(tops[i])) == shard for i in indices
            )

    def test_moved_reassigns_without_mutating(self):
        original = ShardMap.uniform(8, 2)
        moved = original.moved([0, 1], 1)
        assert moved.shard_of(0) == 1 and moved.shard_of(1) == 1
        assert original.shard_of(0) == 0  # immutable

    def test_validation(self):
        with pytest.raises(ProtocolError):
            ShardMap.uniform(4, 5)  # more shards than pivots
        with pytest.raises(ProtocolError):
            ShardMap(2, [0, 1, 2])  # shard 2 out of range
        with pytest.raises(ProtocolError):
            ShardMap.uniform(8, 2).shard_of(8)
        with pytest.raises(ProtocolError):
            ShardMap.uniform(8, 2).split_rows(np.array([8]))


# ---------------------------------------------------------------------------
# merges (pure functions over synthetic payloads)


def test_merge_stats_sums_and_maxes():
    merged = merge_stats(
        [
            {"records": 10.0, "max_level": 2.0, "occupied_cells": 2.0},
            {"records": 30.0, "max_level": 3.0, "occupied_cells": 6.0},
        ]
    )
    assert merged["records"] == 40.0
    assert merged["max_level"] == 3.0  # structural bound: max, not sum
    assert merged["avg_occupied_bucket"] == 5.0  # 40 records / 8 cells


#: the promises and scores a made-up shard answer draws from: ties,
#: both zeros, both infinities, negative and non-integral values
_KEYS = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1.75, np.inf])

#: the prefix elements it draws from, both ends of i32 among them
_PIVOTS = np.array([-(2**31), -1, 0, 1, 2, 2**31 - 1])


def _synthetic_shard(rng, n_queries, *, knn):
    """One shard's made-up scatter answer, through the real codec.

    Oids come from a small pool, promises and scores from
    :data:`_KEYS` and prefixes from short tuples of :data:`_PIVOTS`, so
    that repeated oids (within a shard and across shards), equal
    promises, equal scores, -0.0 beside +0.0 and equal ``(promise,
    prefix)`` keys on two shards all occur.
    """
    leaves = []
    # the writers' source: one table a visited leaf, as the index
    # hands a shard's stored cells over, rows counting through them
    records = []
    n_records = 0
    for _ in range(int(rng.integers(0, 6))):
        prefix = tuple(
            int(p) for p in rng.choice(_PIVOTS, size=rng.integers(0, 4))
        )
        oids = rng.integers(0, 40, size=rng.integers(1, 7))
        leaves.append(
            (prefix, np.arange(n_records, n_records + len(oids)))
        )
        n_records += len(oids)
        records.append(
            CandidateTable(
                oids.astype(np.uint64),
                BlobColumn.of(
                    [bytes([int(oid)]) * (int(oid) % 5) for oid in oids]
                ),
            )
        )
    query_groups = []
    for _ in range(n_queries):
        visited = [leaf for leaf in leaves if rng.random() < 0.7]
        if knn:
            groups = [
                (
                    float(rng.choice(_KEYS)),
                    prefix,
                    rows,
                    rng.choice(_KEYS, size=len(rows)),
                )
                for prefix, rows in visited
            ]
        else:
            groups = [
                (prefix, kept)
                for prefix, rows in visited
                if len(kept := rows[rng.random(len(rows)) < 0.6])
            ]
        query_groups.append(groups)
    if knn:
        encoded = write_knn_scatter_response(records, query_groups)
        return read_knn_scatter_response(Reader(encoded.getvalue()))
    encoded = write_range_scatter_response(records, query_groups)
    return read_range_scatter_response(Reader(encoded.getvalue()))


def _groups_of(columns, query):
    """Query ``query``'s groups of a decoded scatter answer, one tuple
    of per-group values (rows and scores as arrays) each."""
    groups_per_query, group_sizes, rows, *keys = columns
    cuts = np.cumsum(group_sizes)[:-1]
    per_group = [np.split(rows, cuts)]
    if len(keys) == 4:  # kNN: promises, ragged prefixes, scores
        promises, prefix_sizes, prefixes, scores = keys
        per_group += [
            promises.tolist(),
            [
                tuple(prefix.tolist())
                for prefix in np.split(prefixes, np.cumsum(prefix_sizes)[:-1])
            ],
            np.split(scores, cuts),
        ]
    else:
        per_group.append(keys[0].tolist())
    first = int(groups_per_query[:query].sum())
    return list(zip(*per_group))[first : first + int(groups_per_query[query])]


def _reference_knn_merge(shard_payloads, n_queries, cand_size, max_cells):
    """The sequential replay the array merge must equal: one query, one
    group, one candidate at a time."""
    results = []
    for query in range(n_queries):
        tagged = [
            (promise, prefix, shard, rows, scores, table)
            for shard, table, columns in shard_payloads
            for rows, promise, prefix, scores in _groups_of(columns, query)
        ]
        tagged.sort(key=lambda item: item[:3])
        collected = []
        seen = set()
        cells_accessed = 0
        for promise, _prefix, _shard, rows, scores, table in tagged:
            if len(collected) >= cand_size:
                break
            if max_cells is not None and cells_accessed >= max_cells:
                break
            cells_accessed += 1
            tokens = table.payloads.tolist(rows)
            for row, score, token in zip(rows, scores, tokens):
                oid = int(table[0][row])
                if oid not in seen:
                    seen.add(oid)
                    collected.append((promise, float(score), oid, token))
        collected.sort(key=lambda item: item[:3])
        results.append([item[2:] for item in collected[:cand_size]])
    return results


def _reference_range_merge(shard_payloads, n_queries):
    results = []
    for query in range(n_queries):
        tagged = [
            (top_pivot, shard, rows, table)
            for shard, table, columns in shard_payloads
            for rows, top_pivot in _groups_of(columns, query)
        ]
        tagged.sort(key=lambda item: item[:2])
        seen = set()
        candidates = []
        for _top_pivot, _shard, rows, table in tagged:
            for row, token in zip(rows, table.payloads.tolist(rows)):
                oid = int(table[0][row])
                if oid not in seen:
                    seen.add(oid)
                    candidates.append((oid, token))
        results.append(candidates)
    return results


def _merged_lists(merged):
    """What a merge found, as the client would receive it."""
    return candidate_lists(Reader(write_candidate_lists(*merged).getvalue()))


@pytest.mark.parametrize("seed", range(60))
def test_merges_equal_the_sequential_loop(seed):
    """The array merges against the loops they replaced, over made-up
    shard answers dense in the awkward cases: repeated oids on one and
    on several shards, tied promises, prefixes and scores, empty
    answers, ``cand_size`` and ``max_cells`` cutting anywhere."""
    rng = np.random.default_rng(seed)
    n_queries = int(rng.integers(0, 5))
    # answers arrive in no particular shard order
    shards = rng.permutation(int(rng.integers(0, 4))).tolist()
    knn = [
        (shard, *_synthetic_shard(rng, n_queries, knn=True))
        for shard in shards
    ]
    for cand_size in (1, 3, 8, 1000):
        for max_cells in (None, 1, 2, 5):
            merged = merge_knn_candidates(knn, n_queries, cand_size, max_cells)
            assert _merged_lists(merged) == _reference_knn_merge(
                knn, n_queries, cand_size, max_cells
            )
            _assert_one_row_per_oid(merged)
    ranges = [
        (shard, *_synthetic_shard(rng, n_queries, knn=False))
        for shard in shards
    ]
    merged = merge_range_candidates(ranges, n_queries)
    assert _merged_lists(merged) == _reference_range_merge(ranges, n_queries)
    _assert_one_row_per_oid(merged)


@pytest.mark.parametrize("seed", range(20))
def test_final_order_is_the_lexsort(seed):
    """The merge's integer keys order candidates as ``np.lexsort((oid,
    score, run))`` does, NaN (last, all equal), both zeros (equal) and
    both infinities included, for candidates in any order that carry
    an oid at most once a run."""
    rng = np.random.default_rng(seed)
    n_oids = int(rng.integers(1, 50))
    sizes = rng.integers(0, n_oids + 1, size=rng.integers(0, 8))
    run = np.repeat(np.arange(len(sizes)), sizes)
    oid_rank = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [rng.choice(n_oids, size=size, replace=False) for size in sizes]
    )
    pool = np.concatenate([_KEYS, [np.nan], rng.normal(size=3)])
    scores = rng.choice(pool, size=len(run))
    shuffled = rng.permutation(len(run))
    run, oid_rank, scores = run[shuffled], oid_rank[shuffled], scores[shuffled]
    assert np.array_equal(
        _final_order(run, scores, oid_rank, n_oids),
        np.lexsort((oid_rank, scores, run)),
    )


def test_final_order_refuses_keys_past_64_bits():
    """Exact up to keys of 2**63 - 1, refused one past: the score key is
    below ``scores * n_oids``, the run key below ``runs * candidates``."""
    scores = np.array([1.0, -0.0])
    oid_rank = np.array([0, 2**62 - 1])
    run = np.zeros(2, dtype=np.int64)
    assert _final_order(run, scores, oid_rank, 2**62).tolist() == [1, 0]
    with pytest.raises(ProtocolError, match="cannot be ranked in 64 bits"):
        _final_order(run, scores, oid_rank, 2**62 + 1)
    run = np.array([2**62 - 1, 0])
    assert _final_order(run, scores, np.zeros(2, dtype=np.int64), 1).tolist() == [1, 0]
    with pytest.raises(ProtocolError, match="cannot be ranked in 64 bits"):
        _final_order(run + 1, scores, np.zeros(2, dtype=np.int64), 1)


def test_padded_prefixes_sort_as_tuples_and_are_bounded():
    """A prefix sorts before its extensions, ``()`` before the smallest
    i32; the padded matrix holds at most 16 cells per group and prefix
    element."""
    prefixes = [(), (-(2**31),), (-1,), (-1, -(2**31)), (0, 5), (0,), ()]
    sizes = np.array([len(prefix) for prefix in prefixes])
    values = np.array([p for prefix in prefixes for p in prefix], dtype=np.int32)
    padded = _padded_prefixes(sizes, values)
    order = np.lexsort(padded.T[::-1])
    assert [prefixes[i] for i in order] == sorted(prefixes)
    assert _padded_prefixes(sizes[:0], values[:0]).shape == (0, 0)
    # 32 groups, one of them 32 long: 1 024 cells for 64 sent
    bound = np.array([32] + [0] * 31)
    assert _padded_prefixes(bound, np.zeros(32, dtype=np.int32)).shape == (32, 32)
    with pytest.raises(ProtocolError, match="pads 32 group prefixes to 33"):
        _padded_prefixes(bound + np.eye(32, dtype=int)[0], np.zeros(33, dtype=np.int32))


def _assert_one_row_per_oid(merged):
    """Copies of a record are one candidate across the queries of a
    batch too: its response carries every oid once."""
    table, _rows = read_candidate_lists(
        Reader(write_candidate_lists(*merged).getvalue())
    )
    assert len(set(table[0].tolist())) == len(table[0])


def test_merge_rejects_an_answer_for_another_batch():
    rng = np.random.default_rng(0)
    answer = _synthetic_shard(rng, 3, knn=True)
    with pytest.raises(ProtocolError, match="answers 3 queries, 2 were"):
        merge_knn_candidates([(0, *answer)], 2, 10, None)
    answer = _synthetic_shard(rng, 3, knn=False)
    with pytest.raises(ProtocolError, match="answers 3 queries, 4 were"):
        merge_range_candidates([(0, *answer)], 4)


# ---------------------------------------------------------------------------
# router over a real cluster (in-process, plain clients)


def _make_records(n, rng, pivots=N_PIVOTS):
    distances = rng.uniform(0.0, 10.0, size=(n, pivots))
    permutations = pivot_permutations(distances)
    oids = np.arange(n, dtype=np.uint64)
    # tokens of several lengths, the empty one included: a response
    # splices them out of the shards' payload regions length by length
    payloads = [rng.bytes(int(rng.choice([0, 7, 24, 24, 24, 61]))) for _ in range(n)]
    return oids, permutations, distances, payloads


def _insert_bulk_body(oids, permutations, distances, payloads):
    batch = RecordBatch(oids, permutations, distances, payloads)
    return batch.write_to(Writer()).getvalue()


def _read_candidates(reader):
    """A single-query response as [(oid, payload)] in rank order."""
    table = read_candidate_table(reader)
    reader.expect_end()
    return list(zip(table[0].tolist(), table.payloads.tolist()))


def _same_bytes(routed, single, method, body):
    """The routed response, after asserting it is the single server's
    byte for byte."""
    response = routed.call(method, body)
    assert response._data == single.call(method, body)._data, method
    return response


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(42)
    return _make_records(500, rng)


@pytest.fixture(scope="module")
def single_server(corpus):
    server = SimilarityCloudServer(N_PIVOTS, BUCKET)
    client = RpcClient(InProcessChannel(server.handle))
    client.call("insert_bulk", _insert_bulk_body(*corpus))
    yield client
    server.close()


def _build_cluster(corpus, n_shards):
    cluster = LocalShardCluster(
        N_PIVOTS, BUCKET, n_shards=n_shards, latency=0.0, bandwidth=None
    )
    router = cluster.router(resilient=False)
    router.call("insert_bulk", _insert_bulk_body(*corpus))
    return cluster, router


def _knn_body(perm_rows, cand_size, max_cells=0):
    return (
        Writer()
        .i32_matrix(np.asarray(perm_rows, dtype=np.int32))
        .u32(cand_size)
        .u32(max_cells)
        .getvalue()
    )


def _knn_single_body(perm, cand_size, max_cells=0):
    return (
        Writer().i32_array(perm).u32(cand_size).u32(max_cells).getvalue()
    )


def _range_bodies(query_distances, radius):
    """(method, body) of the four range RPCs over the same queries: the
    batch forms, and the single-query forms of the first two rows. The
    ``range_transformed`` intervals are the identity transform's."""
    lows = np.maximum(query_distances - radius, 0.0)
    highs = query_distances + radius
    bodies = [
        (
            "range_batch",
            Writer().f64_matrix(query_distances).f64(radius).getvalue(),
        ),
        (
            "range_transformed_batch",
            Writer().f64_matrix(lows).f64_matrix(highs).getvalue(),
        ),
    ]
    for row in range(min(2, len(query_distances))):
        bodies += [
            (
                "range",
                Writer().f64_array(query_distances[row]).f64(radius).getvalue(),
            ),
            (
                "range_transformed",
                Writer().f64_array(lows[row]).f64_array(highs[row]).getvalue(),
            ),
        ]
    return bodies


#: (cand_size, max_cells): the local stop rules fire on neither, one or
#: both conditions; (25, 2) and (10_000, 3) cut the merged stream inside
#: what every shard visited under its own ``max_cells``
KNN_LIMITS = [(40, 6), (40, 0), (25, 2), (1, 0), (10_000, 0), (10_000, 3)]


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_knn_batch_bit_identical_to_single_server(
    corpus, single_server, n_shards
):
    rng = np.random.default_rng(7)
    _oids, query_perms, _d, _p = _make_records(20, rng)
    cluster, router = _build_cluster(corpus, n_shards)
    try:
        for cand_size, max_cells in KNN_LIMITS:
            lists = candidate_lists(
                _same_bytes(
                    router,
                    single_server,
                    "knn_batch",
                    _knn_body(query_perms, cand_size, max_cells),
                )
            )
            assert all(0 < len(found) <= cand_size for found in lists)
            _same_bytes(
                router,
                single_server,
                "approx_knn",
                _knn_single_body(query_perms[0], cand_size, max_cells),
            )
        # a batch of no queries is still a well-formed, equal response
        _same_bytes(
            router, single_server, "knn_batch", _knn_body(query_perms[:0], 5)
        )
    finally:
        router.close()
        cluster.close()


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4])
def test_range_batch_bit_identical_to_single_server(
    corpus, single_server, n_shards
):
    rng = np.random.default_rng(11)
    query_distances = rng.uniform(0.0, 10.0, size=(10, N_PIVOTS))
    query_distances[3] = 1e6  # nowhere near anything: no candidates
    cluster, router = _build_cluster(corpus, n_shards)
    try:
        for method, body in _range_bodies(query_distances, 6.0):
            response = _same_bytes(router, single_server, method, body)
            if method == "range_batch":
                lists = candidate_lists(response)
                assert any(lists) and lists[3] == []
        # radius 0 around a stored record: that record alone, from the
        # one shard holding it; every other shard answers no group
        exact = corpus[2][:1]
        for method, body in _range_bodies(exact, 0.0):
            response = _same_bytes(router, single_server, method, body)
            if method == "range":
                assert [oid for oid, _p in _read_candidates(response)] == [0]
        groups = [
            int(
                read_range_scatter_response(
                    rpc.call("range_scatter", _range_bodies(exact, 0.0)[0][1])
                )[1][0].sum()
            )
            for rpc in router.shard_clients
        ]
        assert sorted(groups) == [0] * (n_shards - 1) + [1]
    finally:
        router.close()
        cluster.close()


def test_single_query_methods_route_through_scatter(corpus, single_server):
    rng = np.random.default_rng(13)
    _o, query_perms, _d, _p = _make_records(1, rng)
    knn_body = _knn_single_body(query_perms[0], 25)
    expected = _read_candidates(single_server.call("approx_knn", knn_body))
    cluster, router = _build_cluster(corpus, 3)
    try:
        reader = router.call("approx_knn", knn_body)
        got = _read_candidates(reader)
        reader.expect_end()
        assert got == expected
    finally:
        router.close()
        cluster.close()


def test_duplicate_oids_across_shards_are_suppressed(corpus, single_server):
    cluster, router = _build_cluster(corpus, 2)
    try:
        # plant the same record on BOTH shards directly (the transient
        # state a rebalance passes through between copy and delete)
        rng = np.random.default_rng(3)
        oids, perms, dists, payloads = _make_records(1, rng)
        oids = oids + 9999
        body = RecordBatch(oids, perms, dists, payloads).write_to(Writer())
        for rpc in router.shard_clients:
            rpc.call("insert_bulk", body.getvalue())
        query = _knn_body(perms, cand_size=600)
        lists = candidate_lists(router.call("knn_batch", query))
        hits = [oid for oid, _payload in lists[0] if oid == 9999]
        assert hits == [9999]  # seen once, not once per shard
        for rpc in router.shard_clients:
            rpc.call("delete", IndexedRecord(9999, perms[0], None, b"").to_bytes())

        # a rebalance stopped between copy and drop: shard 0's first
        # two pivot ranges now live on both shards. Every record of
        # them comes back twice, is kept on first appearance, and the
        # stop rule counts it once — so whatever ``cand_size`` cuts,
        # every search answers as the single server does
        donors = np.asarray(router.shard_map.pivots_of(0)[:2], dtype=np.int32)
        exported = router.shard_clients[0].call(
            "export_cells", Writer().i32_array(donors)
        )
        copied = exported.u32()
        router.shard_clients[1].call("insert_bulk", exported._data)
        assert copied > 0
        assert sum(len(s.index) for s in cluster.servers) == 500 + copied
        _o, query_perms, query_distances, _p = _make_records(12, rng)
        for cand_size in (1, 15, 40, 10_000):
            _same_bytes(
                router,
                single_server,
                "knn_batch",
                _knn_body(query_perms, cand_size),
            )
            _same_bytes(
                router,
                single_server,
                "approx_knn",
                _knn_single_body(query_perms[0], cand_size),
            )
        for method, body in _range_bodies(query_distances, 6.0):
            _same_bytes(router, single_server, method, body)
    finally:
        router.close()
        cluster.close()


def test_insert_and_delete_route_by_top_pivot(corpus):
    cluster, router = _build_cluster(corpus, 4)
    try:
        total = sum(len(server.index) for server in cluster.servers)
        assert total == 500
        # per-shard record counts match the shard map's pivot ownership
        for shard, server in enumerate(cluster.servers):
            owned = set(router.shard_map.pivots_of(shard))
            tops = {
                int(record.ensure_permutation()[0])
                for cell in server.storage.cells()
                for record in server.storage.load(cell)
            }
            assert tops <= owned
        # healthz aggregates the cluster-wide record count
        health = router.call("healthz")
        assert health.string() == "ok"
        assert health.u64() == 500
    finally:
        router.close()
        cluster.close()


def test_cluster_stats_reconcile(corpus):
    cluster, router = _build_cluster(corpus, 4)
    try:
        per_shard, merged = router.cluster_stats()
        assert merged["shards"] == 4.0
        assert merged["records"] == 500.0
        assert merged["records"] == sum(
            stats["records"] for stats in per_shard.values()
        )
        assert merged["leaf_cells"] == sum(
            stats["leaf_cells"] for stats in per_shard.values()
        )
        # the stats RPC itself returns the merged view
        reader = router.call("stats")
        count = reader.u32()
        flat = {reader.string(): reader.f64() for _ in range(count)}
        assert flat["records"] == 500.0
    finally:
        router.close()
        cluster.close()


def test_rebalance_moves_pivots_with_zero_loss(corpus):
    cluster, router = _build_cluster(corpus, 2)
    try:
        rng = np.random.default_rng(17)
        _o, query_perms, _d, _p = _make_records(8, rng)
        query = _knn_body(query_perms, cand_size=50, max_cells=5)
        before = candidate_lists(router.call("knn_batch", query))
        donor = router.shard_map.pivots_of(0)[0]
        source_size = len(cluster.servers[0].index)
        moved = router.rebalance([donor], target=1)
        assert moved > 0
        assert router.shard_map.shard_of(donor) == 1
        assert len(cluster.servers[0].index) == source_size - moved
        assert sum(len(server.index) for server in cluster.servers) == 500
        after = candidate_lists(router.call("knn_batch", query))
        assert after == before  # bit-identical across the move
        # and the range is really gone from the source
        for cell in cluster.servers[0].storage.cells():
            for record in cluster.servers[0].storage.load(cell):
                assert int(record.ensure_permutation()[0]) != donor
    finally:
        router.close()
        cluster.close()


def test_rebalance_lands_each_source_in_one_target_commit(corpus, tmp_path):
    """A rebalance forwards each source shard's export to the target as
    one ``insert_bulk``: the target's disk storage commits once per
    source shard, however many records move (a per-record replay
    committed once a record), and every answer stays the same."""
    cluster = LocalShardCluster(
        N_PIVOTS, BUCKET, n_shards=3, latency=0.0, bandwidth=None,
        storage_factory=lambda shard: DiskStorage(tmp_path / f"shard{shard}"),
    )
    router = cluster.router(resilient=False)
    try:
        router.call("insert_bulk", _insert_bulk_body(*corpus))
        rng = np.random.default_rng(17)
        _o, query_perms, _d, _p = _make_records(8, rng)
        query = _knn_body(query_perms, cand_size=50, max_cells=5)
        before = candidate_lists(router.call("knn_batch", query))
        target = cluster.servers[2].storage
        commits = target.manifest_writes
        donors = [
            *router.shard_map.pivots_of(0)[:2],
            router.shard_map.pivots_of(1)[0],
        ]
        moved = router.rebalance(donors, target=2)
        assert moved > 10
        assert target.manifest_writes == commits + 2  # two source shards
        assert [router.shard_map.shard_of(p) for p in donors] == [2, 2, 2]
        assert sum(len(server.index) for server in cluster.servers) == 500
        assert candidate_lists(router.call("knn_batch", query)) == before
    finally:
        router.close()
        cluster.close()


def test_rebalance_of_a_range_without_records_moves_only_the_map(corpus):
    """A pivot range that holds no record has nothing to copy — an
    empty batch is no ``insert_bulk`` body — so the target is not
    called, and the range still changes shards."""
    oids, permutations, distances, payloads = corpus
    empty_pivot = 0
    keep = np.flatnonzero(permutations[:, 0] != empty_pivot)
    cluster = LocalShardCluster(
        N_PIVOTS, BUCKET, n_shards=2, latency=0.0, bandwidth=None
    )
    router = cluster.router(resilient=False)
    try:
        router.call(
            "insert_bulk",
            _insert_bulk_body(
                oids[keep], permutations[keep], distances[keep],
                [payloads[row] for row in keep],
            ),
        )
        assert router.shard_map.shard_of(empty_pivot) == 0
        target = cluster.servers[1]
        calls = target.dispatcher.calls
        assert router.rebalance([empty_pivot], target=1) == 0
        assert router.shard_map.shard_of(empty_pivot) == 1
        assert target.dispatcher.calls == calls
        held = sum(len(server.index) for server in cluster.servers)
        assert held == len(keep)
    finally:
        router.close()
        cluster.close()


# ---------------------------------------------------------------------------
# shard loss


class _DeadChannel:
    """A channel whose peer is gone: every request fails."""

    bytes_sent = 0
    bytes_received = 0
    bytes_total = 0
    communication_time = 0.0
    requests = 0

    def request(self, payload, *, deadline=None):
        raise ChannelError("connection refused")

    def reset_accounting(self):
        pass

    def close(self):
        pass


def _router_with_dead_shard(cluster, *, allow_partial):
    factories = [cluster.channel_factory(0), _DeadChannel]
    return ShardRouter(
        cluster.shard_map,
        factories,
        resilient=True,
        policy=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
        allow_partial=allow_partial,
        sleep=lambda _s: None,
    )


def test_dead_shard_raises_typed_error_in_strict_mode(corpus):
    cluster = LocalShardCluster(
        N_PIVOTS, BUCKET, n_shards=2, latency=0.0, bandwidth=None
    )
    router = _router_with_dead_shard(cluster, allow_partial=False)
    try:
        rng = np.random.default_rng(5)
        _o, perms, _d, _p = _make_records(2, rng)
        with pytest.raises(ShardUnavailableError) as excinfo:
            router.call("knn_batch", _knn_body(perms, cand_size=10))
        assert excinfo.value.shard == 1
    finally:
        router.close()
        cluster.close()


def test_dead_shard_degrades_gracefully_when_partial_allowed(corpus):
    cluster = LocalShardCluster(
        N_PIVOTS, BUCKET, n_shards=2, latency=0.0, bandwidth=None
    )
    live_router = cluster.router(resilient=False)
    router = _router_with_dead_shard(cluster, allow_partial=True)
    try:
        # load only shard 0 (the live one) so degraded answers are
        # complete and comparable
        rng = np.random.default_rng(42)
        oids, perms, dists, payloads = _make_records(500, rng)
        keep = np.array(
            [
                cluster.shard_map.shard_of(int(p[0])) == 0
                for p in perms
            ]
        )
        idx = np.flatnonzero(keep)
        live_router.shard_clients[0].call(
            "insert_bulk",
            _insert_bulk_body(
                oids[idx],
                perms[idx],
                dists[idx],
                [payloads[i] for i in idx],
            ),
        )
        _o, query_perms, _d, _p = _make_records(4, rng)
        query = _knn_body(query_perms, cand_size=30)
        lists = candidate_lists(router.call("knn_batch", query))
        assert router.shards_skipped == 1
        expected = candidate_lists(
            live_router.call("knn_batch", query)
        )
        # shard 1 held nothing, so the degraded answer is the full one
        # — the very bytes of the two-shard answer in which shard 1
        # takes part but has no leaf to visit
        assert lists == expected
        _same_bytes(router, live_router, "knn_batch", query)
        _same_bytes(
            router,
            live_router,
            "approx_knn",
            _knn_single_body(query_perms[0], 30, max_cells=2),
        )
        for method, body in _range_bodies(dists[idx[:5]], 5.0):
            response = _same_bytes(router, live_router, method, body)
            if method == "range_batch":
                assert all(candidate_lists(response))
        # mutations never degrade
        with pytest.raises(ShardUnavailableError):
            router.call(
                "insert_bulk", _insert_bulk_body(*_make_records(10, rng))
            )
        # the skip count reaches the merged stats view
        _per, merged = router.cluster_stats()
        assert merged["shards_skipped"] >= 1.0
        assert merged["shards"] == 1.0
    finally:
        router.close()
        live_router.close()
        cluster.close()


def test_router_rejects_mismatched_factories():
    with pytest.raises(ProtocolError):
        ShardRouter(ShardMap.uniform(8, 2), [lambda: None])


def test_router_rejects_unroutable_method(corpus):
    cluster, router = _build_cluster(corpus, 2)
    try:
        with pytest.raises(ProtocolError):
            router.call("dump_cells_raw")
    finally:
        router.close()
        cluster.close()
