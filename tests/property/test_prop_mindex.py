"""Property-based tests for the M-Index core invariants.

The load-bearing invariant of the whole system: for any data, any
query and any radius, the server-side candidate set of a range query
contains every true answer (pruning may only discard objects proven
too far by the triangle inequality).
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster.deploy import LocalShardCluster
from repro.core.records import IndexedRecord, RecordBatch
from repro.metric.distances import L1Distance
from repro.metric.permutations import pivot_permutation
from repro.mindex.index import MIndex
from repro.storage.memory import MemoryStorage
from repro.wire.encoding import Writer
from repro.wire.scatter import read_candidate_lists
from repro.wire.search import KNN
from tests.unit.test_mindex import algorithm4_candidates


def _build(seed, n_records, n_pivots, bucket_capacity):
    rng = np.random.default_rng(seed)
    d = L1Distance()
    data = rng.normal(scale=3.0, size=(n_records, 4))
    pivots = data[rng.choice(n_records, n_pivots, replace=False)]
    index = MIndex(n_pivots, bucket_capacity, MemoryStorage(), max_level=3)
    for oid, vector in enumerate(data):
        dists = d.batch(vector, pivots)
        index.insert(
            IndexedRecord(oid, pivot_permutation(dists), dists, b"x")
        )
    return index, data, pivots, d, rng


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_records=st.integers(min_value=10, max_value=150),
    n_pivots=st.integers(min_value=2, max_value=8),
    bucket_capacity=st.integers(min_value=2, max_value=40),
    radius_percentile=st.floats(min_value=1.0, max_value=60.0),
)
def test_range_candidates_are_superset_of_answers(
    seed, n_records, n_pivots, bucket_capacity, radius_percentile
):
    index, data, pivots, d, rng = _build(
        seed, n_records, n_pivots, bucket_capacity
    )
    q = rng.normal(scale=3.0, size=4)
    q_dists = d.batch(q, pivots)
    true_dists = d.batch(q, data)
    radius = float(np.percentile(true_dists, radius_percentile))
    candidates = {r.oid for r in index.range_search(q_dists, radius)}
    answers = set(np.nonzero(true_dists <= radius)[0])
    assert answers <= candidates


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_records=st.integers(min_value=10, max_value=120),
    bucket_capacity=st.integers(min_value=2, max_value=30),
    cand_size=st.integers(min_value=1, max_value=200),
)
def test_approx_candidate_count_is_min_of_request_and_collection(
    seed, n_records, bucket_capacity, cand_size
):
    index, data, pivots, d, rng = _build(seed, n_records, 5, bucket_capacity)
    q = rng.normal(scale=3.0, size=4)
    perm = pivot_permutation(d.batch(q, pivots))
    candidates = index.approx_knn_candidates(perm, cand_size)
    assert len(candidates) == min(cand_size, n_records)
    # no duplicates
    oids = [r.oid for r in candidates]
    assert len(set(oids)) == len(oids)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bucket_capacity=st.integers(min_value=2, max_value=25),
)
def test_every_record_remains_reachable_after_splits(seed, bucket_capacity):
    """Insertion with arbitrary split cascades must never lose records:
    an infinite-radius range query returns the whole collection."""
    index, data, pivots, d, rng = _build(seed, 100, 6, bucket_capacity)
    q = rng.normal(scale=3.0, size=4)
    q_dists = d.batch(q, pivots)
    everything = index.range_search(q_dists, float("inf"))
    assert sorted(r.oid for r in everything) == list(range(100))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_records=st.integers(min_value=40, max_value=150),
    bucket_capacity=st.integers(min_value=2, max_value=12),
    n_shards=st.integers(min_value=1, max_value=3),
    cand_size=st.integers(min_value=1, max_value=200),
    max_cells=st.none() | st.integers(min_value=1, max_value=8),
)
def test_every_knn_form_returns_the_per_record_oracle_candidates(
    seed, n_records, bucket_capacity, n_shards, cand_size, max_cells
):
    """One k-NN traversal serves every form, so every form is checked
    against code it does not share: the single query, the batch, and
    both routed over 1-3 shards return, oid for oid and in rank order,
    what the per-record Algorithm 4 loop returns."""
    index, _data, pivots, d, rng = _build(seed, n_records, 6, bucket_capacity)
    perms = np.stack(
        [
            pivot_permutation(d.batch(q, pivots))
            for q in rng.normal(scale=3.0, size=(3, 4))
        ]
    )
    expected = [
        [r.oid for r in algorithm4_candidates(index, perm, cand_size, max_cells)]
        for perm in perms
    ]
    assert expected == [
        [
            r.oid
            for r in index.approx_knn_candidates(
                perm, cand_size, max_cells=max_cells
            )
        ]
        for perm in perms
    ]
    records, batched = index.approx_knn_candidates_batch(
        perms, cand_size, max_cells=max_cells
    )
    assert expected == [[records[i].oid for i in rows] for rows in batched]

    stored = [
        record
        for leaf in index.tree.leaves()
        for record in index.storage.load(leaf.prefix)
    ]
    cluster = LocalShardCluster(
        6, bucket_capacity, n_shards=n_shards, max_level=3,
        latency=0.0, bandwidth=None,
    )
    router = cluster.router(resilient=False)
    try:
        router.call(
            "insert_bulk", RecordBatch.of_cell(stored).write_to(Writer())
        )
        # a shard whose root never split visits its records in another
        # order than the cells they would sit in on one server
        assume(all(server.index.depth for server in cluster.servers))
        table, rows_per_query = read_candidate_lists(
            router.call(
                KNN.batch, KNN.write_request(perms, cand_size, max_cells)
            )
        )
        assert expected == [table[0][rows].tolist() for rows in rows_per_query]
        for perm, want in zip(perms, expected):
            table, (rows,) = read_candidate_lists(
                router.call(
                    KNN.single,
                    KNN.write_request(
                        perm[np.newaxis], cand_size, max_cells, single=True
                    ),
                ),
                single=True,
            )
            assert want == table[0][rows].tolist()
    finally:
        router.close()
        cluster.close()
