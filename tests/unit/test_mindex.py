"""Unit tests for repro.mindex.index (the M-Index itself).

Correctness is checked against brute force: the range-search candidate
set must be a superset of the true range answer (no false negatives
ever), and the pruning/filtering must discard only objects that cannot
qualify.
"""

import numpy as np
import pytest

from repro.core.records import IndexedRecord, vector_to_payload
from repro.exceptions import IndexError_, QueryError, StorageError
from repro.metric.distances import L1Distance
from repro.metric.permutations import (
    inverse_permutation,
    pivot_permutation,
    prefix_promise,
)
from repro.mindex.index import MIndex, RangeSearchStats
from repro.storage.memory import MemoryStorage

_DIM = 6
_N_PIVOTS = 7
#: leading permutation positions in the oracle's pre-ranking footrule
_RANK_PREFIX = 8


def _build_index(
    rng,
    n_records=300,
    bucket_capacity=20,
    with_distances=True,
    max_level=4,
):
    d = L1Distance()
    data = rng.normal(size=(n_records, _DIM)) * 3
    pivots = data[rng.choice(n_records, _N_PIVOTS, replace=False)]
    index = MIndex(
        _N_PIVOTS, bucket_capacity, MemoryStorage(), max_level=max_level
    )
    for oid, vector in enumerate(data):
        dists = d.batch(vector, pivots)
        record = IndexedRecord(
            oid,
            pivot_permutation(dists),
            dists if with_distances else None,
            vector_to_payload(vector),
        )
        index.insert(record)
    return index, data, pivots, d


def algorithm4_candidates(index, query_permutation, cand_size, max_cells=None):
    """Algorithm 4 one leaf and one record at a time: the oracle the
    index's one (batched, columnar) k-NN traversal is compared to.

    This is the loop ``MIndex.approx_knn_candidates`` ran before it
    became a view of the batch path, kept verbatim — per-leaf
    ``prefix_promise``, per-record truncated footrule, a Python sort on
    ``(promise, score, oid)`` — so it shares no code with what it
    checks."""
    perm = np.asarray(query_permutation, dtype=np.int64)
    query_ranks = inverse_permutation(perm)
    ranked = sorted(
        (
            (_promise(query_ranks, leaf.prefix), leaf.prefix, leaf)
            for leaf in index.tree.leaves()
            if leaf.count > 0
        ),
        key=lambda item: (item[0], item[1]),
    )
    collected = []
    cells_accessed = 0
    for promise, _prefix, leaf in ranked:
        if len(collected) >= cand_size:
            break
        if max_cells is not None and cells_accessed >= max_cells:
            break
        records = index.storage.load(leaf.prefix)
        cells_accessed += 1
        scores = _record_scores(query_ranks, records)
        collected.extend(
            (promise, score, record)
            for score, record in zip(scores, records)
        )
    collected.sort(key=lambda item: (item[0], item[1], item[2].oid))
    return [record for _p, _s, record in collected[:cand_size]]


def _promise(query_ranks, prefix):
    if not prefix:
        return 0.0
    return prefix_promise(query_ranks, prefix)


def _record_scores(query_ranks, records):
    """Truncated-footrule pre-ranking scores, vectorized per bucket."""
    if not records:
        return np.empty(0, dtype=np.float64)
    depth = min(_RANK_PREFIX, query_ranks.shape[0])
    prefixes = np.stack([r.permutation[:depth] for r in records])
    positions = np.arange(depth, dtype=np.int64)
    displacement = np.abs(
        query_ranks[prefixes].astype(np.int64) - positions
    )
    return displacement.sum(axis=1).astype(np.float64)


class TestInsertion:
    def test_all_records_stored(self, rng):
        index, data, _pivots, _d = _build_index(rng)
        assert len(index) == len(data)
        assert len(index.storage) == len(data)

    def test_splitting_keeps_buckets_bounded(self, rng):
        index, _data, _pivots, _d = _build_index(rng, bucket_capacity=10)
        for leaf in index.tree.leaves():
            if index.tree.can_split(leaf):
                assert leaf.count <= 10

    def test_tree_grows_beyond_first_level(self, rng):
        index, _data, _pivots, _d = _build_index(rng, bucket_capacity=10)
        assert index.depth >= 1
        assert index.n_cells > 1

    def test_wrong_permutation_size_rejected(self, rng):
        index = MIndex(5, 10, MemoryStorage())
        record = IndexedRecord(
            1, np.array([0, 1, 2], dtype=np.int32), None, b"x"
        )
        with pytest.raises(IndexError_):
            index.insert(record)

    def test_statistics(self, rng):
        index, data, _pivots, _d = _build_index(rng)
        stats = index.statistics()
        assert stats["records"] == len(data)
        assert stats["occupied_cells"] >= 1
        assert stats["avg_occupied_bucket"] > 0

    def test_invalid_bucket_capacity(self):
        with pytest.raises(IndexError_):
            MIndex(5, 0, MemoryStorage())

    def test_bulk_insert_count(self, rng):
        d = L1Distance()
        data = rng.normal(size=(20, _DIM))
        pivots = data[:_N_PIVOTS]
        index = MIndex(_N_PIVOTS, 10, MemoryStorage())
        records = []
        for oid, vector in enumerate(data):
            dists = d.batch(vector, pivots)
            records.append(
                IndexedRecord(oid, pivot_permutation(dists), dists, b"x")
            )
        assert index.bulk_insert(records) == 20


class TestRangeSearch:
    def test_no_false_negatives(self, rng):
        index, data, pivots, d = _build_index(rng)
        for _ in range(15):
            q = rng.normal(size=_DIM) * 3
            q_dists = d.batch(q, pivots)
            true_dists = d.batch(q, data)
            radius = float(np.percentile(true_dists, 5))
            candidate_ids = {
                r.oid for r in index.range_search(q_dists, radius)
            }
            expected = set(np.nonzero(true_dists <= radius)[0])
            assert expected <= candidate_ids

    def test_pruning_discards_something(self, rng):
        index, data, pivots, d = _build_index(rng, bucket_capacity=10)
        q = rng.normal(size=_DIM) * 3
        q_dists = d.batch(q, pivots)
        true_dists = d.batch(q, data)
        radius = float(np.percentile(true_dists, 2))
        stats = RangeSearchStats()
        candidates = index.range_search(q_dists, radius, stats=stats)
        assert len(candidates) < len(data)
        assert (
            stats.cells_pruned_double_pivot
            + stats.cells_pruned_range_pivot
            + stats.records_filtered
        ) > 0

    def test_zero_radius(self, rng):
        index, data, pivots, d = _build_index(rng)
        target = data[17]
        q_dists = d.batch(target, pivots)
        candidates = index.range_search(q_dists, 0.0)
        assert 17 in {r.oid for r in candidates}

    def test_infinite_radius_returns_everything(self, rng):
        index, data, pivots, d = _build_index(rng)
        q = rng.normal(size=_DIM)
        q_dists = d.batch(q, pivots)
        candidates = index.range_search(q_dists, float("inf"))
        assert len(candidates) == len(data)

    def test_requires_distances(self, rng):
        index, data, pivots, d = _build_index(rng, with_distances=False)
        q_dists = d.batch(rng.normal(size=_DIM), pivots)
        with pytest.raises(QueryError):
            index.range_search(q_dists, 1.0)

    def test_invalid_queries_rejected(self, rng):
        index, _data, _pivots, _d = _build_index(rng, n_records=30)
        with pytest.raises(QueryError):
            index.range_search(np.zeros(_N_PIVOTS), -1.0)
        with pytest.raises(QueryError):
            index.range_search(np.zeros(_N_PIVOTS), float("nan"))
        with pytest.raises(QueryError):
            index.range_scatter_batch(
                np.zeros((2, _N_PIVOTS)), float("nan")
            )
        with pytest.raises(QueryError):
            index.range_search(np.zeros(3), 1.0)


class TestApproxKnn:
    def test_candidate_count_respected(self, rng):
        index, data, pivots, d = _build_index(rng)
        q = rng.normal(size=_DIM) * 3
        perm = pivot_permutation(d.batch(q, pivots))
        candidates = index.approx_knn_candidates(perm, 50)
        assert len(candidates) == 50

    def test_cand_size_larger_than_collection(self, rng):
        index, data, pivots, d = _build_index(rng, n_records=40)
        perm = pivot_permutation(d.batch(rng.normal(size=_DIM), pivots))
        candidates = index.approx_knn_candidates(perm, 1000)
        assert len(candidates) == 40

    def test_candidates_are_preranked(self, rng):
        """Recall of the head must beat recall of the tail on average."""
        index, data, pivots, d = _build_index(rng, bucket_capacity=10)
        head_hits = 0
        tail_hits = 0
        for _ in range(20):
            q = rng.normal(size=_DIM) * 3
            true_top = set(np.argsort(d.batch(q, data))[:10])
            perm = pivot_permutation(d.batch(q, pivots))
            candidates = index.approx_knn_candidates(perm, 100)
            head = {r.oid for r in candidates[:50]}
            tail = {r.oid for r in candidates[50:]}
            head_hits += len(true_top & head)
            tail_hits += len(true_top & tail)
        assert head_hits > tail_hits

    def test_recall_improves_with_cand_size(self, rng):
        index, data, pivots, d = _build_index(rng, bucket_capacity=10)
        recalls = []
        for cand_size in (20, 100, 300):
            hits = 0
            for qi in range(10):
                q = rng.normal(size=_DIM) * 3
                true_top = set(np.argsort(d.batch(q, data))[:5])
                perm = pivot_permutation(d.batch(q, pivots))
                got = {
                    r.oid
                    for r in index.approx_knn_candidates(perm, cand_size)
                }
                hits += len(true_top & got)
            recalls.append(hits)
        assert recalls[0] <= recalls[1] <= recalls[2]
        assert recalls[2] == 50  # cand 300/300 = full scan -> perfect

    def test_max_cells_limits_access(self, rng):
        index, data, pivots, d = _build_index(rng, bucket_capacity=10)
        perm = pivot_permutation(d.batch(rng.normal(size=_DIM), pivots))
        limited = index.approx_knn_candidates(perm, 10_000, max_cells=1)
        # one cell only: at most one bucket's worth of records
        biggest = max(leaf.count for leaf in index.tree.leaves())
        assert 0 < len(limited) <= biggest

    def test_works_without_distances(self, rng):
        index, data, pivots, d = _build_index(rng, with_distances=False)
        perm = pivot_permutation(d.batch(rng.normal(size=_DIM), pivots))
        assert len(index.approx_knn_candidates(perm, 30)) == 30

    def test_invalid_parameters_rejected(self, rng):
        index, _data, pivots, d = _build_index(rng, n_records=30)
        perm = pivot_permutation(d.batch(rng.normal(size=_DIM), pivots))
        with pytest.raises(QueryError):
            index.approx_knn_candidates(perm, 0)
        with pytest.raises(QueryError):
            index.approx_knn_candidates(perm, 10, max_cells=0)
        with pytest.raises(QueryError):
            index.approx_knn_candidates(np.array([0, 1]), 10)

    def test_deterministic_ordering(self, rng):
        index, data, pivots, d = _build_index(rng)
        perm = pivot_permutation(d.batch(rng.normal(size=_DIM), pivots))
        a = [r.oid for r in index.approx_knn_candidates(perm, 40)]
        b = [r.oid for r in index.approx_knn_candidates(perm, 40)]
        assert a == b


class TestBatchedIndexSearches:
    """MIndex batch variants must equal looped single-query calls —
    for k-NN, where the single call is the batch code over one row,
    the per-record Algorithm 4 oracle."""

    def test_approx_knn_batch_matches_loop(self, rng):
        index, _data, pivots, d = _build_index(rng, bucket_capacity=10)
        perms = np.stack(
            [
                pivot_permutation(d.batch(rng.normal(size=_DIM) * 3, pivots))
                for _ in range(12)
            ]
        )
        records, batched = index.approx_knn_candidates_batch(perms, 60)
        for perm, rows in zip(perms, batched):
            single = algorithm4_candidates(index, perm, 60)
            assert [r.oid for r in single] == [records[i].oid for i in rows]

    def test_approx_knn_batch_with_max_cells(self, rng):
        index, _data, pivots, d = _build_index(rng, bucket_capacity=10)
        perms = np.stack(
            [
                pivot_permutation(d.batch(rng.normal(size=_DIM) * 3, pivots))
                for _ in range(6)
            ]
        )
        records, batched = index.approx_knn_candidates_batch(
            perms, 10_000, max_cells=2
        )
        for perm, rows in zip(perms, batched):
            single = algorithm4_candidates(index, perm, 10_000, max_cells=2)
            assert [r.oid for r in single] == [records[i].oid for i in rows]

    def test_range_batch_matches_loop_with_identical_stats(self, rng):
        index, data, pivots, d = _build_index(rng, bucket_capacity=10)
        queries = rng.normal(size=(10, _DIM)) * 3
        q_matrix = np.stack([d.batch(q, pivots) for q in queries])
        radius = float(np.percentile(d.batch(queries[0], data), 10))
        batch_stats = [RangeSearchStats() for _ in range(len(queries))]
        records, batched = index.range_search_batch(
            q_matrix, radius, stats=batch_stats
        )
        for q_dists, rows, got_stats in zip(q_matrix, batched, batch_stats):
            single_stats = RangeSearchStats()
            single = index.range_search(q_dists, radius, stats=single_stats)
            assert [r.oid for r in single] == [records[i].oid for i in rows]
            assert single_stats == got_stats

    def test_empty_batches(self, rng):
        index, _data, _pivots, _d = _build_index(rng, n_records=30)
        assert index.approx_knn_candidates_batch(
            np.empty((0, _N_PIVOTS), dtype=np.int64), 10
        ) == ([], [])
        assert index.range_search_batch(
            np.empty((0, _N_PIVOTS)), 1.0
        ) == ([], [])

    def test_batch_shape_validation(self, rng):
        index, _data, _pivots, _d = _build_index(rng, n_records=30)
        with pytest.raises(QueryError):
            index.approx_knn_candidates_batch(np.zeros((2, 3), np.int64), 10)
        with pytest.raises(QueryError):
            index.range_search_batch(np.zeros((2, 3)), 1.0)
        with pytest.raises(QueryError):
            index.range_search_batch(np.zeros((2, _N_PIVOTS)), -1.0)

    def test_batch_rejects_invalid_permutations(self, rng):
        """Rows that are not permutations (duplicates, out-of-range)
        get a clean error, like the single-query path — never garbage
        ranks or a raw numpy IndexError."""
        index, _data, _pivots, _d = _build_index(rng, n_records=30)
        duplicate = np.arange(_N_PIVOTS, dtype=np.int64)[None, :].copy()
        duplicate[0, 1] = duplicate[0, 0]
        with pytest.raises(QueryError, match="permutation"):
            index.approx_knn_candidates_batch(duplicate, 10)
        out_of_range = np.arange(_N_PIVOTS, dtype=np.int64)[None, :].copy()
        out_of_range[0, 0] = 99
        with pytest.raises(QueryError, match="permutation"):
            index.approx_knn_candidates_batch(out_of_range, 10)


class TestNoMetricInsideModule:
    """The module docstring's core claim — "No metric distance is ever
    evaluated inside this module" — enforced, not just stated."""

    def test_searches_never_evaluate_a_distance(self, rng, monkeypatch):
        index, _data, pivots, d = _build_index(rng, bucket_capacity=10)

        def forbidden(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError(
                "a metric distance was evaluated inside repro.mindex"
            )

        from repro.metric.distances import Distance

        q = rng.normal(size=_DIM) * 3
        q_dists = d.batch(q, pivots)
        perm = pivot_permutation(q_dists)
        monkeypatch.setattr(Distance, "__call__", forbidden)
        monkeypatch.setattr(Distance, "batch", forbidden)
        monkeypatch.setattr(Distance, "pairwise", forbidden)
        index.range_search(q_dists, 5.0)
        index.approx_knn_candidates(perm, 40)
        index.approx_knn_candidates_batch(perm[None, :], 40)
        index.range_search_batch(q_dists[None, :], 5.0)

    def test_module_imports_no_metric_machinery(self):
        import inspect

        import repro.mindex.index as module

        source = inspect.getsource(module)
        assert "No metric distance is ever evaluated" in module.__doc__
        for name in (
            "MetricSpace",
            "metric.distances",
            "metric.space",
            ".d_batch(",
            ".d_pairwise(",
            ".pairwise(",
        ):
            assert name not in source, name


class TestRebuildFromStorage:
    """Server-restart recovery, including bulk-loaded indexes and the
    vectorized per-cell permutation derivation."""

    def _snapshot(self, index):
        return {
            leaf.prefix: (
                leaf.count,
                None
                if leaf.intervals is None
                else [tuple(iv) for iv in leaf.intervals],
            )
            for leaf in index.tree.leaves()
        }

    def test_restart_recovers_incremental_index(self, rng):
        index, data, pivots, d = _build_index(rng, bucket_capacity=15)
        before = self._snapshot(index)
        restarted = MIndex(
            _N_PIVOTS, 15, index.storage, max_level=index.tree.max_level
        )
        assert restarted.rebuild_from_storage() == len(data)
        assert self._snapshot(restarted) == before
        q = rng.normal(size=_DIM) * 3
        q_dists = d.batch(q, pivots)
        a = sorted(r.oid for r in index.range_search(q_dists, 4.0))
        b = sorted(r.oid for r in restarted.range_search(q_dists, 4.0))
        assert a == b

    def test_restart_recovers_bulk_loaded_index(self, rng):
        d = L1Distance()
        data = rng.normal(size=(250, _DIM)) * 3
        pivots = data[rng.choice(250, _N_PIVOTS, replace=False)]
        records = []
        for oid, vector in enumerate(data):
            dists = d.batch(vector, pivots)
            records.append(
                IndexedRecord(
                    oid, pivot_permutation(dists), dists,
                    vector_to_payload(vector),
                )
            )
        index = MIndex(_N_PIVOTS, 20, MemoryStorage(), max_level=4)
        index.bulk_load(records)
        restarted = MIndex(_N_PIVOTS, 20, index.storage, max_level=4)
        assert restarted.rebuild_from_storage() == len(records)
        assert self._snapshot(restarted) == self._snapshot(index)

    def test_distance_only_records_get_permutations_per_cell(self, rng):
        """A record stored without its permutation row is refused by the
        storage, and the cell keeps what it held; distance-only records
        get their permutations where they enter an index — once per
        bulk, vectorized — and are stored with them."""
        index, _data, _pivots, _d = _build_index(rng, bucket_capacity=15)
        storage = index.storage
        stripped_index = MIndex(
            _N_PIVOTS, 15, MemoryStorage(), max_level=index.tree.max_level
        )
        for cell in list(storage.cells()):
            held = [record.to_bytes() for record in storage.load(cell)]
            stripped = [
                IndexedRecord(r.oid, None, r.distances, r.payload)
                for r in storage.load(cell)
            ]
            with pytest.raises(StorageError, match="permutation row"):
                storage.save(cell, stripped)
            assert [r.to_bytes() for r in storage.load(cell)] == held
            stripped_index.bulk_insert(stripped)
        assert self._snapshot(stripped_index) == self._snapshot(index)
        for cell in stripped_index.storage.cells():
            loaded = stripped_index.storage.load(cell)
            np.testing.assert_array_equal(
                loaded.permutations,
                [pivot_permutation(record.distances) for record in loaded],
            )
        restarted = MIndex(
            _N_PIVOTS, 15, storage, max_level=index.tree.max_level
        )
        assert restarted.rebuild_from_storage() == len(index)
        assert self._snapshot(restarted) == self._snapshot(index)