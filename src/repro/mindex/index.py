"""The M-Index: insertion, precise range search, approximate k-NN.

The index operates purely on :class:`~repro.core.records.IndexedRecord`
objects whose pivot permutations (and optionally pivot distances) were
computed by whoever holds the pivots — the data owner / authorized
client in the encrypted system, or the server itself in the plain
baseline. **No metric distance is ever evaluated inside this module.**

Search algorithms implemented (paper §4.1 / §4.2):

* :meth:`MIndex.range_search` — Algorithm 3. Traverses the cell tree,
  pruning with the *double-pivot* constraint (from prefixes alone) and
  the *range-pivot* constraint (from per-leaf distance intervals), then
  applies per-object *pivot filtering*
  ``max_i |d(q,p_i) - d(o,p_i)| > r`` to the surviving buckets. Requires
  records with stored distances (the precise strategy).
* :meth:`MIndex.approx_knn` — Algorithm 4. Visits leaf cells in order of
  a permutation-based *promise* value and accumulates records until the
  requested candidate-set size is reached; the result is pre-ranked so a
  client may refine only its head.

Each search is implemented once, for a batch of queries
(:meth:`MIndex.range_search_batch`,
:meth:`MIndex.approx_knn_candidates_batch`, ...); the single-query
methods above are that code over a one-row matrix, with the answer
handed back as that query's selection. A batch is answered as columns,
from the storage read to the response: every visited cell as the
:class:`~repro.core.records.RecordBatch` the backend read it as, each
cell once and never concatenated
(:class:`~repro.core.records.CellRecords`), plus per query the *rows*
of those cells, end to end, that are its candidates. The traversals
take a cell's permutation and distance matrices straight from its
columns and no object is built per stored record or per candidate,
which is what lets the server encode a response (and a shard its
scatter groups, the ``*_scatter_batch`` forms) with array operations. Work is amortized across the batch — cell promises for all
queries are computed in one vectorized kernel, and bucket loads and
per-bucket matrices are shared — which is what makes the server's
``*_batch`` RPC methods faster than fanning out single-query calls.

Searches are read-only with respect to the cell tree and storage, so
any number may run concurrently; only :meth:`MIndex.insert`,
:meth:`MIndex.delete`, the bulk loaders and
:meth:`MIndex.drop_top_pivots` mutate (the server serializes those
behind a write lock), each as one ``storage.batch()`` — one storage
commit per index operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np

from repro.core.records import CellRecords, IndexedRecord, RecordBatch
from repro.exceptions import IndexError_, QueryError
from repro.mindex.cell_tree import CellTree, LeafCell

__all__ = ["MIndex", "RangeSearchStats"]

#: how many leading permutation positions participate in candidate
#: pre-ranking (a full footrule would add cost without better ordering).
_RANK_PREFIX = 8


def _one_batch(method):
    """Run a mutating :class:`MIndex` method as one storage batch.

    Every data file the operation touches is written (and, on disk,
    fsynced) as it goes, but the storage commit point — the manifest —
    is reached once, when the outermost decorated call returns and
    before the operation is acknowledged. Nested calls (``_split``
    under ``bulk_insert``) join the open batch.
    """

    @wraps(method)
    def batched(self, *args, **kwargs):
        with self.storage.batch():
            return method(self, *args, **kwargs)

    return batched


@dataclass
class RangeSearchStats:
    """Diagnostics of one range query (for tests and ablations)."""

    cells_examined: int = 0
    cells_accessed: int = 0
    cells_pruned_double_pivot: int = 0
    cells_pruned_range_pivot: int = 0
    records_scanned: int = 0
    records_filtered: int = 0
    candidates: int = 0


class MIndex:
    """Dynamic pivot-permutation metric index over a storage backend.

    Parameters
    ----------
    n_pivots:
        Number of pivots the permutations are over.
    bucket_capacity:
        Leaf capacity before a split (Table 2's "bucket capacity").
    storage:
        A :class:`~repro.storage.memory.MemoryStorage`-compatible backend.
    max_level:
        Maximum partitioning depth of the dynamic cell tree.
    """

    def __init__(
        self,
        n_pivots: int,
        bucket_capacity: int,
        storage,
        *,
        max_level: int = 8,
    ) -> None:
        if bucket_capacity <= 0:
            raise IndexError_(
                f"bucket capacity must be positive, got {bucket_capacity}"
            )
        self.n_pivots = int(n_pivots)
        self.bucket_capacity = int(bucket_capacity)
        self.storage = storage
        self.tree = CellTree(self.n_pivots, min(max_level, self.n_pivots))
        self._n_records = 0

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, record: IndexedRecord) -> None:
        """Insert one record, splitting its leaf cell on overflow — a
        bulk of one."""
        self.bulk_insert([record])

    @_one_batch
    def bulk_insert(self, records: "RecordBatch | list[IndexedRecord]") -> int:
        """Insert many records group-wise; returns the number inserted.

        Produces exactly the cell tree and record placement of a
        per-record :meth:`insert` loop (splitting is order-independent:
        a cell ends up partitioned iff its final record count exceeds
        the bucket capacity), but routes the whole bulk at once, as
        columns: the permutation-prefix columns are lexsorted so every
        record bound for the same leaf is contiguous, each touched cell
        receives its group — a row selection of the batch — in one
        ``append_many`` storage write, and overflow splits are resolved
        once per cell after its group lands. The whole bulk, splits
        included, is one storage commit. Works on empty and
        already-populated indexes alike; a bulk that is refused has
        changed nothing.
        """
        batch = self._checked(records)
        total = len(batch)
        if not total:
            return 0
        permutations = batch.permutations
        depth = self.tree.max_level
        keys = permutations[:, :depth]
        # lexsort's last key is the primary one: sort by prefix column
        # 0 first, then 1, ... — lexicographic permutation-prefix order
        order = np.lexsort(tuple(keys[:, c] for c in range(depth - 1, -1, -1)))
        sorted_keys = keys[order]
        # bounds[level - 1] holds every sorted position where the first
        # ``level`` prefix columns change between adjacent rows, so each
        # group end is one searchsorted lookup instead of a rescan of
        # the remaining rows (keeps routing O(n·depth) overall)
        changed = np.logical_or.accumulate(
            sorted_keys[1:] != sorted_keys[:-1], axis=1
        )
        bounds = [
            np.flatnonzero(changed[:, level]) + 1 for level in range(depth)
        ]
        position = 0
        while position < total:
            leaf = self.tree.locate_leaf(permutations[order[position]])
            level = len(leaf.prefix)
            if level == 0:
                end = total
            else:
                level_bounds = bounds[level - 1]
                cut = np.searchsorted(level_bounds, position, side="right")
                end = (
                    int(level_bounds[cut])
                    if cut < level_bounds.size
                    else total
                )
            # restore input order inside the group, so cell contents are
            # byte-identical to the per-record insertion path
            group = batch.select(np.sort(order[position:end]))
            self.storage.append_many(leaf.prefix, group)
            leaf.note_records(len(group), group.distances)
            self._n_records += len(group)
            if leaf.count > self.bucket_capacity and self.tree.can_split(leaf):
                self._split(leaf)
            position = end
        return total

    @_one_batch
    def bulk_load(self, records: "RecordBatch | list[IndexedRecord]") -> int:
        """Build the index from scratch in one top-down partitioning.

        Equivalent to inserting every record into an empty index, but
        partitions iteratively on index arrays (no per-record routing,
        no intermediate splits) with vectorized leaf interval
        reductions, and persists every final cell — a row selection of
        the batch — exactly once through one ``save_many`` call; the
        difference matters on disk backends (see the bulk-load ablation
        bench). The index must be empty.
        """
        if self._n_records:
            raise IndexError_(
                "bulk_load requires an empty index; use bulk_insert to "
                "extend an existing one"
            )
        batch = self._checked(records)
        if not len(batch):
            return 0
        root = self.tree.root
        if not isinstance(root, LeafCell):
            # zero records but a split tree: the index was emptied via
            # delete() after splits, which never collapse
            raise IndexError_(
                "bulk_load requires a pristine cell tree; rebuild a "
                "fresh MIndex instead of loading into an emptied one"
            )
        pending: list[tuple[LeafCell, np.ndarray]] = [
            (root, np.arange(len(batch), dtype=np.int64))
        ]
        cells: dict[tuple[int, ...], RecordBatch] = {}
        while pending:
            leaf, indices = pending.pop()
            if indices.size <= self.bucket_capacity or not self.tree.can_split(
                leaf
            ):
                group = batch.select(indices)
                leaf.rebuild_from(group)
                if indices.size:
                    cells[leaf.prefix] = group
                continue
            column = batch.permutations[indices, leaf.level]
            children = self.tree.split_into(leaf, np.unique(column))
            for pivot, child in children.items():
                pending.append((child, indices[column == pivot]))
        self.storage.save_many(cells)
        self._n_records = len(batch)
        return len(batch)

    def _checked(self, records: "RecordBatch | list[IndexedRecord]") -> RecordBatch:
        """``records`` as a batch this index can take, before anything
        is changed for it: a permutation column (derived once from the
        distances where only those travelled) over this index's pivots,
        every row of it a permutation."""
        if not len(records):
            return RecordBatch.of_cell([])
        batch = RecordBatch.from_records(records)
        permutations = batch.ensure_permutations()
        self._check_permutations(permutations, IndexError_)
        return RecordBatch.from_columns(
            batch.oids, permutations, batch.distances, batch.payloads
        )

    def _check_permutations(self, matrix: np.ndarray, error) -> None:
        """Every row of ``matrix`` — of a bulk, a delete or a query
        batch — must be a permutation of this index's pivots: a stray
        element in a bulk would grow the tree a cell no search can rank
        and break every later traversal."""
        if matrix.ndim != 2 or matrix.shape[1] != self.n_pivots:
            raise error(
                f"permutations of shape {matrix.shape} do not match an "
                f"index over {self.n_pivots} pivots"
            )
        if not (np.sort(matrix, axis=1) == np.arange(self.n_pivots)).all():
            raise error(
                f"every row must be a permutation of 0..{self.n_pivots - 1}"
            )

    def rebuild_from_storage(self) -> int:
        """Reconstruct the cell tree from the storage backend's cells.

        Cell identifiers *are* permutation prefixes, so a restarted
        server can recover the full tree — counts and range-pivot
        intervals included — by walking the (disk) cells and reading
        each one's count and distance columns, without any client
        involvement or write amplification. Returns the number of
        recovered records. Any in-memory state is discarded.

        Works identically on a storage object that lived through the
        inserts and on a freshly reopened :class:`DiskStorage`
        directory (whose persisted manifest restores the cell catalog
        across process restarts). Cell ids that are not permutation
        prefixes — e.g. a directory from some other application — are
        rejected with a clear error instead of corrupting the tree,
        and empty cells are skipped from the catalog without charging
        a storage read.
        """
        self.tree = CellTree(self.n_pivots, self.tree.max_level)
        self._n_records = 0
        cell_ids = list(self.storage.cells())
        for cell_id in cell_ids:
            if not isinstance(cell_id, tuple) or not all(
                isinstance(pivot, int) for pivot in cell_id
            ):
                raise IndexError_(
                    f"storage cell id {cell_id!r} is not a permutation "
                    "prefix; the backing store does not hold an M-Index"
                )
        prefixes = sorted(cell_ids, key=lambda p: (len(p), p))
        for prefix in prefixes:
            if self.storage.cell_size(prefix) == 0:
                continue
            leaf = self.tree.ensure_leaf(tuple(prefix))
            leaf.rebuild_from(self.storage.load(prefix))
            self._n_records += leaf.count
        return self._n_records

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    @_one_batch
    def delete(self, oid: int, permutation: np.ndarray) -> bool:
        """Remove the record with ``oid`` from its Voronoi cell.

        The caller supplies the object's pivot permutation (the client
        recomputes it from the plaintext object, exactly as on insert —
        the server cannot derive it from the oid alone). Returns True
        when a record was removed, False when no such oid lives in the
        addressed cell.
        """
        perm = np.asarray(permutation)
        self._check_permutations(perm[np.newaxis], QueryError)
        leaf = self.tree.locate_leaf(perm)
        cell = self.storage.load(leaf.prefix)
        return bool(self._retain(leaf, cell, cell.oids != oid))

    def _retain(self, leaf: LeafCell, cell: RecordBatch, keep: np.ndarray) -> int:
        """Rewrite the cell of ``leaf`` as the rows of ``cell`` under
        the mask ``keep``; returns how many records that removed."""
        if keep.all():
            return 0
        remaining = cell.select(np.flatnonzero(keep))
        if len(remaining):
            self.storage.save(leaf.prefix, remaining)
        else:
            self.storage.delete(leaf.prefix)
        leaf.rebuild_from(remaining)
        removed = len(cell) - len(remaining)
        self._n_records -= removed
        return removed

    @_one_batch
    def _split(self, leaf: LeafCell) -> None:
        # one batch: the parent leaves the catalog in the same commit
        # that adds its children, and its file is unlinked only after
        groups = self.tree.split_leaf(leaf, self.storage.load(leaf.prefix))
        self.storage.delete(leaf.prefix)
        self.storage.save_many(
            {child.prefix: rows for child, rows in groups.values()}
        )
        for child, _rows in groups.values():
            # A split may produce a child that itself overflows (all
            # records sharing the next permutation element); recurse.
            if child.count > self.bucket_capacity and self.tree.can_split(child):
                self._split(child)

    # ------------------------------------------------------------------
    # precise range search (Algorithm 3)
    # ------------------------------------------------------------------

    def range_search(
        self,
        query_distances: np.ndarray,
        radius: float,
        *,
        stats: RangeSearchStats | None = None,
    ) -> CellRecords:
        """Candidate set of a range query from query–pivot distances.

        Returns every stored record that *may* satisfy
        ``d(q, o) <= radius`` according to the metric lower bounds; the
        caller (client or plain server) refines with true distances.
        """
        return self._only(
            self.range_search_batch(
                np.asarray(query_distances)[np.newaxis],
                radius,
                stats=None if stats is None else [stats],
            )
        )

    def _double_pivot_bound(
        self, q: np.ndarray, order: np.ndarray, prefix: tuple[int, ...]
    ) -> float:
        """Largest double-pivot lower bound on d(q, o) for o in the cell.

        For an object in cell ``(i_1, .., i_l)``, at each level ``t`` the
        pivot ``i_t`` is the closest among the pivots not used at levels
        ``< t``, so ``d(o, p_it) <= d(o, p_j)`` for every available
        ``j``, giving ``d(q,o) >= (d(q,p_it) - d(q,p_j)) / 2``.
        """
        if not prefix:
            return 0.0
        used: set[int] = set()
        bound = 0.0
        for pivot in prefix:
            # smallest query-pivot distance among pivots not yet used
            for j in order:
                if int(j) not in used:
                    nearest_available = q[int(j)]
                    break
            level_bound = (q[pivot] - nearest_available) / 2.0
            if level_bound > bound:
                bound = level_bound
            used.add(pivot)
        return bound

    @staticmethod
    def _range_pivot_bound(q: np.ndarray, leaf: LeafCell) -> float:
        """Range-pivot lower bound from the leaf's distance intervals."""
        if leaf.intervals is None or leaf.count == 0:
            return 0.0
        bound = 0.0
        for position, pivot in enumerate(leaf.prefix):
            low, high = leaf.intervals[position]
            if low > high:  # empty interval (no records noted yet)
                continue
            level_bound = max(q[pivot] - high, low - q[pivot])
            if level_bound > bound:
                bound = level_bound
        return bound

    # ------------------------------------------------------------------
    # transformed precise range search (paper §6 future work)
    # ------------------------------------------------------------------

    def range_search_transformed(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        stats: RangeSearchStats | None = None,
    ) -> CellRecords:
        """Range-query candidates from *transformed-space* intervals.

        The level-4 variant (§6): records store a secret monotone
        transformation ``T`` of their pivot distances, and the client
        sends, per pivot ``i``, the interval
        ``[T(d(q,p_i) - r), T(d(q,p_i) + r)]``. Monotonicity makes
        interval membership equivalent to the pivot-filter condition
        ``|d(q,p_i) - d(o,p_i)| <= r``, so the result is still a
        superset of the true answer — while the server sees neither
        true distances nor their distribution.

        Compared to :meth:`range_search`, the double-pivot constraint
        is unavailable (it needs arithmetic on distances, which the
        transformation deliberately destroys); pruning relies on the
        per-leaf interval overlap test and per-object interval
        filtering only. The ablation bench quantifies that cost.
        """
        return self._only(
            self.range_search_transformed_batch(
                np.asarray(lows)[np.newaxis],
                np.asarray(highs)[np.newaxis],
                stats=None if stats is None else [stats],
            )
        )

    @staticmethod
    def _interval_prunes_leaf(
        lows: np.ndarray, highs: np.ndarray, leaf: LeafCell
    ) -> bool:
        if leaf.intervals is None or leaf.count == 0:
            return False
        for position, pivot in enumerate(leaf.prefix):
            low, high = leaf.intervals[position]
            if low > high:
                continue
            if high < lows[pivot] or low > highs[pivot]:
                return True
        return False

    # ------------------------------------------------------------------
    # approximate k-NN (Algorithm 4)
    # ------------------------------------------------------------------

    def approx_knn_candidates(
        self,
        query_permutation: np.ndarray,
        cand_size: int,
        *,
        max_cells: int | None = None,
    ) -> CellRecords:
        """Pre-ranked candidate set for an approximate k-NN query.

        Visits leaf cells in increasing *promise* order (a damped
        generalized footrule between the query permutation and the cell
        prefix), gathering records until ``cand_size`` are collected or
        ``max_cells`` cells were accessed, then trims to ``cand_size``.

        The returned list is ordered best-first: by cell promise, then
        by a truncated footrule between each record's permutation prefix
        and the query's — this is the paper's "pre-ranked" property that
        lets clients refine only the head of the set.
        """
        return self._only(
            self.approx_knn_candidates_batch(
                np.asarray(query_permutation)[np.newaxis],
                cand_size,
                max_cells=max_cells,
            )
        )

    @staticmethod
    def _only(found: tuple) -> CellRecords:
        """The answer of a batch of one — the visited cells narrowed to
        the one query's rows, in rank order: a single search is its
        batch form over a one-row matrix."""
        visited, (rows,) = found
        return visited.select(rows)

    # ------------------------------------------------------------------
    # batched searches
    # ------------------------------------------------------------------

    def approx_knn_candidates_batch(
        self,
        query_permutations: np.ndarray,
        cand_size: int,
        *,
        max_cells: int | None = None,
    ) -> tuple[CellRecords, list[np.ndarray]]:
        """Pre-ranked candidate sets for a whole batch of k-NN queries.

        Returns ``(records, rows)``: the records of every visited cell,
        each cell once as the columns it was read as, and per query the
        positions in ``records`` of its candidates, best first — ``[records[i] for i in rows[q]]``
        is exactly ``approx_knn_candidates(perm, ...)`` for row ``q`` of
        ``query_permutations``. The work is amortized: the cell
        promises of every (query, cell) pair come out of one vectorized
        kernel — the promise weights and integer rank displacements are
        exactly representable, so the result is bit-identical to a
        per-leaf :func:`~repro.metric.permutations.prefix_promise` loop
        — bucket loads plus the per-bucket permutation
        matrices are shared across the batch, and the final
        ``(promise, score, oid)`` order is one ``lexsort`` per query
        over columns, with no object built per candidate.
        """
        records, groups_per_query = self.approx_knn_scatter_batch(
            query_permutations, cand_size, max_cells=max_cells
        )
        oids = records.oids
        rows_per_query: list[np.ndarray] = []
        for groups in groups_per_query:
            if not groups:
                rows_per_query.append(np.empty(0, dtype=np.int64))
                continue
            promises, _prefixes, rows, scores = zip(*groups)
            promises = np.repeat(promises, [len(run) for run in rows])
            rows, scores = np.concatenate(rows), np.concatenate(scores)
            order = np.lexsort((oids[rows], scores, promises))
            rows_per_query.append(rows[order[:cand_size]])
        return records, rows_per_query

    def approx_knn_scatter_batch(
        self,
        query_permutations: np.ndarray,
        cand_size: int,
        *,
        max_cells: int | None = None,
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Per-query visited leaf groups for scatter–gather kNN.

        Returns ``(records, groups)``: the records of every visited
        cell, each cell once, and per query its
        ``(promise, prefix, rows, scores)`` groups in this index's
        visit order — ``rows`` are the cell's positions in ``records``,
        a contiguous run — produced under the *local* stopping rule
        (stop once this index alone collected ``cand_size`` records or
        accessed ``max_cells`` cells). For any shard of a prefix-
        partitioned cluster, the shard-local visit order is the global
        visit order restricted to the shard's leaves, so the local
        prefix of visited leaves is a superset of what the global
        stopping rule needs — the router can replay the rule over the
        merged group stream and reproduce the single-server candidate
        set bit for bit.

        This is the index's one k-NN traversal — vectorized promises,
        shared bucket loads — and the core of
        :meth:`approx_knn_candidates_batch`.
        """
        perms = np.asarray(query_permutations, dtype=np.int64)
        # (a row that is no permutation would leave put_along_axis
        # below uninitialized rank slots)
        self._check_permutations(perms, QueryError)
        if cand_size <= 0:
            raise QueryError(f"cand_size must be positive, got {cand_size}")
        if max_cells is not None and max_cells <= 0:
            raise QueryError(f"max_cells must be positive, got {max_cells}")
        n_queries = perms.shape[0]
        visited = CellRecords([])
        if n_queries == 0:
            return visited, []
        expected = np.arange(self.n_pivots, dtype=np.int64)
        # inverse permutations, one row per query
        ranks = np.empty_like(perms)
        np.put_along_axis(
            ranks,
            perms,
            np.broadcast_to(expected, perms.shape),
            axis=1,
        )
        leaves = [leaf for leaf in self.tree.leaves() if leaf.count > 0]
        if not leaves:
            return visited, [[] for _ in range(n_queries)]
        promises = self._promise_matrix(ranks, leaves)
        # ordinal encoding of the prefix tie-breaker of the visit
        # order's sort key (promise, prefix)
        prefix_rank = np.empty(len(leaves), dtype=np.int64)
        by_prefix = sorted(range(len(leaves)), key=lambda i: leaves[i].prefix)
        prefix_rank[by_prefix] = np.arange(len(leaves), dtype=np.int64)
        # per loaded cell: its rows in ``visited`` and the leading
        # columns of its permutation matrix (None for a cell that
        # loaded empty)
        loaded: dict[tuple[int, ...], tuple | None] = {}
        depth = min(_RANK_PREFIX, self.n_pivots)
        positions = np.arange(depth, dtype=np.int64)
        groups_per_query: list[list[tuple]] = []
        for qi in range(n_queries):
            ordered = np.lexsort((prefix_rank, promises[qi]))
            groups: list[tuple] = []
            n_collected = 0
            cells_accessed = 0
            for li in ordered:
                if n_collected >= cand_size:
                    break
                if max_cells is not None and cells_accessed >= max_cells:
                    break
                leaf = leaves[li]
                if leaf.prefix not in loaded:
                    cell = self.storage.load(leaf.prefix)
                    loaded[leaf.prefix] = (
                        visited.append(cell),
                        cell.ensure_permutations()[:, :depth],
                    ) if len(cell) else None
                cells_accessed += 1
                if loaded[leaf.prefix] is None:
                    continue
                rows, stack = loaded[leaf.prefix]
                scores = (
                    np.abs(ranks[qi][stack] - positions)
                    .sum(axis=1)
                    .astype(np.float64)
                )
                promise = float(promises[qi, li])
                groups.append((promise, leaf.prefix, rows, scores))
                n_collected += len(rows)
            groups_per_query.append(groups)
        return visited, groups_per_query

    @staticmethod
    def _promise_matrix(
        ranks: np.ndarray, leaves: list[LeafCell], *, level_decay: float = 0.75
    ) -> np.ndarray:
        """(n_queries, n_leaves) matrix of cell promises.

        Numerically exact — every term ``decay**l * |rank - l|`` and all
        partial sums are exactly representable — so each entry equals
        :func:`~repro.metric.permutations.prefix_promise` bit for bit.
        """
        promises = np.empty((ranks.shape[0], len(leaves)), dtype=np.float64)
        by_length: dict[int, list[int]] = {}
        for index, leaf in enumerate(leaves):
            by_length.setdefault(len(leaf.prefix), []).append(index)
        for length, indices in by_length.items():
            if length == 0:
                promises[:, indices] = 0.0
                continue
            prefixes = np.array(
                [leaves[i].prefix for i in indices], dtype=np.int64
            )
            weights = np.empty(length, dtype=np.float64)
            weight = 1.0
            for level in range(length):
                weights[level] = weight
                weight *= level_decay
            displacement = np.abs(
                ranks[:, prefixes]
                - np.arange(length, dtype=np.int64)
            ).astype(np.float64)
            promises[:, indices] = (displacement * weights).sum(axis=2)
        return promises

    def range_search_batch(
        self,
        query_distances: np.ndarray,
        radius: float,
        *,
        stats: list[RangeSearchStats] | None = None,
    ) -> tuple[CellRecords, list[np.ndarray]]:
        """Candidate sets for a batch of range queries (one shared radius).

        Returns ``(records, rows)`` like
        :meth:`approx_knn_candidates_batch`: ``[records[i] for i in
        rows[q]]`` is identical to ``range_search`` for query ``q``;
        bucket loads and the per-bucket distance matrices used by pivot
        filtering are computed once and shared across the batch.
        """
        records, groups_per_query = self.range_scatter_batch(
            query_distances, radius, stats=stats
        )
        return records, [self._rows_of(groups) for groups in groups_per_query]

    def range_scatter_batch(
        self,
        query_distances: np.ndarray,
        radius: float,
        *,
        stats: list[RangeSearchStats] | None = None,
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Per-query range candidates as per-leaf groups, for
        scatter–gather merging and as the core of
        :meth:`range_search_batch`.

        Returns ``(records, groups)``: the records of every scanned
        cell, each cell once, and per query its ``(prefix, rows)``
        groups in leaf order, ``rows`` being the positions in
        ``records`` that passed the pivot filter. Because leaves are
        visited in lexicographic prefix order and a prefix-partitioned
        shard holds whole top-pivot subtrees, a router that orders the
        groups of all shards by ``prefix[0]`` (stably) and concatenates
        reproduces the single-server candidate order.
        """
        q_matrix = np.asarray(query_distances, dtype=np.float64)
        if q_matrix.ndim != 2 or q_matrix.shape[1] != self.n_pivots:
            raise QueryError(
                f"query distances must have shape (batch, {self.n_pivots}), "
                f"got {q_matrix.shape}"
            )
        if not radius >= 0:  # NaN compares false either way
            raise QueryError(f"radius must be >= 0, got {radius}")
        return self._range_groups_batch(
            q_matrix, radius, self._stats_for(stats, q_matrix.shape[0])
        )

    @staticmethod
    def _stats_for(
        stats: list[RangeSearchStats] | None, n_queries: int
    ) -> list[RangeSearchStats]:
        if stats is None:
            return [RangeSearchStats() for _ in range(n_queries)]
        if len(stats) != n_queries:
            raise QueryError(
                f"stats list of {len(stats)} does not match batch of "
                f"{n_queries}"
            )
        return stats

    @staticmethod
    def _rows_of(groups: list[tuple]) -> np.ndarray:
        """One query's candidate rows, its groups end to end."""
        if not groups:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([rows for _prefix, rows in groups])

    def _range_groups_batch(
        self,
        q_matrix: np.ndarray,
        radius: float,
        stats_list: list[RangeSearchStats],
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Range candidates per query as ``(leaf_prefix, rows)`` groups
        in leaf order, over the scanned cells' records end to end.

        Visits are restructured prune-first: every query's surviving
        leaves are determined before any bucket is touched, then the
        union of surviving cells is fetched through
        :meth:`_bulk_load_leaves` — on the disk backend one
        ``load_many`` call that orders chunk reads by on-disk locality.
        Per-query candidate order, pruning decisions and every
        counter total are identical to the per-leaf load loop; only the
        I/O schedule changes.
        """
        leaves = self.tree.leaves()
        survivors: list[list[int]] = []
        for q, query_stats in zip(q_matrix, stats_list):
            order = np.argsort(q, kind="stable")
            surviving: list[int] = []
            for position, leaf in enumerate(leaves):
                query_stats.cells_examined += 1
                if self._double_pivot_bound(q, order, leaf.prefix) > radius:
                    query_stats.cells_pruned_double_pivot += 1
                    continue
                if self._range_pivot_bound(q, leaf) > radius:
                    query_stats.cells_pruned_range_pivot += 1
                    continue
                surviving.append(position)
            survivors.append(surviving)
        return self._filter_survivors(
            leaves,
            survivors,
            stats_list,
            lambda qi, matrix: (
                np.abs(matrix - q_matrix[qi]).max(axis=1) <= radius
            ),
        )

    def _filter_survivors(
        self,
        leaves: list[LeafCell],
        survivors: list[list[int]],
        stats_list: list[RangeSearchStats],
        passes,
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Second half of both range traversals: fetch the union of
        the surviving cells in one :meth:`_bulk_load_leaves` call, then
        per query apply the per-object filter — ``passes(query index,
        distance matrix)`` is the mask of a cell's records to keep — to
        each of its surviving cells."""
        bucket_cache = self._bulk_load_leaves(
            [
                leaves[position].prefix
                for position in sorted(
                    {p for surviving in survivors for p in surviving}
                )
            ]
        )
        scanned = CellRecords([])
        # per scanned cell: its rows in ``scanned``, its distance matrix
        cells: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        groups_per_query: list[list[tuple]] = []
        for qi, (surviving, query_stats) in enumerate(
            zip(survivors, stats_list)
        ):
            groups: list[tuple] = []
            n_candidates = 0
            for position in surviving:
                prefix = leaves[position].prefix
                cell = bucket_cache[prefix]
                query_stats.cells_accessed += 1
                query_stats.records_scanned += len(cell)
                if not len(cell):
                    continue
                if prefix not in cells:
                    if cell.distances is None:
                        raise QueryError(
                            "range search requires records stored with "
                            "pivot distances (the precise strategy)"
                        )
                    cells[prefix] = (scanned.append(cell), cell.distances)
                rows, matrix = cells[prefix]
                kept = rows[passes(qi, matrix)]
                query_stats.records_filtered += len(rows) - len(kept)
                n_candidates += len(kept)
                if len(kept):
                    groups.append((prefix, kept))
            query_stats.candidates = n_candidates
            groups_per_query.append(groups)
        return scanned, groups_per_query

    def range_search_transformed_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        stats: list[RangeSearchStats] | None = None,
    ) -> tuple[CellRecords, list[np.ndarray]]:
        """Batched :meth:`range_search_transformed` with shared bucket
        loads and per-bucket matrices, as ``(records, rows)`` (see
        :meth:`range_search_batch`); per-query results are identical
        to the looped single-query calls."""
        records, groups_per_query = self.range_transformed_scatter_batch(
            lows, highs, stats=stats
        )
        return records, [self._rows_of(groups) for groups in groups_per_query]

    def range_transformed_scatter_batch(
        self,
        lows: np.ndarray,
        highs: np.ndarray,
        *,
        stats: list[RangeSearchStats] | None = None,
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Transformed-interval analog of :meth:`range_scatter_batch`."""
        low_matrix = np.asarray(lows, dtype=np.float64)
        high_matrix = np.asarray(highs, dtype=np.float64)
        if (
            low_matrix.ndim != 2
            or low_matrix.shape[1] != self.n_pivots
            or high_matrix.shape != low_matrix.shape
        ):
            raise QueryError(
                f"interval matrices must have shape (batch, "
                f"{self.n_pivots}), got {low_matrix.shape} and "
                f"{high_matrix.shape}"
            )
        if np.any(low_matrix > high_matrix):
            raise QueryError("interval lows must not exceed highs")
        return self._range_transformed_groups_batch(
            low_matrix,
            high_matrix,
            self._stats_for(stats, low_matrix.shape[0]),
        )

    def _range_transformed_groups_batch(
        self,
        low_matrix: np.ndarray,
        high_matrix: np.ndarray,
        stats_list: list[RangeSearchStats],
    ) -> tuple[CellRecords, list[list[tuple]]]:
        """Transformed-interval analog of :meth:`_range_groups_batch`:
        prune every query first, then fetch and filter through
        :meth:`_filter_survivors`."""
        leaves = self.tree.leaves()
        survivors: list[list[int]] = []
        for low, high, query_stats in zip(
            low_matrix, high_matrix, stats_list
        ):
            surviving: list[int] = []
            for position, leaf in enumerate(leaves):
                query_stats.cells_examined += 1
                if self._interval_prunes_leaf(low, high, leaf):
                    query_stats.cells_pruned_range_pivot += 1
                    continue
                surviving.append(position)
            survivors.append(surviving)
        return self._filter_survivors(
            leaves,
            survivors,
            stats_list,
            lambda qi, matrix: np.all(
                (matrix >= low_matrix[qi]) & (matrix <= high_matrix[qi]),
                axis=1,
            ),
        )

    def _bulk_load_leaves(
        self, prefixes: list[tuple[int, ...]]
    ) -> dict[tuple[int, ...], RecordBatch]:
        """Fetch many cells at once, through the backend's chunk-aware
        ``load_many`` prefetcher when it has one (the disk backend
        orders chunk reads by file offset), falling back to per-cell
        loads."""
        load_many = getattr(self.storage, "load_many", None)
        if load_many is not None:
            return load_many(prefixes)
        return {prefix: self.storage.load(prefix) for prefix in prefixes}

    # ------------------------------------------------------------------
    # rebalance surface
    # ------------------------------------------------------------------

    def export_top_pivots(self, pivots: set[int]) -> list[IndexedRecord]:
        """All records whose top-level permutation element is in
        ``pivots``, for handing a prefix range to another shard.

        Read-only; the records come back in lexicographic leaf order
        (within a leaf, storage order), ready to be replayed through an
        ``insert`` on the receiving shard.
        """
        wanted = {int(pivot) for pivot in pivots}
        exported: list[IndexedRecord] = []
        for leaf in self.tree.leaves():
            if leaf.count == 0:
                continue
            if leaf.prefix:
                if leaf.prefix[0] in wanted:
                    exported.extend(self.storage.load(leaf.prefix).to_records())
            else:
                exported.extend(
                    record
                    for record in self.storage.load(leaf.prefix).to_records()
                    if int(record.ensure_permutation()[0]) in wanted
                )
        return exported

    @_one_batch
    def drop_top_pivots(self, pivots: set[int]) -> int:
        """Remove every record whose top-level permutation element is in
        ``pivots``; returns the number removed.

        The rebalance counterpart of :meth:`export_top_pivots`: the
        router copies a prefix range to its new shard first, then drops
        it here, so a failure between the two steps leaves duplicates
        (suppressed by the router's merge) rather than losing records.
        Emptied leaves stay in the tree, exactly like :meth:`delete`.
        """
        wanted = {int(pivot) for pivot in pivots}
        removed = 0
        for leaf in self.tree.leaves():
            if leaf.count == 0:
                continue
            if not leaf.prefix:
                cell = self.storage.load(leaf.prefix)
                tops = cell.ensure_permutations()[:, 0]
                removed += self._retain(
                    leaf, cell, ~np.isin(tops, list(wanted))
                )
            elif leaf.prefix[0] in wanted:
                removed += leaf.count
                self._n_records -= leaf.count
                self.storage.delete(leaf.prefix)
                leaf.rebuild_from([])
        return removed

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of indexed records."""
        return self._n_records

    @property
    def n_cells(self) -> int:
        """Number of leaf cells."""
        return len(self.tree.leaves())

    @property
    def depth(self) -> int:
        """Current maximum partitioning depth."""
        return self.tree.depth

    def statistics(self) -> dict:
        """Structural statistics for reports and sanity tests."""
        leaves = self.tree.leaves()
        occupied = [leaf for leaf in leaves if leaf.count > 0]
        return {
            "records": self._n_records,
            "leaf_cells": len(leaves),
            "occupied_cells": len(occupied),
            "max_level": self.tree.depth,
            "bucket_capacity": self.bucket_capacity,
            "avg_occupied_bucket": (
                self._n_records / len(occupied) if occupied else 0.0
            ),
        }
