"""The dynamic Voronoi cell tree (Figure 3 of the paper).

Cells are identified by pivot-permutation prefixes. The tree starts as a
single leaf with the empty prefix and splits any leaf whose record count
exceeds the bucket capacity, partitioning its records by the next
permutation element — the recursive Voronoi partitioning of §4.1 carried
out purely on permutations.

Leaves additionally track, per prefix level, the ``[min, max]`` interval
of the stored objects' distance to that level's pivot. These intervals
power the range-pivot pruning constraint of the precise search and are
only maintained while every record carries distances (precise strategy).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.records import RecordBatch
from repro.exceptions import IndexError_

__all__ = ["LeafCell", "InternalCell", "CellTree"]

Prefix = tuple[int, ...]


class LeafCell:
    """A leaf of the cell tree: metadata for one storage bucket."""

    __slots__ = ("prefix", "count", "intervals")

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self.count = 0
        #: per-level [min, max] of d(o, p_level_pivot); None once any
        #: record without distances lands here.
        self.intervals: list[list[float]] | None = [
            [np.inf, -np.inf] for _ in prefix
        ]

    @property
    def level(self) -> int:
        """Depth of the leaf (== prefix length)."""
        return len(self.prefix)

    def note_records(self, count: int, distances: np.ndarray | None) -> None:
        """Count ``count`` arriving records and widen the intervals by
        their ``(count, n_pivots)`` distance rows — None when they carry
        none, which ends interval keeping for this leaf. Min/max
        reductions are exact, so the intervals are those of a
        per-record loop."""
        if not count:
            return
        self.count += count
        if self.intervals is None:
            return
        if distances is None:
            self.intervals = None
            return
        for position, pivot in enumerate(self.prefix):
            column = distances[:, pivot]
            low = float(column.min())
            high = float(column.max())
            interval = self.intervals[position]
            if low < interval[0]:
                interval[0] = low
            if high > interval[1]:
                interval[1] = high

    def rebuild_from(self, cell) -> None:
        """Recompute count and intervals from scratch, from the columns
        of ``cell`` (a batch, or a record list turned into one)."""
        cell = RecordBatch.of_cell(cell)
        self.count = 0
        self.intervals = [[np.inf, -np.inf] for _ in self.prefix]
        self.note_records(len(cell), cell.distances)


class InternalCell:
    """An internal node: children keyed by the next permutation element."""

    __slots__ = ("prefix", "children")

    def __init__(self, prefix: Prefix) -> None:
        self.prefix = prefix
        self.children: dict[int, "InternalCell | LeafCell"] = {}

    @property
    def level(self) -> int:
        """Depth of the node (== prefix length)."""
        return len(self.prefix)


class CellTree:
    """Dynamic cell tree: leaf lookup, splitting and traversal."""

    def __init__(self, n_pivots: int, max_level: int) -> None:
        if n_pivots <= 0:
            raise IndexError_(f"n_pivots must be positive, got {n_pivots}")
        if not 1 <= max_level <= n_pivots:
            raise IndexError_(
                f"max_level must be in 1..{n_pivots}, got {max_level}"
            )
        self.n_pivots = n_pivots
        self.max_level = max_level
        self.root: InternalCell | LeafCell = LeafCell(())
        self._leaf_cache: list[LeafCell] | None = None

    # -- lookup -----------------------------------------------------------

    def locate_leaf(self, permutation: np.ndarray) -> LeafCell:
        """Walk the tree along a permutation to its leaf cell."""
        node = self.root
        while isinstance(node, InternalCell):
            pivot = int(permutation[node.level])
            child = node.children.get(pivot)
            if child is None:
                child = LeafCell(node.prefix + (pivot,))
                node.children[pivot] = child
                self._leaf_cache = None
            node = child
        return node

    def ensure_leaf(self, prefix: Prefix) -> LeafCell:
        """Return the leaf at exactly ``prefix``, materializing the path.

        Used when rebuilding the tree from a storage backend whose cell
        ids are permutation prefixes (after a server restart). Raises
        when the requested shape conflicts with existing structure —
        e.g. a leaf already stored at a proper prefix of ``prefix``.
        """
        if len(prefix) > self.max_level:
            raise IndexError_(
                f"prefix {prefix} deeper than max level {self.max_level}"
            )
        if not prefix:
            if not isinstance(self.root, LeafCell):
                raise IndexError_("root is already an internal cell")
            return self.root
        if isinstance(self.root, LeafCell):
            if self.root.count:
                raise IndexError_(
                    "cannot materialize below a non-empty root leaf"
                )
            self.root = InternalCell(())
            self._leaf_cache = None
        node: InternalCell = self.root
        for depth, pivot in enumerate(prefix):
            is_last = depth == len(prefix) - 1
            child = node.children.get(int(pivot))
            if child is None:
                child_prefix = node.prefix + (int(pivot),)
                child = (
                    LeafCell(child_prefix)
                    if is_last
                    else InternalCell(child_prefix)
                )
                node.children[int(pivot)] = child
                self._leaf_cache = None
            if is_last:
                if not isinstance(child, LeafCell):
                    raise IndexError_(
                        f"cell {prefix} conflicts with an internal node"
                    )
                return child
            if not isinstance(child, InternalCell):
                if child.count:
                    raise IndexError_(
                        f"cell {prefix} conflicts with non-empty leaf "
                        f"{child.prefix}"
                    )
                child = InternalCell(child.prefix)
                node.children[int(pivot)] = child
                self._leaf_cache = None
            node = child
        raise AssertionError("unreachable")  # pragma: no cover

    # -- splitting ----------------------------------------------------------

    def can_split(self, leaf: LeafCell) -> bool:
        """Whether the leaf may be partitioned one level deeper."""
        return leaf.level < self.max_level

    def split_into(
        self, leaf: LeafCell, pivots: "list[int] | np.ndarray"
    ) -> dict[int, LeafCell]:
        """Replace ``leaf`` with an internal cell carrying one child per
        pivot, without touching any records.

        The array-based bulk loader partitions records as index arrays
        and only needs the structural half of a split; callers are
        responsible for rebuilding each child's count/intervals once its
        final record group is known.
        """
        if not self.can_split(leaf):
            raise IndexError_(
                f"cell {leaf.prefix} at max level {self.max_level} "
                "cannot split"
            )
        internal = InternalCell(leaf.prefix)
        children: dict[int, LeafCell] = {}
        for pivot in pivots:
            child = LeafCell(leaf.prefix + (int(pivot),))
            internal.children[int(pivot)] = child
            children[int(pivot)] = child
        self._replace(leaf, internal)
        self._leaf_cache = None
        return children

    def split_leaf(
        self, leaf: LeafCell, cell
    ) -> dict[int, tuple[LeafCell, RecordBatch]]:
        """Replace ``leaf`` with an internal cell and partition its
        records — ``cell``, a batch or a record list — by the next
        permutation element.

        Returns ``{pivot: (new_leaf, its_records)}``, pivots in the
        order the cell first shows them and each group a row selection
        in cell order; the caller persists the groups in storage and
        removes the old cell.
        """
        cell = RecordBatch.of_cell(cell)
        column = cell.ensure_permutations()[:, leaf.level]
        pivots, first = np.unique(column, return_index=True)
        pivots = pivots[np.argsort(first)].tolist()
        children = self.split_into(leaf, pivots)
        result: dict[int, tuple[LeafCell, RecordBatch]] = {}
        for pivot in pivots:
            group = cell.select(np.flatnonzero(column == pivot))
            children[pivot].rebuild_from(group)
            result[pivot] = (children[pivot], group)
        return result

    def _replace(
        self, old: LeafCell, new: InternalCell
    ) -> None:
        if self.root is old:
            self.root = new
            return
        node = self.root
        if not isinstance(node, InternalCell):
            raise IndexError_(f"cell {old.prefix} not found in tree")
        for position in range(len(old.prefix)):
            pivot = old.prefix[position]
            if position == len(old.prefix) - 1:
                if node.children.get(pivot) is not old:
                    raise IndexError_(f"cell {old.prefix} not found in tree")
                node.children[pivot] = new
                return
            child = node.children.get(pivot)
            if not isinstance(child, InternalCell):
                raise IndexError_(f"cell {old.prefix} not found in tree")
            node = child
        raise IndexError_(f"cell {old.prefix} not found in tree")

    # -- traversal ------------------------------------------------------------

    def leaves(self) -> list[LeafCell]:
        """All leaf cells (cached; invalidated on structural change)."""
        if self._leaf_cache is None:
            collected: list[LeafCell] = []
            stack: list[InternalCell | LeafCell] = [self.root]
            while stack:
                node = stack.pop()
                if isinstance(node, LeafCell):
                    collected.append(node)
                else:
                    stack.extend(node.children.values())
            collected.sort(key=lambda leaf: leaf.prefix)
            self._leaf_cache = collected
        return self._leaf_cache

    def iter_nodes(self) -> Iterator[InternalCell | LeafCell]:
        """Depth-first iteration over all nodes."""
        stack: list[InternalCell | LeafCell] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, InternalCell):
                stack.extend(node.children.values())

    @property
    def n_records(self) -> int:
        """Total records tracked across all leaves."""
        return sum(leaf.count for leaf in self.leaves())

    @property
    def depth(self) -> int:
        """Maximum leaf level currently present."""
        return max((leaf.level for leaf in self.leaves()), default=0)
