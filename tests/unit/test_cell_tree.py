"""Unit tests for repro.mindex.cell_tree."""

import numpy as np
import pytest

from repro.core.records import IndexedRecord
from repro.exceptions import IndexError_
from repro.mindex.cell_tree import CellTree, InternalCell, LeafCell


def _record(oid: int, permutation, distances=None) -> IndexedRecord:
    return IndexedRecord(
        oid, np.array(permutation, dtype=np.int32), distances, b"p"
    )


def _note(leaf: LeafCell, distances=None) -> None:
    """One arriving record, as a batch of one row."""
    leaf.note_records(
        1, None if distances is None else np.array([distances], dtype=float)
    )


class TestLeafCell:
    def test_note_records_updates_count(self):
        leaf = LeafCell((0,))
        _note(leaf, [1.0, 2.0, 3.0])
        assert leaf.count == 1

    def test_intervals_track_prefix_pivot_distances(self):
        leaf = LeafCell((2,))
        _note(leaf, [5.0, 6.0, 1.0])
        _note(leaf, [9.0, 8.0, 3.0])
        assert leaf.intervals == [[1.0, 3.0]]

    def test_record_without_distances_disables_intervals(self):
        leaf = LeafCell((0,))
        _note(leaf, [1.0, 2.0])
        _note(leaf)
        assert leaf.intervals is None
        # further records are fine
        _note(leaf, [0.5, 2.0])
        assert leaf.count == 3

    def test_rebuild_from(self):
        leaf = LeafCell((1,))
        records = [
            _record(1, [1, 0], np.array([4.0, 2.0])),
            _record(2, [1, 0], np.array([6.0, 3.0])),
        ]
        leaf.rebuild_from(records)
        assert leaf.count == 2
        assert leaf.intervals == [[2.0, 3.0]]


class TestCellTree:
    def test_starts_as_single_root_leaf(self):
        tree = CellTree(5, 3)
        assert isinstance(tree.root, LeafCell)
        assert tree.root.prefix == ()
        assert tree.leaves() == [tree.root]

    def test_validation(self):
        with pytest.raises(IndexError_):
            CellTree(0, 1)
        with pytest.raises(IndexError_):
            CellTree(5, 0)
        with pytest.raises(IndexError_):
            CellTree(5, 6)

    def test_locate_on_root_leaf(self):
        tree = CellTree(4, 2)
        leaf = tree.locate_leaf(np.array([2, 0, 1, 3]))
        assert leaf is tree.root

    def test_split_partitions_by_next_permutation_element(self):
        tree = CellTree(3, 2)
        records = [
            _record(1, [0, 1, 2]),
            _record(2, [0, 2, 1]),
            _record(3, [1, 0, 2]),
        ]
        groups = tree.split_leaf(tree.root, records)
        assert set(groups.keys()) == {0, 1}
        assert [r.oid for r in groups[0][1]] == [1, 2]
        assert [r.oid for r in groups[1][1]] == [3]
        assert isinstance(tree.root, InternalCell)

    def test_locate_after_split(self):
        tree = CellTree(3, 2)
        records = [_record(1, [0, 1, 2]), _record(2, [1, 0, 2])]
        tree.split_leaf(tree.root, records)
        leaf = tree.locate_leaf(np.array([0, 2, 1]))
        assert leaf.prefix == (0,)
        leaf2 = tree.locate_leaf(np.array([2, 1, 0]))
        assert leaf2.prefix == (2,)  # created on demand

    def test_nested_split(self):
        tree = CellTree(4, 3)
        first = [_record(i, [0, 1, 2, 3]) for i in range(3)]
        groups = tree.split_leaf(tree.root, first)
        child = groups[0][0]
        second = [
            _record(10, [0, 1, 2, 3]),
            _record(11, [0, 2, 1, 3]),
        ]
        child_groups = tree.split_leaf(child, second)
        assert set(child_groups.keys()) == {1, 2}
        deep = tree.locate_leaf(np.array([0, 2, 3, 1]))
        assert deep.prefix == (0, 2)

    def test_split_beyond_max_level_rejected(self):
        tree = CellTree(3, 1)
        tree.split_leaf(tree.root, [_record(1, [0, 1, 2])])
        leaf = tree.locate_leaf(np.array([0, 1, 2]))
        with pytest.raises(IndexError_):
            tree.split_leaf(leaf, [_record(1, [0, 1, 2])])

    def test_leaves_enumeration_after_splits(self):
        tree = CellTree(3, 2)
        records = [
            _record(1, [0, 1, 2]),
            _record(2, [1, 2, 0]),
            _record(3, [2, 0, 1]),
        ]
        tree.split_leaf(tree.root, records)
        prefixes = sorted(leaf.prefix for leaf in tree.leaves())
        assert prefixes == [(0,), (1,), (2,)]

    def test_split_intervals_rebuilt_per_child(self):
        tree = CellTree(3, 2)
        records = [
            _record(1, [0, 1, 2], np.array([1.0, 5.0, 9.0])),
            _record(2, [0, 2, 1], np.array([2.0, 9.0, 5.0])),
        ]
        groups = tree.split_leaf(tree.root, records)
        child, child_records = groups[0]
        assert len(child_records) == 2
        assert child.intervals == [[1.0, 2.0]]

    def test_records_and_depth_statistics(self):
        tree = CellTree(3, 2)
        _note(tree.root)
        assert tree.n_records == 1
        assert tree.depth == 0
        tree.split_leaf(tree.root, [_record(1, [0, 1, 2])])
        assert tree.depth == 1

    def test_iter_nodes_visits_everything(self):
        tree = CellTree(3, 2)
        tree.split_leaf(
            tree.root, [_record(1, [0, 1, 2]), _record(2, [1, 0, 2])]
        )
        nodes = list(tree.iter_nodes())
        internals = [n for n in nodes if isinstance(n, InternalCell)]
        leaves = [n for n in nodes if isinstance(n, LeafCell)]
        assert len(internals) == 1
        assert len(leaves) == 2
