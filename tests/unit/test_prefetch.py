"""Chunk-aware bulk loads (`load_many`) and the range prefetcher.

`load_many` is the storage surface the range scanner prefetches
through: one call loads every surviving cell, reading missing chunks in
on-disk order and decompressing them in one pass. The
contract pinned here is *identical results and identical accounting* to
the equivalent `load` loop — the prefetcher is purely an I/O-schedule
optimization, never a semantic one.
"""

import random

import numpy as np
import pytest

from repro.core.records import IndexedRecord
from repro.metric.permutations import pivot_permutations
from repro.mindex.index import MIndex
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage

N_PIVOTS = 8


def _records(n, rng, offset=0):
    distances = rng.uniform(0.0, 10.0, size=(n, N_PIVOTS))
    permutations = pivot_permutations(distances)
    return [
        IndexedRecord(
            offset + i,
            permutations[i],
            distances[i],
            rng.bytes(40),
        )
        for i in range(n)
    ]


def _populate(storage, rng, n_cells=12, per_cell=25):
    cells = {}
    for c in range(n_cells):
        cell_id = (c % N_PIVOTS, c)
        records = _records(per_cell, rng, offset=c * per_cell)
        storage.save(cell_id, records)
        cells[cell_id] = records
    return cells


def _key(cells):
    """Byte-exact view of {cell_id: records} for equality asserts."""
    return {
        cell_id: [record.to_bytes() for record in records]
        for cell_id, records in cells.items()
    }


def _counters(storage):
    return {
        name: getattr(storage, name)
        for name in (
            "reads",
            "bytes_read",
            "block_cache_hits",
            "block_cache_misses",
            "chunks_decompressed",
        )
        if getattr(storage, name, None) is not None
    }


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_load_many_matches_load_loop(tmp_path, backend):
    def make():
        if backend == "memory":
            return MemoryStorage()
        return DiskStorage(tmp_path / f"{backend}-{make.counter}")

    make.counter = 1
    loop_storage = make()
    cells = _populate(loop_storage, np.random.default_rng(5))
    make.counter = 2
    bulk_storage = make()
    _populate(bulk_storage, np.random.default_rng(5))

    ids = list(cells.keys())
    random.Random(0).shuffle(ids)
    loop = {cell_id: loop_storage.load(cell_id) for cell_id in ids}
    bulk = bulk_storage.load_many(ids)
    assert _key(bulk) == _key(loop)
    assert _counters(bulk_storage) == _counters(loop_storage)


def test_load_many_dedups_and_handles_absent_cells(tmp_path):
    storage = DiskStorage(tmp_path / "cells")
    cells = _populate(storage, np.random.default_rng(9), n_cells=4)
    first = next(iter(cells))
    result = storage.load_many([first, ("no", 99), first])
    assert _key({first: result[first]}) == _key({first: cells[first]})
    assert result[("no", 99)] == []
    assert len(result) == 2


def test_load_many_reads_chunks_in_file_order(tmp_path):
    # tiny chunks force several chunks per cell; a cold bulk load must
    # still reassemble every cell exactly and decompress each chunk once
    storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=128)
    cells = _populate(storage, np.random.default_rng(3), per_cell=40)
    storage.flush()
    reopened = DiskStorage(tmp_path / "cells", chunk_raw_bytes=128)
    bulk = reopened.load_many(list(cells.keys()))
    assert _key(bulk) == _key(cells)
    assert reopened.block_cache_hits == 0  # cold cache: all misses
    assert reopened.chunks_decompressed == reopened.block_cache_misses
    assert reopened.chunks_decompressed > len(cells)  # multi-chunk cells


def test_range_search_batch_identical_across_backends(tmp_path):
    rng = np.random.default_rng(21)
    records = _records(400, rng)
    queries = np.random.default_rng(22).uniform(
        0.0, 10.0, size=(8, N_PIVOTS)
    )

    def build(storage):
        index = MIndex(N_PIVOTS, 20, storage)
        index.bulk_insert(list(records))
        return index

    memory_index = build(MemoryStorage())
    disk_index = build(DiskStorage(tmp_path / "range-cells"))

    def run(index):
        scanned, lists = index.range_search_batch(queries, 6.0)
        return [[scanned[i].oid for i in rows] for rows in lists]

    memory_hits = run(memory_index)
    disk_hits = run(disk_index)
    assert any(memory_hits)
    assert disk_hits == memory_hits

    # single-query path delegates to the same grouped scan
    single = [
        record.oid
        for record in memory_index.range_search(queries[0], 6.0)
    ]
    assert single == memory_hits[0]


def test_range_scan_prefetch_accounting_parity(tmp_path):
    """A batched range scan through load_many must charge exactly the
    counters of per-cell loads (the prefetcher only reorders I/O)."""
    rng = np.random.default_rng(31)
    records = _records(400, rng)
    queries = np.random.default_rng(32).uniform(
        0.0, 10.0, size=(6, N_PIVOTS)
    )

    bulk_storage = DiskStorage(tmp_path / "bulk")
    bulk_index = MIndex(N_PIVOTS, 20, bulk_storage)
    bulk_index.bulk_insert(list(records))
    bulk_storage.reset_accounting()
    bulk_index.range_search_batch(queries, 6.0)
    bulk_counts = _counters(bulk_storage)

    class NoBulk(DiskStorage):
        """The same backend with the bulk surface hidden, forcing the
        scanner down the per-cell fallback path."""

        load_many = None

    loop_storage = NoBulk(tmp_path / "loop")
    loop_index = MIndex(N_PIVOTS, 20, loop_storage)
    loop_index.bulk_insert(list(records))
    loop_storage.reset_accounting()
    loop_index.range_search_batch(queries, 6.0)
    loop_counts = _counters(loop_storage)

    assert bulk_counts == loop_counts
    assert bulk_counts["reads"] > 0
