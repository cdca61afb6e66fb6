"""Unit tests for repro.storage (memory and disk backends)."""

import contextlib
import json
import logging
import os
import shutil
import threading
import zlib

import numpy as np
import pytest

from repro.core.records import IndexedRecord
from repro.exceptions import StorageError
from repro.mindex.index import MIndex
from repro.storage import chunks as chunks_module
from repro.storage.chunks import (
    CHUNK_HEADER_SIZE,
    BlockCache,
    build_chunks,
)
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage


def _record(oid: int, n_pivots: int = 4) -> IndexedRecord:
    rng = np.random.default_rng(oid)
    return IndexedRecord(
        oid,
        rng.permutation(n_pivots).astype(np.int32),
        rng.random(n_pivots),
        bytes([oid % 256] * 10),
    )


class _StorageContract:
    """Shared behavioural tests for both storage backends."""

    def make(self, tmp_path):
        raise NotImplementedError

    def test_save_and_load(self, tmp_path):
        storage = self.make(tmp_path)
        records = [_record(i) for i in range(5)]
        storage.save(("a",), records)
        loaded = storage.load(("a",))
        assert [r.oid for r in loaded] == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(
            loaded[2].distances, records[2].distances
        )

    def test_load_missing_returns_empty(self, tmp_path):
        storage = self.make(tmp_path)
        assert storage.load(("missing",)) == []

    def test_append_creates_and_extends(self, tmp_path):
        storage = self.make(tmp_path)
        storage.append((1, 2), _record(1))
        storage.append((1, 2), _record(2))
        assert [r.oid for r in storage.load((1, 2))] == [1, 2]

    def test_save_replaces(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("x",), [_record(1), _record(2)])
        storage.save(("x",), [_record(3)])
        assert [r.oid for r in storage.load(("x",))] == [3]

    def test_delete(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("x",), [_record(1)])
        storage.delete(("x",))
        assert storage.load(("x",)) == []
        with pytest.raises(StorageError):
            storage.delete(("x",))

    def test_cell_size_without_io(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("c",), [_record(i) for i in range(3)])
        reads_before = storage.reads
        assert storage.cell_size(("c",)) == 3
        assert storage.cell_size(("missing",)) == 0
        assert storage.reads == reads_before

    def test_cells_iteration_and_len(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("a",), [_record(1)])
        storage.save(("b",), [_record(2), _record(3)])
        assert sorted(storage.cells()) == [("a",), ("b",)]
        assert len(storage) == 3

    def test_accounting_counters(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("a",), [_record(1)])
        storage.load(("a",))
        assert storage.bytes_written > 0
        assert storage.bytes_read > 0
        storage.reset_accounting()
        assert storage.bytes_written == 0
        assert storage.reads == 0

    def test_save_many_charges_one_write_per_cell(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save_many(
            {("a",): [_record(1), _record(2)], ("b",): [_record(3)]}
        )
        assert [r.oid for r in storage.load(("a",))] == [1, 2]
        assert [r.oid for r in storage.load(("b",))] == [3]
        # same accounting as a loop of save() calls
        assert storage.writes == 2
        assert storage.bytes_written > 0

    def test_append_many_is_one_physical_write(self, tmp_path):
        storage = self.make(tmp_path)
        storage.append(("c",), _record(1))
        writes_before = storage.writes
        storage.append_many(("c",), [_record(2), _record(3)])
        assert [r.oid for r in storage.load(("c",))] == [1, 2, 3]
        # the whole group lands as ONE physical write — the semantic
        # the bulk-insert path's write-amplification claims rest on
        assert storage.writes == writes_before + 1

    def test_append_many_empty_group_is_noop(self, tmp_path):
        storage = self.make(tmp_path)
        storage.append_many(("c",), [])
        assert storage.writes == 0
        assert storage.load(("c",)) == []

    def test_batch_scope_groups_mutations(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("a",), [_record(1)])
        with storage.batch():
            storage.append_many(("a",), [_record(2)])
            with storage.batch():  # re-entrant
                storage.save(("b",), [_record(3)])
            storage.delete(("a",))
            # the scope's own writes are visible inside it
            assert storage.load(("a",)) == []
            assert [r.oid for r in storage.load(("b",))] == [3]
        assert sorted(storage.cells()) == [("b",)]
        assert len(storage) == 1

    def test_payloads_survive_roundtrip(self, tmp_path):
        storage = self.make(tmp_path)
        record = IndexedRecord(
            7, np.array([1, 0], dtype=np.int32), None, b"\x00\xff" * 50
        )
        storage.save(("p",), [record])
        assert storage.load(("p",))[0].payload == b"\x00\xff" * 50


class TestMemoryStorage(_StorageContract):
    def make(self, tmp_path):
        return MemoryStorage()

    def test_load_returns_copy(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("a",), [_record(1)])
        loaded = storage.load(("a",)).to_records()
        loaded.append(_record(2))
        assert len(storage.load(("a",))) == 1
        assert len(storage.load(("a",)).to_records()) == 1


class TestDiskStorage(_StorageContract):
    def make(self, tmp_path):
        return DiskStorage(tmp_path / "cells")

    @staticmethod
    def _segments(tmp_path, directory="cells"):
        return sorted(
            path.name
            for path in (tmp_path / directory).iterdir()
            if path.name != "manifest.json"
        )

    def test_files_created_on_disk(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save(("a", "b"), [_record(1)])
        assert self._segments(tmp_path) == ["seg_00000000.chk"]
        # plus the persisted catalog next to it
        assert (tmp_path / "cells" / "manifest.json").exists()

    def test_a_batch_is_one_segment(self, tmp_path):
        storage = self.make(tmp_path)
        with storage.batch():
            storage.save((1,), [_record(1)])
            storage.save((2,), [_record(2)])
            storage.append_many((1,), [_record(3)])
        assert self._segments(tmp_path) == ["seg_00000000.chk"]
        assert storage.segments == 1
        chunks = [
            chunk
            for cell in ((1,), (2,))
            for chunk in storage._catalog[cell].chunks
        ]
        assert {chunk.segment for chunk in chunks} == {"seg_00000000.chk"}
        assert len({chunk.offset for chunk in chunks}) == 3

    def test_delete_removes_file(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save((1,), [_record(1)])
        storage.delete((1,))
        # the segment that held the cell is gone; the one the delete's
        # batch sealed holds its (empty) catalog and no chunk
        assert self._segments(tmp_path) == ["seg_00000001.chk"]
        (segment,) = storage._segments.values()
        assert segment.data == segment.live == 0
        assert storage.dead_bytes == segment.size > 0
        assert (tmp_path / "cells" / "manifest.json").exists()

    def test_batch_defers_commit_and_unlinks_to_scope_exit(self, tmp_path):
        storage = self.make(tmp_path)
        with storage.batch():
            storage.save((1,), [_record(1)])
            storage.save((2,), [_record(2)])
        manifest = tmp_path / "cells" / "manifest.json"
        committed = manifest.read_bytes()
        commits = storage.manifest_writes
        with storage.batch():
            storage.save((1,), [_record(3)])
            with storage.batch():
                storage.delete((2,))
                storage.append_many((3,), [_record(4)])
            # nothing committed, nothing unlinked — inner exit included
            assert storage.manifest_writes == commits
            assert manifest.read_bytes() == committed
            assert self._segments(tmp_path) == [
                "seg_00000000.chk", "seg_00000001.chk"
            ]
        assert storage.manifest_writes == commits + 1
        # every chunk of the first segment died in the batch
        assert self._segments(tmp_path) == ["seg_00000001.chk"]
        reopened = DiskStorage(tmp_path / "cells")
        assert sorted(reopened.cells()) == [(1,), (3,)]
        assert [r.oid for r in reopened.load((1,))] == [3]

    def test_delete_then_recreate_in_one_batch(self, tmp_path):
        """A cell deleted and re-created inside one batch must leave the
        bytes the committed manifest still references alone."""
        storage = self.make(tmp_path)
        storage.save((1,), [_record(1), _record(2)])
        old_file = tmp_path / "cells" / "seg_00000000.chk"
        old_bytes = old_file.read_bytes()
        with storage.batch():
            storage.delete((1,))
            storage.save((1,), [_record(3)])
            assert old_file.read_bytes() == old_bytes
            # what a crash here would leave behind reopens to the
            # pre-batch cell, whole
            shutil.copytree(tmp_path / "cells", tmp_path / "crashed")
        crashed = DiskStorage(tmp_path / "crashed")
        assert [r.oid for r in crashed.load((1,))] == [1, 2]
        assert self._segments(tmp_path, "crashed") == [old_file.name]
        assert self._segments(tmp_path) == ["seg_00000001.chk"]
        reopened = DiskStorage(tmp_path / "cells")
        assert [r.oid for r in reopened.load((1,))] == [3]

    def test_failed_batch_body_still_commits_the_catalog(self, tmp_path):
        storage = self.make(tmp_path)
        with pytest.raises(RuntimeError):
            with storage.batch():
                storage.save((1,), [_record(1)])
                raise RuntimeError("operation failed half way")
        # memory and disk agree on what the body completed
        assert [r.oid for r in storage.load((1,))] == [1]
        reopened = DiskStorage(tmp_path / "cells")
        assert [r.oid for r in reopened.load((1,))] == [1]

    def test_flush_waits_for_an_open_batch(self, tmp_path):
        """A drain's flush runs outside the server's write lock; it must
        not commit the half-way catalog of an operation in flight."""
        storage = self.make(tmp_path)
        storage.save((1,), [_record(1)])
        inside, release = threading.Event(), threading.Event()

        def operation():
            with storage.batch():
                storage.delete((1,))
                inside.set()
                release.wait(5)
                storage.save((2,), [_record(1)])

        worker = threading.Thread(target=operation)
        worker.start()
        assert inside.wait(5)
        commits = storage.manifest_writes
        flusher = threading.Thread(target=storage.flush)
        flusher.start()
        flusher.join(0.2)
        assert flusher.is_alive()
        assert storage.manifest_writes == commits
        release.set()
        worker.join(5)
        flusher.join(5)
        assert not worker.is_alive() and not flusher.is_alive()
        assert storage.manifest_writes == commits + 2
        assert sorted(DiskStorage(tmp_path / "cells").cells()) == [(2,)]

    def test_no_tmp_files_left_behind(self, tmp_path):
        storage = self.make(tmp_path)
        storage.save_many({(i,): [_record(i)] for i in range(4)})
        storage.append_many((0,), [_record(9)])
        storage.delete((3,))
        names = [p.name for p in (tmp_path / "cells").iterdir()]
        assert not [name for name in names if name.endswith(".tmp")]


class TestAccountingParity:
    """Backend accounting parity: both backends must charge the same
    logical operations (only the *byte* counters may differ — disk
    reports physical compressed bytes)."""

    @staticmethod
    def _counters(storage):
        return (storage.reads, storage.writes)

    def _pair(self, tmp_path):
        return MemoryStorage(), DiskStorage(tmp_path / "cells")

    def test_absent_cell_load_charges_nothing(self, tmp_path):
        for storage in self._pair(tmp_path):
            assert storage.load(("nope",)) == []
            assert self._counters(storage) == (0, 0)
            assert storage.bytes_read == 0

    def test_delete_charges_one_write(self, tmp_path):
        for storage in self._pair(tmp_path):
            storage.save(("x",), [_record(1)])
            writes_before = storage.writes
            storage.delete(("x",))
            assert storage.writes == writes_before + 1

    def test_op_counters_identical_across_backends(self, tmp_path):
        def drive(storage):
            storage.save(("a",), [_record(i) for i in range(3)])
            storage.save_many({("b",): [_record(3)], ("c",): [_record(4)]})
            storage.append(("a",), _record(5))
            storage.append_many(("b",), [_record(6), _record(7)])
            storage.load(("a",))
            storage.load(("missing",))
            storage.delete(("c",))
            return (storage.reads, storage.writes)

        memory, disk = self._pair(tmp_path)
        assert drive(memory) == drive(disk)

    def test_batch_scope_leaves_accounting_unchanged(self, tmp_path):
        """``batch()`` changes when the commit happens, never what is
        charged: same reads / writes / bytes_written with and without
        the scope, on both backends."""

        def drive(storage, batched):
            with storage.batch() if batched else contextlib.nullcontext():
                storage.save_many(
                    {("a",): [_record(1), _record(2)], ("b",): [_record(3)]}
                )
                storage.append_many(("a",), [_record(4)])
                storage.load(("a",))
                storage.delete(("b",))
                storage.save(("b",), [_record(5)])
                storage.append(("c",), _record(6))
            return (storage.reads, storage.writes, storage.bytes_written)

        bare_memory = drive(MemoryStorage(), batched=False)
        assert drive(MemoryStorage(), batched=True) == bare_memory
        bare_disk = drive(DiskStorage(tmp_path / "bare"), batched=False)
        assert drive(DiskStorage(tmp_path / "batched"), True) == bare_disk
        assert bare_memory[:2] == bare_disk[:2]


class TestChunkFormat:
    def test_records_never_span_chunks(self):
        records = [_record(i) for i in range(50)]
        payload, entries = build_chunks(
            records, base_offset=0, chunk_raw_bytes=64
        )
        assert len(entries) > 1  # tiny budget forces many chunks
        assert sum(e.n_records for e in entries) == len(records)
        # the entries tile the bytes, each header saying what its entry
        # says, and each chunk inflates to whole frames
        offset = 0
        for entry in entries:
            assert entry.offset == offset
            header = payload[offset : offset + CHUNK_HEADER_SIZE]
            assert np.frombuffer(header, "<u4").tolist() == [
                entry.comp_size, entry.raw_size, entry.n_records,
            ]
            comp = payload[offset + CHUNK_HEADER_SIZE : entry.end]
            frames = chunks_module.parse_frames(zlib.decompress(comp))
            assert len(list(frames)) == entry.n_records
            offset = entry.end
        assert offset == len(payload)

    def test_multi_chunk_cell_roundtrips(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=64)
        records = [_record(i) for i in range(40)]
        storage.save((7,), records)
        assert [r.oid for r in storage.load((7,))] == list(range(40))

    def test_chunks_counts_the_chunk_index(self, tmp_path):
        """``chunks`` is how many chunks the cells are in: a rewrite
        packs a cell into full ones, every append adds at least one."""
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=200)
        assert storage.chunks == 0
        storage.save((1,), [_record(i) for i in range(20)])
        packed = storage.chunks
        assert packed == len(storage._catalog[(1,)].chunks) > 2
        for i in range(20, 25):
            storage.append((1,), _record(i))
        assert storage.chunks == packed + 5  # five one-record chunks
        storage.save((2,), [_record(99)])
        assert storage.chunks == packed + 6
        assert DiskStorage(tmp_path / "cells").chunks == packed + 6
        storage.save((1,), storage.load((1,)).to_records())
        assert storage.chunks < packed + 6  # the rewrite packed them again
        storage.delete((1,))
        assert storage.chunks == 1


class _Deflating:
    """``zlib`` as :mod:`repro.storage.chunks` sees it, with chunks
    deflated at the default level — how every commit before stored
    blocks wrote them."""

    def __getattr__(self, name):
        return getattr(zlib, name)

    @staticmethod
    def compress(data, _level):
        return zlib.compress(data)


class TestChunkEnvelope:
    """A chunk is a zlib stream of *stored* blocks: cipher tokens do not
    deflate, so none is tried. The envelope is what it was — one reader,
    its size bounds and the Adler-32 — whichever way a chunk was
    written."""

    @staticmethod
    def _squeezable(oid, size=300):
        return IndexedRecord(
            oid, np.roll(np.arange(4, dtype=np.int32), oid), None,
            bytes([oid % 251]) * size,
        )

    @staticmethod
    def _snapshot(storage):
        return {
            cell: [r.to_bytes() for r in storage.load(cell)]
            for cell in sorted(storage.cells())
        }

    @staticmethod
    def _files(directory):
        return {
            path.name: path.read_bytes()
            for path in directory.iterdir()
            if path.name != "manifest.json"
        }

    def test_deflated_and_stored_chunks_live_side_by_side(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "cells"
        cells = {
            (cell,): [self._squeezable(10 * cell + i) for i in range(8)]
            for cell in range(3)
        }
        with monkeypatch.context() as patch:
            patch.setattr(chunks_module, "zlib", _Deflating())
            DiskStorage(directory, chunk_raw_bytes=1000).save_many(cells)
        written = self._files(directory)
        (old_segment,) = written
        expected = {
            cell: [r.to_bytes() for r in records]
            for cell, records in cells.items()
        }

        # it opens and loads as it is: nothing is rewritten for being
        # deflated
        storage = DiskStorage(directory, chunk_raw_bytes=1000)
        deflated = list(storage._catalog[(0,)].chunks)
        assert len(deflated) > 1
        assert all(c.comp_size < c.raw_size // 2 for c in deflated)
        assert self._snapshot(storage) == expected
        assert self._files(directory) == written

        # an append adds stored chunks to the same cell
        extra = [self._squeezable(100 + i) for i in range(4)]
        storage.append_many((0,), extra)
        expected[(0,)] += [r.to_bytes() for r in extra]
        chunks = storage._catalog[(0,)].chunks
        assert chunks[: len(deflated)] == deflated
        stored = chunks[len(deflated):]
        assert stored and all(c.comp_size > c.raw_size for c in stored)
        assert self._snapshot(storage) == expected
        assert self._files(directory)[old_segment] == written[old_segment]

        # a cleaning pass: cells 1 and 2 are replaced, the old segment
        # is mostly dead, and cell 0's deflated chunks move — verbatim —
        # into the segment the stored ones are being written to
        for cell in ((1,), (2,)):
            cells[cell] = [self._squeezable(200 + cell[0])]
            storage.save(cell, cells[cell])
            expected[cell] = [r.to_bytes() for r in cells[cell]]
        assert old_segment not in self._files(directory)
        moved = storage._catalog[(0,)].chunks[: len(deflated)]
        assert [(c.comp_size, c.raw_size, c.n_records) for c in moved] == [
            (c.comp_size, c.raw_size, c.n_records) for c in deflated
        ]
        (newest,) = {c.segment for c in moved}
        assert storage._catalog[(2,)].chunks[0].segment == newest
        blob = self._files(directory)[newest]
        for now, was in zip(moved, deflated):
            assert (
                blob[now.offset : now.end]
                == written[old_segment][was.offset : was.end]
            )
        for opened in (storage, DiskStorage(directory)):
            assert self._snapshot(opened) == expected

    #: where the parts of a one-block stored stream lie in a chunk's
    #: zlib bytes (``n`` is their length)
    REGIONS = {
        "zlib header": lambda n: range(0, 2),
        "stored-block header": lambda n: range(2, 7),
        "body": lambda n: range(7, n - 4),
        "adler32": lambda n: range(n - 4, n),
    }

    @pytest.mark.parametrize("region", REGIONS)
    def test_any_flipped_byte_of_a_stored_chunk_is_a_storage_error(
        self, tmp_path, region
    ):
        directory = tmp_path / "cells"
        records = [_record(i) for i in range(6)]
        DiskStorage(directory).save((1,), records)
        (chunk,) = DiskStorage(directory)._catalog[(1,)].chunks
        path = directory / chunk.segment
        pristine = path.read_bytes()
        start = chunk.offset + 12
        for position in self.REGIONS[region](chunk.comp_size):
            for mask in (0x01, 0x10, 0x80, 0xFF):
                damaged = bytearray(pristine)
                damaged[start + position] ^= mask
                path.write_bytes(damaged)
                try:
                    loaded = DiskStorage(directory, cache_bytes=0).load((1,))
                except StorageError:
                    continue
                # never wrong records: the one damage that is not an
                # error is to the five bits after BFINAL and BTYPE,
                # which a stored block pads with and no inflater reads
                assert position == 2 and mask & 0x07 == 0
                assert [r.to_bytes() for r in loaded] == [
                    r.to_bytes() for r in records
                ]
        path.write_bytes(pristine)
        assert [r.oid for r in DiskStorage(directory).load((1,))] == list(
            range(6)
        )

    def test_the_envelope_costs_a_few_bytes_per_64_kib(self, tmp_path):
        """2 bytes of zlib header, 5 per stored block (of at most
        65 535 bytes), 4 of Adler-32."""
        rng = np.random.default_rng(3)

        def record(oid, size):
            return IndexedRecord(
                oid, rng.permutation(4).astype(np.int32), None, rng.bytes(size)
            )

        storage = DiskStorage(tmp_path / "cells")
        storage.save((1,), [record(i, 288) for i in range(500)])
        storage.save((2,), [record(2, 70_000), record(3, 140_000)])
        storage.append((2,), record(4, 1))
        chunks = [
            chunk
            for entry in storage._catalog.values()
            for chunk in entry.chunks
        ]
        assert len(chunks) > 5
        for chunk in chunks:
            overhead = chunk.comp_size - chunk.raw_size
            assert 11 <= overhead <= 16 + chunk.raw_size // 4096
            if chunk.raw_size <= 60_000:
                assert overhead == 11
        assert storage.bytes_written == sum(chunk.size for chunk in chunks)


class TestBlockCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = BlockCache(100)
        cache.put("f", 0, b"a" * 40)
        cache.put("f", 1, b"b" * 40)
        assert cache.get("f", 0) == b"a" * 40  # 0 is now most recent
        cache.put("f", 2, b"c" * 40)  # evicts ordinal 1 (LRU)
        assert cache.get("f", 1) is None
        assert cache.get("f", 0) is not None
        assert cache._used == 80

    def test_zero_budget_disables(self):
        cache = BlockCache(0)
        cache.put("f", 0, b"x")
        assert cache.get("f", 0) is None
        assert len(cache) == 0

    def test_oversized_value_not_cached(self):
        cache = BlockCache(10)
        cache.put("f", 0, b"x" * 11)
        assert cache.get("f", 0) is None

    def test_discard_and_rekey(self):
        cache = BlockCache(100)
        cache.put("f", 0, b"aa")
        cache.put("g", 0, b"bb")
        cache.put("g", 7, b"cc")
        cache.discard("f", 0)
        cache.discard("f", 1)  # not cached: nothing to do
        assert cache.get("f", 0) is None
        assert cache._used == 4
        # a relocated chunk keeps its bytes and its place in the
        # eviction order: ("g", 0) is still the least recently used
        cache.rekey({("g", 0): ("h", 5), ("f", 0): ("h", 9)})
        assert cache.get("g", 0) is None and cache.get("h", 9) is None
        assert list(cache._entries) == [("h", 5), ("g", 7)]
        assert cache.get("h", 5) == b"bb"
        assert cache._used == 4

    def test_disk_counters_are_exact(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=64)
        storage.save((1,), [_record(i) for i in range(20)])
        n_chunks = len(storage._catalog[(1,)].chunks)
        assert n_chunks > 1
        storage.reset_accounting()
        storage.load((1,))  # cold: every chunk misses and decompresses
        assert storage.block_cache_misses == n_chunks
        assert storage.chunks_decompressed == n_chunks
        assert storage.block_cache_hits == 0
        storage.load((1,))  # hot: every chunk hits
        assert storage.block_cache_hits == n_chunks
        assert storage.block_cache_misses == n_chunks
        # the invariant the bench reports rest on
        accesses = storage.block_cache_hits + storage.block_cache_misses
        assert accesses == 2 * n_chunks
        assert storage.chunks_decompressed == storage.block_cache_misses

    def test_cache_disabled_always_misses(self, tmp_path):
        storage = DiskStorage(
            tmp_path / "cells", chunk_raw_bytes=64, cache_bytes=0
        )
        storage.save((1,), [_record(i) for i in range(20)])
        storage.reset_accounting()
        storage.load((1,))
        storage.load((1,))
        assert storage.block_cache_hits == 0
        assert storage.chunks_decompressed == storage.block_cache_misses
        assert storage.block_cache_misses > 0

    def test_save_invalidates_cached_chunks(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
        storage.save((1,), [_record(1), _record(2)])
        storage.load((1,))  # populate the cache
        storage.save((1,), [_record(3)])  # replace the cell
        assert [r.oid for r in storage.load((1,))] == [3]

    def test_cached_load_charges_logical_read(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
        storage.save((1,), [_record(1)])
        storage.reset_accounting()
        storage.load((1,))
        storage.load((1,))  # served from cache...
        assert storage.reads == 2  # ...but still a logical read
        # physical bytes were read once (cold load only)
        assert storage.bytes_read > 0
        cold_bytes = storage.bytes_read
        storage.load((1,))
        assert storage.bytes_read == cold_bytes


class TestManifest:
    def test_manifest_is_valid_json_with_chunk_index(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=64)
        storage.save((1, 2), [_record(i) for i in range(20)])
        document = json.loads(
            (tmp_path / "cells" / "manifest.json").read_text()
        )
        assert document["version"] == 2
        (segment,) = document["segments"]
        assert segment[0] == "seg_00000000.chk"
        (cell,) = document["cells"]
        assert cell["id"] == {"t": [1, 2]}
        assert cell["count"] == 20
        assert len(cell["chunks"]) > 1
        # [segment, offset, comp_size, raw_size, n_records], end to end
        # from the start of the segment's chunk region
        offset = 0
        for index, at, comp_size, _raw_size, _n_records in cell["chunks"]:
            assert (index, at) == (0, offset)
            offset += 12 + comp_size
        assert offset == segment[1]

    def test_append_commits_manifest(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
        storage.save((1,), [_record(1)])
        storage.append_many((1,), [_record(2), _record(3)])
        document = json.loads(
            (tmp_path / "cells" / "manifest.json").read_text()
        )
        assert document["cells"][0]["count"] == 3

    def test_manifest_writes_counter(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
        storage.reset_accounting()
        storage.save_many({(i,): [_record(i)] for i in range(5)})
        assert storage.manifest_writes == 1  # one commit for the batch
        storage.save((9,), [_record(9)])
        assert storage.manifest_writes == 2
        # every bare call is a batch of one
        storage.append_many((9,), [_record(10)])
        storage.append((11,), _record(11))
        storage.delete((0,))
        assert storage.manifest_writes == 5

    def test_bulk_insert_is_one_manifest_write(self, tmp_path):
        """An index operation is one commit point, however many cells
        it touches and however often it splits (``_split`` nests its
        batch inside ``bulk_insert``'s)."""
        storage = DiskStorage(tmp_path / "cells")
        index = MIndex(6, 20, storage)
        index.bulk_insert([_record(oid, 6) for oid in range(200)])
        leaves_before = index.n_cells
        storage.reset_accounting()
        index.bulk_insert([_record(oid, 6) for oid in range(200, 1200)])
        assert index.n_cells > leaves_before  # it did split
        assert storage.writes > 50  # and touched many cells
        assert storage.manifest_writes == 1
        storage.reset_accounting()
        index.insert(_record(5000, 6))
        assert storage.manifest_writes == 1
        reopened = MIndex(6, 20, DiskStorage(tmp_path / "cells"))
        assert reopened.rebuild_from_storage() == 1201


    def test_bulk_insert_is_three_fsyncs_and_one_rename(
        self, tmp_path, monkeypatch
    ):
        """The batch is the file unit: whatever a bulk touches, its data
        is one segment synced once, then the manifest (tmp file,
        rename, directory)."""
        storage = DiskStorage(tmp_path / "cells")
        index = MIndex(6, 20, storage)
        index.bulk_insert([_record(oid, 6) for oid in range(200)])
        leaves_before = index.n_cells
        calls = {"fsync": 0, "replace": 0}
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            calls["fsync"] += 1
            return real_fsync(fd)

        def replace(src, dst):
            calls["replace"] += 1
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        storage.reset_accounting()
        index.bulk_insert([_record(oid, 6) for oid in range(200, 1200)])
        assert index.n_cells > leaves_before  # it split
        assert storage.writes > 50  # and touched many cells
        assert calls == {"fsync": 3, "replace": 1}
        index.insert(_record(5000, 6))
        assert calls == {"fsync": 6, "replace": 2}


class TestSegmentCleaning:
    """Space is the write path's own job, at its commit point."""

    @staticmethod
    def _big(oid):
        """A record whose chunk outweighs any catalog trailer here."""
        rng = np.random.default_rng(oid)
        return IndexedRecord(
            oid, rng.permutation(4).astype(np.int32), None, rng.bytes(3000)
        )

    @staticmethod
    def _files(tmp_path):
        return sorted(
            path.name
            for path in (tmp_path / "cells").iterdir()
            if path.name != "manifest.json"
        )

    def _events(self, caplog):
        return [
            (record.event, record.file)
            for record in caplog.records
            if record.name == "repro.storage"
        ]

    def test_half_dead_segment_is_cleaned_at_the_next_commit(
        self, tmp_path, caplog
    ):
        storage = DiskStorage(tmp_path / "cells")
        storage.save_many({(i,): [self._big(i)] for i in range(5)})
        storage.save((9,), [self._big(9)])
        assert self._files(tmp_path) == [
            "seg_00000000.chk", "seg_00000001.chk"
        ]
        caplog.set_level(logging.DEBUG, logger="repro.storage")
        storage.delete((0,))
        storage.delete((1,))  # segment 0 is still half live: it stays
        assert "seg_00000000.chk" in self._files(tmp_path)
        assert "segment_cleaned" not in dict(self._events(caplog))
        before = {
            cell: [r.to_bytes() for r in storage.load(cell)]
            for cell in storage.cells()
        }
        caplog.clear()
        storage.delete((2,))  # under half: the chunks of 3 and 4 move on
        assert "seg_00000000.chk" not in self._files(tmp_path)
        cleaned = [
            r for r in caplog.records if r.event == "segment_cleaned"
        ]
        (chunk,) = storage._catalog[(3,)].chunks
        (other,) = storage._catalog[(4,)].chunks
        assert other.segment == chunk.segment and other.offset == chunk.end
        assert [(r.file, r.bytes, r.levelno) for r in cleaned] == [
            ("seg_00000000.chk", chunk.size + other.size, logging.INFO)
        ]
        (commit,) = [r for r in caplog.records if r.event == "batch_commit"]
        assert commit.levelno == logging.DEBUG
        assert (commit.file, commit.cells) == (chunk.segment, 1)
        assert commit.relocated >= chunk.size + other.size
        assert commit.bytes == storage._segments[chunk.segment].size
        # the bound: every segment but the newest is at least half live
        for name, segment in storage._segments.items():
            assert name == chunk.segment or 2 * segment.live >= segment.size
        for opened in (storage, DiskStorage(tmp_path / "cells")):
            assert {
                cell: [r.to_bytes() for r in opened.load(cell)]
                for cell in opened.cells()
            } == {cell: before[cell] for cell in [(3,), (4,), (9,)]}
        assert storage.dead_bytes == sum(
            path.stat().st_size
            for path in (tmp_path / "cells").iterdir()
            if path.name != "manifest.json"
        ) - sum(
            chunk.size
            for entry in storage._catalog.values()
            for chunk in entry.chunks
        )

    def test_segment_without_a_live_chunk_is_removed(self, tmp_path, caplog):
        storage = DiskStorage(tmp_path / "cells")
        storage.save((1,), [self._big(1)])
        storage.save((2,), [self._big(2)])
        caplog.set_level(logging.INFO, logger="repro.storage")
        storage.save((1,), [self._big(3)])  # segment 0's one chunk dies
        (record,) = caplog.records
        assert (record.event, record.file, record.levelno) == (
            "segment_removed", "seg_00000000.chk", logging.INFO
        )
        assert record.bytes > 3000
        assert self._files(tmp_path) == [
            "seg_00000001.chk", "seg_00000002.chk"
        ]
        assert storage.segments == 2

    def test_relocated_chunks_stay_cached(self, tmp_path):
        """Cleaning copies compressed bytes: nothing is inflated, and
        what was cached is found at its new place."""
        storage = DiskStorage(tmp_path / "cells")
        storage.save_many({(i,): [self._big(i)] for i in range(5)})
        storage.save((9,), [self._big(9)])
        storage.load_many([(3,), (9,)])  # warm
        storage.delete((0,))
        storage.delete((1,))
        storage.reset_accounting()
        where = list(storage._catalog[(3,)].chunks)
        storage.delete((2,))  # relocates the chunks of cells 3 and 4
        assert storage._catalog[(3,)].chunks != where
        assert storage.load((3,))[0].to_bytes() == self._big(3).to_bytes()
        storage.load((9,))
        assert storage.block_cache_hits == 2
        assert storage.block_cache_misses == 0
        assert storage.chunks_decompressed == 0
        assert storage.bytes_read == 0


class TestDiskConcurrentReaders:
    def test_parallel_loads_account_exactly(self, tmp_path):
        """Any number of concurrent readers (the server's shared-lock
        search path) must keep cache and I/O accounting exact; writers
        are exclusive at the server's ReadWriteLock, which is the
        discipline the mutating methods assume."""
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=64)
        for cell in range(4):
            storage.save((cell,), [_record(cell * 10 + i) for i in range(10)])
        n_chunks = {
            cell: len(storage._catalog[(cell,)].chunks) for cell in range(4)
        }
        storage.reset_accounting()
        n_threads, n_rounds = 8, 5
        errors = []

        def reader():
            try:
                for _ in range(n_rounds):
                    for cell in range(4):
                        records = storage.load((cell,))
                        assert len(records) == 10
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        total_loads = n_threads * n_rounds * 4
        assert storage.reads == total_loads
        accesses = storage.block_cache_hits + storage.block_cache_misses
        assert accesses == n_threads * n_rounds * sum(n_chunks.values())
        assert storage.chunks_decompressed == storage.block_cache_misses
