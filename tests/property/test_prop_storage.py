"""Property-based tests for the storage backends and the channel
cost model."""

import json
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import IndexedRecord, RecordBatch
from repro.exceptions import ReproError, StorageError
from repro.net.channel import InProcessChannel
from repro.net.clock import SimulatedClock
from repro.storage import chunks as chunks_module
from repro.storage.chunks import (
    ChunkEntry,
    build_chunks,
    decode_cell,
    decompress_chunk,
    frame_record,
    parse_frames,
)
from repro.storage.disk import DiskStorage
from repro.storage.manifest import (
    MANIFEST_NAME,
    parse_manifest,
    read_trailer,
)
from repro.storage.memory import MemoryStorage

from tests.conftest import HOSTILE_U32, decode_within_bounds


def _record(spec) -> IndexedRecord:
    oid, n_pivots, payload, seed = spec
    rng = np.random.default_rng(seed)
    return IndexedRecord(
        oid,
        rng.permutation(n_pivots).astype(np.int32),
        rng.random(n_pivots),
        payload,
    )


record_specs = st.tuples(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=12),
    st.binary(max_size=80),
    st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=30, deadline=None)
@given(
    cells=st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=9)),
        st.lists(record_specs, max_size=8),
        max_size=5,
    )
)
def test_memory_and_disk_agree(cells, tmp_path_factory):
    """Both backends must return identical state for identical writes."""
    memory = MemoryStorage()
    disk = DiskStorage(tmp_path_factory.mktemp("prop-cells"))
    for cell_id, specs in cells.items():
        records = [_record(spec) for spec in specs]
        memory.save(cell_id, records)
        disk.save(cell_id, records)
    assert sorted(memory.cells()) == sorted(disk.cells())
    assert len(memory) == len(disk)
    for cell_id in cells:
        mem_records = memory.load(cell_id)
        disk_records = disk.load(cell_id)
        assert [r.oid for r in mem_records] == [r.oid for r in disk_records]
        for a, b in zip(mem_records, disk_records):
            assert a.payload == b.payload
            np.testing.assert_array_equal(a.permutation, b.permutation)
            np.testing.assert_array_equal(a.distances, b.distances)
        assert memory.cell_size(cell_id) == disk.cell_size(cell_id)


# ---------------------------------------------------------------------------
# the segment format against the dictionary

cell_ids = st.tuples(st.integers(min_value=0, max_value=5))
record_lists = st.lists(record_specs, min_size=1, max_size=6)
storage_ops = st.one_of(
    st.tuples(st.just("save"), cell_ids, st.lists(record_specs, max_size=6)),
    st.tuples(
        st.just("save_many"),
        st.dictionaries(cell_ids, record_lists, min_size=1, max_size=3),
    ),
    st.tuples(st.just("append_many"), cell_ids, record_lists),
    st.tuples(st.just("delete"), cell_ids),
)


@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.lists(storage_ops, min_size=1, max_size=5), st.booleans()),
        min_size=1,
        max_size=8,
    ),
    chunk_raw_bytes=st.sampled_from([48, 64 * 1024]),
)
def test_segments_hold_what_memory_holds_in_bounded_space(
    batches, chunk_raw_bytes, tmp_path_factory
):
    """Any sequence of saves, appends, deletes and reopens, grouped
    into batches of any size, leaves the directory equal to
    ``MemoryStorage`` cell by cell and byte by byte — and after every
    commit the directory is the manifest plus exactly the segments it
    names, at most twice the live chunk bytes plus the newest segment,
    whose trailer is the committed catalog."""
    directory = tmp_path_factory.mktemp("segments")
    memory = MemoryStorage()
    disk = DiskStorage(directory, chunk_raw_bytes=chunk_raw_bytes)
    for operations, reopen in batches:
        with disk.batch():
            for kind, *arguments in operations:
                if kind == "save_many":
                    arguments = [
                        {
                            cell: [_record(spec) for spec in specs]
                            for cell, specs in arguments[0].items()
                        }
                    ]
                elif kind == "delete":
                    if arguments[0] not in set(memory.cells()):
                        with pytest.raises(StorageError):
                            disk.delete(arguments[0])
                        continue
                else:
                    arguments[1] = [_record(spec) for spec in arguments[1]]
                for storage in (memory, disk):
                    getattr(storage, kind)(*arguments)
        if reopen:
            disk = DiskStorage(directory, chunk_raw_bytes=chunk_raw_bytes)
        assert sorted(disk.cells()) == sorted(memory.cells())
        for cell in memory.cells():
            assert [r.to_bytes() for r in disk.load(cell)] == [
                r.to_bytes() for r in memory.load(cell)
            ]
        manifest = (directory / MANIFEST_NAME).read_bytes()
        named, cells = parse_manifest(manifest)
        sizes = {
            path.name: path.stat().st_size
            for path in directory.iterdir()
            if path.name != MANIFEST_NAME
        }
        assert set(sizes) == set(named)
        live = sum(chunk.size for entry in cells for chunk in entry.chunks)
        if sizes:  # (no write yet: a fresh directory has no segment)
            newest = max(sizes)
            assert read_trailer(directory / newest) == manifest
            assert sum(sizes.values()) <= 2 * live + sizes[newest]
        assert disk.segments == len(sizes)
        assert disk.dead_bytes == sum(sizes.values()) - live


# ---------------------------------------------------------------------------
# the columnar cell against the per-record decoder


def _cell_records(flags, specs, same_pivots, same_payload_size):
    """Records of one cell: all of representation ``flags`` (1
    permutations, 2 distances, 3 both), sharing the first record's
    pivot count and payload size or not."""
    records = []
    for oid, n_pivots, payload, seed in specs:
        if same_pivots:
            n_pivots = specs[0][1]
        if same_payload_size:
            size = len(specs[0][2])
            payload = (payload * (size + 1))[:size] if payload else bytes(size)
        rng = np.random.default_rng(seed)
        records.append(
            IndexedRecord(
                oid,
                rng.permutation(n_pivots).astype(np.int32)
                if flags & 1
                else None,
                rng.random(n_pivots) if flags & 2 else None,
                payload,
            )
        )
    return records


def _assert_same_records(got, oracle):
    """Field by field, and the stored encoding byte for byte."""
    assert len(got) == len(oracle)
    for ours, theirs in zip(got, oracle):
        assert isinstance(ours, IndexedRecord)
        assert ours.oid == theirs.oid and type(ours.oid) is int
        assert ours.payload == theirs.payload
        assert type(ours.payload) is bytes
        for name in ("permutation", "distances"):
            a, b = getattr(ours, name), getattr(theirs, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert ours.to_bytes() == theirs.to_bytes()


@settings(max_examples=60, deadline=None)
@given(
    flags=st.sampled_from([1, 2, 3]),
    specs=st.lists(record_specs, max_size=10),
    same_pivots=st.booleans(),
    same_payload_size=st.booleans(),
    chunk_raw_bytes=st.integers(min_value=1, max_value=1500),
    appended=st.integers(min_value=0, max_value=10),
)
def test_columnar_cell_equals_the_frame_decoder(
    flags, specs, same_pivots, same_payload_size, chunk_raw_bytes, appended,
    tmp_path_factory,
):
    """A cell read back as columns lists exactly the records the
    per-record decoder finds in its bytes — for every representation,
    frames of one shape (the fixed-stride table) or not (decoded frame
    by frame), in one chunk or many — on disk, after a reopen, and in
    memory; and only frames that are not one shape are decoded one by
    one."""
    records = _cell_records(flags, specs, same_pivots, same_payload_size)
    raw = b"".join(frame_record(record) for record in records)
    oracle = list(parse_frames(raw))
    head = records[: len(records) - min(appended, len(records))]
    tail = records[len(head) :]

    directory = tmp_path_factory.mktemp("columnar")
    disk = DiskStorage(directory, chunk_raw_bytes=chunk_raw_bytes)
    memory = MemoryStorage()
    for storage in (disk, memory):
        storage.save(("c",), head)
        storage.append_many(("c",), tail)
    reopened = DiskStorage(directory, chunk_raw_bytes=chunk_raw_bytes)
    one_shape = len({len(frame_record(record)) for record in records}) <= 1 and (
        len({record.n_pivots for record in records}) <= 1
    )
    for cell in (
        memory.load(("c",)),
        disk.load(("c",)),
        reopened.load(("c",)),
        reopened.load_many([("c",)])[("c",)],
        decode_cell([raw], len(records)),
        decode_cell([frame_record(r) for r in records] or [b""], len(records)),
    ):
        _assert_same_records(cell.to_records(), oracle)
        _assert_same_records(list(cell), oracle)
        assert len(cell) == len(oracle)
        assert cell.oids.tolist() == [record.oid for record in oracle]
        assert list(cell.payloads) == [record.payload for record in oracle]
        if one_shape and records:
            for name, column in (
                ("permutation", cell.permutations),
                ("distances", cell.distances),
            ):
                if getattr(oracle[0], name) is None:
                    assert column is None
                else:
                    np.testing.assert_array_equal(
                        column,
                        np.stack([getattr(r, name) for r in oracle]),
                    )
    # the frame-by-frame decoder ran only where the frames differ (or
    # carry no permutation, which no cell of an index does)
    with mock.patch.object(
        chunks_module, "parse_frames", wraps=parse_frames
    ) as frame_by_frame:
        disk.load(("c",))
    assert (frame_by_frame.call_count == 0) == bool(
        one_shape and records and flags & 1
    )


# ---------------------------------------------------------------------------
# the two writers: one strided encode per group against frame by frame


def _greedy_chunks(frames, chunk_raw_bytes):
    """The chunking rule as a per-record loop — how ``build_chunks``
    was written before it framed a group in one encode: a chunk closes
    once it holds at least ``chunk_raw_bytes``. ``(raw, n_records)``
    per chunk."""
    chunks, group = [], []
    for frame in frames:
        group.append(frame)
        if sum(map(len, group)) >= chunk_raw_bytes:
            chunks.append((b"".join(group), len(group)))
            group = []
    if group:
        chunks.append((b"".join(group), len(group)))
    return chunks


@settings(max_examples=150, deadline=None)
@given(
    n_records=st.integers(min_value=1, max_value=40),
    n_pivots=st.integers(min_value=1, max_value=8),
    with_distances=st.booleans(),
    payload_size=st.integers(min_value=0, max_value=64),
    ragged=st.booleans(),
    # where the chunk boundary falls: every record oversized, a group
    # that ends exactly on it, one byte under, one over, or anywhere
    records_per_chunk=st.integers(min_value=1, max_value=41),
    boundary=st.sampled_from(["oversized", -1, 0, 1, "anywhere"]),
    anywhere=st.integers(min_value=1, max_value=5000),
    base_offset=st.integers(min_value=0, max_value=1 << 20),
)
def test_strided_and_per_record_writers_agree(
    n_records, n_pivots, with_distances, payload_size, ragged,
    records_per_chunk, boundary, anywhere, base_offset,
):
    """``build_chunks`` over a batch — uniform groups in one
    structured-array encode, anything else frame by frame — writes
    chunks that inflate to exactly the rows' ``frame_record`` bytes,
    closed at the rows where the per-record greedy loop closes them,
    whether it is handed the columns or the rows."""
    rng = np.random.default_rng(n_records * 131 + n_pivots)
    rows = [
        IndexedRecord(
            int(rng.integers(0, 2**63)) * 2 + position % 2,
            rng.permutation(n_pivots).astype(np.int32),
            rng.random(n_pivots) if with_distances else None,
            rng.bytes(payload_size + (position % 3 if ragged else 0)),
        )
        for position in range(n_records)
    ]
    frames = [frame_record(row) for row in rows]
    stride = len(frames[0])
    chunk_raw_bytes = {
        "oversized": 1,
        "anywhere": anywhere,
    }.get(boundary) or max(1, stride * records_per_chunk + boundary)
    expected = _greedy_chunks(frames, chunk_raw_bytes)

    batch = RecordBatch.of_cell(rows)
    assert batch.rows is None  # columns alone: what an index stores
    for source in (batch, rows, batch.select(np.arange(n_records))):
        payload, entries = build_chunks(
            source, base_offset=base_offset,
            chunk_raw_bytes=chunk_raw_bytes, segment="seg_0.chk",
        )
        assert [
            (entry.raw_size, entry.n_records) for entry in entries
        ] == [(len(raw), count) for raw, count in expected]
        offset = base_offset
        for entry, (raw, _count) in zip(entries, expected):
            assert entry.offset == offset and entry.segment == "seg_0.chk"
            start = offset - base_offset
            assert struct.unpack_from("<III", payload, start) == (
                entry.comp_size, entry.raw_size, entry.n_records,
            )
            comp = payload[start + 12 : start + entry.size]
            assert decompress_chunk(comp, entry) == raw
            offset = entry.end
        assert offset - base_offset == len(payload)
    # and what was written reads back as the rows
    raws = [raw for raw, _count in expected]
    assert [r.to_bytes() for r in decode_cell(raws, n_records)] == [
        row.to_bytes() for row in rows
    ]


# ---------------------------------------------------------------------------
# hostile bytes: a raw cell buffer and a chunk-index entry nobody here wrote


def _uniform_cell(flags, n_records=6, n_pivots=5, payload_size=16):
    return _cell_records(
        flags,
        [(oid, n_pivots, bytes([oid]) * payload_size, oid) for oid in range(n_records)],
        True,
        True,
    )


@pytest.mark.parametrize("flags", [1, 2, 3])
def test_forged_cell_bytes_fail_typed_and_bounded(flags):
    """Every 32-bit field of a raw cell buffer forged in turn, every
    truncation and a flip of every bit of the first frame: the cell
    decoder returns records or raises a ``ReproError`` in memory bounded
    by the buffer, and what it returns is what the per-record decoder
    returns for the same bytes."""
    records = _uniform_cell(flags)
    raw = b"".join(frame_record(record) for record in records)
    stride = len(raw) // len(records)

    def check(damaged, n_records=len(records)):
        try:
            oracle = list(parse_frames(damaged))
        except ReproError:
            oracle = None

        def decode():
            cell = decode_cell([damaged], n_records)
            # bytes the per-record decoder refuses are never accepted
            assert oracle is not None
            _assert_same_records(cell.to_records(), oracle)

        decode_within_bounds(decode, len(damaged))

    check(raw)
    for position in range(0, len(raw) - 3):
        for value in HOSTILE_U32:
            forged = bytearray(raw)
            struct.pack_into("<I", forged, position, value)
            check(bytes(forged))
    for cut in range(len(raw)):
        check(raw[:cut])
    for bit in range(8 * stride):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        check(bytes(flipped))
    # a record count the chunk index made up
    for n_records in (0, 1, 2, 3, 5, 7, 12, *HOSTILE_U32):
        check(raw, n_records)
    with pytest.raises(StorageError, match="promises 4294967295 records"):
        decode_cell([raw], 0xFFFFFFFF)
    with pytest.raises(StorageError, match="promises 5 records"):
        decode_cell([raw], 5)


def test_forged_chunk_index_entries_fail_typed_and_bounded(tmp_path):
    """``manifest.json`` is read, not trusted: each field of a chunk
    index entry (offset, compressed size, raw size, record count) forged
    to each hostile value gives a ``ReproError`` — or the right records,
    where the field is not needed to find them — without allocating by
    it."""
    records = _uniform_cell(3, n_records=40, payload_size=64)
    storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=512)
    storage.save(("c",), records)
    oracle = [record.to_bytes() for record in records]
    manifest_path = tmp_path / "cells" / MANIFEST_NAME
    manifest = manifest_path.read_text()
    (cell,) = json.loads(manifest)["cells"]
    assert len(cell["chunks"]) > 2
    size_on_disk = sum(
        path.stat().st_size for path in (tmp_path / "cells").iterdir()
    )
    for chunk in (0, len(cell["chunks"]) - 1):
        for field in range(4):
            for value in [0, 1, 7, *HOSTILE_U32]:
                forged = json.loads(manifest)
                forged["cells"][0]["chunks"][chunk][field] = value
                manifest_path.write_text(json.dumps(forged))

                def read():
                    reopened = DiskStorage(tmp_path / "cells")
                    got = reopened.load(("c",)).to_records()
                    assert [record.to_bytes() for record in got] == oracle

                # (opening a directory has fixed costs of its own)
                decode_within_bounds(read, size_on_disk, slack=256 * 1024)
    manifest_path.write_text(manifest)


def test_inflate_is_bounded_by_the_promised_size():
    """A chunk never inflates past one byte more than its index entry
    promises, and overrun, leftover input and a short result are each a
    ``StorageError``."""
    raw = bytes(1 << 20)
    bomb = zlib.compress(raw)  # about a kilobyte
    assert len(bomb) < 2048

    def entry(raw_size):
        return ChunkEntry(0, len(bomb), raw_size, 1)

    assert decompress_chunk(bomb, entry(len(raw))) == raw
    for promised in (0, 1, 100, len(raw) - 1):
        tracemalloc.start()
        with pytest.raises(StorageError, match="does not decompress to"):
            decompress_chunk(bomb, entry(promised))
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # (a buffer grown by doubling is briefly held twice)
        assert peak <= 2 * promised + 64 * 1024
    with pytest.raises(StorageError, match="does not decompress to"):
        decompress_chunk(bomb, entry(len(raw) + 1))  # short of the promise
    with pytest.raises(StorageError, match="does not decompress to"):
        decompress_chunk(bomb[:-4], entry(len(raw)))  # stream cut short
    with pytest.raises(StorageError, match="3 bytes past"):
        decompress_chunk(bomb + b"abc", entry(len(raw)))
    with pytest.raises(StorageError, match="corrupt"):
        decompress_chunk(b"not zlib at all", entry(5))


@settings(max_examples=50, deadline=None)
@given(
    latency=st.floats(min_value=0.0, max_value=1.0),
    bandwidth=st.floats(min_value=1.0, max_value=1e9),
    request_size=st.integers(min_value=0, max_value=10_000),
    response_size=st.integers(min_value=0, max_value=10_000),
)
def test_channel_cost_model_exact(
    latency, bandwidth, request_size, response_size
):
    """Communication time is exactly 2*latency + bytes/bandwidth."""
    clock = SimulatedClock()
    channel = InProcessChannel(
        lambda data: b"r" * response_size,
        latency=latency,
        bandwidth=bandwidth,
        clock=clock,
    )
    channel.request(b"q" * request_size)
    expected = 2 * latency + (request_size + response_size) / bandwidth
    assert channel.communication_time == pytest.approx(expected, rel=1e-9)
    assert channel.bytes_total == request_size + response_size
    assert clock.now() == pytest.approx(expected, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=5_000), min_size=1, max_size=10
    )
)
def test_channel_accounting_additive(sizes):
    """Byte and time accounting accumulate linearly over requests."""
    channel = InProcessChannel(
        lambda data: data, latency=1e-3, bandwidth=1e6
    )
    for size in sizes:
        channel.request(b"x" * size)
    assert channel.requests == len(sizes)
    assert channel.bytes_total == 2 * sum(sizes)
    expected_time = len(sizes) * 2e-3 + 2 * sum(sizes) / 1e6
    assert channel.communication_time == pytest.approx(expected_time)
