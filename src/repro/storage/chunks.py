"""Chunks, the cell encoder and decoder, and the LRU block cache.

A cell's records live in independent *chunks*, so a point ``load``
reads only the chunks of that cell and an append writes just the new
group. A chunk is self-delimiting::

    chunk := u32 comp_len | u32 raw_len | u32 n_records | zlib bytes

``raw`` is a concatenation of the usual length-prefixed record frames;
a record never spans two chunks, so every chunk decodes independently.
The zlib bytes are a stream of *stored* blocks (level 0): what a frame
holds beside its oid and permutation is an AES-CTR token, which does
not deflate — level 6 bought a ratio of 0.77–0.84 on a build's real
chunk bytes for a third of the bulk's wall time, and inflating was over
half of a range query's storage time (``docs/BENCHMARKS.md``, PR 24).
The stream is kept for what else it gives: its Adler-32 turns a flipped
byte into a :class:`StorageError`, and :func:`decompress_chunk` with its
size bounds is the one reader of every chunk, stored by this code or
deflated by an earlier commit, side by side in one cell or one segment.
Chunks of many cells share one *segment* file — what one storage batch
wrote, in the order it wrote it, then the batch's catalog as a trailer
(:mod:`repro.storage.manifest`). Where a chunk lies is the catalog's
business: a :class:`ChunkEntry` names the file, the offset and the
sizes, and nothing in a segment's data region says which cell a chunk
belongs to (CoZip's layout: the index is written after the data, not
repeated in local headers).

The directory format before segments — one file per cell, a header
carrying the cell id and then that cell's chunks — is still *read*,
once, to convert a directory on open: :func:`read_file_header` and
:func:`scan_chunks` are its no-manifest reader, :func:`encode_file_header`
its writer (kept for the tests that build such a directory).

:class:`BlockCache` is the byte-budgeted LRU of chunks' *raw* bytes —
frame bytes out of the envelope and checked, not decoded records —
keyed by where the chunk lies, so a relocated chunk is re-keyed, not
lost.

Frames are written a group at a time and decoded a cell at a time, by
the same rule in both directions. When every frame has the shape of the
first and carries a permutation — every group and every cell of an
index over equal-sized objects — the bytes are one fixed-stride table
(:func:`_frame_dtype`): :func:`build_chunks` fills it from a batch's
columns in one structured-array encode, :func:`decode_cell` takes the
columns back as strided views of it, each shape field of each frame
checked against the first frame's before use. Anything else goes frame
by frame: :func:`frame_record` writes, :func:`parse_frames` reads.
Sizes and counts that come from the chunk index are checked against the
bytes present before anything is sized from them.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from repro.core.records import IndexedRecord, RecordBatch
from repro.exceptions import StorageError
from repro.wire.encoding import BlobColumn

__all__ = [
    "BlockCache",
    "ChunkEntry",
    "CHUNK_HEADER_SIZE",
    "DEFAULT_CHUNK_RAW_BYTES",
    "build_chunks",
    "decode_cell",
    "decompress_chunk",
    "encode_file_header",
    "frame_record",
    "parse_frames",
    "read_file_header",
    "scan_chunks",
]

_LEN = struct.Struct("<I")
_CHUNK_HEADER = struct.Struct("<III")  # comp_len, raw_len, n_records
CHUNK_HEADER_SIZE = _CHUNK_HEADER.size

#: target raw bytes per chunk — small enough that a point lookup never
#: reads and checks much more than it needs, large enough that the
#: 12-byte header, the envelope's 11 and the chunk's catalog entry are
#: noise beside it
DEFAULT_CHUNK_RAW_BYTES = 64 * 1024


@dataclass(frozen=True)
class ChunkEntry:
    """Location and shape of one chunk inside a file."""

    offset: int  # file offset of the chunk header
    comp_size: int  # bytes of the zlib stream (header excluded)
    raw_size: int  # frame bytes inside it
    n_records: int  # record frames inside
    segment: str = ""  # name of the file the chunk lies in

    @property
    def size(self) -> int:
        """Bytes the chunk takes in its file, header included."""
        return _CHUNK_HEADER.size + self.comp_size

    @property
    def end(self) -> int:
        """File offset one past the chunk's last byte."""
        return self.offset + self.size


# -- record framing (format-independent) --------------------------------


def frame_record(record: IndexedRecord) -> bytes:
    """Length-prefixed standalone encoding of one record."""
    blob = record.to_bytes()
    return _LEN.pack(len(blob)) + blob


def parse_frames(blob: bytes) -> Iterator[IndexedRecord]:
    """Decode a concatenation of record frames."""
    offset = 0
    total = len(blob)
    while offset < total:
        if offset + _LEN.size > total:
            raise StorageError("cell file truncated (frame header)")
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if offset + length > total:
            raise StorageError("cell file truncated (frame body)")
        yield IndexedRecord.from_bytes(blob[offset : offset + length])
        offset += length


#: the smallest frame: prefix, oid, flags, one one-element array and an
#: empty payload
_MIN_FRAME_BYTES = 4 + 8 + 1 + (4 + 4) + 4


@lru_cache(maxsize=64)
def _frame_dtype(
    n_permutation: int, n_distances: int, payload_size: int
) -> np.dtype:
    """One frame with a permutation, distances unless ``n_distances``
    is 0, and a payload, as a packed structured dtype."""
    fields: list[tuple] = [
        ("size", "<u4"),
        ("oid", "<u8"),
        ("flags", "u1"),
        ("n_permutation", "<u4"),
        ("permutation", "<i4", (n_permutation,)),
    ]
    if n_distances:
        fields += [
            ("n_distances", "<u4"),
            ("distances", "<f8", (n_distances,)),
        ]
    fields += [("payload_size", "<u4"), ("payload", "u1", (payload_size,))]
    return np.dtype(fields)


def _uniform_table(raw: bytes, n_records: int) -> np.ndarray | None:
    """``raw`` as a table of ``n_records`` frames shaped like the first,
    or None when it is not one — the caller then decodes frame by frame.

    The shape (frame size, flags, array lengths, payload size) is read
    off the first frame, every step bounds-checked against the stride
    ``len(raw) / n_records`` before the next read; then each of those
    fields must hold the same value in every frame.
    """
    stride, uneven = divmod(len(raw), n_records)
    if uneven:
        return None
    flags = raw[12]
    if flags not in (1, 3):
        # no permutation column (or no valid flags): the index stores
        # none of these, and a batch would hand such records back with
        # permutations derived, which is not what the frames say
        return None
    shape = {"size": stride - _LEN.size, "flags": flags}
    offset = 13
    for bit, name, item in ((1, "n_permutation", 4), (2, "n_distances", 8)):
        if flags & bit:
            if offset + _LEN.size > stride:
                return None
            (shape[name],) = _LEN.unpack_from(raw, offset)
            if shape[name] == 0:
                return None
            offset += _LEN.size + item * shape[name]
    shape["payload_size"] = stride - offset - _LEN.size
    if shape["payload_size"] < 0:
        return None
    table = np.frombuffer(
        raw,
        dtype=_frame_dtype(
            shape["n_permutation"],
            shape.get("n_distances", 0),
            shape["payload_size"],
        ),
    )
    for name, value in shape.items():
        if not (table[name] == value).all():
            return None
    return table


def decode_cell(chunks: list[bytes], n_records: int) -> RecordBatch:
    """The ``n_records`` records framed in ``chunks`` — a cell's raw
    bytes, chunk by chunk — as columns, decoded once for the cell.

    ``n_records`` comes from the chunk index, so it is held against the
    bytes before use: more records than the bytes could frame is a
    :class:`StorageError`, and so is a frame-by-frame decode that finds
    another number.
    """
    raw = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    if n_records * _MIN_FRAME_BYTES > len(raw):
        raise StorageError(
            f"chunk index promises {n_records} records in {len(raw)} bytes"
        )
    table = _uniform_table(raw, n_records) if n_records else None
    if table is not None:
        return RecordBatch.from_columns(
            table["oid"],
            table["permutation"],
            table["distances"] if "distances" in table.dtype.names else None,
            BlobColumn(table["payload"]),
        )
    records = list(parse_frames(raw))
    if len(records) != n_records:
        raise StorageError(
            f"chunk index promises {n_records} records, the cell "
            f"frames {len(records)}"
        )
    return RecordBatch.of_cell(records)


# -- chunks ------------------------------------------------------------


def _uniform_frames(batch: RecordBatch) -> tuple[np.ndarray, int] | None:
    """The frames of ``batch`` end to end, as a byte array, and the
    size of one, from one structured-array encode — the mirror of
    :func:`_uniform_table`, over the same :func:`_frame_dtype` — or None
    when the batch is not a table: no permutation column, or payloads
    of several sizes."""
    permutations, distances = batch.permutations, batch.distances
    payloads = batch.payloads.matrix
    if permutations is None or payloads is None:
        return None
    n_distances = 0 if distances is None else distances.shape[1]
    table = np.empty(
        len(batch),
        dtype=_frame_dtype(
            permutations.shape[1], n_distances, payloads.shape[1]
        ),
    )
    table["size"] = table.itemsize - _LEN.size
    table["oid"] = batch.oids
    table["flags"] = 3 if n_distances else 1
    table["n_permutation"] = permutations.shape[1]
    table["permutation"] = permutations
    if n_distances:
        table["n_distances"] = n_distances
        table["distances"] = distances
    table["payload_size"] = payloads.shape[1]
    table["payload"] = payloads
    return table.view(np.uint8), table.itemsize


def build_chunks(
    records: "RecordBatch | list[IndexedRecord]",
    *,
    base_offset: int,
    chunk_raw_bytes: int = DEFAULT_CHUNK_RAW_BYTES,
    segment: str = "",
) -> tuple[bytes, list[ChunkEntry]]:
    """Frame ``records`` into chunk bytes starting at ``base_offset``
    of the file ``segment``.

    A group whose frames are one shape — every group an index over
    equal-sized objects writes — is framed in one strided encode;
    any other frame by frame (:func:`frame_record`). Frames are packed
    greedily: a chunk closes once it holds at least ``chunk_raw_bytes``
    of raw frame bytes, so a frame never spans two chunks and an
    oversized record simply gets a chunk of its own. Returns the
    concatenated ``header|payload`` chunk bytes and their index entries
    (offsets are absolute, i.e. shifted by ``base_offset``).
    """
    if chunk_raw_bytes <= 0:
        raise StorageError(
            f"chunk size must be positive, got {chunk_raw_bytes}"
        )
    batch = RecordBatch.of_cell(records)
    uniform = _uniform_frames(batch) if len(batch) else None
    if uniform is not None:
        raw, stride = uniform
        ends = np.arange(1, len(batch) + 1) * stride
    else:
        frames = [frame_record(record) for record in batch.to_records()]
        raw = b"".join(frames)
        ends = np.cumsum(np.fromiter(map(len, frames), np.int64, len(frames)))
    pieces: list[bytes] = []
    entries: list[ChunkEntry] = []
    offset = base_offset
    row = start = 0
    while row < len(ends):
        # the first frame to bring the chunk to ``chunk_raw_bytes``
        # closes it; the last chunk takes what is left
        last = min(
            int(np.searchsorted(ends, start + chunk_raw_bytes)), len(ends) - 1
        )
        end = int(ends[last])
        # level 0, stored blocks: the envelope without the match search
        comp = zlib.compress(raw[start:end], 0)
        shape = len(comp), end - start, last + 1 - row
        pieces += (_CHUNK_HEADER.pack(*shape), comp)
        entries.append(ChunkEntry(offset, *shape, segment))
        offset += _CHUNK_HEADER.size + len(comp)
        row, start = last + 1, end
    return b"".join(pieces), entries


def decompress_chunk(comp: bytes, entry: ChunkEntry) -> bytes:
    """Inflate one chunk's zlib stream — stored blocks, or deflated
    ones from an earlier commit — into at most ``raw_size + 1`` bytes:
    a chunk that inflates past the size its index entry promises, stops
    short of it, leaves input behind or fails its Adler-32 is refused
    before it can cost more memory than that."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(comp, entry.raw_size + 1)
    except zlib.error as exc:
        raise StorageError(
            f"cell chunk at offset {entry.offset} is corrupt: {exc}"
        ) from exc
    if len(raw) != entry.raw_size or not inflater.eof:
        raise StorageError(
            f"cell chunk at offset {entry.offset} does not decompress to "
            f"the {entry.raw_size} bytes the chunk index promises"
        )
    if inflater.unused_data:
        raise StorageError(
            f"cell chunk at offset {entry.offset} carries "
            f"{len(inflater.unused_data)} bytes past its compressed stream"
        )
    return raw


# -- per-cell files: the directory format before segments --------------

#: first bytes of a per-cell file, then its format version byte
_PER_CELL_MAGIC = b"RXCF"
_PER_CELL_VERSION = 2


def encode_file_header(id_json: bytes) -> bytes:
    """Header bytes for a per-cell file carrying ``id_json``."""
    return (
        _PER_CELL_MAGIC
        + bytes([_PER_CELL_VERSION])
        + _LEN.pack(len(id_json))
        + id_json
    )


def read_file_header(blob: bytes) -> tuple[bytes, int]:
    """(cell id JSON, header length) of a per-cell file's first bytes."""
    base = len(_PER_CELL_MAGIC)
    if blob[:base] != _PER_CELL_MAGIC:
        raise StorageError("not a per-cell chunk file (bad magic)")
    if len(blob) < base + 1 + _LEN.size:
        raise StorageError("per-cell chunk file truncated (header)")
    version = blob[base]
    if version != _PER_CELL_VERSION:
        raise StorageError(
            f"unsupported cell file format version {version}"
        )
    (id_len,) = _LEN.unpack_from(blob, base + 1)
    header_len = base + 1 + _LEN.size + id_len
    if len(blob) < header_len:
        raise StorageError("per-cell chunk file truncated (cell id)")
    id_json = blob[base + 1 + _LEN.size : header_len]
    return id_json, header_len


def scan_chunks(
    blob: bytes, start: int, segment: str = ""
) -> tuple[list[ChunkEntry], int]:
    """A per-cell file's chunk index, by walking chunk headers from
    ``start`` (no manifest, no decompression). That format appended in
    place, so a crash could tear a tail: scanning stops at the last
    complete chunk and returns the offset one past it."""
    entries: list[ChunkEntry] = []
    offset = start
    total = len(blob)
    while offset < total:
        if offset + _CHUNK_HEADER.size > total:
            break  # torn chunk header
        comp_len, raw_len, n_records = _CHUNK_HEADER.unpack_from(
            blob, offset
        )
        if offset + _CHUNK_HEADER.size + comp_len > total:
            break  # torn chunk body
        entries.append(
            ChunkEntry(offset, comp_len, raw_len, n_records, segment)
        )
        offset += _CHUNK_HEADER.size + comp_len
    end = entries[-1].end if entries else start
    return entries, end


# -- the block cache ----------------------------------------------------


class BlockCache:
    """Byte-budgeted LRU cache of chunks' raw frame bytes.

    Keys are ``(file name, offset)`` — where the chunk lies; values are
    the chunk's raw frame bytes, read out of its zlib stream and
    checked once. The budget counts raw bytes, so the cache's memory
    footprint is bounded whether a chunk was stored or deflated. A
    zero budget disables caching (every lookup misses),
    mirroring the client-side candidate cache's opt-out. Callers provide
    their own locking — :class:`~repro.storage.disk.DiskStorage`
    serializes all cache access under its accounting mutex.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise StorageError(
                f"cache budget must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._entries: OrderedDict[tuple[str, int], bytes] = OrderedDict()
        self._used = 0

    def get(self, file_name: str, offset: int) -> bytes | None:
        """The cached raw chunk, or ``None`` on a miss."""
        raw = self._entries.get((file_name, offset))
        if raw is None:
            return None
        self._entries.move_to_end((file_name, offset))
        return raw

    def put(self, file_name: str, offset: int, raw: bytes) -> None:
        """Insert a chunk's raw bytes, evicting least-recently-used ones."""
        if self.capacity_bytes == 0 or len(raw) > self.capacity_bytes:
            return
        key = (file_name, offset)
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._used -= len(previous)
        self._entries[key] = raw
        self._used += len(raw)
        while self._used > self.capacity_bytes:
            _evicted_key, evicted = self._entries.popitem(last=False)
            self._used -= len(evicted)

    def discard(self, file_name: str, offset: int) -> None:
        """Drop one chunk (its cell was replaced or deleted)."""
        raw = self._entries.pop((file_name, offset), None)
        if raw is not None:
            self._used -= len(raw)

    def rekey(self, moved: dict[tuple[str, int], tuple[str, int]]) -> None:
        """Chunks were copied verbatim from the ``moved`` keys to their
        values: the cached bytes follow them, each keeping its place in
        the eviction order."""
        if any(key in self._entries for key in moved):
            self._entries = OrderedDict(
                (moved.get(key, key), raw)
                for key, raw in self._entries.items()
            )

    def __len__(self) -> int:
        return len(self._entries)
