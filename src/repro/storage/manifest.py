"""The persisted cell catalog of the disk backend, in its two homes.

The catalog says which segment files hold live chunks (name and the
byte length of the chunk region) and, per cell, the record count and
the chunk index — ``[segment, offset, comp_size, raw_size, n_records]``
per chunk, ``segment`` an index into the segment list. One rendering
(:func:`render_manifest`, JSON, version 2) is written twice by every
storage batch:

* as the *trailer* of the segment the batch wrote —
  ``catalog | u32 length | u32 crc32 | tail magic`` after the last
  chunk, synced with the data by the segment's one ``fsync``;
* as ``manifest.json``, atomically (:func:`atomic_write_bytes`) — the
  commit point. Data is synced before the manifest that references it,
  so whatever ``manifest.json`` describes is on disk, and a segment it
  does not name is debris of a batch that never committed.

A reader that finds ``manifest.json`` missing or unacceptable falls
back to the trailer of the highest-numbered segment that has a valid
one (:func:`read_trailer`) — the same bytes through the same parser, no
replay. The highest-numbered segment is never unlinked, so the newest
trailer is the committed catalog.

:func:`parse_manifest` trusts nothing it reads: every file name must
match the segment name pattern (no separator, no ``..``) before anyone
``stat``s it, every number is a non-negative integer below 2**63, a
cell's count equals the records its chunks hold, no cell id and no
(segment, offset) appears twice, and every chunk ends inside its
segment's committed length. Anything else is a :class:`StorageError`.
Version 1 — one ``cell_<digest>.g<generation>.chk`` file per cell —
parses to the same shape (each per-cell file a "segment" of its own),
which is what lets :class:`~repro.storage.disk.DiskStorage` convert such
a directory by relocating its chunks in one batch.

Cell ids are JSON-encoded structurally: scalars (int, float, str,
bool, None) map to their JSON forms, tuples to ``{"t": [...]}`` —
nested arbitrarily. That covers every id the M-Index produces
(permutation-prefix tuples of ints) and everything the test-suite
contract exercises; unsupported types fail loudly at save time.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Mapping

from repro.exceptions import StorageError
from repro.storage.chunks import ChunkEntry

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "PER_CELL_NAME",
    "SEGMENT_NAME",
    "CellEntry",
    "atomic_write_bytes",
    "decode_cell_id",
    "encode_cell_id",
    "parse_manifest",
    "read_trailer",
    "render_manifest",
    "segment_name",
    "trailer",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 2

#: the only file names a manifest may carry (matched with ``fullmatch``)
SEGMENT_NAME = re.compile(r"seg_(\d{8,18})\.chk")
PER_CELL_NAME = re.compile(r"cell_[0-9a-f]{24}\.g(\d{1,18})\.chk")

_TRAILER = struct.Struct("<II4s")  # catalog length, crc32, tail magic
_TRAILER_MAGIC = b"RXSG"


def segment_name(number: int) -> str:
    """File name of segment ``number``."""
    return f"seg_{number:08d}.chk"


def encode_cell_id(cell_id: Hashable):
    """JSON-encodable structural form of a cell id."""
    if isinstance(cell_id, tuple):
        return {"t": [encode_cell_id(element) for element in cell_id]}
    if cell_id is None or isinstance(cell_id, (bool, int, float, str)):
        return cell_id
    raise StorageError(
        f"cell id {cell_id!r} of type {type(cell_id).__name__} cannot "
        "be persisted in the storage manifest"
    )


def decode_cell_id(encoded) -> Hashable:
    """Inverse of :func:`encode_cell_id` (exact round-trip)."""
    if isinstance(encoded, dict):
        if set(encoded) != {"t"} or not isinstance(encoded["t"], list):
            raise StorageError(f"malformed manifest cell id {encoded!r}")
        return tuple(decode_cell_id(element) for element in encoded["t"])
    if encoded is None or isinstance(encoded, (bool, int, float, str)):
        return encoded
    raise StorageError(f"malformed manifest cell id {encoded!r}")


@dataclass
class CellEntry:
    """Catalog state of one cell: how many records, in which chunks."""

    cell_id: Hashable
    count: int = 0
    chunks: list[ChunkEntry] = field(default_factory=list)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Crash-safe file write: tmp sibling + fsync + ``os.replace``.

    A reader concurrent with a crash sees either the complete old file
    or the complete new one. The directory entry is fsynced too (best
    effort — not every platform allows opening directories), so the
    rename itself — and the directory entry of the segment the manifest
    now names — survives power loss.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:  # pragma: no cover - platform dependent
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(dir_fd)


def render_manifest(
    segments: Mapping[str, int], cells: Iterable[CellEntry]
) -> bytes:
    """The catalog's bytes: ``segments`` maps each named file to the
    length of its chunk region, ``cells`` index chunks inside them."""
    index = {name: position for position, name in enumerate(segments)}
    document = {
        "version": MANIFEST_VERSION,
        "segments": [[name, size] for name, size in segments.items()],
        "cells": [
            {
                "id": encode_cell_id(entry.cell_id),
                "count": entry.count,
                "chunks": [
                    [index[c.segment], c.offset, c.comp_size, c.raw_size,
                     c.n_records]
                    for c in entry.chunks
                ],
            }
            for entry in cells
        ],
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _natural(value) -> int:
    """``value`` if it is a size, offset or count; booleans and anything
    a 64-bit file system could not mean are not."""
    if type(value) is not int or not 0 <= value < 1 << 63:
        raise StorageError(f"malformed manifest number {value!r}")
    return value


def _file_name(name, pattern: re.Pattern) -> str:
    if not isinstance(name, str) or pattern.fullmatch(name) is None:
        raise StorageError(
            f"manifest names {name!r}, which is not a data file of a "
            "storage directory"
        )
    return name


def _chunk(values, segment: str) -> ChunkEntry:
    offset, comp_size, raw_size, n_records = map(_natural, values)
    return ChunkEntry(offset, comp_size, raw_size, n_records, segment)


def _read_v2(document: dict) -> tuple[dict[str, int], list[CellEntry]]:
    segments: dict[str, int] = {}
    for name, size in document["segments"]:
        if _file_name(name, SEGMENT_NAME) in segments:
            raise StorageError(f"manifest lists segment {name} twice")
        segments[name] = _natural(size)
    names = list(segments)
    cells = []
    for data in document["cells"]:
        chunks = []
        for index, *values in data["chunks"]:
            if _natural(index) >= len(names):
                raise StorageError(
                    f"manifest chunk in unlisted segment {index}"
                )
            chunks.append(_chunk(values, names[index]))
        cells.append(
            CellEntry(decode_cell_id(data["id"]), data["count"], chunks)
        )
    return segments, cells


def _read_v1(document: dict) -> tuple[dict[str, int], list[CellEntry]]:
    """A per-cell directory's manifest: each cell's file is a segment."""
    segments: dict[str, int] = {}
    cells = []
    for data in document["cells"]:
        name = _file_name(data["file"], PER_CELL_NAME)
        if name in segments:
            raise StorageError(f"manifest gives {name} to two cells")
        segments[name] = _natural(data["size"])
        chunks = [_chunk(values, name) for values in data["chunks"]]
        cells.append(
            CellEntry(decode_cell_id(data["id"]), data["count"], chunks)
        )
    return segments, cells


def parse_manifest(blob: bytes) -> tuple[dict[str, int], list[CellEntry]]:
    """``(segments, cells)`` of a catalog's bytes — what
    :func:`render_manifest` took — or :class:`StorageError`.

    Purely a parse: no file is looked at (the caller holds each named
    segment against the file system), nothing is written.
    """
    try:
        document = json.loads(blob.decode("utf-8"))
        version = document["version"]
        if version == MANIFEST_VERSION:
            segments, cells = _read_v2(document)
        elif version == 1:
            segments, cells = _read_v1(document)
        else:
            raise StorageError(f"unknown manifest version {version!r}")
    except (
        UnicodeDecodeError, KeyError, TypeError, ValueError, RecursionError
    ) as exc:  # JSONDecodeError is a ValueError
        raise StorageError(f"storage manifest is corrupt: {exc!r}") from exc
    seen_cells: set = set()
    seen_chunks: set = set()
    for entry in cells:
        if entry.cell_id in seen_cells:
            raise StorageError(
                f"manifest lists cell {entry.cell_id!r} twice"
            )
        seen_cells.add(entry.cell_id)
        records = sum(chunk.n_records for chunk in entry.chunks)
        if _natural(entry.count) != records:
            raise StorageError(
                f"manifest counts {entry.count} records in cell "
                f"{entry.cell_id!r}, its chunks hold {records}"
            )
        for chunk in entry.chunks:
            # a reader sizes its file reads by the chunk index
            if chunk.end > segments[chunk.segment]:
                raise StorageError(
                    f"manifest indexes a chunk past the "
                    f"{segments[chunk.segment]} bytes {chunk.segment} commits"
                )
            if (chunk.segment, chunk.offset) in seen_chunks:
                raise StorageError(
                    f"manifest indexes offset {chunk.offset} of "
                    f"{chunk.segment} twice"
                )
            seen_chunks.add((chunk.segment, chunk.offset))
    return segments, cells


def trailer(catalog: bytes) -> bytes:
    """What seals a segment: the catalog and how to find it from the
    file's end."""
    return catalog + _TRAILER.pack(
        len(catalog), zlib.crc32(catalog), _TRAILER_MAGIC
    )


def read_trailer(path: Path) -> bytes:
    """The catalog bytes a sealed segment ends with, or
    :class:`StorageError` (never sealed, cut short, or damaged)."""
    with open(path, "rb") as handle:
        start = handle.seek(0, os.SEEK_END) - _TRAILER.size
        if start < 0:
            raise StorageError(f"{path.name} has no trailer")
        handle.seek(start)
        length, crc, magic = _TRAILER.unpack(handle.read(_TRAILER.size))
        if magic != _TRAILER_MAGIC or length > start:
            raise StorageError(f"{path.name} has no trailer")
        handle.seek(start - length)
        catalog = handle.read(length)
    if zlib.crc32(catalog) != crc:
        raise StorageError(f"the trailer of {path.name} is damaged")
    return catalog
