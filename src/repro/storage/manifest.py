"""The persisted cell catalog of the disk backend.

``manifest.json`` lives next to the cell files and maps every cell id
to its file name, storage format, record count, valid byte length and
(for chunked files) the per-file chunk index. It is what makes a
:class:`~repro.storage.disk.DiskStorage` *restart-aware*: reopening a
directory reconstructs the catalog without touching a single cell
file.

Every write is atomic — the new manifest is written to a sibling
``*.tmp`` file, fsynced, and moved into place with :func:`os.replace`
— so a crash at any instant leaves either the old or the new manifest,
never a torn one. Mutating operations persist their data file *before*
the manifest, which makes the manifest the commit point: whatever it
describes is guaranteed to be on disk, and bytes it does not describe
(a torn tail from a crashed append, an orphaned replacement file) are
ignored on reopen.

Cell ids are JSON-encoded structurally: scalars (int, float, str,
bool, None) map to their JSON forms, tuples to ``{"t": [...]}`` —
nested arbitrarily. That covers every id the M-Index produces
(permutation-prefix tuples of ints) and everything the test-suite
contract exercises; unsupported types fail loudly at save time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable

from repro.exceptions import StorageError
from repro.storage.chunks import FORMAT_CHUNKED, FORMAT_LEGACY, ChunkEntry

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "CellEntry",
    "atomic_write_bytes",
    "decode_cell_id",
    "encode_cell_id",
    "read_manifest",
    "render_manifest",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


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
    """Catalog state of one cell: where and how its records live."""

    cell_id: Hashable
    file_name: str
    fmt: int  # FORMAT_LEGACY (raw frames) or FORMAT_CHUNKED
    count: int  # records in the cell
    size: int  # valid byte length (bytes past it are torn appends)
    generation: int  # bumped on every full rewrite of the cell
    chunks: list[ChunkEntry] = field(default_factory=list)

    def as_dict(self) -> dict:
        entry = {
            "id": encode_cell_id(self.cell_id),
            "file": self.file_name,
            "format": self.fmt,
            "count": self.count,
            "size": self.size,
            "generation": self.generation,
        }
        if self.fmt == FORMAT_CHUNKED:
            entry["chunks"] = [chunk.as_list() for chunk in self.chunks]
        return entry

    @classmethod
    def from_dict(cls, data: dict) -> "CellEntry":
        try:
            fmt = data["format"]
            if fmt not in (FORMAT_LEGACY, FORMAT_CHUNKED):
                raise StorageError(
                    f"unknown storage format {fmt!r} in manifest"
                )
            chunks = [
                ChunkEntry.from_list(values)
                for values in data.get("chunks", [])
            ]
            entry = cls(
                cell_id=decode_cell_id(data["id"]),
                file_name=data["file"],
                fmt=fmt,
                count=data["count"],
                size=data["size"],
                generation=data.get("generation", 0),
                chunks=chunks,
            )
        except (KeyError, TypeError) as exc:
            raise StorageError(f"malformed manifest entry: {exc}") from exc
        if (
            not isinstance(entry.file_name, str)
            or not isinstance(entry.count, int)
            or not isinstance(entry.size, int)
            or not isinstance(entry.generation, int)
            or entry.count < 0
            or entry.size < 0
        ):
            raise StorageError(f"malformed manifest entry {data!r}")
        if any(chunk.end > entry.size for chunk in chunks):
            # a reader sizes its file reads by the chunk index
            raise StorageError(
                f"manifest entry for {entry.file_name} indexes a chunk "
                f"past the {entry.size} bytes it commits"
            )
        return entry


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Crash-safe file write: tmp sibling + fsync + ``os.replace``.

    A reader concurrent with a crash sees either the complete old file
    or the complete new one. The directory entry is fsynced too (best
    effort — not every platform allows opening directories), so the
    rename itself survives power loss.
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


def render_manifest(entries: list[CellEntry]) -> bytes:
    """Serialized manifest for :func:`atomic_write_bytes`."""
    document = {
        "version": MANIFEST_VERSION,
        "cells": [entry.as_dict() for entry in entries],
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def read_manifest(directory: Path) -> list[CellEntry] | None:
    """Parse ``directory``'s manifest.

    Returns ``None`` when no manifest exists (a fresh or legacy
    directory) and raises :class:`StorageError` when one exists but is
    corrupt — the disk backend turns both into the scavenging fallback
    where recovery is possible.
    """
    path = directory / MANIFEST_NAME
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return None
    try:
        document = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"storage manifest is corrupt: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("version") != MANIFEST_VERSION
        or not isinstance(document.get("cells"), list)
    ):
        raise StorageError(
            "storage manifest is corrupt (bad version or structure)"
        )
    return [CellEntry.from_dict(entry) for entry in document["cells"]]
