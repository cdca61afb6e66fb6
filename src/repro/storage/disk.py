"""Crash-safe, restart-aware file-backed bucket storage.

Each Voronoi cell is one file of independently compressed chunks
(:mod:`repro.storage.chunks`, format version 2), and a persisted
manifest (:mod:`repro.storage.manifest`) maps cell ids to file name,
record count and per-file chunk index. Reopening a directory
reconstructs the full catalog from the manifest — so
``MIndex.rebuild_from_storage`` after a process restart sees every
cell, which is the durability story the paper's "CoPhIR on disk"
configuration rests on.

Write protocol (the manifest is the commit point, one per batch):

Every mutation runs inside a :meth:`DiskStorage.batch` scope — a bare
``save``/``save_many``/``append_many``/``delete`` call is a batch of
one, and the M-Index wraps each index operation (an insert with its
splits, a whole bulk, a delete) in one. Inside the scope data files are
written and fsynced immediately; what is *deferred* to scope exit is
the manifest commit and every unlink of a file the operation made
stale. Scope exit is: one atomic manifest write, then the unlinks.

* ``save``/``save_many`` build the whole replacement file in memory
  and write it to a *new-generation* file name via tmp + fsync +
  ``os.replace``; the old generation joins the deferred unlinks.
* ``append``/``append_many`` compress just the new tail chunk(s) and
  fsync the data file in place, past the committed byte length.
* ``delete`` drops the catalog entry; its file joins the deferred
  unlinks, so the committed manifest never references a missing file.

A crash before the commit reopens to exactly the pre-batch state: the
old manifest still references every old-generation and deleted file
(none was unlinked), torn append tails beyond each entry's committed
length are truncated, and new-generation files no manifest mentions
are swept as orphans. A crash after the commit reopens to the
post-batch state; stale files whose unlink did not happen are swept
the same way. There is no state in between, and the scope exits —
commits — before the operation is acknowledged.

Reads go through a byte-budgeted LRU :class:`BlockCache` of
decompressed chunks (raw frame bytes), with exact ``block_cache_hits``
/ ``block_cache_misses`` / ``chunks_decompressed`` counters next to the
classic I/O accounting. A read hands a cell back as columns — one
decode per cell over its chunks' bytes end to end, no object per record
(:func:`~repro.storage.chunks.decode_cell`).

Legacy directories written by the seed's format (raw frame files, no
manifest) are scavenged on open: chunked files are self-describing,
and legacy cell ids are recovered exactly by hashing candidate
permutation prefixes against the file name (see
:func:`~repro.storage.chunks.recover_legacy_cell_id`). Legacy files
stay readable in place and are upgraded to the chunked format on their
next full rewrite.

Thread safety: catalog, cache and counter state are guarded by one
mutex, so any number of concurrent readers (the batched query engine
runs one thread per query) observe exact accounting. Mutating
operations additionally assume the *exclusive-writer* discipline the
server enforces at its ``ReadWriteLock`` — inserts/deletes never run
concurrently with each other or with reads (asserted in the storage
contract tests). A batch holds a re-entrant writer lock from entry to
commit, which is what lets ``flush`` (called by a drain, outside the
server's lock) wait for an operation in flight.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Hashable, Iterator, Mapping

from repro.core.records import IndexedRecord, RecordBatch
from repro.exceptions import StorageError
from repro.storage.chunks import (
    DEFAULT_CHUNK_RAW_BYTES,
    FORMAT_CHUNKED,
    FORMAT_LEGACY,
    BlockCache,
    ChunkEntry,
    build_chunks,
    cell_digest,
    decode_cell,
    decompress_chunk,
    encode_file_header,
    frame_record,
    is_chunked_blob,
    parse_frames,
    read_file_header,
    recover_legacy_cell_id,
    scan_chunks,
)
from repro.storage.manifest import (
    MANIFEST_NAME,
    CellEntry,
    atomic_write_bytes,
    decode_cell_id,
    encode_cell_id,
    read_manifest,
    render_manifest,
)

__all__ = ["DEFAULT_CACHE_BYTES", "DiskStorage"]

#: what recovery did on reopen, one record per repair (``event``,
#: ``file`` and ``bytes`` ride as ``extra`` fields); a clean reopen
#: logs nothing
_LOG = logging.getLogger("repro.storage")

#: default byte budget of the decompressed-chunk LRU cache
DEFAULT_CACHE_BYTES = 16 * 1024 * 1024

_CHUNK_HEADER_SIZE = 12  # struct <III> — see repro.storage.chunks
_CHUNKED_NAME = re.compile(r"^cell_[0-9a-f]{24}\.g(\d+)\.chk$")
_LEGACY_NAME = re.compile(r"^cell_([0-9a-f]{24})\.bin$")


class DiskStorage:
    """Chunk-compressed, manifest-backed disk storage with a block cache.

    Parameters
    ----------
    directory:
        Storage directory; created if missing, reopened (catalog and
        chunk indexes restored) if it already holds a manifest or
        legacy cell files.
    chunk_raw_bytes:
        Target uncompressed bytes per chunk (~64 KiB default).
    cache_bytes:
        Byte budget of the decompressed-chunk LRU cache; ``0`` disables
        caching (every chunk access is a counted miss).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        chunk_raw_bytes: int = DEFAULT_CHUNK_RAW_BYTES,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        if chunk_raw_bytes <= 0:
            raise StorageError(
                f"chunk size must be positive, got {chunk_raw_bytes}"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._chunk_raw = int(chunk_raw_bytes)
        self._catalog: dict[Hashable, CellEntry] = {}
        self._lock = threading.Lock()
        self.block_cache = BlockCache(cache_bytes)
        self.bytes_written = 0
        self.bytes_read = 0
        self.reads = 0
        self.writes = 0
        self.block_cache_hits = 0
        self.block_cache_misses = 0
        self.chunks_decompressed = 0
        self.manifest_writes = 0
        # batch scope state, owned by whoever holds the writer lock
        self._writer = threading.RLock()
        self._batch_depth = 0
        self._uncommitted = False
        self._stale_files: list[str] = []
        self._retired: dict[Hashable, int] = {}
        self._open_directory()

    # -- core interface (mirrors MemoryStorage) -------------------------

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group the mutations of one operation into one commit.

        Re-entrant; only the outermost exit commits. Data files are
        written and fsynced as the body runs, the manifest commit and
        the unlinks of stale files happen once on exit (see the module
        docstring). The exit commits even when the body raised: the
        in-memory catalog already describes the body's completed
        writes and later operations build on it, so disk must not lag.
        """
        with self._writer:
            self._batch_depth += 1
            try:
                yield
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._uncommitted:
                    self._commit()

    def save(self, cell_id: Hashable, records: list[IndexedRecord]) -> None:
        """Store (replace) the record list of a cell, atomically."""
        with self.batch():
            self._save_one(cell_id, list(records))

    def save_many(
        self, cells: Mapping[Hashable, list[IndexedRecord]]
    ) -> None:
        """Store (replace) several cells in one call.

        Each cell is still one file and charges one physical write —
        the same accounting as a loop of :meth:`save` calls — but the
        whole call is one :meth:`batch`, so the bulk loader's many-cell
        persist is one commit point, not one per cell.
        """
        with self.batch():
            for cell_id, records in cells.items():
                self._save_one(cell_id, list(records))

    def append(self, cell_id: Hashable, record: IndexedRecord) -> None:
        """Append one record to a cell, creating it if missing."""
        self.append_many(cell_id, [record])

    def append_many(
        self, cell_id: Hashable, records: list[IndexedRecord]
    ) -> None:
        """Append a group of records to a cell in one physical write.

        The group is compressed into new tail chunk(s) and lands
        through a single file open + write + fsync, charged as one
        physical write — the bulk-insert path's amortization over
        per-record :meth:`append`. Cached chunks of the cell stay
        valid (appends never rewrite existing chunks). Appends to a
        legacy-format cell keep its raw-frame layout so the file
        remains readable by its original format.
        """
        if not records:
            return
        with self.batch():
            self._append_group(cell_id, list(records))

    def _append_group(
        self, cell_id: Hashable, records: list[IndexedRecord]
    ) -> None:
        """:meth:`append_many`'s write, inside the open batch."""
        with self._lock:
            entry = self._catalog.get(cell_id)
        if entry is None:
            # a fresh cell: identical to a save of the group
            self._save_one(cell_id, records)
            return
        path = self._dir / entry.file_name
        if entry.fmt == FORMAT_LEGACY:
            payload = b"".join(frame_record(record) for record in records)
            new_chunks: list[ChunkEntry] = []
        else:
            payload, new_chunks = build_chunks(
                records,
                base_offset=entry.size,
                chunk_raw_bytes=self._chunk_raw,
            )
        try:
            with open(path, "r+b") as handle:
                handle.seek(entry.size)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
        except FileNotFoundError as exc:
            raise StorageError(
                f"cell file missing for {cell_id!r}"
            ) from exc
        with self._lock:
            entry.count += len(records)
            entry.size += len(payload)
            entry.chunks.extend(new_chunks)
            self.bytes_written += len(payload)
            self.writes += 1
        self._uncommitted = True

    def load(self, cell_id: Hashable) -> RecordBatch:
        """Read back the records of a cell, as columns (an empty batch
        if absent).

        Only the cell's own chunks are decompressed, and of those only
        the ones not already in the block cache; a load of an absent
        cell touches no disk and charges nothing. The cell's frames are
        decoded once, over its chunks' raw bytes end to end
        (:func:`~repro.storage.chunks.decode_cell`): a search reads the
        columns and no record object is built; ``.to_records()`` gives
        rows to whoever wants them.
        """
        return self._read_cells([cell_id])[cell_id]

    def load_many(self, cell_ids) -> dict:
        """Chunk-aware prefetch of many cells in one batch.

        Returns ``{cell_id: batch}`` for every requested cell (an empty
        batch for absent ones). Equivalent to a :meth:`load` loop — the
        same cache probes, the same ``block_cache_hits`` /
        ``block_cache_misses`` / ``chunks_decompressed`` /
        ``bytes_read`` / ``reads`` totals, the same cache contents
        afterwards — but with a batched I/O schedule: every missing
        chunk across all requested cells is read in one pass ordered by
        (file, offset) — sequential disk movement instead of per-cell
        seek order. (Per-chunk accounting is charged per cell, in
        request order, exactly as the loop would.)
        """
        return self._read_cells(list(dict.fromkeys(cell_ids)))

    def _read_cells(self, cell_ids: list) -> dict:
        """The one read path: :meth:`load` is it for one cell,
        :meth:`load_many` for several."""
        results: dict = {}
        legacy: list[tuple] = []
        # (cell_id, file_name, chunks, cached, missing) per chunked
        # cell, in request order
        plans: list[tuple] = []
        with self._lock:
            for cell_id in cell_ids:
                entry = self._catalog.get(cell_id)
                if entry is None:
                    results[cell_id] = RecordBatch.of_cell([])
                    continue
                if entry.fmt == FORMAT_LEGACY:
                    legacy.append(
                        (cell_id, entry.file_name, entry.size, entry.count)
                    )
                    continue
                # probe the cache for every chunk first (hits counted
                # at probe time); only the missing ones are read
                chunks = list(entry.chunks)
                cached: list[bytes | None] = [
                    self.block_cache.get(entry.file_name, ordinal)
                    for ordinal in range(len(chunks))
                ]
                missing = [
                    ordinal
                    for ordinal, raw in enumerate(cached)
                    if raw is None
                ]
                self.block_cache_hits += len(chunks) - len(missing)
                plans.append(
                    (cell_id, entry.file_name, chunks, cached, missing)
                )
        for cell_id, file_name, size, count in legacy:  # raw frames
            blob = self._read_exact(self._dir / file_name, 0, size, cell_id)
            results[cell_id] = decode_cell([blob], count)
            with self._lock:
                self.bytes_read += size
                self.reads += 1
        # one read pass over all missing chunks, in on-disk order
        read_plan = [
            (position, ordinal)
            for position, plan in enumerate(plans)
            for ordinal in plan[4]
        ]
        read_plan.sort(
            key=lambda item: (
                plans[item[0]][1],
                plans[item[0]][2][item[1]].offset,
            )
        )
        comps: list[bytes] = []
        entries = []
        handle = None
        current_file = None
        try:
            for position, ordinal in read_plan:
                cell_id, file_name, chunks, _cached, _missing = plans[position]
                chunk = chunks[ordinal]
                if file_name != current_file:
                    if handle is not None:
                        handle.close()
                        handle = None
                    try:
                        handle = open(self._dir / file_name, "rb")
                    except FileNotFoundError as exc:
                        raise StorageError(
                            f"cell file missing for {cell_id!r}"
                        ) from exc
                    current_file = file_name
                handle.seek(chunk.offset + _CHUNK_HEADER_SIZE)
                comp = handle.read(chunk.comp_size)
                if len(comp) != chunk.comp_size:
                    raise StorageError(
                        f"cell file truncated for {cell_id!r}: chunk "
                        f"at offset {chunk.offset} is incomplete"
                    )
                comps.append(comp)
                entries.append(chunk)
        finally:
            if handle is not None:
                handle.close()
        raw_map = dict(zip(read_plan, map(decompress_chunk, comps, entries)))
        with self._lock:
            for position, plan in enumerate(plans):
                _cell_id, file_name, chunks, cached, missing = plan
                for ordinal in missing:
                    raw = raw_map[(position, ordinal)]
                    self.block_cache_misses += 1
                    self.chunks_decompressed += 1
                    self.bytes_read += chunks[ordinal].comp_size
                    self.block_cache.put(file_name, ordinal, raw)
                    cached[ordinal] = raw
            self.reads += len(plans)
        for cell_id, _file_name, chunks, cached, _missing in plans:
            results[cell_id] = decode_cell(
                cached, sum(chunk.n_records for chunk in chunks)
            )
        return results

    def delete(self, cell_id: Hashable) -> None:
        """Remove a cell and its file; charged as one physical write."""
        with self.batch():
            with self._lock:
                entry = self._catalog.pop(cell_id, None)
                if entry is None:
                    raise StorageError(f"cell {cell_id!r} does not exist")
                self.block_cache.invalidate_file(entry.file_name)
                self.writes += 1
            # the file goes only after the manifest that forgets it: a
            # crash in between leaves an orphan (cleaned on reopen),
            # never a dangling reference
            self._stale_files.append(entry.file_name)
            self._retired[cell_id] = entry.generation
            self._uncommitted = True

    def cell_size(self, cell_id: Hashable) -> int:
        """Number of records in a cell (from the catalog, no I/O)."""
        with self._lock:
            entry = self._catalog.get(cell_id)
            return 0 if entry is None else entry.count

    def cells(self) -> Iterator[Hashable]:
        """Iterate over existing cell ids (a catalog snapshot)."""
        with self._lock:
            return iter(list(self._catalog.keys()))

    def __len__(self) -> int:
        """Total number of stored records."""
        with self._lock:
            return sum(entry.count for entry in self._catalog.values())

    @property
    def chunks(self) -> int:
        """Chunk-index entries in the catalog: with ``len(self)``, how
        full the chunks are — appends add a chunk per group, however
        small, until the cell is next rewritten."""
        with self._lock:
            return sum(len(entry.chunks) for entry in self._catalog.values())

    def flush(self) -> None:
        """Recommit the manifest — the durability point of this backend.

        Every write path already commits before acknowledging, so this
        exists for the graceful-drain protocol: after a drain the
        on-disk manifest provably reflects every acknowledged write.
        Waits for a batch still open on another thread, so it never
        commits an operation's half-way catalog.
        """
        with self._writer:
            self._commit()

    def reset_accounting(self) -> None:
        """Zero the I/O, cache and manifest counters."""
        with self._lock:
            self.bytes_written = 0
            self.bytes_read = 0
            self.reads = 0
            self.writes = 0
            self.block_cache_hits = 0
            self.block_cache_misses = 0
            self.chunks_decompressed = 0
            self.manifest_writes = 0

    # -- restart / recovery ---------------------------------------------

    def _open_directory(self) -> None:
        """Restore the catalog from the manifest, or scavenge without one.

        Reopen order: stray ``*.tmp`` files from interrupted atomic
        writes are removed; a readable manifest is validated entry by
        entry (torn tails beyond each entry's valid length are
        truncated away — the crashed-append case); an absent or
        corrupt manifest falls back to scavenging every ``cell_*``
        file, CoZip-style; finally, cell files the catalog does not
        reference (new generations of a crashed batch, stale files
        whose unlink did not happen) are unlinked and a fresh manifest
        is committed when anything changed or none existed.
        """
        for stray in self._dir.glob("*.tmp"):
            self._remove(stray, "tmp_removed", "stray temporary file")
        dirty = False
        try:
            entries = read_manifest(self._dir)
        except StorageError as exc:
            entries = None  # corrupt manifest: fall back to scavenging
            _LOG.warning(
                "manifest of %s unreadable, scavenging cell files: %s",
                self._dir, exc,
                extra={
                    "event": "manifest_fallback",
                    "file": MANIFEST_NAME,
                    "error": str(exc),
                },
            )
        if entries is not None:
            for entry in entries:
                self._validate_entry(entry)
                self._catalog[entry.cell_id] = entry
        else:
            cell_files = [
                path
                for path in self._dir.iterdir()
                if path.name.startswith("cell_")
            ]
            if cell_files:
                self._scavenge(cell_files)
            # a fresh directory gets its (empty) manifest before any
            # batch runs: were the first batch to crash with none on
            # disk, reopening would scavenge its uncommitted files
            dirty = True
        referenced = {
            entry.file_name for entry in self._catalog.values()
        }
        for path in self._dir.iterdir():
            if (
                path.name.startswith("cell_")
                and path.name not in referenced
            ):
                self._remove(path, "orphan_removed", "unreferenced cell file")
                dirty = True
        if dirty:
            self._commit()

    @staticmethod
    def _remove(path: Path, event: str, what: str) -> None:
        size = path.stat().st_size
        path.unlink()
        _LOG.info(
            "removed %s %s (%d bytes)", what, path.name, size,
            extra={"event": event, "file": path.name, "bytes": size},
        )

    @staticmethod
    def _truncate(path: Path, size: int, actual: int) -> None:
        """Cut a torn tail: bytes a crashed append left past ``size``."""
        os.truncate(path, size)
        _LOG.info(
            "truncated torn tail of %s: %d bytes past the committed %d",
            path.name, actual - size, size,
            extra={
                "event": "tail_truncated",
                "file": path.name,
                "bytes": actual - size,
            },
        )

    def _validate_entry(self, entry: CellEntry) -> None:
        """Check one manifest entry against the file system, repairing
        torn tails (bytes past the entry's committed length)."""
        path = self._dir / entry.file_name
        try:
            actual = path.stat().st_size
        except FileNotFoundError as exc:
            raise StorageError(
                f"manifest references missing cell file "
                f"{entry.file_name}"
            ) from exc
        if actual < entry.size:
            raise StorageError(
                f"cell file {entry.file_name} holds {actual} bytes, "
                f"manifest promises {entry.size}"
            )
        if actual > entry.size:
            self._truncate(path, entry.size, actual)

    def _scavenge(self, cell_files: list[Path]) -> None:
        """Rebuild the catalog from cell files alone (no manifest).

        Chunked files are self-describing (cell id in the header, chunk
        index recoverable by scanning chunk headers); legacy raw-frame
        files get their cell id back by hashing candidate permutation
        prefixes against the file name. When several generations of
        one cell survive a crash, the highest generation wins; losers
        are removed by the orphan sweep that follows.
        """
        best: dict[Hashable, CellEntry] = {}
        for path in sorted(cell_files):
            blob = path.read_bytes()
            if is_chunked_blob(blob):
                entry = self._scavenge_chunked(path, blob)
            else:
                entry = self._scavenge_legacy(path, blob)
            current = best.get(entry.cell_id)
            if current is None or entry.generation > current.generation:
                best[entry.cell_id] = entry
        self._catalog = dict(best)

    def _scavenge_chunked(self, path: Path, blob: bytes) -> CellEntry:
        id_json, header_len = read_file_header(blob)
        try:
            cell_id = decode_cell_id(json.loads(id_json.decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StorageError(
                f"chunked cell file {path.name} carries an unreadable "
                f"cell id: {exc}"
            ) from exc
        chunks, end = scan_chunks(blob, header_len)
        if end < len(blob):
            self._truncate(path, end, len(blob))
        match = _CHUNKED_NAME.match(path.name)
        generation = int(match.group(1)) if match else 0
        return CellEntry(
            cell_id=cell_id,
            file_name=path.name,
            fmt=FORMAT_CHUNKED,
            count=sum(chunk.n_records for chunk in chunks),
            size=end,
            generation=generation,
            chunks=chunks,
        )

    def _scavenge_legacy(self, path: Path, blob: bytes) -> CellEntry:
        match = _LEGACY_NAME.match(path.name)
        if match is None:
            raise StorageError(
                f"unrecognized cell file {path.name} (neither chunked "
                "format nor legacy naming)"
            )
        records = list(parse_frames(blob))
        cell_id = recover_legacy_cell_id(match.group(1), records)
        if cell_id is None:
            raise StorageError(
                f"cannot recover the cell id of legacy file "
                f"{path.name}: no permutation prefix of its records "
                "hashes to the file name"
            )
        return CellEntry(
            cell_id=cell_id,
            file_name=path.name,
            fmt=FORMAT_LEGACY,
            count=len(records),
            size=len(blob),
            generation=-1,  # any chunked rewrite supersedes it
            chunks=[],
        )

    # -- write-path helpers ----------------------------------------------

    def _save_one(
        self, cell_id: Hashable, records: list[IndexedRecord]
    ) -> None:
        """Write one cell's replacement file inside the open batch; the
        file it supersedes is unlinked after the manifest commit."""
        with self._lock:
            old = self._catalog.get(cell_id)
        # A cell deleted earlier in this batch still has its file on
        # disk and in the committed manifest: never reuse that name.
        generation = 1 + max(
            -1 if old is None else old.generation,
            self._retired.get(cell_id, -1),
        )
        id_json = json.dumps(
            encode_cell_id(cell_id), separators=(",", ":")
        ).encode("utf-8")
        header = encode_file_header(id_json)
        payload, chunks = build_chunks(
            records,
            base_offset=len(header),
            chunk_raw_bytes=self._chunk_raw,
        )
        file_bytes = header + payload
        file_name = f"cell_{cell_digest(cell_id)}.g{generation}.chk"
        atomic_write_bytes(self._dir / file_name, file_bytes)
        entry = CellEntry(
            cell_id=cell_id,
            file_name=file_name,
            fmt=FORMAT_CHUNKED,
            count=len(records),
            size=len(file_bytes),
            generation=generation,
            chunks=chunks,
        )
        with self._lock:
            self._catalog[cell_id] = entry
            if old is not None:
                self.block_cache.invalidate_file(old.file_name)
            self.bytes_written += len(file_bytes)
            self.writes += 1
        if old is not None:
            self._stale_files.append(old.file_name)
        self._uncommitted = True

    def _commit(self) -> None:
        """The storage commit point: atomically persist the catalog,
        then unlink the files it no longer references."""
        with self._lock:
            entries = sorted(
                self._catalog.values(), key=lambda entry: entry.file_name
            )
            blob = render_manifest(entries)
        atomic_write_bytes(self._dir / MANIFEST_NAME, blob)
        with self._lock:
            self.manifest_writes += 1
        stale, self._stale_files = self._stale_files, []
        self._retired.clear()
        self._uncommitted = False
        if stale:
            referenced = {entry.file_name for entry in entries}
            for file_name in stale:
                if file_name not in referenced:
                    (self._dir / file_name).unlink(missing_ok=True)

    def _read_exact(
        self, path: Path, offset: int, length: int, cell_id: Hashable
    ) -> bytes:
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                blob = handle.read(length)
        except FileNotFoundError as exc:
            raise StorageError(
                f"cell file missing for {cell_id!r}"
            ) from exc
        if len(blob) != length:
            raise StorageError(
                f"cell file truncated for {cell_id!r}: expected "
                f"{length} bytes at offset {offset}, got {len(blob)}"
            )
        return blob
