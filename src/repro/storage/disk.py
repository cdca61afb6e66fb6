"""Crash-safe, restart-aware file-backed bucket storage.

A storage directory holds ``manifest.json`` and *segment* files
``seg_<n>.chk``, nothing else. A segment is what one batch wrote: the
chunks (:mod:`repro.storage.chunks` — record frames in a zlib envelope
of stored blocks) of every cell the batch touched, one after the
other, then the batch's catalog as a trailer
(:mod:`repro.storage.manifest`). A Voronoi cell's records are the chunks
the catalog lists for it, in order, wherever they lie. Reopening
restores the catalog from the manifest without touching a segment — so
``MIndex.rebuild_from_storage`` after a restart sees every cell, the
durability story the paper's "CoPhIR on disk" configuration rests on.

Write protocol — the batch is the commit unit *and* the file unit.
Every mutation runs inside a :meth:`DiskStorage.batch` scope: a bare
``save``/``save_many``/``append_many``/``delete`` is a batch of one, and
the M-Index wraps each index operation (an insert with its splits, a
whole bulk, a delete) in one. The first write of a batch opens the next
segment; ``append_many`` adds a cell's new chunks to it, ``save`` the
cell's replacement chunks (the ones it had are dead from then on),
``delete`` only forgets the cell. Written bytes are flushed, not
synced, so the batch reads its own writes. The outermost scope exit

1. *cleans*: every committed segment whose live chunks are under half
   its bytes has them copied — chunk bytes, as they are, stored or
   deflated by an earlier commit — to the open segment;
2. *seals*: appends the post-batch catalog as the trailer and syncs the
   segment — the batch's one data ``fsync``;
3. *commits*: writes ``manifest.json`` atomically;
4. unlinks every segment left without a live chunk (cleaned ones
   included) except the one just sealed, whose trailer is the fallback
   catalog.

Three ``fsync`` calls a batch (segment, manifest, directory), whatever
it touched. A committed segment is immutable: no in-place append, no
torn tail, no rewrite by rename. A crash before step 3 reopens to
exactly the pre-batch state (the old manifest names only old segments,
none was unlinked; the new one is an orphan and is swept), a crash
after it to the post-batch state (segments whose unlink did not happen
are swept the same way). The scope exits — commits — before the
operation is acknowledged.

Step 1 bounds space with no background work: after a commit every
segment but the newest is at least half live, so the directory is at
most twice its live chunk bytes plus one segment. Catalog trailers count
as dead bytes, which is what folds a run of small batches into one
file. The price is bytes copied (``docs/BENCHMARKS.md``, PR 23).

Reopen order: a file of an earlier format refuses the directory before
anything is touched — any ``cell_*`` file (the seed's
``cell_<sha1>.bin``, or the per-cell format's ``cell_<digest>.g<k>.chk``)
or a version-1 manifest; ``manifest.json`` is parsed and every segment
it names held against the file system; if it is missing or
unacceptable, the trailer of the highest-numbered segment that has a
valid one is the catalog (``manifest_fallback``); then stray ``*.tmp``
files and segments the catalog does not name are removed.

Writes take columns: ``append_many`` / ``save`` / ``save_many`` are
handed a :class:`~repro.core.records.RecordBatch` (a record list is
turned into one), framed a group at a time
(:func:`~repro.storage.chunks.build_chunks`). Reads go through a
byte-budgeted LRU :class:`BlockCache` of chunks' raw bytes — out of the
envelope, Adler-32 checked — keyed by where the chunk lies, with exact
``block_cache_hits`` / ``block_cache_misses`` / ``chunks_decompressed``
counters next to the classic I/O accounting. A read hands a cell back
as columns — one decode per cell over its chunks' bytes end to end
(:func:`~repro.storage.chunks.decode_cell`).

Transitions are logged on ``repro.storage`` (``event`` and its numbers
as ``extra`` fields): ``batch_commit`` at DEBUG; ``segment_cleaned``,
``segment_removed`` and what a reopen repaired
(``tmp_removed``, ``orphan_removed``) at INFO; ``manifest_fallback`` at
WARNING. A clean reopen logs nothing.

Thread safety: catalog, cache and counter state are guarded by one
mutex, so any number of concurrent readers observe exact accounting.
Mutating operations additionally assume the *exclusive-writer*
discipline the server enforces at its ``ReadWriteLock`` — inserts and
deletes never run concurrently with each other or with reads. A batch
holds a re-entrant writer lock from entry to commit, which is what lets
``flush`` (called by a drain, outside the server's lock) wait for an
operation in flight.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterator, Mapping

from repro.core.records import IndexedRecord, RecordBatch, stored_cell
from repro.exceptions import StorageError
from repro.storage.chunks import (
    CHUNK_HEADER_SIZE,
    DEFAULT_CHUNK_RAW_BYTES,
    BlockCache,
    ChunkEntry,
    build_chunks,
    decode_cell,
    decompress_chunk,
)
from repro.storage.manifest import (
    MANIFEST_NAME,
    SEGMENT_NAME,
    CellEntry,
    atomic_write_bytes,
    encode_cell_id,
    parse_manifest,
    read_trailer,
    render_manifest,
    segment_name,
    trailer,
)

__all__ = ["DEFAULT_CACHE_BYTES", "DiskStorage"]

_LOG = logging.getLogger("repro.storage")

#: default byte budget of the raw-chunk LRU cache
DEFAULT_CACHE_BYTES = 16 * 1024 * 1024


def _event(level: int, event: str, message: str, *args, **fields) -> None:
    _LOG.log(level, message, *args, extra={"event": event, **fields})


def _number(name: str) -> int:
    """``n`` of ``seg_<n>.chk``."""
    return int(SEGMENT_NAME.fullmatch(name).group(1))


def _old_format(path: Path) -> StorageError:
    """The refusal of a directory an earlier version wrote, naming the
    file that shows it."""
    if path.suffix == ".bin":
        return StorageError(
            f"{path} is in the seed's cell_<sha1>.bin format, which is no "
            "longer read"
        )
    return StorageError(
        f"{path} belongs to the per-cell directory format (one "
        "cell_<digest>.g<k>.chk file per cell, a version-1 manifest), which "
        "is no longer read; commit 0cda25a is the last that converts such "
        "a directory to segments, on open"
    )


def _declared_version(blob: bytes):
    """The ``version`` a manifest's bytes declare, if they are a JSON
    object at all."""
    try:
        document = json.loads(blob)
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return None
    return document.get("version") if isinstance(document, dict) else None


@dataclass
class _Segment:
    """One data file: how long its chunk region is, how long the file
    (trailer included), and how many of its bytes are live chunks."""

    data: int = 0
    size: int = 0
    live: int = 0

    def grow(self, size: int) -> None:
        """A live chunk of ``size`` bytes was written at the end."""
        self.data += size
        self.size += size
        self.live += size

    @property
    def mostly_dead(self) -> bool:
        # one half: the e2e build's write stream leaves 653 B/object
        # uncleaned, 408 so for a third more bytes written
        # (docs/BENCHMARKS.md, PR 23), and the bound is one sentence
        return 2 * self.live < self.size


class DiskStorage:
    """Chunked, manifest-backed disk storage with a block cache.

    Parameters
    ----------
    directory:
        Storage directory; created if missing, reopened (catalog and
        chunk indexes restored) if it already holds a manifest or
        data files.
    chunk_raw_bytes:
        Target raw (frame) bytes per chunk (~64 KiB default).
    cache_bytes:
        Byte budget of the raw-chunk LRU cache; ``0`` disables
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
        self._segments: dict[str, _Segment] = {}
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
        self._touched: set = set()
        self._next_segment = 0
        self._open: tuple | None = None  # (name, handle) of the open segment
        self._newest: str | None = None  # the last one sealed
        self._open_directory()

    # -- core interface (mirrors MemoryStorage) -------------------------

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group the mutations of one operation into one segment and
        one commit.

        Re-entrant; only the outermost exit commits. Chunks are written
        to the batch's segment as the body runs; cleaning, the one data
        ``fsync``, the manifest commit and the unlinks of dead segments
        happen once on exit (see the module docstring). The exit commits
        even when the body raised: the in-memory catalog already
        describes the body's completed writes and later operations
        build on it, so disk must not lag.
        """
        with self._writer:
            self._batch_depth += 1
            try:
                yield
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0 and self._uncommitted:
                    self._commit()

    def save(self, cell_id: Hashable, records) -> None:
        """Store (replace) the records of a cell — a batch, or a list
        turned into one — atomically."""
        with self.batch():
            self._store(cell_id, records, replace=True)

    def save_many(self, cells: Mapping[Hashable, RecordBatch]) -> None:
        """Store (replace) several cells in one call.

        Each cell charges one physical write — the same accounting as a
        loop of :meth:`save` calls — but the whole call is one
        :meth:`batch`, so the bulk loader's many-cell persist is one
        segment and one commit point, not one per cell.
        """
        with self.batch():
            for cell_id, records in cells.items():
                self._store(cell_id, records, replace=True)

    def append(self, cell_id: Hashable, record: IndexedRecord) -> None:
        """Append one record to a cell, creating it if missing."""
        self.append_many(cell_id, [record])

    def append_many(self, cell_id: Hashable, records) -> None:
        """Append a group of records to a cell in one physical write.

        The group is framed into new chunk(s) at the end of the batch's
        segment, charged as one physical write — the bulk-insert path's
        amortization over per-record :meth:`append`. Cached chunks of
        the cell stay valid (an append never touches the chunks a cell
        already has).
        """
        if not len(records):
            return
        with self.batch():
            self._store(cell_id, records, replace=False)

    def _store(self, cell_id: Hashable, records, *, replace: bool) -> None:
        """Write ``records`` as chunks of the open segment and index
        them under ``cell_id``, after or instead of the chunks it has."""
        encode_cell_id(cell_id)  # an id the manifest cannot carry fails here
        records = stored_cell(records)  # and so do records no cell holds
        name, handle = self._open_segment()
        segment = self._segments[name]
        payload, chunks = build_chunks(
            records,
            base_offset=segment.data,
            chunk_raw_bytes=self._chunk_raw,
            segment=name,
        )
        handle.write(payload)
        handle.flush()  # readable by this batch, synced when it seals
        with self._lock:
            entry = self._catalog.get(cell_id)
            if entry is None or replace:
                if entry is not None:
                    self._retire(entry)
                entry = self._catalog[cell_id] = CellEntry(cell_id)
            entry.count += len(records)
            entry.chunks.extend(chunks)
            segment.grow(len(payload))
            self.bytes_written += len(payload)
            self.writes += 1
        self._touched.add(cell_id)
        self._uncommitted = True

    def _retire(self, entry: CellEntry) -> None:
        """The chunks of a cell that was replaced or deleted are dead:
        their bytes stay where they are until their segment goes."""
        for chunk in entry.chunks:
            self._segments[chunk.segment].live -= chunk.size
            self.block_cache.discard(chunk.segment, chunk.offset)

    def load(self, cell_id: Hashable) -> RecordBatch:
        """Read back the records of a cell, as columns (an empty batch
        if absent).

        Only the cell's own chunks are read and inflated, and of those
        only the ones not already in the block cache; a load of an absent
        cell touches no disk and charges nothing. The cell's frames are
        decoded once, over its chunks' raw bytes end to end: a search
        reads the columns and no record object is built;
        ``.to_records()`` gives rows to whoever wants them.
        """
        return self._read_cells([cell_id])[cell_id]

    def load_many(self, cell_ids) -> dict:
        """Chunk-aware prefetch of many cells in one batch.

        Returns ``{cell_id: batch}`` for every requested cell (an empty
        batch for absent ones). Equivalent to a :meth:`load` loop — the
        same cache probes, counter totals and cache contents afterwards
        (per-chunk accounting is charged per cell, in request order) —
        but every missing chunk across all requested cells is read in
        one pass ordered by (segment, offset): sequential disk movement
        instead of per-cell seek order.
        """
        return self._read_cells(list(dict.fromkeys(cell_ids)))

    def _read_cells(self, cell_ids: list) -> dict:
        """The one read path: :meth:`load` is it for one cell,
        :meth:`load_many` for several."""
        results: dict = {}
        plans: list[tuple] = []  # (cell_id, chunks, cached), request order
        with self._lock:
            for cell_id in cell_ids:
                entry = self._catalog.get(cell_id)
                if entry is None:
                    results[cell_id] = RecordBatch.of_cell([])
                    continue
                # probe the cache for every chunk first (hits counted
                # at probe time); only the missing ones are read
                chunks = list(entry.chunks)
                cached: list[bytes | None] = [
                    self.block_cache.get(chunk.segment, chunk.offset)
                    for chunk in chunks
                ]
                self.block_cache_hits += len(chunks) - cached.count(None)
                plans.append((cell_id, chunks, cached))
        # one read pass over all missing chunks, in on-disk order
        missing = [
            (chunk.segment, chunk.offset, position, ordinal)
            for position, (_cell_id, chunks, cached) in enumerate(plans)
            for ordinal, chunk in enumerate(chunks)
            if cached[ordinal] is None
        ]  # in request order, which is how they are charged
        on_disk = sorted(missing)
        comps: list[bytes] = []
        entries = []
        handle = current = None
        try:
            for name, offset, position, ordinal in on_disk:
                chunk = plans[position][1][ordinal]
                if name != current:
                    if handle is not None:
                        handle.close()
                    handle, current = self._open_for_read(name), name
                handle.seek(offset + CHUNK_HEADER_SIZE)
                comp = handle.read(chunk.comp_size)
                if len(comp) != chunk.comp_size:
                    raise StorageError(
                        f"{name} is truncated: the chunk of cell "
                        f"{plans[position][0]!r} at offset {offset} is "
                        "incomplete"
                    )
                comps.append(comp)
                entries.append(chunk)
        finally:
            if handle is not None:
                handle.close()
        for (_name, _offset, position, ordinal), raw in zip(
            on_disk, map(decompress_chunk, comps, entries)
        ):
            plans[position][2][ordinal] = raw
        with self._lock:
            for _name, _offset, position, ordinal in missing:
                chunk = plans[position][1][ordinal]
                self.block_cache_misses += 1
                self.chunks_decompressed += 1
                self.bytes_read += chunk.comp_size
                self.block_cache.put(
                    chunk.segment, chunk.offset, plans[position][2][ordinal]
                )
            self.reads += len(plans)
        for cell_id, chunks, cached in plans:
            results[cell_id] = decode_cell(
                cached, sum(chunk.n_records for chunk in chunks)
            )
        return results

    def _open_for_read(self, name: str):
        try:
            return open(self._dir / name, "rb")
        except FileNotFoundError as exc:
            raise StorageError(f"data file {name} is missing") from exc

    def delete(self, cell_id: Hashable) -> None:
        """Remove a cell; charged as one physical write. Its bytes go
        with their segments, after the manifest that forgets them."""
        with self.batch():
            with self._lock:
                entry = self._catalog.pop(cell_id, None)
                if entry is None:
                    raise StorageError(f"cell {cell_id!r} does not exist")
                self._retire(entry)
                self.writes += 1
            self._touched.add(cell_id)
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

    @property
    def segments(self) -> int:
        """Data files in the directory."""
        with self._lock:
            return len(self._segments)

    @property
    def dead_bytes(self) -> int:
        """Bytes of the data files that are not live chunks: replaced
        and deleted cells' chunks, catalog trailers."""
        with self._lock:
            return sum(
                segment.size - segment.live
                for segment in self._segments.values()
            )

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
        """Restore the catalog and sweep debris (the module docstring
        has the order and the reasons). Until the catalog is accepted
        nothing in the directory is modified."""
        names = sorted(path.name for path in self._dir.iterdir())
        for name in names:
            if name.startswith("cell_"):
                raise _old_format(self._dir / name)
        data_files = [name for name in names if name.startswith("seg_")]
        self._next_segment = 1 + max(
            map(_number, filter(SEGMENT_NAME.fullmatch, data_files)),
            default=-1,
        )
        dirty = self._load_catalog(data_files)
        for name in names:
            if name.endswith(".tmp"):
                self._remove(name, "tmp_removed", "stray temporary file")
        for name in data_files:
            if name not in self._segments:
                self._remove(name, "orphan_removed", "unreferenced data file")
                dirty = True
        if dirty:
            self._commit()

    def _load_catalog(self, data_files: list[str]) -> bool:
        """Adopt the committed catalog; True when ``manifest.json`` was
        not where it came from (and so must be written)."""
        try:
            blob = (self._dir / MANIFEST_NAME).read_bytes()
            self._adopt(*parse_manifest(blob))
            return False
        except FileNotFoundError:
            if not data_files:
                # a fresh directory gets its (empty) manifest before
                # any batch runs: were the first batch to crash with
                # none on disk, its sealed segment would be the catalog
                return True
            problem: Exception = StorageError("the manifest is missing")
        except StorageError as exc:
            if _declared_version(blob) == 1:
                raise _old_format(self._dir / MANIFEST_NAME) from exc
            problem = exc
        _event(
            logging.WARNING, "manifest_fallback",
            "manifest of %s unusable, falling back to the newest segment "
            "trailer: %s",
            self._dir, problem, file=MANIFEST_NAME, error=str(problem),
        )
        sealed = filter(SEGMENT_NAME.fullmatch, data_files)
        for name in sorted(sealed, key=_number, reverse=True):
            try:
                self._adopt(*parse_manifest(read_trailer(self._dir / name)))
                return True
            except StorageError:
                continue  # an unsealed orphan, or a trailer gone stale
        raise StorageError(
            f"{self._dir} has no usable manifest and no segment "
            f"with a valid trailer: {problem}"
        ) from problem

    def _adopt(self, named: dict[str, int], cells: list[CellEntry]) -> None:
        """Make a parsed catalog the catalog, once every file it names
        is there and at least as long as committed."""
        segments = {}
        for name, data in named.items():
            try:
                size = (self._dir / name).stat().st_size
            except FileNotFoundError as exc:
                raise StorageError(
                    f"manifest references missing data file {name}"
                ) from exc
            if size < data:
                raise StorageError(
                    f"data file {name} holds {size} bytes, manifest "
                    f"promises {data}"
                )
            segments[name] = _Segment(data, size)
        for entry in cells:
            for chunk in entry.chunks:
                segments[chunk.segment].live += chunk.size
        self._segments = segments
        self._catalog = {entry.cell_id: entry for entry in cells}
        self._newest = max(segments, key=_number, default=None)

    def _remove(self, name: str, event: str, what: str) -> None:
        path = self._dir / name
        size = path.stat().st_size
        path.unlink()
        _event(
            logging.INFO, event, "removed %s %s (%d bytes)", what, name, size,
            file=name, bytes=size,
        )

    # -- write-path helpers ----------------------------------------------

    def _open_segment(self) -> tuple:
        """The open batch's segment (name, handle), created on its
        first write."""
        if self._open is None:
            name = segment_name(self._next_segment)
            self._next_segment += 1
            self._open = name, open(self._dir / name, "wb")
            with self._lock:
                self._segments[name] = _Segment()
        return self._open

    def _commit(self) -> None:
        """The storage commit point: clean and seal the open segment,
        atomically persist the catalog, then unlink the segments no
        live chunk is left in."""
        relocated: dict[str, int] = {}
        if self._uncommitted:
            self._newest, handle = self._open_segment()
            self._open = None
            with handle:
                relocated = self._clean(self._newest, handle)
                blob, dead = self._render()
                handle.write(trailer(blob))
                handle.flush()
                os.fsync(handle.fileno())
                sealed = self._segments[self._newest].size = handle.tell()
        else:
            blob, dead = self._render()
        atomic_write_bytes(self._dir / MANIFEST_NAME, blob)
        with self._lock:
            self.manifest_writes += 1
            removed = {name: self._segments.pop(name) for name in dead}
        for name, segment in removed.items():
            (self._dir / name).unlink(missing_ok=True)
            if name in relocated:
                _event(
                    logging.INFO, "segment_cleaned",
                    "cleaned %s: the %d live of its %d bytes relocated",
                    name, relocated[name], segment.size,
                    file=name, bytes=relocated[name],
                )
            else:
                _event(
                    logging.INFO, "segment_removed",
                    "removed %s: no live chunk in its %d bytes",
                    name, segment.size, file=name, bytes=segment.size,
                )
        if self._uncommitted:
            cells, moved = len(self._touched), sum(relocated.values())
            _event(
                logging.DEBUG, "batch_commit",
                "committed %s: %d bytes, %d cells touched, %d bytes relocated",
                self._newest, sealed, cells, moved,
                file=self._newest, bytes=sealed, cells=cells, relocated=moved,
            )
        self._touched.clear()
        self._uncommitted = False

    def _render(self) -> tuple[bytes, list[str]]:
        """The catalog's bytes, and the segments it no longer names:
        those without a live chunk — except the newest, whose trailer
        must stay the newest."""
        with self._lock:
            dead = [
                name
                for name, segment in self._segments.items()
                if segment.live == 0 and name != self._newest
            ]
            named = {
                name: segment.data
                for name, segment in self._segments.items()
                if name not in dead
            }
            return render_manifest(named, self._catalog.values()), dead

    def _clean(self, target: str, handle) -> dict[str, int]:
        """Copy the live chunks of every mostly-dead committed segment
        to the end of the open segment ``target``, byte for byte; returns
        the bytes moved out of each. The sources die with this batch's
        commit."""
        with self._lock:
            moves: dict[str, list] = {
                name: []
                for name, segment in self._segments.items()
                if name != target and segment.live and segment.mostly_dead
            }
            if not moves:
                return {}
            for entry in self._catalog.values():
                for ordinal, chunk in enumerate(entry.chunks):
                    if chunk.segment in moves:
                        moves[chunk.segment].append((entry, ordinal))
        into = self._segments[target]
        relocated = {}
        rekeyed = {}
        for name, chunks in moves.items():
            chunks.sort(key=lambda move: move[0].chunks[move[1]].offset)
            with self._open_for_read(name) as source, self._lock:
                for entry, ordinal in chunks:
                    chunk = entry.chunks[ordinal]
                    source.seek(chunk.offset)
                    piece = source.read(chunk.size)
                    if len(piece) != chunk.size:
                        raise StorageError(
                            f"{name} is truncated: the chunk at offset "
                            f"{chunk.offset} is incomplete"
                        )
                    handle.write(piece)
                    entry.chunks[ordinal] = ChunkEntry(
                        into.data, chunk.comp_size, chunk.raw_size,
                        chunk.n_records, target,
                    )
                    rekeyed[name, chunk.offset] = target, into.data
                    into.grow(chunk.size)
                source_segment = self._segments[name]
                relocated[name], source_segment.live = source_segment.live, 0
        with self._lock:
            self.block_cache.rekey(rekeyed)
        return relocated
