"""In-memory bucket storage (Table 2: YEAST and HUMAN)."""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Hashable, Iterator, Mapping

from repro.core.records import IndexedRecord, RecordBatch, stored_cell
from repro.exceptions import StorageError

__all__ = ["MemoryStorage"]


class MemoryStorage:
    """Dictionary-backed cell storage.

    Keys are Voronoi-cell identifiers (permutation-prefix tuples). A
    cell is held as columns (:class:`~repro.core.records.RecordBatch`) —
    what a write hands over, or makes of a record list once, and what a
    read hands back; rows are built by whoever asks the batch for them.
    What a cell may hold is what the disk backend may
    (:func:`~repro.core.records.stored_cell`): rows of one
    representation, each with its permutation row.
    Byte accounting reflects the records' wire sizes so memory and disk
    backends report comparable numbers; each cell's total is kept as
    the cell is written, so a read charges it without walking the
    records. Counter updates are guarded by a mutex so concurrent
    search handlers keep the accounting exact.
    """

    def __init__(self) -> None:
        self._cells: dict[Hashable, RecordBatch] = {}
        #: wire bytes of each cell's records, as of when they were written
        self._cell_bytes: dict[Hashable, int] = {}
        self._accounting = threading.Lock()
        self.bytes_written = 0
        self.bytes_read = 0
        self.reads = 0
        self.writes = 0

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Write scope of one index operation — nothing to commit in RAM.

        Part of the storage interface so the index can group the
        mutations of one operation into one commit on any backend; the
        disk backend defers its manifest commit to the scope's exit.
        """
        yield

    def save(self, cell_id: Hashable, records) -> None:
        """Store (replace) the records of a cell — a batch, or a list
        turned into one."""
        self._write(cell_id, stored_cell(records), replace=True)

    def save_many(self, cells: Mapping[Hashable, RecordBatch]) -> None:
        """Store (replace) several cells in one call.

        One *physical write* is charged per cell — the same accounting a
        loop of :meth:`save` calls would produce (which is exactly what
        this is; ``append_many`` is the method with genuinely different
        write semantics).
        """
        for cell_id, records in cells.items():
            self.save(cell_id, records)

    def append(self, cell_id: Hashable, record: IndexedRecord) -> None:
        """Append one record to a cell, creating it if missing."""
        self.append_many(cell_id, [record])

    def append_many(self, cell_id: Hashable, records) -> None:
        """Append a group of records to one cell as a single write.

        The whole group lands in one operation, so it is charged as one
        physical write (the disk backend writes it as one run of
        chunks) — this is what makes the group-wise bulk-insert path
        cheaper than per-record :meth:`append` calls.
        """
        if len(records):
            self._write(cell_id, stored_cell(records), replace=False)

    def _write(
        self, cell_id: Hashable, batch: RecordBatch, *, replace: bool
    ) -> None:
        size = batch.wire_size
        with self._accounting:
            held = None if replace else self._cells.get(cell_id)
            if held is None:
                self._cells[cell_id] = batch
                self._cell_bytes[cell_id] = size
            else:
                self._cells[cell_id] = RecordBatch.joined([held, batch])
                self._cell_bytes[cell_id] += size
            self.bytes_written += size
            self.writes += 1

    def load(self, cell_id: Hashable) -> RecordBatch:
        """Return the records of a cell, as columns (an empty batch if
        absent).

        Loading an absent cell charges nothing — the disk backend
        answers it from its catalog without touching a file, and the
        backends must account identically (storage-contract parity).
        """
        with self._accounting:
            cell = self._cells.get(cell_id)
            if cell is None:
                return RecordBatch.of_cell([])
            self.bytes_read += self._cell_bytes[cell_id]
            self.reads += 1
            return cell

    def load_many(self, cell_ids) -> dict:
        """Return ``{cell_id: batch}`` for many cells in one call.

        There is no I/O schedule to optimize in memory, so this is
        exactly a :meth:`load` loop over the (deduplicated) ids — it
        exists so the backends share the bulk-load surface the range
        prefetcher targets, with identical accounting on both.
        """
        return {
            cell_id: self.load(cell_id)
            for cell_id in dict.fromkeys(cell_ids)
        }

    def delete(self, cell_id: Hashable) -> None:
        """Remove a cell entirely; charged as one physical write."""
        with self._accounting:
            if cell_id not in self._cells:
                raise StorageError(f"cell {cell_id!r} does not exist")
            del self._cells[cell_id]
            del self._cell_bytes[cell_id]
            self.writes += 1

    def cell_size(self, cell_id: Hashable) -> int:
        """Number of records in a cell without charging a read."""
        return len(self._cells.get(cell_id, ()))

    def cells(self) -> Iterator[Hashable]:
        """Iterate over existing cell ids."""
        return iter(self._cells.keys())

    def __len__(self) -> int:
        """Total number of stored records."""
        return sum(len(records) for records in self._cells.values())

    def flush(self) -> None:
        """Push buffered state to durable form — nothing to do in RAM.

        Part of the storage interface so a graceful drain can flush any
        backend without knowing its type.
        """

    def reset_accounting(self) -> None:
        """Zero the I/O counters."""
        self.bytes_written = 0
        self.bytes_read = 0
        self.reads = 0
        self.writes = 0
