"""Records exchanged with and stored by the similarity-cloud server.

:class:`IndexedRecord` is the unit the server indexes. Its fields mirror
Algorithm 1's ``e := struct {distances, permutation, data}``:

* ``oid`` — the object identifier referencing the raw-data storage,
* ``permutation`` — the pivot permutation (the M-Index needs at least
  its prefix to locate the Voronoi cell),
* ``distances`` — object–pivot distances; present only under the
  **precise** strategy (enables range queries + pivot filtering, leaks
  more),
* ``payload`` — opaque bytes: the AES token in the encrypted system, or
  the serialized plaintext vector in the non-encrypted baseline.

Following Algorithm 1, a record travels with *either* the distances
(precise strategy — the permutation is just their sort order, so the
server derives it on arrival via :meth:`IndexedRecord.ensure_permutation`)
*or* the permutation (approximate strategy). The same record type serves
the encrypted and the plain variant, which keeps the index code
identical on both sides of the comparison.

:class:`RecordBatch` is the same content as columns: the wire unit of a
construction bulk, what the index routes and a storage backend writes
(each cell its row selection of the bulk), and the form in which a
stored cell is read back (its payloads a
:class:`~repro.wire.encoding.BlobColumn`, left where they lie in the
cell's bytes). :class:`CellRecords` strings the batches of several
cells together — what a search returns. No object is built per record
between the wire and a chunk, or between a storage read and the
response; an :class:`IndexedRecord` is for the edges — the per-record
requests, exports, dumps, tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProtocolError, StorageError
from repro.metric.permutations import pivot_permutation, pivot_permutations
from repro.wire.encoding import BlobColumn, Reader, Writer, pack_blobs
from repro.wire.scatter import oid_column

__all__ = [
    "CellRecords",
    "IndexedRecord",
    "RecordBatch",
    "stored_cell",
    "vector_to_payload",
    "rows_to_vectors",
]


@dataclass
class IndexedRecord:
    """One indexed object as stored on the (untrusted) server."""

    oid: int
    permutation: np.ndarray | None
    distances: np.ndarray | None
    payload: bytes

    def __post_init__(self) -> None:
        if self.permutation is None and self.distances is None:
            raise ProtocolError(
                "record needs a permutation or pivot distances"
            )
        if self.permutation is not None:
            self.permutation = np.asarray(self.permutation, dtype=np.int32)
            if self.permutation.ndim != 1 or self.permutation.shape[0] == 0:
                raise ProtocolError(
                    f"record permutation must be non-empty 1-D, got shape "
                    f"{self.permutation.shape}"
                )
        if self.distances is not None:
            self.distances = np.asarray(self.distances, dtype=np.float64)
            if self.distances.ndim != 1 or self.distances.shape[0] == 0:
                raise ProtocolError(
                    f"record distances must be non-empty 1-D, got shape "
                    f"{self.distances.shape}"
                )
            if (
                self.permutation is not None
                and self.distances.shape != self.permutation.shape
            ):
                raise ProtocolError(
                    "record distances must align with the permutation: "
                    f"{self.distances.shape} vs {self.permutation.shape}"
                )
        self.payload = bytes(self.payload)

    @property
    def n_pivots(self) -> int:
        """Number of pivots this record was described against."""
        if self.permutation is not None:
            return int(self.permutation.shape[0])
        assert self.distances is not None
        return int(self.distances.shape[0])

    def ensure_permutation(self) -> np.ndarray:
        """Return the permutation, deriving it from distances if absent.

        Under the precise strategy only distances travel on the wire;
        their stable sort order *is* the pivot permutation (§4.1), so the
        server reconstructs it here on arrival.
        """
        if self.permutation is None:
            assert self.distances is not None
            self.permutation = pivot_permutation(self.distances)
        return self.permutation

    @property
    def payload_size(self) -> int:
        """Size of the opaque payload in bytes."""
        return len(self.payload)

    def write_to(self, writer: Writer) -> Writer:
        """Append the record's wire encoding to ``writer``."""
        writer.u64(self.oid)
        flags = (1 if self.permutation is not None else 0) | (
            2 if self.distances is not None else 0
        )
        writer.u8(flags)
        if self.permutation is not None:
            writer.i32_array(self.permutation)
        if self.distances is not None:
            writer.f64_array(self.distances)
        writer.blob(self.payload)
        return writer

    @classmethod
    def read_from(cls, reader: Reader) -> "IndexedRecord":
        """Decode one record from ``reader``."""
        oid = reader.u64()
        flags = reader.u8()
        if flags not in (1, 2, 3):
            raise ProtocolError(f"invalid record flags {flags}")
        permutation = reader.i32_array() if flags & 1 else None
        distances = reader.f64_array() if flags & 2 else None
        payload = reader.blob()
        return cls(oid, permutation, distances, payload)

    def to_bytes(self) -> bytes:
        """Standalone wire encoding (used by disk storage)."""
        return self.write_to(Writer()).getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "IndexedRecord":
        """Decode a standalone encoding produced by :meth:`to_bytes`."""
        reader = Reader(blob)
        record = cls.read_from(reader)
        reader.expect_end()
        return record

    @property
    def wire_size(self) -> int:
        """Exact encoded size in bytes (communication-cost accounting)."""
        size = 8 + 1 + 4 + len(self.payload)
        if self.permutation is not None:
            size += 4 + 4 * self.permutation.shape[0]
        if self.distances is not None:
            size += 4 + 8 * self.distances.shape[0]
        return size


def _representation(record: IndexedRecord) -> tuple:
    """The length of each of ``record``'s arrays, None where it has
    none: records batch into columns iff theirs are equal."""
    return tuple(
        None if array is None else array.shape[0]
        for array in (record.permutation, record.distances)
    )


class _RecordSequence:
    """Reads a columnar holder as the list of its records — iteration
    and ``==`` against a list go through its ``to_records()`` — for
    maintenance code, tests and diagnostics; a search never does."""

    def __iter__(self):
        return iter(self.to_records())

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return self.to_records() == other
        return NotImplemented

    __hash__ = None


@dataclass(eq=False)
class RecordBatch(_RecordSequence):
    """A columnar bulk of indexed records (Algorithm 1's wire unit).

    The construction pipeline ships whole bulks as columns — one uint64
    oid array, one permutation/distance matrix shared by every record of
    the bulk, and one contiguous payload region — instead of ``count``
    per-record encodings. A bulk is homogeneous by construction: every
    record of one insert call carries the same representation (the
    strategy is fixed per index), so one flags byte describes them all.

    Wire layout::

        u32 count | u8 flags | u64_array oids
        [flags & 1] i32_matrix permutations   (count rows)
        [flags & 2] f64_matrix distances      (count rows)
        blob_region payloads                  (count blobs)

    The same columns are what the index routes, a storage backend
    writes and a stored cell is read back as: a bulk goes from the wire
    to its cells as row selections (:meth:`select`) of one batch, and a
    list of records becomes a batch once, at the edge (:meth:`of_cell`).
    Wherever rows are wanted — maintenance, tests, diagnostics — a batch
    reads as the list of its records (``len``, iteration, indexing,
    ``==`` against a list, :meth:`to_records`).
    """

    oids: np.ndarray
    permutations: np.ndarray | None
    distances: np.ndarray | None
    payloads: BlobColumn

    def __post_init__(self) -> None:
        self.oids = np.ascontiguousarray(self.oids, dtype=np.uint64)
        if self.oids.ndim != 1:
            raise ProtocolError(
                f"batch oids must be 1-D, got shape {self.oids.shape}"
            )
        count = self.oids.shape[0]
        if self.permutations is None and self.distances is None:
            raise ProtocolError(
                "record batch needs permutations or pivot distances"
            )
        if self.permutations is not None:
            self.permutations = np.ascontiguousarray(
                self.permutations, dtype=np.int32
            )
            self._check_matrix("permutations", self.permutations, count)
        if self.distances is not None:
            self.distances = np.ascontiguousarray(
                self.distances, dtype=np.float64
            )
            self._check_matrix("distances", self.distances, count)
            if (
                self.permutations is not None
                and self.distances.shape != self.permutations.shape
            ):
                raise ProtocolError(
                    "batch distances must align with the permutations: "
                    f"{self.distances.shape} vs {self.permutations.shape}"
                )
        if not isinstance(self.payloads, BlobColumn):
            self.payloads = BlobColumn.of(list(self.payloads))
        if len(self.payloads) != count:
            raise ProtocolError(
                f"batch carries {len(self.payloads)} payloads for "
                f"{count} oids"
            )

    @staticmethod
    def _check_matrix(name: str, matrix: np.ndarray, count: int) -> None:
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ProtocolError(
                f"batch {name} must be a non-empty 2-D matrix, got "
                f"shape {matrix.shape}"
            )
        if matrix.shape[0] != count:
            raise ProtocolError(
                f"batch {name} carries {matrix.shape[0]} rows for "
                f"{count} oids"
            )

    def __len__(self) -> int:
        return int(self.oids.shape[0])

    @property
    def wire_size(self) -> int:
        """What the records' standalone encodings add up to, in bytes
        (:attr:`IndexedRecord.wire_size`, summed without the records)."""
        each = 8 + 1 + 4
        if self.permutations is not None:
            each += 4 + 4 * self.permutations.shape[1]
        if self.distances is not None:
            each += 4 + 8 * self.distances.shape[1]
        return len(self) * each + int(self.payloads.lengths.sum())

    def write_to(self, writer: Writer) -> Writer:
        """Append the batch's columnar wire encoding to ``writer``."""
        writer.u32(len(self))
        flags = (1 if self.permutations is not None else 0) | (
            2 if self.distances is not None else 0
        )
        writer.u8(flags)
        writer.u64_array(self.oids)
        if self.permutations is not None:
            writer.i32_matrix(self.permutations)
        if self.distances is not None:
            writer.f64_matrix(self.distances)
        writer.blob_columns(*pack_blobs([self.payloads]))
        return writer

    @classmethod
    def read_from(cls, reader: Reader) -> "RecordBatch":
        """Decode one columnar batch from ``reader``, its payloads left
        in the message."""
        count = reader.u32()
        flags = reader.u8()
        if flags not in (1, 2, 3):
            raise ProtocolError(f"invalid record batch flags {flags}")
        oids = reader.u64_array()
        if oids.shape[0] != count:
            raise ProtocolError(
                f"batch header promises {count} records, oid column "
                f"carries {oids.shape[0]}"
            )
        permutations = reader.i32_matrix() if flags & 1 else None
        distances = reader.f64_matrix() if flags & 2 else None
        payloads = BlobColumn.packed(*reader.blob_columns())
        return cls(oids, permutations, distances, payloads)

    @classmethod
    def from_columns(
        cls,
        oids: np.ndarray,
        permutations: np.ndarray | None,
        distances: np.ndarray | None,
        payloads: BlobColumn,
    ) -> "RecordBatch":
        """A batch over columns the caller has already checked — views
        of a stored cell's bytes, rows of another batch — taken as they
        are: nothing copied, nothing checked again."""
        batch = object.__new__(cls)
        batch.oids = oids
        batch.permutations = permutations
        batch.distances = distances
        batch.payloads = payloads
        return batch

    @classmethod
    def of_cell(
        cls, records: "list[IndexedRecord] | RecordBatch"
    ) -> "RecordBatch":
        """The columns of ``records`` — the edge at which rows handed to
        the index or to a storage backend become a batch (a batch is
        returned as it is).

        The records must share one representation — the same arrays,
        at the same lengths — or :class:`ProtocolError`; their payloads
        may be of any sizes, copied end to end. No record makes the
        empty batch, whose representation is an empty permutation
        column.
        """
        if isinstance(records, cls):
            return records
        records = list(records)
        if not records:
            return cls.from_columns(
                np.empty(0, np.uint64),
                np.empty((0, 0), np.int32),
                None,
                BlobColumn.of([]),
            )
        if 1 != len({_representation(record) for record in records}):
            raise ProtocolError(
                "record batch requires a homogeneous representation"
            )

        def matrix(arrays: list) -> np.ndarray | None:
            return None if arrays[0] is None else np.stack(arrays)

        return cls.from_columns(
            np.fromiter(
                (record.oid for record in records), np.uint64, len(records)
            ),
            matrix([record.permutation for record in records]),
            matrix([record.distances for record in records]),
            BlobColumn.of([record.payload for record in records]),
        )

    @classmethod
    def from_records(
        cls, records: "list[IndexedRecord] | RecordBatch"
    ) -> "RecordBatch":
        """Columnar view of a non-empty homogeneous record list."""
        batch = cls.of_cell(records)
        if not len(batch):
            raise ProtocolError("record batch must not be empty")
        return batch

    def select(self, rows: np.ndarray) -> "RecordBatch":
        """Records ``rows`` (an index array) of this batch, in that
        order, as a batch of their own."""
        return self.from_columns(
            self.oids[rows],
            None if self.permutations is None else self.permutations[rows],
            None if self.distances is None else self.distances[rows],
            BlobColumn.gathered([self.payloads], rows),
        )

    @classmethod
    def joined(cls, batches: "list[RecordBatch]") -> "RecordBatch":
        """The records of ``batches`` end to end, as one batch; they
        must share one representation, or :class:`ProtocolError`."""
        batches = [batch for batch in batches if len(batch)]
        if len(batches) < 2:
            return batches[0] if batches else cls.of_cell([])
        columns = []
        for name in ("permutations", "distances"):
            matrices = [getattr(batch, name) for batch in batches]
            # the same columns at the same widths (np.shape(None) is ())
            if len({np.shape(matrix)[1:] for matrix in matrices}) != 1:
                raise ProtocolError(
                    "record batch requires a homogeneous representation"
                )
            columns.append(
                None if matrices[0] is None else np.concatenate(matrices)
            )
        return cls.from_columns(
            np.concatenate([batch.oids for batch in batches]),
            *columns,
            BlobColumn.gathered([batch.payloads for batch in batches]),
        )

    def ensure_permutations(self) -> np.ndarray:
        """The permutation matrix, derived from the distances if absent.

        Under the precise/transformed strategies only distances travel;
        their row-wise stable sort order *is* the pivot permutation
        (§4.1), recovered here by a single vectorized
        :func:`~repro.metric.permutations.pivot_permutations` call
        instead of one argsort per record.
        """
        if self.permutations is not None:
            return self.permutations
        return pivot_permutations(self.distances)

    def to_records(self) -> list[IndexedRecord]:
        """Row-wise records, any missing permutations derived in one
        call (:meth:`ensure_permutations`)."""
        permutations = self.ensure_permutations()
        distances = self.distances
        return [
            IndexedRecord(
                oid,
                permutations[position],
                None if distances is None else distances[position],
                payload,
            )
            for position, (oid, payload) in enumerate(
                zip(self.oids.tolist(), self.payloads)
            )
        ]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.to_records()[index]
        distances = self.distances
        return IndexedRecord(
            int(self.oids[index]),
            self.ensure_permutations()[index],
            None if distances is None else distances[index],
            self.payloads[index],
        )


def stored_cell(records: "list[IndexedRecord] | RecordBatch") -> RecordBatch:
    """``records`` as the columns a storage backend keeps of a cell
    (:meth:`RecordBatch.of_cell`). A stored row carries its permutation
    row — every cell an index writes does — so a batch without the
    permutation column is a :class:`StorageError`."""
    batch = RecordBatch.of_cell(records)
    if batch.permutations is None:
        raise StorageError(
            "a stored record must carry its permutation row, not only "
            "pivot distances"
        )
    return batch


class CellRecords(_RecordSequence):
    """The records of stored cells laid end to end, each cell kept as
    the :class:`RecordBatch` it was read as — or, with ``rows``, a
    selection of those records in a given order.

    This is what a search returns and a response writer takes: a row
    number counts through ``cells`` end to end, and the cells are never
    concatenated. Read as a sequence (``len``, iteration, indexing,
    ``==`` against a list) it is the list of its records, built on
    demand — for tests, baselines and diagnostics, never on a search.
    """

    def __init__(
        self, cells: list[RecordBatch], rows: np.ndarray | None = None
    ) -> None:
        self.cells = cells
        self.rows = rows
        self._stored = sum(len(cell) for cell in cells)

    def append(self, cell: RecordBatch) -> np.ndarray:
        """Lay ``cell`` at the end; the rows its records take."""
        rows = np.arange(self._stored, self._stored + len(cell))
        self.cells.append(cell)
        self._stored += len(cell)
        return rows

    def select(self, rows: np.ndarray) -> "CellRecords":
        """Records ``rows`` of this sequence, in that order."""
        return CellRecords(
            self.cells, rows if self.rows is None else self.rows[rows]
        )

    @property
    def oids(self) -> np.ndarray:
        """The oid column."""
        oids = oid_column(self.cells)
        return oids if self.rows is None else oids[self.rows]

    def __len__(self) -> int:
        return self._stored if self.rows is None else len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.to_records()[index]
        row = int(index if self.rows is None else self.rows[index])
        if row < 0:
            row += self._stored
        for cell in self.cells:
            if row < len(cell):
                return cell[row]
            row -= len(cell)
        raise IndexError(f"record {index} of {len(self)}")

    def to_records(self) -> list[IndexedRecord]:
        """The records, one object each."""
        return [self[position] for position in range(len(self))]


def vector_to_payload(vector: np.ndarray) -> bytes:
    """Serialize a plaintext vector as a payload (plain baseline)."""
    return np.ascontiguousarray(vector, dtype="<f8").tobytes()


def rows_to_vectors(rows: np.ndarray) -> np.ndarray:
    """Decode an ``(n, width)`` uint8 matrix of plaintext-vector
    payloads (what :func:`vector_to_payload` makes), one a row, as the
    ``(n, width // 8)`` float64 matrix (on little-endian hosts a view of
    its bytes)."""
    width = rows.shape[1]
    if width % 8 != 0 or width == 0:
        raise ProtocolError(
            f"plain payload of {width} bytes is not a float64 vector"
        )
    return np.ascontiguousarray(rows).view("<f8").astype(np.float64, copy=False)
