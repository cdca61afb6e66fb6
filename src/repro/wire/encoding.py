"""Length-prefixed little-endian binary encoding primitives.

:class:`Writer` builds a message; :class:`Reader` consumes one and
raises :class:`~repro.exceptions.ProtocolError` on any truncation or
type confusion. All multi-byte integers are little-endian; arrays carry
an element-count prefix and matrices a (rows, cols) shape prefix — the
matrix codecs are what let a whole query batch travel as one message,
and the ``u64_array``/``blob_region`` codecs are what let a whole
construction bulk travel as one columnar record batch.
These primitives underlie every byte that crosses the client/server
boundary, so communication-cost measurements are exact.

:class:`BlobColumn` is a blob region kept as a column — byte strings
left where they lie in one buffer — and :func:`pack_blobs` copies a
selection of several such columns end to end; together they let stored
payloads reach a response without an object per payload.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.exceptions import ProtocolError

__all__ = ["BlobColumn", "Reader", "Writer", "pack_blobs"]

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


class Writer:
    """Accumulates encoded fields into a byte buffer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        """Append an unsigned byte."""
        if not 0 <= value <= 0xFF:
            raise ProtocolError(f"u8 out of range: {value}")
        self._parts.append(_U8.pack(value))
        return self

    def u32(self, value: int) -> "Writer":
        """Append an unsigned 32-bit integer."""
        if not 0 <= value <= 0xFFFFFFFF:
            raise ProtocolError(f"u32 out of range: {value}")
        self._parts.append(_U32.pack(value))
        return self

    def u64(self, value: int) -> "Writer":
        """Append an unsigned 64-bit integer."""
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise ProtocolError(f"u64 out of range: {value}")
        self._parts.append(_U64.pack(value))
        return self

    def f64(self, value: float) -> "Writer":
        """Append a 64-bit float."""
        self._parts.append(_F64.pack(float(value)))
        return self

    def boolean(self, value: bool) -> "Writer":
        """Append a boolean as one byte."""
        return self.u8(1 if value else 0)

    def raw(self, data: bytes) -> "Writer":
        """Append raw bytes without a length prefix.

        ``bytes`` input is appended by identity — construction-path
        payloads (encrypted tokens) are never copied; only mutable
        ``bytearray``-likes are frozen into a private copy.
        """
        self._parts.append(data if type(data) is bytes else bytes(data))
        return self

    def blob(self, data: bytes) -> "Writer":
        """Append length-prefixed bytes (``bytes`` passed through
        by identity, see :meth:`raw`)."""
        self.u32(len(data))
        self._parts.append(data if type(data) is bytes else bytes(data))
        return self

    def string(self, text: str) -> "Writer":
        """Append a length-prefixed UTF-8 string."""
        return self.blob(text.encode("utf-8"))

    def f64_array(self, arr: np.ndarray) -> "Writer":
        """Append a length-prefixed float64 array."""
        a = np.ascontiguousarray(arr, dtype="<f8")
        if a.ndim != 1:
            raise ProtocolError(f"f64_array must be 1-D, got shape {a.shape}")
        self.u32(a.shape[0])
        self._parts.append(a.tobytes())
        return self

    def i32_array(self, arr: np.ndarray) -> "Writer":
        """Append a length-prefixed int32 array."""
        a = np.ascontiguousarray(arr, dtype="<i4")
        if a.ndim != 1:
            raise ProtocolError(f"i32_array must be 1-D, got shape {a.shape}")
        self.u32(a.shape[0])
        self._parts.append(a.tobytes())
        return self

    def u64_array(self, arr: np.ndarray) -> "Writer":
        """Append a length-prefixed uint64 array (e.g. the oid column of
        a columnar record batch)."""
        a = np.ascontiguousarray(arr, dtype="<u8")
        if a.ndim != 1:
            raise ProtocolError(f"u64_array must be 1-D, got shape {a.shape}")
        self.u32(a.shape[0])
        self._parts.append(a.tobytes())
        return self

    def blob_region(self, blobs: list[bytes]) -> "Writer":
        """Append a length-prefixed blob region: count, a u32 length
        column, then every payload concatenated.

        This is the columnar counterpart of repeated :meth:`blob` calls —
        one length array and one contiguous byte region instead of
        per-record framing. ``bytes`` payloads are appended by identity
        (no copies on the construction path).
        """
        self.u32(len(blobs))
        lengths = np.fromiter(map(len, blobs), dtype="<u4", count=len(blobs))
        self._parts.append(lengths.tobytes())
        for blob in blobs:
            self._parts.append(blob if type(blob) is bytes else bytes(blob))
        return self

    def blob_columns(self, lengths: np.ndarray, region) -> "Writer":
        """Append a blob region given as columns — same layout as
        :meth:`blob_region`, from the u32 length column and the payload
        bytes already laid end to end.

        ``region`` is any C-contiguous bytes-like object and is appended
        without a copy, so the caller must leave it alone until
        :meth:`getvalue`.
        """
        a = np.ascontiguousarray(lengths, dtype="<u4")
        if a.ndim != 1:
            raise ProtocolError(f"blob lengths must be 1-D, got {a.shape}")
        view = region if type(region) is bytes else memoryview(region).cast("B")
        if int(a.sum(dtype=np.uint64)) != len(view):
            raise ProtocolError(
                f"blob lengths sum to {int(a.sum(dtype=np.uint64))}, "
                f"region holds {len(view)} bytes"
            )
        self.u32(a.shape[0])
        self._parts.append(a.tobytes())
        self._parts.append(view)
        return self

    def f64_matrix(self, arr: np.ndarray) -> "Writer":
        """Append a shape-prefixed row-major float64 matrix.

        Batched queries ship all query–pivot distances of a batch as one
        matrix instead of per-query arrays.
        """
        a = np.ascontiguousarray(arr, dtype="<f8")
        if a.ndim != 2:
            raise ProtocolError(f"f64_matrix must be 2-D, got shape {a.shape}")
        self.u32(a.shape[0]).u32(a.shape[1])
        self._parts.append(a.tobytes())
        return self

    def i32_matrix(self, arr: np.ndarray) -> "Writer":
        """Append a shape-prefixed row-major int32 matrix (e.g. the pivot
        permutations of a query batch)."""
        a = np.ascontiguousarray(arr, dtype="<i4")
        if a.ndim != 2:
            raise ProtocolError(f"i32_matrix must be 2-D, got shape {a.shape}")
        self.u32(a.shape[0]).u32(a.shape[1])
        self._parts.append(a.tobytes())
        return self

    def getvalue(self) -> bytes:
        """The encoded message."""
        return b"".join(self._parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self._parts)


class Reader:
    """Sequentially decodes fields from a byte buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def _take(self, count: int) -> bytes:
        if count < 0 or self._pos + count > len(self._data):
            raise ProtocolError(
                f"message truncated: need {count} bytes at offset "
                f"{self._pos}, have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        """Read an unsigned byte."""
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        """Read an unsigned 32-bit integer."""
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        """Read an unsigned 64-bit integer."""
        return _U64.unpack(self._take(8))[0]

    def f64(self) -> float:
        """Read a 64-bit float."""
        return _F64.unpack(self._take(8))[0]

    def boolean(self) -> bool:
        """Read a boolean byte."""
        value = self.u8()
        if value not in (0, 1):
            raise ProtocolError(f"invalid boolean byte {value}")
        return bool(value)

    def blob(self) -> bytes:
        """Read length-prefixed bytes."""
        return self._take(self.u32())

    def string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid UTF-8 string: {exc}") from exc

    def f64_array(self) -> np.ndarray:
        """Read a length-prefixed float64 array."""
        count = self.u32()
        return np.frombuffer(self._take(count * 8), dtype="<f8").astype(
            np.float64
        )

    def i32_array(self) -> np.ndarray:
        """Read a length-prefixed int32 array."""
        count = self.u32()
        return np.frombuffer(self._take(count * 4), dtype="<i4").astype(
            np.int32
        )

    def u64_array(self) -> np.ndarray:
        """Read a length-prefixed uint64 array."""
        count = self.u32()
        return np.frombuffer(self._take(count * 8), dtype="<u8").astype(
            np.uint64
        )

    def blob_columns(self) -> tuple[np.ndarray, memoryview]:
        """Read a blob region as columns: ``count + 1`` int64 offsets
        and a view of the payload bytes they delimit (blob ``i`` is
        ``region[offsets[i]:offsets[i + 1]]``).

        Nothing is built per blob and the region is not copied. The
        count and the lengths come from outside, so both are checked
        against the bytes actually present before anything is
        allocated from them.
        """
        count = self.u32()
        lengths = np.frombuffer(self._take(count * 4), dtype="<u4")
        total = int(lengths.sum(dtype=np.uint64))
        if total > self.remaining():
            raise ProtocolError(
                f"blob region announces {total} payload bytes, "
                f"{self.remaining()} remain"
            )
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        region = memoryview(self._data)[self._pos : self._pos + total]
        self._pos += total
        return offsets, region

    def blob_region(self) -> list[bytes]:
        """Read a columnar blob region written by
        :meth:`Writer.blob_region` as one ``bytes`` per blob."""
        offsets, region = self.blob_columns()
        data = bytes(region)
        bounds = offsets.tolist()
        return [data[a:b] for a, b in zip(bounds, bounds[1:])]

    def f64_matrix(self) -> np.ndarray:
        """Read a shape-prefixed float64 matrix."""
        rows = self.u32()
        cols = self.u32()
        data = np.frombuffer(self._take(rows * cols * 8), dtype="<f8")
        return data.astype(np.float64).reshape(rows, cols)

    def i32_matrix(self) -> np.ndarray:
        """Read a shape-prefixed int32 matrix."""
        rows = self.u32()
        cols = self.u32()
        data = np.frombuffer(self._take(rows * cols * 4), dtype="<i4")
        return data.astype(np.int32).reshape(rows, cols)

    def remaining(self) -> int:
        """Bytes left to read."""
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        """Raise if trailing bytes remain."""
        if self.remaining() != 0:
            raise ProtocolError(
                f"{self.remaining()} unexpected trailing bytes"
            )


class BlobColumn:
    """A column of byte strings lying in one buffer, none of them built.

    Two layouts. *Regular*: equal-sized blobs at a fixed stride —
    ``matrix`` is an ``(n, width)`` uint8 view of the buffer, one row a
    blob (cipher tokens of equal-sized objects, in the frames of a
    stored cell or end to end in a candidate table). *Packed*:
    ``matrix`` is None and blob ``i`` is
    ``region[offsets[i]:offsets[i + 1]]`` — blobs of any sizes end to
    end, what :meth:`Reader.blob_columns` reads.
    """

    __slots__ = ("matrix", "offsets", "region")

    def __init__(
        self,
        matrix: np.ndarray | None,
        offsets: np.ndarray | None = None,
        region=b"",
    ) -> None:
        self.matrix = matrix
        self.offsets = offsets
        self.region = region

    @classmethod
    def packed(cls, offsets: np.ndarray, region) -> "BlobColumn":
        """The column of blobs laid end to end in ``region`` (``n + 1``
        offsets from 0 to its length); regular when they turn out to
        share one non-zero size."""
        lengths = np.diff(offsets)
        if lengths.size and lengths[0] > 0 and (lengths == lengths[0]).all():
            flat = np.frombuffer(region, dtype=np.uint8, count=int(offsets[-1]))
            return cls(flat.reshape(lengths.size, -1))
        return cls(None, offsets, region)

    @classmethod
    def of(cls, blobs: list[bytes]) -> "BlobColumn":
        """The column of ``blobs``, copied end to end."""
        offsets = np.zeros(len(blobs) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter(map(len, blobs), np.int64, len(blobs)),
            out=offsets[1:],
        )
        return cls.packed(offsets, b"".join(blobs))

    @classmethod
    def gathered(
        cls, columns: "list[BlobColumn]", rows: np.ndarray | None = None
    ) -> "BlobColumn":
        """Blobs ``rows`` of ``columns`` laid end to end (all of them,
        when None) as a column of their own — a row selection of one
        column, several columns joined. Regular columns of one width
        are indexed as the matrix they are; anything else is what
        :func:`pack_blobs` copies."""
        widths = {
            None if column.matrix is None else column.matrix.shape[1]
            for column in columns
        }
        if len(widths) == 1 and None not in widths:
            matrix = (
                columns[0].matrix
                if len(columns) == 1
                else np.concatenate([column.matrix for column in columns])
            )
            return cls(matrix if rows is None else matrix[rows])
        lengths, region = pack_blobs(columns, rows)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls.packed(offsets, region)

    def __len__(self) -> int:
        if self.matrix is not None:
            return self.matrix.shape[0]
        return self.offsets.shape[0] - 1

    def as_matrix(self) -> np.ndarray:
        """The ``(n, width)`` matrix of a regular column (cipher tokens
        of one index); :class:`ProtocolError` for any other column."""
        if self.matrix is None:
            sizes = np.unique(self.lengths).tolist()
            raise ProtocolError(f"blobs of {sizes} bytes do not form a matrix")
        return self.matrix

    @property
    def lengths(self) -> np.ndarray:
        """The blobs' sizes, one int64 each."""
        if self.matrix is not None:
            return np.full(self.matrix.shape[0], self.matrix.shape[1])
        return np.diff(self.offsets)

    def tolist(self, rows=slice(None)) -> list[bytes]:
        """Blobs ``rows`` (an index array or a slice; all by default)
        cut out as ``bytes``, in that order."""
        if self.matrix is not None:
            chosen = self.matrix[rows]
            count, width = chosen.shape
            if width == 0:
                return [b""] * count
            data = chosen.tobytes()
            return [
                data[start : start + width]
                for start in range(0, count * width, width)
            ]
        region = self.region
        return [
            bytes(region[start:stop])
            for start, stop in zip(
                self.offsets[:-1][rows].tolist(),
                self.offsets[1:][rows].tolist(),
            )
        ]

    def __getitem__(self, index: int) -> bytes:
        if self.matrix is not None:
            return self.matrix[index].tobytes()
        return bytes(
            self.region[self.offsets[:-1][index] : self.offsets[1:][index]]
        )

    def __iter__(self):
        return iter(self.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, BlobColumn)):
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None


def pack_blobs(
    columns: list[BlobColumn], rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Copy blobs ``rows`` of ``columns`` end to end, in that order.

    A row counts through the columns laid end to end; None takes every
    blob in turn. Returns ``(lengths, region)``, what
    :meth:`Writer.blob_columns` appends. The rows are ordered by column
    once, then every column gives up its run of them in one strided
    copy — as long as all blobs wanted are one size, which regular
    columns say without looking; otherwise in one copy per column and
    distinct size.
    """
    bounds = np.cumsum([0] + [len(column) for column in columns])
    if rows is None:
        rows = np.arange(bounds[-1])
    count = len(rows)
    if count and not 0 <= rows.min() <= rows.max() < bounds[-1]:
        raise IndexError(f"blob rows outside the {bounds[-1]} present")
    owner = np.searchsorted(bounds, rows, side="right") - 1
    own = rows - bounds[owner]
    # None when the rows come column by column already (a range scan's)
    order = None
    if count > 1 and not (owner[1:] >= owner[:-1]).all():
        order = np.argsort(owner, kind="stable")
        owner, own = owner[order], own[order]
    cuts = np.searchsorted(owner, np.arange(len(columns) + 1)).tolist()
    # per column with rows wanted: (column, its own rows, its run)
    runs = [
        (column, own[start:stop], start, stop)
        for column, start, stop in zip(columns, cuts, cuts[1:])
        if stop > start
    ]
    widths = {
        None if column.matrix is None else column.matrix.shape[1]
        for column, _chosen, _start, _stop in runs
    }
    if len(widths) == 1 and None not in widths:
        (width,) = widths
        table = np.empty((count, width), dtype=np.uint8)
        for column, chosen, start, stop in runs:
            table[start:stop] = column.matrix[chosen]
        if order is not None:
            ranked = np.empty_like(table)
            ranked[order] = table
            table = ranked
        return np.full(count, width, dtype="<u4"), table.reshape(-1)
    lengths = np.empty(count, dtype=np.int64)
    places = np.arange(count) if order is None else order
    for column, chosen, start, stop in runs:
        lengths[places[start:stop]] = column.lengths[chosen]
    targets = np.cumsum(lengths) - lengths
    region = np.empty(int(lengths.sum()), dtype=np.uint8)
    for column, chosen, start, stop in runs:
        into = targets[places[start:stop]]
        if column.matrix is not None:
            width = column.matrix.shape[1]
            if width:
                sliding_window_view(region, width, writeable=True)[
                    into
                ] = column.matrix[chosen]
            continue
        starts = column.offsets[:-1][chosen]
        sizes = lengths[places[start:stop]]
        source = np.frombuffer(column.region, dtype=np.uint8)
        for size in np.unique(sizes[sizes > 0]).tolist():
            same = sizes == size
            sliding_window_view(region, size, writeable=True)[
                into[same]
            ] = sliding_window_view(source, size)[starts[same]]
    return lengths, region
