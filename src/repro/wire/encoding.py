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
"""

from __future__ import annotations

import struct

import numpy as np

from repro.exceptions import ProtocolError

__all__ = ["Writer", "Reader"]

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
