"""Frame codec (framing v2) of the socket transport.

Every message on a :mod:`repro.net.aio` connection, in either
direction, is one or more frames with a fixed 18-byte header::

    u32 magic            0xA110C0DE
    u8  kind             REQUEST / RESPONSE / ERROR
    u8  flags            bit 0 = LAST (final frame of its message)
    u64 correlation id   chosen by the client, echoed by the server
    u32 payload length   bytes that follow (<= MAX_PAYLOAD)

The correlation id is what lets one connection carry many in-flight
requests and receive their responses out of order; the LAST flag is
what lets a large response stream back as several chunk frames that the
client reassembles (:class:`FrameAssembler`). Requests always travel as
a single frame.

The magic number opens every frame, so a peer speaking anything else
(or a stream that lost sync) is detected at the next header instead of
having four arbitrary bytes trusted as a length.

Every decode error raises :class:`~repro.exceptions.ProtocolError`
immediately — garbage on the wire must fail fast, never hang a reader.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator

from repro.exceptions import ProtocolError

__all__ = [
    "FRAME_MAGIC",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "MAX_REQUEST_PAYLOAD",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "KIND_ERROR",
    "FLAG_LAST",
    "FLAG_DEADLINE",
    "FrameHeader",
    "FrameAssembler",
    "encode_frame",
    "encode_request_frame",
    "split_deadline",
    "response_frames",
]

_HEADER = struct.Struct("<IBBQI")

#: first four bytes of every frame
FRAME_MAGIC = 0xA110C0DE

#: encoded size of a frame header
HEADER_SIZE = _HEADER.size

#: largest payload a single frame may carry, and the bound on a
#: reassembled response
MAX_PAYLOAD = 1 << 30

#: largest payload a *request* frame may announce: the server refuses
#: anything larger on the header alone, before buffering a byte of it
#: (the largest request any workload sends is a ~430 KB bulk insert)
MAX_REQUEST_PAYLOAD = 64 << 20

KIND_REQUEST = 0
KIND_RESPONSE = 1
KIND_ERROR = 2

_KINDS = (KIND_REQUEST, KIND_RESPONSE, KIND_ERROR)

#: final frame of its message (set on every request and error frame,
#: and on the last chunk of a streamed response)
FLAG_LAST = 0x01

#: request carries a deadline: the first 8 payload bytes are a
#: little-endian float64 time *budget* in seconds (relative, so client
#: and server clocks never need to agree); the RPC body follows. The
#: server sheds the request unexecuted once the budget expires.
FLAG_DEADLINE = 0x02

_KNOWN_FLAGS = FLAG_LAST | FLAG_DEADLINE

_DEADLINE = struct.Struct("<d")


@dataclass(frozen=True)
class FrameHeader:
    """Decoded v2 frame header."""

    kind: int
    flags: int
    correlation_id: int
    length: int

    @property
    def is_last(self) -> bool:
        """Whether this frame completes its message."""
        return bool(self.flags & FLAG_LAST)

    def encode(self) -> bytes:
        """The 18-byte wire form (validates every field)."""
        if self.kind not in _KINDS:
            raise ProtocolError(f"unknown frame kind {self.kind}")
        if self.flags & ~_KNOWN_FLAGS:
            raise ProtocolError(f"unknown frame flags 0x{self.flags:02x}")
        if not 0 <= self.correlation_id <= 0xFFFFFFFFFFFFFFFF:
            raise ProtocolError(
                f"correlation id out of range: {self.correlation_id}"
            )
        if not 0 <= self.length <= MAX_PAYLOAD:
            raise ProtocolError(
                f"frame payload of {self.length} bytes exceeds the "
                f"{MAX_PAYLOAD}-byte limit"
            )
        return _HEADER.pack(
            FRAME_MAGIC, self.kind, self.flags, self.correlation_id,
            self.length,
        )

    @classmethod
    def decode(cls, data: bytes) -> "FrameHeader":
        """Decode and validate an 18-byte header."""
        if len(data) != HEADER_SIZE:
            raise ProtocolError(
                f"frame header truncated: expected {HEADER_SIZE} bytes, "
                f"got {len(data)}"
            )
        magic, kind, flags, correlation_id, length = _HEADER.unpack(data)
        if magic != FRAME_MAGIC:
            raise ProtocolError(
                f"bad frame magic 0x{magic:08x} "
                f"(expected 0x{FRAME_MAGIC:08x})"
            )
        if kind not in _KINDS:
            raise ProtocolError(f"unknown frame kind {kind}")
        if flags & ~_KNOWN_FLAGS:
            raise ProtocolError(f"unknown frame flags 0x{flags:02x}")
        if length > MAX_PAYLOAD:
            raise ProtocolError(
                f"frame payload of {length} bytes exceeds the "
                f"{MAX_PAYLOAD}-byte limit"
            )
        return cls(kind, flags, correlation_id, length)


def encode_frame(
    kind: int, correlation_id: int, payload: bytes, *, flags: int = FLAG_LAST
) -> bytes:
    """One complete frame: validated header followed by ``payload``."""
    header = FrameHeader(kind, flags, correlation_id, len(payload))
    return header.encode() + payload


def encode_request_frame(
    correlation_id: int, payload: bytes, *, deadline: float | None = None
) -> bytes:
    """One request frame, optionally carrying a deadline budget.

    ``deadline`` is the remaining time budget in seconds; it travels as
    the first 8 payload bytes under :data:`FLAG_DEADLINE`. ``None``
    yields a plain request frame, bit-identical to the pre-deadline
    wire format.
    """
    if deadline is None:
        return encode_frame(KIND_REQUEST, correlation_id, payload)
    if not deadline > 0 or deadline != deadline or deadline == float("inf"):
        raise ProtocolError(
            f"deadline budget must be a positive finite number of "
            f"seconds, got {deadline}"
        )
    return encode_frame(
        KIND_REQUEST,
        correlation_id,
        _DEADLINE.pack(deadline) + payload,
        flags=FLAG_LAST | FLAG_DEADLINE,
    )


def split_deadline(
    header: FrameHeader, payload: bytes
) -> tuple[float | None, bytes]:
    """Separate a request frame's deadline budget from its RPC body.

    Returns ``(budget_seconds, body)``; the budget is ``None`` when the
    frame carries no :data:`FLAG_DEADLINE`. A flagged frame too short
    to hold the budget, or one carrying a non-positive or non-finite
    budget, is a protocol violation.
    """
    if not header.flags & FLAG_DEADLINE:
        return None, payload
    if len(payload) < _DEADLINE.size:
        raise ProtocolError(
            f"deadline-flagged frame of {len(payload)} bytes cannot "
            f"hold an {_DEADLINE.size}-byte budget"
        )
    (budget,) = _DEADLINE.unpack_from(payload)
    if not budget > 0 or budget != budget or budget == float("inf"):
        raise ProtocolError(
            f"deadline budget must be a positive finite number of "
            f"seconds, got {budget}"
        )
    return budget, payload[_DEADLINE.size :]


def response_frames(
    correlation_id: int, payload: bytes, chunk_size: int
) -> Iterator[bytes]:
    """Frame a response, chunking payloads larger than ``chunk_size``.

    Yields one RESPONSE frame per chunk; only the final frame carries
    the LAST flag. An empty payload still yields one (empty, LAST)
    frame so the client's future always resolves.
    """
    if chunk_size <= 0:
        raise ProtocolError(f"chunk_size must be positive, got {chunk_size}")
    if len(payload) <= chunk_size:
        yield encode_frame(KIND_RESPONSE, correlation_id, payload)
        return
    for start in range(0, len(payload), chunk_size):
        chunk = payload[start : start + chunk_size]
        last = start + chunk_size >= len(payload)
        yield encode_frame(
            KIND_RESPONSE,
            correlation_id,
            chunk,
            flags=FLAG_LAST if last else 0,
        )


class FrameAssembler:
    """Reassembles chunked responses, one message per correlation id.

    Feed every received (header, payload) pair to :meth:`add`; it
    returns the complete message once the LAST-flagged frame of that
    correlation id arrives, and ``None`` while chunks are still
    outstanding. A message is bounded by :data:`MAX_PAYLOAD` in bytes
    (a running total per id) and, because every frame but the last must
    carry at least one byte, by the same number in frames; whoever
    feeds it bounds the number of ids (:meth:`discard`).
    """

    def __init__(self) -> None:
        #: correlation id -> (payload bytes held, their chunks)
        self._partial: dict[int, tuple[int, list[bytes]]] = {}

    def add(self, header: FrameHeader, payload: bytes) -> bytes | None:
        """Absorb one frame; returns the full message when complete.

        A frame that breaks a rule raises
        :class:`~repro.exceptions.ProtocolError` and drops what was
        held for its id.
        """
        size, chunks = self._partial.pop(header.correlation_id, (0, []))
        if len(payload) != header.length:
            raise ProtocolError(
                f"frame payload truncated: expected {header.length} "
                f"bytes, got {len(payload)}"
            )
        if not payload and not header.is_last:
            # it would grow the chunk list without moving the byte total
            raise ProtocolError("empty frame that is not the last one")
        size += len(payload)
        if size > MAX_PAYLOAD:
            raise ProtocolError(
                f"reassembled message exceeds the {MAX_PAYLOAD}-byte limit"
            )
        chunks.append(payload)
        if not header.is_last:
            self._partial[header.correlation_id] = (size, chunks)
            return None
        return b"".join(chunks)

    def discard(self, correlation_id: int) -> None:
        """Drop whatever is held for ``correlation_id``."""
        self._partial.pop(correlation_id, None)

    def pending(self) -> int:
        """Number of messages with outstanding chunks."""
        return len(self._partial)

    def buffered(self) -> int:
        """Payload bytes held for messages with outstanding chunks."""
        return sum(size for size, _chunks in self._partial.values())
