"""Property-based tests for the pipelined framing codec (framing v2).

The frame header is the trust boundary of the async stack: every byte
sequence a peer can send must either decode into a valid header or
raise a clean :class:`ProtocolError` — never hang, never crash the
reader with an unexpected exception type.
"""

import struct
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ProtocolError
from repro.wire import frames as frames_module
from repro.wire.frames import (
    FLAG_LAST,
    FRAME_MAGIC,
    HEADER_SIZE,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_PAYLOAD,
    FrameAssembler,
    FrameHeader,
    encode_frame,
    response_frames,
)

kinds = st.sampled_from([KIND_REQUEST, KIND_RESPONSE, KIND_ERROR])
flags = st.sampled_from([0, FLAG_LAST])
correlation_ids = st.integers(min_value=0, max_value=2**64 - 1)
lengths = st.integers(min_value=0, max_value=MAX_PAYLOAD)


class TestHeaderRoundtrip:
    @settings(max_examples=200, deadline=None)
    @given(kind=kinds, flag=flags, cid=correlation_ids, length=lengths)
    def test_encode_decode_identity(self, kind, flag, cid, length):
        header = FrameHeader(kind, flag, cid, length)
        encoded = header.encode()
        assert len(encoded) == HEADER_SIZE
        assert FrameHeader.decode(encoded) == header

    @settings(max_examples=100, deadline=None)
    @given(cid=correlation_ids, payload=st.binary(max_size=300))
    def test_frame_carries_correlation_id_and_payload(self, cid, payload):
        frame = encode_frame(KIND_REQUEST, cid, payload)
        header = FrameHeader.decode(frame[:HEADER_SIZE])
        assert header.correlation_id == cid
        assert header.kind == KIND_REQUEST
        assert header.is_last
        assert frame[HEADER_SIZE:] == payload
        assert header.length == len(payload)


class TestHeaderRejection:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(min_size=HEADER_SIZE, max_size=HEADER_SIZE))
    def test_garbage_decodes_or_rejects_cleanly(self, data):
        # any 18 bytes either form a valid header or raise ProtocolError;
        # no other exception type may escape (a reader must never hang
        # on or crash from attacker-controlled bytes)
        try:
            header = FrameHeader.decode(data)
        except ProtocolError:
            return
        assert header.encode() == data

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=HEADER_SIZE - 1))
    def test_truncated_header_rejected(self, data):
        with pytest.raises(ProtocolError):
            FrameHeader.decode(data)

    @settings(max_examples=100, deadline=None)
    @given(
        magic=st.integers(min_value=0, max_value=2**32 - 1),
        cid=correlation_ids,
    )
    def test_wrong_magic_rejected(self, magic, cid):
        if magic == FRAME_MAGIC:
            magic ^= 1
        data = struct.pack("<IBBQI", magic, KIND_REQUEST, FLAG_LAST, cid, 0)
        with pytest.raises(ProtocolError):
            FrameHeader.decode(data)

    @settings(max_examples=50, deadline=None)
    @given(
        length=st.integers(min_value=MAX_PAYLOAD + 1, max_value=2**32 - 1),
        cid=correlation_ids,
    )
    def test_oversized_length_rejected(self, length, cid):
        data = struct.pack(
            "<IBBQI", FRAME_MAGIC, KIND_RESPONSE, FLAG_LAST, cid, length
        )
        with pytest.raises(ProtocolError):
            FrameHeader.decode(data)
        with pytest.raises(ProtocolError):
            FrameHeader(KIND_RESPONSE, FLAG_LAST, cid, length).encode()

    @settings(max_examples=50, deadline=None)
    @given(kind=st.integers(min_value=3, max_value=255), cid=correlation_ids)
    def test_unknown_kind_rejected(self, kind, cid):
        data = struct.pack("<IBBQI", FRAME_MAGIC, kind, FLAG_LAST, cid, 0)
        with pytest.raises(ProtocolError):
            FrameHeader.decode(data)

    @settings(max_examples=50, deadline=None)
    @given(flag=st.integers(min_value=4, max_value=255), cid=correlation_ids)
    def test_unknown_flags_rejected(self, flag, cid):
        # 0x01 (LAST) and 0x02 (DEADLINE) are known; any value >= 4
        # carries at least one undefined bit and must be rejected
        data = struct.pack("<IBBQI", FRAME_MAGIC, KIND_REQUEST, flag, cid, 0)
        with pytest.raises(ProtocolError):
            FrameHeader.decode(data)


class TestChunkedReassembly:
    @settings(max_examples=100, deadline=None)
    @given(
        payload=st.binary(max_size=4096),
        chunk_size=st.integers(min_value=1, max_value=1024),
        cid=correlation_ids,
    )
    def test_split_reassemble_roundtrip(self, payload, chunk_size, cid):
        assembler = FrameAssembler()
        complete = None
        frames = list(response_frames(cid, payload, chunk_size))
        for position, frame in enumerate(frames):
            header = FrameHeader.decode(frame[:HEADER_SIZE])
            body = frame[HEADER_SIZE:]
            assert header.kind == KIND_RESPONSE
            assert header.correlation_id == cid
            assert len(body) <= max(chunk_size, 1)
            assert header.is_last == (position == len(frames) - 1)
            assert complete is None  # nothing completes before LAST
            complete = assembler.add(header, body)
        assert complete == payload
        assert assembler.pending() == 0

    @settings(max_examples=60, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=600), min_size=1, max_size=6),
        chunk_size=st.integers(min_value=1, max_value=128),
    )
    def test_interleaved_streams_reassemble_independently(
        self, payloads, chunk_size
    ):
        # chunk frames of several correlation ids arriving round-robin
        # (the pipelined wire's worst case) must reassemble per-id
        assembler = FrameAssembler()
        streams = [
            [
                (FrameHeader.decode(f[:HEADER_SIZE]), f[HEADER_SIZE:])
                for f in response_frames(cid, payload, chunk_size)
            ]
            for cid, payload in enumerate(payloads)
        ]
        completed = {}
        while any(streams):
            for cid, stream in enumerate(streams):
                if not stream:
                    continue
                header, body = stream.pop(0)
                result = assembler.add(header, body)
                if result is not None:
                    completed[cid] = result
        assert completed == dict(enumerate(payloads))
        assert assembler.pending() == 0

    @settings(max_examples=60, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=200), cid=correlation_ids)
    def test_truncated_chunk_rejected(self, payload, cid):
        assembler = FrameAssembler()
        header = FrameHeader(KIND_RESPONSE, FLAG_LAST, cid, len(payload) + 1)
        with pytest.raises(ProtocolError):
            assembler.add(header, payload)


#: the reassembly cap the hostile-frame property runs under, so totals
#: over it are reachable with a few short frames
_SMALL_CAP = 64

hostile_frames = st.lists(
    st.tuples(
        st.binary(max_size=40),
        st.booleans(),  # LAST
        st.sampled_from([0, 0, 0, 1, -1]),  # announced minus real length
    ),
    min_size=1,
    max_size=6,
)
cut_messages = st.tuples(
    st.binary(max_size=2 * _SMALL_CAP), st.integers(min_value=1, max_value=16)
)
header_bytes = st.one_of(
    st.binary(max_size=2 * HEADER_SIZE),
    st.binary(min_size=14, max_size=14).map(
        lambda rest: struct.pack("<I", FRAME_MAGIC) + rest
    ),
)


class TestHostileFrames:
    @settings(max_examples=200, deadline=None)
    @given(
        blob=header_bytes,
        streams=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # repeated ids
                st.one_of(hostile_frames, cut_messages),
            ),
            max_size=6,
        ),
        data=st.data(),
    )
    def test_any_input_reassembles_exactly_or_is_refused(
        self, blob, streams, data
    ):
        try:
            header = FrameHeader.decode(blob)
        except ProtocolError:
            pass
        else:
            assert header.encode() == blob

        # each stream's frames in order, the streams interleaved
        queues = []
        for cid, source in streams:
            if isinstance(source, tuple):
                payload, chunk_size = source
                queues.append([
                    (FrameHeader.decode(f[:HEADER_SIZE]), f[HEADER_SIZE:])
                    for f in response_frames(cid, payload, chunk_size)
                ])
            else:
                queues.append([
                    (
                        FrameHeader(
                            KIND_RESPONSE,
                            FLAG_LAST if last else 0,
                            cid,
                            len(payload) + lie,
                        ),
                        payload,
                    )
                    for payload, last, lie in source
                ])
        order = data.draw(
            st.permutations(
                [i for i, queue in enumerate(queues) for _ in queue]
            )
        )
        alone = {
            cid: source[0]
            for cid, source in streams
            if isinstance(source, tuple)
            and len(source[0]) <= _SMALL_CAP
            and [c for c, _ in streams].count(cid) == 1
        }

        assembler = FrameAssembler()
        held: dict[int, list[bytes]] = {}
        fed = 0
        with mock.patch.object(frames_module, "MAX_PAYLOAD", _SMALL_CAP):
            for index in order:
                header, payload = queues[index].pop(0)
                cid = header.correlation_id
                fed += len(payload)
                chunks = held.pop(cid, [])
                total = sum(map(len, chunks)) + len(payload)
                if (
                    len(payload) != header.length
                    or (not payload and not header.is_last)
                    or total > _SMALL_CAP
                ):
                    with pytest.raises(ProtocolError):
                        assembler.add(header, payload)
                elif header.is_last:
                    message = assembler.add(header, payload)
                    assert message == b"".join(chunks) + payload
                    assert message == alone.get(cid, message)
                else:
                    assert assembler.add(header, payload) is None
                    held[cid] = chunks + [payload]
                assert assembler.pending() == len(held)
                assert (
                    assembler.buffered()
                    == sum(len(c) for cs in held.values() for c in cs)
                    <= fed
                )

    def test_many_small_frames_cost_linear_time(self):
        # a total recomputed per frame made this quadratic: minutes
        assembler = FrameAssembler()
        piece = FrameHeader(KIND_RESPONSE, 0, 9, 1)
        start = time.perf_counter()
        for _ in range(50_000):
            assert assembler.add(piece, b"x") is None
        last = FrameHeader(KIND_RESPONSE, FLAG_LAST, 9, 0)
        assert assembler.add(last, b"") == b"x" * 50_000
        assert time.perf_counter() - start < 10.0
        assert assembler.pending() == 0 and assembler.buffered() == 0
