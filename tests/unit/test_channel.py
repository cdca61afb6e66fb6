"""Unit tests for repro.net.channel and repro.net.clock, and for the
Channel contract as the socket client (repro.net.aio) keeps it."""

import socket
import threading

import pytest

from repro.exceptions import ChannelError
from repro.net.aio import AsyncTcpServer, PipelinedTcpChannel
from repro.net.channel import InProcessChannel
from repro.net.clock import SimulatedClock, WallClock
from repro.wire.frames import (
    FLAG_LAST,
    HEADER_SIZE,
    KIND_RESPONSE,
    MAX_PAYLOAD,
    FrameHeader,
    encode_frame,
)


class _ScriptedServer:
    """Accepts one connection and plays back raw bytes, for driving the
    client's frame decoder into edge cases a real server never hits."""

    def __init__(self, script: bytes, *, close_after: bool = True) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._script = script
        self._close_after = close_after
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        conn.recv(65536)  # drain the client's request
        if self._script:
            conn.sendall(self._script)
        if not self._close_after:
            self.release.wait(5.0)  # hold the connection open, silent
        conn.close()
        self._listener.close()


class TestClocks:
    def test_wall_clock_monotonic(self):
        clock = WallClock()
        a = clock.now()
        b = clock.now()
        assert b >= a

    def test_simulated_clock_advances_only_on_demand(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5
        assert clock.now() == 1.5

    def test_simulated_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)

    def test_simulated_clock_start_offset(self):
        assert SimulatedClock(10.0).now() == 10.0


class TestInProcessChannel:
    def test_delivers_request_and_response(self):
        channel = InProcessChannel(lambda data: data[::-1])
        assert channel.request(b"abc") == b"cba"

    def test_byte_accounting(self):
        channel = InProcessChannel(lambda data: b"RESPONSE")
        channel.request(b"12345")
        assert channel.bytes_sent == 5
        assert channel.bytes_received == 8
        assert channel.bytes_total == 13
        assert channel.requests == 1

    def test_deterministic_communication_time(self):
        clock = SimulatedClock()
        channel = InProcessChannel(
            lambda data: b"x" * 100,
            latency=1e-3,
            bandwidth=1e6,
            clock=clock,
        )
        channel.request(b"y" * 200)
        expected = 2 * 1e-3 + 200 / 1e6 + 100 / 1e6
        assert channel.communication_time == pytest.approx(expected)
        assert clock.now() == pytest.approx(expected)

    def test_infinite_bandwidth_only_latency(self):
        channel = InProcessChannel(
            lambda data: b"", latency=2e-3, bandwidth=None
        )
        channel.request(b"x" * 1000)
        assert channel.communication_time == pytest.approx(4e-3)

    def test_reset_accounting(self):
        channel = InProcessChannel(lambda data: b"r")
        channel.request(b"q")
        channel.reset_accounting()
        assert channel.bytes_total == 0
        assert channel.communication_time == 0.0
        assert channel.requests == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ChannelError):
            InProcessChannel(lambda d: d, latency=-1.0)
        with pytest.raises(ChannelError):
            InProcessChannel(lambda d: d, bandwidth=0.0)


class TestTcp:
    def test_roundtrip_over_loopback(self):
        with AsyncTcpServer(lambda data: b"echo:" + data) as server:
            with server.connect() as channel:
                assert channel.request(b"hello") == b"echo:hello"

    def test_multiple_requests_one_connection(self):
        with AsyncTcpServer(lambda data: data.upper()) as server:
            with server.connect() as channel:
                for word in (b"one", b"two", b"three"):
                    assert channel.request(word) == word.upper()
                assert channel.requests == 3

    def test_byte_accounting_includes_framing(self):
        with AsyncTcpServer(lambda data: b"pong") as server:
            with server.connect() as channel:
                channel.request(b"ping")
                assert channel.bytes_sent == HEADER_SIZE + 4
                assert channel.bytes_received == HEADER_SIZE + 4

    def test_large_payload(self):
        blob = bytes(range(256)) * 4096  # 1 MiB
        with AsyncTcpServer(lambda data: data) as server:
            with server.connect() as channel:
                assert channel.request(blob) == blob

    def test_two_clients_in_parallel(self):
        with AsyncTcpServer(lambda data: data + b"!") as server:
            with server.connect() as a, server.connect() as b:
                assert a.request(b"a") == b"a!"
                assert b.request(b"b") == b"b!"

    def test_connect_to_closed_server_fails(self):
        server = AsyncTcpServer(lambda data: data)
        port = server.port
        server.shutdown()
        with pytest.raises(ChannelError):
            PipelinedTcpChannel("127.0.0.1", port, timeout=0.5)

    def test_note_server_time_reduces_comm_time(self):
        with AsyncTcpServer(lambda data: data) as server:
            with server.connect() as channel:
                channel.request(b"x")
                before = channel.communication_time
                channel.note_server_time(before / 2)
                assert channel.communication_time == pytest.approx(before / 2)
                # the round trip is spent: a second report, or one from
                # a thread that made no request, takes nothing more out
                channel.note_server_time(before)
                other = threading.Thread(
                    target=channel.note_server_time, args=(before,)
                )
                other.start()
                other.join(5)
                assert channel.communication_time == pytest.approx(before / 2)
                # and never more than the round trip itself
                channel.reset_accounting()
                channel.request(b"y")
                channel.note_server_time(3600.0)
                assert channel.communication_time == pytest.approx(0.0)


class TestFrameEdgeHandling:
    """A peer that closes mid-frame, stalls, or sends garbage must
    surface as a typed ChannelError with expected/got context — never a
    bare OSError and never a hang."""

    def test_close_mid_header_reports_expected_and_got(self):
        scripted = _ScriptedServer(b"\xde")  # 1 of 18 header bytes
        with PipelinedTcpChannel(
            "127.0.0.1", scripted.port, timeout=2.0
        ) as channel:
            with pytest.raises(ChannelError) as err:
                channel.request(b"ping")
        message = str(err.value)
        assert f"expected {HEADER_SIZE} bytes" in message
        assert "got 1" in message

    def test_close_mid_body_reports_expected_and_got(self):
        # header promises 100 bytes, only 7 arrive before the close
        scripted = _ScriptedServer(
            encode_frame(KIND_RESPONSE, 1, bytes(100))[: HEADER_SIZE + 7]
        )
        with PipelinedTcpChannel(
            "127.0.0.1", scripted.port, timeout=2.0
        ) as channel:
            with pytest.raises(ChannelError) as err:
                channel.request(b"ping")
        message = str(err.value)
        assert f"expected {HEADER_SIZE + 100} bytes" in message
        assert f"got {HEADER_SIZE + 7}" in message

    def test_clean_close_before_any_response(self):
        scripted = _ScriptedServer(b"")
        with PipelinedTcpChannel(
            "127.0.0.1", scripted.port, timeout=2.0
        ) as channel:
            with pytest.raises(ChannelError, match="got 0"):
                channel.request(b"ping")

    def test_stalled_peer_times_out_with_context(self):
        scripted = _ScriptedServer(
            encode_frame(KIND_RESPONSE, 1, bytes(50))[: HEADER_SIZE + 5],
            close_after=False,
        )
        with PipelinedTcpChannel(
            "127.0.0.1", scripted.port, timeout=0.3
        ) as channel:
            with pytest.raises(ChannelError, match="timed out after 0.3s"):
                channel.request(b"ping")
        scripted.release.set()

    def test_oversized_frame_rejected(self):
        # the bound is checked while *decoding*, so build the header by hand
        oversized = bytearray(
            FrameHeader(KIND_RESPONSE, FLAG_LAST, 1, 0).encode()
        )
        oversized[-4:] = (MAX_PAYLOAD + 1).to_bytes(4, "little")
        scripted = _ScriptedServer(bytes(oversized))
        with PipelinedTcpChannel(
            "127.0.0.1", scripted.port, timeout=2.0
        ) as channel:
            with pytest.raises(ChannelError, match="exceeds"):
                channel.request(b"ping")
