"""Unit tests for the socket transport (repro.net.aio)."""

import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exceptions import (
    ChannelError,
    DeadlineExceededError,
    ProtocolError,
    ServerBusyError,
)
from repro.net.aio import AsyncTcpServer, PipelinedTcpChannel
from repro.net.rpc import RpcClient, RpcDispatcher
from repro.wire.encoding import Writer
from repro.wire.frames import (
    FRAME_MAGIC,
    HEADER_SIZE,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_REQUEST_PAYLOAD,
    FrameHeader,
    encode_frame,
    encode_request_frame,
    response_frames,
)

from tests.conftest import burst_frames, request_concurrently


class TestAsyncServerBasics:
    def test_roundtrip_via_sync_facade(self):
        with AsyncTcpServer(lambda data: b"echo:" + data) as server:
            with server.connect() as channel:
                assert channel.request(b"hi") == b"echo:hi"

    def test_many_requests_one_channel(self):
        with AsyncTcpServer(lambda data: data.upper()) as server:
            with server.connect() as channel:
                for word in (b"one", b"two", b"three"):
                    assert channel.request(word) == word.upper()
                assert channel.requests == 3

    def test_empty_payloads(self):
        with AsyncTcpServer(lambda data: b"") as server:
            with server.connect() as channel:
                assert channel.request(b"") == b""

    def test_chunked_large_response(self):
        blob = bytes(range(256)) * 4096  # 1 MiB
        with AsyncTcpServer(lambda data: data, chunk_size=4096) as server:
            with server.connect() as channel:
                assert channel.request(blob) == blob

    def test_invalid_parameters_rejected(self):
        for kwargs in (
            {"max_workers": 0},
            {"max_inflight_per_connection": 0},
            {"max_pending": -1},
            {"chunk_size": 0},
        ):
            with pytest.raises(ChannelError):
                AsyncTcpServer(lambda data: data, **kwargs)

    def test_connect_to_closed_server_fails(self):
        server = AsyncTcpServer(lambda data: data)
        port = server.port
        server.shutdown()
        with pytest.raises(ChannelError):
            PipelinedTcpChannel("127.0.0.1", port, timeout=0.5)

    def test_shutdown_idempotent(self):
        server = AsyncTcpServer(lambda data: data)
        server.shutdown()
        server.shutdown()

    def test_handler_exception_becomes_error_not_crash(self):
        def handler(data: bytes) -> bytes:
            if data == b"boom":
                raise RuntimeError("kaput")
            return data

        with AsyncTcpServer(handler) as server:
            with server.connect() as channel:
                with pytest.raises(ChannelError, match="kaput"):
                    channel.request(b"boom")
                # the connection and server survive the failed handler
                assert channel.request(b"fine") == b"fine"


class TestPipelining:
    def test_out_of_order_completion(self):
        def handler(data: bytes) -> bytes:
            if data == b"slow":
                time.sleep(0.3)
            return data + b"-done"

        with AsyncTcpServer(handler, max_workers=4) as server:
            with server.connect() as channel:
                slow_result = []
                slow = threading.Thread(
                    target=lambda: slow_result.append(channel.request(b"slow"))
                )
                slow.start()
                time.sleep(0.05)  # slow is dispatched first
                start = time.perf_counter()
                fast = channel.request(b"fast")
                fast_elapsed = time.perf_counter() - start
                slow.join(5)
        assert fast == b"fast-done"
        assert slow_result == [b"slow-done"]
        # the fast response overtook the slow one on the same connection
        assert fast_elapsed < 0.25

    def test_interleaved_burst_on_one_connection(self):
        # 48 frames in one write: more than the 32-slot window, so the
        # server also has to stall and resume reading mid-burst
        words = [b"m%d" % i for i in range(48)]
        with AsyncTcpServer(lambda data: data * 2, max_workers=4) as server:
            answers = burst_frames(server.host, server.port, words)
        assert answers == [(KIND_RESPONSE, w * 2) for w in words]

    def test_threads_share_one_pipelined_channel(self):
        def handler(data: bytes) -> bytes:
            time.sleep(0.01)
            return data[::-1]

        with AsyncTcpServer(handler, max_workers=8) as server:
            with server.connect() as channel:
                results: dict[int, bytes] = {}

                def worker(i: int) -> None:
                    payload = b"thread-%03d" % i
                    results[i] = channel.request(payload)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(16)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert results == {
                    i: (b"thread-%03d" % i)[::-1] for i in range(16)
                }
                assert channel.requests == 16


class TestBackpressure:
    def test_load_shedding_replies_server_busy(self):
        def handler(data: bytes) -> bytes:
            time.sleep(0.15)
            return data

        with AsyncTcpServer(
            handler, max_workers=2, max_pending=2
        ) as server:
            with server.connect() as channel:
                results = request_concurrently(
                    channel, [b"r%d" % i for i in range(12)]
                )
            shed = [r for r in results if isinstance(r, ServerBusyError)]
            served = [r for r in results if isinstance(r, bytes)]
            assert len(shed) >= 1
            assert len(shed) + len(served) == 12
            assert server.shed_requests == len(shed)
            # the server recovers once the burst drains
            with server.connect() as channel:
                assert channel.request(b"after") == b"after"

    def test_per_connection_window_limits_inflight(self):
        inflight = {"now": 0, "max": 0}
        gate = threading.Lock()

        def handler(data: bytes) -> bytes:
            with gate:
                inflight["now"] += 1
                inflight["max"] = max(inflight["max"], inflight["now"])
            time.sleep(0.02)
            with gate:
                inflight["now"] -= 1
            return data

        with AsyncTcpServer(
            handler,
            max_workers=16,
            max_inflight_per_connection=3,
            max_pending=1000,
        ) as server:
            answers = burst_frames(server.host, server.port, [b"x"] * 20)
        assert answers == [(KIND_RESPONSE, b"x")] * 20
        assert inflight["max"] <= 3

    def test_pending_counter_returns_to_zero(self):
        with AsyncTcpServer(lambda data: data) as server:
            with server.connect() as channel:
                for _ in range(5):
                    channel.request(b"q")
            deadline = time.time() + 2.0
            while server.pending and time.time() < deadline:
                time.sleep(0.01)
            assert server.pending == 0
            assert server.requests_served == 5


class TestDisconnects:
    def test_mid_request_disconnect_leaves_server_alive(self):
        def handler(data: bytes) -> bytes:
            time.sleep(0.1)
            return data

        with AsyncTcpServer(handler) as server:
            # send a complete request, then vanish before the response
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(encode_frame(KIND_REQUEST, 7, b"abandoned"))
            sock.close()
            # a partial frame then disconnect must not wedge the reader
            sock = socket.create_connection((server.host, server.port))
            sock.sendall(encode_frame(KIND_REQUEST, 8, b"partial")[:10])
            sock.close()
            time.sleep(0.3)
            with server.connect() as channel:
                assert channel.request(b"still-alive") == b"still-alive"

    def test_garbage_framing_drops_connection_not_server(self):
        with AsyncTcpServer(lambda data: data) as server:
            sock = socket.create_connection((server.host, server.port))
            # valid magic, unknown kind -> ProtocolError -> drop
            sock.sendall(struct.pack("<IBBQI", FRAME_MAGIC, 99, 1, 1, 0))
            time.sleep(0.1)
            # server closed the offending connection...
            sock.settimeout(1.0)
            assert sock.recv(1) == b""
            sock.close()
            # ...but keeps serving others
            with server.connect() as channel:
                assert channel.request(b"ok") == b"ok"

    @pytest.mark.parametrize(
        "opening, error_frame",
        [
            # a 4-byte length prefix announcing ~1 GiB, then body bytes
            (struct.pack("<I", 0x3FFFFFFF) + b"x" * 64, False),
            # a well-formed request header announcing 65 MiB
            (
                FrameHeader(
                    KIND_REQUEST, 1, 9, MAX_REQUEST_PAYLOAD + (1 << 20)
                ).encode(),
                True,
            ),
        ],
        ids=["length-prefix", "oversized-request"],
    )
    def test_hostile_opening_refused_on_the_header(self, opening, error_frame):
        """What a header may make the server buffer is bounded: neither
        opening gets a payload byte read, the handler never runs, and
        the peer sees the close within a second."""
        ran = []
        with AsyncTcpServer(lambda data: (ran.append(data), data)[1]) as server:
            sock = socket.create_connection((server.host, server.port))
            sock.settimeout(1.0)  # recv raises if the close takes longer
            sock.sendall(opening)
            received = b""
            while chunk := sock.recv(4096):
                received += chunk
            sock.close()
            if error_frame:
                header = FrameHeader.decode(received[:HEADER_SIZE])
                assert (header.kind, header.correlation_id) == (KIND_ERROR, 9)
                assert b"exceeds" in received[HEADER_SIZE:]
            else:
                assert received == b""
            with server.connect() as channel:
                assert channel.request(b"ok") == b"ok"
        assert ran == [b"ok"]

    def test_oversized_request_fails_before_it_is_sent(self):
        with AsyncTcpServer(lambda data: data) as server:
            with server.connect() as channel:
                with pytest.raises(ChannelError, match="request limit"):
                    channel.request(bytes(MAX_REQUEST_PAYLOAD + 1))
                assert channel.request(b"ok") == b"ok"

    def test_server_shutdown_fails_pending_requests(self):
        def handler(data: bytes) -> bytes:
            time.sleep(5.0)
            return data

        server = AsyncTcpServer(handler)
        channel = PipelinedTcpChannel(
            server.host, server.port, timeout=2.0
        )
        errors = []

        def blocked():
            try:
                channel.request(b"never-answered")
            except ChannelError as exc:
                errors.append(exc)

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.1)
        server.shutdown()
        thread.join(5.0)
        channel.close()
        assert len(errors) == 1


class TestRpcOverPipelinedChannel:
    def test_rpc_over_pipelined_channel(self):
        dispatcher = RpcDispatcher()
        dispatcher.register(
            "double", lambda body: Writer().u32(body.u32() * 2)
        )
        with AsyncTcpServer(dispatcher.handle) as server:
            with server.connect() as channel:
                rpcs = [RpcClient(channel) for _ in range(10)]

                def double(i: int) -> int:
                    return rpcs[i].call("double", Writer().u32(i)).u32()

                with ThreadPoolExecutor(max_workers=10) as pool:
                    values = list(pool.map(double, range(10)))
                assert channel.requests == 10
        assert values == [2 * i for i in range(10)]
        assert [rpc.calls for rpc in rpcs] == [1] * 10
        assert all(rpc.server_time >= 0.0 for rpc in rpcs)

    def test_rpc_error_propagates_with_message(self):
        dispatcher = RpcDispatcher()
        with AsyncTcpServer(dispatcher.handle) as server:
            with server.connect() as channel:
                with pytest.raises(ProtocolError, match="unknown method"):
                    RpcClient(channel).call("nope")

    def test_communication_time_excludes_each_requests_server_time(self):
        """The Channel contract: communication_time is transport time
        *excluding* server processing — per request, also when many
        threads share the channel."""
        dispatcher = RpcDispatcher()

        def nap(body):
            time.sleep(0.05)
            return Writer()

        dispatcher.register("nap", nap)
        with AsyncTcpServer(dispatcher.handle, max_workers=8) as server:
            with server.connect() as channel:
                rpcs = [RpcClient(channel) for _ in range(8)]

                def four_calls(rpc: RpcClient) -> None:
                    for _ in range(4):
                        rpc.call("nap")

                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(four_calls, rpcs))
                server_time = sum(rpc.server_time for rpc in rpcs)
                assert channel.requests == 32
                assert server_time >= 32 * 0.05
                assert 0.0 <= channel.communication_time < 0.5 * server_time
            # one thread: server + communication add up to the wall time
            with server.connect() as channel:
                rpc = RpcClient(channel)
                start = time.perf_counter()
                for _ in range(4):
                    rpc.call("nap")
                wall = time.perf_counter() - start
                overall = rpc.server_time + channel.communication_time
                assert overall == pytest.approx(wall, rel=0.2)


class TestDeadlines:
    def test_deadline_met_is_invisible(self):
        with AsyncTcpServer(lambda data: b"ok:" + data) as server:
            with server.connect() as channel:
                assert channel.request(b"x", deadline=30.0) == b"ok:x"
        assert server.deadline_expirations == 0

    def test_expired_budget_sheds_before_handler_runs(self):
        ran = []
        gate = threading.Event()

        def handler(data):
            if data == b"slow":
                gate.wait(5)
            ran.append(data)
            return data

        # one worker: the slow request occupies it, so the deadlined
        # request waits out its tiny budget in the queue
        with AsyncTcpServer(handler, max_workers=1) as server:
            with server.connect() as channel:
                results = []

                def slow():
                    results.append(channel.request(b"slow"))

                thread = threading.Thread(target=slow)
                thread.start()
                time.sleep(0.1)
                with pytest.raises(DeadlineExceededError):
                    channel.request(b"fast", deadline=0.05)
                gate.set()
                thread.join(5)
                assert results == [b"slow"]
            # the shed happens when the worker frees up, just after the
            # slow response went out
            limit = time.time() + 2.0
            while not server.deadline_expirations and time.time() < limit:
                time.sleep(0.01)
            assert server.deadline_expirations == 1
        assert b"fast" not in ran

    def test_local_wait_bounded_by_deadline(self):
        gate = threading.Event()
        with AsyncTcpServer(lambda data: (gate.wait(5), data)[1]) as server:
            with server.connect() as channel:
                start = time.perf_counter()
                with pytest.raises(DeadlineExceededError):
                    channel.request(b"x", deadline=0.2)
                assert time.perf_counter() - start < 2.0
                gate.set()

    def test_deadline_frame_is_backward_compatible(self):
        # a deadline-free request must be bit-identical to the
        # pre-deadline wire format
        plain = encode_frame(KIND_REQUEST, 7, b"abc")
        assert encode_request_frame(7, b"abc") == plain
        assert encode_request_frame(7, b"abc", deadline=1.0) != plain


class TestGracefulDrain:
    def test_drain_refuses_new_requests(self):
        with AsyncTcpServer(lambda data: data) as server:
            with server.connect() as channel:
                assert channel.request(b"before") == b"before"
                assert server.drain(timeout=5)
                assert server.draining
                with pytest.raises(ServerBusyError, match="draining"):
                    channel.request(b"after")
            assert server.shed_requests == 1

    def test_drain_finishes_inflight_work(self):
        gate = threading.Event()

        def handler(data):
            gate.wait(5)
            return b"done:" + data

        with AsyncTcpServer(handler) as server:
            with server.connect() as channel:
                results = []

                def worker():
                    results.append(channel.request(b"w"))

                thread = threading.Thread(target=worker)
                thread.start()
                time.sleep(0.1)

                drained = []
                drainer = threading.Thread(
                    target=lambda: drained.append(server.drain(timeout=5))
                )
                drainer.start()
                time.sleep(0.1)
                gate.set()
                drainer.join(10)
                thread.join(10)
                # the in-flight request completed and was acknowledged
                assert results == [b"done:w"]
                assert drained == [True]

    def test_drain_timeout_returns_false(self):
        gate = threading.Event()
        with AsyncTcpServer(lambda data: (gate.wait(10), data)[1]) as server:
            with server.connect() as channel:
                thread = threading.Thread(
                    target=lambda: channel.request(b"x")
                )
                thread.start()
                time.sleep(0.1)
                assert server.drain(timeout=0.2) is False
                gate.set()
                thread.join(10)

    def test_drain_closes_listener(self):
        with AsyncTcpServer(lambda data: data) as server:
            assert server.drain(timeout=5)
            with pytest.raises(ChannelError):
                PipelinedTcpChannel(server.host, server.port, timeout=0.5)


class TestReaderDeath:
    def test_dead_reader_fails_outstanding_and_new_requests(self):
        gate = threading.Event()
        with AsyncTcpServer(lambda data: (gate.wait(5), data)[1]) as server:
            channel = server.connect()
            try:
                # wedge a request in flight, then kill the socket from
                # under the reader thread
                thread_errors = []

                def worker():
                    try:
                        channel.request(b"x")
                    except ChannelError as exc:
                        thread_errors.append(exc)

                thread = threading.Thread(target=worker)
                thread.start()
                time.sleep(0.1)
                channel._sock.shutdown(socket.SHUT_RDWR)
                thread.join(5)
                gate.set()
                # the outstanding request failed with a typed error...
                assert len(thread_errors) == 1
                assert not isinstance(
                    thread_errors[0], DeadlineExceededError
                )
                # ...and new sends are auto-rejected with the reason
                with pytest.raises(ChannelError, match="dead"):
                    channel.request(b"y")
            finally:
                channel.close()

    def test_reader_crash_fails_all_not_hangs(self):
        # force an unexpected (non-IO) exception inside the reader loop
        # and verify every blocked caller gets a typed error
        with AsyncTcpServer(lambda data: data) as server:
            channel = server.connect()
            try:
                original = channel._dispatch

                def exploding(header, payload):
                    raise RuntimeError("synthetic reader bug")

                channel._dispatch = exploding
                with pytest.raises(ChannelError, match="reader thread died"):
                    channel.request(b"x", deadline=5.0)
                channel._dispatch = original
                with pytest.raises(ChannelError, match="dead"):
                    channel.request(b"y")
            finally:
                channel.close()


def _scripted_peer(script):
    """A listening socket whose one connection is handled by
    ``script(read_request, send)`` on a thread; ``read_request()``
    returns the next request frame's ``(correlation id, payload)``.
    Returns ``(host, port, thread)``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        with listener, listener.accept()[0] as conn:
            with conn.makefile("rb") as stream:

                def read_request():
                    header = FrameHeader.decode(stream.read(HEADER_SIZE))
                    return header.correlation_id, stream.read(header.length)

                script(read_request, conn.sendall)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return (*listener.getsockname(), thread)


class TestFramesNotInFlight:
    def test_frames_for_ids_never_sent_are_counted_and_dropped(self):
        def script(read_request, send):
            cid, payload = read_request()
            send(b"".join(
                encode_frame(KIND_RESPONSE, stray, b"x" * 100, flags=0)
                for stray in range(1000, 2000)
            ))
            send(encode_frame(KIND_ERROR, 5000, b"nobody asked"))
            send(b"".join(response_frames(cid, b"re:" + payload, 2)))
            cid, payload = read_request()
            send(encode_frame(KIND_RESPONSE, cid, b"re:" + payload))

        host, port, peer = _scripted_peer(script)
        with PipelinedTcpChannel(host, port, timeout=5.0) as channel:
            assert channel.request(b"one") == b"re:one"
            assert channel._assembler.pending() == 0
            assert channel.frames_discarded == 1001
            assert channel.request(b"two") == b"re:two"
        peer.join(5)

    def test_late_answer_to_an_abandoned_request_is_dropped(self):
        gave_up = threading.Event()

        def script(read_request, send):
            cid, _payload = read_request()
            answer = list(response_frames(cid, b"late" * 100, 64))
            send(answer[0])
            gave_up.wait(5)
            send(b"".join(answer[1:]))
            cid, payload = read_request()
            send(encode_frame(KIND_RESPONSE, cid, b"re:" + payload))

        host, port, peer = _scripted_peer(script)
        with PipelinedTcpChannel(host, port, timeout=5.0) as channel:
            with pytest.raises(DeadlineExceededError):
                channel.request(b"slow", deadline=0.2)
            # the partial went with the request that gave up on it
            assert channel._assembler.pending() == 0
            gave_up.set()
            assert channel.request(b"next") == b"re:next"
            assert channel._assembler.pending() == 0
            assert channel.frames_discarded == 6
        peer.join(5)

    def test_giving_up_under_load_leaves_nothing_buffered(self):
        """More threads than cores on one channel, answers arriving in
        many small frames, deadlines that about half the requests miss:
        a partial must never outlive the request that gave up on it,
        however the reader and the callers interleave."""

        def handler(data):
            time.sleep(0.02 * (data[0] % 3))
            return data * 4000

        def caller(thread):
            outcomes = []
            for n in range(15):
                payload = bytes([thread * 15 + n])
                try:
                    answer = channel.request(payload, deadline=0.03)
                    outcomes.append(answer == payload * 4000)
                except DeadlineExceededError:
                    outcomes.append(None)
            return outcomes

        interval = sys.getswitchinterval()
        with AsyncTcpServer(handler, chunk_size=256) as server:
            with server.connect() as channel:
                sys.setswitchinterval(1e-5)
                try:
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        outcomes = sum(pool.map(caller, range(8)), [])
                finally:
                    sys.setswitchinterval(interval)
                assert False not in outcomes
                assert None in outcomes and True in outcomes
                # nothing in flight: whatever still arrives is dropped
                assert channel._assembler.pending() == 0
                assert channel._assembler.buffered() == 0
                assert channel.request(b"z") == b"z" * 4000
                assert channel.frames_discarded > 0
