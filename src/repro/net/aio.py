"""The socket transport: pipelined asyncio server and its client.

One stack serves every real-socket deployment (the in-process
alternative is :class:`~repro.net.channel.InProcessChannel`); the RPC
layer and the server's locking semantics sit on top unchanged.

* :class:`AsyncTcpServer` — a single event loop multiplexes every
  connection; each request frame carries a correlation id
  (:mod:`repro.wire.frames`), so one connection can have many requests
  in flight and receive the responses out of order. Handlers run on a
  thread-pool executor, so the
  :class:`~repro.core.locks.ReadWriteLock` and cost accounting in
  :class:`~repro.core.server.SimilarityCloudServer` see ordinary
  concurrent threads.
* **Backpressure** — each connection has a bounded in-flight window
  (the server stops reading a connection that exceeds it, letting TCP
  flow control slow the client), every write awaits ``drain()``, and a
  server-wide ``max_pending`` bound sheds excess requests with an
  explicit error frame (surfacing client-side as
  :class:`~repro.exceptions.ServerBusyError`) instead of queueing
  without limit.
* **Streaming responses** — responses larger than ``chunk_size`` leave
  as several chunk frames; the client reassembles them
  (:class:`~repro.wire.frames.FrameAssembler`). Large candidate sets
  therefore never monopolize a connection's write path.
* **Bounded input** — a connection speaks framing v2 from its first
  byte: anything else is a protocol violation and a dropped connection
  once the 18 header bytes are in, and a request header announcing more
  than :data:`~repro.wire.frames.MAX_REQUEST_PAYLOAD` is refused before
  a payload byte is buffered.

:class:`PipelinedTcpChannel` is the client: a synchronous, thread-safe
channel over one connection. Many threads can share it, each blocking
only on its own response — this is what lets a pool of
:class:`~repro.core.client.EncryptedClient` workers, or a
:class:`~repro.cluster.router.ShardRouter`'s scatter threads, multiplex
one socket per server.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import itertools
import socket
import threading
import time
from typing import Callable

from repro.exceptions import (
    ChannelError,
    DeadlineExceededError,
    ProtocolError,
    ServerBusyError,
)
from repro.net.channel import Channel
from repro.wire.frames import (
    HEADER_SIZE,
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_REQUEST_PAYLOAD,
    FrameAssembler,
    FrameHeader,
    encode_frame,
    encode_request_frame,
    response_frames,
    split_deadline,
)

__all__ = ["AsyncTcpServer", "PipelinedTcpChannel"]

#: error-frame payload codes (first payload byte)
_ERROR_OVERLOADED = 0
_ERROR_FAILED = 1
_ERROR_DEADLINE = 2


def _encode_error(code: int, message: str) -> bytes:
    return bytes([code]) + message.encode("utf-8")


def _decode_error(payload: bytes) -> ChannelError:
    code = payload[0] if payload else _ERROR_FAILED
    message = payload[1:].decode("utf-8", errors="replace")
    if code == _ERROR_OVERLOADED:
        return ServerBusyError(message)
    if code == _ERROR_DEADLINE:
        return DeadlineExceededError(message)
    return ChannelError(f"server-side failure: {message}")


class _DeadlineExpired(Exception):
    """Internal: an executor slot found its request's budget spent."""


class _PipelinedConnection:
    """Per-connection write path for the pipelined framing.

    Response frames are written straight to the transport from loop
    callbacks — no per-request task or write lock, because the loop
    serializes callbacks already. When the transport buffer passes the
    high-water mark (a slow-reading client), subsequent responses queue
    here instead and a single drain task awaits ``writer.drain()``
    before flushing them. Queued responses keep their in-flight window
    slots, so once the window fills the server stops reading the
    connection — explicit backpressure end to end.
    """

    high_water = 1 << 20

    def __init__(
        self, server: "AsyncTcpServer", writer: asyncio.StreamWriter
    ) -> None:
        self._server = server
        self._writer = writer
        self.window = asyncio.Semaphore(server._max_inflight)
        self._deferred: collections.deque[tuple[tuple[bytes, ...], bool]] = (
            collections.deque()
        )
        self._flushed = asyncio.Event()
        self._flushed.set()

    def send(self, *frames: bytes, release: bool = False) -> None:
        """Write ``frames``; with ``release``, free one window slot once
        they have actually reached the transport (immediately on the
        fast path, after the drain on the slow path)."""
        if not self._flushed.is_set():
            self._deferred.append((frames, release))
            return
        self._write(frames)
        if (
            self._writer.transport.get_write_buffer_size() > self.high_water
        ):
            self._flushed.clear()
            task = self._server._loop.create_task(self._drain())
            self._server._tasks.add(task)
            task.add_done_callback(self._server._tasks.discard)
            if release:
                self._deferred.append(((), True))
                return
        if release:
            self.window.release()

    async def flushed(self) -> None:
        """Wait until any deferred writes have drained."""
        await self._flushed.wait()

    @property
    def flushed_now(self) -> bool:
        """Whether no deferred writes are queued right now."""
        return self._flushed.is_set()

    def _write(self, frames: tuple[bytes, ...]) -> None:
        try:
            for frame in frames:
                self._writer.write(frame)
        except (ConnectionError, OSError, RuntimeError):
            pass  # client went away mid-response; drop the frames

    async def _drain(self) -> None:
        try:
            while True:
                try:
                    await self._writer.drain()
                except (ConnectionError, OSError):
                    pass  # disconnected: remaining flushes are no-ops
                if not self._deferred:
                    return
                frames, release = self._deferred.popleft()
                self._write(frames)
                if release:
                    self.window.release()
        finally:
            # on cancellation, still free the queued window slots
            while self._deferred:
                _, release = self._deferred.popleft()
                if release:
                    self.window.release()
            self._flushed.set()


def _refuse(payload: bytes) -> bytes:
    """The handler of a transport that has been shut down."""
    raise ChannelError("the transport is shut down")


class AsyncTcpServer:
    """Pipelined asyncio TCP server wrapping a ``bytes -> bytes`` handler.

    The event loop runs on a dedicated daemon thread, so the server is
    usable from synchronous code — construct, read :attr:`port`, and
    call :meth:`shutdown` (or use as a context manager).

    Parameters
    ----------
    handler:
        Request entry point (e.g. ``SimilarityCloudServer.handle``).
        Runs on the executor; must be thread-safe, which the
        dispatcher's per-handler locking already guarantees.
    max_workers:
        Executor width for concurrent handler execution.
    max_inflight_per_connection:
        Per-connection pipelining window; a connection with this many
        undispatched responses stops being read until one drains.
    max_pending:
        Server-wide bound on dispatched-but-unanswered requests; beyond
        it, new requests are shed with a retryable error frame
        (counted in :attr:`shed_requests`).
    chunk_size:
        Responses larger than this stream back in chunks of this size.
    """

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        max_inflight_per_connection: int = 32,
        max_pending: int = 256,
        chunk_size: int = 256 * 1024,
    ) -> None:
        if max_workers <= 0:
            raise ChannelError(f"max_workers must be positive: {max_workers}")
        if max_inflight_per_connection <= 0:
            raise ChannelError(
                "max_inflight_per_connection must be positive: "
                f"{max_inflight_per_connection}"
            )
        if max_pending <= 0:
            raise ChannelError(f"max_pending must be positive: {max_pending}")
        if chunk_size <= 0:
            raise ChannelError(f"chunk_size must be positive: {chunk_size}")
        self._handler = handler
        self._max_inflight = max_inflight_per_connection
        self._max_pending = max_pending
        self._chunk_size = chunk_size
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="aio-handler"
        )
        self._pending = 0
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._conns: set[_PipelinedConnection] = set()
        self._draining = False
        self._sockname: tuple[str, int] | None = None
        #: requests answered (including failures)
        self.requests_served = 0
        #: requests refused because ``max_pending`` was reached or the
        #: server was draining
        self.shed_requests = 0
        #: requests whose deadline budget expired while queued, shed
        #: without running their handler
        self.deadline_expirations = 0
        self._loop: asyncio.AbstractEventLoop | None = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="aio-server", daemon=True
        )
        self._thread.start()
        try:
            asyncio.run_coroutine_threadsafe(
                self._start(host, port), self._loop
            ).result(30)
        except OSError as exc:
            self._stop_loop()
            raise ChannelError(f"cannot bind to {host}:{port}: {exc}") from exc

    async def _start(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, host, port
        )
        self._sockname = self._server.sockets[0].getsockname()[:2]

    @property
    def host(self) -> str:
        """Bound host address."""
        return self._sockname[0]

    @property
    def port(self) -> int:
        """Bound port (useful when constructed with port 0)."""
        return self._sockname[1]

    @property
    def pending(self) -> int:
        """Requests currently dispatched and awaiting their response."""
        return self._pending

    def connect(self) -> "PipelinedTcpChannel":
        """Open a synchronous pipelined channel to this server."""
        return PipelinedTcpChannel(self.host, self.port)

    # -- connection handling ----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._writers.add(writer)
        conn = _PipelinedConnection(self, writer)
        self._conns.add(conn)
        try:
            await self._pipelined_loop(conn, reader)
        except (ConnectionError, OSError, ProtocolError):
            pass  # disconnect or garbage framing: drop the connection
        finally:
            self._conns.discard(conn)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _pipelined_loop(
        self, conn: "_PipelinedConnection", reader: asyncio.StreamReader
    ) -> None:
        buffer = bytearray()
        while True:
            # greedy framing: one loop resume ingests every complete
            # frame already buffered (with 16 clients pipelining on one
            # socket, requests arrive back to back)
            while len(buffer) < HEADER_SIZE:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                buffer += chunk
            header = FrameHeader.decode(bytes(buffer[:HEADER_SIZE]))
            if header.kind != KIND_REQUEST:
                raise ProtocolError(
                    f"client sent frame kind {header.kind}, "
                    f"expected a request"
                )
            if header.length > MAX_REQUEST_PAYLOAD:
                # refused on the header alone: the announced payload is
                # never buffered, and the connection goes with it
                message = (
                    f"request of {header.length} bytes exceeds the "
                    f"{MAX_REQUEST_PAYLOAD}-byte request limit"
                )
                conn.send(
                    encode_frame(
                        KIND_ERROR,
                        header.correlation_id,
                        _encode_error(_ERROR_FAILED, message),
                    )
                )
                raise ProtocolError(message)
            while len(buffer) < HEADER_SIZE + header.length:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                buffer += chunk
            payload = bytes(
                buffer[HEADER_SIZE : HEADER_SIZE + header.length]
            )
            del buffer[: HEADER_SIZE + header.length]
            budget, payload = split_deadline(header, payload)
            if self._draining:
                # graceful drain: in-flight work finishes, new work is
                # refused with a retryable error so the client fails
                # over instead of waiting on a response that never comes
                self.shed_requests += 1
                conn.send(
                    encode_frame(
                        KIND_ERROR,
                        header.correlation_id,
                        _encode_error(
                            _ERROR_OVERLOADED,
                            "server draining: no new requests accepted",
                        ),
                    )
                )
                await conn.flushed()
                continue
            if self._pending >= self._max_pending:
                # load shedding: answer immediately instead of queueing
                self.shed_requests += 1
                conn.send(
                    encode_frame(
                        KIND_ERROR,
                        header.correlation_id,
                        _encode_error(
                            _ERROR_OVERLOADED,
                            f"server overloaded: {self._pending} "
                            "requests pending",
                        ),
                    )
                )
                # don't outpace a client that floods without reading
                await conn.flushed()
                continue
            # per-connection window: stop reading until a slot frees up,
            # so TCP flow control backpressures a flooding client
            await conn.window.acquire()
            self._pending += 1
            # fast path: no per-request task — the executor future's
            # done-callback runs on the loop and writes the response
            expires = (
                None if budget is None else time.monotonic() + budget
            )
            future = self._loop.run_in_executor(
                self._executor, self._invoke, payload, expires
            )
            future.add_done_callback(
                lambda f, cid=header.correlation_id: self._complete(
                    conn, cid, f
                )
            )

    def _invoke(self, payload: bytes, expires: float | None) -> bytes:
        """Executor entry point: shed expired work before it runs.

        The deadline check happens the moment an executor slot picks
        the request up — a request that waited out its budget in the
        queue never touches the handler (or the server's locks).
        """
        if expires is not None and time.monotonic() >= expires:
            raise _DeadlineExpired(
                "deadline expired before the request was executed"
            )
        return self._handler(payload)

    def _complete(
        self,
        conn: "_PipelinedConnection",
        correlation_id: int,
        future: "asyncio.Future[bytes]",
    ) -> None:
        """Write one finished request's response (runs on the loop)."""
        try:
            if future.cancelled():
                conn.window.release()
                return
            exc = future.exception()
            if isinstance(exc, _DeadlineExpired):
                # shed unexecuted: the budget ran out in the queue
                self.deadline_expirations += 1
                conn.send(
                    encode_frame(
                        KIND_ERROR,
                        correlation_id,
                        _encode_error(_ERROR_DEADLINE, str(exc)),
                    ),
                    release=True,
                )
            elif exc is not None:  # handler bug: report, keep serving
                conn.send(
                    encode_frame(
                        KIND_ERROR,
                        correlation_id,
                        _encode_error(
                            _ERROR_FAILED, f"{type(exc).__name__}: {exc}"
                        ),
                    ),
                    release=True,
                )
            else:
                conn.send(
                    *response_frames(
                        correlation_id, future.result(), self._chunk_size
                    ),
                    release=True,
                )
        finally:
            self.requests_served += 1
            self._pending -= 1

    # -- lifecycle ---------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether :meth:`drain` has begun refusing new requests."""
        return self._draining

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain: stop accepting, finish in-flight, flush.

        Closes the listening socket (no new connections), refuses every
        request that arrives after this point with a retryable error
        frame, waits until all dispatched requests have completed *and*
        their responses have reached the transport, then pushes any
        transport-buffered bytes out. Existing connections stay open so
        clients receive those final responses; call :meth:`shutdown`
        afterwards to close them.

        Returns ``True`` when everything in flight drained within
        ``timeout`` seconds, ``False`` if the wait timed out (pending
        work may still complete afterwards; acknowledged responses are
        never retracted either way).
        """
        if self._loop is None:
            return True
        return asyncio.run_coroutine_threadsafe(
            self._drain(timeout), self._loop
        ).result(timeout + 30)

    async def _drain(self, timeout: float) -> bool:
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            busy = self._pending > 0 or any(
                not conn.flushed_now for conn in self._conns
            )
            if not busy:
                for writer in list(self._writers):
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass  # that client is gone; nothing to flush
                return True
            await asyncio.sleep(0.005)
        return False

    def shutdown(self) -> None:
        """Stop serving, close connections, release the executor."""
        if self._loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop
        ).result(30)
        self._stop_loop()
        self._executor.shutdown(wait=False)
        # the endpoint usually holds this transport, so a stopped
        # transport that kept the endpoint's handler would be a cycle
        # pinning the endpoint, its index and every record
        self._handler = _refuse

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        for writer in list(self._writers):
            writer.close()

    def _stop_loop(self) -> None:
        loop, self._loop = self._loop, None
        loop.call_soon_threadsafe(loop.stop)
        self._thread.join(30)
        loop.close()

    def __enter__(self) -> "AsyncTcpServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class PipelinedTcpChannel(Channel):
    """Synchronous, thread-safe client of one pipelined connection.

    :meth:`request` may be called from any number of threads
    concurrently — their requests interleave on the single socket and
    each caller blocks only until its own correlated response arrives.
    This is the bridge that lets the synchronous
    :class:`~repro.core.client.EncryptedClient` (and a whole pool of
    them) ride the async server's pipelining.

    There is deliberately no event loop in this hot path: the calling
    thread writes its frame straight to the socket (under a send lock)
    and a dedicated reader thread routes response frames back to
    blocked callers by correlation id, so a request costs two thread
    wake-ups despite the multiplexing.

    ``communication_time`` charges each request its own round-trip wall
    time minus its own server-reported processing time (never below
    zero): :meth:`request` charges the round trip, and the RPC layer's
    :meth:`note_server_time` call on the same thread takes the server's
    share back out. Used without an RPC layer, the full round trip
    stays charged. Counts bytes including the 18-byte frame headers.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float = 30.0
    ) -> None:
        super().__init__()
        self._timeout = timeout
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ChannelError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        # the reader blocks indefinitely; timeouts are enforced by each
        # caller waiting on its own response future
        self._sock.settimeout(None)
        self._cids = itertools.count(1)
        self._pending: dict[int, concurrent.futures.Future] = {}
        self._received: dict[int, int] = {}
        self._assembler = FrameAssembler()
        #: response and error frames dropped because their correlation
        #: id was not in flight (a late answer to an abandoned request)
        self.frames_discarded = 0
        self._closed = False
        self._death: ChannelError | None = None
        # request() blocks its caller, so "the round trip this thread
        # just completed" is per-thread state; concurrent callers never
        # see each other's
        self._own = threading.local()
        self._reader = threading.Thread(
            target=self._read_loop, name="pipelined-reader", daemon=True
        )
        self._reader.start()

    def request(self, data: bytes, *, deadline: float | None = None) -> bytes:
        if len(data) > MAX_REQUEST_PAYLOAD:
            raise ChannelError(
                f"request of {len(data)} bytes exceeds the "
                f"{MAX_REQUEST_PAYLOAD}-byte request limit"
            )
        start = time.perf_counter()
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            if self._closed:
                # auto-reject: a dead connection fails fast with the
                # reason the reader died instead of hanging callers
                if self._death is not None:
                    raise ChannelError(
                        f"channel is dead: {self._death}"
                    ) from self._death
                raise ChannelError("channel is closed")
            correlation_id = next(self._cids)
            self._pending[correlation_id] = future
            self._received[correlation_id] = 0
        frame = encode_request_frame(correlation_id, data, deadline=deadline)
        wait = (
            self._timeout if deadline is None
            else min(self._timeout, deadline)
        )
        try:
            try:
                with self._send_lock:
                    self._sock.sendall(frame)
            except OSError as exc:
                raise ChannelError(f"pipelined send failed: {exc}") from exc
            try:
                payload, received = future.result(wait)
            except concurrent.futures.TimeoutError as exc:
                if deadline is not None and deadline <= self._timeout:
                    raise DeadlineExceededError(
                        f"no response within the {deadline}s deadline"
                    ) from exc
                raise ChannelError(
                    f"request timed out after {self._timeout}s"
                ) from exc
        finally:
            with self._lock:
                self._pending.pop(correlation_id, None)
                self._received.pop(correlation_id, None)
                self._assembler.discard(correlation_id)
        elapsed = time.perf_counter() - start
        self._own.round_trip = elapsed
        with self._lock:
            self.bytes_sent += len(frame)
            self.bytes_received += received
            self.communication_time += elapsed
            self.requests += 1
        return payload

    def note_server_time(self, server_seconds: float) -> None:
        round_trip = getattr(self._own, "round_trip", 0.0)
        self._own.round_trip = 0.0
        with self._lock:
            self.communication_time -= min(server_seconds, round_trip)

    def _read_loop(self) -> None:
        buffer = bytearray()
        try:
            while True:
                # greedy framing: drain every complete frame already
                # buffered before sleeping in recv again
                while len(buffer) >= HEADER_SIZE:
                    header = FrameHeader.decode(bytes(buffer[:HEADER_SIZE]))
                    total = HEADER_SIZE + header.length
                    if len(buffer) < total:
                        break
                    payload = bytes(buffer[HEADER_SIZE:total])
                    del buffer[:total]
                    self._dispatch(header, payload)
                chunk = self._sock.recv(1 << 16)
                if not chunk:
                    expected = HEADER_SIZE
                    if len(buffer) >= HEADER_SIZE:
                        # the loop above broke on this incomplete frame
                        expected += header.length
                    raise ChannelError(
                        f"peer closed connection reading a frame: "
                        f"expected {expected} bytes, got {len(buffer)}"
                    )
                buffer += chunk
        except (ChannelError, OSError) as exc:
            self._fail_all(ChannelError(f"connection lost: {exc}"))
        except ProtocolError as exc:
            self._fail_all(ChannelError(f"protocol violation: {exc}"))
        except BaseException as exc:  # the reader must never die silently:
            # any unexpected failure still fails every outstanding
            # future with a typed error instead of leaving them to hang
            self._fail_all(
                ChannelError(
                    f"reader thread died: {type(exc).__name__}: {exc}"
                )
            )

    def _dispatch(self, header: FrameHeader, payload: bytes) -> None:
        if header.kind == KIND_REQUEST:
            raise ProtocolError(f"server sent frame kind {header.kind}")
        correlation_id = header.correlation_id
        complete = None
        with self._lock:
            future = self._pending.get(correlation_id)
            if future is None:
                # not in flight: never sent, or given up on after a
                # deadline. A late answer is legal, so the frame is
                # counted and dropped — never buffered
                self.frames_discarded += 1
                return
            self._received[correlation_id] += HEADER_SIZE + header.length
            received = self._received[correlation_id]
            if header.kind == KIND_RESPONSE:
                # under the lock: request() giving up on this id drops
                # its partial, and must not slip in before this frame
                # joins it
                complete = self._assembler.add(header, payload)
                if complete is None:
                    return
        if future.done():
            return
        if header.kind == KIND_ERROR:
            future.set_exception(_decode_error(payload))
        else:
            future.set_result((complete, received))

    def _fail_all(self, error: ChannelError) -> None:
        with self._lock:
            self._closed = True
            if self._death is None:
                self._death = error
            pending, self._pending = dict(self._pending), {}
            self._received.clear()
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def close(self) -> None:
        """Close the connection; outstanding requests fail cleanly."""
        with self._lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        if not already:
            self._reader.join(self._timeout)

    def __enter__(self) -> "PipelinedTcpChannel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
