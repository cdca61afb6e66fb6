"""Minimal RPC layer over a :class:`~repro.net.channel.Channel`.

Request envelope:  ``string method | blob body [| u64 idempotency_key]``
Response envelope: ``u8 status | f64 server_time | blob body-or-error``

``server_time`` is the handler's processing time measured by the
dispatcher; the client uses it to split round-trip time into the
"server time" and "communication time" rows of the paper's tables.

The trailing **idempotency key** is optional (the envelope without it
is bit-identical to the original format). A mutating RPC that may be
retried — the connection died after the request was sent, so the
client cannot know whether the server executed it — carries a key
unique to that *logical* call; every resend reuses it. A dispatcher
with :meth:`RpcDispatcher.enable_idempotency` remembers the response
bytes of each keyed call in a bounded LRU and replays them for a
duplicate key instead of re-executing the handler, so a retried
``insert_bulk`` can never double-insert. Keys are client-unique u64
values drawn from the same numbering machinery as the framing layer's
correlation ids (see :class:`repro.net.resilience.ResilientRpcClient`).

One request carries one call. A whole query batch travels as one call
of a ``*_batch`` method whose body holds the batch (see
:mod:`repro.wire.search`), not as many calls in one envelope. Handlers
may run concurrently (the socket transport runs them on a thread pool),
so they take the server's read–write lock themselves (see
:class:`~repro.core.locks.ReadWriteLock`).
"""

from __future__ import annotations

import inspect
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable

from repro.exceptions import ProtocolError, ReproError
from repro.net.channel import Channel
from repro.net.clock import Clock, WallClock
from repro.wire.encoding import Reader, Writer

__all__ = [
    "RpcDispatcher",
    "RpcClient",
    "RpcServerError",
    "encode_request",
    "decode_response",
]

_STATUS_OK = 0
_STATUS_ERROR = 1


def encode_request(
    method: str,
    body: Writer | bytes = b"",
    *,
    idempotency_key: int | None = None,
) -> bytes:
    """Encode one request envelope.

    Without ``idempotency_key`` the encoding is bit-identical to the
    pre-resilience envelope, so unmodified peers interoperate.
    """
    payload = body.getvalue() if isinstance(body, Writer) else bytes(body)
    writer = Writer().string(method).blob(payload)
    if idempotency_key is not None:
        writer.u64(idempotency_key)
    return writer.getvalue()


def decode_response(raw: bytes) -> tuple[float, Reader]:
    """Decode a response envelope into (server_time, body reader).

    Server-side errors raise :class:`ProtocolError` carrying the
    server's message — after the reported processing time has been
    extracted, so callers that account ``server_time`` can do so for
    failed calls too by catching and re-raising.
    """
    reader = Reader(raw)
    status = reader.u8()
    server_time = reader.f64()
    if status == _STATUS_ERROR:
        raise RpcServerError(f"server error: {reader.string()}", server_time)
    if status != _STATUS_OK:
        raise RpcServerError(
            f"invalid response status {status}", server_time
        )
    return server_time, Reader(reader.blob())


class RpcServerError(ProtocolError):
    """An error response envelope; carries the reported server time."""

    def __init__(self, message: str, server_time: float) -> None:
        super().__init__(message)
        self.server_time = server_time


Handler = Callable[[Reader], Writer]


class RpcDispatcher:
    """Server-side method table with per-call time accounting.

    Handlers receive a :class:`Reader` positioned at the request body and
    return a :class:`Writer` with the response body. Exceptions derived
    from :class:`ReproError` travel back to the client as error
    responses; anything else is a bug and propagates.

    Time/call accounting is mutex-guarded: the socket transport runs
    handlers on a thread pool, so ``handle`` may run concurrently.
    """

    def __init__(self, *, clock: Clock | None = None) -> None:
        self._handlers: dict[str, Handler | weakref.WeakMethod] = {}
        self._clock: Clock = clock or WallClock()
        self._accounting = threading.Lock()
        self._idempotency: OrderedDict[int, bytes | Future] | None = None
        self._idempotency_capacity = 0
        self._idempotency_lock = threading.Lock()
        #: keyed requests answered from the idempotency cache instead
        #: of re-executing their handler
        self.dedup_hits = 0
        self.server_time = 0.0
        self.calls = 0

    def register(self, method: str, handler: Handler) -> None:
        """Expose ``handler`` under ``method``.

        A bound method is held through a :class:`weakref.WeakMethod`:
        an endpoint owns its dispatcher and registers its own methods,
        and a strong reference back would make the endpoint (index,
        storage and every record with it) cyclic garbage that lives
        until the collector's oldest generation happens to run. Once
        its object is gone the method is unknown.
        """
        if method in self._handlers:
            raise ProtocolError(f"method {method!r} already registered")
        if inspect.ismethod(handler):
            handler = weakref.WeakMethod(handler)
        self._handlers[method] = handler

    def _handler(self, method: str) -> Handler | None:
        handler = self._handlers.get(method)
        if isinstance(handler, weakref.WeakMethod):
            handler = handler()
        return handler

    def enable_idempotency(self, *, capacity: int = 4096) -> None:
        """Deduplicate keyed requests in a bounded LRU of responses.

        A request envelope carrying an idempotency key executes at most
        once per key while the key stays in the cache: duplicates get
        the original call's exact response bytes back (counted in
        :attr:`dedup_hits`). A duplicate that arrives while the
        original is *still executing* blocks until it finishes and then
        receives the same response — the window where a retried
        mutation could otherwise run twice. Keyless requests are
        untouched.
        """
        if capacity <= 0:
            raise ProtocolError(
                f"idempotency capacity must be positive, got {capacity}"
            )
        with self._idempotency_lock:
            self._idempotency = OrderedDict()
            self._idempotency_capacity = capacity

    def handle(self, request: bytes) -> bytes:
        """Entry point given to a channel: decode, dispatch, encode.

        A malformed envelope (truncated frame, bad UTF-8 method name)
        yields an error *response* rather than an exception — a remote
        peer must never be able to crash the server loop with garbage.
        Envelopes with an idempotency key go through the dedup cache
        when :meth:`enable_idempotency` was called.
        """
        try:
            reader = Reader(request)
            method = reader.string()
            body = Reader(reader.blob())
            key = reader.u64() if reader.remaining() else None
            reader.expect_end()
        except ProtocolError as exc:
            response = Writer()
            response.u8(_STATUS_ERROR).f64(0.0).string(
                f"malformed request envelope: {exc}"
            )
            return response.getvalue()
        if key is None or self._idempotency is None:
            return self._execute(method, body)
        return self._execute_idempotent(key, method, body)

    def _execute_idempotent(
        self, key: int, method: str, body: Reader
    ) -> bytes:
        """Run a keyed request at most once; replay its response after.

        The first arrival of a key installs an in-progress marker, so a
        duplicate that races the original blocks until the original's
        response exists instead of executing the handler a second time.
        """
        assert self._idempotency is not None
        placeholder: Future[bytes] = Future()
        with self._idempotency_lock:
            entry = self._idempotency.get(key)
            if entry is None:
                self._idempotency[key] = placeholder
            else:
                self._idempotency.move_to_end(key)
                self.dedup_hits += 1
        if entry is not None:
            return entry.result() if isinstance(entry, Future) else entry
        try:
            response = self._execute(method, body)
        except BaseException as exc:
            # a non-ReproError is a server bug and propagates; drop the
            # marker so a retry is not wedged on a never-set future
            with self._idempotency_lock:
                if self._idempotency.get(key) is placeholder:
                    del self._idempotency[key]
            placeholder.set_exception(exc)
            raise
        with self._idempotency_lock:
            self._idempotency[key] = response
            self._idempotency.move_to_end(key)
            excess = len(self._idempotency) - self._idempotency_capacity
            if excess > 0:
                for old in list(self._idempotency):
                    if excess <= 0:
                        break
                    if isinstance(self._idempotency[old], Future):
                        continue  # never evict an in-progress call
                    del self._idempotency[old]
                    excess -= 1
        placeholder.set_result(response)
        return response

    def _execute(self, method: str, body: Reader) -> bytes:
        """Dispatch one decoded request to its handler."""
        handler = self._handler(method)
        response = Writer()
        if handler is None:
            response.u8(_STATUS_ERROR).f64(0.0).string(
                f"unknown method {method!r}"
            )
            return response.getvalue()
        start = self._clock.now()
        try:
            result = handler(body)
        except ReproError as exc:
            elapsed = self._clock.now() - start
            self._charge(elapsed)
            response.u8(_STATUS_ERROR).f64(elapsed).string(
                f"{type(exc).__name__}: {exc}"
            )
            return response.getvalue()
        elapsed = self._clock.now() - start
        self._charge(elapsed)
        response.u8(_STATUS_OK).f64(elapsed).blob(result.getvalue())
        return response.getvalue()

    def _charge(self, elapsed: float) -> None:
        with self._accounting:
            self.server_time += elapsed
            self.calls += 1

    def reset_accounting(self) -> None:
        """Zero the server-side time counters."""
        with self._accounting:
            self.server_time = 0.0
            self.calls = 0
        with self._idempotency_lock:
            self.dedup_hits = 0


class RpcClient:
    """Client-side caller: frames requests, decodes envelopes.

    Accumulates the ``server_time`` reported by the dispatcher so the
    experiment harness can read both sides from the client alone.
    """

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.server_time = 0.0
        self.calls = 0

    def call(
        self,
        method: str,
        body: Writer | bytes = b"",
        *,
        deadline: float | None = None,
        idempotency_key: int | None = None,
    ) -> Reader:
        """Invoke ``method`` with ``body``; returns a Reader on the
        response body. Server-side errors raise :class:`ProtocolError`.

        ``deadline`` is a per-RPC time budget in seconds, threaded into
        the channel (transports that support it propagate the budget to
        the server, which sheds the request unexecuted once it
        expires). ``idempotency_key`` marks the call safe to
        deduplicate server-side (see :func:`encode_request`).
        """
        encoded = encode_request(method, body, idempotency_key=idempotency_key)
        if deadline is None:
            raw = self.channel.request(encoded)
        else:
            raw = self.channel.request(encoded, deadline=deadline)
        try:
            server_time, reader = decode_response(raw)
        except RpcServerError as exc:
            self._note(exc.server_time)
            raise
        self._note(server_time)
        return reader

    def _note(self, server_time: float) -> None:
        self.server_time += server_time
        self.calls += 1
        self.channel.note_server_time(server_time)

    def reset_accounting(self) -> None:
        """Zero the client's view of server time and the channel counters."""
        self.server_time = 0.0
        self.calls = 0
        self.channel.reset_accounting()
