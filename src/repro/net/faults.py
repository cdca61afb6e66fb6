"""Deterministic fault-injection proxy for the chaos harness.

:class:`FaultProxy` sits between a client and a server as a plain TCP
forwarder, but it understands the pipelined framing
(:mod:`repro.wire.frames`): every REQUEST frame that passes through
increments one global counter, and a :class:`FaultSchedule` maps
request indices to scripted :class:`Fault` actions. The same schedule
against the same (single-threaded) workload therefore injects exactly
the same faults at exactly the same requests, run after run — which is
what lets the chaos suite assert *bit-identical* results instead of
"it eventually worked".

Scripted actions:

``drop``
    Swallow the request frame. Nothing reaches the server; the client
    observes silence until its deadline/timeout fires.
``delay``
    Hold the request frame for ``seconds`` before forwarding — the
    server-side deadline shed path under queueing delay.
``reset``
    Close both sides of the connection immediately, before the request
    is forwarded. In-flight requests fail with a typed
    :class:`~repro.exceptions.ChannelError`; the server never sees
    this request.
``truncate``
    Forward only the first ``keep_bytes`` bytes of the request frame,
    then close both sides — a request that dies mid-wire.
``truncate_response``
    Forward the request intact, but cut its *response* off after
    ``keep_bytes`` bytes and close both sides. The server **did**
    execute the request; only the acknowledgement is lost. This is the
    fault that distinguishes at-most-once from exactly-once: a naive
    retry of a mutation would double-apply it.
``slow``
    Deliver the response only after ``seconds`` — a slow read that a
    patient client rides out.

:meth:`FaultProxy.retarget` repoints *future* upstream connections at
a new server address, which is how the chaos suite models a server
restart: kill the server, start a new one on a fresh port, retarget —
existing upstream pipes die (clients see connection loss and retry),
and the retries land on the new server through the unchanged proxy
address.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

from repro.exceptions import ChannelError, ProtocolError
from repro.wire.frames import HEADER_SIZE, KIND_REQUEST, FrameHeader

__all__ = ["Fault", "FaultSchedule", "FaultProxy"]

ACTIONS = (
    "drop",
    "delay",
    "reset",
    "truncate",
    "truncate_response",
    "slow",
)


@dataclass(frozen=True)
class Fault:
    """One scripted action against one request (by global index)."""

    action: str
    seconds: float = 0.0
    keep_bytes: int = 8

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ProtocolError(
                f"unknown fault action {self.action!r}; choose from "
                f"{', '.join(ACTIONS)}"
            )
        if self.seconds < 0:
            raise ProtocolError(f"seconds must be >= 0, got {self.seconds}")
        if self.keep_bytes < 0:
            raise ProtocolError(
                f"keep_bytes must be >= 0, got {self.keep_bytes}"
            )

    @classmethod
    def drop(cls) -> "Fault":
        """Swallow the request frame."""
        return cls("drop")

    @classmethod
    def delay(cls, seconds: float) -> "Fault":
        """Hold the request for ``seconds`` before forwarding."""
        return cls("delay", seconds=seconds)

    @classmethod
    def reset(cls) -> "Fault":
        """Kill the connection before the request is forwarded."""
        return cls("reset")

    @classmethod
    def truncate(cls, keep_bytes: int = 8) -> "Fault":
        """Forward a partial request frame, then kill the connection."""
        return cls("truncate", keep_bytes=keep_bytes)

    @classmethod
    def truncate_response(cls, keep_bytes: int = 8) -> "Fault":
        """Execute the request but lose its acknowledgement mid-frame."""
        return cls("truncate_response", keep_bytes=keep_bytes)

    @classmethod
    def slow(cls, seconds: float) -> "Fault":
        """Deliver the response only after ``seconds``."""
        return cls("slow", seconds=seconds)


class FaultSchedule:
    """Maps global request indices (0-based) to scripted faults."""

    def __init__(self, faults: dict[int, Fault] | None = None) -> None:
        self._faults = dict(faults or {})
        for index in self._faults:
            if index < 0:
                raise ProtocolError(
                    f"request index must be >= 0, got {index}"
                )

    def get(self, index: int) -> Fault | None:
        """The fault scripted for request ``index``, if any."""
        return self._faults.get(index)

    def __len__(self) -> int:
        return len(self._faults)


class _Pipe:
    """One proxied connection: client socket, upstream socket, pumps."""

    def __init__(
        self,
        proxy: "FaultProxy",
        client: socket.socket,
        upstream: socket.socket,
    ) -> None:
        self.proxy = proxy
        self.client = client
        self.upstream = upstream
        self._lock = threading.Lock()
        self._dead = False
        #: correlation id -> fault to apply to that request's response
        self.response_faults: dict[int, Fault] = {}

    def kill(self) -> None:
        """Close both sockets (idempotent)."""
        with self._lock:
            if self._dead:
                return
            self._dead = True
        for sock in (self.client, self.upstream):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


class FaultProxy:
    """Frame-aware TCP proxy injecting a deterministic fault schedule.

    Parameters
    ----------
    target_host, target_port:
        Upstream server address (changeable via :meth:`retarget`).
    schedule:
        The scripted faults; ``None`` forwards everything untouched.
    host, port:
        Listen address (port 0 picks a free port; read :attr:`port`).

    Counters (read after the workload for exact accounting):
    :attr:`requests_seen` — REQUEST frames observed;
    :attr:`faults_injected` — per-action counts of faults applied.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        *,
        schedule: FaultSchedule | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self._target = (target_host, target_port)
        self._lock = threading.Lock()
        self._pipes: set[_Pipe] = set()
        self._closed = False
        self.requests_seen = 0
        self.faults_injected: dict[str, int] = {a: 0 for a in ACTIONS}
        try:
            self._listener = socket.create_server(
                (host, port), reuse_port=False
            )
        except OSError as exc:
            raise ChannelError(
                f"cannot bind fault proxy to {host}:{port}: {exc}"
            ) from exc
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fault-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def host(self) -> str:
        """Bound listen host."""
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        """Bound listen port."""
        return self._listener.getsockname()[1]

    def retarget(self, target_host: str, target_port: int) -> None:
        """Point *future* upstream connections at a new server address.

        Existing pipes are killed so clients notice the "restart" and
        reconnect (through the proxy's unchanged address).
        """
        with self._lock:
            self._target = (target_host, target_port)
            pipes = list(self._pipes)
        for pipe in pipes:
            pipe.kill()

    def close(self) -> None:
        """Stop accepting and kill every live pipe."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pipes = list(self._pipes)
        # shutdown() (not just close()) is what actually wakes a thread
        # blocked in accept() on Linux
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for pipe in pipes:
            pipe.kill()
        self._accept_thread.join(5)

    def __enter__(self) -> "FaultProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                target = self._target
                closed = self._closed
            if closed:
                client.close()
                return
            try:
                upstream = socket.create_connection(target, timeout=10)
                upstream.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError:
                client.close()  # server down: the client sees a reset
                continue
            pipe = _Pipe(self, client, upstream)
            with self._lock:
                self._pipes.add(pipe)
            threading.Thread(
                target=self._pump,
                args=(pipe, pipe.client, self._forward_request),
                name="fault-proxy-c2s", daemon=True,
            ).start()
            threading.Thread(
                target=self._pump,
                args=(pipe, pipe.upstream, self._forward_response),
                name="fault-proxy-s2c", daemon=True,
            ).start()

    def _finish(self, pipe: _Pipe) -> None:
        pipe.kill()
        with self._lock:
            self._pipes.discard(pipe)

    def _count(self, action: str) -> None:
        with self._lock:
            self.faults_injected[action] += 1

    def _pump(self, pipe: _Pipe, source: socket.socket, forward) -> None:
        """One direction of a pipe: cut ``source``'s byte stream into
        frames and hand each to ``forward(pipe, header, frame)`` (which
        applies the scripted faults) until it returns False."""
        try:
            buffer = bytearray()
            while True:
                if len(buffer) >= HEADER_SIZE:
                    header = FrameHeader.decode(bytes(buffer[:HEADER_SIZE]))
                    total = HEADER_SIZE + header.length
                    if len(buffer) >= total:
                        frame = bytes(buffer[:total])
                        del buffer[:total]
                        if not forward(pipe, header, frame):
                            return
                        continue
                chunk = source.recv(1 << 16)
                if not chunk:
                    return
                buffer += chunk
        except (OSError, ProtocolError):
            pass  # torn-down pipe or mid-kill garbage: just stop
        finally:
            self._finish(pipe)

    def _forward_request(
        self, pipe: _Pipe, header: FrameHeader, frame: bytes
    ) -> bool:
        """client -> server: apply the scripted fault to one request frame.

        Returns False when the pump must stop (connection killed).
        """
        fault: Fault | None = None
        if header.kind == KIND_REQUEST:
            with self._lock:
                index = self.requests_seen
                self.requests_seen += 1
            fault = self.schedule.get(index)
        if fault is None:
            pipe.upstream.sendall(frame)
            return True
        self._count(fault.action)
        if fault.action == "drop":
            return True
        if fault.action == "delay":
            time.sleep(fault.seconds)
            pipe.upstream.sendall(frame)
            return True
        if fault.action == "reset":
            pipe.kill()
            return False
        if fault.action == "truncate":
            try:
                pipe.upstream.sendall(frame[: fault.keep_bytes])
            except OSError:
                pass
            pipe.kill()
            return False
        # response-side faults: forward intact, mark the correlation id
        pipe.response_faults[header.correlation_id] = fault
        pipe.upstream.sendall(frame)
        return True

    def _forward_response(
        self, pipe: _Pipe, header: FrameHeader, frame: bytes
    ) -> bool:
        """server -> client: deliver one response frame, honouring
        response-side faults."""
        fault = pipe.response_faults.pop(header.correlation_id, None)
        if fault is None:
            pipe.client.sendall(frame)
            return True
        if fault.action == "slow":
            time.sleep(fault.seconds)
            pipe.client.sendall(frame)
            return True
        # truncate_response: the ack dies mid-frame, connection with it
        try:
            pipe.client.sendall(frame[: fault.keep_bytes])
        except OSError:
            pass
        pipe.kill()
        return False
