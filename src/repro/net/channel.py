"""Transport channels between client and server.

A :class:`Channel` carries opaque request bytes to a server handler and
returns opaque response bytes, while accounting

* ``bytes_sent`` / ``bytes_received`` — the paper's "communication cost",
* ``communication_time`` — transport time excluding server processing.

:class:`InProcessChannel` runs the handler in the same process and
charges a deterministic latency + bandwidth cost model against a
(usually simulated) clock. The socket transport,
:class:`~repro.net.aio.PipelinedTcpChannel`, measures it instead: each
request's round-trip wall time minus the server-reported processing
time the RPC layer hands back through :meth:`Channel.note_server_time`.
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import ChannelError
from repro.net.clock import Clock, SimulatedClock

__all__ = ["Channel", "InProcessChannel"]


class Channel:
    """Base channel with byte and time accounting."""

    def __init__(self) -> None:
        self.bytes_sent = 0
        self.bytes_received = 0
        self.communication_time = 0.0
        self.requests = 0

    def request(self, data: bytes, *, deadline: float | None = None) -> bytes:
        """Send ``data``, return the server's response bytes.

        ``deadline`` is an optional per-request time budget in seconds.
        Transports that support it raise
        :class:`~repro.exceptions.DeadlineExceededError` once the
        budget expires (and ship the budget to the server so expired
        work is shed before it runs); the in-process channel executes
        synchronously and ignores it.
        """
        raise NotImplementedError

    def note_server_time(self, server_seconds: float) -> None:
        """Tell the channel how much of the request the calling thread
        just completed was server processing (the RPC layer reads it
        off the response envelope). A channel that *measures* round
        trips takes that share back out of ``communication_time``; a
        model-based channel never charged it, so the default is a
        no-op."""

    def reset_accounting(self) -> None:
        """Zero all counters (between experiment phases)."""
        self.bytes_sent = 0
        self.bytes_received = 0
        self.communication_time = 0.0
        self.requests = 0

    @property
    def bytes_total(self) -> int:
        """Total bytes exchanged in both directions."""
        return self.bytes_sent + self.bytes_received


class InProcessChannel(Channel):
    """Deterministic in-process channel with a latency/bandwidth model.

    Parameters
    ----------
    handler:
        Server entry point: ``bytes -> bytes``.
    latency:
        One-way latency in seconds, charged per direction.
    bandwidth:
        Bytes per second; ``None`` or ``inf`` disables the size term.
    clock:
        The clock to advance; defaults to a fresh
        :class:`SimulatedClock`. When the handler shares the same
        simulated clock, end-to-end timelines stay consistent.
    """

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        *,
        latency: float = 50e-6,
        bandwidth: float | None = 1.25e9,
        clock: Clock | None = None,
    ) -> None:
        super().__init__()
        if latency < 0:
            raise ChannelError(f"latency must be >= 0, got {latency}")
        if bandwidth is not None and bandwidth <= 0:
            raise ChannelError(f"bandwidth must be > 0, got {bandwidth}")
        self._handler = handler
        self._latency = float(latency)
        self._bandwidth = bandwidth
        self.clock: Clock = clock if clock is not None else SimulatedClock()

    def _transfer_cost(self, n_bytes: int) -> float:
        cost = self._latency
        if self._bandwidth not in (None, float("inf")):
            cost += n_bytes / float(self._bandwidth)
        return cost

    def request(self, data: bytes, *, deadline: float | None = None) -> bytes:
        send_cost = self._transfer_cost(len(data))
        self._advance(send_cost)
        response = self._handler(data)
        recv_cost = self._transfer_cost(len(response))
        self._advance(recv_cost)
        self.bytes_sent += len(data)
        self.bytes_received += len(response)
        self.communication_time += send_cost + recv_cost
        self.requests += 1
        return response

    def _advance(self, seconds: float) -> None:
        advance = getattr(self.clock, "advance", None)
        if advance is not None:
            advance(seconds)
