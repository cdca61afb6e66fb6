"""Client-side fault tolerance: retries, backoff and circuit breaking.

The transports (:mod:`repro.net.channel`, :mod:`repro.net.aio`) turn
every failure — connection loss, server restart, load shedding, a
reader thread dying — into a typed
:class:`~repro.exceptions.ChannelError`. This module turns those typed
failures into *completed requests*:

* :class:`RetryPolicy` — a deterministic exponential-backoff schedule.
  Jitter comes from a per-attempt seeded RNG, so two runs with the same
  seed sleep the same amounts (the chaos harness depends on this); the
  schedule is monotone non-decreasing and capped.
* :class:`CircuitBreaker` — after a run of consecutive failures the
  circuit opens and calls fail fast with
  :class:`~repro.exceptions.CircuitOpenError` instead of hammering a
  dead server; after a cool-down one probe call may half-open it.
* :class:`ResilientRpcClient` — a drop-in replacement for
  :class:`~repro.net.rpc.RpcClient` that retries across reconnects.
  **Read-only** methods retry transparently. **Mutating** methods
  (``insert``/``insert_bulk``/``delete`` — and any method not known to
  be read-only) automatically carry an idempotency key, generated once
  per logical call and reused on every resend, so a server with
  :meth:`~repro.net.rpc.RpcDispatcher.enable_idempotency` executes the
  mutation at most once no matter how often the wire forced a retry.

What is *not* retried:

* :class:`~repro.exceptions.DeadlineExceededError` — the caller's time
  budget is spent; another attempt cannot finish any sooner.
* :class:`~repro.net.rpc.RpcServerError` — the server *answered*; the
  application error would simply repeat.

Accounting survives reconnects: byte/time counters of discarded
channels are retired into aggregate totals, and the extra work appears
as :attr:`ResilientRpcClient.retries_attempted` /
:attr:`ResilientRpcClient.reconnects` (the
``retries_attempted`` / ``reconnects`` rows of
:mod:`repro.core.costs`).
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import (
    ChannelError,
    CircuitOpenError,
    DeadlineExceededError,
    ProtocolError,
    RetryExhaustedError,
    ServerBusyError,
)
from repro.net.channel import Channel
from repro.net.clock import Clock, WallClock
from repro.net.rpc import RpcClient
from repro.wire.encoding import Reader, Writer
from repro.wire.search import SEARCH_METHODS

__all__ = [
    "MUTATING_METHODS",
    "READ_ONLY_METHODS",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientRpcClient",
]

#: methods that change server state; they always travel with an
#: idempotency key so a retry can never double-apply (``drop_cells`` —
#: the destructive half of a shard rebalance — included)
MUTATING_METHODS = frozenset({"insert_bulk", "delete", "drop_cells"})

#: methods safe to resend without a key (answers are pure functions of
#: the index state; re-executing one is harmless): every search in
#: every form, the rebalance export, the cell dump and the probes
READ_ONLY_METHODS = SEARCH_METHODS | {
    "export_cells",
    "dump_cells",
    "stats",
    "ping",
    "healthz",
}

_KEY_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic, monotone, capped exponential backoff.

    ``delay(i)`` is the sleep before retry ``i + 1``:
    ``base_delay * multiplier**i``, capped at ``max_delay``, stretched
    by up to ``jitter`` (relative) using a RNG seeded from
    ``(seed, i)`` — so the whole schedule is a pure function of the
    policy's fields. A cumulative maximum keeps the schedule monotone
    non-decreasing even where jitter would have let a later delay dip
    below an earlier one.

    Three properties the property suite pins down:

    * **deterministic** — equal policies produce equal schedules,
    * **monotone** — ``delay(i + 1) >= delay(i)``,
    * **capped** — ``delay(i) <= max_delay * (1 + jitter)``.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ProtocolError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise ProtocolError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )
        if self.multiplier < 1.0:
            raise ProtocolError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay < self.base_delay:
            raise ProtocolError(
                f"max_delay ({self.max_delay}) must be >= base_delay "
                f"({self.base_delay})"
            )
        if self.jitter < 0:
            raise ProtocolError(f"jitter must be >= 0, got {self.jitter}")

    def _jittered(self, index: int) -> float:
        base = min(self.max_delay, self.base_delay * self.multiplier**index)
        if self.jitter == 0:
            return base
        fraction = random.Random(f"{self.seed}:{index}").random()
        return base * (1.0 + self.jitter * fraction)

    def delay(self, index: int) -> float:
        """Seconds to sleep before retry ``index + 1`` (0-based)."""
        if index < 0:
            raise ProtocolError(f"retry index must be >= 0, got {index}")
        return max(self._jittered(i) for i in range(index + 1))

    def schedule(self, count: int | None = None) -> list[float]:
        """The first ``count`` delays (defaults to the retries the
        policy allows: ``max_attempts - 1``)."""
        if count is None:
            count = self.max_attempts - 1
        delays: list[float] = []
        floor = 0.0
        for index in range(count):
            floor = max(floor, self._jittered(index))
            delays.append(floor)
        return delays


class CircuitBreaker:
    """Failure-rate gate: fail fast instead of hammering a dead peer.

    CLOSED counts consecutive failures; at ``failure_threshold`` the
    circuit OPENs and :meth:`allow` refuses every call for
    ``reset_timeout`` seconds. The first call after the cool-down
    HALF-OPENs the circuit as a probe: its success closes the circuit,
    its failure re-opens it (and restarts the cool-down). While the
    probe is in flight other calls stay refused. Thread-safe; inject a
    :class:`~repro.net.clock.SimulatedClock` for deterministic tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock: Clock | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ProtocolError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0:
            raise ProtocolError(
                f"reset_timeout must be > 0, got {reset_timeout}"
            )
        self._threshold = failure_threshold
        self._reset_timeout = reset_timeout
        self._clock: Clock = clock or WallClock()
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether a call may proceed right now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                elapsed = self._clock.now() - self._opened_at
                if elapsed < self._reset_timeout:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                return True
            # HALF_OPEN: exactly one probe at a time
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        """Note a completed call: closes the circuit."""
        with self._lock:
            self._state = self.CLOSED
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        """Note a failed call: may trip the circuit."""
        with self._lock:
            if self._state == self.HALF_OPEN:
                # the probe failed: back to fully open
                self._state = self.OPEN
                self._opened_at = self._clock.now()
                self._probing = False
                return
            self._failures += 1
            if self._failures >= self._threshold:
                self._state = self.OPEN
                self._opened_at = self._clock.now()


class _AggregateChannel:
    """Channel-shaped accounting view summing retired + live channels.

    :class:`~repro.core.client.EncryptedClient` reads byte and time
    totals through ``rpc.channel``; this view keeps those totals
    correct across reconnects, where the live channel is replaced and
    its counters would otherwise vanish.
    """

    def __init__(self, owner: "ResilientRpcClient") -> None:
        self._owner = owner

    def _live(self) -> Channel | None:
        return self._owner._channel

    @property
    def bytes_sent(self) -> int:
        live = self._live()
        return self._owner._retired_sent + (live.bytes_sent if live else 0)

    @property
    def bytes_received(self) -> int:
        live = self._live()
        return self._owner._retired_received + (
            live.bytes_received if live else 0
        )

    @property
    def bytes_total(self) -> int:
        return self.bytes_sent + self.bytes_received

    @property
    def communication_time(self) -> float:
        live = self._live()
        return self._owner._retired_time + (
            live.communication_time if live else 0.0
        )

    @property
    def requests(self) -> int:
        live = self._live()
        return self._owner._retired_requests + (live.requests if live else 0)

    def reset_accounting(self) -> None:
        live = self._live()
        if live is not None:
            live.reset_accounting()
        self._owner._retired_sent = 0
        self._owner._retired_received = 0
        self._owner._retired_time = 0.0
        self._owner._retired_requests = 0


class ResilientRpcClient:
    """Retrying, reconnecting drop-in for :class:`~repro.net.rpc.RpcClient`.

    Parameters
    ----------
    channel_factory:
        Zero-argument callable opening a fresh channel to the server;
        invoked lazily for the first connection and again after every
        connection loss. May itself raise
        :class:`~repro.exceptions.ChannelError` (e.g. the server is
        mid-restart) — that counts as a failed attempt and is retried
        on the same backoff schedule.
    policy:
        The :class:`RetryPolicy`; defaults to 4 attempts.
    breaker:
        Optional :class:`CircuitBreaker`. When open, calls raise
        :class:`~repro.exceptions.CircuitOpenError` without touching
        the wire.
    sleep:
        Sleep function (injectable so tests retry without real delay).
    key_seed:
        First idempotency key; subsequent keys count up (mod 2^64).
        Defaults to a random 64-bit value so two clients of one server
        can never collide on keys.
    """

    def __init__(
        self,
        channel_factory: Callable[[], Channel],
        *,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        key_seed: int | None = None,
    ) -> None:
        self._factory = channel_factory
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = breaker
        self._sleep = sleep
        self._lock = threading.Lock()
        self._channel: Channel | None = None
        self._rpc: RpcClient | None = None
        base = (
            key_seed
            if key_seed is not None
            else int.from_bytes(os.urandom(8), "little")
        )
        self._key_base = base & _KEY_MASK
        self._key_counter = itertools.count()
        #: extra attempts beyond each call's first (cost row
        #: ``retries_attempted``)
        self.retries_attempted = 0
        #: replacement connections opened after a loss (``reconnects``)
        self.reconnects = 0
        self._retired_sent = 0
        self._retired_received = 0
        self._retired_time = 0.0
        self._retired_requests = 0
        self._view = _AggregateChannel(self)

    # -- RpcClient surface -------------------------------------------------

    @property
    def channel(self) -> _AggregateChannel:
        """Accounting view over every channel this client has used."""
        return self._view

    @property
    def server_time(self) -> float:
        """Accumulated server-reported processing time."""
        return self._rpc.server_time if self._rpc is not None else 0.0

    @property
    def calls(self) -> int:
        """Completed request/response exchanges (retries included)."""
        return self._rpc.calls if self._rpc is not None else 0

    def call(
        self,
        method: str,
        body: Writer | bytes = b"",
        *,
        deadline: float | None = None,
        idempotency_key: int | None = None,
    ) -> Reader:
        """Invoke ``method``, retrying per the policy.

        Methods outside :data:`READ_ONLY_METHODS` get an idempotency
        key generated here (one per logical call, reused verbatim on
        every resend) unless the caller supplied one.
        """
        key = idempotency_key
        if key is None and method not in READ_ONLY_METHODS:
            key = self._next_key()
        body_bytes = (
            body.getvalue() if isinstance(body, Writer) else bytes(body)
        )
        return self._with_retries(
            method,
            lambda rpc: rpc.call(
                method, body_bytes, deadline=deadline, idempotency_key=key
            ),
        )

    def ping(self, *, deadline: float | None = None) -> bool:
        """Round-trip liveness probe (retries like any read-only call)."""
        return self.call("ping", deadline=deadline).string() == "pong"

    def reset_accounting(self) -> None:
        """Zero every counter: channel bytes/time, server time, retries."""
        self._view.reset_accounting()
        if self._rpc is not None:
            self._rpc.server_time = 0.0
            self._rpc.calls = 0
        self.retries_attempted = 0
        self.reconnects = 0

    def close(self) -> None:
        """Close the live channel (later calls reconnect via the factory)."""
        with self._lock:
            channel = self._channel
            self._channel = None
        if channel is not None:
            self._retire(channel)

    def __enter__(self) -> "ResilientRpcClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- retry machinery ---------------------------------------------------

    def _next_key(self) -> int:
        return (self._key_base + next(self._key_counter)) & _KEY_MASK

    def _with_retries(self, method: str, invoke: Callable[[RpcClient], object]):
        last: ChannelError | None = None
        for attempt in range(self.policy.max_attempts):
            if attempt:
                self.retries_attempted += 1
                self._sleep(self.policy.delay(attempt - 1))
            if self.breaker is not None and not self.breaker.allow():
                raise CircuitOpenError(
                    f"circuit open: refusing {method!r} without trying "
                    f"(last failure: {last})"
                )
            try:
                rpc = self._connected()
            except ChannelError as exc:
                last = exc
                self._note_failure()
                continue
            try:
                result = invoke(rpc)
            except DeadlineExceededError:
                # the budget is spent; a retry cannot finish any sooner
                raise
            except ServerBusyError as exc:
                # the connection is fine — the server shed or is
                # draining; back off on the same channel
                last = exc
                self._note_failure()
                continue
            except ChannelError as exc:
                # connection-level loss: this channel is suspect, the
                # next attempt reconnects through the factory
                last = exc
                self._note_failure()
                self._drop_channel()
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result
        raise RetryExhaustedError(
            f"{method!r} failed after {self.policy.max_attempts} "
            f"attempts: {last}"
        ) from last

    def _note_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _connected(self) -> RpcClient:
        with self._lock:
            if self._channel is None:
                channel = self._factory()
                self._channel = channel
                if self._rpc is None:
                    self._rpc = RpcClient(channel)
                else:
                    self._rpc.channel = channel
                    self.reconnects += 1
            assert self._rpc is not None
            return self._rpc

    def _drop_channel(self) -> None:
        with self._lock:
            channel, self._channel = self._channel, None
        if channel is not None:
            self._retire(channel)

    def _retire(self, channel: Channel) -> None:
        """Fold a discarded channel's counters into the running totals."""
        with self._lock:
            self._retired_sent += channel.bytes_sent
            self._retired_received += channel.bytes_received
            self._retired_time += channel.communication_time
            self._retired_requests += channel.requests
        close = getattr(channel, "close", None)
        if close is not None:
            try:
                close()
            except ChannelError:  # pragma: no cover - close is best effort
                pass
