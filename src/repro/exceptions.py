"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the failure domain (metric, crypto,
index, protocol, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the ``repro`` library."""


class MetricError(ReproError):
    """A metric-space operation received invalid input.

    Examples: dimensionality mismatch between two vectors, a distance
    function that is not defined for the given domain, or a violated
    metric postulate detected by :func:`repro.metric.space.check_metric`.
    """


class PivotError(MetricError):
    """Pivot selection or pivot-permutation computation failed."""


class CryptoError(ReproError):
    """Base class for encryption-layer failures."""


class KeyError_(CryptoError):
    """A cipher key has an invalid length or malformed serialization.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


class AuthenticationError(CryptoError):
    """Ciphertext failed its integrity check (HMAC mismatch).

    Raised by :class:`repro.crypto.cipher.AesCipher` when a ciphertext has
    been tampered with or decrypted with the wrong key.
    """


class StorageError(ReproError):
    """A bucket/storage backend operation failed."""


class IndexError_(ReproError):
    """Base class for M-Index structural failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class ProtocolError(ReproError):
    """A wire message could not be encoded or decoded."""


class ChannelError(ReproError):
    """A network channel failed to transmit or the peer closed."""


class ServerBusyError(ChannelError):
    """The server shed this request because its queue was full.

    Raised on the client when the async server's load-shedding limit
    (``max_pending``) is hit or the server is draining for shutdown;
    the request was never dispatched, so the caller may safely retry
    after backing off.
    """


class DeadlineExceededError(ChannelError):
    """A request's per-RPC deadline budget expired before it completed.

    Raised either client-side (no response arrived within the budget)
    or server-side (the request was still queued when its budget ran
    out, so the server shed it unexecuted). The budget is spent, so
    retry layers must *not* retry this error — the caller decides
    whether a fresh deadline is warranted.
    """


class RetryExhaustedError(ChannelError):
    """A retried RPC failed on every attempt the policy allowed.

    The last underlying failure is chained as ``__cause__``.
    """


class CircuitOpenError(ChannelError):
    """The client's circuit breaker is open: calls fail fast.

    Raised without touching the network after the breaker's failure
    threshold was reached, until its reset timeout elapses and a probe
    call is allowed through.
    """


class ShardUnavailableError(ChannelError):
    """A cluster shard could not be reached (retries exhausted or its
    circuit breaker is open).

    Raised by the shard router when a shard holding part of the queried
    prefix range is down. In strict mode (the default) the whole
    scatter fails with this error; with ``allow_partial`` the router
    skips the shard, serves the surviving prefix ranges, and counts the
    degradation in ``shards_skipped``. The underlying failure is
    chained as ``__cause__``.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        #: index of the unreachable shard in the shard map
        self.shard = shard


class QueryError(ReproError):
    """A similarity query was malformed (e.g. negative radius, k < 1)."""


class DatasetError(ReproError):
    """A dataset generator or registry lookup received invalid parameters."""


class EvaluationError(ReproError):
    """The experiment harness was configured inconsistently."""
