"""Per-component cost accounting mirroring the paper's table rows.

Tables 3–9 report, per phase, the components

* *client time* (with *encryption*, *decryption* and *distance
  computation* sub-components),
* *server time*,
* *communication time* and *communication cost* (bytes),
* *overall time* = client + server + communication.

:class:`CostRecorder` accumulates named durations; :class:`CostTimer`
is its context-manager front end; :class:`CostReport` is an immutable
snapshot with the table-row derivations. Every bench renders its table
straight from these reports, so the reproduction uses the exact same
definitions as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.clock import Clock, WallClock

__all__ = [
    "CLIENT",
    "ENCRYPTION",
    "DECRYPTION",
    "DISTANCE",
    "CACHE_HITS",
    "CACHE_MISSES",
    "BLOCK_CACHE_HITS",
    "BLOCK_CACHE_MISSES",
    "CHUNKS_DECOMPRESSED",
    "RETRIES_ATTEMPTED",
    "RECONNECTS",
    "REQUESTS_SHED",
    "DEADLINE_EXPIRATIONS",
    "IDEMPOTENT_DEDUP_HITS",
    "KERNEL_TASKS",
    "KERNEL_PARALLEL_BATCHES",
    "KERNEL_WORKERS",
    "KERNEL_COUNTERS",
    "SHARDS_SKIPPED",
    "CostRecorder",
    "CostReport",
    "CostTimer",
]

#: canonical component names (table rows)
CLIENT = "client"
ENCRYPTION = "encryption"
DECRYPTION = "decryption"
DISTANCE = "distance"

#: canonical counter names of the client's decrypted-candidate cache.
#: Decryption time is charged only for misses, so the paper's cost
#: breakdown still reconciles: every charged decryption corresponds to
#: exactly one cache miss (or to a client with the cache disabled).
CACHE_HITS = "cache_hits"
CACHE_MISSES = "cache_misses"

#: canonical counter names of the disk backend's decoded-chunk block
#: cache. Invariants the storage tests pin down: hits + misses equals
#: chunk accesses, and every decompression corresponds to exactly one
#: cache miss, so the storage ablation bench can reconcile its I/O
#: breakdown the same way the client-side cache reconciles decryption.
BLOCK_CACHE_HITS = "block_cache_hits"
BLOCK_CACHE_MISSES = "block_cache_misses"
CHUNKS_DECOMPRESSED = "chunks_decompressed"

#: canonical counter names of the fault-tolerance layer. The client
#: side (:class:`repro.net.resilience.ResilientRpcClient`) counts every
#: extra attempt and reconnect it performs; the server side counts
#: requests it refused (load shedding / draining), requests whose
#: deadline budget expired before they ran, and mutating requests it
#: answered from the idempotency cache instead of re-executing. The
#: chaos suite pins these to exact values: every injected fault must be
#: visible in exactly one counter.
RETRIES_ATTEMPTED = "retries_attempted"
RECONNECTS = "reconnects"
REQUESTS_SHED = "requests_shed"
DEADLINE_EXPIRATIONS = "deadline_expirations"
IDEMPOTENT_DEDUP_HITS = "idempotent_dedup_hits"

#: the three counters of the kernel scheduler, which is gone: every
#: kernel runs serial (PR 22; the scheduler was slower on all four
#: benchmark workloads), so all three always read 0. The names stay in
#: ``report().extras`` and the ``stats`` RPC only because
#: ``benchmarks/e2e/workloads.py`` indexes both by them and
#: ``BENCHMARK.json`` lists ``parallel.*``; they go when a benchmark
#: change drops those metrics.
KERNEL_TASKS = "kernel_tasks"
KERNEL_PARALLEL_BATCHES = "kernel_parallel_batches"
KERNEL_WORKERS = "kernel_workers"
KERNEL_COUNTERS = {
    KERNEL_TASKS: 0,
    KERNEL_PARALLEL_BATCHES: 0,
    KERNEL_WORKERS: 0,
}

#: canonical counter name of the shard router's graceful degradation.
#: In ``allow_partial`` mode a scatter that cannot reach a shard skips
#: it (the affected prefix range goes dark instead of failing the whole
#: batch); every skip increments this counter, surfaced in the client
#: report extras so degraded answers are always visibly degraded.
SHARDS_SKIPPED = "shards_skipped"


class CostRecorder:
    """Accumulates named time components and counters."""

    def __init__(self, *, clock: Clock | None = None) -> None:
        self.clock: Clock = clock or WallClock()
        self._times: dict[str, float] = {}
        self._counters: dict[str, int] = {}

    def time(self, component: str) -> "CostTimer":
        """Context manager charging its duration to ``component``."""
        return CostTimer(self, component)

    def add_time(self, component: str, seconds: float) -> None:
        """Charge ``seconds`` to ``component``."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time {seconds}")
        self._times[component] = self._times.get(component, 0.0) + seconds

    def add_count(self, counter: str, amount: int = 1) -> None:
        """Increment a named counter (e.g. objects encrypted)."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def seconds(self, component: str) -> float:
        """Accumulated time of a component (0.0 when never charged)."""
        return self._times.get(component, 0.0)

    def count(self, counter: str) -> int:
        """Value of a counter (0 when never incremented)."""
        return self._counters.get(counter, 0)

    def reset(self) -> None:
        """Clear all components and counters."""
        self._times.clear()
        self._counters.clear()

    def as_dict(self) -> dict[str, float]:
        """Copy of the time components."""
        return dict(self._times)


class CostTimer:
    """Context manager charging elapsed clock time to a component."""

    def __init__(self, recorder: CostRecorder, component: str) -> None:
        self._recorder = recorder
        self._component = component
        self._start: float | None = None

    def __enter__(self) -> "CostTimer":
        self._start = self._recorder.clock.now()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._start is not None
        elapsed = self._recorder.clock.now() - self._start
        if elapsed > 0:
            self._recorder.add_time(self._component, elapsed)
        self._start = None


@dataclass(frozen=True)
class CostReport:
    """Immutable snapshot of one measured phase, in the paper's rows.

    ``client_time`` *includes* the encryption/decryption/distance
    sub-components (they are detail rows, exactly as in Tables 3–6);
    ``overall_time`` is their *client + server + communication* sum as
    defined in §5.2.
    """

    client_time: float = 0.0
    encryption_time: float = 0.0
    decryption_time: float = 0.0
    distance_time: float = 0.0
    server_time: float = 0.0
    communication_time: float = 0.0
    communication_bytes: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def overall_time(self) -> float:
        """client + server + communication (paper §5.2)."""
        return self.client_time + self.server_time + self.communication_time

    @property
    def communication_kb(self) -> float:
        """Communication cost in kB (1 kB = 1000 B, matching the paper's
        magnitudes)."""
        return self.communication_bytes / 1000.0

    def scaled(self, divisor: float) -> "CostReport":
        """Per-query averages: divide every component by ``divisor``."""
        if divisor <= 0:
            raise ValueError(f"divisor must be positive, got {divisor}")
        return CostReport(
            client_time=self.client_time / divisor,
            encryption_time=self.encryption_time / divisor,
            decryption_time=self.decryption_time / divisor,
            distance_time=self.distance_time / divisor,
            server_time=self.server_time / divisor,
            communication_time=self.communication_time / divisor,
            communication_bytes=int(round(self.communication_bytes / divisor)),
            extras=dict(self.extras),
        )

    def __add__(self, other: "CostReport") -> "CostReport":
        merged = dict(self.extras)
        merged.update(other.extras)
        return CostReport(
            client_time=self.client_time + other.client_time,
            encryption_time=self.encryption_time + other.encryption_time,
            decryption_time=self.decryption_time + other.decryption_time,
            distance_time=self.distance_time + other.distance_time,
            server_time=self.server_time + other.server_time,
            communication_time=self.communication_time + other.communication_time,
            communication_bytes=self.communication_bytes + other.communication_bytes,
            extras=merged,
        )

    def as_dict(self) -> dict:
        """Flat dictionary (for table rendering and JSON dumps)."""
        return {
            "client_time": self.client_time,
            "encryption_time": self.encryption_time,
            "decryption_time": self.decryption_time,
            "distance_time": self.distance_time,
            "server_time": self.server_time,
            "communication_time": self.communication_time,
            "communication_bytes": self.communication_bytes,
            "overall_time": self.overall_time,
            **self.extras,
        }
