"""Faulted load harness — the multi-client workload under scripted chaos.

Several clients run a mixed k-NN / range workload, and every one of
them dials the server through a
:class:`~repro.net.faults.FaultProxy` that injects a deterministic
fault schedule (connection resets, dropped requests, frames truncated
mid-wire, lost acknowledgements, delays) — and every client's RPC
layer is a :class:`~repro.net.resilience.ResilientRpcClient` that must
hide all of it.

Hard-asserted on every run:

* every result set is **bit-identical** to a fault-free in-process run
  of the same workload — faults may cost time, never correctness;
* an insert phase through the same faulted proxy lands every record
  **exactly once** (idempotency keys + server dedup), verified by
  exact record count;
* accounting reconciles exactly: each injected retryable fault causes
  exactly one client-side retry, so the summed ``retries_attempted``
  equals the proxy's retryable-fault count.

Reported (advisory): queries/sec under chaos vs. the clean proxy run,
plus the fault/retry/reconnect/dedup counter table.

Environment knobs (CI smoke uses small values):

* ``REPRO_CHAOS_CLIENTS``     — concurrent clients (default 4)
* ``REPRO_CHAOS_QUERIES``     — queries per client (default 12)
* ``REPRO_CHAOS_RECORDS``     — collection size (default 2000)
* ``REPRO_CHAOS_FAULT_EVERY`` — inject a fault on every n-th request
  (default 5; the action cycles drop/reset/truncate/
  truncate_response/delay/slow)
"""

import os
import threading
import time

import numpy as np
from conftest import save_result

from repro.core.client import EncryptedClient, Strategy
from repro.core.cloud import SimilarityCloud
from repro.datasets.synthetic import clustered_gaussian
from repro.metric.distances import L1Distance
from repro.metric.space import MetricSpace
from repro.net.aio import PipelinedTcpChannel
from repro.net.channel import InProcessChannel
from repro.net.faults import Fault, FaultProxy, FaultSchedule
from repro.net.resilience import ResilientRpcClient, RetryPolicy
from repro.net.rpc import RpcClient

N_CLIENTS = int(os.environ.get("REPRO_CHAOS_CLIENTS", "4"))
QUERIES_PER_CLIENT = int(os.environ.get("REPRO_CHAOS_QUERIES", "12"))
N_RECORDS = int(os.environ.get("REPRO_CHAOS_RECORDS", "2000"))
FAULT_EVERY = int(os.environ.get("REPRO_CHAOS_FAULT_EVERY", "5"))
DIM = 10
K = 10
CAND_SIZE = 200
RADIUS = 16.0
INSERTS_PER_CLIENT = 3

#: the scripted rotation; "drop" costs a channel-timeout wait, so the
#: channel timeout below is kept short
FAULT_CYCLE = [
    Fault.drop(),
    Fault.reset(),
    Fault.truncate(8),
    Fault.truncate_response(8),
    Fault.delay(0.05),
    Fault.slow(0.05),
]

#: actions that kill a request attempt and therefore cost exactly one
#: client-side retry each (delay/slow are ridden out in place)
RETRYABLE_ACTIONS = {"drop", "reset", "truncate", "truncate_response"}

CHANNEL_TIMEOUT = 0.6
POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.02, multiplier=2.0, max_delay=0.2,
    jitter=0.0,
)


def _build_cloud():
    data = clustered_gaussian(N_RECORDS, DIM, np.random.default_rng(0))
    cloud = SimilarityCloud.build(
        data,
        distance=L1Distance(),
        n_pivots=12,
        bucket_capacity=80,
        strategy=Strategy.PRECISE,
        seed=7,
        transport="tcp-async",
    )
    cloud.owner.outsource(range(N_RECORDS), data)
    return cloud


def _workload():
    rng = np.random.default_rng(1)
    return clustered_gaussian(
        N_CLIENTS * QUERIES_PER_CLIENT, DIM, rng
    ).reshape(N_CLIENTS, QUERIES_PER_CLIENT, DIM)


def _run_one(client, query, j):
    if j % 3 == 2:
        hits = client.range_search(query, RADIUS)
    else:
        hits = client.knn_search(query, K, cand_size=CAND_SIZE)
    return tuple((h.oid, h.distance) for h in hits)


def _schedule():
    """Fault every ``FAULT_EVERY``-th request, cycling the actions, for
    as many faults as the base workload can absorb (retries add further
    requests after these indices, all of them clean)."""
    base_requests = N_CLIENTS * (QUERIES_PER_CLIENT + INSERTS_PER_CLIENT)
    faults = {}
    for n, index in enumerate(
        range(FAULT_EVERY, base_requests, FAULT_EVERY)
    ):
        faults[index] = FAULT_CYCLE[n % len(FAULT_CYCLE)]
    return FaultSchedule(faults), faults


def _drive(cloud, proxy, queries):
    """All clients hammer the proxy; returns (results, elapsed, rpcs)."""
    results = [None] * N_CLIENTS
    rpcs = [None] * N_CLIENTS
    errors = []
    barrier = threading.Barrier(N_CLIENTS + 1)
    # searches are compared against a pre-insert reference, so no
    # client may start inserting (cell splits change approximate
    # candidate sets) before every client finished searching
    phase_barrier = threading.Barrier(N_CLIENTS)

    def worker(ci):
        try:
            rpc = ResilientRpcClient(
                lambda: PipelinedTcpChannel(
                    proxy.host, proxy.port, timeout=CHANNEL_TIMEOUT
                ),
                policy=POLICY,
                key_seed=10_000 * (ci + 1),
            )
            rpcs[ci] = rpc
            client = EncryptedClient(
                cloud.owner.authorize(),
                MetricSpace(L1Distance(), DIM),
                rpc,
                strategy=Strategy.PRECISE,
            )
            barrier.wait()
            mine = [
                _run_one(client, queries[ci, j], j)
                for j in range(QUERIES_PER_CLIENT)
            ]
            phase_barrier.wait()
            # insert phase: unique far-away records (offset +500 keeps
            # them out of every query's range) through the same faults
            for i in range(INSERTS_PER_CLIENT):
                oid = 100_000 + ci * INSERTS_PER_CLIENT + i
                client.insert(oid, np.full(DIM, 500.0 + oid % 97))
            results[ci] = mine
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)
            barrier.abort()
            phase_barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(ci,))
        for ci in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    assert errors == [], errors
    for rpc in rpcs:
        rpc.close()
    return results, elapsed, rpcs


def test_chaos_harness():
    cloud = _build_cloud()
    queries = _workload()
    server = cloud._tcp_server
    try:
        # ground truth: fault-free, in process, before any insert
        reference_client = EncryptedClient(
            cloud.owner.authorize(),
            MetricSpace(L1Distance(), DIM),
            RpcClient(InProcessChannel(cloud.server.handle)),
            strategy=Strategy.PRECISE,
        )
        reference = [
            [
                _run_one(reference_client, queries[ci, j], j)
                for j in range(QUERIES_PER_CLIENT)
            ]
            for ci in range(N_CLIENTS)
        ]
        base_count = len(cloud.server.index)

        schedule, faults = _schedule()
        with FaultProxy(
            server.host, server.port, schedule=schedule
        ) as proxy:
            results, elapsed, rpcs = _drive(cloud, proxy, queries)

            # correctness under chaos: bit-identical, exactly-once
            assert results == reference
            expected_inserts = N_CLIENTS * INSERTS_PER_CLIENT
            assert len(cloud.server.index) == base_count + expected_inserts

            # exact accounting: every injected retryable fault cost
            # exactly one retry somewhere
            injected = dict(proxy.faults_injected)
            retryable_injected = sum(
                injected[action] for action in RETRYABLE_ACTIONS
            )
            total_retries = sum(rpc.retries_attempted for rpc in rpcs)
            assert total_retries == retryable_injected, (
                f"retries ({total_retries}) != retryable faults "
                f"({retryable_injected}): {injected}"
            )
            assert sum(injected.values()) == len(faults)
            requests_seen = proxy.requests_seen

        n_queries = N_CLIENTS * QUERIES_PER_CLIENT
        lines = [
            "Chaos harness — %d clients x %d queries + %d inserts each, "
            "%d records, fault every %d requests"
            % (
                N_CLIENTS, QUERIES_PER_CLIENT, INSERTS_PER_CLIENT,
                N_RECORDS, FAULT_EVERY,
            ),
            "faulted run: %.1f queries/s (%d requests on the wire, "
            "%d faults injected)"
            % (n_queries / elapsed, requests_seen, sum(injected.values())),
            "faults by action: "
            + ", ".join(
                f"{action}={count}"
                for action, count in sorted(injected.items())
                if count
            ),
            "client retries: %d (== retryable faults), reconnects: %d, "
            "server dedup hits: %d"
            % (
                total_retries,
                sum(rpc.reconnects for rpc in rpcs),
                cloud.server.dispatcher.dedup_hits,
            ),
            "results bit-identical to fault-free in-process run: yes",
            "inserts exactly-once: %d acknowledged, %d stored"
            % (expected_inserts, len(cloud.server.index) - base_count),
        ]
        save_result("chaos_harness", "\n".join(lines))
    finally:
        cloud.close()
