"""Kernel scheduler scaling — construction and batch-knn vs workers.

Not a paper table: this bench sweeps ``REPRO_KERNEL_WORKERS`` over
{1, 2, 4} and measures (a) bulk-construction throughput (objects/sec
through :meth:`EncryptedClient.insert_many`, which exercises the
pairwise-distance, OPE and bulk-AES kernels) and (b) batch-knn
throughput (queries/sec through :meth:`EncryptedClient.knn_batch`).

Equivalence is the hard part of the contract and is asserted at every
worker count regardless of the host: identical cell trees, identical
per-cell storage bytes (nonces are injected deterministically so
payload bytes are comparable), and bit-identical knn and range
results. The speedup assertion (>= 1.3x construction throughput at 4
workers) only applies on hosts with >= 4 cores — a 1-core CI box runs
the full equivalence sweep but cannot be expected to scale.

Knobs: ``REPRO_KERNEL_N`` (records, default 4000),
``REPRO_KERNEL_QUERIES`` (default 64).
"""

import os
import time

import numpy as np
import pytest
from conftest import save_result

from repro.core.client import EncryptedClient, Strategy
from repro.core.server import SimilarityCloudServer
from repro.crypto.keys import SecretKey
from repro.datasets.synthetic import clustered_gaussian
from repro.metric.distances import L2Distance
from repro.metric.space import MetricSpace
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.parallel import backend

N_RECORDS = int(os.environ.get("REPRO_KERNEL_N", "4000"))
N_QUERIES = int(os.environ.get("REPRO_KERNEL_QUERIES", "64"))
DIM = 16
N_PIVOTS = 16
BUCKET_CAPACITY = 100
K = 10
CAND_SIZE = 200
RADIUS = 4.0
WORKER_COUNTS = [1, 2, 4]
MIN_SPEEDUP_AT_4 = 1.3


@pytest.fixture(scope="module")
def workload():
    data = clustered_gaussian(N_RECORDS, DIM, np.random.default_rng(0))
    queries = clustered_gaussian(N_QUERIES, DIM, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    pivots = data[rng.choice(N_RECORDS, N_PIVOTS, replace=False)]
    return data, queries, pivots


def _counting_nonces():
    state = {"n": 0}

    def factory() -> bytes:
        state["n"] += 1
        return state["n"].to_bytes(16, "big")

    return factory


def _deployment(pivots):
    server = SimilarityCloudServer(N_PIVOTS, BUCKET_CAPACITY)
    # deterministic nonces -> payload bytes are comparable across the
    # worker sweep, making "same storage bytes" a meaningful assertion
    key = SecretKey(
        pivots, b"bench-kernels-16", nonce_factory=_counting_nonces()
    )
    channel = InProcessChannel(server.handle, latency=0.0, bandwidth=None)
    # TRANSFORMED exercises all three kernel families end to end:
    # pairwise distances, the OPE matrix transform of the outsourced
    # distance matrix, and the bulk AES pass — and supports both knn
    # and range queries for the equivalence fingerprint
    client = EncryptedClient(
        key,
        MetricSpace(L2Distance(), DIM),
        RpcClient(channel),
        strategy=Strategy.TRANSFORMED,
    )
    return server, client


def _cell_bytes(server):
    """cell prefix -> sorted (oid, payload) — placement AND bytes."""
    return {
        tuple(cell): sorted(
            (record.oid, record.payload)
            for record in server.storage.load(cell)
        )
        for cell in server.storage.cells()
    }


def _fingerprint(client, queries):
    knn = [
        [(hit.oid, hit.distance) for hit in hits]
        for hits in client.knn_batch(queries, K, cand_size=CAND_SIZE)
    ]
    rng_hits = [
        sorted((hit.oid, hit.distance) for hit in client.range_search(
            query, RADIUS
        ))
        for query in queries[:8]
    ]
    return knn, rng_hits


def test_kernel_scaling(workload):
    data, queries, pivots = workload
    lines = [
        "Kernel scheduler scaling - construction + batch-knn throughput "
        f"({N_RECORDS} records, dim {DIM}, {N_PIVOTS} pivots, "
        f"{N_QUERIES} queries, host cores: {os.cpu_count()})",
        "",
        f"{'workers':>7s} {'construct obj/s':>16s} {'knn q/s':>10s} "
        f"{'speedup':>8s} {'batches':>8s}",
    ]

    construct_ops = {}
    reference = None
    for workers in WORKER_COUNTS:
        with backend.workers_override(workers):
            server, client = _deployment(pivots)
            from repro.parallel import GLOBAL_STATS

            GLOBAL_STATS.reset()
            start = time.perf_counter()
            client.insert_many(range(N_RECORDS), data, bulk_size=1000)
            construct_ops[workers] = N_RECORDS / (
                time.perf_counter() - start
            )
            start = time.perf_counter()
            fingerprint = _fingerprint(client, queries)
            knn_qps = N_QUERIES / (time.perf_counter() - start)
            batches = GLOBAL_STATS.snapshot()["kernel_parallel_batches"]
            cells = _cell_bytes(server)
            server.close()
        lines.append(
            f"{workers:7d} {construct_ops[workers]:16.1f} {knn_qps:10.1f} "
            f"{construct_ops[workers] / construct_ops[1]:7.2f}x "
            f"{batches:8d}"
        )
        if workers == 1:
            assert batches == 0, "workers=1 must run the serial path"
            reference = (cells, fingerprint)
        else:
            # bit-identical cell trees, storage bytes and search
            # results at every worker count — the scheduler's core
            # contract, enforced on every host
            assert cells == reference[0], (
                f"workers={workers} changed the cell tree or stored bytes"
            )
            assert fingerprint == reference[1], (
                f"workers={workers} changed search results"
            )
            assert batches > 0, (
                f"workers={workers} never engaged the parallel path"
            )

    save_result("kernel_scaling", "\n".join(lines))

    if (os.cpu_count() or 1) >= 4:
        speedup = construct_ops[4] / construct_ops[1]
        assert speedup >= MIN_SPEEDUP_AT_4, (
            f"construction speedup at 4 workers is {speedup:.2f}x, "
            f"expected >= {MIN_SPEEDUP_AT_4}x on a "
            f"{os.cpu_count()}-core host"
        )
