"""Shard-cluster scaling — scatter-gather throughput vs shard count.

Not a paper table: this bench sweeps a :class:`ProcessShardCluster`
over {1, 2, 4, 8} shards (one OS process per shard, pipelined TCP,
independent GILs) and measures (a) bulk-construction throughput
(records/sec through a routed ``insert_bulk``, which the shard map
splits by top-level pivot so every shard builds its subtree
concurrently) and (b) batch-query throughput (queries/sec through the
routed ``knn_batch`` scatter-gather).

Equivalence is the hard part of the contract and is asserted at every
shard count regardless of the host: bit-identical knn candidate lists,
bit-identical range candidate lists, and a cell-tree dump whose union
across shards equals the single-shard tree cell for cell (records per
shard comfortably exceed the bucket capacity, so every shard root
splits and the prefix-partitioned union is exactly the one tree). The
speedup assertion (>= 1.5x batch-query throughput at 4 shards vs 1)
only applies on hosts with >= 4 cores, with a two-standard-error noise
allowance over the per-round throughput samples; a 1-core CI box runs
the full equivalence sweep but serializes all shard processes onto one core and cannot be expected to
scale.

Knobs: ``REPRO_SHARD_N`` (records, default 4000),
``REPRO_SHARD_QUERIES`` (default 64), ``REPRO_SHARD_ROUNDS`` (timed
knn rounds per shard count, default 3).
"""

import os
import time

import numpy as np
import pytest
from conftest import save_result

from repro.cluster import ProcessShardCluster
from repro.core.records import RecordBatch
from repro.metric.permutations import pivot_permutations
from repro.wire.encoding import Writer
from repro.wire.scatter import read_candidate_lists

N_RECORDS = int(os.environ.get("REPRO_SHARD_N", "4000"))
N_QUERIES = int(os.environ.get("REPRO_SHARD_QUERIES", "64"))
ROUNDS = int(os.environ.get("REPRO_SHARD_ROUNDS", "3"))
N_PIVOTS = 16
BUCKET_CAPACITY = 50
CAND_SIZE = 300
RADIUS = 6.0
SHARD_COUNTS = [1, 2, 4, 8]
MIN_SPEEDUP_AT_4 = 1.5


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(42)
    distances = rng.uniform(0.0, 10.0, size=(N_RECORDS, N_PIVOTS))
    permutations = pivot_permutations(distances)
    payloads = [rng.bytes(32) for _ in range(N_RECORDS)]
    batch = RecordBatch(
        np.arange(N_RECORDS, dtype=np.uint64),
        permutations,
        distances,
        payloads,
    )
    insert_body = batch.write_to(Writer()).getvalue()

    query_rng = np.random.default_rng(43)
    query_distances = query_rng.uniform(
        0.0, 10.0, size=(N_QUERIES, N_PIVOTS)
    )
    knn_body = (
        Writer()
        .i32_matrix(
            pivot_permutations(query_distances).astype(np.int32)
        )
        .u32(CAND_SIZE)
        .u32(0)
        .getvalue()
    )
    range_body = (
        Writer().f64_matrix(query_distances).f64(RADIUS).getvalue()
    )
    return insert_body, knn_body, range_body


def _read_lists(reader):
    """A batched candidate-list response as one [(oid, payload)] list
    per query."""
    table, rows_per_query = read_candidate_lists(reader)
    return [
        list(zip(table[0][rows].tolist(), table.payloads.tolist(rows)))
        for rows in rows_per_query
    ]


def _cell_fingerprint(cells):
    """cell prefix -> sorted (oid, payload) — placement AND bytes."""
    return {
        prefix: sorted(records) for prefix, records in cells.items()
    }


def test_shard_scaling(workload):
    insert_body, knn_body, range_body = workload
    assert N_RECORDS // max(SHARD_COUNTS) > 2 * BUCKET_CAPACITY, (
        "every shard root must split for the cell-tree union assert"
    )
    lines = [
        "Shard-cluster scaling - scatter-gather construction + batch-knn "
        f"throughput ({N_RECORDS} records, {N_PIVOTS} pivots, "
        f"{N_QUERIES} queries, cand {CAND_SIZE}, {ROUNDS} rounds, "
        f"host cores: {os.cpu_count()})",
        "",
        f"{'shards':>6s} {'construct obj/s':>16s} {'knn q/s':>10s} "
        f"{'range q/s':>10s} {'speedup':>8s}",
    ]

    knn_rounds = {}
    knn_qps = {}
    reference = None
    for shards in SHARD_COUNTS:
        with ProcessShardCluster(
            N_PIVOTS, BUCKET_CAPACITY, n_shards=shards
        ) as cluster:
            router = cluster.router(resilient=False)
            try:
                start = time.perf_counter()
                total = router.call("insert_bulk", insert_body).u64()
                construct_ops = N_RECORDS / (
                    time.perf_counter() - start
                )
                assert total == N_RECORDS

                # equivalence first (doubles as transport warmup)
                knn = _read_lists(router.call("knn_batch", knn_body))
                start = time.perf_counter()
                rng_hits = _read_lists(
                    router.call("range_batch", range_body)
                )
                range_qps = N_QUERIES / (time.perf_counter() - start)
                cells = _cell_fingerprint(router.dump_cells())

                samples = []
                for _ in range(ROUNDS):
                    start = time.perf_counter()
                    router.call("knn_batch", knn_body)
                    samples.append(
                        N_QUERIES / (time.perf_counter() - start)
                    )
                knn_rounds[shards] = samples
                knn_qps[shards] = float(np.mean(samples))
            finally:
                router.close()
        lines.append(
            f"{shards:6d} {construct_ops:16.1f} {knn_qps[shards]:10.1f} "
            f"{range_qps:10.1f} {knn_qps[shards] / knn_qps[1]:7.2f}x"
        )
        if shards == 1:
            assert any(knn) and any(rng_hits)
            reference = (knn, rng_hits, cells)
        else:
            # the scatter-gather contract, enforced on every host:
            # bit-identical knn and range candidate lists and the same
            # cell tree (as the union of the shard trees)
            assert knn == reference[0], (
                f"{shards} shards changed knn results"
            )
            assert rng_hits == reference[1], (
                f"{shards} shards changed range results"
            )
            assert cells == reference[2], (
                f"{shards} shards changed the cell tree or stored bytes"
            )

    save_result("shard_scaling", "\n".join(lines))

    # batch-query throughput must scale once shard processes get real
    # cores; one-sided gate at two standard errors of the per-round
    # samples so scheduler noise cannot flip a healthy run red
    if (os.cpu_count() or 1) >= 4 and ROUNDS >= 2:
        base = np.asarray(knn_rounds[1])
        four = np.asarray(knn_rounds[4])
        noise = 2.0 * float(
            np.sqrt(
                np.var(four, ddof=1) / ROUNDS
                + MIN_SPEEDUP_AT_4**2 * np.var(base, ddof=1) / ROUNDS
            )
        )
        assert float(np.mean(four)) >= (
            MIN_SPEEDUP_AT_4 * float(np.mean(base)) - noise
        ), (
            f"knn throughput at 4 shards is "
            f"{np.mean(four) / np.mean(base):.2f}x of 1 shard, expected "
            f">= {MIN_SPEEDUP_AT_4}x on a {os.cpu_count()}-core host "
            f"(noise allowance {noise:.1f} q/s)"
        )
