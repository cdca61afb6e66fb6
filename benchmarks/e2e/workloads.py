"""The four deployment workloads of the end-to-end benchmark.

Each workload builds its deployment through the public API only,
generates every input from the seed (the program receives only the
generated arrays) and runs *rounds*: a round is a fixed list of
operations, each caller waits for its reply before sending the next
(closed loop), and the runner repeats rounds until the measured time is
spent. Answers are kept and checked after the round, outside the timed
region. Why each workload exists is in ``README.md`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

import check
from repro import (
    EncryptedClient,
    L1Distance,
    MetricSpace,
    SimilarityCloud,
    SimilarityCloudServer,
    Strategy,
)
from repro.cluster import ProcessShardCluster
from repro.core.client import DataOwner
from repro.core.records import vector_to_payload
from repro.crypto.keys import SecretKey
from repro.datasets.synthetic import clustered_gaussian
from repro.exceptions import ReproError
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage
from repro.wire.scatter import read_stats_map

DIM = 32
N_PIVOTS = 32
BUCKET_CAPACITY = 200
K = 10
#: held-out query points per workload; rounds wrap around when spent
QUERY_POOL = 4096
#: the mixture (cluster centres, weights, scales) every seed samples from
POPULATION_SEED = 2012

#: server counters read through the ``stats`` RPC, as deltas
STATS_COUNTS = (
    "storage_reads",
    "storage_writes",
    "storage_bytes_read",
    "storage_bytes_written",
    "storage_block_cache_hits",
    "storage_block_cache_misses",
    "storage_chunks_decompressed",
    "storage_manifest_writes",
    "requests_shed",
    "deadline_expirations",
)
#: client counters read from ``EncryptedClient.report().extras``
REPORT_COUNTS = (
    "candidates_received",
    "candidates_refined",
    "distance_computations",
    "retries_attempted",
    "reconnects",
    "shards_skipped",
)
KERNEL_COUNTS = ("kernel_tasks", "kernel_parallel_batches")


@dataclass
class Op:
    """One measured operation and, once checked, what was wrong with it."""

    kind: str  # "insert" | "knn" | "range" | "delete"
    start: float
    latency: float  # seconds, as measured
    sent: int
    received: int
    answer: object = None
    error: str | None = None
    problem: str | None = None
    recalls: list = field(default_factory=list)
    slowdown: float = 1.0  # of the host around this op (reference.py)
    hits: int = 0  # search hits returned, kept when the answer is dropped

    @property
    def failed(self) -> bool:
        return self.error is not None or self.problem is not None

    def release(self, batched: bool) -> None:
        """Drop the checked answer, so that memory measures the program."""
        if self.error is None and self.kind in ("knn", "range"):
            self.hits = (
                sum(map(len, self.answer)) if batched else len(self.answer)
            )
        self.answer = None

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds of the undisturbed host."""
        return self.latency * 1e3 / self.slowdown


@dataclass
class Round:
    wall: float  # seconds, as measured, without the reference readings
    cpu: float
    items: int
    ops: list
    counts: dict
    gauges: dict
    traced: bool = False

    @property
    def slowdown(self) -> float:
        """The host's slowdown over the round, weighted by op time."""
        return sum(op.latency for op in self.ops) / sum(
            op.latency / op.slowdown for op in self.ops
        )


def timed(
    client: EncryptedClient, kind: str, call, *args, pacer=None, **kwargs
) -> Op:
    """Run one client call; latency is call to return of the method.

    A single-client workload passes its ``pacer``, which takes a
    reference reading before the op whenever one is due.
    """
    if pacer is not None:
        pacer.read_if_due()
    channel = client.rpc.channel
    sent, received = channel.bytes_sent, channel.bytes_received
    answer = error = None
    start = time.perf_counter()
    try:
        answer = call(*args, **kwargs)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return Op(
        kind,
        start,
        latency,
        channel.bytes_sent - sent,
        channel.bytes_received - received,
        answer,
        error,
    )


def process_usage(pids) -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) summed over live processes ``pids``.

    Shard processes are still running when they are measured, so
    ``getrusage(RUSAGE_CHILDREN)`` would not count them; /proc does.
    """
    ticks = os.sysconf("SC_CLK_TCK")
    cpu = rss = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        cpu += (int(fields[11]) + int(fields[12])) / ticks
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    rss += int(line.split()[1]) / 1024.0
    return cpu, rss


def sample_points(seed: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(``rows`` distinct points of the population by seed, pivot source).

    The population is one fixed mixture of Gaussians. The seed decides
    which of its points are the objects and the queries and, in the
    workloads, the op order; the pivots are drawn from a fixed part of
    the population with a fixed key seed, as a deployment keeps its
    secret key while its collection changes. Drawing a new mixture or
    new pivots per seed would make recall, candidate counts and the
    cell tree differ between seeds by more than any regression bound.
    """
    population = clustered_gaussian(
        2 * rows, DIM, np.random.default_rng(POPULATION_SEED)
    )
    chosen = np.random.default_rng(seed).permutation(2 * rows)[:rows]
    return population[chosen], population[:64 * N_PIVOTS]


def directory_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory))


class Workload:
    """Set-up, rounds, checks and teardown of one deployment."""

    name = ""
    item = "ops"  # what throughput counts
    batched = False  # an op is one knn_batch, not one knn_search
    tail_percentile = 95
    #: server handlers run in other processes, out of the tracer's reach
    remote_servers = False

    #: rounds that always run; the exact counts come from them alone
    prefix_rounds = 3

    def __init__(
        self, seed: int, scale: float, workdir: str, tracer, pacer
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer = tracer
        self.pacer = pacer
        self.traced = False
        self.digest = check.Digest()
        self.extra: dict[str, list] = {}  # per-round figures, e.g. flush_s
        self.clients: list[EncryptedClient] = []
        self.admin = None  # a client whose channel carries only ``stats``

    def scaled(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    # -- to implement ---------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        raise NotImplementedError

    def check_round(self, index: int, round_: Round) -> None:
        raise NotImplementedError

    def finish(self) -> list:
        """Verification ops after the last round (checked, untimed)."""
        return []

    def close(self) -> None:
        raise NotImplementedError

    def child_pids(self) -> list:
        return []

    def disk_bytes_per_object(self) -> float:
        return 0.0

    # -- shared machinery -----------------------------------------------

    def build_cloud(self, strategy, **kwargs) -> SimilarityCloud:
        return SimilarityCloud.build(
            self.pivot_source,
            distance=L1Distance(),
            n_pivots=N_PIVOTS,
            bucket_capacity=BUCKET_CAPACITY,
            strategy=strategy,
            seed=POPULATION_SEED,
            **kwargs,
        )

    def token_bytes(self) -> int:
        cipher = self.clients[0].secret_key.cipher
        return cipher.token_size(len(vector_to_payload(np.zeros(DIM))))

    def counters(self) -> tuple[dict, dict]:
        """(monotone counts, gauges) from the public counters."""
        counts = dict.fromkeys(REPORT_COUNTS + KERNEL_COUNTS, 0.0)
        counts.update(server_reported_s=0.0, requests=0.0)
        for client in self.clients:
            report = client.report()
            extras = report.extras
            for key in REPORT_COUNTS:
                counts[key] += extras.get(key, 0)
            counts["server_reported_s"] += report.server_time
            counts["requests"] += client.rpc.channel.requests
        # the kernel scheduler's counters are process-global, so any one
        # client's report carries them
        for key in KERNEL_COUNTS:
            counts[key] = float(extras[key])
        stats = read_stats_map(self.admin.rpc.call("stats"))
        for key in STATS_COUNTS:
            counts[key] = stats.get(key, 0.0)
        gauges = {
            "n_cells": stats["leaf_cells"],
            "depth": stats["max_level"],
            "records": stats["records"],
            "kernel_workers": max(
                float(extras["kernel_workers"]), stats["kernel_workers"]
            ),
        }
        self.remote_counters(counts, stats)
        return counts, gauges

    def remote_counters(self, counts: dict, stats: dict) -> None:
        """Hook: counters of server processes other than this one."""

    def measured(self, body) -> Round:
        """Time ``body`` (returns ops, items) between counter snapshots."""
        before, _ = self.counters()
        self.pacer.read()
        reading = self.pacer.spent
        cpu_before = time.process_time() + process_usage(self.child_pids())[0]
        if self.tracer is not None:
            self.tracer.enabled = self.traced
        start = time.perf_counter()
        try:
            ops, items = body()
        finally:
            wall = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
        cpu = (
            time.process_time()
            + process_usage(self.child_pids())[0]
            - cpu_before
        )
        # readings taken between ops are single-threaded CPU work
        reading = self.pacer.spent - reading
        self.pacer.read()
        for op in ops:
            op.slowdown = float(
                self.pacer.slowdown(op.start + op.latency / 2.0)
            )
        after, gauges = self.counters()
        counts = {key: after[key] - before[key] for key in after}
        return Round(
            wall - reading, cpu - reading, items, ops, counts, gauges,
            self.traced,
        )

    def check_knn_op(
        self, op: Op, queries, live, possible=None, batched=None
    ) -> None:
        """Check a k-NN op's answers (one hit list per query row)."""
        if op.error is not None:
            return
        if batched is None:
            batched = self.batched
        answers = op.answer if batched else [op.answer]
        if len(answers) != len(queries):
            op.problem = f"{len(answers)} answers for {len(queries)} queries"
            return
        for query, hits in zip(queries, answers):
            oids, distances = check.as_arrays(hits)
            self.digest.add("knn", oids, distances)
            problem, recall = check.check_knn(
                oids, distances, query, self.catalog, live, K, possible
            )
            op.problem = op.problem or problem
            op.recalls.append(recall)

    def verify_knn(self, client, queries, live) -> list:
        """Untimed, checked k-NN ops over an exactly known live set;
        batched, which returns what looped searches would."""
        ops = []
        for start in range(0, len(queries), 64):
            batch = queries[start:start + 64]
            op = timed(
                client, "knn", client.knn_batch, batch, K,
                cand_size=self.cand,
            )
            self.check_knn_op(op, batch, live, live, batched=True)
            ops.append(op)
        return ops

    def round_queries(self, index: int, count: int) -> np.ndarray:
        """Round ``index``'s slice of the held-out query pool."""
        rows = (index * count + np.arange(count)) % len(self.queries)
        return self.queries[rows]


class _SearchOnly(Workload):
    """A static collection in memory and one client that only searches."""

    objects = 20_000
    cand_size = 600

    def generate(self) -> None:
        n = self.scaled(self.objects, 4 * BUCKET_CAPACITY)
        points, self.pivot_source = sample_points(self.seed, n + QUERY_POOL)
        self.catalog, self.queries = points[:n], points[n:]
        self.live = np.ones(n, dtype=bool)
        self.cand = self.scaled(self.cand_size, K)

    def check_round(self, index: int, round_: Round) -> None:
        for op, queries in zip(round_.ops, self.round_batches(index)):
            self.check_knn_op(op, queries, self.live)


class Knn1Inproc(_SearchOnly):
    name = "knn1_inproc"
    item = "queries"
    tail_percentile = 95
    prefix_rounds = 15

    def setup(self) -> None:
        self.generate()
        self.per_round = self.scaled(30, 4)
        self.cloud = self.build_cloud(Strategy.APPROXIMATE)
        self.cloud.owner.outsource(range(len(self.catalog)), self.catalog)
        self.clients = [self.cloud.new_client()]
        self.admin = self.cloud.new_client()
        for query in self.queries[-self.scaled(20, 2):]:  # warm-up
            self.clients[0].knn_search(query, K, cand_size=self.cand)

    def round_batches(self, index: int):
        """Round ``index``'s queries, one row of shape (1, DIM) per op."""
        return self.round_queries(index, self.per_round)[:, None, :]

    def run_round(self, index: int) -> Round:
        client = self.clients[0]
        queries = self.round_batches(index)[:, 0]

        def body():
            ops = [
                timed(
                    client, "knn", client.knn_search, query, K,
                    cand_size=self.cand, pacer=self.pacer,
                )
                for query in queries
            ]
            return ops, len(ops)

        return self.measured(body)

    def close(self) -> None:
        self.cloud.close()


class Knn64Cluster2(_SearchOnly):
    name = "knn64_cluster2"
    item = "queries"
    tail_percentile = 80
    remote_servers = True
    batched = True
    prefix_rounds = 10
    batch = 64
    shards = 2
    cluster = None

    def setup(self) -> None:
        self.routers = []  # close() reaps the shards wherever set-up stops
        self.generate()
        self.per_round = 1  # batches
        self.cluster = ProcessShardCluster(
            N_PIVOTS, BUCKET_CAPACITY, n_shards=self.shards
        )
        owner_router = self.cluster.router(resilient=False)
        for _ in range(2):
            self.routers.append(self.cluster.router(resilient=False))
        space = MetricSpace(L1Distance(), DIM)
        key = SecretKey.generate(
            self.pivot_source,
            N_PIVOTS,
            rng=np.random.default_rng(POPULATION_SEED),
            space=space,
        )
        try:
            DataOwner(
                key, space, owner_router, strategy=Strategy.APPROXIMATE
            ).outsource(range(len(self.catalog)), self.catalog)
        finally:
            owner_router.close()
        self.clients = [
            EncryptedClient(
                key,
                MetricSpace(L1Distance(), DIM),
                self.routers[0],
                strategy=Strategy.APPROXIMATE,
            )
        ]
        self.admin = EncryptedClient(key, space, self.routers[1])
        self.clients[0].knn_batch(  # warm-up
            self.queries[-self.batch:], K, cand_size=self.cand
        )

    def round_batches(self, index: int):
        """Round ``index``'s queries, one (batch, DIM) matrix per op."""
        return self.round_queries(
            index, self.per_round * self.batch
        ).reshape(self.per_round, self.batch, DIM)

    def run_round(self, index: int) -> Round:
        client = self.clients[0]
        batches = self.round_batches(index)

        def body():
            ops = [
                timed(
                    client, "knn", client.knn_batch, batch, K,
                    cand_size=self.cand, pacer=self.pacer,
                )
                for batch in batches
            ]
            return ops, len(ops) * self.batch

        return self.measured(body)

    def remote_counters(self, counts: dict, stats: dict) -> None:
        # the shards are processes of their own: their scheduler
        # counters add to this one's, and each one's busy time is what
        # its own connection of the measured client reports
        for key in KERNEL_COUNTS:
            counts[key] += stats[key]
        for shard, rpc in enumerate(self.routers[0].shard_clients):
            counts[f"shard_busy_s.{shard}"] = rpc.server_time

    def child_pids(self) -> list:
        return [process.pid for process in self.cluster.processes]

    def close(self) -> None:
        try:
            for router in self.routers:
                router.close()
        finally:
            if self.cluster is not None:
                self.cluster.close()


class BuildDisk(Workload):
    name = "build_disk"
    item = "objects"
    tail_percentile = 80

    def setup(self) -> None:
        n = self.scaled(10_000, 4 * BUCKET_CAPACITY)
        self.bulk = self.scaled(1000, 50)
        self.cand = self.scaled(600, K)
        points, self.pivot_source = sample_points(
            self.seed, n + self.scaled(256, 8)
        )
        self.catalog, self.queries = points[:n], points[n:]
        self.live = np.ones(n, dtype=bool)
        self.directory = None
        self.cloud = None
        self._build(2 * self.bulk)  # warm-up
        self._discard()

    def _build(self, n: int) -> Round:
        """Outsource the first ``n`` objects into a fresh directory."""
        self.directory = tempfile.mkdtemp(dir=self.workdir)
        self.cloud = self.build_cloud(
            Strategy.APPROXIMATE, storage=DiskStorage(self.directory)
        )
        client = self.cloud.owner.client
        self.clients = [client]
        self.admin = self.cloud.new_client()
        self.key = self.cloud.owner.authorize()

        def body():
            ops = [
                timed(
                    client, "insert", client.insert_many,
                    range(start, min(start + self.bulk, n)),
                    self.catalog[start:start + self.bulk],
                    pacer=self.pacer,
                )
                for start in range(0, n, self.bulk)
            ]
            start = time.perf_counter()
            drained = self.cloud.drain()
            self.flush_s = time.perf_counter() - start
            if not drained:
                ops[-1].problem = "the server did not drain"
            return ops, n

        try:
            return self.measured(body)
        finally:
            self.cloud.close()
            self.cloud = None

    def _discard(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def run_round(self, index: int) -> Round:
        self._discard()
        round_ = self._build(len(self.catalog))
        self.extra.setdefault("flush_s", []).append(self.flush_s)
        return round_

    def check_round(self, index: int, round_: Round) -> None:
        for position, op in enumerate(round_.ops):
            if op.error is None:
                expected = min((position + 1) * self.bulk, len(self.catalog))
                self.digest.add("insert", value=op.answer)
                if op.answer != expected:
                    op.problem = f"count {op.answer}, expected {expected}"
        # reopen what is on disk, as a restarted server would
        start = time.perf_counter()
        storage = DiskStorage(self.directory)
        server = SimilarityCloudServer(
            N_PIVOTS, BUCKET_CAPACITY, storage=storage
        )
        try:
            recovered = server.index.rebuild_from_storage()
            self.extra.setdefault("reopen_s", []).append(
                time.perf_counter() - start
            )
            self.extra.setdefault("disk_bytes", []).append(
                directory_bytes(self.directory)
            )
            if recovered != len(self.catalog):
                round_.ops[-1].problem = (
                    f"{recovered} records after reopen, "
                    f"{len(self.catalog)} acknowledged"
                )
            if index == 0:
                # every round builds the same collection, so the
                # recovered index is queried once
                client = EncryptedClient(
                    self.key,
                    MetricSpace(L1Distance(), DIM),
                    RpcClient(InProcessChannel(server.handle)),
                    strategy=Strategy.APPROXIMATE,
                )
                self.verification = self.verify_knn(
                    client, self.queries, self.live
                )
        finally:
            server.close()

    def finish(self) -> list:
        return self.verification

    def disk_bytes_per_object(self) -> float:
        return float(np.mean(self.extra["disk_bytes"])) / len(self.catalog)

    def close(self) -> None:
        if self.cloud is not None:
            self.cloud.close()
        self._discard()


class MixedTcpDisk(Workload):
    name = "mixed_tcp_disk"
    item = "ops"
    tail_percentile = 95
    prefix_rounds = 15
    n_clients = 2
    mix = (("range", 0.70), ("knn", 0.15), ("insert", 0.10), ("delete", 0.05))
    cache_bytes = 5 * 512 * 1024
    #: rounds' worth of new objects generated up front
    pool_rounds = 100

    def setup(self) -> None:
        self.n_base = self.scaled(8_000, 4 * BUCKET_CAPACITY)
        self.ops_per_client = self.scaled(10, 5)
        self.insert_size = self.scaled(20, 2)
        self.cand = self.scaled(200, K)
        pool = int(
            self.n_clients * self.pool_rounds * self.ops_per_client
            * self.insert_size * 0.1
        )
        points, self.pivot_source = sample_points(
            self.seed, self.n_base + pool + QUERY_POOL
        )
        self.catalog = points[:self.n_base + pool]
        self.queries = points[self.n_base + pool:]
        base = self.catalog[:self.n_base]
        # the radius that returns about 0.2% of the collection
        rank = max(1, int(0.002 * self.n_base))
        self.radius = float(np.median([
            np.partition(check.l1(query, base), rank)[rank]
            for query in self.queries[-64:]
        ]))
        self.directory = tempfile.mkdtemp(dir=self.workdir)
        self.storage = DiskStorage(
            self.directory,
            cache_bytes=max(64 * 1024, int(self.cache_bytes * self.scale)),
        )
        self.cloud = self.build_cloud(
            Strategy.PRECISE, storage=self.storage, transport="tcp-async"
        )
        self.cloud.owner.outsource(range(self.n_base), base)
        self.clients = [
            self.cloud.new_client() for _ in range(self.n_clients)
        ]
        self.admin = self.cloud.new_client()
        self.pool = ThreadPoolExecutor(self.n_clients)
        #: per client: index of its next new object, its live oids
        self.next_new = [0] * self.n_clients
        self.own_live = [deque() for _ in range(self.n_clients)]
        self.total = self.n_base
        self.scripts = None
        for client in self.clients:  # warm-up
            for query in self.queries[-self.scaled(5, 2):]:
                client.range_search(query, self.radius)
                client.knn_search(query, K, cand_size=self.cand)

    def oid_of(self, client: int, number: int) -> int:
        """Row (= oid) of ``client``'s ``number``-th new object."""
        return self.n_base + self.n_clients * number + client

    def stored_rows(self) -> int:
        """Catalog rows that any client has inserted so far, plus base."""
        return self.oid_of(0, max(self.next_new))

    def live_mask(self, live_oids) -> np.ndarray:
        mask = np.zeros(self.stored_rows(), dtype=bool)
        mask[:self.n_base] = True
        mask[list(live_oids)] = True
        return mask

    def plan(self, index: int, client: int) -> list:
        """Client ``client``'s fixed op list of round ``index``."""
        rng = np.random.default_rng([self.seed, index, client])
        kinds = rng.choice(
            [kind for kind, _ in self.mix],
            size=self.ops_per_client,
            p=[share for _, share in self.mix],
        )
        live = self.own_live[client]
        script = []
        for position, kind in enumerate(kinds):
            query = (
                (index * self.n_clients + client) * self.ops_per_client
                + position
            ) % len(self.queries)
            first = self.next_new[client]
            last_row = self.oid_of(client, first + self.insert_size - 1)
            if kind == "insert" and last_row < len(self.catalog):
                oids = [
                    self.oid_of(client, first + offset)
                    for offset in range(self.insert_size)
                ]
                self.next_new[client] += self.insert_size
                live.extend(oids)
                script.append(("insert", oids))
            elif kind == "delete" and live:
                script.append(("delete", live.popleft()))
            else:
                # an insert with the pool spent or a delete with nothing
                # of its own left to delete searches instead
                script.append(("knn" if kind == "knn" else "range", query))
        return script

    def run_client(self, client_index: int, script, barrier) -> list:
        client = self.clients[client_index]
        ops = []
        barrier.wait(60.0)
        for kind, argument in script:
            if kind == "range":
                op = timed(
                    client, kind, client.range_search,
                    self.queries[argument], self.radius,
                )
            elif kind == "knn":
                op = timed(
                    client, kind, client.knn_search,
                    self.queries[argument], K, cand_size=self.cand,
                )
            elif kind == "insert":
                op = timed(
                    client, kind, client.insert_many,
                    argument, self.catalog[argument],
                )
            else:
                op = timed(
                    client, kind, client.delete,
                    argument, self.catalog[argument],
                )
            ops.append(op)
        return ops

    def run_round(self, index: int) -> Round:
        self.live_before = [set(live) for live in self.own_live]
        self.total_before = self.total
        self.scripts = [
            self.plan(index, client) for client in range(self.n_clients)
        ]

        def body():
            barrier = threading.Barrier(self.n_clients + 1)
            futures = [
                self.pool.submit(self.run_client, client, script, barrier)
                for client, script in enumerate(self.scripts)
            ]
            barrier.wait(60.0)
            self.per_client = [future.result() for future in futures]
            ops = [op for ops in self.per_client for op in ops]
            return ops, len(ops)

        round_ = self.measured(body)
        self.total = self.total_before + sum(
            self._net(script)[-1] for script in self.scripts
        )
        return round_

    @staticmethod
    def _net(script) -> np.ndarray:
        """Net objects added after each op of ``script``."""
        return np.cumsum([
            len(argument) if kind == "insert"
            else -1 if kind == "delete" else 0
            for kind, argument in script
        ])

    def check_round(self, index: int, round_: Round) -> None:
        added = [
            {oid for kind, arg in script if kind == "insert" for oid in arg}
            for script in self.scripts
        ]
        for client, (script, ops) in enumerate(
            zip(self.scripts, self.per_client)
        ):
            own = set(self.live_before[client])
            own_net = self._net(script)
            # what the other clients may have stored or removed by now
            others = [c for c in range(self.n_clients) if c != client]
            other_possible = set().union(
                *(self.live_before[c] | added[c] for c in others)
            )
            other_net = np.concatenate(
                [[0]] + [self._net(self.scripts[c]) for c in others]
            )
            for position, ((kind, argument), op) in enumerate(
                zip(script, ops)
            ):
                if kind == "insert":
                    own.update(argument)
                elif kind == "delete":
                    own.discard(argument)
                if op.error is not None:
                    continue
                if kind == "insert":
                    self.digest.add("insert", value=op.answer)
                    mine = self.total_before + own_net[position]
                    if not (
                        mine + other_net.min() <= op.answer
                        <= mine + other_net.max()
                    ):
                        op.problem = f"count {op.answer} after an insert"
                elif kind == "delete":
                    self.digest.add("delete", value=op.answer)
                    if op.answer is not True:
                        op.problem = "delete of a stored object returned False"
                else:
                    certain = self.live_mask(own)
                    possible = self.live_mask(own | other_possible)
                    query = self.queries[argument]
                    if kind == "knn":
                        self.check_knn_op(
                            op, query[None, :], certain, possible
                        )
                    else:
                        oids, distances = check.as_arrays(op.answer)
                        self.digest.add("range", oids, distances)
                        op.problem = check.check_range(
                            oids, distances, query, self.radius,
                            self.catalog[:len(certain)], certain, possible,
                        )

    def finish(self) -> list:
        """A quiescent pass: k-NN over a live set that is exactly known."""
        client = self.clients[0]
        live = self.live_mask(set().union(*map(set, self.own_live)))
        ops = self.verify_knn(
            client, self.queries[-self.scaled(256, 8):], live
        )
        stats = read_stats_map(self.admin.rpc.call("stats"))
        if stats["records"] != self.total:
            ops[-1].problem = (
                f"{stats['records']:.0f} records stored, {self.total} live"
            )
        return ops

    def disk_bytes_per_object(self) -> float:
        return directory_bytes(self.directory) / self.total

    def close(self) -> None:
        try:
            self.pool.shutdown(wait=True)
            self.cloud.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {
    cls.name: cls
    for cls in (BuildDisk, Knn1Inproc, MixedTcpDisk, Knn64Cluster2)
}
