"""Shard-cluster deployment helpers.

Two deployment shapes, same routing surface:

* :class:`LocalShardCluster` runs every shard in this process — either
  behind simulated :class:`~repro.net.channel.InProcessChannel` links
  (deterministic accounting; the default) or behind real loopback TCP
  transports. This is the shape unit and equivalence tests use.
* :class:`ProcessShardCluster` spawns one OS process per shard, each
  serving the pipelined asyncio transport on its own loopback port.
  Shards then search with *independent* GILs and page caches, which is
  what makes scatter–gather throughput actually scale with shard count
  (``bench_shard_scaling.py``) — and lets a chaos test kill a shard
  mid-run to exercise degraded routing.

Both expose ``router(...)`` returning a configured
:class:`~repro.cluster.router.ShardRouter` over the cluster's channels.
"""

from __future__ import annotations

import multiprocessing
import sys
from typing import Callable

from repro.cluster.router import ShardRouter
from repro.cluster.shard_map import ShardMap
from repro.exceptions import ChannelError
from repro.net.channel import InProcessChannel

__all__ = ["LocalShardCluster", "ProcessShardCluster"]


class LocalShardCluster:
    """``n_shards`` single-process M-Index servers plus their shard map.

    Every shard is an ordinary
    :class:`~repro.core.server.SimilarityCloudServer` with its own
    storage backend (fresh :class:`MemoryStorage` unless
    ``storage_factory`` supplies one per shard index). ``transport``
    mirrors :meth:`SimilarityCloud.build`: ``"inprocess"`` (simulated
    latency/bandwidth) or ``"tcp-async"`` (pipelined asyncio loopback).
    """

    def __init__(
        self,
        n_pivots: int,
        bucket_capacity: int,
        *,
        n_shards: int,
        max_level: int = 8,
        transport: str = "inprocess",
        latency: float = 50e-6,
        bandwidth: float | None = 1.25e9,
        storage_factory: Callable[[int], object] | None = None,
        shard_map: ShardMap | None = None,
    ) -> None:
        from repro.core.cloud import TRANSPORTS
        from repro.core.server import SimilarityCloudServer

        if shard_map is None:
            shard_map = ShardMap.uniform(n_pivots, n_shards)
        if shard_map.n_shards != n_shards:
            raise ChannelError(
                f"shard map covers {shard_map.n_shards} shards, cluster "
                f"has {n_shards}"
            )
        if transport not in TRANSPORTS:
            raise ChannelError(
                f"unknown transport {transport!r}; choose from "
                f"{', '.join(TRANSPORTS)}"
            )
        self.shard_map = shard_map
        self._latency = latency
        self._bandwidth = bandwidth
        self.servers = [
            SimilarityCloudServer(
                n_pivots,
                bucket_capacity,
                storage=(
                    storage_factory(shard)
                    if storage_factory is not None
                    else None
                ),
                max_level=max_level,
            )
            for shard in range(n_shards)
        ]
        self._transports = []
        if transport == "tcp-async":
            self._transports = [
                server.serve_async() for server in self.servers
            ]

    @property
    def n_shards(self) -> int:
        return len(self.servers)

    def channel_factory(self, shard: int) -> Callable:
        """A zero-argument factory opening a fresh channel to ``shard``."""
        if self._transports:
            return self._transports[shard].connect
        server = self.servers[shard]
        return lambda: InProcessChannel(
            server.handle,
            latency=self._latency,
            bandwidth=self._bandwidth,
        )

    def router(self, **kwargs) -> ShardRouter:
        """A :class:`ShardRouter` over every shard of this cluster.

        Keyword arguments pass through to :class:`ShardRouter`
        (``resilient``, ``policy``, ``allow_partial``, ``key_seed``,
        ``sleep``).
        """
        return ShardRouter(
            self.shard_map,
            [
                self.channel_factory(shard)
                for shard in range(self.n_shards)
            ],
            **kwargs,
        )

    def drain(self, timeout: float = 30.0) -> bool:
        """Drain every shard; True when all drained in time."""
        return all(server.drain(timeout) for server in self.servers)

    def close(self) -> None:
        for transport in self._transports:
            transport.shutdown()
        self._transports = []
        for server in self.servers:
            server.close()

    def __enter__(self) -> "LocalShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _shard_server_main(config: dict, conn) -> None:
    """Entry point of one shard process (module-level for spawn).

    The pipe carries the bound port up and the shutdown signal down.
    A dedicated pipe per shard (instead of one shared Event) matters
    for chaos tolerance: hard-killing a process blocked on a shared
    multiprocessing primitive can leave its internal lock held forever,
    deadlocking every other shard's shutdown. A killed shard's pipe
    just dies with it.
    """
    for path in config["sys_path"]:
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.core.server import SimilarityCloudServer

    server = SimilarityCloudServer(
        config["n_pivots"],
        config["bucket_capacity"],
        max_level=config["max_level"],
    )
    transport = server.serve_async()
    conn.send(transport.port)
    try:
        conn.recv()  # blocks until the parent signals (or closes)
    except EOFError:
        pass
    server.drain(10.0)
    transport.shutdown()
    server.close()
    conn.close()


class ProcessShardCluster:
    """One OS process per shard, each on its own loopback TCP port.

    Uses the ``spawn`` start method so shard processes are clean
    interpreters (no inherited locks or kernel-scheduler threads).
    Ports are picked by the OS and reported back over a queue;
    :meth:`channel_factory` then hands out pipelined channels to them.
    :meth:`kill_shard` hard-terminates one process — the chaos hook the
    shard-loss tests use to exercise degraded routing.
    """

    def __init__(
        self,
        n_pivots: int,
        bucket_capacity: int,
        *,
        n_shards: int,
        max_level: int = 8,
        shard_map: ShardMap | None = None,
        start_timeout: float = 60.0,
    ) -> None:
        if shard_map is None:
            shard_map = ShardMap.uniform(n_pivots, n_shards)
        if shard_map.n_shards != n_shards:
            raise ChannelError(
                f"shard map covers {shard_map.n_shards} shards, cluster "
                f"has {n_shards}"
            )
        self.shard_map = shard_map
        context = multiprocessing.get_context("spawn")
        config = {
            "n_pivots": n_pivots,
            "bucket_capacity": bucket_capacity,
            "max_level": max_level,
            # spawn re-imports this module in the child; make sure the
            # package is importable even when it came off PYTHONPATH
            "sys_path": list(sys.path),
        }
        self.processes = []
        self._conns = []
        for _shard in range(n_shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_server_main,
                args=(config, child_conn),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.processes.append(process)
            self._conns.append(parent_conn)
        try:
            self.ports = []
            for conn in self._conns:
                if not conn.poll(start_timeout):
                    raise ChannelError("shard start timed out")
                self.ports.append(conn.recv())
        except Exception:
            self.close()
            raise ChannelError(
                "shard processes failed to report their ports"
            ) from None

    @property
    def n_shards(self) -> int:
        return len(self.processes)

    def channel_factory(self, shard: int) -> Callable:
        """A factory opening a pipelined channel to shard ``shard``."""
        from repro.net.aio import PipelinedTcpChannel

        port = self.ports[shard]
        return lambda: PipelinedTcpChannel("127.0.0.1", port)

    def router(self, **kwargs) -> ShardRouter:
        """A :class:`ShardRouter` over every shard process."""
        return ShardRouter(
            self.shard_map,
            [
                self.channel_factory(shard)
                for shard in range(self.n_shards)
            ],
            **kwargs,
        )

    def kill_shard(self, shard: int) -> None:
        """Hard-kill one shard process (chaos hook; not a clean stop)."""
        process = self.processes[shard]
        if process.is_alive():
            process.terminate()
            process.join(timeout=10.0)

    def close(self) -> None:
        """Signal every shard to drain and exit, then reap them."""
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass  # shard already gone (e.g. kill_shard)
            conn.close()
        for process in self.processes:
            process.join(timeout=30.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=10.0)

    def __enter__(self) -> "ProcessShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
