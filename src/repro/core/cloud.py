"""One-call wiring of an Encrypted M-Index client/server deployment.

:class:`SimilarityCloud` assembles the pieces of Figure 1: the untrusted
server (M-Index over a storage backend), a transport channel (simulated
in-process by default, loopback TCP on request), the RPC layer, and the
data-owner / authorized-client roles holding the secret key.

Typical use::

    cloud = SimilarityCloud.build(
        data, distance=L1Distance(), n_pivots=30, bucket_capacity=200,
        strategy=Strategy.APPROXIMATE, seed=7,
    )
    cloud.owner.outsource(range(len(data)), data)
    client = cloud.new_client()
    hits = client.knn_search(query, k=30, cand_size=600)
"""

from __future__ import annotations

import numpy as np

from repro.core.client import DataOwner, EncryptedClient, Strategy
from repro.core.server import SimilarityCloudServer
from repro.crypto.keys import SecretKey
from repro.exceptions import ChannelError
from repro.metric.distances import Distance
from repro.metric.space import MetricSpace
from repro.net.aio import AsyncTcpServer
from repro.net.channel import Channel, InProcessChannel
from repro.net.resilience import (
    CircuitBreaker,
    ResilientRpcClient,
    RetryPolicy,
)
from repro.net.rpc import RpcClient

__all__ = ["SimilarityCloud"]

#: transport names accepted by :meth:`SimilarityCloud.build`
TRANSPORTS = ("inprocess", "tcp-async")


class SimilarityCloud:
    """An assembled encrypted similarity-search deployment."""

    def __init__(
        self,
        server: SimilarityCloudServer | None,
        owner: DataOwner,
        *,
        distance: Distance,
        dimension: int,
        latency: float,
        bandwidth: float | None,
        tcp_server: AsyncTcpServer | None = None,
        cluster=None,
    ) -> None:
        self.server = server
        self.owner = owner
        self.cluster = cluster
        self._distance = distance
        self._dimension = dimension
        self._latency = latency
        self._bandwidth = bandwidth
        self._tcp_server = tcp_server

    @classmethod
    def build(
        cls,
        data: np.ndarray,
        *,
        distance: Distance,
        n_pivots: int,
        bucket_capacity: int,
        strategy: Strategy = Strategy.APPROXIMATE,
        storage=None,
        max_level: int = 8,
        seed: int | None = 0,
        latency: float = 50e-6,
        bandwidth: float | None = 1.25e9,
        transport: str = "inprocess",
        pivot_strategy: str = "random",
        shards: int = 1,
    ) -> "SimilarityCloud":
        """Build a server and a data owner over a fresh channel.

        ``seed`` drives pivot selection and the cipher key; with the
        default in-process channel the communication-time model uses
        ``latency`` (seconds, one way) and ``bandwidth`` (bytes/s).
        ``transport`` selects the wire: ``"inprocess"`` (default) or
        ``"tcp-async"`` (a loopback pipelined asyncio server; every
        client channel multiplexes requests with correlation ids over
        one socket).

        ``shards`` > 1 stands up a :class:`~repro.cluster.deploy.\
LocalShardCluster` instead of one server: the cell tree partitions by
        top-level pivot, every client becomes a scatter–gather
        :class:`~repro.cluster.router.ShardRouter`, and results stay
        bit-identical to the single-server deployment.
        """
        if transport not in TRANSPORTS:
            raise ChannelError(
                f"unknown transport {transport!r}; choose from "
                f"{', '.join(TRANSPORTS)}"
            )
        if shards < 1:
            raise ChannelError(f"shard count must be >= 1, got {shards}")
        data = np.asarray(data, dtype=np.float64)
        dimension = data.shape[1]
        server: SimilarityCloudServer | None = None
        cluster = None
        tcp_server: AsyncTcpServer | None = None
        if shards == 1:
            server = SimilarityCloudServer(
                n_pivots, bucket_capacity, storage=storage, max_level=max_level
            )
            if transport == "tcp-async":
                tcp_server = server.serve_async()
        else:
            if storage is not None:
                raise ChannelError(
                    "a sharded deployment needs one storage backend per "
                    "shard; pass storage_factory to LocalShardCluster "
                    "directly instead of a single storage here"
                )
            from repro.cluster.deploy import LocalShardCluster

            cluster = LocalShardCluster(
                n_pivots,
                bucket_capacity,
                n_shards=shards,
                max_level=max_level,
                transport=transport,
                latency=latency,
                bandwidth=bandwidth,
            )
        rng = np.random.default_rng(seed) if seed is not None else None
        owner_space = MetricSpace(distance, dimension)
        key = SecretKey.generate(
            data,
            n_pivots,
            rng=rng,
            strategy=pivot_strategy,
            space=owner_space,
        )
        cloud = cls(
            server,
            owner=None,  # type: ignore[arg-type] - set right below
            distance=distance,
            dimension=dimension,
            latency=latency,
            bandwidth=bandwidth,
            tcp_server=tcp_server,
            cluster=cluster,
        )
        rpc = cloud._new_rpc()
        cloud.owner = DataOwner(key, owner_space, rpc, strategy=strategy)
        return cloud

    # -- channel/client factories -----------------------------------------

    def _new_channel(self) -> Channel:
        if self.cluster is not None:
            raise ChannelError(
                "a sharded cloud has no single channel; clients route "
                "through a ShardRouter (use new_client / "
                "new_resilient_client)"
            )
        if self._tcp_server is not None:
            return self._tcp_server.connect()
        return InProcessChannel(
            self.server.handle,
            latency=self._latency,
            bandwidth=self._bandwidth,
        )

    def _new_rpc(self):
        if self.cluster is not None:
            # a plain (non-resilient) router keeps the deterministic
            # accounting of RpcClient while fanning out across shards
            return self.cluster.router(resilient=False)
        return RpcClient(self._new_channel())

    def new_client(
        self,
        secret_key: SecretKey | None = None,
        *,
        cache_size: int = 0,
        deadline: float | None = None,
    ) -> EncryptedClient:
        """Create an authorized client with its own channel and space.

        Defaults to the owner's key (i.e. the owner authorizes the
        client); pass an explicit key to model key distribution.
        ``cache_size`` bounds the client's LRU cache of decrypted
        candidates (default 0 = disabled, the paper's stateless
        protocol); ``deadline`` applies a per-RPC time budget to every
        call the client makes.
        """
        key = secret_key if secret_key is not None else self.owner.authorize()
        space = MetricSpace(self._distance, self._dimension)
        return EncryptedClient(
            key,
            space,
            self._new_rpc(),
            strategy=self.owner.client.strategy,
            cache_size=cache_size,
            deadline=deadline,
        )

    def new_resilient_client(
        self,
        secret_key: SecretKey | None = None,
        *,
        cache_size: int = 0,
        deadline: float | None = None,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        key_seed: int | None = None,
    ) -> EncryptedClient:
        """Create a client whose RPC layer retries across reconnects.

        The client's :class:`~repro.net.resilience.ResilientRpcClient`
        reopens a channel through this cloud's transport after every
        connection loss, retries read-only calls transparently, and
        tags mutating calls with idempotency keys so the server's dedup
        cache keeps them exactly-once. ``key_seed`` pins the key
        sequence for deterministic tests.
        """
        key = secret_key if secret_key is not None else self.owner.authorize()
        space = MetricSpace(self._distance, self._dimension)
        if self.cluster is not None:
            if breaker is not None:
                raise ChannelError(
                    "a sharded cloud gives every shard its own circuit "
                    "breaker; pass breaker_factory to cluster.router() "
                    "instead of a single shared breaker"
                )
            rpc = self.cluster.router(
                resilient=True, policy=policy, key_seed=key_seed
            )
        else:
            rpc = ResilientRpcClient(
                self._new_channel,
                policy=policy,
                breaker=breaker,
                key_seed=key_seed,
            )
        return EncryptedClient(
            key,
            space,
            rpc,
            strategy=self.owner.client.strategy,
            cache_size=cache_size,
            deadline=deadline,
        )

    def drain(self, timeout: float = 30.0) -> bool:
        """Gracefully drain the deployment before :meth:`close`.

        Stops accepting new requests, lets in-flight ones finish, and
        flushes the storage backend — no acknowledged write is lost.
        Returns whether everything drained within ``timeout``.
        """
        if self.cluster is not None:
            return self.cluster.drain(timeout)
        return self.server.drain(timeout)

    def close(self) -> None:
        """Shut down the TCP server (when one was started) or the
        shard cluster."""
        if self._tcp_server is not None:
            self._tcp_server.shutdown()
            self._tcp_server = None
        if self.cluster is not None:
            self.cluster.close()
            return
        self.server.close()

    def __enter__(self) -> "SimilarityCloud":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
