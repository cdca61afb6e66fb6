"""Network substrate: clocks, channels, and a minimal RPC layer.

The paper runs a Java client and server over loopback TCP and reports
per-component times. We reproduce the setting twice:

* :class:`InProcessChannel` — deterministic simulation. The request and
  response travel through a latency + bandwidth cost model, so the
  "communication time" rows of the tables are reproducible bit-for-bit.
* :class:`AsyncTcpServer` / :class:`PipelinedTcpChannel` — real sockets
  over loopback, for honest wall-clock runs and every multi-process
  deployment: correlation-id pipelining (framing v2), chunked streaming
  responses, bounded in-flight windows, load shedding and deadlines
  (see :mod:`repro.net.aio`).

Both channels account bytes exactly; the RPC envelope carries the
server-side processing time so the client can split "round trip" into
server time and communication time, as the paper's tables do.
"""

from repro.net.aio import AsyncTcpServer, PipelinedTcpChannel
from repro.net.channel import Channel, InProcessChannel
from repro.net.clock import Clock, SimulatedClock, WallClock
from repro.net.rpc import RpcClient, RpcDispatcher

__all__ = [
    "AsyncTcpServer",
    "Channel",
    "Clock",
    "InProcessChannel",
    "PipelinedTcpChannel",
    "RpcClient",
    "RpcDispatcher",
    "SimulatedClock",
    "WallClock",
]
