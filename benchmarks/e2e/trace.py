"""Outside-in span tracing for the end-to-end benchmark.

The program has no spans of its own yet (ROADMAP item 2), so the traced
run wraps the public callables at each layer boundary from here: class
attributes and the module names the server and the router import the
wire codecs under. Nothing under ``src/`` changes.

A span is one call: id, parent, op id, layer metric, label, thread,
start, end and an optional work count. Spans of one client operation
share the op id, which is the id of the root span (an
``EncryptedClient`` method). A call on a thread with no open span finds
its parent in one of two ways:

* ``SimilarityCloudServer.handle`` on a transport thread attaches to
  the client ``Channel.request`` span that sent the very payload bytes
  it received;
* anything else attaches to the one open ``ShardRouter.call`` span (the
  router fans out on its own pool threads).

A layer's self time is a span's duration minus the part of that
interval its child spans cover (the union, since shard calls overlap).

The tracer is installed before the deployment is built, because servers
and channels capture bound methods at construction, and is switched on
per round with :attr:`Tracer.enabled`; a disabled wrapper costs one
attribute test and one extra call.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

# span record fields (a list, so the end time is filled in place)
ID, PARENT, OP, METRIC, LABEL, THREAD, START, END, WORK = range(9)
COLUMNS = (
    "id", "parent", "op", "metric", "label", "thread", "start_s", "end_s",
    "work",
)

#: spans written to a trace file; the per-layer numbers use all of them
MAX_SPANS_WRITTEN = 50_000


def _targets():
    """(owner, attribute, label, layer metric, role) of every boundary.

    Imported lazily so that ``import trace`` opens nothing.
    """
    from repro.cluster import router as router_module
    from repro.cluster.router import ShardRouter
    from repro.core import server as server_module
    from repro.core.client import EncryptedClient
    from repro.core.locks import ReadWriteLock
    from repro.core.records import RecordBatch
    from repro.core.server import SimilarityCloudServer
    from repro.crypto.cipher import AesCipher
    from repro.metric.space import MetricSpace
    from repro.mindex.index import MIndex
    from repro.net.aio import PipelinedTcpChannel
    from repro.net.channel import InProcessChannel
    from repro.net.rpc import RpcClient
    from repro.storage.disk import DiskStorage
    from repro.storage.memory import MemoryStorage

    rows = []

    def add(owner, attributes, metric, role=None):
        prefix = getattr(owner, "__name__", "").rsplit(".", 1)[-1]
        for attribute in attributes:
            label = f"{prefix}.{attribute.lstrip('_')}"
            rows.append((owner, attribute, label, metric, role))

    add(
        EncryptedClient,
        ("insert_many", "knn_search", "knn_batch", "range_search", "delete"),
        "client.self_ms_per_op",
        "root",
    )
    add(AesCipher, ("encrypt_many", "encrypt"), "crypto.encrypt_ms_per_op")
    add(
        AesCipher, ("decrypt_many", "decrypt"), "crypto.decrypt_ms_per_op",
        "count_tokens",
    )
    add(MetricSpace, ("d_batch", "d_pairwise"), "metric.distance_ms_per_op")
    add(RecordBatch, ("write_to",), "wire.encode_ms_per_op")
    add(RecordBatch, ("read_from",), "wire.decode_ms_per_op")
    add(
        server_module,
        (
            "_write_candidates",
            "_write_candidate_lists",
            "write_knn_scatter_response",
            "write_range_scatter_response",
        ),
        "wire.encode_ms_per_op",
    )
    add(
        router_module,
        ("write_candidates", "write_candidate_lists"),
        "wire.encode_ms_per_op",
    )
    add(
        router_module,
        ("read_knn_scatter_response", "read_range_scatter_response"),
        "wire.decode_ms_per_op",
    )
    for channel in (InProcessChannel, PipelinedTcpChannel):
        add(channel, ("request",), "net.transit_ms_per_op", "request")
    add(RpcClient, ("call",), "net.transit_ms_per_op")
    add(
        SimilarityCloudServer, ("handle",), "server.handle_self_ms_per_op",
        "handle",
    )
    add(
        ReadWriteLock,
        ("acquire_read", "acquire_write"),
        "server.lock_wait_ms_per_op",
    )
    add(
        MIndex,
        (
            "approx_knn_candidates",
            "approx_knn_candidates_batch",
            "approx_knn_scatter_batch",
            "range_search",
        ),
        "mindex.search_self_ms_per_op",
    )
    add(MIndex, ("bulk_insert", "delete"), "mindex.insert_self_ms_per_op")
    for storage in (DiskStorage, MemoryStorage):
        add(storage, ("load", "load_many"), "storage.read_ms_per_op")
        add(
            storage,
            ("append_many", "save", "save_many", "delete", "flush"),
            "storage.write_ms_per_op",
        )
    add(ShardRouter, ("call",), "cluster.route_self_ms_per_op", "router")
    add(
        router_module,
        ("merge_knn_candidates", "merge_range_candidates"),
        "cluster.merge_ms_per_op",
    )
    return rows


class Tracer:
    """Records spans around the layer boundaries while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.fsyncs = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._inflight: dict[bytes, list] = {}
        self._routers: dict[int, list] = {}
        self._patched: list[tuple] = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` restores them."""
        for owner, attribute, label, metric, role in _targets():
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(original.__func__, label, metric, role)
                )
            else:
                wrapped = self._wrap(original, label, metric, role)
            setattr(owner, attribute, wrapped)
            self._patched.append((owner, attribute, original))
        original_fsync = os.fsync

        def counting_fsync(fd):
            if self.enabled:
                self.fsyncs += 1
            return original_fsync(fd)

        os.fsync = counting_fsync
        self._patched.append((os, "fsync", original_fsync))

    def uninstall(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, label, metric, role):
        tracer = self
        local = self._local
        clock = time.perf_counter
        next_id = self._ids.__next__
        spans = self.spans
        inflight = self._inflight
        routers = self._routers

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next_id()
            if stack:
                parent = stack[-1]
            elif role == "root":
                parent = None
            else:
                parent = None
                if role == "handle" and isinstance(args[1], bytes):
                    parent = inflight.get(args[1])
                if parent is None and len(routers) == 1:
                    parent = next(iter(routers.values()))
            span = [
                span_id,
                parent[ID] if parent is not None else -1,
                parent[OP] if parent is not None else span_id,
                metric,
                label,
                threading.get_ident(),
                0.0,
                0.0,
                len(args[1]) if role == "count_tokens" else 0,
            ]
            if role == "request":
                inflight[args[1]] = span
            elif role == "router":
                routers[span_id] = span
            stack.append(span)
            span[START] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                spans.append(span)
                if role == "request":
                    inflight.pop(args[1], None)
                elif role == "router":
                    routers.pop(span_id, None)

        traced.__wrapped__ = function
        return traced

    # -- analysis -------------------------------------------------------

    def analyse(self) -> dict:
        """Self time per layer metric, plus the figures only spans give.

        Returns seconds summed over all recorded spans; the caller
        divides by the number of traced ops.
        """
        children: dict[int, list[tuple[float, float, str]]] = {}
        for span in self.spans:
            if span[PARENT] >= 0:
                children.setdefault(span[PARENT], []).append(
                    (span[START], span[END], span[LABEL])
                )
        self_s: dict[str, float] = {}
        duration_s: dict[str, float] = {}
        work: dict[str, int] = {}
        scatter_wait_s = 0.0
        roots = 0
        root_s = 0.0
        orphan_s = 0.0
        for span in self.spans:
            start, end = span[START], span[END]
            below = children.get(span[ID], ())
            covered = _union_within(below, start, end)
            metric = span[METRIC]
            self_s[metric] = self_s.get(metric, 0.0) + (end - start - covered)
            label = span[LABEL]
            duration_s[label] = duration_s.get(label, 0.0) + (end - start)
            work[label] = work.get(label, 0) + span[WORK]
            if label == "ShardRouter.call":
                # the fan-out's wall: the slowest shard call sets it
                scatter_wait_s += _union_within(
                    [c for c in below if c[2] == "RpcClient.call"],
                    start,
                    end,
                )
            if span[PARENT] < 0:
                if metric == "client.self_ms_per_op":
                    roots += 1
                    root_s += end - start
                else:
                    orphan_s += end - start
        return {
            "self_s": self_s,
            "duration_s": duration_s,
            "scatter_wait_s": scatter_wait_s,
            "work": work,
            "roots": roots,
            "root_s": root_s,
            "orphan_s": orphan_s,
            "attributed_s": sum(self_s.values()) - orphan_s,
            "spans": len(self.spans),
            "fsyncs": self.fsyncs,
        }

    def write(self, path: str, header: dict) -> None:
        """Dump the spans (columnar, times relative to the first)."""
        ordered = sorted(self.spans, key=lambda span: span[START])
        origin = ordered[0][START] if ordered else 0.0
        rows = [
            span[:START]
            + [round(span[START] - origin, 7), round(span[END] - origin, 7)]
            + span[WORK:]
            for span in ordered[:MAX_SPANS_WRITTEN]
        ]
        document = dict(header)
        document.update(
            columns=list(COLUMNS),
            spans_recorded=len(ordered),
            truncated=len(ordered) > MAX_SPANS_WRITTEN,
            spans=rows,
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")


def _union_within(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    reach = start
    for low, high, *_ in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered
