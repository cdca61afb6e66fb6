"""Real loopback-TCP deployment, as in the paper's experimental setup
("both encryption client and M-Index server were running on the same
machine communicating via loopback interface").

Covers the socket transport end to end (interleaved in-flight requests
on one connection, concurrent insert+search over many connections,
mid-request client disconnects, and server-full load shedding) — always
asserting that whatever arrives over real sockets is bit-identical to
in-process execution of the very same server."""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.client import EncryptedClient, Strategy
from repro.core.cloud import SimilarityCloud
from repro.metric.distances import L1Distance
from repro.metric.permutations import pivot_permutation
from repro.metric.space import MetricSpace
from repro.net.rpc import RpcClient, encode_request
from repro.wire.encoding import Reader, Writer
from repro.wire.frames import (
    KIND_ERROR,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_frame,
)

from tests.conftest import (
    brute_force_knn,
    burst_frames,
    request_concurrently,
)

#: RPC response envelope prefix (u8 status + f64 server_time); the body
#: after it must be bit-identical however the request travelled
ENVELOPE_PREFIX = 9

#: stats counters that legitimately move *during* a shedding flood
VOLATILE_STATS = ("requests_shed", "deadline_expirations")


def _stats_dict(raw: bytes) -> dict[str, float]:
    """Decode a stats response envelope into its key -> value map."""
    reader = Reader(raw)
    assert reader.u8() == 0
    reader.f64()
    body = Reader(reader.blob())
    stats = {}
    for _ in range(body.u32()):
        key = body.string()
        stats[key] = body.f64()
    for key in VOLATILE_STATS:
        stats.pop(key, None)
    return stats


@pytest.fixture(scope="module")
def tcp_cloud():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(500, 10)) * 2
    cloud = SimilarityCloud.build(
        data,
        distance=L1Distance(),
        n_pivots=8,
        bucket_capacity=40,
        strategy=Strategy.PRECISE,
        seed=13,
        transport="tcp-async",
    )
    cloud.owner.outsource(range(500), data)
    yield cloud, data
    cloud.close()


class TestTcpDeployment:
    def test_construction_over_tcp(self, tcp_cloud):
        cloud, data = tcp_cloud
        assert len(cloud.server.index) == 500

    def test_precise_knn_over_tcp(self, tcp_cloud):
        cloud, data = tcp_cloud
        client = cloud.new_client()
        q = np.random.default_rng(5).normal(size=10) * 2
        hits = client.knn_precise(q, 10)
        assert [h.oid for h in hits] == brute_force_knn(data, q, 10)

    def test_cost_report_over_tcp(self, tcp_cloud):
        cloud, data = tcp_cloud
        client = cloud.new_client()
        q = np.random.default_rng(6).normal(size=10) * 2
        client.knn_search(q, 5, cand_size=100)
        report = client.report()
        assert report.communication_bytes > 0
        assert report.communication_time >= 0.0
        assert report.server_time > 0.0
        # components must not exceed the total round-trip wall time by
        # construction (server time subtracted from round trips)
        assert report.overall_time > 0.0

    def test_multiple_clients_share_server(self, tcp_cloud):
        cloud, data = tcp_cloud
        a = cloud.new_client()
        b = cloud.new_client()
        q = np.random.default_rng(8).normal(size=10) * 2
        hits_a = a.knn_search(q, 5, cand_size=80)
        hits_b = b.knn_search(q, 5, cand_size=80)
        assert [h.oid for h in hits_a] == [h.oid for h in hits_b]


def _hit_tuples(hits):
    return [(h.oid, h.distance) for h in hits]


def _in_process_client(cloud):
    """A client short-circuited to the same server, skipping sockets."""
    from repro.net.channel import InProcessChannel

    return EncryptedClient(
        cloud.owner.authorize(),
        MetricSpace(L1Distance(), 10),
        RpcClient(InProcessChannel(cloud.server.handle)),
        strategy=Strategy.PRECISE,
    )


class TestAsyncTcpDeployment:
    """The pipelined asyncio transport serving the encrypted index."""

    def test_construction_over_async_tcp(self, tcp_cloud):
        cloud, data = tcp_cloud
        assert len(cloud.server.index) == 500

    def test_search_bit_identical_to_in_process(self, tcp_cloud):
        cloud, data = tcp_cloud
        client = cloud.new_client()
        in_process = _in_process_client(cloud)
        q = np.random.default_rng(5).normal(size=10) * 2
        assert _hit_tuples(client.knn_search(q, 10, cand_size=100)) == (
            _hit_tuples(in_process.knn_search(q, 10, cand_size=100))
        )
        assert _hit_tuples(client.range_search(q, 4.0)) == (
            _hit_tuples(in_process.range_search(q, 4.0))
        )

    def test_dozens_of_interleaved_pipelined_requests(self, tcp_cloud):
        """36 in-flight requests on ONE connection; every response body
        is bit-identical to handing the same bytes to the dispatcher
        in process."""
        cloud, data = tcp_cloud
        key = cloud.owner.authorize()
        space = MetricSpace(L1Distance(), 10)
        rng = np.random.default_rng(21)
        requests = []
        for i in range(36):
            q = rng.normal(size=10) * 2
            distances = space.d_batch(q, key.pivots)
            if i % 3 == 2:
                body = Writer().f64_array(distances).f64(3.0)
                requests.append(encode_request("range", body))
            else:
                body = (
                    Writer()
                    .i32_array(pivot_permutation(distances))
                    .u32(60)
                    .u32(0)
                )
                requests.append(encode_request("approx_knn", body))
        expected = [
            cloud.server.handle(request)[ENVELOPE_PREFIX:]
            for request in requests
        ]
        with cloud._tcp_server.connect() as channel:
            raws = request_concurrently(channel, requests)
        assert [raw[ENVELOPE_PREFIX:] for raw in raws] == expected
        assert all(raw[0] == 0 for raw in raws)  # status OK

    def test_concurrent_insert_and_search_many_connections(self, tcp_cloud):
        """Writers and readers on separate real connections exercise the
        ReadWriteLock: searches during churn obey monotone invariants,
        and the post-churn index answers exactly like a sequentially
        built one."""
        cloud, data = tcp_cloud
        key = cloud.owner.authorize()
        space = MetricSpace(L1Distance(), 10)
        rng = np.random.default_rng(3)
        extra = rng.normal(size=(60, 10)) * 2
        extra_oids = list(range(10_000, 10_000 + 60))
        queries = rng.normal(size=(4, 10)) * 2
        radius = 4.0
        # hits among the original 500 records never disappear, because
        # the concurrent phase only adds records
        baseline_client = cloud.new_client()
        baseline = [
            set(h.oid for h in baseline_client.range_search(q, radius))
            for q in queries
        ]
        errors = []
        during = {i: [] for i in range(len(queries))}

        def new_client():
            return EncryptedClient(
                key,
                space,
                RpcClient(cloud._tcp_server.connect()),
                strategy=Strategy.PRECISE,
            )

        def writer(part):
            try:
                client = new_client()
                for oid, vector in part:
                    client.insert(oid, vector)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        def reader(qi):
            try:
                client = new_client()
                for _ in range(6):
                    hits = client.range_search(queries[qi], radius)
                    during[qi].append(set(h.oid for h in hits))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        parts = [
            list(zip(extra_oids, extra))[i::4] for i in range(4)
        ]
        threads = [
            threading.Thread(target=writer, args=(part,)) for part in parts
        ] + [
            threading.Thread(target=reader, args=(qi,))
            for qi in range(len(queries))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cloud.server.index) == 500 + 60
        # during churn: never lose an original hit, never see a stranger
        all_oids = set(range(500)) | set(extra_oids)
        for qi in range(len(queries)):
            for observed in during[qi]:
                assert baseline[qi] <= observed
                assert observed <= all_oids
        # post-churn results are exact: identical to brute force over
        # the full final collection
        final = np.concatenate([data, extra])
        final_oids = np.array(list(range(500)) + extra_oids)
        client = cloud.new_client()
        for qi, q in enumerate(queries):
            hits = client.range_search(q, radius)
            truth = {
                int(final_oids[j])
                for j in range(len(final))
                if np.abs(final[j] - q).sum() <= radius
            }
            assert set(h.oid for h in hits) == truth

    def test_mid_request_disconnect_keeps_serving(self, tcp_cloud):
        """A client that sends a request and vanishes must not disturb
        anyone else — the in-flight response is simply dropped."""
        cloud, data = tcp_cloud
        server = cloud._tcp_server
        request = encode_request("stats")
        # full frame, then vanish before the response can be written
        sock = socket.create_connection((server.host, server.port))
        sock.sendall(encode_frame(KIND_REQUEST, 1, request))
        sock.close()
        # half a frame, then vanish
        sock = socket.create_connection((server.host, server.port))
        sock.sendall(encode_frame(KIND_REQUEST, 2, request)[:11])
        sock.close()
        time.sleep(0.2)
        client = cloud.new_client()
        q = np.random.default_rng(5).normal(size=10) * 2
        hits = client.knn_precise(q, 5)
        assert _hit_tuples(hits) == _hit_tuples(
            _in_process_client(cloud).knn_precise(q, 5)
        )

    def test_server_full_load_shedding(self, tcp_cloud):
        """A second async endpoint over the same index with a tiny
        pending budget sheds excess requests with an error frame (the
        client's ServerBusyError: tests/unit/test_aio.py) while served
        ones stay bit-identical."""
        cloud, data = tcp_cloud
        endpoint = cloud.server.serve_async(max_workers=1, max_pending=2)
        try:
            request = encode_request("stats")
            expected = _stats_dict(cloud.server.handle(request))

            # 40 frames in one write: the endpoint finds them buffered
            # together, far past its two-request budget
            answers = burst_frames(
                endpoint.host, endpoint.port, [request] * 40
            )
            shed = [raw for kind, raw in answers if kind == KIND_ERROR]
            served = [raw for kind, raw in answers if kind == KIND_RESPONSE]
            assert len(shed) >= 1
            assert len(shed) + len(served) == 40
            assert endpoint.shed_requests == len(shed)
            for raw in served:
                assert _stats_dict(raw) == expected
            # after the burst the endpoint serves normally again
            with endpoint.connect() as channel:
                assert _stats_dict(channel.request(request)) == expected
        finally:
            endpoint.shutdown()
