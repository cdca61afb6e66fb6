"""Unit tests for repro.baselines.plain (non-encrypted M-Index)."""

import numpy as np
import pytest

from repro.baselines.plain import build_plain
from repro.exceptions import ProtocolError, QueryError
from repro.metric.distances import L1Distance

from tests.conftest import brute_force_knn


@pytest.fixture
def plain_pair(small_data, rng):
    pivots = small_data[rng.choice(len(small_data), 8, replace=False)]
    server, client = build_plain(pivots, L1Distance(), bucket_capacity=40)
    client.insert_many(range(len(small_data)), small_data)
    return server, client


class TestInsert:
    def test_all_records_indexed(self, plain_pair, small_data):
        server, _client = plain_pair
        assert len(server.index) == len(small_data)

    def test_server_computed_the_distances(self, plain_pair, small_data):
        server, _client = plain_pair
        # one batch of pivot distances per inserted object
        assert server.space.distance_count >= len(small_data) * 8

    def test_records_stored_with_plain_payloads(self, plain_pair, small_data):
        server, _client = plain_pair
        cell = next(iter(server.storage.cells()))
        record = server.storage.load(cell)[0]
        vector = np.frombuffer(record.payload, dtype="<f8")
        assert any(np.allclose(vector, row) for row in small_data)

    def test_dimension_mismatch_rejected(self, plain_pair):
        _server, client = plain_pair
        with pytest.raises(ProtocolError):
            client.insert_many([1], np.zeros((1, 5)))

    def test_oid_mismatch_rejected(self, plain_pair, small_data):
        _server, client = plain_pair
        with pytest.raises(QueryError):
            client.insert_many([1, 2, 3], small_data[:2])


class TestSearch:
    def test_knn_with_full_cand_is_exact(self, plain_pair, small_data, queries):
        _server, client = plain_pair
        q = queries[0]
        hits = client.knn_search(q, 10, cand_size=len(small_data))
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

    def test_answers_carry_true_distances(self, plain_pair, small_data, queries):
        _server, client = plain_pair
        hits = client.knn_search(queries[1], 5, cand_size=200)
        for hit in hits:
            true_d = float(np.abs(small_data[hit.oid] - queries[1]).sum())
            assert hit.distance == pytest.approx(true_d)

    def test_range_search_exact(self, plain_pair, small_data, queries):
        _server, client = plain_pair
        q = queries[2]
        dists = np.abs(small_data - q).sum(axis=1)
        radius = float(np.sort(dists)[20])
        hits = client.range_search(q, radius)
        assert {h.oid for h in hits} == set(np.nonzero(dists <= radius)[0])

    def test_only_k_answers_travel(self, plain_pair, queries):
        """The plain variant returns the answer set, not candidates —
        communication cost must not grow with cand_size (paper's key
        contrast in Tables 7/8)."""
        _server, client = plain_pair
        client.reset_accounting()
        client.knn_search(queries[0], 30, cand_size=100)
        small_cost = client.rpc.channel.bytes_total
        client.reset_accounting()
        client.knn_search(queries[0], 30, cand_size=500)
        big_cost = client.rpc.channel.bytes_total
        assert big_cost == small_cost

    def test_invalid_parameters(self, plain_pair, queries):
        _server, client = plain_pair
        with pytest.raises(ProtocolError):
            client.knn_search(queries[0], 0, cand_size=10)
        with pytest.raises(QueryError):
            client.range_search(queries[0], -2.0)
        with pytest.raises(QueryError):
            client.range_search(queries[0], float("nan"))
        with pytest.raises(QueryError):
            client.range_batch(queries, float("nan"))


class TestReporting:
    def test_client_work_is_negligible(self, plain_pair, queries):
        server, client = plain_pair
        client.reset_accounting()
        server.costs.reset()
        client.knn_search(queries[0], 10, cand_size=300)
        report = client.report()
        assert report.server_time > 0.0
        assert report.encryption_time == 0.0
        assert report.decryption_time == 0.0
        # server performed distance computations, not the client
        assert server.distance_time > 0.0

    def test_server_reset_accounting(self, plain_pair):
        server, _client = plain_pair
        server.reset_accounting()
        assert server.server_time == 0.0
        assert server.distance_time == 0.0
