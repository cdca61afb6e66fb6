"""Unit tests for repro.evaluation (metrics, runner, tables)."""

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.core.costs import CostReport
from repro.datasets.registry import Dataset
from repro.evaluation.metrics import exact_knn, exact_range, recall
from repro.evaluation.runner import (
    SearchRow,
    run_encrypted_construction,
    run_encrypted_search_sweep,
    run_plain_construction,
    run_plain_search_sweep,
)
from repro.evaluation.tables import (
    format_construction_table,
    format_matrix,
    format_search_table,
)
from repro.exceptions import EvaluationError
from repro.metric.distances import L1Distance


class TestMetrics:
    def test_exact_knn_matches_manual(self, rng):
        data = rng.normal(size=(50, 4))
        q = rng.normal(size=4)
        got = exact_knn(L1Distance(), data, q, 5)
        dists = np.abs(data - q).sum(axis=1)
        expected = list(np.lexsort((np.arange(50), dists))[:5])
        assert got == expected

    def test_exact_knn_k_clamped(self, rng):
        data = rng.normal(size=(3, 2))
        assert len(exact_knn(L1Distance(), data, np.zeros(2), 10)) == 3

    def test_exact_range(self, rng):
        data = rng.normal(size=(50, 4))
        q = rng.normal(size=4)
        dists = np.abs(data - q).sum(axis=1)
        radius = float(np.median(dists))
        got = exact_range(L1Distance(), data, q, radius)
        assert set(got) == set(np.nonzero(dists <= radius)[0])

    def test_recall_definition(self):
        assert recall([1, 2, 3], [1, 2, 3]) == 100.0
        assert recall([1, 9, 8], [1, 2, 3]) == pytest.approx(100.0 / 3)
        assert recall([], [1]) == 0.0

    def test_recall_empty_truth_rejected(self):
        with pytest.raises(EvaluationError):
            recall([1], [])

    def test_invalid_k_rejected(self, rng):
        with pytest.raises(EvaluationError):
            exact_knn(L1Distance(), rng.normal(size=(5, 2)), np.zeros(2), 0)


@pytest.fixture
def tiny_dataset(rng):
    vectors = rng.normal(size=(250, 8))
    queries = rng.normal(size=(6, 8))
    return Dataset(
        name="TINY",
        vectors=vectors,
        queries=queries,
        distance=L1Distance(),
        bucket_capacity=30,
        n_pivots=6,
        storage_type="memory",
    )


class TestRunner:
    def test_encrypted_construction(self, tiny_dataset):
        cloud, report = run_encrypted_construction(tiny_dataset, seed=1)
        assert len(cloud.server.index) == 250
        assert report.encryption_time > 0
        assert report.communication_bytes > 0

    def test_plain_construction(self, tiny_dataset):
        server, _client, report = run_plain_construction(tiny_dataset, seed=1)
        assert len(server.index) == 250
        assert report.distance_time > 0
        assert report.extras["distance_computations"] >= 250 * 6

    def test_encrypted_search_sweep(self, tiny_dataset):
        cloud, _ = run_encrypted_construction(tiny_dataset, seed=1)
        client = cloud.new_client()
        rows = run_encrypted_search_sweep(
            client, tiny_dataset, k=5, cand_sizes=[20, 80, 250], n_queries=4
        )
        assert [row.cand_size for row in rows] == [20, 80, 250]
        recalls = [row.recall for row in rows]
        assert recalls == sorted(recalls)
        assert recalls[-1] == 100.0  # full scan
        # communication grows with candidate size
        costs = [row.report.communication_bytes for row in rows]
        assert costs == sorted(costs)

    def test_plain_search_sweep_flat_communication(self, tiny_dataset):
        server, client, _ = run_plain_construction(tiny_dataset, seed=1)
        rows = run_plain_search_sweep(
            server, client, tiny_dataset, k=5,
            cand_sizes=[20, 250], n_queries=4,
        )
        a, b = (row.report.communication_bytes for row in rows)
        assert abs(a - b) <= 8  # flat (answer-only transfer)

    def test_too_many_queries_rejected(self, tiny_dataset):
        cloud, _ = run_encrypted_construction(tiny_dataset, seed=1)
        client = cloud.new_client()
        with pytest.raises(EvaluationError):
            run_encrypted_search_sweep(
                client, tiny_dataset, k=5, cand_sizes=[10], n_queries=100
            )

    def test_precise_strategy_construction(self, tiny_dataset):
        cloud, _report = run_encrypted_construction(
            tiny_dataset, strategy=Strategy.PRECISE, seed=1
        )
        client = cloud.new_client()
        hits = client.range_search(tiny_dataset.queries[0], 5.0)
        assert isinstance(hits, list)


class TestTables:
    def test_format_matrix_alignment(self):
        text = format_matrix(
            "Title", ["col1", "col2"], [("row", ["1", "22"])]
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "col1" in lines[2]
        assert "22" in lines[4]

    def test_construction_table_rows(self):
        report = CostReport(client_time=1.0, encryption_time=0.5)
        text = format_construction_table("T3", {"YEAST": report})
        assert "Encryption time [s]" in text
        assert "Overall time [s]" in text

    def test_construction_table_plain_hides_encryption(self):
        report = CostReport(client_time=1.0)
        text = format_construction_table("T4", {"X": report}, encrypted=False)
        assert "Encryption time" not in text

    def test_search_table(self):
        rows = [
            SearchRow(100, CostReport(communication_bytes=1000), 50.0),
            SearchRow(200, CostReport(communication_bytes=2000), 75.0),
        ]
        text = format_search_table("T5", rows)
        assert "Candidate set size" in text
        assert "Recall [%]" in text
        assert "1.000" in text and "2.000" in text
