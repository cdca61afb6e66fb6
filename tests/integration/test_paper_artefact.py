"""The paper artefact: ``benchmarks/paper.py`` writes Tables 1–9 and the
HUMAN table to ``benchmarks/results/paper_tables.json``, and every
``.txt`` view beside it is rendered from that file alone.

Pinned here: the committed views are the committed JSON rendered; a row
renders the same from memory and from the file; a count claim that does
not hold fails the run, a time claim that does not hold is recorded.
"""

import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import Dataset
from repro.datasets.synthetic import gene_expression_matrix
from repro.evaluation.runner import (
    run_encrypted_construction,
    run_encrypted_search_sweep,
    run_plain_construction,
    run_plain_search_sweep,
)
from repro.evaluation.tables import render
from repro.metric.distances import L1Distance

RESULTS = Path(__file__).parents[2] / "benchmarks" / "results"


@pytest.fixture(scope="module")
def paper():
    spec = importlib.util.spec_from_file_location(
        "paper_artefact", RESULTS.parent / "paper.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def committed():
    return json.loads((RESULTS / "paper_tables.json").read_text())


def test_committed_views_are_the_committed_json_rendered(committed):
    assert len(committed["tables"]) == 10
    for name, table in committed["tables"].items():
        text = (RESULTS / f"{name}.txt").read_text()
        assert text == render(table) + "\n", name


def test_committed_claims_are_the_rows_checked_and_hold(committed, paper):
    claims = {name: t["claims"] for name, t in committed["tables"].items()}
    assert claims == paper.check(committed["tables"])
    assert sum(map(len, claims.values())) == 43
    assert paper.broken(claims, "count") == []
    assert committed["seeds"] == paper.SEEDS
    assert all(committed[key] for key in ("host", "git", "cryptography"))


def test_the_builders_make_rows_that_render_the_same_from_json(paper):
    rng = np.random.default_rng(42)
    matrix = gene_expression_matrix(1_510, 17, rng, n_clusters=10)
    small = Dataset(
        name="YEAST-small", vectors=matrix[:1_500], queries=matrix[1_500:],
        distance=L1Distance(), bucket_capacity=100, n_pivots=20,
        storage_type="memory", info={"paper_records": 2_882},
    )
    cloud, encrypted = run_encrypted_construction(small, seed=0)
    server, client, plain = run_plain_construction(small, seed=0)
    sweep = {"k": 10, "cand_sizes": [100, 300], "n_queries": 5}
    datasets, parameters = paper.dataset_rows([small])
    tables = [
        {"kind": "datasets", "rows": datasets},
        {"kind": "parameters", "rows": parameters},
        {"kind": "construction", "encrypted": True, "rows": [
            paper.construction_row("S", cloud.server.index, encrypted)
        ]},
        {"kind": "construction", "encrypted": False, "rows": [
            paper.construction_row("S", server.index, plain)
        ]},
        {"kind": "search", "encrypted": True, "rows": paper.search_rows(
            run_encrypted_search_sweep(cloud.new_client(), small, **sweep)
        )},
        {"kind": "search", "encrypted": False, "rows": paper.search_rows(
            run_plain_search_sweep(server, client, small, **sweep)
        )},
        {"kind": "comparison", "rows": paper.comparison_rows(
            small, cloud.new_client(), 5
        )},
    ]
    for table in tables:
        table["title"] = table["kind"]
        text = render(table)
        assert render(json.loads(json.dumps(table))) == text
        assert text.splitlines()[0] == table["kind"]


def _check_doctored(paper, committed, table, change):
    tables = copy.deepcopy(committed["tables"])
    change(tables[table]["rows"])
    claims = paper.check(tables)
    return paper.broken(claims, "count"), paper.broken(claims, "time")


def test_a_broken_count_claim_fails_the_run(committed, paper):
    def recall_at_600(rows):
        rows[2]["recall"] = 90.0  # still monotone, no longer above 90

    table = "table5_search_yeast_encrypted"
    assert _check_doctored(paper, committed, table, recall_at_600)[0] == [
        f"{table}.recall_over_90_at_600"
    ]

    def longer_answer(rows):
        rows[-1]["report"]["communication_bytes"] *= 2

    table = "table7_search_yeast_plain"
    assert _check_doctored(paper, committed, table, longer_answer)[0] == [
        f"{table}.communication_flat"
    ]


def test_a_broken_time_claim_is_recorded_not_raised(committed, paper):
    def slow_server(rows):
        rows[-1]["report"]["server_time"] = rows[-1]["report"]["client_time"]

    table = "table6_search_cophir_encrypted"
    failed, slow = _check_doctored(paper, committed, table, slow_server)
    assert failed == [] and f"{table}.client_over_2x_server" in slow
