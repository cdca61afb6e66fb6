"""The paper's §5 evaluation as one artefact: Tables 1–9 and the HUMAN
table §5.3 leaves unprinted.

    PYTHONPATH=src python benchmarks/paper.py

Every row is computed through :mod:`repro.evaluation.runner` and the
baselines and written, with the host, the library versions, the tree's
``git describe`` and the seeds, to ``benchmarks/results/paper_tables.json``.
The ten ``.txt`` views beside it are then rendered from that file alone
(:func:`repro.evaluation.tables.render`). There are no flags and no
environment variables: the sizes and seeds below are the artefact's.

The paper's claims are read off the rows and recorded under their table
as ``{claim, kind, paper, measured, holds}``. A *count* claim — sizes,
parameters, record, distance and byte counts, recall — that does not
hold makes the exit status 1, after everything is written. A *time*
claim — a ratio of two measured times, which depends on the host — is
recorded and reported where it does not hold, never raised.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import cryptography
import numpy as np

from repro.baselines.ehi import build_ehi
from repro.baselines.fdh import build_fdh, select_anchors
from repro.baselines.mpt import build_mpt
from repro.baselines.trivial import build_trivial
from repro.core.costs import CostReport
from repro.crypto.cipher import AesCipher
from repro.crypto.keys import SecretKey
from repro.datasets.registry import make_cophir, make_human, make_yeast
from repro.evaluation.metrics import exact_knn, recall
from repro.evaluation.runner import (
    run_encrypted_construction,
    run_encrypted_search_sweep,
    run_plain_construction,
    run_plain_search_sweep,
)
from repro.evaluation.tables import render
from repro.metric.space import MetricSpace
from repro.storage.disk import DiskStorage

RESULTS = Path(__file__).parent / "results"
ARTEFACT = RESULTS / "paper_tables.json"

#: data-set generators, deployments (pivot choice) and the Table 9
#: baselines (EHI, MPT references, MPT, FDH anchors, trivial key)
SEEDS = {
    "yeast": 17,
    "human": 23,
    "cophir": 31,
    "deployment": 0,
    "baselines": [1, 2, 3, 4, 5],
}
#: the CoPhIR stand-in's size (paper: 1,000,000); its sweep keeps the
#: paper's |S_C| / |X| fractions {0.05 %, …, 5 %}, clamped below at k
COPHIR_N = 10_000
COPHIR_CAND_SIZES = sorted(
    {max(30, round(f * COPHIR_N)) for f in (5e-4, 1e-3, 5e-3, .01, .02, .05)}
)
YEAST_CAND_SIZES = [150, 300, 600, 1500]
#: the YEAST sweep scaled to HUMAN's 4,026 records
HUMAN_CAND_SIZES = [200, 400, 800, 2000]
#: queries per sweep point (paper: 100)
N_QUERIES, N_QUERIES_COPHIR, N_QUERIES_HUMAN = 100, 30, 50
K = 30

_ENC = "Approximate 30-NN evaluation using the Encrypted M-Index"
_PLAIN = "Approx. 30-NN evaluation using basic (non-encrypted) M-Index"
#: the views' titles, as the paper prints them
TITLES = {
    "table1_datasets": "Table 1. Data sets summary",
    "table2_parameters": "Table 2. M-Index parameters",
    "table3_construction_encrypted":
        "Table 3. Index construction of encrypted M-Index",
    "table4_construction_plain":
        "Table 4. Index construction of the basic (non-encrypted) M-Index",
    "table5_search_yeast_encrypted": f"Table 5. {_ENC} (YEAST)",
    "table6_search_cophir_encrypted": f"Table 6. {_ENC} (CoPhIR)",
    "table7_search_yeast_plain": f"Table 7. {_PLAIN} (YEAST)",
    "table8_search_cophir_plain": f"Table 8. {_PLAIN} (CoPhIR)",
    "table9_comparison_1nn":
        "Table 9 / §5.4. Approximate 1-NN search evaluation (YEAST), "
        "per query",
    "human_search_encrypted": "HUMAN (the paper's unprinted table): "
        "approximate 30-NN, Encrypted M-Index",
}


def _report(report: CostReport) -> dict:
    return dataclasses.asdict(report)


def dataset_rows(datasets) -> tuple[list[dict], list[dict]]:
    """Table 1's rows (data sets) and Table 2's (M-Index parameters)."""
    return [
        {"dataset": ds.name, "records": ds.n_records,
         "dimension": ds.dimension, "distance": ds.distance.name,
         "paper_records": ds.info["paper_records"]}
        for ds in datasets
    ], [
        {"dataset": ds.name, "bucket_capacity": ds.bucket_capacity,
         "storage_type": ds.storage_type, "n_pivots": ds.n_pivots}
        for ds in datasets
    ]


def construction_row(name: str, index, report: CostReport) -> dict:
    """A Table 3/4 column: the costs, and what the built index holds."""
    return {"dataset": name, "report": _report(report), "index": {
        "bucket_capacity": index.bucket_capacity,
        "n_pivots": index.n_pivots,
        "records": len(index),
    }}


def search_rows(sweep) -> list[dict]:
    """Tables 5–8 and HUMAN from a sweep's :class:`SearchRow` list."""
    return [{"cand_size": row.cand_size, "recall": row.recall,
             "report": _report(row.report)} for row in sweep]


def comparison_rows(dataset, client, n_queries: int) -> list[dict]:
    """Table 9 + §5.4: single-cell approximate 1-NN on ``client`` (an
    Encrypted M-Index client) against EHI, MPT, FDH and the trivial
    baseline; per-query costs."""
    vectors, oids = dataset.vectors, dataset.oids()
    cipher = AesCipher(bytes(range(16)))
    rngs = [np.random.default_rng(seed) for seed in SEEDS["baselines"]]

    def space():
        return MetricSpace(dataset.distance, dataset.dimension)

    _, ehi = build_ehi(cipher, space(), leaf_capacity=25, fanout=6)
    ehi.outsource(oids, vectors, rng=rngs[0])
    references = vectors[rngs[1].choice(len(vectors), 10, replace=False)]
    _, mpt = build_mpt(references, cipher, space())
    mpt.outsource(oids, vectors, rng=rngs[2])
    anchors, radii = select_anchors(vectors, 24, space(), rng=rngs[3])
    _, fdh = build_fdh(anchors, radii, cipher, space())
    fdh.outsource(oids, vectors)
    key = SecretKey.generate(vectors, 2, rng=rngs[4])
    _, trivial = build_trivial(key, space())
    trivial.insert_many(oids, vectors)

    rows = []
    for name, searcher, note, options in [
        ("Encrypted M-Index", client, None,
         {"cand_size": dataset.bucket_capacity, "max_cells": 1}),
        ("EHI", ehi, "exact", {}),
        ("MPT", mpt, "exact", {}),
        ("FDH", fdh, "|S_C|=42", {"cand_size": 42}),
        ("Trivial", trivial, "exact", {}),
    ]:
        searcher.reset_accounting()
        recalls = [
            recall([hit.oid for hit in searcher.knn_search(q, 1, **options)],
                   exact_knn(dataset.distance, vectors, q, 1))
            for q in dataset.queries[:n_queries]
        ]
        report = searcher.report()
        received = report.extras.get("candidates_received", 0)
        rows.append({
            "technique": name,
            "recall": float(np.mean(recalls)),
            "note": note or f"avg |S_C|={received / n_queries:.0f}",
            "report": _report(report.scaled(n_queries)),
        })
    return rows


def build(yeast, human, cophir, scratch: Path) -> dict:
    """Every table of the artefact, keyed by its ``.txt`` view's name.

    One encrypted and one plain deployment per data set (bulks of
    1,000, Table 2's parameters, CoPhIR on disk) give Tables 3/4 and are
    then searched for Tables 5–9 and HUMAN.
    """
    encrypted, plain = {}, {}
    for ds in (yeast, human, cophir):
        def storage(side):
            if ds.storage_type == "disk":
                return DiskStorage(scratch / f"{ds.name}-{side}")
            return None

        encrypted[ds.name] = run_encrypted_construction(
            ds, seed=SEEDS["deployment"], storage=storage("encrypted")
        )
        plain[ds.name] = run_plain_construction(
            ds, seed=SEEDS["deployment"], storage=storage("plain")
        )

    def encrypted_sweep(ds, cand_sizes, n_queries):
        client = encrypted[ds.name][0].new_client()
        return search_rows(run_encrypted_search_sweep(
            client, ds, k=K, cand_sizes=cand_sizes, n_queries=n_queries
        ))

    def plain_sweep(ds, cand_sizes, n_queries):
        server, client, _ = plain[ds.name]
        return search_rows(run_plain_search_sweep(
            server, client, ds, k=K, cand_sizes=cand_sizes, n_queries=n_queries
        ))

    table1, table2 = dataset_rows((yeast, human, cophir))
    tables = {
        "table1_datasets": {"kind": "datasets", "rows": table1},
        "table2_parameters": {"kind": "parameters", "rows": table2},
        "table3_construction_encrypted": {
            "kind": "construction", "encrypted": True, "rows": [
                construction_row(name, cloud.server.index, report)
                for name, (cloud, report) in encrypted.items()
            ]},
        "table4_construction_plain": {
            "kind": "construction", "encrypted": False, "rows": [
                construction_row(name, server.index, report)
                for name, (server, _, report) in plain.items()
            ]},
        "table5_search_yeast_encrypted": {
            "kind": "search", "encrypted": True,
            "rows": encrypted_sweep(yeast, YEAST_CAND_SIZES, N_QUERIES)},
        "table6_search_cophir_encrypted": {
            "kind": "search", "encrypted": True, "rows": encrypted_sweep(
                cophir, COPHIR_CAND_SIZES, N_QUERIES_COPHIR
            )},
        "table7_search_yeast_plain": {
            "kind": "search", "encrypted": False,
            "rows": plain_sweep(yeast, YEAST_CAND_SIZES, N_QUERIES)},
        "table8_search_cophir_plain": {
            "kind": "search", "encrypted": False, "rows": plain_sweep(
                cophir, COPHIR_CAND_SIZES, N_QUERIES_COPHIR
            )},
        "table9_comparison_1nn": {
            "kind": "comparison", "rows": comparison_rows(
                yeast, encrypted["YEAST"][0].new_client(), N_QUERIES
            )},
        # the plain rows are not rendered: they are the other side of
        # the claim that HUMAN's trends are YEAST's
        "human_search_encrypted": {
            "kind": "search", "encrypted": True,
            "rows": encrypted_sweep(human, HUMAN_CAND_SIZES, N_QUERIES_HUMAN),
            "plain_rows": plain_sweep(
                human, HUMAN_CAND_SIZES, N_QUERIES_HUMAN
            )},
    }
    for name, table in tables.items():
        table["title"] = TITLES[name]
    return tables


# -- the paper's claims, read off the rows ----------------------------------


def _claim(kind: str, claim: str, paper, measured, holds) -> dict:
    """``holds`` is a bool, or a test applied to every item of
    ``measured``."""
    if callable(holds):
        holds = all(map(holds, measured))
    return {"claim": claim, "kind": kind, "paper": paper,
            "measured": measured, "holds": bool(holds)}


def check(tables: dict) -> dict[str, list[dict]]:
    """Every claim of the paper the artefact checks, per table, read off
    the tables' rows alone. Thresholds are the paper's where it prints
    one, else the gate the reproduction has always used."""
    claims = {name: [] for name in tables}

    def count(table, *claim):
        claims[table].append(_claim("count", *claim))

    def timed(table, *claim):
        claims[table].append(_claim("time", *claim))

    def rows(table, key):
        return [row[key] for row in tables[table]["rows"]]

    def costs(table, rows_key="rows"):
        return [CostReport(**r["report"]) for r in tables[table][rows_key]]

    def sweep(table, linear=None, flat=None, monotone=True,
              rows_key="rows", prefix=""):
        """Recall grows with CandSize; communication bytes grow as it
        does (each step within ``linear``) or stay flat (spread within
        ``flat`` of the largest)."""
        points = tables[table][rows_key]
        recalls = [point["recall"] for point in points]
        sent = [cost.communication_bytes for cost in costs(table, rows_key)]
        if monotone:
            count(table, "recall_monotone", "recall grows with CandSize",
                  recalls, recalls == sorted(recalls))
        if linear:
            count(table, "communication_linear",
                  f"linear in CandSize (steps within {linear:.0%})",
                  [(b / a) / (q["cand_size"] / p["cand_size"])
                   for a, b, p, q in zip(sent, sent[1:], points, points[1:])],
                  lambda step: abs(step - 1) <= linear)
        if flat:
            spread = (max(sent) - min(sent)) / max(sent)
            count(table, f"{prefix}communication_flat",
                  f"only the answer travels (spread <= {flat:.0%})",
                  spread, spread <= flat)

    sets = {row["dataset"]: row for row in tables["table1_datasets"]["rows"]}
    for name, field, paper in [
        ("YEAST", "records", 2_882), ("HUMAN", "records", 4_026),
        ("YEAST", "dimension", 17), ("HUMAN", "dimension", 96),
        ("CoPhIR", "dimension", 280),
    ]:
        count("table1_datasets", f"{name.lower()}_{field}", paper,
              sets[name][field], sets[name][field] == paper)

    t2 = "table2_parameters"
    params = {row["dataset"]: row for row in tables[t2]["rows"]}
    for claim, field, paper in [
        ("bucket_capacities", "bucket_capacity", [200, 250, 1_000]),
        ("pivot_counts", "n_pivots", [30, 50, 100]),
    ]:
        count(t2, claim, paper, rows(t2, field), rows(t2, field) == paper)
    t3, t4 = "table3_construction_encrypted", "table4_construction_plain"
    built = tables[t3]["rows"] + tables[t4]["rows"]
    count(t2, "servers_adopt_parameters",
          "each Table 3/4 server runs its row's capacity and pivots",
          [[r["dataset"], r["index"]["bucket_capacity"],
            r["index"]["n_pivots"]] for r in built],
          lambda v: v[1:] == [params[v[0]]["bucket_capacity"],
                              params[v[0]]["n_pivots"]])

    for table in (t3, t4):
        count(table, "every_record_indexed", "every Table 1 record indexed",
              [[r["index"]["records"], sets[r["dataset"]]["records"]]
               for r in tables[table]["rows"]],
              lambda pair: pair[0] == pair[1])
    enc = dict(zip(rows(t3, "dataset"), costs(t3)))
    plain = dict(zip(rows(t4, "dataset"), costs(t4)))
    cophir = enc["CoPhIR"]
    count(t3, "encryption_time_charged", "the client encrypts",
          [c.encryption_time for c in enc.values()], lambda t: t > 0)
    count(t3, "distance_time_charged", "the client computes distances",
          [c.distance_time for c in enc.values()], lambda t: t > 0)
    count(t3, "client_time_includes_encryption", "encryption is client time",
          [c.client_time - c.encryption_time for c in enc.values()],
          lambda rest: rest >= 0)
    count(t3, "bytes_sent", "the owner uploads the collection",
          [c.communication_bytes for c in enc.values()], lambda b: b > 0)
    n_distances = sets["CoPhIR"]["records"] * params["CoPhIR"]["n_pivots"]
    count(t3, "cophir_distance_computations",
          "all n_records x n_pivots distances on the client (§5.2)",
          cophir.extras["distance_computations"],
          cophir.extras["distance_computations"] == n_distances)
    share = (
        cophir.distance_time + cophir.encryption_time
    ) / cophir.client_time
    timed(t3, "cophir_distance_and_encryption_over_half_client",
          "distances + encryption dominate CoPhIR's client (§5.2)",
          share, share > 0.5)
    ratio = cophir.distance_time / cophir.communication_time
    timed(t3, "cophir_distance_over_communication",
          "distances dominate CoPhIR's construction (§5.2)", ratio, ratio > 1)

    timed(t4, "server_over_client", "the server does the work",
          [c.server_time / c.client_time for c in plain.values()],
          lambda ratio: ratio > 1)
    count(t4, "no_encryption_time", "no encryption layer",
          [c.encryption_time for c in plain.values()], lambda t: t == 0.0)
    ratio = enc["YEAST"].overall_time / plain["YEAST"].overall_time
    timed(t4, "yeast_encrypted_overall_over_plain",
          "encryption costs tens of percent on the small sets (§5.2)",
          ratio, ratio > 1)

    t5 = "table5_search_yeast_encrypted"
    sweep(t5, linear=0.2)
    at_600 = dict(zip(rows(t5, "cand_size"), rows(t5, "recall")))[600]
    count(t5, "recall_over_90_at_600", "91.3 % at |S_C| = 600", at_600,
          at_600 > 90.0)

    t6 = "table6_search_cophir_encrypted"
    sweep(t6, linear=0.25)
    count(t6, "recall_over_70_at_5_percent", "87 % at the 5 % point",
          rows(t6, "recall")[-1], rows(t6, "recall")[-1] > 70.0)
    ratio = costs(t6)[-1].client_time / costs(t6)[-1].server_time
    timed(t6, "client_over_2x_server", "client time ~5x server time", ratio,
          ratio > 2)

    sweep("table7_search_yeast_plain", flat=0.02)

    t8 = "table8_search_cophir_plain"
    sweep(t8, flat=0.05, monotone=False)
    big = costs(t8)[-1]
    count(t8, "distance_time_charged", "the server computes the distances",
          big.distance_time, big.distance_time > 0.0)
    timed(t8, "server_over_10x_client", "the server does the work",
          big.server_time / big.client_time,
          big.server_time > 10 * big.client_time)

    t9 = "table9_comparison_1nn"
    emi, ehi, mpt, fdh, trivial = costs(t9)
    count(t9, "emi_recall_over_55", "94 % with a single-cell candidate set",
          rows(t9, "recall")[0], rows(t9, "recall")[0] > 55.0)
    for claim, other, factor in [("emi_bytes_below_ehi", ehi, 1),
                                 ("emi_bytes_below_mpt", mpt, 1),
                                 ("emi_bytes_10x_below_trivial", trivial, 10)]:
        sent = [emi.communication_bytes, other.communication_bytes]
        count(t9, claim, "beats EHI, MPT and trivial in communication "
              "(§5.4)", sent, sent[0] * factor < sent[1])
    ratio = emi.overall_time / fdh.overall_time
    timed(t9, "emi_overall_within_3x_fdh", "beats FDH in CPU time (§5.4)",
          ratio, ratio <= 3)

    human = "human_search_encrypted"
    sweep(human, linear=0.2)
    count(human, "recall_over_90_at_largest", "as on YEAST",
          rows(human, "recall")[-1], rows(human, "recall")[-1] > 90.0)
    sweep(human, flat=0.02, monotone=False, rows_key="plain_rows",
          prefix="plain_")
    big = costs(human)[-1]
    share = big.decryption_time / big.client_time
    timed(human, "decryption_over_half_client", "as on YEAST", share,
          share > 0.5)
    count(human, "recall_equals_plain", "same M-Index, same answers",
          [[e["recall"], p["recall"]] for e, p in zip(
              tables[human]["rows"], tables[human]["plain_rows"])],
          lambda pair: abs(pair[0] - pair[1]) <= 1e-9)
    return claims


def broken(claims: dict[str, list[dict]], kind: str) -> list[str]:
    """``table.claim`` of every claim of ``kind`` that does not hold."""
    return [
        f"{table}.{claim['claim']}"
        for table, found in claims.items()
        for claim in found
        if claim["kind"] == kind and not claim["holds"]
    ]


def _describe() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    yeast = make_yeast(seed=SEEDS["yeast"], n_queries=N_QUERIES)
    human = make_human(seed=SEEDS["human"], n_queries=N_QUERIES)
    cophir = make_cophir(
        seed=SEEDS["cophir"], n_records=COPHIR_N, n_queries=N_QUERIES_COPHIR
    )
    with tempfile.TemporaryDirectory() as scratch:
        tables = build(yeast, human, cophir, Path(scratch))
    claims = check(tables)
    for name, table in tables.items():
        table["claims"] = claims[name]
    ARTEFACT.write_text(json.dumps({
        "host": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "git": _describe(),
        "seeds": SEEDS,
        "tables": tables,
    }, indent=1) + "\n")
    # the views come from the file, not from memory
    for name, table in json.loads(ARTEFACT.read_text())["tables"].items():
        text = render(table)
        (RESULTS / f"{name}.txt").write_text(text + "\n")
        print(text, end="\n\n")
    for name in broken(claims, "time"):
        print(f"time claim does not hold (recorded, not raised): {name}")
    failed = broken(claims, "count")
    for name in failed:
        print(f"COUNT CLAIM FAILED: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
