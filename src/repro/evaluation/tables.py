"""Render experiment results in the paper's table layout.

The paper's tables put *measures* in rows and *sweep points / data
sets* in columns; these helpers produce the same shape as aligned
plain-text tables so the bench output reads side by side with the
paper.

:func:`render` turns one table of ``benchmarks/results/paper_tables.json``
(written by ``benchmarks/paper.py``) into its ``.txt`` view. It reads
nothing but that table, so a view always matches the artefact it was
rendered from.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.costs import CostReport
from repro.evaluation.runner import SearchRow

__all__ = [
    "format_matrix",
    "format_construction_table",
    "format_search_table",
    "render",
]


def format_matrix(
    title: str,
    column_labels: Sequence[str],
    rows: Sequence[tuple[str, Sequence[str]]],
    *,
    row_header: str = "",
) -> str:
    """Align a label/values matrix into a plain-text table."""
    header = [row_header] + list(column_labels)
    body = [[label] + list(values) for label, values in rows]
    widths = [
        max(len(line[col]) for line in [header] + body)
        for col in range(len(header))
    ]
    def fmt(line: list[str]) -> str:
        first = line[0].ljust(widths[0])
        rest = [cell.rjust(width) for cell, width in zip(line[1:], widths[1:])]
        return "  ".join([first] + rest)

    separator = "-" * len(fmt(header))
    out = [title, separator, fmt(header), separator]
    out.extend(fmt(line) for line in body)
    out.append(separator)
    return "\n".join(out)


def _seconds(value: float) -> str:
    return f"{value:.4f}"


def _milliseconds(value: float) -> str:
    return f"{value * 1e3:.3f}"


#: the time rows of Tables 3–8, in the paper's order; each table hides
#: the ones it does not print
_TIME_ROWS = [
    ("Client time [s]", "client_time"),
    ("Encryption time [s]", "encryption_time"),
    ("Decryption time [s]", "decryption_time"),
    ("Dist. comp. time [s]", "distance_time"),
    ("Server time [s]", "server_time"),
    ("Communication time [s]", "communication_time"),
    ("Overall time [s]", "overall_time"),
]


def _time_rows(
    reports: Sequence[CostReport], hidden: set[str]
) -> list[tuple[str, list[str]]]:
    return [
        (label, [_seconds(getattr(r, name)) for r in reports])
        for label, name in _TIME_ROWS
        if name not in hidden
    ]


def format_construction_table(
    title: str,
    reports: dict[str, CostReport],
    *,
    encrypted: bool = True,
) -> str:
    """Table 3/4 layout: datasets as columns, cost components as rows."""
    hidden = {"decryption_time"} | (
        set() if encrypted else {"encryption_time"}
    )
    return format_matrix(
        title, list(reports), _time_rows(list(reports.values()), hidden)
    )


def format_search_table(
    title: str,
    rows_by_cand: Sequence[SearchRow],
    *,
    encrypted: bool = True,
    show_recall: bool = True,
) -> str:
    """Table 5–8 layout: candidate-set sizes as columns, measures as rows."""
    labels = [str(row.cand_size) for row in rows_by_cand]
    reports = [row.report for row in rows_by_cand]
    # the plain variant's client only ships the query: no client rows
    hidden = {"encryption_time"} | (
        set() if encrypted else {"client_time", "decryption_time"}
    )
    body = _time_rows(reports, hidden)
    if show_recall:
        body.append(
            ("Recall [%]", [f"{row.recall:.2f}" for row in rows_by_cand])
        )
    body.append(
        (
            "Communication cost [kB]",
            [f"{r.communication_kb:.3f}" for r in reports],
        )
    )
    return format_matrix(title, labels, body, row_header="Candidate set size")


# -- the views of paper_tables.json ------------------------------------------

_DISTANCE_NAMES = {"l1": "L1", "combined": "combination of Lp"}


def _datasets(table: dict) -> list[tuple[str, list[str]]]:
    return [
        (row["dataset"], [
            f"{row['records']:,}",
            f"{row['dimension']}-dim. num. vectors",
            _DISTANCE_NAMES.get(row["distance"], row["distance"]),
            f"(paper: {row['paper_records']:,})",
        ])
        for row in table["rows"]
    ]


def _parameters(table: dict) -> list[tuple[str, list[str]]]:
    return [
        (row["dataset"], [
            str(row["bucket_capacity"]),
            f"{row['storage_type'].capitalize()} storage",
            str(row["n_pivots"]),
        ])
        for row in table["rows"]
    ]


def _comparison(table: dict) -> list[tuple[str, list[str]]]:
    rows = []
    for row in table["rows"]:
        r = CostReport(**row["report"])
        times = (r.client_time, r.decryption_time, r.distance_time,
                 r.server_time, r.communication_time, r.overall_time)
        rows.append((row["technique"], [_milliseconds(t) for t in times] + [
            f"{row['recall']:.1f}", f"{r.communication_kb:.3f}", row["note"]
        ]))
    return rows


#: per matrix view: its rows, its column labels and its row header
_MATRICES = {
    "datasets": (_datasets, [
        "# of records", "Data type", "Distance function", "Scale note"
    ], "Name"),
    "parameters": (
        _parameters, ["Bucket capacity", "Storage type", "# of pivots"], "Name"
    ),
    "comparison": (_comparison, [
        "Client [ms]", "Decrypt [ms]", "Dist [ms]", "Server [ms]",
        "Comm [ms]", "Overall [ms]", "Recall [%]", "Comm cost [kB]", "Note",
    ], "Technique"),
}


def render(table: dict) -> str:
    """The text view of one table of the paper artefact: its ``kind``
    picks the layout, and every figure comes from its rows."""
    kind, title, rows = table["kind"], table["title"], table["rows"]
    if kind == "construction":
        return format_construction_table(
            title,
            {row["dataset"]: CostReport(**row["report"]) for row in rows},
            encrypted=table["encrypted"],
        )
    if kind == "search":
        return format_search_table(title, [
            SearchRow(row["cand_size"], CostReport(**row["report"]),
                      row["recall"])
            for row in rows
        ], encrypted=table["encrypted"])
    view, labels, row_header = _MATRICES[kind]
    return format_matrix(title, labels, view(table), row_header=row_header)
