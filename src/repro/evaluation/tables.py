"""Render experiment results in the paper's table layout.

The paper's tables put *measures* in rows and *sweep points / data
sets* in columns; these helpers produce the same shape as aligned
plain-text tables so the bench output reads side by side with the
paper.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.costs import CostReport
from repro.evaluation.runner import SearchRow

__all__ = [
    "format_matrix",
    "format_construction_table",
    "format_search_table",
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


def format_construction_table(
    title: str,
    reports: dict[str, CostReport],
    *,
    encrypted: bool = True,
) -> str:
    """Table 3/4 layout: datasets as columns, cost components as rows."""
    labels = list(reports.keys())
    rows: list[tuple[str, list[str]]] = [
        (
            "Client time [s]",
            [_seconds(reports[label].client_time) for label in labels],
        )
    ]
    if encrypted:
        rows.append(
            (
                "Encryption time [s]",
                [_seconds(reports[label].encryption_time) for label in labels],
            )
        )
    rows.append(
        (
            "Dist. comp. time [s]",
            [_seconds(reports[label].distance_time) for label in labels],
        )
    )
    rows.append(
        (
            "Server time [s]",
            [_seconds(reports[label].server_time) for label in labels],
        )
    )
    rows.append(
        (
            "Communication time [s]",
            [
                _seconds(reports[label].communication_time)
                for label in labels
            ],
        )
    )
    rows.append(
        (
            "Overall time [s]",
            [_seconds(reports[label].overall_time) for label in labels],
        )
    )
    return format_matrix(title, labels, rows)


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
    body: list[tuple[str, list[str]]] = []
    if encrypted:
        body.append(
            ("Client time [s]", [_seconds(r.client_time) for r in reports])
        )
        body.append(
            (
                "Decryption time [s]",
                [_seconds(r.decryption_time) for r in reports],
            )
        )
    body.append(
        ("Dist. comp. time [s]", [_seconds(r.distance_time) for r in reports])
    )
    body.append(
        ("Server time [s]", [_seconds(r.server_time) for r in reports])
    )
    body.append(
        (
            "Communication time [s]",
            [_seconds(r.communication_time) for r in reports],
        )
    )
    body.append(
        ("Overall time [s]", [_seconds(r.overall_time) for r in reports])
    )
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
