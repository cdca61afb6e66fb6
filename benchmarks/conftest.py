"""Shared fixtures of the figure and ablation benchmarks.

The paper's tables are not here: ``benchmarks/paper.py`` writes them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets.registry import make_yeast

RESULTS_DIR = Path(__file__).parent / "results"

#: queries per sweep point (paper: 100)
N_QUERIES_SMALL = 100


def save_result(name: str, text: str) -> None:
    """Persist a rendered table under benchmarks/results and print it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


@pytest.fixture(scope="session")
def yeast():
    return make_yeast(n_queries=N_QUERIES_SMALL)
