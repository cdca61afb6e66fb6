"""Whether a claimed gain holds, pair by pair of runs.

    python tools/pairs.py PARENT.json CHANGE.json

Both files are what ``benchmarks/e2e/run.py --out`` writes: the parent
commit's runs and the change's, made alternately on the same seeds.
Untraced runs are paired by ``(workload, seed)`` — the i-th run of a
seed in one file with the i-th of that seed in the other. For every
end-to-end metric of ``BENCHMARK.json`` a workload has pairs of, one
line gives:

* the pairs the change wins, in the metric's better direction (a tie
  counts for neither side);
* the median and the quartiles of each side;
* the parent's interquartile range;
* whether the claim rule holds: the change wins at least nine pairs in
  ten, and its median beats the parent's by more than the parent's
  interquartile range.

``benchmarks/e2e/compare.py`` answers whether a change is worse than its
parent; this answers whether a gain it claims is there. It only prints.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def runs_by_seed(path: str) -> dict:
    """{(workload, seed): [end-to-end values of each untraced run]}."""
    with open(path) as handle:
        document = json.load(handle)
    runs: dict = {}
    for run in document["runs"]:
        if not run["trace"]:
            runs.setdefault((run["workload"], run["seed"]), []).append(
                {name: entry["value"] for name, entry in run["end_to_end"].items()}
            )
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), as compare.py reads
    the spread; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def claim(parent: list, change: list, better: str) -> tuple:
    """(wins, parent quartiles, change quartiles, whether the rule
    holds) of one metric over its pairs ``zip(parent, change)``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    base, new = quartiles(parent), quartiles(change)
    holds = (
        wins >= 0.9 * len(parent)
        and sign * (base[1] - new[1]) > base[2] - base[0]
    )
    return wins, base, new, holds


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parent, change = runs_by_seed(argv[0]), runs_by_seed(argv[1])
    print(
        f"{'workload':16s} {'metric':18s} {'wins':>7s} "
        f"{'parent median [q1, q3]':>36s} {'change median [q1, q3]':>36s} "
        f"{'parent IQR':>11s}  claim"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = [
            pair
            for (name, seed), runs in sorted(parent.items())
            if name == workload
            for pair in zip(runs, change.get((name, seed), []))
        ]
        for definition in spec["end_to_end"] if pairs else []:
            metric = definition["name"]
            wins, base, new, holds = claim(
                [p[metric] for p, _c in pairs],
                [c[metric] for _p, c in pairs],
                definition["better"],
            )
            print(
                f"{workload:16s} {metric:18s} {wins:3d}/{len(pairs):<3d} "
                f"{base[1]:12.6g} [{base[0]:10.6g}, {base[2]:10.6g}] "
                f"{new[1]:12.6g} [{new[0]:10.6g}, {new[2]:10.6g}] "
                f"{base[2] - base[0]:11.4g}  {'holds' if holds else 'no'}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
