"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both files are what ``run.py --out`` writes. For every end-to-end
metric of every workload the table gives the base median, the new
median, their ratio with its base, and a verdict against the bound in
``BENCHMARK.json``:

``worse``       the new median is worse than the base's by more than the bound
``better``      it is better by more than the bound and the spread
``same``        neither
``unresolved``  the run-to-run spread (distance between the quartiles as
                a share of the median, the larger of the two sides) is
                wider than the bound, so a difference of the bound's size
                cannot be seen; reported instead of ``same`` or ``worse``
                unless every new run reads better than every base run

Only untraced runs count. The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> tuple[dict, dict]:
    """Of the untraced runs: {workload: {metric: [value per run]}} and
    {workload: {seed: answer digest}}."""
    with open(path) as handle:
        document = json.load(handle)
    values: dict = {}
    digests: dict = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        metrics = values.setdefault(run["workload"], {})
        for name, entry in run["end_to_end"].items():
            metrics.setdefault(name, []).append(entry["value"])
        digests.setdefault(run["workload"], {})[run["seed"]] = (
            run["answers_sha256"]
        )
    return values, digests


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


def verdict(base, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse_by = sign * (statistics.median(new) - base_median) / base_median
    noise = max(spread(base), spread(new))
    if noise > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    (base, base_digests), (new, new_digests) = load(argv[0]), load(argv[1])
    worse = 0
    print(f"{'workload':16s} {'metric':18s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread':>7s} {'bound':>6s} {'runs':>5s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in base or workload not in new:
            continue
        for definition in spec["end_to_end"]:
            name = definition["name"]
            a, b = base[workload][name], new[workload][name]
            outcome = verdict(a, b, definition["better"], definition["bound"])
            worse += outcome == "worse"
            base_median = statistics.median(a)
            print(
                f"{workload:16s} {name:18s} {base_median:12.6g} "
                f"{statistics.median(b):12.6g} "
                f"{statistics.median(b) / base_median:9.4f} "
                f"{max(spread(a), spread(b)):7.3f} "
                f"{definition['bound']:6.3f} {len(a):2d}/{len(b):<2d}  "
                f"{outcome}"
            )
        digests_a, digests_b = base_digests[workload], new_digests[workload]
        shared = set(digests_a) & set(digests_b)
        equal = sum(digests_a[seed] == digests_b[seed] for seed in shared)
        print(f"{workload:16s} answer digests equal on {equal} of "
              f"{len(shared)} shared seeds")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
