"""Command-line interface: ``python -m repro <command>``.

Four commands for kicking the tires without writing code:

* ``info`` — version, implemented systems and their privacy levels,
* ``demo`` — build an encrypted deployment over a named dataset, run a
  query sweep and print the paper-style cost table,
* ``serve`` — stand up a similarity-cloud server over a named dataset
  on a real TCP port,
* ``attack`` — play the compromised server against a fresh deployment
  and report what leaks under the chosen strategy.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

import numpy as np

from repro import __version__
from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.evaluation.metrics import exact_knn, recall
from repro.evaluation.runner import (
    run_encrypted_construction,
    run_encrypted_search_sweep,
)
from repro.evaluation.tables import format_matrix, format_search_table
from repro.metric.distances import L1Distance
from repro.metric.space import MetricSpace
from repro.privacy.attacks import (
    CooccurrenceAttack,
    DistanceDistributionAttack,
    PermutationFrequencyAttack,
)
from repro.privacy.levels import KNOWN_SYSTEMS, classify_system

__all__ = ["main"]


def _cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} - Encrypted M-Index reproduction")
    print("(Kozak, Novak, Zezula: Secure Metric-Based Index for "
          "Similarity Cloud, SDM@VLDB 2012)\n")
    rows = [
        (name, [f"level {int(classify_system(profile))}"])
        for name, profile in sorted(KNOWN_SYSTEMS.items())
    ]
    print(
        format_matrix(
            "Implemented systems and their privacy level (paper §2.3)",
            ["privacy"],
            rows,
            row_header="System",
        )
    )
    print(f"\ndatasets: {', '.join(DATASET_NAMES)}")
    print("strategies: " + ", ".join(s.value for s in Strategy))
    return 0


def _parse_strategy(name: str) -> Strategy:
    try:
        return Strategy(name)
    except ValueError:
        raise SystemExit(
            f"unknown strategy {name!r}; choose from "
            f"{', '.join(s.value for s in Strategy)}"
        )


def _cmd_demo(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, **(
        {"n_records": args.records} if args.dataset == "cophir" else {}
    ))
    strategy = _parse_strategy(args.strategy)
    print(f"building encrypted deployment over {dataset.name} "
          f"({dataset.n_records} x {dataset.dimension}, "
          f"{dataset.n_pivots} pivots, strategy={strategy.value}) ...")
    cloud, construction = run_encrypted_construction(
        dataset, strategy=strategy, seed=args.seed
    )
    print(f"construction: {construction.overall_time:.3f}s overall, "
          f"{construction.communication_kb:.0f} kB uploaded, "
          f"{cloud.server.index.n_cells} cells\n")
    client = cloud.new_client()
    cand_sizes = args.cand_sizes or [
        max(args.k, dataset.n_records // 20),
        max(args.k, dataset.n_records // 5),
    ]
    rows = run_encrypted_search_sweep(
        client,
        dataset,
        k=args.k,
        cand_sizes=cand_sizes,
        n_queries=min(args.queries, len(dataset.queries)),
    )
    print(
        format_search_table(
            f"Approximate {args.k}-NN on {dataset.name} "
            f"({min(args.queries, len(dataset.queries))} queries, "
            "per-query averages)",
            rows,
        )
    )
    if strategy is not Strategy.APPROXIMATE:
        q = dataset.queries[0]
        hits = client.knn_precise(q, args.k)
        truth = exact_knn(dataset.distance, dataset.vectors, q, args.k)
        print(f"\nprecise {args.k}-NN check on one query: recall "
              f"{recall([h.oid for h in hits], truth):.0f}% (guaranteed 100)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, **(
        {"n_records": args.records} if args.dataset == "cophir" else {}
    ))
    strategy = _parse_strategy(args.strategy)
    print(f"building encrypted deployment over {dataset.name} "
          f"({dataset.n_records} x {dataset.dimension}, "
          f"strategy={strategy.value}"
          + (f", shards={args.shards}" if args.shards > 1 else "")
          + ") ...")
    cloud = SimilarityCloud.build(
        dataset.vectors,
        distance=dataset.distance,
        n_pivots=dataset.n_pivots,
        bucket_capacity=dataset.bucket_capacity,
        strategy=strategy,
        seed=args.seed,
        transport="tcp-async",
        shards=args.shards,
    )
    cloud.owner.outsource(range(dataset.n_records), dataset.vectors)
    if cloud.cluster is not None:
        total = sum(len(s.index) for s in cloud.cluster.servers)
        ports = ", ".join(
            f"{t.host}:{t.port}" for t in cloud.cluster._transports
        )
        print(f"serving {total} records across {args.shards} shards "
              f"on {ports}")
    else:
        server = cloud._tcp_server
        print(f"serving {len(cloud.server.index)} records on "
              f"{server.host}:{server.port}")
    # SIGTERM triggers the same graceful path as Ctrl-C: drain (finish
    # in-flight requests, flush storage), then close
    stop = threading.Event()
    previous = None
    try:
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: stop.set()
        )
    except ValueError:
        pass  # not the main thread (e.g. under a test runner)
    try:
        if args.duration is None:
            print("press Ctrl-C to stop")
            while not stop.is_set():
                stop.wait(3600)
        elif args.duration > 0:
            stop.wait(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        print("draining ...")
        drained = cloud.drain(args.drain_timeout)
        cloud.close()
        print("server stopped" + ("" if drained else " (drain timed out)"))
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    strategy = _parse_strategy(args.strategy)
    rng = np.random.default_rng(args.seed)
    centers = rng.normal(0.0, 10.0, size=(5, 12))
    data = centers[rng.integers(0, 5, size=args.records)] + rng.normal(
        0.0, 1.0, size=(args.records, 12)
    )
    cloud = SimilarityCloud.build(
        data, distance=L1Distance(), n_pivots=12, bucket_capacity=80,
        strategy=strategy, seed=args.seed,
    )
    cloud.owner.outsource(range(len(data)), data)
    view = []
    for cell in cloud.server.storage.cells():
        view.extend(cloud.server.storage.load(cell).to_records())
    print(f"attacking a {strategy.value}-strategy server holding "
          f"{len(view)} encrypted records ...\n")

    freq = PermutationFrequencyAttack(view, prefix_length=1)
    print(f"permutation frequency: largest cell = "
          f"{freq.skew() * 100:.1f}% of the collection "
          f"(uniform ~{100 / 12:.1f}%)")

    cooc = CooccurrenceAttack(view, n_pivots=12)
    score = cooc.structure_score(
        cloud.owner.secret_key.pivots, MetricSpace(L1Distance(), 12)
    )
    print(f"pivot co-occurrence: {score * 100:.0f}% of grouped pivot "
          f"pairs are truly close (50% = random guessing)")

    try:
        attack = DistanceDistributionAttack(view)
        idx = rng.choice(len(data), 200, replace=False)
        true_sample = np.array([
            float(np.abs(data[i] - data[j]).sum())
            for i, j in zip(idx[:100], idx[100:])
        ])
        print(f"distance distribution: leakage score "
              f"{attack.leakage_score(true_sample):.2f} "
              f"(1.0 = fully recovered)")
    except Exception as exc:
        print(f"distance distribution: blocked ({exc})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Encrypted M-Index reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="versions, systems, privacy levels")

    demo = sub.add_parser("demo", help="build + search a named dataset")
    demo.add_argument("--dataset", default="yeast", choices=DATASET_NAMES)
    demo.add_argument("--strategy", default="approximate")
    demo.add_argument("--k", type=int, default=10)
    demo.add_argument("--queries", type=int, default=20)
    demo.add_argument("--records", type=int, default=3000,
                      help="collection size (cophir only)")
    demo.add_argument("--cand-sizes", type=int, nargs="*", dest="cand_sizes")
    demo.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="stand up a similarity-cloud server on a TCP port"
    )
    serve.add_argument("--dataset", default="yeast", choices=DATASET_NAMES)
    serve.add_argument("--strategy", default="precise")
    serve.add_argument("--records", type=int, default=3000,
                       help="collection size (cophir only)")
    serve.add_argument("--shards", type=int, default=1,
                       help="partition the cell tree across N shard "
                            "servers (each on its own port); clients "
                            "scatter-gather through a ShardRouter with "
                            "bit-identical results")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="seconds to wait for in-flight requests on "
                            "shutdown (SIGTERM and Ctrl-C both drain "
                            "gracefully before closing)")
    serve.add_argument("--duration", type=float, default=None,
                       help="seconds to serve (default: until Ctrl-C; "
                            "0 = start, print the port, and stop)")
    serve.add_argument("--seed", type=int, default=0)

    attack = sub.add_parser("attack", help="simulate a compromised server")
    attack.add_argument("--strategy", default="precise")
    attack.add_argument("--records", type=int, default=1000)
    attack.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "demo": _cmd_demo,
    "serve": _cmd_serve,
    "attack": _cmd_attack,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
