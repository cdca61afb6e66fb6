"""End-to-end benchmark of the Encrypted M-Index deployments.

    python3 benchmarks/e2e/run.py --workload knn1_inproc --seed 1 \\
        --seconds 15 --trace 0

runs one workload and prints every end-to-end metric by name with its
unit, direction, sample count and regression bound, then, as the last
line of standard output, one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics instead. Without
``--workload`` all four run in turn. ``--smoke`` runs the whole matrix
at 1/20 size with every check on. ``--out F.json`` appends the full
record of each run to ``F.json`` for ``compare.py``.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the repository root, which is the one place they are fixed. See
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# the program under test; shard processes are spawned, so they import it
# through the environment as well
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
)

SETUP_REPEATS = 3
SMOKE_SCALE = 0.05


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mean_slowdown(rounds) -> float:
    """The host's slowdown over ``rounds``, weighted by their wall time."""
    return sum(r.wall for r in rounds) / sum(
        r.wall / r.slowdown for r in rounds
    )


def run_workload(cls, *, seed, seconds, trace, scale, repeats, workdir):
    """Set up, measure, check and tear down one workload; its record."""
    from reference import Pacer
    from trace import Tracer
    from workloads import process_usage

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    pacer = Pacer()
    workload = None
    try:
        setups = []
        for _ in range(repeats):
            if workload is not None:
                workload.close()
                workload = None  # free one deployment before the next
            slowdown = pacer.read()
            start = time.perf_counter()
            workload = cls(seed, scale, workdir, tracer, pacer)
            workload.setup()
            elapsed = time.perf_counter() - start
            setups.append(2.0 * elapsed / (slowdown + pacer.read()))
        rounds = []
        measured = 0.0
        # the first ``prefix_rounds`` always run: wire bytes, recall and
        # the answer digest come from them alone, so they repeat exactly
        # however many further rounds the time budget allows
        while len(rounds) < cls.prefix_rounds or measured < seconds:
            index = len(rounds)
            workload.traced = bool(trace) and index % 2 == 1
            round_ = workload.run_round(index)
            measured += round_.wall
            workload.check_round(index, round_)
            for op in round_.ops:
                op.release(cls.batched)
            rounds.append(round_)
            if len(rounds) == cls.prefix_rounds:
                digest = workload.digest.hexdigest()
        verification = workload.finish()
        _, peak_rss_mb = process_usage([os.getpid()] + workload.child_pids())
        record = summarise(
            workload, rounds, verification, setups, tracer, peak_rss_mb
        )
        record.update(
            workload=cls.name, seed=seed, seconds=seconds, trace=int(trace),
            scale=scale, answers_sha256=digest,
        )
        if tracer is not None:
            tracer.write(
                str(HERE / "results" / f"trace_{cls.name}.json"),
                {"workload": cls.name, "seed": seed, "scale": scale},
            )
        return record
    finally:
        if workload is not None:
            workload.close()
        if tracer is not None:
            tracer.uninstall()


def summarise(workload, rounds, verification, setups, tracer, peak_rss_mb):
    """End-to-end and per-layer metrics of one run."""
    plain = [r for r in rounds if not r.traced]
    ops = [op for r in plain for op in r.ops]
    prefix = [op for r in rounds[:workload.prefix_rounds] for op in r.ops]
    every = [op for r in rounds for op in r.ops]
    checked = every + verification
    failed = sum(op.failed for op in checked)
    recalls = [
        recall for op in (verification or prefix) for recall in op.recalls
    ]
    # every timing is in seconds of the undisturbed host: see reference.py
    latencies = [op.latency_ms for op in ops]
    throughputs = [r.items * r.slowdown / r.wall for r in plain]
    end_to_end = {
        "setup_s": (median(setups), len(setups)),
        "throughput_per_s": (median(throughputs), len(throughputs)),
        "latency_p50_ms": (median(latencies), len(latencies)),
        "latency_tail_ms": (
            percentile(latencies, workload.tail_percentile), len(latencies),
        ),
        "cpu_s_per_op": (
            sum(r.cpu / r.slowdown for r in plain) / len(ops), len(ops),
        ),
        "wire_bytes_per_op": (
            sum(op.sent + op.received for op in prefix) / len(prefix),
            len(prefix),
        ),
        "recall": (sum(recalls) / len(recalls), len(recalls)),
        "ok_share": (1.0 - failed / len(checked), len(checked)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    record = {
        "rounds": len(rounds),
        "attempted": len(checked),
        "failed": failed,
        "failures": sorted(
            {op.error or op.problem for op in checked if op.failed}
        )[:10],
        "item": workload.item,
        "tail_percentile": workload.tail_percentile,
        "prefix_rounds": workload.prefix_rounds,
        "host_slowdown": mean_slowdown(rounds),
        "round_throughput_per_s": throughputs,
        "end_to_end": {
            name: {"value": value, "samples": samples}
            for name, (value, samples) in end_to_end.items()
        },
    }
    if tracer is not None:
        record["per_layer"], record["trace_check"] = per_layer(
            workload, rounds, every, ops, throughputs, tracer
        )
    return record


def per_layer(workload, rounds, every, plain_ops, plain_throughputs, tracer):
    """Per-layer metrics: self times from spans, counts from counters."""
    spans = tracer.analyse()
    traced = [r for r in rounds if r.traced]
    traced_ops = spans["roots"]
    # span times are raw; bring them to the undisturbed host's seconds
    # with the traced rounds' mean slowdown, as the end-to-end ones are
    slowdown = mean_slowdown(traced)
    run_slowdown = mean_slowdown(rounds)
    n_ops = len(every)
    counts: dict[str, float] = {}
    for r in rounds:
        for key, value in r.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    gauges = rounds[-1].gauges
    searches = [op for op in every if op.kind in ("knn", "range")]
    queries = len(searches) * (workload.batch if workload.batched else 1)
    hits = sum(op.hits for op in searches)
    inserted_bytes = sum(op.sent for op in every if op.kind == "insert")

    def span_ms(seconds):
        return ratio(seconds, traced_ops * slowdown) * 1e3

    def self_ms(metric):
        return span_ms(spans["self_s"].get(metric, 0.0))

    def per_op(key):
        return ratio(counts.get(key, 0.0), n_ops)

    def kind_p50(kind):
        return median([op.latency_ms for op in plain_ops if op.kind == kind])

    def reported_ms(seconds):
        # busy time the servers report themselves, over all rounds
        return ratio(seconds, n_ops * run_slowdown) * 1e3

    def extra_ms(key):
        # timed by the workload around each round, so scaled by the run
        return median(workload.extra.get(key, [])) * 1e3 / run_slowdown

    request_s = sum(
        seconds
        for label, seconds in spans["duration_s"].items()
        if label.endswith("Channel.request")
    )
    # a shard process answers inside the request span and cannot be
    # wrapped, so its own report of its busy time is taken out
    remote_s = (
        sum(r.counts["server_reported_s"] for r in traced)
        if workload.remote_servers else 0.0
    )
    decrypted = spans["work"].get("AesCipher.decrypt_many", 0)
    decrypt_s = spans["self_s"].get("crypto.decrypt_ms_per_op", 0.0)
    busy = [
        value for key, value in sorted(counts.items())
        if key.startswith("shard_busy_s.")
    ]
    cache_lookups = (
        counts["storage_block_cache_hits"]
        + counts["storage_block_cache_misses"]
    )
    traced_throughput = median(
        [r.items * r.slowdown / r.wall for r in traced]
    )
    metrics = {
        "client.self_ms_per_op": self_ms("client.self_ms_per_op"),
        "client.candidates_per_query": ratio(
            counts["candidates_received"], queries
        ),
        "client.refine_yield": ratio(hits, counts["candidates_refined"]),
        "client.range_p50_ms": kind_p50("range"),
        "client.knn_p50_ms": kind_p50("knn"),
        "client.insert_p50_ms": kind_p50("insert"),
        "client.delete_p50_ms": kind_p50("delete"),
        "crypto.encrypt_ms_per_op": self_ms("crypto.encrypt_ms_per_op"),
        "crypto.decrypt_ms_per_op": self_ms("crypto.decrypt_ms_per_op"),
        "crypto.decrypt_us_per_candidate": ratio(
            decrypt_s, decrypted * slowdown
        ) * 1e6,
        "crypto.bytes_decrypted_per_op": ratio(
            decrypted * workload.token_bytes(), traced_ops
        ),
        "metric.distance_ms_per_op": self_ms("metric.distance_ms_per_op"),
        "metric.distances_per_op": per_op("distance_computations"),
        "wire.encode_ms_per_op": self_ms("wire.encode_ms_per_op"),
        "wire.decode_ms_per_op": self_ms("wire.decode_ms_per_op"),
        "wire.request_bytes_per_op": ratio(
            sum(op.sent for op in every), n_ops
        ),
        "wire.response_bytes_per_op": ratio(
            sum(op.received for op in every), n_ops
        ),
        "net.request_ms_per_op": span_ms(request_s),
        "net.transit_ms_per_op": span_ms(
            spans["self_s"].get("net.transit_ms_per_op", 0.0) - remote_s
        ),
        "net.requests_per_op": per_op("requests"),
        "net.retries": counts["retries_attempted"],
        "net.reconnects": counts["reconnects"],
        "server.handle_self_ms_per_op": self_ms(
            "server.handle_self_ms_per_op"
        ),
        "server.lock_wait_ms_per_op": self_ms("server.lock_wait_ms_per_op"),
        "server.reported_ms_per_op": reported_ms(counts["server_reported_s"]),
        "server.requests_shed": counts["requests_shed"],
        "server.deadline_expirations": counts["deadline_expirations"],
        "mindex.search_self_ms_per_op": self_ms(
            "mindex.search_self_ms_per_op"
        ),
        "mindex.insert_self_ms_per_op": self_ms(
            "mindex.insert_self_ms_per_op"
        ),
        "mindex.cells_read_per_query": ratio(
            counts["storage_reads"], queries
        ),
        "mindex.n_cells": gauges["n_cells"],
        "mindex.depth": gauges["depth"],
        "storage.read_ms_per_op": self_ms("storage.read_ms_per_op"),
        "storage.write_ms_per_op": self_ms("storage.write_ms_per_op"),
        "storage.reads_per_op": per_op("storage_reads"),
        "storage.writes_per_op": per_op("storage_writes"),
        "storage.bytes_read_per_op": per_op("storage_bytes_read"),
        "storage.write_amplification": ratio(
            counts["storage_bytes_written"], inserted_bytes
        ),
        "storage.disk_bytes_per_object": workload.disk_bytes_per_object(),
        "storage.cache_hit_ratio": ratio(
            counts["storage_block_cache_hits"], cache_lookups
        ),
        "storage.chunks_decompressed_per_op": per_op(
            "storage_chunks_decompressed"
        ),
        "storage.manifest_writes_per_op": per_op("storage_manifest_writes"),
        "storage.fsyncs_per_op": ratio(spans["fsyncs"], traced_ops),
        "storage.flush_ms": extra_ms("flush_s"),
        "storage.reopen_ms": extra_ms("reopen_s"),
        "parallel.kernel_tasks_per_op": per_op("kernel_tasks"),
        "parallel.parallel_batches_per_op": per_op("kernel_parallel_batches"),
        "parallel.workers": gauges["kernel_workers"],
        "cluster.route_self_ms_per_op": self_ms(
            "cluster.route_self_ms_per_op"
        ),
        "cluster.merge_ms_per_op": self_ms("cluster.merge_ms_per_op"),
        "cluster.scatter_wait_ms_per_op": span_ms(spans["scatter_wait_s"]),
        "cluster.shard_busy_ms_per_op": reported_ms(sum(busy)),
        "cluster.shard_imbalance": ratio(
            max(busy, default=0.0), ratio(sum(busy), len(busy))
        ),
        "cluster.shards_skipped": counts["shards_skipped"],
        "trace.overhead_share": 1.0 - ratio(
            traced_throughput, median(plain_throughputs)
        ),
        "trace.spans": spans["spans"],
    }
    trace_check = {
        # self times of an op's spans over the op's root spans; above 1
        # where shard calls overlap
        "attributed_share": ratio(spans["attributed_s"], spans["root_s"]),
        # spans that found no op to belong to
        "orphan_share": ratio(spans["orphan_s"], spans["root_s"]),
        "traced_ops": traced_ops,
    }
    return metrics, trace_check


def report(record, spec) -> dict:
    """Print one run's table; returns the result line's object."""
    print(
        f"\n== {record['workload']}  seed {record['seed']}  "
        f"{record['rounds']} rounds  {record['attempted']} ops checked, "
        f"{record['failed']} failed  (throughput counts {record['item']}, "
        f"tail is p{record['tail_percentile']})"
    )
    print(f"   answers sha256 (first {record['prefix_rounds']} rounds): "
          f"{record['answers_sha256']}")
    print(f"   host slowdown while measuring: {record['host_slowdown']:.3f} "
          "(timings are divided by it, see reference.py)")
    for failure in record["failures"]:
        print(f"   FAILED: {failure}")
    section = "per_layer" if record["trace"] else "end_to_end"
    print(f"   {'metric':36s} {'value':>14s} {'unit':8s} {'better':7s} "
          f"{'bound':>6s} {'samples':>8s}")
    for definition in spec["end_to_end"]:
        entry = record["end_to_end"][definition["name"]]
        print(
            f"   {definition['name']:36s} {entry['value']:14.6g} "
            f"{definition['unit']:8s} {definition['better']:7s} "
            f"{definition['bound']:6.3f} {entry['samples']:8d}"
        )
    if record["trace"]:
        for definition in spec["per_layer"]:
            value = record["per_layer"][definition["name"]]
            print(
                f"   {definition['name']:36s} {value:14.6g} "
                f"{definition['unit']:8s} {definition['better']:7s}"
            )
        for name, value in record["trace_check"].items():
            print(f"   (trace check) {name:22s} {value:14.6g}")
    values = (
        record["per_layer"] if record["trace"]
        else {k: v["value"] for k, v in record["end_to_end"].items()}
    )
    missing = {d["name"] for d in spec[section]} ^ set(values)
    if missing:
        raise SystemExit(f"BENCHMARK.json and the harness disagree: {missing}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in spec[section]
        },
    }


def host_record(allowed_env) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "repro_kernel_env": allowed_env,
    }


def append_record(path: str, record: dict, allowed_env) -> None:
    if os.path.exists(path):
        with open(path) as handle:
            document = json.load(handle)
    else:
        document = {"host": host_record(allowed_env), "runs": []}
    document["runs"].append(record)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


def smoke(spec, workdir) -> None:
    """The whole matrix at 1/20 size: every metric finite, nothing failed."""
    import check
    from workloads import WORKLOADS

    check.self_check()
    print("self-check: corrupted answers are counted as failed")
    for workload in spec["workloads"]:
        record = run_workload(
            WORKLOADS[workload["name"]], seed=1, seconds=1, trace=True,
            scale=SMOKE_SCALE, repeats=1, workdir=workdir,
        )
        report(record, spec)
        values = dict(record["per_layer"])
        values.update(
            {k: v["value"] for k, v in record["end_to_end"].items()}
        )
        for definition in spec["end_to_end"] + spec["per_layer"]:
            if not math.isfinite(values[definition["name"]]):
                raise SystemExit(f"{definition['name']} is not finite")
        if record["failed"]:
            raise SystemExit(f"{record['failed']} operations failed")
    print("\nsmoke ok")


def child_pids() -> list:
    """Live or unreaped processes whose parent is this one."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == os.getpid():
            pids.append(int(entry))
    return pids


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The workloads reap their shard processes themselves, but spawning
    them also starts ``multiprocessing``'s resource tracker, which lives
    until its pipe to this process closes, that is, until after this
    process has exited. It is stopped and waited for here, and whatever
    else is still a child then (nothing, on every path known) is
    terminated and waited for too, so that nothing outlives a run.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    try:
        if hasattr(tracker, "_stop"):
            tracker._stop()
        elif getattr(tracker, "_fd", None) is not None:
            os.close(tracker._fd)  # closing the pipe ends the tracker
            tracker._fd = None
            os.waitpid(tracker._pid, 0)
            tracker._pid = None
    except (OSError, ChildProcessError):
        pass  # already gone; the sweep below sees to the rest
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
            deadline = time.monotonic() + 10.0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.05)
        except (ProcessLookupError, ChildProcessError):
            pass  # ended and reaped meanwhile


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [definition["name"] for definition in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="append each run's record to this file")
    parser.add_argument(
        "--allow-env", action="store_true",
        help="run although REPRO_KERNEL_* is set, and record the values",
    )
    args = parser.parse_args(argv)

    kernel_env = {
        key: value for key, value in os.environ.items()
        if key.startswith("REPRO_KERNEL_")
    }
    if kernel_env and not args.allow_env:
        parser.error(
            f"{', '.join(sorted(kernel_env))} set: the benchmark measures "
            "the shipped default; pass --allow-env to record and keep them"
        )

    # Ctrl-C and SIGTERM unwind through the finally blocks, which close
    # clouds, reap shard processes and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(HERE / ".work", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=HERE / ".work")
    try:
        if args.smoke:
            smoke(spec, workdir)
            return 0
        from workloads import WORKLOADS

        for name in [args.workload] if args.workload else names:
            record = run_workload(
                WORKLOADS[name], seed=args.seed, seconds=args.seconds,
                trace=args.trace, scale=1.0, repeats=SETUP_REPEATS,
                workdir=workdir,
            )
            result = report(record, spec)
            if args.out:
                append_record(args.out, record, kernel_env)
            print(json.dumps(result), flush=True)
        return 0
    finally:
        try:
            stop_child_processes()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
