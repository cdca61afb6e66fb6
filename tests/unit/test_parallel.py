"""Unit tests for the multi-core kernel scheduler (repro.parallel)."""

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.records import IndexedRecord
from repro.crypto.aes import AesKey, encrypt_blocks
from repro.crypto.ope import OrderPreservingEncryption
from repro.exceptions import MetricError, ParallelError
from repro.metric.distances import L1Distance, L2Distance
from repro.metric.permutations import pivot_permutations
from repro.parallel import (
    GLOBAL_STATS,
    TaskSlice,
    WorkerPool,
    backend,
    slice_tasks,
)
from repro.storage.disk import DiskStorage


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Each test starts from the serial default and a quiet scheduler."""
    monkeypatch.delenv(backend.WORKERS_ENV, raising=False)
    monkeypatch.delenv(backend.BACKEND_ENV, raising=False)
    GLOBAL_STATS.reset()


class TestSliceTasks:
    def test_serial_is_one_slice(self):
        assert slice_tasks(100, 1) == [TaskSlice(0, 0, 100)]

    def test_empty_range(self):
        assert slice_tasks(0, 4) == []

    @pytest.mark.parametrize("total", [1, 2, 7, 100, 1001])
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_slices_cover_range_in_order(self, total, workers):
        tasks = slice_tasks(total, workers)
        assert tasks[0].start == 0
        assert tasks[-1].stop == total
        for previous, current in zip(tasks, tasks[1:]):
            assert current.start == previous.stop
            assert current.task_id == previous.task_id + 1
        assert sum(len(t) for t in tasks) == total

    def test_min_items_floor(self):
        tasks = slice_tasks(1000, 4, min_items=300)
        # 1000 // 300 = 3 tasks of >= 300 items each
        assert len(tasks) == 3
        assert all(len(t) >= 300 for t in tasks)

    def test_deterministic(self):
        assert slice_tasks(777, 4) == slice_tasks(777, 4)

    def test_invalid_min_items(self):
        with pytest.raises(ParallelError):
            slice_tasks(10, 2, min_items=0)


class TestWorkerPool:
    def test_results_merge_in_task_order(self):
        pool = WorkerPool(4)
        try:
            tasks = slice_tasks(97, 4)
            results = pool.run(tasks, lambda t: (t.task_id, t.start))
            assert [t.task_id for t, _ in results] == list(range(len(tasks)))
            assert [r for _, r in results] == [
                (t.task_id, t.start) for t in tasks
            ]
        finally:
            pool.shutdown()

    def test_worker_crash_surfaces_typed_error(self):
        pool = WorkerPool(2)
        try:
            def crash(task):
                raise ValueError("boom")

            with pytest.raises(ParallelError, match="boom"):
                pool.run(slice_tasks(10, 2), crash)
        finally:
            pool.shutdown()

    def test_library_errors_pass_through_unwrapped(self):
        pool = WorkerPool(2)
        try:
            def crash(task):
                raise MetricError("domain error")

            with pytest.raises(MetricError, match="domain error"):
                pool.run(slice_tasks(10, 2), crash)
        finally:
            pool.shutdown()

    def test_pool_survives_a_failed_batch(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(ParallelError):
                pool.run(slice_tasks(4, 2), lambda t: 1 / 0)
            results = pool.run(slice_tasks(4, 2), lambda t: len(t))
            assert sum(r for _, r in results) == 4
        finally:
            pool.shutdown()


class TestEnvKnobs:
    def test_default_is_serial(self):
        assert backend.kernel_workers() == 1

    def test_env_sets_workers(self, monkeypatch):
        monkeypatch.setenv(backend.WORKERS_ENV, "3")
        assert backend.kernel_workers() == 3

    @pytest.mark.parametrize("raw", ["0", "-2"])
    def test_nonpositive_means_serial(self, monkeypatch, raw):
        monkeypatch.setenv(backend.WORKERS_ENV, raw)
        assert backend.kernel_workers() == 1

    def test_invalid_workers_raise(self, monkeypatch):
        monkeypatch.setenv(backend.WORKERS_ENV, "many")
        with pytest.raises(ParallelError, match="REPRO_KERNEL_WORKERS"):
            backend.kernel_workers()

    def test_invalid_backend_raises(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV, "gpu")
        with pytest.raises(ParallelError, match="REPRO_KERNEL_BACKEND"):
            backend.backend_mode("distance")

    def test_backend_default_is_thread(self):
        assert backend.backend_mode("distance") == "thread"

    def test_override_wins_and_restores(self, monkeypatch):
        monkeypatch.setenv(backend.WORKERS_ENV, "2")
        with backend.workers_override(4):
            assert backend.kernel_workers() == 4
        assert backend.kernel_workers() == 2

    def test_serial_backend_disables_parallel(self, monkeypatch):
        monkeypatch.setenv(backend.WORKERS_ENV, "4")
        monkeypatch.setenv(backend.BACKEND_ENV, "serial")
        ran = backend.parallel_slices(
            "decompress", 100, lambda s, e: None, lambda s, e, r: None
        )
        assert ran is False

    def test_small_inputs_stay_serial(self, monkeypatch):
        monkeypatch.setenv(backend.WORKERS_ENV, "4")
        ran = backend.parallel_slices(
            "aes", 100, lambda s, e: None, lambda s, e, r: None
        )
        assert ran is False  # 100 blocks < 2 * 256


class TestKernelEquivalence:
    """Serial vs parallel bit-identity on every kernel family."""

    @pytest.fixture()
    def rng(self):
        return np.random.default_rng(99)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("distance", [L1Distance(), L2Distance()])
    def test_pairwise(self, rng, workers, distance):
        qs = rng.normal(size=(301, 9))
        xs = rng.normal(size=(37, 9))
        serial = distance.pairwise(qs, xs)
        with backend.workers_override(workers):
            parallel = distance.pairwise(qs, xs)
        assert serial.tobytes() == parallel.tobytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_ope_matrix(self, rng, workers):
        ope = OrderPreservingEncryption(b"secret-ope-key").fit(
            rng.uniform(0, 50, size=400)
        )
        # values beyond the calibrated domain exercise the slope branch
        matrix = rng.uniform(0, 80, size=(300, 24))
        serial = ope.encrypt(matrix)
        with backend.workers_override(workers):
            parallel = ope.encrypt(matrix)
        assert serial.tobytes() == parallel.tobytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_aes_blocks(self, rng, workers):
        key = AesKey(b"0123456789abcdef")
        blocks = rng.integers(0, 256, size=(1500, 16), dtype=np.uint8)
        serial = encrypt_blocks(key, blocks)
        with backend.workers_override(workers):
            parallel = encrypt_blocks(key, blocks)
        assert serial.tobytes() == parallel.tobytes()

    def test_aes_slices_across_kernel_slabs(self, rng, monkeypatch):
        """Worker slices that start and end inside the kernel's fixed
        slabs are byte-identical to one serial pass, on both backends
        (the ``aes_blocks`` process kernel runs the same core)."""
        from repro.crypto.aes import _SLAB

        key = AesKey(b"0123456789abcdef")
        blocks = rng.integers(
            0, 256, size=(3 * _SLAB + 7, 16), dtype=np.uint8
        )
        serial = encrypt_blocks(key, blocks)
        for name in ("thread", "process"):
            monkeypatch.setenv(backend.BACKEND_ENV, name)
            GLOBAL_STATS.reset()
            with backend.workers_override(2):
                parallel = encrypt_blocks(key, blocks)
            assert serial.tobytes() == parallel.tobytes()
            assert GLOBAL_STATS.snapshot()["kernel_parallel_batches"] == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pivot_permutations(self, rng, workers):
        matrix = rng.uniform(0, 10, size=(400, 8))
        # duplicated columns force rank ties through the stable sort
        matrix[:, 3] = matrix[:, 5]
        serial = pivot_permutations(matrix)
        with backend.workers_override(workers):
            parallel = pivot_permutations(matrix)
        assert serial.tobytes() == parallel.tobytes()

    def test_metric_domain_error_survives_parallelism(self, rng):
        from repro.metric.distances import CosineDistance

        qs = rng.normal(size=(200, 6))
        qs[137] = 0.0  # zero vector is outside the cosine domain
        xs = rng.normal(size=(10, 6))
        with backend.workers_override(2):
            with pytest.raises(MetricError):
                CosineDistance().pairwise(qs, xs)

    def test_counters_track_parallel_batches(self, rng):
        key = AesKey(b"0123456789abcdef")
        blocks = rng.integers(0, 256, size=(1024, 16), dtype=np.uint8)
        GLOBAL_STATS.reset()
        with backend.workers_override(2):
            encrypt_blocks(key, blocks)
        snapshot = GLOBAL_STATS.snapshot()
        assert snapshot["kernel_parallel_batches"] == 1
        assert snapshot["kernel_tasks"] >= 2
        assert snapshot["kernel_workers"] == 2

    def test_serial_runs_record_nothing(self, rng):
        key = AesKey(b"0123456789abcdef")
        blocks = rng.integers(0, 256, size=(1024, 16), dtype=np.uint8)
        GLOBAL_STATS.reset()
        encrypt_blocks(key, blocks)
        assert GLOBAL_STATS.snapshot()["kernel_parallel_batches"] == 0


class TestProcessBackend:
    """Shared-memory round trips through spawn workers."""

    @pytest.mark.parametrize(
        "kernel, build",
        [
            (
                "distance",
                lambda rng: (
                    L2Distance().pairwise,
                    (rng.normal(size=(200, 8)), rng.normal(size=(30, 8))),
                ),
            ),
            (
                "aes",
                lambda rng: (
                    lambda blocks: encrypt_blocks(
                        AesKey(b"fedcba9876543210"), blocks
                    ),
                    (
                        rng.integers(
                            0, 256, size=(1024, 16), dtype=np.uint8
                        ),
                    ),
                ),
            ),
        ],
    )
    def test_round_trip_matches_serial(self, monkeypatch, kernel, build):
        rng = np.random.default_rng(5)
        fn, args = build(rng)
        serial = fn(*args)
        monkeypatch.setenv(backend.BACKEND_ENV, "process")
        GLOBAL_STATS.reset()
        with backend.workers_override(2):
            parallel = fn(*args)
        assert serial.tobytes() == parallel.tobytes()
        assert GLOBAL_STATS.snapshot()["kernel_parallel_batches"] == 1

    def test_ope_round_trip_matches_serial(self, monkeypatch):
        rng = np.random.default_rng(6)
        ope = OrderPreservingEncryption(b"proc-ope").fit(
            rng.uniform(0, 20, size=300)
        )
        matrix = rng.uniform(0, 30, size=(128, 32))
        serial = ope.encrypt(matrix)
        monkeypatch.setenv(backend.BACKEND_ENV, "process")
        with backend.workers_override(2):
            parallel = ope.encrypt(matrix)
        assert serial.tobytes() == parallel.tobytes()

    def test_kind_without_process_kernel_uses_threads(self, monkeypatch):
        monkeypatch.setenv(backend.BACKEND_ENV, "process")
        out = [None] * 64
        with backend.workers_override(2):
            ran = backend.parallel_slices(
                "decompress",
                64,
                lambda s, e: list(range(s, e)),
                lambda s, e, r: out.__setitem__(slice(s, e), r),
            )
        assert ran is True
        assert out == list(range(64))


def _records(n, n_pivots=4):
    rng = np.random.default_rng(0)
    return [
        IndexedRecord(
            oid,
            rng.permutation(n_pivots).astype(np.int32),
            rng.random(n_pivots),
            bytes(rng.integers(0, 256, size=120, dtype=np.uint8)),
        )
        for oid in range(n)
    ]


class TestParallelDecompression:
    def _as_tuples(self, records):
        return [
            (r.oid, r.permutation.tobytes(), r.payload) for r in records
        ]

    def test_cold_load_matches_serial_and_counts_exactly(self, tmp_path):
        records = _records(80)
        writer = DiskStorage(tmp_path / "cells", chunk_raw_bytes=256)
        writer.save("cell", records)
        n_chunks = len(writer._catalog["cell"].chunks)
        assert n_chunks >= 4  # the point is a multi-chunk scan

        serial = DiskStorage(tmp_path / "cells", chunk_raw_bytes=256)
        expected = self._as_tuples(serial.load("cell"))

        cold = DiskStorage(tmp_path / "cells", chunk_raw_bytes=256)
        GLOBAL_STATS.reset()
        with backend.workers_override(2):
            loaded = self._as_tuples(cold.load("cell"))
        assert loaded == expected
        assert GLOBAL_STATS.snapshot()["kernel_parallel_batches"] == 1
        # exact accounting: every chunk was a miss and was decompressed
        assert cold.block_cache_hits == 0
        assert cold.block_cache_misses == n_chunks
        assert cold.chunks_decompressed == n_chunks

    def test_warm_load_hits_cache_without_scheduler(self, tmp_path):
        records = _records(80)
        storage = DiskStorage(tmp_path / "cells", chunk_raw_bytes=256)
        storage.save("cell", records)
        n_chunks = len(storage._catalog["cell"].chunks)
        with backend.workers_override(2):
            storage.load("cell")
            GLOBAL_STATS.reset()
            warm = self._as_tuples(storage.load("cell"))
        assert warm == self._as_tuples(records)
        assert GLOBAL_STATS.snapshot()["kernel_parallel_batches"] == 0
        assert storage.block_cache_hits == n_chunks
        # invariant: hits + misses == chunk accesses (two loads)
        assert (
            storage.block_cache_hits + storage.block_cache_misses
            == 2 * n_chunks
        )
        assert storage.chunks_decompressed == storage.block_cache_misses


class TestDeploymentEquivalence:
    """End-to-end: same cells and same answers at every worker count."""

    def _build(self, data, queries):
        cloud = SimilarityCloud.build(
            data,
            distance=L1Distance(),
            n_pivots=8,
            bucket_capacity=40,
            strategy=Strategy.APPROXIMATE,
            seed=7,
        )
        cloud.owner.outsource(range(len(data)), data)
        client = cloud.new_client()
        cells = {
            tuple(cell): sorted(
                record.oid for record in cloud.server.storage.load(cell)
            )
            for cell in cloud.server.storage.cells()
        }
        hits = [
            [(h.oid, h.distance) for h in
             client.knn_search(q, 5, cand_size=120)]
            for q in queries
        ]
        return cells, hits

    def test_workers_sweep_is_bit_identical(self, small_data, queries):
        with backend.workers_override(1):
            reference = self._build(small_data, queries)
        for workers in (2, 4):
            with backend.workers_override(workers):
                assert self._build(small_data, queries) == reference


class TestCountersSurface:
    def test_stats_rpc_and_client_report_expose_kernel_counters(
        self, small_data
    ):
        with backend.workers_override(2):
            cloud = SimilarityCloud.build(
                small_data,
                distance=L1Distance(),
                n_pivots=8,
                bucket_capacity=40,
                strategy=Strategy.APPROXIMATE,
                seed=7,
            )
            GLOBAL_STATS.reset()
            cloud.owner.outsource(range(len(small_data)), small_data)
            client = cloud.new_client()
            reader = client.rpc.call("stats")
            stats = {}
            for _ in range(reader.u32()):
                key = reader.string()
                stats[key] = reader.f64()
        # the 600x12 construction pairwise kernel is large enough to
        # engage the scheduler, and the counters ride the stats RPC
        assert stats["kernel_parallel_batches"] >= 1
        assert stats["kernel_tasks"] >= 2
        assert stats["kernel_workers"] == 2
        extras = client.report().extras
        assert extras["kernel_parallel_batches"] >= 1
        assert extras["kernel_workers"] == 2
