"""The paper's §5 claims as executable assertions (shape, not numbers).

Each test pins one qualitative claim from the evaluation section:

1. Encrypted communication cost grows linearly with CandSize; the
   plain variant's is flat (Tables 5/6 vs 7/8).
2. Recall grows with CandSize and exceeds 90% at ~20% of the YEAST-like
   collection (§5.3).
3. Encrypted overall search time is a small constant multiple of the
   plain variant's (§5.3: "approximately three times longer"; how small
   depends on the cipher implementation — with OpenSSL's AES this sweep
   reads 1.2–1.7x, see docs/BENCHMARKS.md).
4. Construction with encryption costs more than without, and the
   overhead is dominated by encryption + relocated distance
   computations (§5.2).
5. Decryption time scales linearly with the candidate-set size (§5.3):
   a straight line through the sweep points, whatever its intercept.
"""

import statistics
import time

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.datasets.registry import Dataset
from repro.evaluation.runner import (
    run_encrypted_construction,
    run_encrypted_search_sweep,
    run_plain_construction,
    run_plain_search_sweep,
)
from repro.metric.distances import L1Distance


@pytest.fixture(scope="module")
def yeast_like():
    """A scaled-down YEAST-shaped dataset (fast enough for CI)."""
    rng = np.random.default_rng(42)
    from repro.datasets.synthetic import gene_expression_matrix

    matrix = gene_expression_matrix(1_530, 17, rng, n_clusters=10)
    return Dataset(
        name="YEAST-small",
        vectors=matrix[:1_500],
        queries=matrix[1_500:],
        distance=L1Distance(),
        bucket_capacity=100,
        n_pivots=20,
        storage_type="memory",
    )


def _median_of(*runs, time_of):
    """The execution of median time among five of each run, the runs
    taking turns. A construction finishes in about ten milliseconds and
    a sweep point in one, so a single garbage-collection pause (whose
    timing depends on how many other test modules ran first) or a slow
    spell of a shared host can dwarf one sample: each execution is
    preceded by a collect(), and because the encrypted and the plain
    side alternate, a slow spell falls on both sides of every
    comparison. The median, not the fastest, is kept: with the
    platform's AES the encrypted side is only 1.2–1.7x the plain one,
    and an occasional lucky sample on one side moved a fastest-of-three
    ratio to 0.90–0.95 on a shared 2-core host, where the median of
    five did not go below 1.23 in 25 sweeps. That keeps the claims
    about the work done, not about allocator state or the neighbours.
    Byte counts and recall are the same in every execution."""
    import gc

    results = [[] for _ in runs]
    for _ in range(5):
        for position, run in enumerate(runs):
            gc.collect()
            results[position].append(run())
    return [sorted(done, key=time_of)[2] for done in results]


@pytest.fixture(scope="module")
def sweeps(yeast_like):
    (cloud, enc_construction), (server, plain_client, plain_construction) = (
        _median_of(
            lambda: run_encrypted_construction(
                yeast_like, strategy=Strategy.APPROXIMATE, seed=11
            ),
            lambda: run_plain_construction(yeast_like, seed=11),
            time_of=lambda built: built[-1].overall_time,
        )
    )
    enc_client = cloud.new_client()
    enc_rows, plain_rows = [], []
    for cand_size in [75, 150, 300, 750]:
        enc_row, plain_row = _median_of(
            lambda: run_encrypted_search_sweep(
                enc_client, yeast_like, k=30,
                cand_sizes=[cand_size], n_queries=20,
            )[0],
            lambda: run_plain_search_sweep(
                server, plain_client, yeast_like, k=30,
                cand_sizes=[cand_size], n_queries=20,
            )[0],
            time_of=lambda row: row.report.overall_time,
        )
        enc_rows.append(enc_row)
        plain_rows.append(plain_row)
    return enc_construction, enc_rows, plain_construction, plain_rows


class TestClaim1CommunicationCost:
    def test_encrypted_cost_linear_in_cand_size(self, sweeps):
        _ec, enc_rows, _pc, _pr = sweeps
        costs = [row.report.communication_bytes for row in enc_rows]
        sizes = [row.cand_size for row in enc_rows]
        # doubling cand size ~doubles bytes (within 15%)
        for i in range(len(sizes) - 1):
            growth = costs[i + 1] / costs[i]
            expected = sizes[i + 1] / sizes[i]
            assert growth == pytest.approx(expected, rel=0.15)

    def test_plain_cost_flat(self, sweeps):
        _ec, _er, _pc, plain_rows = sweeps
        costs = [row.report.communication_bytes for row in plain_rows]
        assert max(costs) - min(costs) <= 0.02 * max(costs)

    def test_encrypted_cost_exceeds_plain(self, sweeps):
        _ec, enc_rows, _pc, plain_rows = sweeps
        assert (
            enc_rows[-1].report.communication_bytes
            > 5 * plain_rows[-1].report.communication_bytes
        )


class TestClaim2Recall:
    def test_recall_monotone_in_cand_size(self, sweeps):
        _ec, enc_rows, _pc, _pr = sweeps
        recalls = [row.recall for row in enc_rows]
        assert recalls == sorted(recalls)

    def test_recall_above_90_at_20_percent(self, sweeps):
        _ec, enc_rows, _pc, _pr = sweeps
        # 300 of 1500 = 20% of the collection, the paper's YEAST point
        at_20_percent = next(r for r in enc_rows if r.cand_size == 300)
        assert at_20_percent.recall > 90.0

    def test_encrypted_and_plain_recall_identical(self, sweeps):
        """Both variants run the same M-Index logic, so quality must
        not change — only costs do."""
        _ec, enc_rows, _pc, plain_rows = sweeps
        for enc, plain in zip(enc_rows, plain_rows):
            assert enc.recall == pytest.approx(plain.recall, abs=1e-9)


class TestClaim3SearchOverhead:
    def test_encrypted_overall_between_1_and_20x_of_plain(self, sweeps):
        """Paper: ~3x. The absolute ratio depends on the crypto
        implementation (a faster cipher moves it towards 1), so the
        claim pinned is its shape: encryption costs something, and the
        overhead is a small constant factor, not orders of magnitude.
        Measured on a shared 2-core host: 1.2–1.7x with OpenSSL's AES
        (1.4–2.3x with the NumPy AES it replaced) — below the paper's
        band, a finding recorded in docs/BENCHMARKS.md rather than a
        bound to fit."""
        _ec, enc_rows, _pc, plain_rows = sweeps
        ratios = [
            enc.report.overall_time / plain.report.overall_time
            for enc, plain in zip(enc_rows, plain_rows)
        ]
        assert all(1.0 < ratio < 20.0 for ratio in ratios)

    def test_decryption_dominates_encrypted_client_time(self, sweeps):
        _ec, enc_rows, _pc, _pr = sweeps
        big = enc_rows[-1].report
        assert big.decryption_time > 0.3 * big.client_time


class TestClaim4Construction:
    def test_encrypted_construction_slower(self, sweeps):
        enc_construction, _er, plain_construction, _pr = sweeps
        assert (
            enc_construction.overall_time > plain_construction.overall_time
        )

    def test_client_does_the_work_when_encrypted(self, sweeps):
        enc_construction, _er, plain_construction, _pr = sweeps
        assert enc_construction.client_time > enc_construction.server_time
        assert (
            plain_construction.server_time > plain_construction.client_time
        )

    def test_distance_computations_relocated_to_client(self, sweeps):
        enc_construction, _er, _pc, _pr = sweeps
        assert enc_construction.distance_time > 0
        assert enc_construction.encryption_time > 0


class TestClaim5DecryptionScaling:
    def test_decryption_time_linear_in_cand_size(self, yeast_like):
        """A least-squares line through (CandSize, decryption time)
        rises and explains the four sweep points. Each point is the
        median CPU time (``time.thread_time``) of seven
        ``AesCipher.decrypt_many`` calls over that many of the
        collection's tokens: a sweep point decrypts in a fraction of a
        millisecond, where a wall clock on a shared host measures the
        neighbours. The intercept — the fixed cost of one decryption
        call — is left free: ``t(750) / t(75) == 10`` would demand it
        be zero."""
        from repro.crypto.cipher import AesCipher

        cand_sizes = [75, 150, 300, 750]
        cipher = AesCipher(bytes(range(16)))
        vectors = np.ascontiguousarray(
            yeast_like.vectors[: cand_sizes[-1]], dtype=np.float64
        )
        tokens = cipher.encrypt_many(vectors.view(np.uint8))

        def cpu_time(matrix):
            start = time.thread_time()
            cipher.decrypt_many(matrix)
            return time.thread_time() - start

        sizes = np.array(cand_sizes, dtype=float)
        times = np.array(
            [
                statistics.median(cpu_time(tokens[:n]) for _ in range(7))
                for n in cand_sizes
            ]
        )
        slope, intercept = np.polyfit(sizes, times, 1)
        residual = times - (slope * sizes + intercept)
        r_squared = 1.0 - residual.var() / times.var()
        assert slope > 0
        assert r_squared >= 0.95
