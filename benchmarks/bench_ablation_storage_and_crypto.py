"""Ablation — storage backends and the crypto fast path.

1. Memory vs disk bucket storage (Table 2 uses memory for the small
   sets, disk for CoPhIR): construction and search cost of the same
   index over both backends.
2. The vectorized batch-cipher path vs per-message calls: the
   optimization that makes a pure-Python AES usable for candidate-set
   decryption at all.
"""

import time

import numpy as np
import pytest
from conftest import save_result

from repro.core.client import Strategy
from repro.core.records import IndexedRecord
from repro.crypto.cipher import AesCipher
from repro.evaluation.runner import run_encrypted_construction
from repro.evaluation.tables import format_matrix
from repro.storage.disk import DiskStorage
from repro.storage.memory import MemoryStorage


def test_ablation_storage_backend(yeast, tmp_path, benchmark):
    rows = []
    reports = {}
    for label, storage in (
        ("memory", MemoryStorage()),
        ("disk", DiskStorage(tmp_path / "cells")),
    ):
        cloud, construction = run_encrypted_construction(
            yeast, strategy=Strategy.APPROXIMATE, seed=0, storage=storage
        )
        client = cloud.new_client()
        client.reset_accounting()
        for q in yeast.queries[:20]:
            client.knn_search(q, 30, cand_size=600)
        search = client.report().scaled(20)
        reports[label] = (construction, search)
        rows.append(
            (
                label,
                [
                    f"{construction.server_time:.3f}",
                    f"{search.server_time * 1e3:.2f}",
                    f"{storage.bytes_written / 1e6:.1f}",
                    f"{storage.bytes_read / 1e6:.1f}",
                ],
            )
        )
    text = format_matrix(
        "Ablation: storage backend (YEAST, construction + 20 queries)",
        [
            "constr. server [s]",
            "search server [ms]",
            "MB written",
            "MB read",
        ],
        rows,
        row_header="Backend",
    )
    save_result("ablation_storage_backend", text)

    # both backends serve identical answers; disk costs more server time
    mem_search = reports["memory"][1].server_time
    disk_search = reports["disk"][1].server_time
    assert disk_search >= mem_search * 0.8  # disk is never much cheaper

    # benchmark: loading one disk cell
    storage = DiskStorage(tmp_path / "bench")
    records = [
        IndexedRecord(
            i, np.arange(30, dtype=np.int32), None, bytes(168)
        )
        for i in range(200)
    ]
    storage.save(("cell",), records)
    benchmark(lambda: storage.load(("cell",)))


def test_ablation_batch_cipher_speedup(benchmark):
    """The batch cipher path must beat per-message calls by a wide
    margin on candidate-set-shaped workloads."""
    cipher = AesCipher(bytes(range(16)))
    payloads = [bytes(168)] * 600  # a YEAST candidate set
    tokens = cipher.encrypt_many(payloads)

    start = time.perf_counter()
    for token in tokens:
        cipher.decrypt(token)
    per_message = time.perf_counter() - start

    start = time.perf_counter()
    cipher.decrypt_many(tokens)
    batched = time.perf_counter() - start

    speedup = per_message / batched
    text = format_matrix(
        "Ablation: batch vs per-message decryption "
        "(600 tokens of 168 B)",
        ["seconds"],
        [
            ("per-message loop", [f"{per_message:.4f}"]),
            ("decrypt_many", [f"{batched:.4f}"]),
            ("speedup", [f"{speedup:.1f}x"]),
        ],
        row_header="Path",
    )
    save_result("ablation_batch_cipher", text)
    assert speedup > 3.0

    benchmark(lambda: cipher.decrypt_many(tokens))


@pytest.mark.parametrize("key_bits", [128, 192, 256])
def test_ablation_key_size(key_bits, benchmark):
    """AES key size barely moves the needle (rounds 10/12/14) — the
    paper's choice of AES-128 is not performance-critical."""
    cipher = AesCipher(bytes(key_bits // 8))
    payloads = [bytes(168)] * 200
    tokens = cipher.encrypt_many(payloads)
    result = benchmark(lambda: cipher.decrypt_many(tokens))
    assert result == payloads
