"""Shared fixtures for the test suite."""

from __future__ import annotations

import hashlib
import json
import socket
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.client import Strategy
from repro.core.cloud import SimilarityCloud
from repro.exceptions import ReproError
from repro.metric.distances import L1Distance, L2Distance
from repro.metric.space import MetricSpace
from repro.storage.chunks import build_chunks, encode_file_header
from repro.storage.manifest import MANIFEST_NAME, encode_cell_id
from repro.wire.frames import (
    HEADER_SIZE,
    KIND_REQUEST,
    FrameAssembler,
    FrameHeader,
    encode_frame,
)
from repro.wire.scatter import read_candidate_lists


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_data(rng) -> np.ndarray:
    """A small clustered collection for index tests (600 x 12)."""
    centers = rng.normal(0.0, 5.0, size=(6, 12))
    assignment = rng.integers(0, 6, size=600)
    return centers[assignment] + rng.normal(0.0, 1.0, size=(600, 12))


@pytest.fixture
def queries(rng) -> np.ndarray:
    return rng.normal(0.0, 4.0, size=(8, 12))


@pytest.fixture
def l1_space() -> MetricSpace:
    return MetricSpace(L1Distance(), 12)


@pytest.fixture
def l2_space() -> MetricSpace:
    return MetricSpace(L2Distance(), 12)


@pytest.fixture
def approx_cloud(small_data) -> SimilarityCloud:
    """A populated approximate-strategy deployment over small_data."""
    cloud = SimilarityCloud.build(
        small_data,
        distance=L1Distance(),
        n_pivots=8,
        bucket_capacity=40,
        strategy=Strategy.APPROXIMATE,
        seed=7,
    )
    cloud.owner.outsource(range(len(small_data)), small_data)
    return cloud


@pytest.fixture
def precise_cloud(small_data) -> SimilarityCloud:
    """A populated precise-strategy deployment over small_data."""
    cloud = SimilarityCloud.build(
        small_data,
        distance=L1Distance(),
        n_pivots=8,
        bucket_capacity=40,
        strategy=Strategy.PRECISE,
        seed=7,
    )
    cloud.owner.outsource(range(len(small_data)), small_data)
    return cloud


def candidate_lists(reader) -> list[list[tuple[int, bytes]]]:
    """A batch search response as one [(oid, payload)] list per query,
    through the one reader of that layout."""
    table, rows_per_query = read_candidate_lists(reader)
    return [
        list(zip(table[0][rows].tolist(), table.payloads.tolist(rows)))
        for rows in rows_per_query
    ]


#: what a forged count or length is overwritten with
HOSTILE_U32 = [0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 0x40000000, 1 << 20]


def _peak_allocation(decode) -> int:
    tracemalloc.start()
    try:
        decode()
    except ReproError:
        pass
    finally:
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    return peak


def decode_within_bounds(decode, n_bytes: int, slack: int = 64 * 1024) -> None:
    """Run a consumer on bytes it did not write: it returns or raises a
    typed error — anything else propagates and fails the test — and
    what it allocates on the way is bounded by the ``n_bytes`` present
    (a small multiple of them plus ``slack``, the fixed cost of a few
    dozen array objects), never by a number read out of them: the
    smallest hostile count, 2**20 four-byte entries, would already be
    4 MiB."""
    bound = 16 * n_bytes + slack
    peak = _peak_allocation(decode)
    if peak > bound:
        # every few thousand calls the interpreter regrows a table of
        # its own (about 2 MB) inside the traced window, whatever the
        # input; a decoder's appetite, unlike that, repeats
        peak = _peak_allocation(decode)
    assert peak <= bound


def write_per_cell_directory(directory, cells, *, manifest=True) -> None:
    """Write ``cells`` (``{cell id: records}``) as the parent of PR 23
    stored them: one ``cell_<digest>.g<k>.chk`` file per cell — header
    with the cell id, then its chunks, the cell's last record in a group
    of its own as an in-place append left it — and, with ``manifest``,
    the version-1 ``manifest.json`` over them."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for generation, (cell_id, records) in enumerate(cells.items()):
        encoded = encode_cell_id(cell_id)
        blob = encode_file_header(
            json.dumps(encoded, separators=(",", ":")).encode("utf-8")
        )
        chunks = []
        for group in (records[:-1], records[-1:]):
            payload, entries_of_group = build_chunks(
                group, base_offset=len(blob)
            )
            blob += payload
            chunks += entries_of_group
        digest = hashlib.sha1(repr(cell_id).encode("utf-8")).hexdigest()[:24]
        name = f"cell_{digest}.g{generation % 3}.chk"
        (directory / name).write_bytes(blob)
        entries.append({
            "id": encoded,
            "file": name,
            "format": 2,
            "count": len(records),
            "size": len(blob),
            "generation": generation % 3,
            "chunks": [
                [c.offset, c.comp_size, c.raw_size, c.n_records]
                for c in chunks
            ],
        })
    if manifest:
        (directory / MANIFEST_NAME).write_text(
            json.dumps({"version": 1, "cells": entries})
        )


def brute_force_knn(data: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """L1 brute-force k-NN ids with the library's tie-breaking."""
    dists = np.abs(data - query).sum(axis=1)
    order = np.lexsort((np.arange(len(data)), dists))
    return [int(i) for i in order[:k]]


def request_concurrently(channel, payloads, **kwargs) -> list:
    """One thread per payload, all on ONE shared channel, all in flight
    together. Returns each request's response bytes — or the exception
    it raised — in payload order."""

    def one(payload):
        try:
            return channel.request(payload, **kwargs)
        except Exception as exc:
            return exc

    with ThreadPoolExecutor(max_workers=len(payloads)) as pool:
        return list(pool.map(one, payloads))


def burst_frames(
    host: str, port: int, payloads, *, timeout: float = 10.0
) -> list[tuple[int, bytes]]:
    """Raw-socket pipelining: every payload leaves as a v2 request
    frame (correlation ids 1..n) in a single write, so the server finds
    them all buffered at once. Returns the ``(frame kind, reassembled
    message)`` answering each payload, in payload order."""
    answers: dict[int, tuple[int, bytes]] = {}
    assembler = FrameAssembler()
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            b"".join(
                encode_frame(KIND_REQUEST, cid, payload)
                for cid, payload in enumerate(payloads, 1)
            )
        )
        with sock.makefile("rb") as stream:
            while len(answers) < len(payloads):
                # a short read (server closed mid-burst) fails the decode
                header = FrameHeader.decode(stream.read(HEADER_SIZE))
                message = assembler.add(header, stream.read(header.length))
                if message is not None:
                    answers[header.correlation_id] = (header.kind, message)
    return [answers[cid] for cid in range(1, len(payloads) + 1)]
