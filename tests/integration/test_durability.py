"""Restart durability: a DiskStorage directory must round-trip through
a full process restart — catalog, record bytes, and search results all
bit-identical — including directories written by the legacy format
(no manifest) and directories whose manifest was corrupted."""

import json
import logging

import numpy as np
import pytest

from repro.core.client import EncryptedClient, Strategy
from repro.core.cloud import SimilarityCloud
from repro.core.server import SimilarityCloudServer
from repro.metric.distances import L1Distance
from repro.metric.space import MetricSpace
from repro.mindex.index import MIndex
from repro.net.channel import InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.chunks import cell_digest, frame_record
from repro.storage.disk import DiskStorage
from repro.storage.manifest import MANIFEST_NAME

from tests.conftest import brute_force_knn

N_PIVOTS = 8
BUCKET_CAPACITY = 40


def _build_disk_cloud(small_data, directory):
    storage = DiskStorage(directory)
    cloud = SimilarityCloud.build(
        small_data,
        distance=L1Distance(),
        n_pivots=N_PIVOTS,
        bucket_capacity=BUCKET_CAPACITY,
        strategy=Strategy.PRECISE,
        storage=storage,
        seed=7,
    )
    cloud.owner.outsource(range(len(small_data)), small_data)
    return cloud, storage


def _snapshot(storage):
    """Bit-level content snapshot: cell id -> list of record bytes."""
    return {
        cell: [record.to_bytes() for record in storage.load(cell)]
        for cell in storage.cells()
    }


def _restarted_client(cloud, directory):
    """A fresh server over a *reopened* directory plus a client for it,
    simulating a full process restart (nothing shared in memory)."""
    reopened = DiskStorage(directory)
    server = SimilarityCloudServer(
        N_PIVOTS, BUCKET_CAPACITY, storage=reopened
    )
    server.index.rebuild_from_storage()
    client = EncryptedClient(
        cloud.owner.authorize(),
        MetricSpace(L1Distance(), 12),
        RpcClient(InProcessChannel(server.handle)),
        strategy=Strategy.PRECISE,
    )
    return server, client


class TestManifestRestart:
    def test_reopened_directory_round_trips(self, small_data, tmp_path):
        directory = tmp_path / "cells"
        cloud, storage = _build_disk_cloud(small_data, directory)
        before = _snapshot(storage)
        del cloud, storage  # nothing survives but the directory

        reopened = DiskStorage(directory)
        assert sorted(reopened.cells()) == sorted(before.keys())
        assert _snapshot(reopened) == before
        assert len(reopened) == len(small_data)

    def test_rebuild_after_restart_bit_identical(
        self, small_data, queries, tmp_path
    ):
        directory = tmp_path / "cells"
        cloud, storage = _build_disk_cloud(small_data, directory)
        original = cloud.server.index
        pivots = cloud.owner.secret_key.pivots

        server, client = _restarted_client(cloud, directory)
        assert len(server.index) == len(small_data)

        # tree structure: identical occupied leaves with identical counts
        occupied = {
            leaf.prefix: leaf.count
            for leaf in original.tree.leaves()
            if leaf.count
        }
        recovered = {
            leaf.prefix: leaf.count
            for leaf in server.index.tree.leaves()
            if leaf.count
        }
        assert recovered == occupied

        for q in queries[:4]:
            hits = client.knn_precise(q, 10)
            assert [h.oid for h in hits] == brute_force_knn(
                small_data, q, 10
            )
            q_dists = np.abs(pivots - q).sum(axis=1)
            want = sorted(
                (r.oid, r.to_bytes())
                for r in original.range_search(q_dists, 15.0)
            )
            got = sorted(
                (r.oid, r.to_bytes())
                for r in server.index.range_search(q_dists, 15.0)
            )
            assert got == want  # bit-identical, not just the same oids

    def test_mutations_continue_after_reopen(self, small_data, tmp_path):
        directory = tmp_path / "cells"
        cloud, storage = _build_disk_cloud(small_data, directory)
        cell = max(storage.cells(), key=storage.cell_size)
        records = storage.load(cell)
        del cloud, storage

        reopened = DiskStorage(directory)
        extra = records[0]
        reopened.append_many(cell, [extra])
        assert reopened.cell_size(cell) == len(records) + 1

        # and the append itself survives another restart
        again = DiskStorage(directory)
        assert again.cell_size(cell) == len(records) + 1
        loaded = again.load(cell)
        assert loaded[-1].to_bytes() == extra.to_bytes()

    def test_empty_cells_skipped_on_rebuild(self, tmp_path):
        from repro.core.records import IndexedRecord

        storage = DiskStorage(tmp_path / "cells")
        record = IndexedRecord(1, np.arange(4, dtype=np.int32), None, b"x")
        storage.save((0,), [record])
        storage.save((1,), [])
        index = MIndex(4, 10, storage)
        storage.reset_accounting()
        assert index.rebuild_from_storage() == 1
        assert storage.reads == 1  # the empty cell charged no load


class TestFallbackRecovery:
    def _legacy_directory(self, source: DiskStorage, directory):
        """Rewrite ``source``'s cells as a seed-format directory: plain
        ``cell_<sha1>.bin`` frame files, no manifest."""
        directory.mkdir(parents=True)
        for cell in source.cells():
            blob = b"".join(
                frame_record(record) for record in source.load(cell)
            )
            name = f"cell_{cell_digest(cell)}.bin"
            (directory / name).write_bytes(blob)

    def test_legacy_directory_scavenged(
        self, small_data, queries, tmp_path
    ):
        cloud, storage = _build_disk_cloud(small_data, tmp_path / "cells")
        legacy_dir = tmp_path / "legacy"
        self._legacy_directory(storage, legacy_dir)
        before = _snapshot(storage)

        reopened = DiskStorage(legacy_dir)
        # cell ids recovered exactly from the one-way hashed file names
        assert sorted(reopened.cells()) == sorted(before.keys())
        assert _snapshot(reopened) == before
        # scavenging persisted a manifest for the next restart
        assert (legacy_dir / MANIFEST_NAME).exists()

        server, client = _restarted_client(cloud, legacy_dir)
        q = queries[0]
        hits = client.knn_precise(q, 10)
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

    def test_legacy_file_upgraded_on_rewrite(self, small_data, tmp_path):
        cloud, storage = _build_disk_cloud(small_data, tmp_path / "cells")
        legacy_dir = tmp_path / "legacy"
        self._legacy_directory(storage, legacy_dir)

        reopened = DiskStorage(legacy_dir)
        cell = max(reopened.cells(), key=reopened.cell_size)
        records = reopened.load(cell)
        reopened.save(cell, records)  # full rewrite upgrades the format
        names = [p.name for p in legacy_dir.iterdir()]
        assert f"cell_{cell_digest(cell)}.bin" not in names
        assert any(name.endswith(".chk") for name in names)
        assert [r.to_bytes() for r in DiskStorage(legacy_dir).load(cell)] == [
            r.to_bytes() for r in records
        ]

    def test_corrupted_manifest_falls_back_to_scavenge(
        self, small_data, queries, tmp_path
    ):
        directory = tmp_path / "cells"
        cloud, storage = _build_disk_cloud(small_data, directory)
        before = _snapshot(storage)
        (directory / MANIFEST_NAME).write_bytes(b"{not json !!")

        reopened = DiskStorage(directory)
        assert _snapshot(reopened) == before
        # the rebuilt manifest is valid again
        document = json.loads((directory / MANIFEST_NAME).read_text())
        assert len(document["cells"]) == len(before)

        server, client = _restarted_client(cloud, directory)
        q = queries[1]
        hits = client.knn_precise(q, 10)
        assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

    def test_manifest_fallback_is_logged_and_a_clean_reopen_is_silent(
        self, small_data, tmp_path, caplog
    ):
        directory = tmp_path / "cells"
        _build_disk_cloud(small_data, directory)
        caplog.set_level(logging.INFO, logger="repro.storage")
        DiskStorage(directory)
        assert caplog.records == []  # nothing to repair, nothing said

        (directory / MANIFEST_NAME).write_bytes(b"{not json !!")
        DiskStorage(directory)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert record.event == "manifest_fallback"
        assert record.file == MANIFEST_NAME
        assert record.error and record.error in record.getMessage()

    def test_unrecoverable_legacy_file_fails_loudly(self, tmp_path):
        from repro.core.records import IndexedRecord
        from repro.exceptions import StorageError

        directory = tmp_path / "cells"
        directory.mkdir()
        record = IndexedRecord(1, np.arange(4, dtype=np.int32), None, b"x")
        # file name does not hash any permutation prefix of the record
        (directory / ("cell_" + "0" * 24 + ".bin")).write_bytes(
            frame_record(record)
        )
        with pytest.raises(StorageError):
            DiskStorage(directory)
