"""Restart durability: a DiskStorage directory must round-trip through
a full process restart — catalog, record bytes, and search results all
bit-identical — including directories written in the per-cell format
(with or without their manifest), which are converted on open, and
directories whose manifest was corrupted or lost."""

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
from repro.storage.chunks import frame_record
from repro.storage.disk import DiskStorage
from repro.storage.manifest import MANIFEST_NAME, SEGMENT_NAME

from tests.conftest import brute_force_knn, write_per_cell_directory

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
    @pytest.mark.parametrize("manifest", [True, False])
    def test_per_cell_directory_converts(
        self, small_data, queries, tmp_path, caplog, manifest
    ):
        """A directory the parent of PR 23 wrote — with its version-1
        manifest, or without one through the files' own headers —
        reopens to the same records, holds only segments afterwards,
        converts once, and answers a k-NN identically."""
        cloud, storage = _build_disk_cloud(small_data, tmp_path / "cells")
        before = _snapshot(storage)
        old_dir = tmp_path / "per-cell"
        write_per_cell_directory(
            old_dir,
            {cell: storage.load(cell).to_records() for cell in storage.cells()},
            manifest=manifest,
        )
        old_files = [p for p in old_dir.iterdir() if p.name != MANIFEST_NAME]
        assert len(old_files) == len(before)
        old_bytes = sum(p.stat().st_size for p in old_files)

        caplog.set_level(logging.INFO, logger="repro.storage")
        reopened = DiskStorage(old_dir)
        assert _snapshot(reopened) == before
        # moved, not repacked: still a chunk per group
        assert reopened.chunks == sum(
            min(len(records), 2) for records in before.values()
        )
        names = {p.name for p in old_dir.iterdir()} - {MANIFEST_NAME}
        assert names and all(map(SEGMENT_NAME.fullmatch, names))
        upgrades = [
            r for r in caplog.records if r.event == "directory_upgraded"
        ]
        assert [(r.files, r.bytes) for r in upgrades] == [
            (len(before), old_bytes)
        ]
        assert all(r.levelno == logging.INFO for r in upgrades)
        assert ("manifest_fallback" in {r.event for r in caplog.records}) == (
            not manifest
        )

        caplog.clear()
        again = DiskStorage(old_dir)  # a segment directory now: nothing to do
        assert caplog.records == []
        assert {p.name for p in old_dir.iterdir()} - {MANIFEST_NAME} == names
        assert _snapshot(again) == before

        server, client = _restarted_client(cloud, old_dir)
        for q in queries[:2]:
            hits = client.knn_precise(q, 10)
            assert [h.oid for h in hits] == brute_force_knn(small_data, q, 10)

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

    def test_unrecoverable_legacy_file_fails_loudly(self, small_data, tmp_path):
        """The seed's ``cell_<sha1>.bin`` files are no longer read: a
        directory holding one is refused by name and left as it was,
        whatever else is in it."""
        from repro.core.records import IndexedRecord
        from repro.exceptions import StorageError

        directory = tmp_path / "cells"
        _build_disk_cloud(small_data, directory)
        record = IndexedRecord(1, np.arange(4, dtype=np.int32), None, b"x")
        name = "cell_" + "0" * 24 + ".bin"
        (directory / name).write_bytes(frame_record(record))
        (directory / "stray.tmp").write_bytes(b"half a manifest")
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        with pytest.raises(StorageError, match=name):
            DiskStorage(directory)
        assert {p.name: p.read_bytes() for p in directory.iterdir()} == before
