"""Enumerated crash points of the disk write path.

Every file-system call the write path makes — opening a file for
writing, each ``write``, ``os.fsync``, ``os.replace``, ``Path.unlink``
— goes through a counting shim. A fixed workload (two bulks, a bulk
that splits, a delete) is replayed once per call index with the
process "dying" at that call: the call and everything after it raise,
a dying ``write`` leaves half its bytes behind. The directory is then
reopened by a fresh ``DiskStorage`` + ``rebuild_from_storage()``, which
must find exactly the state before or after the operation that died —
never one in between — and leave no debris.
"""

import logging
import os
from pathlib import Path

import numpy as np

from repro.core.records import IndexedRecord
from repro.mindex.index import MIndex
from repro.storage import disk as disk_module
from repro.storage import manifest as manifest_module
from repro.storage.disk import DiskStorage
from repro.storage.manifest import MANIFEST_NAME, read_manifest

N_PIVOTS = 5
BUCKET_CAPACITY = 12


class SimulatedCrash(Exception):
    """The process died at a file-system call."""


class _DyingFile:
    """A file whose writes are crash points (a dying write is torn)."""

    def __init__(self, handle, shim):
        self._handle = handle
        self._shim = shim

    def write(self, data):
        try:
            self._shim.tick()
        except SimulatedCrash:
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            raise
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


class CrashShim:
    """Counts write-path file-system calls; dies at call ``crash_at``."""

    def __init__(self, monkeypatch, crash_at=None):
        self.calls = 0
        self.crash_at = crash_at
        real_replace, real_unlink = os.replace, Path.unlink

        def fsync(fd):
            # a crash point only: the death of a process loses nothing
            # the kernel already holds, so the flush itself is skipped
            self.tick()

        def replace(src, dst):
            self.tick()
            return real_replace(src, dst)

        def unlink(path, missing_ok=False):
            self.tick()
            return real_unlink(path, missing_ok=missing_ok)

        def open_(file, mode="r", *args, **kwargs):
            if mode == "rb":
                return open(file, mode, *args, **kwargs)
            self.tick()  # "wb" creates the file, "r+b" precedes a write
            return _DyingFile(open(file, mode, *args, **kwargs), self)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(Path, "unlink", unlink)
        for module in (disk_module, manifest_module):
            monkeypatch.setattr(module, "open", open_, raising=False)

    def tick(self):
        index = self.calls
        self.calls += 1
        if self.crash_at is not None and index >= self.crash_at:
            raise SimulatedCrash(f"died at file-system call {index}")


def _record(oid):
    rng = np.random.default_rng(oid)
    return IndexedRecord(
        oid,
        rng.permutation(N_PIVOTS).astype(np.int32),
        rng.random(N_PIVOTS),
        bytes([oid % 256]) * 24,
    )


_VICTIM = _record(7)

#: each operation is acknowledged when its call returns
_OPERATIONS = (
    lambda index: index.bulk_insert([_record(i) for i in range(30)]),
    lambda index: index.bulk_insert([_record(i) for i in range(30, 60)]),
    lambda index: index.bulk_insert([_record(i) for i in range(60, 200)]),
    lambda index: index.delete(_VICTIM.oid, _VICTIM.permutation),
)


def _run_workload(directory, on_acknowledged):
    index = MIndex(N_PIVOTS, BUCKET_CAPACITY, DiskStorage(directory))
    for operation in _OPERATIONS:
        operation(index)
        on_acknowledged(index)


def _stored(storage):
    return sorted(
        record.to_bytes()
        for cell in storage.cells()
        for record in storage.load(cell)
    )


def _recover(directory):
    """Reopen as a new process would; returns the recovered records."""
    storage = DiskStorage(directory)
    index = MIndex(N_PIVOTS, BUCKET_CAPACITY, storage)
    count = index.rebuild_from_storage()
    records = _stored(storage)
    assert count == len(records) == len(storage)
    return records


def test_every_crash_point_reopens_to_an_operation_boundary(
    tmp_path, monkeypatch
):
    # reference run: the states at the operation boundaries and the
    # number of crash points
    states = [[]]
    leaf_counts = []

    def note(index):
        states.append(_stored(index.storage))
        leaf_counts.append(index.n_cells)

    with monkeypatch.context() as patch:
        shim = CrashShim(patch)
        _run_workload(tmp_path / "reference", note)
    total_calls = shim.calls
    assert [len(state) for state in states] == [0, 30, 60, 200, 199]
    assert leaf_counts[2] > leaf_counts[1]  # the third bulk did split
    assert total_calls > 100

    outcomes = {"before": 0, "after": 0}
    for crash_at in range(total_calls):
        directory = tmp_path / f"crash_{crash_at}"
        acknowledged = []
        with monkeypatch.context() as patch:
            CrashShim(patch, crash_at)
            try:
                _run_workload(directory, acknowledged.append)
            except SimulatedCrash:
                pass
            else:
                raise AssertionError(f"call {crash_at} never happened")
        done = len(acknowledged)
        recovered = _recover(directory)
        # everything acknowledged before the operation that died is
        # there, and that operation is all there or not at all
        if recovered == states[done]:
            outcomes["before"] += 1
        else:
            assert recovered == states[done + 1], (
                f"crash at call {crash_at} (operation {done}) reopened "
                f"to {len(recovered)} records: neither the "
                f"{len(states[done])} before nor the "
                f"{len(states[done + 1])} after"
            )
            outcomes["after"] += 1
        # reopening cleaned up: no tmp file, no unreferenced cell file
        referenced = {
            entry.file_name for entry in read_manifest(directory) or []
        }
        leftovers = {
            path.name for path in directory.iterdir()
        } - referenced - {MANIFEST_NAME}
        assert leftovers == set(), f"crash at call {crash_at}"
    # both sides of the commit point were exercised
    assert outcomes["before"] > 0 and outcomes["after"] > 0


def test_reopen_logs_exactly_what_it_removed_and_cut(
    tmp_path, monkeypatch, caplog
):
    """What did recovery do on reopen: over a sample of the crash
    points, the ``repro.storage`` records name every file the reopen
    removed (stray ``*.tmp``, unreferenced cell files) and every tail
    it cut, with the byte counts, and nothing else."""
    with monkeypatch.context() as patch:
        shim = CrashShim(patch)
        _run_workload(tmp_path / "reference", lambda index: None)
    caplog.set_level(logging.INFO, logger="repro.storage")
    events = set()
    for crash_at in range(0, shim.calls, 5):
        directory = tmp_path / f"crash_{crash_at}"
        with monkeypatch.context() as patch:
            CrashShim(patch, crash_at)
            try:
                _run_workload(directory, lambda index: None)
            except SimulatedCrash:
                pass
        before = {p.name: p.stat().st_size for p in directory.iterdir()}
        caplog.clear()
        DiskStorage(directory)
        after = {p.name: p.stat().st_size for p in directory.iterdir()}
        expected = {
            (
                "tmp_removed" if name.endswith(".tmp") else "orphan_removed",
                name,
                size,
            )
            for name, size in before.items()
            if name not in after
        } | {
            ("tail_truncated", name, size - after[name])
            for name, size in before.items()
            if name != MANIFEST_NAME and after.get(name, size) < size
        }
        logged = [(r.event, r.file, r.bytes) for r in caplog.records]
        assert sorted(logged) == sorted(expected), f"crash at {crash_at}"
        assert all(r.levelno == logging.INFO for r in caplog.records)
        events.update(event for event, _file, _bytes in logged)
    assert events == {"tmp_removed", "orphan_removed", "tail_truncated"}
