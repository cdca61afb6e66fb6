"""Enumerated crash points of the disk write path.

Every file-system call the write path makes — opening a file for
writing, each ``write``, ``os.fsync``, ``os.replace``, ``Path.unlink``
— goes through a counting shim. A fixed workload is replayed once per
call index with the machine "dying" at that call: the call and
everything after it raise, a dying ``write`` leaves half its bytes
behind. Two ways to die:

* *process death* — the kernel keeps every byte written so far
  (``fsync`` is a crash point, its flush is skipped);
* *power loss* — every file is cut back to the length it had at its
  last ``os.fsync``, and one never synced is gone. A write path that
  forgot a data sync passes the first mode and fails this one.

The directory is then reopened by a fresh ``DiskStorage`` +
``rebuild_from_storage()``, which must find exactly the state before or
after the operation that died — never one in between — and leave no
debris. Two workloads: an index's life (open, bulks, a bulk that
splits, a delete, a small bulk — cleaning passes included), and the
conversion of a per-cell directory on open.
"""

import logging
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.records import IndexedRecord
from repro.mindex.index import MIndex
from repro.storage import disk as disk_module
from repro.storage import manifest as manifest_module
from repro.storage.disk import DiskStorage
from repro.storage.manifest import MANIFEST_NAME, SEGMENT_NAME, parse_manifest
from repro.storage.memory import MemoryStorage

from tests.conftest import write_per_cell_directory

N_PIVOTS = 5
BUCKET_CAPACITY = 12


class SimulatedCrash(Exception):
    """The machine died at a file-system call."""


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

    def close(self):
        self._shim.open_files.pop(self._handle.fileno(), None)
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class CrashShim:
    """Counts write-path file-system calls; dies at call ``crash_at``.

    It also keeps what :meth:`lose_power` needs: which files the write
    path wrote, and how long each was when it was last ``fsync``ed (a
    rename carries that length to the new name)."""

    def __init__(self, monkeypatch, crash_at=None):
        self.calls = 0
        self.crash_at = crash_at
        self.open_files = {}  # descriptor -> path, while open for writing
        self.written = set()
        self.synced = {}
        real_replace, real_unlink = os.replace, Path.unlink

        def fsync(fd):
            # the flush itself is skipped: process death loses nothing
            # the kernel holds, and power loss is modelled by cutting
            # files back to what is recorded here
            self.tick()
            if fd in self.open_files:
                self.synced[self.open_files[fd]] = os.fstat(fd).st_size

        def replace(src, dst):
            self.tick()
            real_replace(src, dst)
            src, dst = str(src), str(dst)
            self.written.discard(src)
            self.written.add(dst)
            self.synced.pop(dst, None)
            if src in self.synced:
                self.synced[dst] = self.synced.pop(src)

        def unlink(path, missing_ok=False):
            self.tick()
            return real_unlink(path, missing_ok=missing_ok)

        def open_(file, mode="r", *args, **kwargs):
            if mode == "rb":
                return open(file, mode, *args, **kwargs)
            self.tick()  # "wb" creates the file, "r+b" precedes a write
            handle = open(file, mode, *args, **kwargs)
            self.open_files[handle.fileno()] = str(file)
            self.written.add(str(file))
            return _DyingFile(handle, self)

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

    def lose_power(self):
        """Keep of every written file only what was synced."""
        for name in self.written:
            path = Path(name)
            if not path.exists():
                continue
            if name not in self.synced:
                path.unlink()
            elif path.stat().st_size > self.synced[name]:
                os.truncate(path, self.synced[name])


def _record(oid):
    rng = np.random.default_rng(oid)
    return IndexedRecord(
        oid,
        rng.permutation(N_PIVOTS).astype(np.int32),
        rng.random(N_PIVOTS),
        bytes([oid % 256]) * 24,
    )


_VICTIM = _record(7)


def _open(directory, _index):
    index = MIndex(N_PIVOTS, BUCKET_CAPACITY, DiskStorage(directory))
    index.rebuild_from_storage()
    return index


def _bulk(start, stop):
    def operation(_directory, index):
        index.bulk_insert([_record(i) for i in range(start, stop)])
        return index

    return operation


def _delete(_directory, index):
    index.delete(_VICTIM.oid, _VICTIM.permutation)
    return index


def _nothing(_directory):
    pass


def _per_cell_directory(directory):
    """What the parent of PR 23 would have left of a 60-record index."""
    index = MIndex(N_PIVOTS, BUCKET_CAPACITY, MemoryStorage())
    index.bulk_insert([_record(i) for i in range(60)])
    write_per_cell_directory(
        directory,
        {
            cell: index.storage.load(cell).to_records()
            for cell in index.storage.cells()
        },
    )


#: name -> (what is on disk beforehand, the operations — each is
#: acknowledged when its call returns —, records after each)
_WORKLOADS = {
    "index": (
        _nothing,
        (_open, _bulk(0, 30), _bulk(30, 60), _bulk(60, 200), _delete,
         _bulk(200, 205)),
        [0, 0, 30, 60, 200, 199, 204],
    ),
    "upgrade": (
        _per_cell_directory,
        (_open, _bulk(60, 90)),
        [60, 60, 90],
    ),
}


def _run_workload(name, directory, on_acknowledged):
    _prepare, operations, _sizes = _WORKLOADS[name]
    index = None
    for operation in operations:
        index = operation(directory, index)
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


def _enumerate_crash_points(tmp_path, monkeypatch, caplog, name, power_loss):
    prepare, _operations, sizes = _WORKLOADS[name]
    # reference run: the states at the operation boundaries, the number
    # of crash points, and what the write path said it did
    prepare(tmp_path / "reference")
    prepare(tmp_path / "pristine")
    states = [_recover(tmp_path / "pristine")]
    leaf_counts = []

    def note(index):
        states.append(_stored(index.storage))
        leaf_counts.append(index.n_cells)

    caplog.set_level(logging.INFO, logger="repro.storage")
    with monkeypatch.context() as patch:
        shim = CrashShim(patch)
        _run_workload(name, tmp_path / "reference", note)
    total_calls = shim.calls
    events = {record.event for record in caplog.records}
    assert [len(state) for state in states] == sizes

    outcomes = {"before": 0, "after": 0}
    for crash_at in range(total_calls):
        directory = tmp_path / f"crash_{crash_at}"
        prepare(directory)
        acknowledged = []
        with monkeypatch.context() as patch:
            shim = CrashShim(patch, crash_at)
            try:
                _run_workload(name, directory, acknowledged.append)
            except SimulatedCrash:
                pass
            else:
                raise AssertionError(f"call {crash_at} never happened")
        if power_loss:
            shim.lose_power()
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
        # reopening cleaned up: the manifest, the segments it names,
        # nothing else
        named, _cells = parse_manifest(
            (directory / MANIFEST_NAME).read_bytes()
        )
        on_disk = {path.name for path in directory.iterdir()}
        assert on_disk == set(named) | {MANIFEST_NAME}, f"crash at {crash_at}"
        assert all(map(SEGMENT_NAME.fullmatch, named))
    # both sides of the commit point were exercised
    assert outcomes["before"] > 0 and outcomes["after"] > 0
    return total_calls, leaf_counts, events


def test_every_crash_point_reopens_to_an_operation_boundary(
    tmp_path, monkeypatch, caplog
):
    total_calls, leaf_counts, events = _enumerate_crash_points(
        tmp_path, monkeypatch, caplog, "index", power_loss=False
    )
    assert leaf_counts[3] > leaf_counts[2]  # the third bulk did split
    assert total_calls > 100
    # and batches cleaned up after earlier ones: copied what was live
    # out of mostly dead segments
    assert "segment_cleaned" in events


def test_every_power_loss_point_reopens_to_an_operation_boundary(
    tmp_path, monkeypatch, caplog
):
    _enumerate_crash_points(
        tmp_path, monkeypatch, caplog, "index", power_loss=True
    )


@pytest.mark.parametrize("power_loss", [False, True])
def test_upgrade_on_open_survives_every_crash_point(
    tmp_path, monkeypatch, caplog, power_loss
):
    _calls, _leaves, events = _enumerate_crash_points(
        tmp_path, monkeypatch, caplog, "upgrade", power_loss
    )
    assert "directory_upgraded" in events


def test_reopen_logs_exactly_what_it_removed_and_cut(
    tmp_path, monkeypatch, caplog
):
    """What did recovery do on reopen: over a sample of the crash
    points, the ``repro.storage`` records name every file the reopen
    removed (stray ``*.tmp``, unreferenced segments) with the byte
    counts, and nothing else — and it cut nothing: a committed segment
    has no tail to tear."""
    with monkeypatch.context() as patch:
        shim = CrashShim(patch)
        _run_workload("index", tmp_path / "reference", lambda index: None)
    caplog.set_level(logging.INFO, logger="repro.storage")
    events = set()
    for crash_at in range(0, shim.calls, 3):
        directory = tmp_path / f"crash_{crash_at}"
        with monkeypatch.context() as patch:
            CrashShim(patch, crash_at)
            try:
                _run_workload("index", directory, lambda index: None)
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
        }
        logged = [(r.event, r.file, r.bytes) for r in caplog.records]
        assert sorted(logged) == sorted(expected), f"crash at {crash_at}"
        assert all(r.levelno == logging.INFO for r in caplog.records)
        assert all(
            after[name] == size
            for name, size in before.items()
            if name in after and name != MANIFEST_NAME
        )
        events.update(event for event, _file, _bytes in logged)
    assert events == {"tmp_removed", "orphan_removed"}
