"""Failure injection: corrupt storage, tampered payloads, garbage on
the wire. A production service degrades with clear errors, never with
silent corruption or crashed server loops."""

import json
import logging

import numpy as np
import pytest

from repro.core.records import IndexedRecord
from repro.exceptions import (
    AuthenticationError,
    ProtocolError,
    ReproError,
    StorageError,
)
from repro.net.channel import Channel, InProcessChannel
from repro.net.rpc import RpcClient
from repro.storage.disk import DiskStorage
from repro.storage.manifest import MANIFEST_NAME, parse_manifest
from repro.wire.encoding import Reader, Writer


class TestDiskCorruption:
    def _storage_with_cell(self, tmp_path):
        storage = DiskStorage(tmp_path / "cells")
        records = [
            IndexedRecord(
                i, np.arange(4, dtype=np.int32), None, bytes(20)
            )
            for i in range(5)
        ]
        storage.save(("c",), records)
        path = next(
            p
            for p in (tmp_path / "cells").iterdir()
            if p.name.startswith("seg_")
        )
        return storage, path

    def test_truncated_cell_file(self, tmp_path):
        storage, path = self._storage_with_cell(tmp_path)
        (chunk,) = storage._catalog[("c",)].chunks
        path.write_bytes(path.read_bytes()[: chunk.end // 2])
        with pytest.raises((StorageError, ProtocolError)):
            storage.load(("c",))

    def test_corrupted_chunk_payload(self, tmp_path):
        storage, path = self._storage_with_cell(tmp_path)
        (chunk,) = storage._catalog[("c",)].chunks
        blob = bytearray(path.read_bytes())
        blob[chunk.end - 3] ^= 0xFF  # inside the compressed payload
        path.write_bytes(bytes(blob))
        with pytest.raises((StorageError, ProtocolError)):
            storage.load(("c",))

    def test_trailing_garbage_is_crash_tolerated(self, tmp_path):
        """Bytes past a segment's committed length are nobody's: loads
        read only the indexed chunks, and a reopen neither trusts nor
        touches them — a committed segment is never written again."""
        storage, path = self._storage_with_cell(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x01\x02")
        assert [r.oid for r in storage.load(("c",))] == [0, 1, 2, 3, 4]
        reopened = DiskStorage(path.parent)
        assert [r.oid for r in reopened.load(("c",))] == [0, 1, 2, 3, 4]
        assert path.read_bytes() == blob + b"\x01\x02"

    def test_bitflipped_record_payload_still_parses_but_fails_auth(
        self, approx_cloud, queries
    ):
        """Flip one ciphertext byte inside the server's storage: the
        record still parses, but the client's authenticated decryption
        must detect the tampering."""
        storage = approx_cloud.server.storage
        cell = next(iter(storage.cells()))
        records = storage.load(cell).to_records()
        broken = bytearray(records[0].payload)
        broken[20] ^= 0xFF
        records[0].payload = bytes(broken)
        storage.save(cell, records)
        client = approx_cloud.new_client()
        with pytest.raises(AuthenticationError):
            # full-collection budget guarantees the broken record is hit
            client.knn_search(queries[0], 5, cand_size=10_000)


def _forge(document, what):
    """One lie told by a version-2 manifest."""
    cell = document["cells"][0]
    if what == "outside":  # a file outside the directory
        document["segments"][0][0] = "../victim.txt"
    elif what == "separator":
        document["segments"][0][0] = "sub/seg_00000000.chk"
    elif what == "count":  # a count its chunks do not hold
        cell["count"] += 5
    elif what == "no-chunks":
        cell["chunks"] = []
    elif what == "cell-twice":
        document["cells"].append(dict(cell))
    elif what == "chunk-twice":
        document["cells"][1]["chunks"].append(list(cell["chunks"][0]))
        document["cells"][1]["count"] += cell["chunks"][0][4]
    elif what == "past-size":  # a chunk past the committed size
        document["segments"][0][1] -= 1
    elif what == "unlisted":
        cell["chunks"][0][0] = 7
    elif what == "segment-twice":
        document["segments"].append(list(document["segments"][0]))
    elif what == "negative":
        cell["chunks"][0][1] = -1
    elif what == "boolean":
        document["segments"][0][1] = True
    elif what == "huge":  # a size no file system has
        cell["chunks"][0][3] = 1 << 63
    elif what == "version":
        document["version"] = 3
    else:
        raise AssertionError(what)


_LIES = [
    "outside", "separator", "count", "no-chunks", "cell-twice",
    "chunk-twice", "past-size", "unlisted", "segment-twice", "negative",
    "boolean", "huge", "version",
]


class TestHostileManifest:
    """``manifest.json`` is read, not trusted: a manifest that names a
    file outside the directory, or counts records its chunks do not
    hold, is refused before any file it names is looked at — the
    newest valid trailer is the catalog then, and without one the open
    fails and changes nothing."""

    @staticmethod
    def _records(n):
        return [
            IndexedRecord(i, np.arange(4, dtype=np.int32), None, bytes(20))
            for i in range(n)
        ]

    def _directory(self, tmp_path):
        directory = tmp_path / "cells"
        storage = DiskStorage(directory)
        storage.save_many(
            {("a",): self._records(5), ("b",): self._records(3)}
        )
        (tmp_path / "victim.txt").write_bytes(b"v" * 1000)
        return directory

    @staticmethod
    def _bytes_under(tmp_path):
        return {
            str(path): path.read_bytes()
            for path in tmp_path.rglob("*")
            if path.is_file()
        }

    @pytest.mark.parametrize("what", _LIES)
    def test_lie_falls_back(self, tmp_path, caplog, what):
        directory = self._directory(tmp_path)
        document = json.loads((directory / MANIFEST_NAME).read_text())
        _forge(document, what)
        forged = json.dumps(document).encode()
        with pytest.raises(StorageError):
            parse_manifest(forged)
        (directory / MANIFEST_NAME).write_bytes(forged)
        before = self._bytes_under(tmp_path)
        caplog.set_level(logging.INFO, logger="repro.storage")
        storage = DiskStorage(directory)
        assert [r.event for r in caplog.records] == ["manifest_fallback"]
        assert len(storage) == 8
        assert [r.oid for r in storage.load(("a",))] == [0, 1, 2, 3, 4]
        after = self._bytes_under(tmp_path)
        rewritten = str(directory / MANIFEST_NAME)
        assert after.pop(rewritten) != before.pop(rewritten)
        assert after == before

    @pytest.mark.parametrize("what", _LIES)
    def test_lie_refused(self, tmp_path, what):
        directory = self._directory(tmp_path)
        document = json.loads((directory / MANIFEST_NAME).read_text())
        _forge(document, what)
        (directory / MANIFEST_NAME).write_text(json.dumps(document))
        segment = directory / "seg_00000000.chk"
        segment.write_bytes(segment.read_bytes()[:-1])  # no tail magic
        (directory / "stray.tmp").write_bytes(b"debris stays too")
        before = self._bytes_under(tmp_path)
        with pytest.raises(StorageError):
            DiskStorage(directory)
        assert self._bytes_under(tmp_path) == before

    def test_per_cell_manifest_cannot_reach_outside(self, tmp_path):
        """The reproduction on the parent of the segment format: a
        version-1 entry ``"file": "../victim.txt", "size": 10`` made the
        open truncate a 1 000-byte file outside the directory to 10
        bytes. A version-1 manifest is refused now, beside segments or
        alone, and neither the directory nor the victim changes."""
        directory = self._directory(tmp_path)
        forged = {
            "version": 1,
            "cells": [{
                "id": "x", "file": "../victim.txt", "format": 2,
                "count": 0, "size": 10, "generation": 0, "chunks": [],
            }],
        }
        (directory / MANIFEST_NAME).write_text(json.dumps(forged))
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / MANIFEST_NAME).write_text(json.dumps(forged))
        before = self._bytes_under(tmp_path)
        for refused in (directory, bare):
            with pytest.raises(StorageError, match="per-cell directory"):
                DiskStorage(refused)
        assert self._bytes_under(tmp_path) == before
        assert (tmp_path / "victim.txt").read_bytes() == b"v" * 1000


class TestWireGarbage:
    def test_random_bytes_never_crash_the_server(self, approx_cloud, rng):
        """Fuzz the raw entry point: any byte soup must produce an
        error envelope, not an exception."""
        for length in (0, 1, 4, 16, 64, 300):
            for _ in range(20):
                garbage = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
                response = approx_cloud.server.handle(garbage)
                reader = Reader(response)
                status = reader.u8()
                assert status == 1  # error envelope

    def test_valid_envelope_invalid_body(self, approx_cloud):
        """A well-formed envelope with a nonsense body for a real
        method must come back as a server error, not a crash."""
        client = approx_cloud.new_client()
        with pytest.raises(ProtocolError):
            client.rpc.call("approx_knn", Writer().u8(7))

    def test_error_response_carries_reason(self, approx_cloud):
        client = approx_cloud.new_client()
        try:
            client.rpc.call("range", Writer().u8(1))
        except ProtocolError as exc:
            assert "server error" in str(exc) or "truncated" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected ProtocolError")


class _GarblingChannel(Channel):
    """A channel that flips one byte of every response."""

    def __init__(self, inner: InProcessChannel) -> None:
        super().__init__()
        self._inner = inner

    def request(self, data: bytes) -> bytes:
        response = bytearray(self._inner.request(data))
        if len(response) > 10:
            response[len(response) // 2] ^= 0x01
        return bytes(response)


class TestTransportCorruption:
    def test_garbled_response_surfaces_as_library_error(
        self, approx_cloud, queries
    ):
        """A flipped bit on the wire must raise a ReproError subclass
        (protocol or authentication failure), never return wrong
        plaintext silently."""
        inner = InProcessChannel(approx_cloud.server.handle)
        client = approx_cloud.new_client()
        client.rpc.channel = _GarblingChannel(inner)
        with pytest.raises(ReproError):
            client.knn_search(queries[0], 5, cand_size=100)
