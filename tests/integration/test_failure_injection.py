"""Failure injection: corrupt storage, tampered payloads, garbage on
the wire. A production service degrades with clear errors, never with
silent corruption or crashed server loops."""

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
from repro.storage.manifest import MANIFEST_NAME
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
            if p.name.startswith("cell_")
        )
        return storage, path

    def test_truncated_cell_file(self, tmp_path):
        storage, path = self._storage_with_cell(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises((StorageError, ProtocolError)):
            storage.load(("c",))

    def test_corrupted_chunk_payload(self, tmp_path):
        storage, path = self._storage_with_cell(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # flip a byte inside the compressed payload
        path.write_bytes(bytes(blob))
        with pytest.raises((StorageError, ProtocolError)):
            storage.load(("c",))

    def test_trailing_garbage_is_crash_tolerated(self, tmp_path):
        """Bytes past the manifest's committed length are a crashed
        append (data landed, manifest did not) — loads read only the
        indexed chunks, and reopening truncates the torn tail."""
        storage, path = self._storage_with_cell(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x01\x02")  # torn tail
        assert [r.oid for r in storage.load(("c",))] == [0, 1, 2, 3, 4]
        reopened = DiskStorage(path.parent)
        assert [r.oid for r in reopened.load(("c",))] == [0, 1, 2, 3, 4]
        assert path.stat().st_size == len(blob)

    @pytest.mark.parametrize("manifest", ["kept", "lost"])
    def test_torn_tail_truncation_is_logged(self, tmp_path, caplog, manifest):
        """Both places a torn tail is cut: against the manifest's
        committed length, and against the chunk headers when the
        manifest is gone and the file is scavenged."""
        _storage, path = self._storage_with_cell(tmp_path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x01\x02\x03")
        if manifest == "lost":
            (path.parent / MANIFEST_NAME).unlink()
        caplog.set_level(logging.INFO, logger="repro.storage")
        DiskStorage(path.parent)
        (record,) = caplog.records
        assert (record.levelno, record.event) == (
            logging.INFO, "tail_truncated"
        )
        assert (record.file, record.bytes) == (path.name, 3)
        assert path.stat().st_size == size

    def test_bitflipped_record_payload_still_parses_but_fails_auth(
        self, approx_cloud, queries
    ):
        """Flip one ciphertext byte inside the server's storage: the
        record still parses, but the client's authenticated decryption
        must detect the tampering."""
        storage = approx_cloud.server.storage
        cell = next(iter(storage.cells()))
        records = storage.load(cell)
        broken = bytearray(records[0].payload)
        broken[20] ^= 0xFF
        records[0].payload = bytes(broken)
        storage.save(cell, records)
        client = approx_cloud.new_client()
        with pytest.raises(AuthenticationError):
            # full-collection budget guarantees the broken record is hit
            client.knn_search(queries[0], 5, cand_size=10_000)


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
