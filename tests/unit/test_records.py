"""Unit tests for repro.core.records."""

import numpy as np
import pytest

from repro.core.records import (
    IndexedRecord,
    RecordBatch,
    rows_to_vectors,
    vector_to_payload,
)
from repro.metric.permutations import pivot_permutation
from repro.exceptions import ProtocolError
from repro.wire.encoding import BlobColumn, Reader, Writer


def _perm(n=5):
    return np.random.default_rng(0).permutation(n).astype(np.int32)


class TestIndexedRecord:
    def test_permutation_only(self):
        record = IndexedRecord(1, _perm(), None, b"payload")
        assert record.distances is None
        assert record.n_pivots == 5

    def test_distances_only(self):
        record = IndexedRecord(2, None, np.array([3.0, 1.0, 2.0]), b"x")
        assert record.distances is not None
        assert record.n_pivots == 3

    def test_ensure_permutation_derives_from_distances(self):
        record = IndexedRecord(2, None, np.array([3.0, 1.0, 2.0]), b"x")
        perm = record.ensure_permutation()
        assert perm.tolist() == [1, 2, 0]

    def test_ensure_permutation_keeps_existing(self):
        perm = _perm()
        record = IndexedRecord(3, perm, None, b"x")
        np.testing.assert_array_equal(record.ensure_permutation(), perm)

    def test_needs_permutation_or_distances(self):
        with pytest.raises(ProtocolError):
            IndexedRecord(1, None, None, b"x")

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ProtocolError):
            IndexedRecord(1, _perm(5), np.zeros(4), b"x")

    def test_empty_permutation_rejected(self):
        with pytest.raises(ProtocolError):
            IndexedRecord(1, np.array([], dtype=np.int32), None, b"x")


class TestRecordSerialization:
    def test_roundtrip_permutation_only(self):
        record = IndexedRecord(7, _perm(), None, b"enc-bytes")
        restored = IndexedRecord.from_bytes(record.to_bytes())
        assert restored.oid == 7
        np.testing.assert_array_equal(restored.permutation, record.permutation)
        assert restored.distances is None
        assert restored.payload == b"enc-bytes"

    def test_roundtrip_distances_only(self):
        record = IndexedRecord(8, None, np.array([1.5, 0.25]), b"p")
        restored = IndexedRecord.from_bytes(record.to_bytes())
        assert restored.permutation is None
        np.testing.assert_array_equal(restored.distances, record.distances)

    def test_roundtrip_both_fields(self):
        record = IndexedRecord(
            9, np.array([1, 0], dtype=np.int32), np.array([2.0, 1.0]), b"pp"
        )
        restored = IndexedRecord.from_bytes(record.to_bytes())
        np.testing.assert_array_equal(restored.permutation, record.permutation)
        np.testing.assert_array_equal(restored.distances, record.distances)

    def test_wire_size_is_exact(self):
        for record in (
            IndexedRecord(1, _perm(), None, b"abc"),
            IndexedRecord(2, None, np.zeros(6), b""),
            IndexedRecord(3, _perm(4), np.ones(4), b"xyz123"),
        ):
            assert len(record.to_bytes()) == record.wire_size

    def test_trailing_bytes_rejected(self):
        blob = IndexedRecord(1, _perm(), None, b"x").to_bytes() + b"junk"
        with pytest.raises(ProtocolError):
            IndexedRecord.from_bytes(blob)

    def test_invalid_flags_rejected(self):
        writer = Writer()
        writer.u64(1)
        writer.u8(0)  # neither permutation nor distances
        writer.blob(b"x")
        with pytest.raises(ProtocolError):
            IndexedRecord.read_from(Reader(writer.getvalue()))

    def test_stream_of_records(self):
        records = [
            IndexedRecord(i, _perm(), None, bytes([i] * 4)) for i in range(5)
        ]
        writer = Writer()
        for record in records:
            record.write_to(writer)
        reader = Reader(writer.getvalue())
        restored = [IndexedRecord.read_from(reader) for _ in range(5)]
        reader.expect_end()
        assert [r.oid for r in restored] == [0, 1, 2, 3, 4]


def _one_row(payload: bytes) -> np.ndarray:
    """A payload as the one row of a matrix, the decoder's input."""
    return np.frombuffer(payload, dtype=np.uint8).reshape(1, -1)


class TestVectorPayloads:
    def test_roundtrip(self, rng):
        vector = rng.normal(size=17)
        np.testing.assert_array_equal(
            rows_to_vectors(_one_row(vector_to_payload(vector)))[0], vector
        )

    def test_invalid_length_rejected(self):
        with pytest.raises(ProtocolError):
            rows_to_vectors(_one_row(b"12345"))

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            rows_to_vectors(_one_row(b""))

    def test_matrix_rows_are_the_per_payload_vectors(self, rng):
        vectors = rng.normal(size=(9, 17))
        payloads = [vector_to_payload(row) for row in vectors]
        matrix = rows_to_vectors(BlobColumn.of(payloads).as_matrix())
        assert matrix.shape == (9, 17) and matrix.dtype == np.float64
        for row, payload in zip(matrix, payloads):
            np.testing.assert_array_equal(row, rows_to_vectors(_one_row(payload))[0])

    @pytest.mark.parametrize(
        "payloads",
        [
            [bytes(16), b"12345"],  # one length is not a float64 vector
            [b"", b""],
            [bytes(16), bytes(24)],  # two valid lengths, no matrix
        ],
    )
    def test_matrix_keeps_the_length_checks(self, payloads):
        with pytest.raises(ProtocolError):
            rows_to_vectors(BlobColumn.of(payloads).as_matrix())


class TestRecordBatch:
    def _batch(self, *, with_perms=True, with_dists=True, n=6, p=5):
        rng = np.random.default_rng(7)
        distances = rng.uniform(0.0, 10.0, size=(n, p))
        permutations = np.argsort(distances, axis=1).astype(np.int32)
        return RecordBatch(
            np.arange(n, dtype=np.uint64),
            permutations if with_perms else None,
            distances if with_dists else None,
            [bytes([i]) * (i + 1) for i in range(n)],
        )

    @pytest.mark.parametrize(
        "with_perms,with_dists", [(True, False), (False, True), (True, True)]
    )
    def test_wire_roundtrip(self, with_perms, with_dists):
        batch = self._batch(with_perms=with_perms, with_dists=with_dists)
        writer = batch.write_to(Writer())
        reader = Reader(writer.getvalue())
        decoded = RecordBatch.read_from(reader)
        reader.expect_end()
        np.testing.assert_array_equal(decoded.oids, batch.oids)
        if with_perms:
            np.testing.assert_array_equal(
                decoded.permutations, batch.permutations
            )
        else:
            assert decoded.permutations is None
        if with_dists:
            np.testing.assert_array_equal(decoded.distances, batch.distances)
        else:
            assert decoded.distances is None
        assert decoded.payloads == batch.payloads

    def test_to_records_derives_permutations_in_one_call(self):
        batch = self._batch(with_perms=False, with_dists=True)
        records = batch.to_records()
        for position, record in enumerate(records):
            assert record.oid == position
            np.testing.assert_array_equal(
                record.permutation,
                pivot_permutation(batch.distances[position]),
            )
            np.testing.assert_array_equal(
                record.distances, batch.distances[position]
            )
            assert record.payload == batch.payloads[position]

    def test_from_records_roundtrip(self):
        batch = self._batch()
        records = batch.to_records()
        rebuilt = RecordBatch.from_records(records)
        np.testing.assert_array_equal(rebuilt.oids, batch.oids)
        np.testing.assert_array_equal(
            rebuilt.permutations, batch.permutations
        )
        np.testing.assert_array_equal(rebuilt.distances, batch.distances)
        assert rebuilt.payloads == batch.payloads

    def test_from_records_rejects_mixed_representations(self):
        mixed = [
            IndexedRecord(0, _perm(), None, b"a"),
            IndexedRecord(1, None, np.ones(5), b"b"),
        ]
        with pytest.raises(ProtocolError):
            RecordBatch.from_records(mixed)

    def test_needs_a_representation(self):
        with pytest.raises(ProtocolError):
            RecordBatch(np.arange(2, dtype=np.uint64), None, None, [b"", b""])

    def test_misaligned_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            RecordBatch(
                np.arange(3, dtype=np.uint64),
                np.zeros((3, 4), dtype=np.int32),
                None,
                [b"only-one"],
            )

    def test_misaligned_matrix_rejected(self):
        with pytest.raises(ProtocolError):
            RecordBatch(
                np.arange(3, dtype=np.uint64),
                np.zeros((2, 4), dtype=np.int32),
                None,
                [b"", b"", b""],
            )

    def test_invalid_flags_rejected(self):
        writer = Writer()
        writer.u32(0)
        writer.u8(0)
        with pytest.raises(ProtocolError):
            RecordBatch.read_from(Reader(writer.getvalue()))
