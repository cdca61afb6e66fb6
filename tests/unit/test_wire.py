"""Unit tests for repro.wire.encoding and the candidate-table codec."""

import numpy as np
import pytest

from repro.core.records import IndexedRecord, RecordBatch
from repro.exceptions import AuthenticationError, ProtocolError
from repro.wire.encoding import BlobColumn, Reader, Writer, pack_blobs
from repro.wire.scatter import (
    CandidateTable,
    read_candidate_lists,
    read_candidate_table,
    write_candidate_lists,
    write_candidates,
)


class TestScalars:
    def test_u8_roundtrip(self):
        data = Writer().u8(0).u8(255).getvalue()
        reader = Reader(data)
        assert reader.u8() == 0
        assert reader.u8() == 255
        reader.expect_end()

    def test_u8_range_checked(self):
        with pytest.raises(ProtocolError):
            Writer().u8(256)
        with pytest.raises(ProtocolError):
            Writer().u8(-1)

    def test_u32_roundtrip(self):
        data = Writer().u32(0).u32(0xFFFFFFFF).getvalue()
        reader = Reader(data)
        assert reader.u32() == 0
        assert reader.u32() == 0xFFFFFFFF

    def test_u64_roundtrip(self):
        value = 0x0123456789ABCDEF
        assert Reader(Writer().u64(value).getvalue()).u64() == value

    def test_f64_roundtrip(self):
        for value in (0.0, -1.5, 3.14159, float("inf"), 1e-300):
            assert Reader(Writer().f64(value).getvalue()).f64() == value

    def test_boolean_roundtrip(self):
        data = Writer().boolean(True).boolean(False).getvalue()
        reader = Reader(data)
        assert reader.boolean() is True
        assert reader.boolean() is False

    def test_invalid_boolean_byte(self):
        with pytest.raises(ProtocolError):
            Reader(b"\x02").boolean()


class TestBlobsAndStrings:
    def test_blob_roundtrip(self):
        payload = b"\x00\x01binary\xff"
        assert Reader(Writer().blob(payload).getvalue()).blob() == payload

    def test_empty_blob(self):
        assert Reader(Writer().blob(b"").getvalue()).blob() == b""

    def test_string_roundtrip(self):
        text = "unicode: žluťoučký kůň"
        assert Reader(Writer().string(text).getvalue()).string() == text

    def test_invalid_utf8_rejected(self):
        data = Writer().blob(b"\xff\xfe").getvalue()
        with pytest.raises(ProtocolError):
            Reader(data).string()

    def test_raw_bytes_no_prefix(self):
        data = Writer().raw(b"abc").getvalue()
        assert data == b"abc"


class TestArrays:
    def test_f64_array_roundtrip(self, rng):
        arr = rng.normal(size=23)
        out = Reader(Writer().f64_array(arr).getvalue()).f64_array()
        np.testing.assert_array_equal(out, arr)

    def test_i32_array_roundtrip(self, rng):
        arr = rng.integers(-1000, 1000, size=17).astype(np.int32)
        out = Reader(Writer().i32_array(arr).getvalue()).i32_array()
        np.testing.assert_array_equal(out, arr)

    def test_empty_arrays(self):
        data = Writer().f64_array(np.array([])).getvalue()
        assert Reader(data).f64_array().shape == (0,)

    def test_2d_array_rejected(self):
        with pytest.raises(ProtocolError):
            Writer().f64_array(np.zeros((2, 2)))

    def test_array_size_prefix_exact(self):
        data = Writer().f64_array(np.zeros(3)).getvalue()
        assert len(data) == 4 + 3 * 8


class TestReaderSafety:
    def test_truncated_read_raises(self):
        with pytest.raises(ProtocolError):
            Reader(b"\x01\x02").u32()

    def test_truncated_blob_raises(self):
        data = Writer().u32(100).getvalue()  # claims 100 bytes, has none
        with pytest.raises(ProtocolError):
            Reader(data).blob()

    def test_expect_end_catches_trailing(self):
        reader = Reader(Writer().u8(1).u8(2).getvalue())
        reader.u8()
        with pytest.raises(ProtocolError):
            reader.expect_end()

    def test_remaining_counts_down(self):
        reader = Reader(Writer().u32(7).u32(9).getvalue())
        assert reader.remaining() == 8
        reader.u32()
        assert reader.remaining() == 4

    def test_mixed_message(self, rng):
        arr = rng.normal(size=5)
        data = (
            Writer()
            .string("method")
            .u64(42)
            .f64_array(arr)
            .blob(b"payload")
            .boolean(True)
            .getvalue()
        )
        reader = Reader(data)
        assert reader.string() == "method"
        assert reader.u64() == 42
        np.testing.assert_array_equal(reader.f64_array(), arr)
        assert reader.blob() == b"payload"
        assert reader.boolean() is True
        reader.expect_end()

    def test_writer_len(self):
        writer = Writer().u32(1).blob(b"abcd")
        assert len(writer) == 4 + 4 + 4


class TestMatrices:
    def test_f64_matrix_roundtrip(self, rng):
        matrix = rng.normal(size=(5, 7))
        data = Writer().f64_matrix(matrix).getvalue()
        reader = Reader(data)
        np.testing.assert_array_equal(reader.f64_matrix(), matrix)
        reader.expect_end()

    def test_i32_matrix_roundtrip(self, rng):
        matrix = rng.integers(-1000, 1000, size=(4, 9), dtype=np.int32)
        data = Writer().i32_matrix(matrix).getvalue()
        reader = Reader(data)
        np.testing.assert_array_equal(reader.i32_matrix(), matrix)
        reader.expect_end()

    def test_empty_matrices(self):
        data = (
            Writer()
            .f64_matrix(np.empty((0, 6)))
            .i32_matrix(np.empty((3, 0), dtype=np.int32))
            .getvalue()
        )
        reader = Reader(data)
        assert reader.f64_matrix().shape == (0, 6)
        assert reader.i32_matrix().shape == (3, 0)
        reader.expect_end()

    def test_non_2d_rejected(self):
        with pytest.raises(ProtocolError):
            Writer().f64_matrix(np.zeros(4))
        with pytest.raises(ProtocolError):
            Writer().i32_matrix(np.zeros((2, 2, 2), dtype=np.int32))

    def test_truncated_matrix_rejected(self):
        data = Writer().f64_matrix(np.ones((3, 3))).getvalue()
        with pytest.raises(ProtocolError):
            Reader(data[:-8]).f64_matrix()


class TestZeroCopyBytes:
    def test_blob_passes_bytes_through_by_identity(self):
        """Construction-path payloads (encrypted tokens) must not be
        duplicated on encode: an exact ``bytes`` input is appended to
        the buffer by identity."""
        data = b"encrypted-token-payload"
        writer = Writer().blob(data)
        assert any(part is data for part in writer._parts)
        assert Reader(writer.getvalue()).blob() == data

    def test_raw_passes_bytes_through_by_identity(self):
        data = b"raw-bytes"
        writer = Writer().raw(data)
        assert any(part is data for part in writer._parts)

    def test_bytearray_still_copied(self):
        mutable = bytearray(b"mutable")
        writer = Writer().blob(mutable)
        mutable[0] = 0  # mutation after encode must not leak in
        assert Reader(writer.getvalue()).blob() == b"mutable"

    def test_blob_region_passes_bytes_through_by_identity(self):
        blobs = [b"one", b"two", b"three"]
        writer = Writer().blob_region(blobs)
        for blob in blobs:
            assert any(part is blob for part in writer._parts)


class TestColumnarCodecs:
    def test_u64_array_roundtrip(self):
        values = np.array([0, 1, 2**40, 2**64 - 1], dtype=np.uint64)
        reader = Reader(Writer().u64_array(values).getvalue())
        out = reader.u64_array()
        assert out.dtype == np.uint64
        np.testing.assert_array_equal(out, values)
        reader.expect_end()

    def test_u64_array_rejects_matrix(self):
        with pytest.raises(ProtocolError):
            Writer().u64_array(np.zeros((2, 2), dtype=np.uint64))

    def test_blob_region_roundtrip(self):
        blobs = [b"", b"a", b"bc", bytes(range(256))]
        reader = Reader(Writer().blob_region(blobs).getvalue())
        assert reader.blob_region() == blobs
        reader.expect_end()

    def test_empty_blob_region(self):
        reader = Reader(Writer().blob_region([]).getvalue())
        assert reader.blob_region() == []
        reader.expect_end()

    def test_truncated_blob_region_rejected(self):
        encoded = Writer().blob_region([b"abcdef"]).getvalue()
        with pytest.raises(ProtocolError):
            Reader(encoded[:-2]).blob_region()

    def test_blob_columns_share_the_blob_region_layout(self):
        blobs = [b"", b"a", b"bc", bytes(range(256))]
        encoded = Writer().blob_region(blobs).getvalue()
        offsets, region = Reader(encoded).blob_columns()
        assert offsets.tolist() == [0, 0, 1, 3, 259]
        assert bytes(region) == b"".join(blobs)
        lengths = np.diff(offsets)
        assert Writer().blob_columns(lengths, region).getvalue() == encoded

    def test_blob_columns_reject_lengths_that_miss_the_region(self):
        with pytest.raises(ProtocolError):
            Writer().blob_columns([1, 2], b"ab")


class TestBlobColumns:
    """Blobs left where they lie, and the one gather out of them."""

    @staticmethod
    def _strided(rng, count, width, stride=37):
        """A regular column the way a stored cell has one: equal-sized
        blobs inside bigger fixed-size frames."""
        frames = np.frombuffer(rng.bytes(count * stride), dtype=np.uint8)
        return BlobColumn(frames.reshape(count, stride)[:, 5 : 5 + width])

    def test_both_layouts_list_their_blobs(self):
        rng = np.random.default_rng(0)
        regular = self._strided(rng, 6, 9)
        blobs = [bytes(row) for row in regular.matrix]
        assert len(regular) == 6 and regular.tolist() == blobs
        assert regular[4] == blobs[4] and list(regular) == blobs
        assert regular.tolist(np.array([5, 0, 5])) == [blobs[5], blobs[0], blobs[5]]
        assert regular.lengths.tolist() == [9] * 6
        ragged = BlobColumn.of([b"", b"abc", b"", b"0123456789"])
        assert ragged.matrix is None and len(ragged) == 4
        assert ragged.tolist() == [b"", b"abc", b"", b"0123456789"]
        assert ragged[3] == b"0123456789"
        assert ragged.tolist(slice(1, 3)) == [b"abc", b""]
        assert ragged.lengths.tolist() == [0, 3, 0, 10]
        # equal non-zero sizes end to end are a regular column too
        assert BlobColumn.of([b"ab", b"cd"]).matrix.tolist() == [[97, 98], [99, 100]]
        assert BlobColumn.of([b"", b""]).tolist() == [b"", b""]
        assert len(BlobColumn.of([])) == 0 and BlobColumn.of([]) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_pack_gathers_any_rows_of_any_columns(self, seed):
        rng = np.random.default_rng(seed)
        widths = [9, 9, 9] if seed % 2 else [9, 4, 9]
        columns = [
            self._strided(rng, int(rng.integers(0, 6)), widths[0]),
            BlobColumn.of(
                [rng.bytes(int(rng.integers(0, 12))) for _ in range(5)]
                if seed % 4 > 1
                else [rng.bytes(widths[1]) for _ in range(5)]
            ),
            BlobColumn(np.empty((3, 0), dtype=np.uint8))
            if seed == 6
            else self._strided(rng, 3, widths[2]),
            BlobColumn.of([]),
        ]
        blobs = [blob for column in columns for blob in column]
        for rows in (
            None,
            np.arange(len(blobs))[::-1],
            rng.integers(0, len(blobs), size=25),
            np.sort(rng.integers(0, len(blobs), size=25)),
            np.empty(0, dtype=np.int64),
        ):
            lengths, region = pack_blobs(columns, rows)
            wanted = blobs if rows is None else [blobs[row] for row in rows]
            assert lengths.tolist() == [len(blob) for blob in wanted]
            assert bytes(region) == b"".join(wanted)
            # and it is what the writer appends
            assert (
                Writer().blob_columns(lengths, region).getvalue()
                == Writer().blob_region(wanted).getvalue()
            )

    def test_pack_refuses_rows_outside_the_columns(self):
        columns = [BlobColumn.of([b"ab", b"cd"]), BlobColumn.of([b"e"])]
        for rows in ([3], [-1], [0, 7]):
            with pytest.raises(IndexError):
                pack_blobs(columns, np.array(rows))
        with pytest.raises(IndexError):
            pack_blobs([], np.array([0]))


class TestCandidateTable:
    """The one (oid column, blob region) codec of search responses."""

    #: the writers' source: a list of tables, here one stored cell as
    #: a storage backend hands it over
    RECORDS = [
        RecordBatch.of_cell(
            [
                IndexedRecord(42, np.arange(3), None, b"token-bytes"),
                IndexedRecord(2**64 - 1, np.arange(3), None, b""),
                IndexedRecord(7, np.arange(3), None, b"0123456789"),
            ]
        )
    ]

    def test_roundtrip(self):
        reader = Reader(write_candidates(self.RECORDS).getvalue())
        table = read_candidate_table(reader)
        reader.expect_end()
        assert table[0].tolist() == [42, 2**64 - 1, 7]
        assert table.payloads.tolist() == [b"token-bytes", b"", b"0123456789"]

    def test_wire_size_exact(self):
        # two count prefixes, then 8 bytes of oid and 4 of length a
        # candidate, then the payloads and nothing else
        encoded = write_candidates(self.RECORDS).getvalue()
        assert len(encoded) == 4 + 4 + 3 * (8 + 4) + 11 + 0 + 10

    def test_records_and_wire_tables_encode_alike(self):
        """A server (stored cells) and the router (a table off the
        wire) must emit the same bytes for the same candidates."""
        encoded = write_candidates(self.RECORDS).getvalue()
        table = read_candidate_table(Reader(encoded))
        assert write_candidates([table]).getvalue() == encoded
        rows = np.array([2, 0, 2, 1])
        (cell,) = self.RECORDS
        assert (
            write_candidates([table], rows).getvalue()
            == write_candidates(self.RECORDS, rows).getvalue()
            == write_candidates(
                [RecordBatch.of_cell([cell[row] for row in rows])]
            ).getvalue()
            # rows count through the tables end to end
            == write_candidates(
                [RecordBatch.of_cell(cell[:1]), RecordBatch.of_cell(cell[1:])],
                rows,
            ).getvalue()
        )

    def test_batch_table_is_in_first_use_order(self):
        lists = [np.array([2, 0]), np.array([], dtype=int), np.array([0, 1])]
        reader = Reader(write_candidate_lists(self.RECORDS, lists).getvalue())
        table, rows_per_query = read_candidate_lists(reader)
        assert table[0].tolist() == [7, 42, 2**64 - 1]
        assert [rows.tolist() for rows in rows_per_query] == [
            [0, 1], [], [1, 2],
        ]
        # an unused row does not travel, and an empty batch has no lists
        assert read_candidate_lists(
            Reader(write_candidate_lists(self.RECORDS, lists[:1]).getvalue())
        )[0][0].tolist() == [7, 42]
        assert read_candidate_lists(
            Reader(write_candidate_lists(self.RECORDS, []).getvalue())
        )[1] == []

    def test_count_mismatch_rejected(self):
        encoded = (
            Writer().u64_array(np.arange(2)).blob_region([b"x"]).getvalue()
        )
        with pytest.raises(ProtocolError, match="2 oids and 1 payloads"):
            read_candidate_table(Reader(encoded))


class _Answering:
    """Stands in for a client's RPC layer: every call is answered with
    one response body."""

    def __init__(self, body: bytes) -> None:
        self.body = body

    def call(self, method, body=b""):
        return Reader(self.body)


def _forged_among_600(cipher, rng):
    tokens = cipher.encrypt_many(
        [row.tobytes() for row in rng.normal(size=(600, 12))]
    )
    forged = bytearray(tokens[417])
    forged[-3] ^= 0x10
    tokens[417] = bytes(forged)
    return tokens


class TestHostileCandidateTables:
    """Candidate tables a server could answer a k-NN search with that no
    index of 12-d vectors holds, through the client's whole refinement:
    each ends ``knn_search`` and ``knn_batch`` with a typed error and no
    hit built — and a forged tag with no keystream computed."""

    #: case -> (the table's tokens for a cipher and a generator, error)
    CASES = {
        "narrower than nonce and tag": (
            lambda cipher, rng: [rng.bytes(20)] * 6,
            AuthenticationError,
        ),
        "empty plaintexts": (
            lambda cipher, rng: cipher.encrypt_many([b""] * 6),
            ProtocolError,
        ),
        "plaintexts not a multiple of 8": (
            lambda cipher, rng: cipher.encrypt_many([rng.bytes(92)] * 6),
            ProtocolError,
        ),
        "ragged widths": (
            lambda cipher, rng: cipher.encrypt_many(
                [rng.bytes(96)] * 4 + [rng.bytes(88)] * 2
            ),
            ProtocolError,
        ),
        "one forged tag among 600": (_forged_among_600, AuthenticationError),
        "untampered": (
            lambda cipher, rng: cipher.encrypt_many(
                [row.tobytes() for row in rng.normal(size=(600, 12))]
            ),
            None,
        ),
    }

    @pytest.mark.parametrize("single", [True, False])
    @pytest.mark.parametrize("case", list(CASES))
    def test_refused_typed_before_any_hit(
        self, approx_cloud, queries, monkeypatch, case, single
    ):
        from repro.core import client as client_module
        from repro.crypto import cipher as cipher_module

        make, error = self.CASES[case]
        client = approx_cloud.new_client()
        tokens = make(client.secret_key.cipher, np.random.default_rng(3))
        table = [
            CandidateTable(
                np.arange(len(tokens), dtype=np.uint64), BlobColumn.of(tokens)
            )
        ]
        rows = np.arange(len(tokens))
        if single:
            client.rpc = _Answering(write_candidates(table).getvalue())
            search = lambda: client.knn_search(  # noqa: E731
                queries[0], 5, cand_size=len(tokens)
            )
        else:
            client.rpc = _Answering(
                write_candidate_lists(table, [rows, rows[::-1]]).getvalue()
            )
            search = lambda: client.knn_batch(  # noqa: E731
                queries[:2], 5, cand_size=len(tokens)
            )
        built, keystreams = [], []
        monkeypatch.setattr(
            client_module, "SearchHit", lambda *args: built.append(args)
        )
        real = cipher_module.ctr_transform_rows
        monkeypatch.setattr(
            cipher_module,
            "ctr_transform_rows",
            lambda *args: keystreams.append(len(args[1])) or real(*args),
        )
        if error is None:
            search()
            assert len(built) == 5 * (1 if single else 2)
            assert keystreams == [600]
            return
        with pytest.raises(error):
            search()
        assert built == []
        if error is AuthenticationError:
            assert keystreams == []
