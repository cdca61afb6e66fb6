"""Property-based tests for the wire format and records."""

import struct
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.router import merge_knn_candidates, merge_range_candidates
from repro.core.records import IndexedRecord
from repro.exceptions import ProtocolError, QueryError
from repro.wire.encoding import BlobColumn, Reader, Writer
from repro.wire.scatter import (
    CandidateTable,
    read_candidate_lists,
    read_candidate_table,
    read_knn_scatter_response,
    read_range_scatter_response,
    write_candidate_lists,
    write_candidates,
    write_knn_scatter_response,
    write_range_scatter_response,
)
from repro.wire.search import KNN, RANGE, RANGE_TRANSFORMED

from tests.conftest import HOSTILE_U32, decode_within_bounds

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    u8=st.integers(min_value=0, max_value=255),
    u32=st.integers(min_value=0, max_value=2**32 - 1),
    u64=st.integers(min_value=0, max_value=2**64 - 1),
    f64=finite_floats,
    flag=st.booleans(),
    blob=st.binary(max_size=200),
    text=st.text(max_size=50),
)
def test_scalar_roundtrip(u8, u32, u64, f64, flag, blob, text):
    data = (
        Writer()
        .u8(u8)
        .u32(u32)
        .u64(u64)
        .f64(f64)
        .boolean(flag)
        .blob(blob)
        .string(text)
        .getvalue()
    )
    reader = Reader(data)
    assert reader.u8() == u8
    assert reader.u32() == u32
    assert reader.u64() == u64
    assert reader.f64() == f64
    assert reader.boolean() == flag
    assert reader.blob() == blob
    assert reader.string() == text
    reader.expect_end()


@settings(max_examples=60, deadline=None)
@given(
    f64s=arrays(
        np.float64,
        st.integers(min_value=0, max_value=40),
        elements=finite_floats,
    ),
    i32s=arrays(
        np.int32,
        st.integers(min_value=0, max_value=40),
        elements=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    ),
)
def test_array_roundtrip(f64s, i32s):
    data = Writer().f64_array(f64s).i32_array(i32s).getvalue()
    reader = Reader(data)
    np.testing.assert_array_equal(reader.f64_array(), f64s)
    np.testing.assert_array_equal(reader.i32_array(), i32s)
    reader.expect_end()


@settings(max_examples=60, deadline=None)
@given(data=st.binary(max_size=60))
def test_truncation_never_crashes_reader(data):
    """Any byte soup must either parse or raise ProtocolError — never
    crash with an arbitrary exception."""
    reader = Reader(data)
    try:
        reader.string()
        reader.f64_array()
        reader.blob()
    except ProtocolError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    oid=st.integers(min_value=0, max_value=2**64 - 1),
    n_pivots=st.integers(min_value=1, max_value=20),
    has_perm=st.booleans(),
    has_dists=st.booleans(),
    payload=st.binary(max_size=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_record_roundtrip(oid, n_pivots, has_perm, has_dists, payload, seed):
    rng = np.random.default_rng(seed)
    permutation = (
        rng.permutation(n_pivots).astype(np.int32) if has_perm else None
    )
    distances = rng.random(n_pivots) if has_dists else None
    if not has_perm and not has_dists:
        with pytest.raises(ProtocolError):
            IndexedRecord(oid, None, None, payload)
        return
    record = IndexedRecord(oid, permutation, distances, payload)
    restored = IndexedRecord.from_bytes(record.to_bytes())
    assert restored.oid == oid
    assert restored.payload == payload
    assert record.wire_size == len(record.to_bytes())
    if has_perm:
        np.testing.assert_array_equal(restored.permutation, permutation)
    if has_dists:
        np.testing.assert_array_equal(restored.distances, distances)
    # derived permutation is consistent either way
    derived = restored.ensure_permutation()
    assert sorted(derived.tolist()) == list(range(n_pivots))




# ---------------------------------------------------------------------------
# the candidate-table codec and the search-request codecs: round trips,
# then hostile input


class _Stored(NamedTuple):
    oid: int
    payload: bytes


def _tables(records, cuts=()):
    """The writers' one kind of source over made-up ``(oid, payload)``
    records: a list of tables — an oid column and a blob column each —
    here the records cut into tables at ``cuts`` (one table, by
    default), so that a row counts through several of them."""
    bounds = [0, *sorted(cuts), len(records)]
    return [
        CandidateTable(
            np.array([r.oid for r in records[a:b]], dtype=np.uint64),
            BlobColumn.of([r.payload for r in records[a:b]]),
        )
        for a, b in zip(bounds, bounds[1:])
    ]


stored_records = st.lists(
    st.builds(
        _Stored,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.binary(max_size=40),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(records=stored_records, data=st.data())
def test_candidate_table_roundtrip(records, data):
    """Every (oid, payload) survives, however the writer's source is
    cut into tables — made up here or read off the wire — and whichever
    rows of it are asked for."""
    cuts = data.draw(st.lists(st.integers(0, len(records)), max_size=3))
    encoded = write_candidates(_tables(records)).getvalue()
    assert write_candidates(_tables(records, cuts)).getvalue() == encoded
    reader = Reader(encoded)
    table = read_candidate_table(reader)
    reader.expect_end()
    assert table[0].tolist() == [record.oid for record in records]
    assert table.payloads.tolist() == [record.payload for record in records]
    rows = np.asarray(
        data.draw(
            st.lists(st.integers(0, max(0, len(records) - 1)), max_size=20)
            if records
            else st.just([])
        ),
        dtype=np.int64,
    )
    picked = write_candidates([table], rows).getvalue()
    assert picked == write_candidates(_tables(records), rows).getvalue()
    assert picked == write_candidates(_tables(records, cuts), rows).getvalue()
    assert read_candidate_table(Reader(picked)).payloads.tolist() == [
        records[row].payload for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_queries=st.integers(0, 4),
    n_pivots=st.integers(1, 6),
    cand_size=st.integers(1, 2**32 - 1),
    max_cells=st.none() | st.integers(1, 2**32 - 1),
    radius=st.floats(min_value=0.0, allow_nan=False),
)
def test_search_request_roundtrip(
    seed, n_queries, n_pivots, cand_size, max_cells, radius
):
    """A search request is the layout written out by hand here, in the
    batch form and — its one row as an array — in the single form, and
    the search's reader hands either back as matrices."""
    rng = np.random.default_rng(seed)
    perms = rng.permuted(
        np.tile(np.arange(n_pivots, dtype=np.int32), (n_queries, 1)), axis=1
    )
    lows = rng.random((n_queries, n_pivots))
    highs = lows + 1.0
    cells = max_cells if max_cells is not None else 0
    for search, queries, options, by_hand in (
        (
            KNN,
            (perms,),
            {"cand_size": cand_size, "max_cells": max_cells},
            lambda w, rows, form: getattr(w, f"i32_{form}")(perms[rows])
            .u32(cand_size)
            .u32(cells),
        ),
        (
            RANGE,
            (lows,),
            {"radius": radius},
            lambda w, rows, form: getattr(w, f"f64_{form}")(lows[rows])
            .f64(radius),
        ),
        (
            RANGE_TRANSFORMED,
            (lows, highs),
            {},
            lambda w, rows, form: getattr(
                getattr(w, f"f64_{form}")(lows[rows]), f"f64_{form}"
            )(highs[rows]),
        ),
    ):
        forms = [(False, queries, by_hand(Writer(), slice(None), "matrix"))]
        forms += [
            (
                True,
                [matrix[row : row + 1] for matrix in queries],
                by_hand(Writer(), row, "array"),
            )
            for row in range(n_queries)
        ]
        for single, sent, expected in forms:
            message = search.write_request(
                *sent, single=single, **options
            ).getvalue()
            assert message == expected.getvalue()
            got, got_options = search.read_request(
                Reader(message), single=single
            )
            assert got_options == options
            assert len(got) == len(sent)
            for matrix, original in zip(got, sent):
                np.testing.assert_array_equal(matrix, original)
    with pytest.raises(ProtocolError, match="carries one query, got 2"):
        RANGE.write_request(np.zeros((2, 3)), 1.0, single=True)


def _responses(rng, n_queries):
    """One valid message of each kind — the search responses over the
    same made-up records, then the search requests in both forms:
    (kind, message, decode) with ``decode`` the whole consumer — reader
    plus, for scatter answers, the router's merge and re-encoding."""
    records = [
        _Stored(int(oid), rng.bytes(int(rng.integers(0, 9))))
        for oid in rng.integers(0, 2**63, size=rng.integers(1, 9))
    ]
    rows = [
        rng.integers(0, len(records), size=rng.integers(0, 5))
        for _ in range(n_queries)
    ]
    prefixes = [tuple(rng.integers(0, 4, size=rng.integers(0, 3)).tolist())
                for _ in range(3)]
    knn_groups = [
        [
            (float(rng.integers(0, 3)), prefixes[g], chosen,
             rng.integers(0, 4, size=len(chosen)).astype(np.float64))
            for g, chosen in enumerate(np.array_split(query_rows, 3))
            if len(chosen)
        ]
        for query_rows in rows
    ]
    range_groups = [
        [(prefix, chosen) for _promise, prefix, chosen, _s in groups]
        for groups in knn_groups
    ]

    def merged_knn(message):
        answer = read_knn_scatter_response(Reader(message))
        merged = merge_knn_candidates([(0, *answer)], n_queries, 4, None)
        return write_candidate_lists(*merged).getvalue()

    def merged_range(message):
        answer = read_range_scatter_response(Reader(message))
        merged = merge_range_candidates([(0, *answer)], n_queries)
        return write_candidate_lists(*merged).getvalue()

    def single(message):
        reader = Reader(message)
        table = read_candidate_table(reader)
        reader.expect_end()
        return table.payloads.tolist()

    records = _tables(records, cuts=[len(records) // 2])
    return [
        ("single", write_candidates(records).getvalue(), single),
        (
            "batch",
            write_candidate_lists(records, rows).getvalue(),
            lambda message: read_candidate_lists(Reader(message)),
        ),
        (
            "knn_scatter",
            write_knn_scatter_response(records, knn_groups).getvalue(),
            merged_knn,
        ),
        (
            "range_scatter",
            write_range_scatter_response(records, range_groups).getvalue(),
            merged_range,
        ),
        (
            "blob_region",
            Writer().blob_region(
                [token for table in records for token in table.payloads]
            ).getvalue(),
            lambda message: Reader(message).blob_region(),
        ),
    ] + _requests(rng, n_queries)


def _requests(rng, n_queries):
    """One valid request of each search in its batch form (``n_queries``
    rows) and its single form, with the search's reader as consumer."""
    perms = rng.permuted(np.tile(np.arange(5), (max(n_queries, 1), 1)), axis=1)
    lows = rng.random(perms.shape)
    return [
        (
            f"{search.method(single)} request",
            search.write_request(
                *(m[: 1 if single else n_queries] for m in queries),
                single=single,
                **options,
            ).getvalue(),
            lambda message, search=search, single=single: (
                search.read_request(Reader(message), single=single)
            ),
        )
        for search, queries, options in (
            (KNN, (perms,), {"cand_size": 7, "max_cells": 2}),
            (RANGE, (lows,), {"radius": 1.5}),
            (RANGE_TRANSFORMED, (lows, lows + 1.0), {}),
        )
        for single in (False, True)
    ]


def _decode_within_bounds(message, decode):
    decode_within_bounds(lambda: decode(message), len(message))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_queries=st.integers(0, 4),
    damage=st.data(),
)
def test_damaged_responses_fail_typed_and_bounded(seed, n_queries, damage):
    """Truncate, flip a bit of, or forge a 32-bit field of every kind of
    search response (and of a bare blob region): the consumer yields a
    ``ReproError`` or a result — never ``IndexError``, ``ValueError``
    or ``MemoryError`` — in memory bounded by the message."""
    for _kind, message, decode in _responses(
        np.random.default_rng(seed), n_queries
    ):
        decode(message)  # the undamaged message decodes
        _decode_within_bounds(
            message[: damage.draw(st.integers(0, len(message) - 1))], decode
        )
        flipped = bytearray(message)
        position = damage.draw(st.integers(0, len(message) - 1))
        flipped[position] ^= 1 << damage.draw(st.integers(0, 7))
        _decode_within_bounds(bytes(flipped), decode)
        forged = bytearray(message)
        position = damage.draw(st.integers(0, len(message) - 4))
        struct.pack_into(
            "<I", forged, position, damage.draw(st.integers(0, 2**32 - 1))
        )
        _decode_within_bounds(bytes(forged), decode)


@pytest.mark.parametrize("seed", range(4))
def test_every_forged_field_fails_typed_and_bounded(seed):
    """Each aligned 32-bit field of each kind of response in turn —
    every count, length, size, row number and group count among them —
    overwritten with each hostile value."""
    for _kind, message, decode in _responses(np.random.default_rng(seed), 3):
        for position in range(0, len(message) - 3, 4):
            for value in HOSTILE_U32:
                forged = bytearray(message)
                struct.pack_into("<I", forged, position, value)
                _decode_within_bounds(bytes(forged), decode)


def _forge(message, position, value):
    forged = bytearray(message)
    struct.pack_into("<i", forged, position, value)
    return Reader(bytes(forged))


def test_named_forgeries_are_refused_by_name():
    """The inconsistencies a response can carry, one by one, each
    refused with an error that says what is wrong."""
    records = _tables([_Stored(oid, bytes(3)) for oid in range(4)])
    rows = np.arange(4)
    table_end = 4 + 4 * 8 + 4 + 4 * 4 + 4 * 3

    single = write_candidates(records).getvalue()
    with pytest.raises(ProtocolError, match="truncated"):
        # a count whose column runs past the end
        read_candidate_table(_forge(single, 0, 1000))
    with pytest.raises(ProtocolError, match="announces 258 payload bytes"):
        # lengths summing past the region
        read_candidate_table(_forge(single, 4 + 4 * 8 + 4, 249))
    with pytest.raises(ProtocolError, match="announces 258 payload bytes"):
        _forge(single[4 + 4 * 8 :], 4, 249).blob_region()

    batch = write_candidate_lists(records, [rows[:2], rows[2:]]).getvalue()
    sizes_at = table_end + 4
    rows_at = sizes_at + 2 * 4 + 4
    for hostile in (-1, 4):
        with pytest.raises(ProtocolError, match="outside its table of 4"):
            read_candidate_lists(_forge(batch, rows_at, hostile))
    with pytest.raises(ProtocolError, match="sizes add up to 5, 4 follow"):
        read_candidate_lists(_forge(batch, sizes_at, 3))
    with pytest.raises(ProtocolError, match="negative candidate list size"):
        read_candidate_lists(_forge(batch, sizes_at, -2))

    groups = [[(0.5, (1,), rows[:2], np.zeros(2))], [(0.5, (2,), rows[2:], np.zeros(2))]]
    knn = write_knn_scatter_response(records, groups).getvalue()
    per_query_at = table_end + 4
    group_sizes_at = per_query_at + 2 * 4 + 4
    with pytest.raises(ProtocolError, match="groups-per-query sizes add up to 3"):
        read_knn_scatter_response(_forge(knn, per_query_at, 2))
    with pytest.raises(ProtocolError, match="scatter group sizes add up to 5"):
        read_knn_scatter_response(_forge(knn, group_sizes_at, 3))
    for hostile in (-1, 4):
        with pytest.raises(ProtocolError, match="outside its table of 4"):
            read_knn_scatter_response(
                _forge(knn, group_sizes_at + 2 * 4 + 4, hostile)
            )
    with pytest.raises(ProtocolError, match="carries 1 scores for 4"):
        # the score column cut to one entry (and the message with it)
        scores_at = len(knn) - 4 * 8 - 4
        read_knn_scatter_response(
            Reader(knn[:scores_at] + struct.pack("<I", 1) + bytes(8))
        )
    # a query count that disagrees with the request
    answer = read_knn_scatter_response(Reader(knn))
    with pytest.raises(ProtocolError, match="answers 2 queries, 3 were asked"):
        merge_knn_candidates([(0, *answer)], 3, 10, None)

    ranges = write_range_scatter_response(
        records, [[((1,), rows[:2])], [((2,), rows[2:])]]
    ).getvalue()
    with pytest.raises(ProtocolError, match="groups-per-query sizes add up to 3"):
        read_range_scatter_response(_forge(ranges, per_query_at, 2))
    with pytest.raises(ProtocolError, match="carries 1 top pivots for 2"):
        read_range_scatter_response(
            Reader(ranges[:-12] + struct.pack("<Ii", 1, 7))
        )

    # requests: rows the message has no bytes for, which every layer
    # below would loop over and allocate by
    no_columns = struct.pack("<II", 2**32 - 1, 0)
    for search, rest in (
        (KNN, struct.pack("<II", 5, 0)),
        (RANGE, struct.pack("<d", 1.0)),
        (RANGE_TRANSFORMED, no_columns),
    ):
        with pytest.raises(
            ProtocolError, match="4294967295 rows of no columns"
        ):
            search.read_request(Reader(no_columns + rest))
    # ... columns it has none for, and a shape the bytes fall short of
    KNN.read_request(Reader(struct.pack("<IIII", 0, 2**32 - 1, 5, 0)))
    with pytest.raises(ProtocolError, match="truncated"):
        KNN.read_request(Reader(struct.pack("<IIII", 2**16, 2**16, 5, 0)))
    with pytest.raises(ProtocolError, match="trailing"):
        RANGE.read_request(Reader(no_columns[4:] + bytes(12)), single=True)
    for single in (False, True):
        with pytest.raises(QueryError, match="cand_size must be positive"):
            KNN.read_request(
                Reader(
                    KNN.write_request(
                        np.arange(4)[None], 0, single=single
                    ).getvalue()
                ),
                single=single,
            )
