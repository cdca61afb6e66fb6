"""Hostile input for the two bulk-insert requests.

``insert_bulk`` hands its decoded :class:`RecordBatch` to the index as
columns and ``insert_plain_bulk`` makes one of an oid column and a
vector matrix: nothing per record re-validates either on the way to
storage. So whatever bytes arrive as a body, the server answers with a
typed error — in memory bounded by the body, index and storage as they
were — or, when the bytes do encode a bulk, with the new record count.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.plain import PlainServer
from repro.core.records import RecordBatch
from repro.core.server import SimilarityCloudServer
from repro.metric.distances import L1Distance
from repro.metric.permutations import pivot_permutations
from repro.net.rpc import RpcServerError, decode_response, encode_request
from repro.wire.encoding import Reader, Writer

from tests.conftest import HOSTILE_U32, decode_within_bounds

N_PIVOTS = 5
DIM = 3
_PIVOTS = np.random.default_rng(3).normal(size=(N_PIVOTS, DIM))


def _bulk(rng, n, flags, payload_size=16, first_oid=0) -> bytes:
    """A valid ``insert_bulk`` body of ``n`` records."""
    distances = rng.random((n, N_PIVOTS))
    return (
        RecordBatch(
            np.arange(first_oid, first_oid + n),
            pivot_permutations(distances) if flags & 1 else None,
            distances if flags & 2 else None,
            [rng.bytes(payload_size) for _ in range(n)],
        )
        .write_to(Writer())
        .getvalue()
    )


def _plain_bulk(rng, n, first_oid=0) -> bytes:
    """A valid ``insert_plain_bulk`` body of ``n`` vectors."""
    return (
        Writer()
        .u64_array(np.arange(first_oid, first_oid + n))
        .f64_matrix(rng.normal(size=(n, DIM)))
        .getvalue()
    )


class _Target:
    """A populated server, the request it is fed, and what of it must
    not move when a request is refused."""

    def __init__(self, method):
        self.method = method
        rng = np.random.default_rng(1)
        if method == "insert_bulk":
            self.server = SimilarityCloudServer(N_PIVOTS, 20)
            seed_body = _bulk(rng, 60, 3, first_oid=1 << 32)
        else:
            self.server = PlainServer(_PIVOTS, L1Distance(), 20)
            seed_body = _plain_bulk(rng, 60, first_oid=1 << 32)
        assert self.send(seed_body) == 60

    def state(self):
        index, storage = self.server.index, self.server.storage
        return (
            len(index),
            [(leaf.prefix, leaf.count, leaf.intervals)
             for leaf in index.tree.leaves()],
            storage.writes,
            {cell: storage.load(cell).wire_size for cell in storage.cells()},
        )

    def send(self, body: bytes) -> int:
        """The record count the server answers with; a refusal raises
        :class:`RpcServerError` (anything else is a server bug)."""
        raw = self.server.handle(encode_request(self.method, body))
        _time, response = decode_response(raw)
        return response.u64()

    def feed(self, body: bytes) -> None:
        """``body`` is refused with nothing changed, or is a bulk."""
        before = self.state()
        outcome = []

        def attempt():
            try:
                outcome.append(self.send(body))
            except RpcServerError as exc:
                outcome.append(exc)

        decode_within_bounds(attempt, len(body))
        if isinstance(outcome[-1], RpcServerError):
            assert self.state() == before
        else:
            assert outcome[-1] == len(self.server.index) >= before[0]
            # start over, so that what a request may allocate stays a
            # matter of the request and not of how many were accepted
            self.__init__(self.method)


_TARGETS = {}


def _target(method) -> _Target:
    # one server per request kind for the whole module (Hypothesis
    # re-runs the test body)
    if method not in _TARGETS:
        _TARGETS[method] = _Target(method)
    return _TARGETS[method]


def _valid(method, rng, n, flags):
    if method == "insert_bulk":
        return _bulk(rng, n, flags)
    return _plain_bulk(rng, n)


METHODS = ["insert_bulk", "insert_plain_bulk"]


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=120, deadline=None)
@given(
    noise=st.binary(max_size=200),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    flags=st.sampled_from([1, 2, 3]),
    damage=st.data(),
)
def test_any_bytes_as_a_bulk_body(method, noise, seed, n, flags, damage):
    """Arbitrary bytes, and a valid body truncated, bit-flipped or with
    one 32-bit field forged."""
    target = _target(method)
    target.feed(noise)
    body = _valid(method, np.random.default_rng(seed), n, flags)
    target.feed(body[: damage.draw(st.integers(0, len(body) - 1))])
    flipped = bytearray(body)
    position = damage.draw(st.integers(0, len(body) - 1))
    flipped[position] ^= 1 << damage.draw(st.integers(0, 7))
    target.feed(bytes(flipped))
    forged = bytearray(body)
    struct.pack_into(
        "<I", forged, damage.draw(st.integers(0, len(body) - 4)),
        damage.draw(st.sampled_from(HOSTILE_U32) | st.integers(0, 2**32 - 1)),
    )
    target.feed(bytes(forged))


@pytest.mark.parametrize("flags", [1, 2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_every_forged_field_of_a_bulk_body(method, flags):
    """Each 32-bit field of a valid body in turn — the count, the oid
    column's length, both matrix shapes, the blob count and every blob
    length among them — overwritten with each hostile value."""
    target = _target(method)
    body = _valid(method, np.random.default_rng(flags), 4, flags)
    for position in range(0, len(body) - 3):
        for value in HOSTILE_U32:
            forged = bytearray(body)
            struct.pack_into("<I", forged, position, value)
            target.feed(bytes(forged))


def test_a_valid_bulk_round_trips():
    """What a refusal must leave alone, an accepted bulk must change:
    the records are in the index, as sent."""
    rng = np.random.default_rng(9)
    for flags in (1, 2, 3):
        server = SimilarityCloudServer(N_PIVOTS, 20)
        body = _bulk(rng, 50, flags)
        raw = server.handle(encode_request("insert_bulk", body))
        assert decode_response(raw)[1].u64() == 50
        sent = RecordBatch.read_from(Reader(body))
        stored = {
            record.oid: record
            for cell in server.storage.cells()
            for record in server.storage.load(cell)
        }
        assert sorted(stored) == list(range(50))
        for row, oid in enumerate(sent.oids.tolist()):
            assert stored[oid].payload == sent.payloads[row]
            np.testing.assert_array_equal(
                stored[oid].permutation, sent.ensure_permutations()[row]
            )
            if flags & 2:
                np.testing.assert_array_equal(
                    stored[oid].distances, sent.distances[row]
                )
            else:
                assert stored[oid].distances is None


def _refused(method, body, match):
    target = _target(method)
    before = target.state()
    with pytest.raises(RpcServerError, match=match):
        target.send(body)
    assert target.state() == before


def test_named_forgeries_of_a_bulk_are_refused_by_name():
    """The inconsistencies a bulk body can carry, one by one."""
    rng = np.random.default_rng(5)
    distances = rng.random((3, N_PIVOTS))
    permutations = pivot_permutations(distances)
    oids = np.arange(3, dtype=np.uint64)

    def body(count=3, flags=1, oids=oids, matrices=(permutations,), blobs=3):
        writer = Writer().u32(count).u8(flags).u64_array(oids)
        for matrix in matrices:
            if matrix.dtype.kind == "i":
                writer.i32_matrix(matrix)
            else:
                writer.f64_matrix(matrix)
        if isinstance(blobs, int):
            blobs = Writer().blob_columns(
                np.full(blobs, 4), bytes(4 * blobs)
            ).getvalue()
        return writer.raw(blobs).getvalue()

    refused = lambda data, match: _refused("insert_bulk", data, match)  # noqa: E731
    refused(body(count=4), "promises 4 records, oid column carries 3")
    for flags in (0, 4, 255):
        refused(body(flags=flags), f"invalid record batch flags {flags}")
    # a 2**32 - 1 x 0 matrix: no bytes behind it, nothing sized from it
    empty = struct.pack("<II", 2**32 - 1, 0)
    hostile = Writer().u32(3).u8(1).u64_array(oids).raw(empty)
    hostile.blob_columns(np.full(3, 4), bytes(12))
    refused(hostile.getvalue(), "non-empty 2-D matrix")
    refused(body(matrices=(permutations[:2],)), "carries 2 rows for 3 oids")
    refused(body(blobs=2), "2 payloads for 3 oids")
    # a blob region whose lengths overrun it
    overrun = struct.pack("<IIII", 3, 4, 4, 400) + bytes(12)
    refused(body(blobs=overrun), "announces 408 payload bytes")
    # distances of another width than the permutations beside them
    refused(
        body(flags=3, matrices=(permutations, distances[:, :4])),
        "must align with the permutations",
    )
    # ... or than the index, alone
    refused(
        body(flags=2, matrices=(distances[:, :4],)),
        f"do not match an index over {N_PIVOTS} pivots",
    )
    refused(
        body(matrices=(permutations[:, :4],)),
        f"do not match an index over {N_PIVOTS} pivots",
    )
    poisoned = permutations.copy()
    poisoned[1, 0] = 99
    refused(body(matrices=(poisoned,)), "must be a permutation of 0..4")
    refused(body() + b"\x00", "trailing bytes")

    plain = lambda data, match: _refused("insert_plain_bulk", data, match)  # noqa: E731
    vectors = rng.normal(size=(3, DIM))
    plain(
        Writer().u64_array(oids[:2]).f64_matrix(vectors).getvalue(),
        "3 vectors for 2 oids",
    )
    plain(
        Writer().u64_array(oids).f64_matrix(vectors[:, :2]).getvalue(),
        "do not match index dim",
    )
    plain(
        Writer().u64_array(oids).raw(struct.pack("<II", 3, 0)).getvalue(),
        "do not match index dim",
    )
