"""Property-based tests for the crypto substrate."""

import hashlib
import hmac

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.cipher import AesCipher
from repro.crypto.modes import (
    _counter_blocks_rows,
    ctr_transform_rows,
    rows_by_length,
    rows_in_order,
)

keys = st.binary(min_size=16, max_size=16) | st.binary(
    min_size=32, max_size=32
)
messages = st.binary(min_size=0, max_size=300)
nonces = st.binary(min_size=16, max_size=16)


def _ctr(key, nonce, message):
    """One message through the one CTR routine as a one-row matrix."""
    return ctr_transform_rows(
        key,
        np.frombuffer(nonce, dtype=np.uint8).reshape(1, 16),
        np.frombuffer(message, dtype=np.uint8).reshape(1, -1),
    ).tobytes()


@settings(max_examples=50, deadline=None)
@given(key=keys, nonce=nonces, message=messages)
def test_ctr_roundtrip_any_length(key, nonce, message):
    ct = _ctr(key, nonce, message)
    assert len(ct) == len(message)
    assert _ctr(key, nonce, ct) == message


#: initial counters, some with a low half within 16 of wrapping
counters = st.integers(0, 2**128 - 1) | st.builds(
    lambda high, below: (high << 64) | (2**64 - 1 - below),
    st.integers(0, 2**64 - 1),
    st.integers(0, 16),
)
#: a matrix of messages of one length: empty, sub-block or multi-block
widths = st.sampled_from([0, 1, 15, 16, 17, 96, 300])


def _matrix(data, rows, width):
    return np.frombuffer(
        data.draw(st.binary(min_size=rows * width, max_size=rows * width)),
        dtype=np.uint8,
    ).reshape(rows, width)


@settings(max_examples=30, deadline=None)
@given(
    key=keys,
    parts=st.lists(st.tuples(counters, messages), min_size=0, max_size=8),
    width=widths,
    data=st.data(),
)
def test_ctr_many_equals_singles(key, parts, width, data):
    """A list of messages of any lengths, one length at a time, and a
    matrix of messages of one length through the one CTR routine, equal
    per-message CTR."""
    starts = [n.to_bytes(16, "big") for n, _ in parts]
    column = np.frombuffer(b"".join(starts), dtype=np.uint8).reshape(-1, 16)
    datas = [m for _, m in parts]
    bulk = rows_in_order(
        datas,
        [
            (chosen, ctr_transform_rows(key, column[chosen], rows))
            for chosen, rows in rows_by_length(datas, "data")
        ],
    )
    assert bulk == [_ctr(key, n, m) for n, m in zip(starts, datas)]
    matrix = _matrix(data, len(parts), width)
    rows = ctr_transform_rows(key, column, matrix)
    assert [row.tobytes() for row in rows] == [
        _ctr(key, n, row.tobytes()) for n, row in zip(starts, matrix)
    ]


@settings(max_examples=50, deadline=None)
@given(start=counters, n_blocks=st.integers(0, 40))
def test_counter_blocks_are_exact_mod_2_128(start, n_blocks):
    nonce = np.frombuffer(start.to_bytes(16, "big"), dtype=np.uint8)
    blocks = _counter_blocks_rows(nonce.reshape(1, 16), n_blocks)
    assert [row.tobytes() for row in blocks] == [
        ((start + step) % 2**128).to_bytes(16, "big")
        for step in range(n_blocks)
    ]


@settings(max_examples=50, deadline=None)
@given(key=keys, first=counters, second=counters)
def test_distinct_counters_give_distinct_keystream_blocks(key, first, second):
    """AES is a permutation of blocks: one key never maps two counter
    blocks to one keystream block."""
    streams = [
        _ctr(key, start.to_bytes(16, "big"), bytes(16))
        for start in (first, second)
    ]
    assert (streams[0] == streams[1]) is (first == second)


@settings(max_examples=40, deadline=None)
@given(key=keys, message=messages)
def test_authenticated_cipher_roundtrip(key, message):
    cipher = AesCipher(key)
    token = cipher.encrypt(message)
    assert len(token) == len(message) + cipher.overhead
    assert cipher.decrypt(token) == message


def _drawn_nonces(values):
    supply = iter([value.to_bytes(16, "big") for value in values])
    return lambda: next(supply)


@settings(max_examples=25, deadline=None)
@given(
    key=keys,
    batch=st.lists(messages, min_size=0, max_size=10),
    rows=st.integers(0, 8),
    width=widths,
    data=st.data(),
)
def test_batch_cipher_equals_singles(key, batch, rows, width, data):
    """A list of messages of any lengths and a matrix of messages of one
    length, under nonces that may sit just below a low-half wrap, give
    the tokens and plaintexts of per-message encrypt / decrypt."""
    matrix = _matrix(data, rows, width)
    for sent, messages_of in (
        (batch, list(batch)),
        (matrix, [row.tobytes() for row in matrix]),
    ):
        values = data.draw(
            st.lists(counters, min_size=len(messages_of), max_size=len(messages_of))
        )
        tokens = AesCipher(key, nonce_factory=_drawn_nonces(values)).encrypt_many(
            sent
        )
        one_by_one = AesCipher(key, nonce_factory=_drawn_nonces(values))
        expected = [one_by_one.encrypt(message) for message in messages_of]
        cipher = AesCipher(key)
        if isinstance(sent, np.ndarray):
            assert tokens.shape == (rows, width + cipher.overhead)
            assert [token.tobytes() for token in tokens] == expected
            assert np.array_equal(cipher.decrypt_many(tokens), matrix)
        else:
            assert tokens == expected
            assert cipher.decrypt_many(tokens) == batch
        for token, message in zip(expected, messages_of):
            assert cipher.decrypt(token) == message


@settings(max_examples=40, deadline=None)
@given(
    key=keys,
    message=st.binary(min_size=1, max_size=100),
    flip_byte=st.integers(min_value=0, max_value=10_000),
)
def test_any_bitflip_detected(key, message, flip_byte):
    import pytest

    from repro.exceptions import AuthenticationError

    cipher = AesCipher(key)
    token = bytearray(cipher.encrypt(message))
    position = flip_byte % len(token)
    token[position] ^= 0x01
    with pytest.raises(AuthenticationError):
        cipher.decrypt(bytes(token))


@settings(max_examples=100, deadline=None)
@given(
    key=keys | st.binary(min_size=24, max_size=24),
    data=st.binary(min_size=0, max_size=400),
)
def test_prekeyed_tag_is_truncated_hmac_sha256(key, data):
    """The MAC keyed once per cipher (copied SHA-256 pad states) is the
    stdlib HMAC, for any message length around the 64-byte block."""
    mac_key = hashlib.sha256(b"repro.mac\x00" + key).digest()
    expected = hmac.digest(mac_key, data, "sha256")[:16]
    cipher = AesCipher(key)
    assert cipher._tag(data) == expected
    assert cipher._tag(data) == expected  # the keyed states are not consumed
