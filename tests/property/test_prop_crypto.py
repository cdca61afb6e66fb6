"""Property-based tests for the crypto substrate."""

import hashlib
import hmac

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AesKey, decrypt_block, encrypt_block
from repro.crypto.cipher import AesCipher
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    ctr_transform,
    ctr_transform_many,
)
from repro.crypto.padding import pkcs7_pad, pkcs7_unpad

keys = st.binary(min_size=16, max_size=16) | st.binary(
    min_size=32, max_size=32
)
blocks = st.binary(min_size=16, max_size=16)
messages = st.binary(min_size=0, max_size=300)
nonces = st.binary(min_size=16, max_size=16)


@settings(max_examples=50, deadline=None)
@given(key=keys, block=blocks)
def test_block_cipher_roundtrip(key, block):
    aes = AesKey(key)
    assert decrypt_block(aes, encrypt_block(aes, block)) == block


@settings(max_examples=50, deadline=None)
@given(key=keys, block=blocks)
def test_block_cipher_is_not_identity(key, block):
    aes = AesKey(key)
    ct = encrypt_block(aes, block)
    assert len(ct) == 16
    # AES has no fixed points for practical purposes; identity would be
    # a catastrophic implementation bug (e.g. missing rounds)
    assert ct != block


@settings(max_examples=50, deadline=None)
@given(key=keys, nonce=nonces, message=messages)
def test_ctr_roundtrip_any_length(key, nonce, message):
    aes = AesKey(key)
    ct = ctr_transform(aes, nonce, message)
    assert len(ct) == len(message)
    assert ctr_transform(aes, nonce, ct) == message


@settings(max_examples=30, deadline=None)
@given(
    key=keys,
    parts=st.lists(st.tuples(nonces, messages), min_size=0, max_size=8),
)
def test_ctr_many_equals_singles(key, parts):
    aes = AesKey(key)
    bulk = ctr_transform_many(
        aes, [n for n, _ in parts], [m for _, m in parts]
    )
    singles = [ctr_transform(aes, n, m) for n, m in parts]
    assert bulk == singles


@settings(max_examples=50, deadline=None)
@given(key=keys, iv=nonces, message=messages)
def test_cbc_roundtrip_with_padding(key, iv, message):
    aes = AesKey(key)
    ct = cbc_encrypt(aes, pkcs7_pad(message), iv)
    assert pkcs7_unpad(cbc_decrypt(aes, ct, iv)) == message


@settings(max_examples=100, deadline=None)
@given(message=messages, block_size=st.integers(min_value=1, max_value=255))
def test_pkcs7_roundtrip(message, block_size):
    padded = pkcs7_pad(message, block_size)
    assert len(padded) % block_size == 0
    assert len(padded) > len(message)
    assert pkcs7_unpad(padded, block_size) == message


@settings(max_examples=40, deadline=None)
@given(key=keys, message=messages)
def test_authenticated_cipher_roundtrip(key, message):
    cipher = AesCipher(key)
    token = cipher.encrypt(message)
    assert len(token) == len(message) + cipher.overhead
    assert cipher.decrypt(token) == message


@settings(max_examples=25, deadline=None)
@given(key=keys, batch=st.lists(messages, min_size=0, max_size=10))
def test_batch_cipher_equals_singles(key, batch):
    cipher = AesCipher(key)
    tokens = cipher.encrypt_many(batch)
    assert cipher.decrypt_many(tokens) == batch
    for token, message in zip(tokens, batch):
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
