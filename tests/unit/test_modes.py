"""Unit tests for repro.crypto.modes against NIST SP 800-38A vectors."""

import numpy as np
import pytest

from repro.crypto.aes import AesKey, encrypt_block
from repro.crypto.modes import (
    cbc_decrypt,
    cbc_encrypt,
    counter_blocks,
    ctr_keystream,
    ctr_transform,
    ctr_transform_many,
    ecb_decrypt,
    ecb_encrypt,
)
from repro.exceptions import CryptoError

_KEY = AesKey(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
# SP 800-38A four test blocks
_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


class TestEcb:
    def test_sp800_38a_vector(self):
        expected = (
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4"
        )
        assert ecb_encrypt(_KEY, _PT).hex() == expected

    def test_roundtrip(self):
        assert ecb_decrypt(_KEY, ecb_encrypt(_KEY, _PT)) == _PT

    def test_partial_block_rejected(self):
        with pytest.raises(CryptoError):
            ecb_encrypt(_KEY, b"short")

    def test_empty_rejected(self):
        with pytest.raises(CryptoError):
            ecb_encrypt(_KEY, b"")


class TestCbc:
    _IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

    def test_sp800_38a_vector(self):
        expected = (
            "7649abac8119b246cee98e9b12e9197d"
            "5086cb9b507219ee95db113a917678b2"
            "73bed6b8e3c1743b7116e69e22229516"
            "3ff1caa1681fac09120eca307586e1a7"
        )
        assert cbc_encrypt(_KEY, _PT, self._IV).hex() == expected

    def test_roundtrip(self):
        ct = cbc_encrypt(_KEY, _PT, self._IV)
        assert cbc_decrypt(_KEY, ct, self._IV) == _PT

    def test_iv_length_enforced(self):
        with pytest.raises(CryptoError):
            cbc_encrypt(_KEY, _PT, b"shortiv")

    def test_different_iv_different_ciphertext(self):
        iv2 = bytes.fromhex("0f0e0d0c0b0a09080706050403020100")
        assert cbc_encrypt(_KEY, _PT, self._IV) != cbc_encrypt(_KEY, _PT, iv2)


class TestCtr:
    _NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

    def test_sp800_38a_vector(self):
        expected = (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )
        assert ctr_transform(_KEY, self._NONCE, _PT).hex() == expected

    def test_ctr_is_its_own_inverse(self):
        ct = ctr_transform(_KEY, self._NONCE, _PT)
        assert ctr_transform(_KEY, self._NONCE, ct) == _PT

    def test_arbitrary_length(self):
        data = b"arbitrary-length message, 37 bytes.."
        ct = ctr_transform(_KEY, self._NONCE, data)
        assert len(ct) == len(data)
        assert ctr_transform(_KEY, self._NONCE, ct) == data

    def test_empty_message(self):
        assert ctr_transform(_KEY, self._NONCE, b"") == b""

    def test_keystream_length(self):
        assert len(ctr_keystream(_KEY, self._NONCE, 33)) == 33

    def test_invalid_nonce_rejected(self):
        with pytest.raises(CryptoError):
            ctr_transform(_KEY, b"short", b"data")


class TestCounterBlocks:
    def test_sequential_values(self):
        blocks = counter_blocks(5, 3)
        assert blocks.shape == (3, 16)
        for i in range(3):
            assert int.from_bytes(blocks[i].tobytes(), "big") == 5 + i

    def test_low_half_wraparound(self):
        start = (1 << 64) - 2  # low half about to wrap
        blocks = counter_blocks(start, 4)
        for i in range(4):
            assert int.from_bytes(blocks[i].tobytes(), "big") == start + i

    def test_full_wraparound(self):
        start = (1 << 128) - 2
        blocks = counter_blocks(start, 4)
        expected = [start, start + 1, 0, 1]
        for i in range(4):
            assert (
                int.from_bytes(blocks[i].tobytes(), "big")
                == expected[i] % (1 << 128)
            )


def _reference_ctr(key: AesKey, nonce: bytes, data: bytes) -> bytes:
    """SP 800-38A CTR one block at a time: the counter is a 128-bit
    big-endian integer, incremented modulo 2^128 in exact arithmetic."""
    start = int.from_bytes(nonce, "big")
    out = bytearray()
    for index in range(0, len(data), 16):
        counter = (start + index // 16) % (1 << 128)
        pad = encrypt_block(key, counter.to_bytes(16, "big"))
        out += bytes(a ^ b for a, b in zip(data[index : index + 16], pad))
    return bytes(out)


def _random_bytes(rng, n: int) -> bytes:
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


class TestCtrMany:
    """One CTR implementation serves every shape of batch; each shape is
    compared with the block-at-a-time reference and with the
    one-message view."""

    def _check(self, nonces, datas):
        bulk = ctr_transform_many(_KEY, nonces, datas)
        assert bulk == [
            _reference_ctr(_KEY, nonce, data)
            for nonce, data in zip(nonces, datas)
        ]
        assert bulk == [
            ctr_transform(_KEY, nonce, data)
            for nonce, data in zip(nonces, datas)
        ]

    def test_reference_matches_sp800_38a(self):
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        assert _reference_ctr(_KEY, nonce, _PT) == ctr_transform(
            _KEY, nonce, _PT
        )

    @pytest.mark.parametrize("length", [16, 136, 256, 250])
    def test_uniform_lengths(self, rng, length):
        # the shape an index of fixed-dimension vectors produces
        self._check(
            [_random_bytes(rng, 16) for _ in range(40)],
            [_random_bytes(rng, length) for _ in range(40)],
        )

    def test_matches_per_message_transform(self, rng):
        lengths = [0, 1, 15, 16, 17, 99, 0, 32, 300, 5]
        self._check(
            [_random_bytes(rng, 16) for _ in lengths],
            [_random_bytes(rng, n) for n in lengths],
        )

    def test_only_empty_messages(self, rng):
        nonces = [_random_bytes(rng, 16) for _ in range(3)]
        assert ctr_transform_many(_KEY, nonces, [b"", b"", b""]) == [b""] * 3

    def test_wrapping_nonce_in_batch(self):
        wrap_nonce = ((1 << 64) - 1).to_bytes(16, "big")  # low half = max
        self._check([wrap_nonce, bytes(16)], [bytes(40), bytes(40)])

    @pytest.mark.parametrize(
        "start",
        [
            (1 << 64) - 3,  # wraps in the middle of the message
            (5 << 64) | ((1 << 64) - 2),  # carries into a non-zero high half
            (1 << 128) - 2,  # the whole counter wraps to zero
        ],
    )
    def test_low_half_wrap_falls_back_to_exact_counters(self, rng, start):
        self._check(
            [start.to_bytes(16, "big"), bytes(16), _random_bytes(rng, 16)],
            [_random_bytes(rng, 70), bytes(40), _random_bytes(rng, 33)],
        )

    def test_empty_batch(self):
        assert ctr_transform_many(_KEY, [], []) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(CryptoError):
            ctr_transform_many(_KEY, [bytes(16)], [])
