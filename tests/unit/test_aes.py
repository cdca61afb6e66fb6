"""Unit tests for repro.crypto.aes against the official FIPS-197 and
NIST SP 800-38A vectors."""

import numpy as np
import pytest

from repro.crypto.aes import (
    _MUL,
    _SLAB,
    SBOX,
    INV_SBOX,
    AesKey,
    _encrypt_blocks_core,
    decrypt_block,
    decrypt_blocks,
    encrypt_block,
    encrypt_blocks,
)
from repro.exceptions import CryptoError, KeyError_

# FIPS-197 Appendix C known-answer vectors.
_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
_VECTORS = [
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f"),
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ),
    (
        bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617"),
        "dda97ca4864cdfe06eaf70a0ec0d7191",
    ),
    (
        bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        ),
        "8ea2b7ca516745bfeafc49904b496089",
    ),
]


class TestSbox:
    def test_known_entries(self):
        # S(0x00)=0x63, S(0x01)=0x7c, S(0x53)=0xed, S(0xff)=0x16
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(SBOX.tolist()) == list(range(256))

    def test_inverse_sbox_inverts(self):
        values = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(INV_SBOX[SBOX[values]], values)


class TestKeySchedule:
    def test_fips_appendix_a_first_round_key(self):
        # FIPS-197 A.1: w4..w7 of the 128-bit expansion
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        round_keys = AesKey(key).round_keys
        assert round_keys[1].tobytes().hex() == (
            "a0fafe1788542cb123a339392a6c7605"
        )

    def test_round_counts(self):
        assert AesKey(bytes(16)).rounds == 10
        assert AesKey(bytes(24)).rounds == 12
        assert AesKey(bytes(32)).rounds == 14

    def test_invalid_key_length_rejected(self):
        with pytest.raises(KeyError_):
            AesKey(bytes(15))

    def test_non_bytes_rejected(self):
        with pytest.raises(KeyError_):
            AesKey("0123456789abcdef")

    def test_repr_hides_key(self):
        key = AesKey(bytes(range(16)))
        assert "00" not in repr(key)


class TestBlockCipher:
    @pytest.mark.parametrize("key,expected", _VECTORS)
    def test_fips197_encrypt(self, key, expected):
        assert encrypt_block(AesKey(key), _PLAINTEXT).hex() == expected

    @pytest.mark.parametrize("key,expected", _VECTORS)
    def test_fips197_decrypt(self, key, expected):
        ct = bytes.fromhex(expected)
        assert decrypt_block(AesKey(key), ct) == _PLAINTEXT

    def test_sp800_38a_ecb_block(self):
        key = AesKey(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        pt = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert encrypt_block(key, pt).hex() == (
            "3ad77bb40d7a3660a89ecaf32466ef97"
        )

    def test_roundtrip_random_blocks(self, rng):
        key = AesKey(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
        for _ in range(20):
            block = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
            assert decrypt_block(key, encrypt_block(key, block)) == block

    def test_wrong_block_size_rejected(self):
        key = AesKey(bytes(16))
        with pytest.raises(CryptoError):
            encrypt_block(key, bytes(15))
        with pytest.raises(CryptoError):
            decrypt_block(key, bytes(17))


class TestVectorizedBlocks:
    def test_batch_matches_scalar(self, rng):
        key = AesKey(rng.integers(0, 256, 16, dtype=np.uint8).tobytes())
        blocks = rng.integers(0, 256, size=(40, 16), dtype=np.uint8)
        batch = encrypt_blocks(key, blocks)
        for i in range(40):
            assert batch[i].tobytes() == encrypt_block(
                key, blocks[i].tobytes()
            )

    def test_batch_decrypt_inverts(self, rng):
        key = AesKey(rng.integers(0, 256, 32, dtype=np.uint8).tobytes())
        blocks = rng.integers(0, 256, size=(25, 16), dtype=np.uint8)
        np.testing.assert_array_equal(
            decrypt_blocks(key, encrypt_blocks(key, blocks)), blocks
        )

    def test_wrong_width_rejected(self, rng):
        key = AesKey(bytes(16))
        with pytest.raises(CryptoError):
            encrypt_blocks(key, np.zeros((3, 15), dtype=np.uint8))

    def test_single_block_1d_input(self):
        key = AesKey(bytes(16))
        block = np.zeros(16, dtype=np.uint8)
        out = encrypt_blocks(key, block)
        assert out.shape == (16,)


# -- the pair-table kernel against the textbook round functions -------------
#
# Reference implementation of the cipher exactly as FIPS-197 §5.1 states
# it — SubBytes, ShiftRows, MixColumns, AddRoundKey as separate passes
# over an (n, 16) byte state — kept here so the fused kernel is compared
# with something that shares none of its tables or layout.


def _reference_encrypt_blocks(key: AesKey, blocks: np.ndarray) -> np.ndarray:
    # flat[4 * c + r] is state row r, column c; ShiftRows rotates row r
    # left by r columns
    shift_rows = [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)]
    m2, m3 = _MUL[2], _MUL[3]

    def mix_columns(state):
        s = state.reshape(-1, 4, 4)
        a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
        out = np.empty_like(s)
        out[:, :, 0] = m2[a0] ^ m3[a1] ^ a2 ^ a3
        out[:, :, 1] = a0 ^ m2[a1] ^ m3[a2] ^ a3
        out[:, :, 2] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
        out[:, :, 3] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
        return out.reshape(-1, 16)

    round_keys = key.round_keys
    state = blocks ^ round_keys[0]
    for round_index in range(1, key.rounds):
        state = mix_columns(SBOX[state][:, shift_rows])
        state = state ^ round_keys[round_index]
    return SBOX[state][:, shift_rows] ^ round_keys[key.rounds]


class TestPairTableKernel:
    _SIZES = [1, 2, 15, _SLAB - 1, _SLAB, _SLAB + 1, 3 * _SLAB + 7]

    def test_reference_matches_fips_vectors(self):
        block = np.frombuffer(_PLAINTEXT, dtype=np.uint8).reshape(1, 16)
        for key, expected in _VECTORS:
            out = _reference_encrypt_blocks(AesKey(key), block)
            assert out.tobytes().hex() == expected

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize("n", _SIZES)
    def test_matches_textbook_rounds(self, key_bytes, n):
        rng = np.random.default_rng(1000 * key_bytes + n)
        key = AesKey(rng.integers(0, 256, key_bytes, dtype=np.uint8).tobytes())
        blocks = rng.integers(0, 256, size=(n, 16), dtype=np.uint8)
        np.testing.assert_array_equal(
            _encrypt_blocks_core(key, blocks),
            _reference_encrypt_blocks(key, blocks),
        )

    def test_read_only_input_is_not_written(self, rng):
        key = AesKey(bytes(range(16)))
        data = rng.integers(0, 256, size=(_SLAB + 3) * 16, dtype=np.uint8)
        raw = data.tobytes()
        blocks = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 16)
        assert not blocks.flags.writeable
        out = encrypt_blocks(key, blocks)
        np.testing.assert_array_equal(
            out, _reference_encrypt_blocks(key, blocks)
        )
        assert raw == data.tobytes()

    def test_no_blocks(self):
        key = AesKey(bytes(16))
        out = encrypt_blocks(key, np.empty((0, 16), dtype=np.uint8))
        assert out.shape == (0, 16)

    def test_strided_input(self, rng):
        key = AesKey(bytes(range(24)))
        wide = rng.integers(0, 256, size=(50, 32), dtype=np.uint8)
        blocks = wide[::2, 8:24]  # neither contiguous nor aligned rows
        np.testing.assert_array_equal(
            encrypt_blocks(key, blocks),
            _reference_encrypt_blocks(key, np.ascontiguousarray(blocks)),
        )
