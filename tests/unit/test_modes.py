"""Unit tests for repro.crypto.modes against NIST SP 800-38A vectors."""

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.crypto.modes import (
    _counter_blocks_rows,
    ctr_transform_rows,
    rows_by_length,
    rows_in_order,
)
from repro.exceptions import CryptoError

_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
# SP 800-38A four test blocks
_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


def _ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """One message through :func:`ctr_transform_rows` as a one-row
    matrix."""
    return ctr_transform_rows(
        key,
        np.frombuffer(nonce, dtype=np.uint8).reshape(1, -1),
        np.frombuffer(data, dtype=np.uint8).reshape(1, -1),
    ).tobytes()


def _ctr_many(key: bytes, nonces: list, datas: list) -> list:
    """A list of messages of any lengths, one ``ctr_transform_rows``
    call per length — the shape :class:`AesCipher` batches take."""
    column = np.frombuffer(b"".join(nonces), np.uint8).reshape(-1, 16)
    return rows_in_order(
        datas,
        [
            (chosen, ctr_transform_rows(key, column[chosen], rows))
            for chosen, rows in rows_by_length(datas, "data")
        ],
    )


class TestCtr:
    _NONCE = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")

    def test_sp800_38a_vector(self):
        expected = (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )
        assert _ctr(_KEY, self._NONCE, _PT).hex() == expected

    def test_ctr_is_its_own_inverse(self):
        ct = _ctr(_KEY, self._NONCE, _PT)
        assert _ctr(_KEY, self._NONCE, ct) == _PT

    def test_arbitrary_length(self):
        data = b"arbitrary-length message, 37 bytes.."
        ct = _ctr(_KEY, self._NONCE, data)
        assert len(ct) == len(data)
        assert _ctr(_KEY, self._NONCE, ct) == data

    def test_empty_message(self):
        assert _ctr(_KEY, self._NONCE, b"") == b""

    def test_keystream_is_the_transform_of_zeros(self):
        stream = _ctr(_KEY, self._NONCE, bytes(33))
        assert len(stream) == 33
        assert _ctr(_KEY, self._NONCE, _PT[:33]) == bytes(
            a ^ b for a, b in zip(_PT, stream)
        )

    def test_invalid_nonce_rejected(self):
        with pytest.raises(CryptoError):
            ctr_transform_rows(
                _KEY,
                np.zeros((1, 5), dtype=np.uint8),
                np.zeros((1, 4), dtype=np.uint8),
            )

    def test_nonce_count_must_match_rows(self):
        with pytest.raises(CryptoError):
            ctr_transform_rows(
                _KEY,
                np.zeros((2, 16), dtype=np.uint8),
                np.zeros((3, 4), dtype=np.uint8),
            )

    def test_column_slices_of_a_wider_matrix(self, rng):
        tokens = rng.integers(0, 256, (5, 16 + 40), dtype=np.uint8)
        out = ctr_transform_rows(_KEY, tokens[:, :16], tokens[:, 16:])
        assert out.shape == (5, 40)
        assert [row.tobytes() for row in out] == [
            _reference_ctr(_KEY, row[:16].tobytes(), row[16:].tobytes())
            for row in tokens
        ]

    def test_strided_rows(self, rng):
        """Every other row of a wider matrix: neither input is
        contiguous."""
        tokens = rng.integers(0, 256, (8, 16 + 40), dtype=np.uint8)
        picked = tokens[::2]
        out = ctr_transform_rows(_KEY, picked[:, :16], picked[:, 16:])
        assert [row.tobytes() for row in out] == [
            _reference_ctr(_KEY, row[:16].tobytes(), row[16:].tobytes())
            for row in picked
        ]

    def test_read_only_inputs_are_not_written(self, rng):
        nonces = rng.integers(0, 256, (4, 16), dtype=np.uint8)
        data = rng.integers(0, 256, (4, 50), dtype=np.uint8)
        nonces_before, data_before = nonces.copy(), data.copy()
        nonces.flags.writeable = data.flags.writeable = False
        out = ctr_transform_rows(_KEY, nonces, data)
        assert out.flags.writeable
        assert np.array_equal(nonces, nonces_before)
        assert np.array_equal(data, data_before)
        assert np.array_equal(ctr_transform_rows(_KEY, nonces, out), data)


def _reference_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``cryptography``'s own CTR mode, one message at a time: an
    implementation independent of the counter matrix."""
    encryptor = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return encryptor.update(data) + encryptor.finalize()


def _random_bytes(rng, n: int) -> bytes:
    return rng.integers(0, 256, n, dtype=np.uint8).tobytes()


def _block_encryption(key: bytes, block: bytes) -> bytes:
    """``E_K(block)`` through CTR: with the block as the nonce and 16
    zero bytes as the data, the output is the first counter block's
    encryption."""
    return _ctr(key, block, bytes(16))


class TestBlockKnownAnswers:
    """The block cipher behind CTR is FIPS-197 AES: published
    known-answer vectors, one block each, read through
    :func:`_block_encryption`."""

    # NIST SP 800-38A F.1.1 / F.1.3 / F.1.5 (ECB-AES128/192/256.Encrypt)
    _SP800_38A_KEYS = {
        16: "2b7e151628aed2a6abf7158809cf4f3c",
        24: "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
        32: "603deb1015ca71be2b73aef0857d7781"
        "1f352c073b6108d72d9810a30914dff4",
    }
    _SP800_38A_ECB = {
        16: [
            "3ad77bb40d7a3660a89ecaf32466ef97",
            "f5d3d58503b9699de785895a96fdbaaf",
            "43b1cd7f598ece23881b00e3ed030688",
            "7b0c785e27e8ad3f8223207104725dd4",
        ],
        24: [
            "bd334f1d6e45f25ff712a214571fa5cc",
            "974104846d0ad3ad7734ecb3ecee4eef",
            "ef7afd2270e2e60adce0ba2face6444e",
            "9a4b41ba738d6c72fb16691603c18e0e",
        ],
        32: [
            "f3eed1bdb5d2a03c064b5a7e3db181f8",
            "591ccb10d410ed26dc5ba74a31362870",
            "b6ed21b99ca6f4f9f153e7b1beafed1d",
            "23304b7a39f9f3ff067d8d8f9e24ecc7",
        ],
    }
    # NIST SP 800-38A F.5.1 / F.5.3 / F.5.5 (CTR-AES128/192/256.Encrypt)
    _SP800_38A_CTR = {
        16: "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee",
        24: "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050",
        32: "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6",
    }

    @pytest.mark.parametrize("block", range(4))
    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_sp800_38a_ecb_block(self, key_bytes, block):
        key = bytes.fromhex(self._SP800_38A_KEYS[key_bytes])
        plaintext = _PT[16 * block : 16 * (block + 1)]
        expected = self._SP800_38A_ECB[key_bytes][block]
        assert _block_encryption(key, plaintext).hex() == expected

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_sp800_38a_ctr_encrypt(self, key_bytes):
        key = bytes.fromhex(self._SP800_38A_KEYS[key_bytes])
        out = _ctr(key, TestCtr._NONCE, _PT)
        assert out.hex() == self._SP800_38A_CTR[key_bytes]

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_sp800_38a_ctr_decrypt(self, key_bytes):
        # F.5.2 / F.5.4 / F.5.6: the same vectors, ciphertext to plaintext
        key = bytes.fromhex(self._SP800_38A_KEYS[key_bytes])
        ciphertext = bytes.fromhex(self._SP800_38A_CTR[key_bytes])
        assert _ctr(key, TestCtr._NONCE, ciphertext) == _PT

    # AESAVS (the AES Algorithm Validation Suite) GFSbox: zero key
    _GFSBOX = {
        16: [
            ("f34481ec3cc627bacd5dc3fb08f273e6", "0336763e966d92595a567cc9ce537f5e"),
            ("9798c4640bad75c7c3227db910174e72", "a9a1631bf4996954ebc093957b234589"),
            ("6a118a874519e64e9963798a503f1d35", "dc43be40be0e53712f7e2bf5ca707209"),
            ("cb9fceec81286ca3e989bd979b0cb284", "92beedab1895a94faa69b632e5cc47ce"),
            ("b26aeb1874e47ca8358ff22378f09144", "459264f4798f6a78bacb89c15ed3d601"),
            ("58c8e00b2631686d54eab84b91f0aca1", "08a4e2efec8a8e3312ca7460b9040bbf"),
        ],
        24: [
            ("1b077a6af4b7f98229de786d7516b639", "275cfc0413d8ccb70513c3859b1d0f72"),
            ("9c2d8842e5f48f57648205d39a239af1", "c9b8135ff1b5adc413dfd053b21bd96d"),
            ("bff52510095f518ecca60af4205444bb", "4a3650c3371ce2eb35e389a171427440"),
            ("51719783d3185a535bd75adc65071ce1", "4f354592ff7c8847d2d0870ca9481b7c"),
            ("26aa49dcfe7629a8901a69a9914e6dfd", "d5e08bf9a182e857cf40b3a36ee248cc"),
            ("941a4773058224e1ef66d10e0a6ee782", "067cd9d3749207791841562507fa9626"),
        ],
        32: [
            ("014730f80ac625fe84f026c60bfd547d", "5c9d844ed46f9885085e5d6a4f94c7d7"),
            ("0b24af36193ce4665f2825d7b4749c98", "a9ff75bd7cf6613d3731c77c3b6d0c04"),
            ("761c1fe41a18acf20d241650611d90f1", "623a52fcea5d443e48d9181ab32c7421"),
            ("8a560769d605868ad80d819bdba03771", "38f2c7ae10612415d27ca190d27da8b4"),
            ("91fbef2d15a97816060bee1feaa49afe", "1bc704f1bce135ceb810341b216d7abe"),
        ],
    }

    @pytest.mark.parametrize(
        "key_bytes,plaintext,expected",
        [(size, *pair) for size, pairs in _GFSBOX.items() for pair in pairs],
    )
    def test_aesavs_gfsbox(self, key_bytes, plaintext, expected):
        block = _block_encryption(bytes(key_bytes), bytes.fromhex(plaintext))
        assert block.hex() == expected

    # AESAVS KeySbox, AES-128: zero plaintext
    _KEYSBOX = [
        ("10a58869d74be5a374cf867cfb473859", "6d251e6944b051e04eaa6fb4dbf78465"),
        ("caea65cdbb75e9169ecd22ebe6e54675", "6e29201190152df4ee058139def610bb"),
        ("a2e2fa9baf7d20822ca9f0542f764a41", "c3b44b95d9d2f25670eee9a0de099fa3"),
        ("b6364ac4e1de1e285eaf144a2415f7a0", "5d9b05578fc944b3cf1ccf0e746cd581"),
    ]

    @pytest.mark.parametrize("key,expected", _KEYSBOX)
    def test_aesavs_keysbox(self, key, expected):
        block = _block_encryption(bytes.fromhex(key), bytes(16))
        assert block.hex() == expected

    # AESAVS VarTxt / VarKey, AES-128: the first four leading-ones values
    _LEADING_ONES = [
        "80000000000000000000000000000000",
        "c0000000000000000000000000000000",
        "e0000000000000000000000000000000",
        "f0000000000000000000000000000000",
    ]
    _VARTXT = [
        "3ad78e726c1ec02b7ebfe92b23d9ec34",
        "aae5939c8efdf2f04e60b9fe7117b2c2",
        "f031d4d74f5dcbf39daaf8ca3af6e527",
        "96d9fd5cc4f07441727df0f33e401a36",
    ]
    _VARKEY = [
        "0edd33d3c621e546455bd8ba1418bec8",
        "4bc3f883450c113c64ca42e1112a9e87",
        "72a1da770f5d7ac4c9ef94d822affd97",
        "970014d634e2b7650777e8e84d03ccd8",
    ]

    @pytest.mark.parametrize("count", range(4))
    def test_aesavs_vartxt(self, count):
        plaintext = bytes.fromhex(self._LEADING_ONES[count])
        block = _block_encryption(bytes(16), plaintext)
        assert block.hex() == self._VARTXT[count]

    @pytest.mark.parametrize("count", range(4))
    def test_aesavs_varkey(self, count):
        key = bytes.fromhex(self._LEADING_ONES[count])
        assert _block_encryption(key, bytes(16)).hex() == self._VARKEY[count]


class TestAgainstOpensslCtr:
    """Long messages against ``cryptography``'s CTR mode, at block counts
    on either side of powers of two, for every key size. Each matrix
    has a random nonce, one whose low half wraps inside the message and
    one whose whole counter wraps to zero."""

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize("n_blocks", [1, 2, 15, 4095, 4096, 4097, 12295])
    def test_matches_reference_ctr(self, rng, n_blocks, key_bytes):
        key = _random_bytes(rng, key_bytes)
        starts = [
            _random_bytes(rng, 16),
            ((7 << 64) | (2**64 - 1 - n_blocks // 2)).to_bytes(16, "big"),
            bytes([0xFF] * 16),
        ]
        length = 16 * n_blocks - 3 if n_blocks > 1 else 16
        data = rng.integers(0, 256, (len(starts), length), dtype=np.uint8)
        nonces = np.frombuffer(b"".join(starts), dtype=np.uint8).reshape(-1, 16)
        out = ctr_transform_rows(key, nonces, data)
        assert [row.tobytes() for row in out] == [
            _reference_ctr(key, start, row.tobytes())
            for start, row in zip(starts, data)
        ]


class TestCounterBlocks:
    """The counter matrix is exact modulo 2^128, compared with Python
    integers."""

    @staticmethod
    def _expected(start: int, n_blocks: int) -> list:
        return [
            ((start + step) % 2**128).to_bytes(16, "big")
            for step in range(n_blocks)
        ]

    @pytest.mark.parametrize(
        "start",
        [
            0,
            1,
            2**64 - 16,  # the last start whose 16 blocks do not wrap
            2**64 - 15,  # the first whose last block wraps the low half
            2**64 - 1,
            2**64,
            (2**63 << 64) | (2**64 - 5),
            2**128 - 3,  # the whole counter wraps to zero
        ],
    )
    def test_counters_are_exact(self, start):
        nonces = np.frombuffer(start.to_bytes(16, "big"), np.uint8)
        blocks = _counter_blocks_rows(nonces.reshape(1, 16), 16)
        assert blocks.shape == (16, 16)
        assert [row.tobytes() for row in blocks] == self._expected(start, 16)

    def test_messages_follow_one_another(self):
        starts = [5, 2**64 - 2, 2**128 - 1]
        nonces = np.frombuffer(
            b"".join(start.to_bytes(16, "big") for start in starts), np.uint8
        ).reshape(-1, 16)
        blocks = _counter_blocks_rows(nonces, 3)
        assert [row.tobytes() for row in blocks] == [
            block for start in starts for block in self._expected(start, 3)
        ]

    def test_no_blocks(self):
        nonces = np.zeros((3, 16), dtype=np.uint8)
        assert _counter_blocks_rows(nonces, 0).shape == (0, 16)


class TestCtrMany:
    """One CTR implementation serves every shape of batch; each shape is
    compared with an independent CTR and with the one-message view."""

    def _check(self, nonces, datas):
        bulk = _ctr_many(_KEY, nonces, datas)
        assert bulk == [
            _reference_ctr(_KEY, nonce, data)
            for nonce, data in zip(nonces, datas)
        ]
        assert bulk == [
            _ctr(_KEY, nonce, data) for nonce, data in zip(nonces, datas)
        ]

    def test_reference_matches_sp800_38a(self):
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        assert _reference_ctr(_KEY, nonce, _PT) == _ctr(_KEY, nonce, _PT)

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
        assert _ctr_many(_KEY, nonces, [b"", b"", b""]) == [b""] * 3

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
        assert _ctr_many(_KEY, [], []) == []
        empty = np.empty((0, 16), dtype=np.uint8)
        assert ctr_transform_rows(_KEY, empty, empty).shape == (0, 16)
