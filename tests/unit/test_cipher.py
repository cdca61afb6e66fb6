"""Unit tests for repro.crypto.cipher (authenticated AES-CTR)."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from repro.crypto.cipher import AesCipher
from repro.crypto.modes import ctr_transform_rows
from repro.exceptions import AuthenticationError, CryptoError, KeyError_


def _counting_nonces():
    counter = itertools.count()
    return lambda: next(counter).to_bytes(16, "big")


class TestConstruction:
    def test_accepts_standard_key_sizes(self):
        for size in (16, 24, 32):
            AesCipher(bytes(size))

    def test_rejects_other_key_sizes(self):
        with pytest.raises(KeyError_):
            AesCipher(bytes(20))

    @pytest.mark.parametrize("size", [0, 1, 8, 15, 17, 23, 25, 31, 33, 64])
    def test_rejects_every_non_aes_key_length(self, size):
        with pytest.raises(KeyError_):
            AesCipher(bytes(size))

    def test_rejects_non_bytes_key(self):
        with pytest.raises(KeyError_):
            AesCipher("not-bytes" * 2)

    def test_bytearray_key_is_the_same_key(self):
        token = AesCipher(bytearray(range(16))).encrypt(b"message")
        assert AesCipher(bytes(range(16))).decrypt(token) == b"message"

    def test_repr_hides_key(self):
        assert "00" not in repr(AesCipher(bytes(16)))

    def test_equality_by_key(self):
        assert AesCipher(bytes(16)) == AesCipher(bytes(16))
        assert AesCipher(bytes(16)) != AesCipher(bytes([1] * 16))


class TestRoundtrip:
    def test_roundtrip_various_lengths(self):
        cipher = AesCipher(bytes(range(16)))
        for length in (0, 1, 15, 16, 17, 100, 1000):
            message = bytes(range(256)) * (length // 256 + 1)
            message = message[:length]
            assert cipher.decrypt(cipher.encrypt(message)) == message

    def test_token_size_accounting(self):
        cipher = AesCipher(bytes(16))
        token = cipher.encrypt(b"x" * 123)
        assert len(token) == cipher.token_size(123)
        assert cipher.overhead == 32

    def test_fresh_nonce_each_message(self):
        cipher = AesCipher(bytes(16))
        t1 = cipher.encrypt(b"same message")
        t2 = cipher.encrypt(b"same message")
        assert t1 != t2  # random nonce -> distinct ciphertexts

    def test_deterministic_with_injected_nonces(self):
        c1 = AesCipher(bytes(16), nonce_factory=_counting_nonces())
        c2 = AesCipher(bytes(16), nonce_factory=_counting_nonces())
        assert c1.encrypt(b"hello") == c2.encrypt(b"hello")


class TestAuthentication:
    def test_tampered_ciphertext_rejected(self):
        cipher = AesCipher(bytes(16))
        token = bytearray(cipher.encrypt(b"attack at dawn"))
        token[20] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(token))

    def test_tampered_nonce_rejected(self):
        cipher = AesCipher(bytes(16))
        token = bytearray(cipher.encrypt(b"attack at dawn"))
        token[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(token))

    def test_tampered_tag_rejected(self):
        cipher = AesCipher(bytes(16))
        token = bytearray(cipher.encrypt(b"attack at dawn"))
        token[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            cipher.decrypt(bytes(token))

    def test_wrong_key_rejected(self):
        token = AesCipher(bytes(16)).encrypt(b"secret")
        with pytest.raises(AuthenticationError):
            AesCipher(bytes([9] * 16)).decrypt(token)

    def test_truncated_token_rejected(self):
        cipher = AesCipher(bytes(16))
        with pytest.raises(AuthenticationError):
            cipher.decrypt(b"too-short")

    def test_non_bytes_rejected(self):
        cipher = AesCipher(bytes(16))
        with pytest.raises(CryptoError):
            cipher.encrypt("string")
        with pytest.raises(CryptoError):
            cipher.decrypt(12345)


class TestBatchApis:
    def test_encrypt_many_matches_decrypt(self):
        cipher = AesCipher(bytes(range(16)))
        messages = [b"a" * n for n in (0, 1, 16, 33, 500)]
        tokens = cipher.encrypt_many(messages)
        assert cipher.decrypt_many(tokens) == messages

    def test_batch_and_single_interoperate(self):
        cipher = AesCipher(bytes(range(16)))
        messages = [b"msg-%d" % i for i in range(10)]
        batch_tokens = cipher.encrypt_many(messages)
        for token, message in zip(batch_tokens, messages):
            assert cipher.decrypt(token) == message
        single_tokens = [cipher.encrypt(m) for m in messages]
        assert cipher.decrypt_many(single_tokens) == messages

    def test_batch_rejects_any_tampering(self):
        cipher = AesCipher(bytes(16))
        tokens = cipher.encrypt_many([b"one", b"two", b"three"])
        tampered = list(tokens)
        broken = bytearray(tampered[1])
        broken[18] ^= 0xFF
        tampered[1] = bytes(broken)
        with pytest.raises(AuthenticationError):
            cipher.decrypt_many(tampered)

    def test_empty_batch(self):
        cipher = AesCipher(bytes(16))
        assert cipher.encrypt_many([]) == []
        assert cipher.decrypt_many([]) == []

    def test_token_size_validation(self):
        cipher = AesCipher(bytes(16))
        with pytest.raises(CryptoError):
            cipher.token_size(-1)

    def test_encrypt_many_identical_to_per_message_loop(self):
        """The packed single-pass batch equals the one-at-a-time loop.

        With the same injected nonce sequence, encrypt_many's packed
        buffer (one AES call, one gathered XOR) must produce
        byte-for-byte the tokens of a per-plaintext encrypt loop —
        including empty, sub-block, exact-block and multi-block sizes.
        """
        messages = [
            b"",
            b"x",
            b"fifteen bytes..",
            b"exactly 16 byte!",
            b"q" * 17,
            bytes(range(256)) * 3,
            b"",
            b"tail",
        ]
        batch = AesCipher(
            bytes(range(16)), nonce_factory=_counting_nonces()
        ).encrypt_many(messages)
        loop_cipher = AesCipher(
            bytes(range(16)), nonce_factory=_counting_nonces()
        )
        loop = [loop_cipher.encrypt(m) for m in messages]
        assert batch == loop

    def test_decrypt_many_identical_to_loop(self):
        """A list of tokens of mixed lengths, under nonces at and around
        a low-half wrap, decrypts to what a per-token loop gives."""
        values = iter((7, 2**64 - 1, 0, 123))
        cipher = AesCipher(
            bytes(range(32)),
            nonce_factory=lambda: next(values).to_bytes(16, "big"),
        )
        datas = [b"", b"abc", b"z" * 16, b"packed" * 40]
        tokens = cipher.encrypt_many(datas)
        assert cipher.decrypt_many(tokens) == [
            cipher.decrypt(token) for token in tokens
        ]
        assert cipher.decrypt_many(tokens) == datas

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    @pytest.mark.parametrize("width", [0, 1, 16, 250])
    def test_matrix_batch_round_trips(self, rng, key_bytes, width):
        """A plaintext matrix comes back as a token matrix 32 bytes
        wider whose rows are the per-message tokens."""
        cipher = AesCipher(
            bytes(range(key_bytes)), nonce_factory=_counting_nonces()
        )
        plaintexts = rng.integers(0, 256, (6, width), dtype=np.uint8)
        tokens = cipher.encrypt_many(plaintexts)
        assert tokens.shape == (6, width + cipher.overhead)
        assert [cipher.decrypt(row.tobytes()) for row in tokens] == [
            row.tobytes() for row in plaintexts
        ]
        assert np.array_equal(cipher.decrypt_many(tokens), plaintexts)

    def test_matrix_narrower_than_the_overhead_rejected(self):
        cipher = AesCipher(bytes(16))
        with pytest.raises(AuthenticationError):
            cipher.decrypt_many(np.zeros((3, 31), dtype=np.uint8))

    def test_nonce_factory_must_return_16_bytes(self):
        cipher = AesCipher(bytes(16), nonce_factory=lambda: bytes(15))
        with pytest.raises(CryptoError):
            cipher.encrypt_many([b"a", b"b"])

    def test_batches_do_not_write_their_inputs(self, rng):
        cipher = AesCipher(bytes(16))
        plaintexts = rng.integers(0, 256, (5, 40), dtype=np.uint8)
        plaintexts.flags.writeable = False
        tokens = cipher.encrypt_many(plaintexts)
        tokens.flags.writeable = False
        assert np.array_equal(cipher.decrypt_many(tokens), plaintexts)


def _wrapping_nonces():
    # starts three below the low-half wrap, so a batch crosses it
    counter = itertools.count(2**64 - 3)
    return lambda: next(counter).to_bytes(16, "big")


class TestTokenFormatIsPinned:
    """Tokens are stored on servers and disks: a faster cipher must
    write the same bytes. Vectors recorded at the commit before the
    pair-table kernel (PR 16)."""

    _MESSAGES = [
        b"",
        b"x",
        b"fifteen bytes..",
        b"exactly 16 byte!",
        b"q" * 17,
        bytes(range(256)) * 3,
        b"",
        b"tail",
    ]
    _PINNED = {
        16: (
            "0000000000000001000000000000000151ef3c0cf3bb3cfc043ae95cf8b8c6"
            "c19bf153aefd69a93ab79128034e9f3fea4e",
            "a66f16b6b6dfa83806ebef83db1b5279ffa34e83f2c9f86ae4b19477f2338975",
        ),
        24: (
            "00000000000000010000000000000001c4fd28d90ea12785ef8f73fa681c44"
            "d01772b34b798a3e257f26c8efe382bfb56a",
            "4b0c3df657bf5fffbfdb6567845a1fc4977e806141d67f8ff3543368593110e4",
        ),
        32: (
            "000000000000000100000000000000019190615c75265b4b341fb3937b9d73"
            "a82bc17686a2eedcd2eb227b1fa617b55fe3",
            "d2d00f61e4dbe6ccb4e0a653512b6c63a4dee3cdea8e4d6b56ef20d112683ede",
        ),
    }

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_encrypt_many_writes_the_recorded_tokens(self, key_bytes):
        cipher = AesCipher(
            bytes(range(key_bytes)), nonce_factory=_wrapping_nonces()
        )
        tokens = cipher.encrypt_many(self._MESSAGES)
        fifth, digest = self._PINNED[key_bytes]
        assert tokens[4].hex() == fifth
        assert hashlib.sha256(b"".join(tokens)).hexdigest() == digest
        assert cipher.decrypt_many(tokens) == self._MESSAGES


class TestBatchAuthentication:
    """All tags of a batch are verified before any keystream exists."""

    @pytest.fixture(scope="class")
    def batch(self):
        cipher = AesCipher(bytes(range(16)), nonce_factory=_counting_nonces())
        messages = [bytes([i % 251]) * 256 for i in range(600)]
        return cipher, messages, cipher.encrypt_many(messages)

    def test_one_flipped_bit_anywhere_fails_the_whole_batch(self, batch):
        cipher, messages, tokens = batch
        assert cipher.decrypt_many(tokens) == messages
        rng = random.Random(17)
        # first, last and random tokens; nonce, ciphertext and tag bytes
        cases = [(0, 0), (599, 287)]
        cases += [(300, byte) for byte in (15, 16, 271, 272)]
        cases += [(rng.randrange(600), rng.randrange(288)) for _ in range(20)]
        for index, byte in cases:
            tampered = list(tokens)
            broken = bytearray(tokens[index])
            broken[byte] ^= 1 << rng.randrange(8)
            tampered[index] = bytes(broken)
            with pytest.raises(AuthenticationError):
                cipher.decrypt_many(tampered)

    def test_no_keystream_before_the_last_tag_is_checked(
        self, batch, monkeypatch
    ):
        from repro.crypto import cipher as cipher_module

        cipher, _messages, tokens = batch
        calls = []
        real = cipher_module.ctr_transform_rows
        monkeypatch.setattr(
            cipher_module,
            "ctr_transform_rows",
            lambda *args: calls.append(len(args[1])) or real(*args),
        )
        tampered = list(tokens)
        tampered[-1] = tokens[-1][:-1] + bytes([tokens[-1][-1] ^ 0x80])
        with pytest.raises(AuthenticationError):
            cipher.decrypt_many(tampered)
        assert calls == []
        cipher.decrypt_many(tokens)
        assert calls == [600]

    def test_tags_are_compared_in_constant_time(self, batch, monkeypatch):
        import hmac

        cipher, _messages, tokens = batch
        compared = []
        real = hmac.compare_digest
        monkeypatch.setattr(
            hmac,
            "compare_digest",
            lambda a, b: compared.append(1) or real(a, b),
        )
        cipher.decrypt_many(tokens[:50])
        assert len(compared) == 50


class TestAgainstIndependentAes:
    """Known answers: the block cipher behind CTR is FIPS-197 AES, and a
    token is ``cryptography``'s AES-CTR plus a truncated HMAC."""

    _PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
    _FIPS_197_APPENDIX_C = {
        16: "69c4e0d86a7b0430d8cdb78070b4c55a",
        24: "dda97ca4864cdfe06eaf70a0ec0d7191",
        32: "8ea2b7ca516745bfeafc49904b496089",
    }

    @pytest.mark.parametrize("key_bytes", [16, 24, 32])
    def test_fips_197_appendix_c(self, key_bytes):
        """With the plaintext as the nonce and 16 zero bytes as the
        data, CTR's output is the first counter block's encryption."""
        nonce = np.frombuffer(self._PLAINTEXT, dtype=np.uint8).reshape(1, 16)
        block = ctr_transform_rows(
            bytes(range(key_bytes)), nonce, np.zeros((1, 16), dtype=np.uint8)
        )
        assert block.tobytes().hex() == self._FIPS_197_APPENDIX_C[key_bytes]

    def test_sp800_38a_f51_ctr_aes128(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        nonce = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        out = ctr_transform_rows(
            key,
            np.frombuffer(nonce, dtype=np.uint8).reshape(1, 16),
            np.frombuffer(plaintext, dtype=np.uint8).reshape(1, -1),
        )
        assert out.tobytes().hex() == (
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee"
        )

    def test_token_is_aes_ctr_plus_truncated_hmac(self):
        import hmac

        from cryptography.hazmat.primitives.ciphers import (
            Cipher,
            algorithms,
            modes,
        )

        for key_bytes in (16, 24, 32):
            master = bytes(range(key_bytes))
            messages = [b"", b"abc", bytes(range(200)), b"z" * 256]
            tokens = AesCipher(
                master, nonce_factory=_wrapping_nonces()
            ).encrypt_many(messages)
            enc_key = hashlib.sha256(b"repro.enc\x00" + master).digest()
            mac_key = hashlib.sha256(b"repro.mac\x00" + master).digest()
            for token, message in zip(tokens, messages):
                nonce, body, tag = token[:16], token[16:-16], token[-16:]
                encryptor = Cipher(
                    algorithms.AES(enc_key[:key_bytes]), modes.CTR(nonce)
                ).encryptor()
                assert body == encryptor.update(message) + encryptor.finalize()
                assert tag == hmac.digest(mac_key, nonce + body, "sha256")[:16]
