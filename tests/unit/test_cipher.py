"""Unit tests for repro.crypto.cipher (authenticated AES-CTR)."""

import hashlib
import itertools
import random

import pytest

from repro.crypto.cipher import AesCipher
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

    def test_rejects_non_bytes_key(self):
        with pytest.raises(KeyError_):
            AesCipher("not-bytes" * 2)

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
        buffer (one encrypt_blocks call, one gathered XOR) must produce
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

    def test_ctr_transform_many_identical_to_loop(self):
        from repro.crypto.aes import AesKey
        from repro.crypto.modes import ctr_transform, ctr_transform_many

        key = AesKey(bytes(range(32)))
        nonces = [n.to_bytes(16, "big") for n in (7, 2**64 - 1, 0, 123)]
        datas = [b"", b"abc", b"z" * 16, b"packed" * 40]
        batch = ctr_transform_many(key, nonces, datas)
        loop = [
            ctr_transform(key, nonce, data)
            for nonce, data in zip(nonces, datas)
        ]
        assert batch == loop


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
    """Optional cross-check with the ``cryptography`` package (not a
    dependency of this repository; skipped where it is absent)."""

    def test_token_is_aes_ctr_plus_truncated_hmac(self):
        import hmac

        pytest.importorskip("cryptography")
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
