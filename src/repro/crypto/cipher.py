"""High-level authenticated symmetric cipher used by the Encrypted M-Index.

:class:`AesCipher` is an encrypt-then-MAC construction:

* payloads are encrypted with **AES-CTR** under an encryption subkey,
* a 16-byte truncated **HMAC-SHA256** tag (stdlib ``hashlib``; the AES
  core itself is ours) under an independent MAC subkey authenticates
  ``nonce || ciphertext``. The MAC is keyed once per cipher: the two
  SHA-256 states that have absorbed the key pads are copied per token.

Both subkeys are derived from the user key with a domain-separated
SHA-256 expansion, so a single 128-bit key (the paper's "AES key, 128
bit") drives the whole layer. Wire format of a token:

    ``nonce (16) || ciphertext (len(plaintext)) || tag (16)``

The 32-byte overhead per object is what the communication-cost accounting
sees for each encrypted candidate.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Callable

from repro.crypto.aes import AesKey
from repro.crypto.modes import ctr_transform_many
from repro.exceptions import AuthenticationError, CryptoError, KeyError_

__all__ = ["AesCipher"]

_NONCE_SIZE = 16
_TAG_SIZE = 16


class AesCipher:
    """Authenticated AES-CTR cipher with per-message random nonces.

    Parameters
    ----------
    key:
        16-, 24- or 32-byte master key.
    nonce_factory:
        Callable returning 16 fresh bytes per message. Defaults to
        ``os.urandom``; tests and deterministic benchmarks inject a
        seeded generator.
    """

    def __init__(
        self,
        key: bytes,
        *,
        nonce_factory: Callable[[], bytes] | None = None,
    ) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KeyError_("cipher key must be bytes")
        key = bytes(key)
        if len(key) not in (16, 24, 32):
            raise KeyError_(
                f"cipher key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self._master_key = key
        enc_key = hashlib.sha256(b"repro.enc\x00" + key).digest()[: len(key)]
        # HMAC (RFC 2104) keyed once: H(key ^ opad || H(key ^ ipad || m))
        # with both pad blocks already absorbed.
        mac_key = hashlib.sha256(b"repro.mac\x00" + key).digest()
        mac_key = mac_key.ljust(hashlib.sha256().block_size, b"\0")
        self._mac_inner = hashlib.sha256(bytes(b ^ 0x36 for b in mac_key))
        self._mac_outer = hashlib.sha256(bytes(b ^ 0x5C for b in mac_key))
        self._aes = AesKey(enc_key)
        self._nonce_factory = nonce_factory or (lambda: os.urandom(_NONCE_SIZE))

    # -- public API ------------------------------------------------------

    @property
    def overhead(self) -> int:
        """Fixed per-message size overhead in bytes (nonce + tag)."""
        return _NONCE_SIZE + _TAG_SIZE

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt and authenticate ``plaintext``; returns a token (a
        batch of one)."""
        return self.encrypt_many([plaintext])[0]

    def encrypt_many(self, plaintexts: list[bytes]) -> list[bytes]:
        """Encrypt many messages with one vectorized AES pass.

        Nonces are drawn one per message, in order, so the tokens are
        those of ``[self.encrypt(p) for p in plaintexts]`` — but the
        per-message AES overhead is amortized, which is what bulk insert
        and candidate-set decryption hinge on. The whole batch is one
        packed buffer end to end: every message's counter blocks go
        through a single :func:`encrypt_blocks` call (block-range
        sliced across the kernel scheduler when enabled) and the
        keystream is applied by one XOR, not a Python loop of
        per-plaintext passes.
        """
        nonces = []
        for plaintext in plaintexts:
            if not isinstance(plaintext, (bytes, bytearray)):
                raise CryptoError("plaintext must be bytes")
            nonce = self._nonce_factory()
            if len(nonce) != _NONCE_SIZE:
                raise CryptoError(
                    f"nonce factory must return {_NONCE_SIZE} bytes, "
                    f"got {len(nonce)}"
                )
            nonces.append(nonce)
        ciphertexts = ctr_transform_many(
            self._aes, nonces, [bytes(p) for p in plaintexts]
        )
        tokens = []
        for nonce, ciphertext in zip(nonces, ciphertexts):
            body = nonce + ciphertext
            tokens.append(body + self._tag(body))
        return tokens

    def decrypt_many(self, tokens: list[bytes]) -> list[bytes]:
        """Verify and decrypt many tokens with one vectorized AES pass.

        Every tag is checked *before* any keystream is produced; a
        single bad token fails the whole batch with
        :class:`AuthenticationError`.
        """
        nonces: list[bytes] = []
        ciphertexts: list[bytes] = []
        for token in tokens:
            if not isinstance(token, (bytes, bytearray)):
                raise CryptoError("token must be bytes")
            token = bytes(token)
            if len(token) < _NONCE_SIZE + _TAG_SIZE:
                raise AuthenticationError("token too short to be valid")
            if not hmac.compare_digest(
                token[-_TAG_SIZE:], self._tag(token[:-_TAG_SIZE])
            ):
                raise AuthenticationError("ciphertext failed integrity check")
            nonces.append(token[:_NONCE_SIZE])
            ciphertexts.append(token[_NONCE_SIZE:-_TAG_SIZE])
        return ctr_transform_many(self._aes, nonces, ciphertexts)

    def decrypt(self, token: bytes) -> bytes:
        """Verify and decrypt a token produced by :meth:`encrypt`.

        Raises :class:`AuthenticationError` on any tampering or on
        decryption with the wrong key. A batch of one.
        """
        return self.decrypt_many([token])[0]

    def token_size(self, plaintext_size: int) -> int:
        """Size in bytes of the token for a plaintext of the given size."""
        if plaintext_size < 0:
            raise CryptoError("plaintext size must be >= 0")
        return plaintext_size + self.overhead

    # -- internals ---------------------------------------------------------

    def _tag(self, data: bytes) -> bytes:
        inner = self._mac_inner.copy()
        inner.update(data)
        outer = self._mac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()[:_TAG_SIZE]

    def __repr__(self) -> str:  # pragma: no cover - never leak key material
        return f"AesCipher(<{len(self._master_key) * 8}-bit key>)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AesCipher):
            return NotImplemented
        return hmac.compare_digest(self._master_key, other._master_key)

    def __hash__(self) -> int:
        return hash(hashlib.sha256(b"repro.id\x00" + self._master_key).digest())

