"""High-level authenticated symmetric cipher used by the Encrypted M-Index.

:class:`AesCipher` is an encrypt-then-MAC construction:

* payloads are encrypted with **AES-CTR** (OpenSSL's AES through
  ``cryptography``) under an encryption subkey,
* a 16-byte truncated **HMAC-SHA256** tag (stdlib ``hashlib``) under
  an independent MAC subkey authenticates ``nonce || ciphertext``. The
  MAC is keyed once per cipher: the two SHA-256 states that have
  absorbed the key pads are copied per token.

Both subkeys are derived from the user key with a domain-separated
SHA-256 expansion, so a single 128-bit key (the paper's "AES key, 128
bit") drives the whole layer. Wire format of a token:

    ``nonce (16) || ciphertext (len(plaintext)) || tag (16)``

The 32-byte overhead per object is what the communication-cost accounting
sees for each encrypted candidate.

A batch is a matrix: messages of one length are the rows of a uint8
matrix and so are their tokens, 32 bytes wider. Per batch the only
per-token Python is the keyed HMAC over rows of one buffer (and, to
encrypt, one call of the nonce factory per message); the counter blocks
of every token are encrypted by one AES call. A list of ``bytes`` of
any lengths is a batch too, sent through the same path one length at a
time.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Callable

import numpy as np

from repro.crypto.modes import (
    ctr_transform_rows,
    rows_by_length,
    rows_in_order,
)
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
        self._enc_key = enc_key
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

    def encrypt_many(self, plaintexts):
        """Encrypt many messages with one AES pass.

        ``plaintexts`` is the ``(n, length)`` uint8 matrix of ``n``
        messages of one length, and the tokens come back as the ``(n,
        length + 32)`` matrix; or it is a list of ``bytes`` of any
        lengths, and the tokens come back as a list. Nonces are drawn
        one per message, in order, so the tokens are those of
        ``[self.encrypt(p) for p in plaintexts]`` — but the counter
        blocks of all messages of one length go through one
        :func:`~repro.crypto.modes.ctr_transform_rows` call, and the
        tags are the only loop over messages.
        """
        drawn = [self._nonce_factory() for _ in range(len(plaintexts))]
        if any(len(nonce) != _NONCE_SIZE for nonce in drawn):
            raise CryptoError(f"nonce factory must return {_NONCE_SIZE} bytes")
        nonces = np.frombuffer(b"".join(drawn), dtype=np.uint8)
        nonces = nonces.reshape(-1, _NONCE_SIZE)
        return rows_in_order(
            plaintexts,
            [
                (chosen, self._seal(nonces[chosen], rows))
                for chosen, rows in rows_by_length(plaintexts, "plaintext")
            ],
        )

    def decrypt_many(self, tokens):
        """Verify and decrypt many tokens with one AES pass.

        ``tokens`` is the ``(n, width)`` uint8 token matrix, and the
        plaintexts come back as the ``(n, width - 32)`` matrix; or it is
        a list of ``bytes`` tokens, and they come back as a list. Every
        tag of the batch is checked, on a private copy of the tokens,
        *before* any keystream is produced; a single bad token fails the
        whole batch with :class:`AuthenticationError`.
        """
        verified = [
            (chosen, self._verified(rows))
            for chosen, rows in rows_by_length(tokens, "token")
        ]
        return rows_in_order(
            tokens, [(chosen, self._open(rows)) for chosen, rows in verified]
        )

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

    def _seal(self, nonces: np.ndarray, plaintexts: np.ndarray) -> np.ndarray:
        """The token matrix of a plaintext matrix under a nonce column."""
        count, length = plaintexts.shape
        tokens = np.empty((count, length + self.overhead), dtype=np.uint8)
        tokens[:, :_NONCE_SIZE] = nonces
        tokens[:, _NONCE_SIZE:-_TAG_SIZE] = ctr_transform_rows(
            self._enc_key, nonces, plaintexts
        )
        tokens[:, -_TAG_SIZE:] = np.frombuffer(
            b"".join(self._tags(tokens)), dtype=np.uint8
        ).reshape(count, _TAG_SIZE)
        return tokens

    def _verified(self, tokens: np.ndarray) -> np.ndarray:
        """A private copy of a token matrix, every tag in it checked with
        :func:`hmac.compare_digest`."""
        tokens = np.array(tokens, order="C")
        if tokens.shape[1] < self.overhead:
            raise AuthenticationError("token too short to be valid")
        given = tokens[:, -_TAG_SIZE:].tobytes()
        compare = hmac.compare_digest
        starts = range(0, len(given), _TAG_SIZE)
        for start, tag in zip(starts, self._tags(tokens)):
            if not compare(tag, given[start : start + _TAG_SIZE]):
                raise AuthenticationError("ciphertext failed integrity check")
        return tokens

    def _open(self, tokens: np.ndarray) -> np.ndarray:
        """The plaintext matrix of a verified token matrix."""
        nonces, ciphertexts = tokens[:, :_NONCE_SIZE], tokens[:, _NONCE_SIZE:]
        return ctr_transform_rows(
            self._enc_key, nonces, ciphertexts[:, :-_TAG_SIZE]
        )

    def _tags(self, tokens: np.ndarray) -> list[bytes]:
        """The tag of every row of a C-contiguous token matrix, each over
        the row's ``nonce || ciphertext``."""
        width = tokens.shape[1]
        rows = memoryview(tokens.reshape(-1))
        tag = self._tag
        return [
            tag(rows[start : start + width - _TAG_SIZE])
            for start in range(0, len(rows), width)
        ]

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
