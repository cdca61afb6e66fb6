"""Block-cipher modes of operation: ECB, CBC and CTR.

ECB and CBC operate on PKCS#7-padded input; CTR is a stream mode
(ciphertext length == plaintext length) and is the mode the Encrypted
M-Index uses for object payloads. The CTR keystream is produced through
the vectorized block-encryption path, so encrypting a large payload costs
one numpy pass instead of a Python loop per block; there is one CTR
implementation, :func:`ctr_transform_many`, and the single-message
functions are its one-message view.

ECB is provided for completeness and test vectors only — it leaks equal
blocks and must not be used for object payloads.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import BLOCK_SIZE, AesKey, decrypt_blocks, encrypt_blocks
from repro.exceptions import CryptoError

__all__ = [
    "ecb_encrypt",
    "ecb_decrypt",
    "cbc_encrypt",
    "cbc_decrypt",
    "counter_blocks",
    "ctr_keystream",
    "ctr_transform",
    "ctr_transform_many",
]


def _check_blocks(data: bytes, what: str) -> np.ndarray:
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise CryptoError(
            f"{what} length {len(data)} is not a positive multiple of "
            f"{BLOCK_SIZE}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, BLOCK_SIZE)


def ecb_encrypt(key: AesKey, plaintext: bytes) -> bytes:
    """Encrypt whole blocks in ECB mode (test vectors only)."""
    blocks = _check_blocks(plaintext, "plaintext")
    return encrypt_blocks(key, blocks).tobytes()


def ecb_decrypt(key: AesKey, ciphertext: bytes) -> bytes:
    """Decrypt whole blocks in ECB mode."""
    blocks = _check_blocks(ciphertext, "ciphertext")
    return decrypt_blocks(key, blocks).tobytes()


def cbc_encrypt(key: AesKey, plaintext: bytes, iv: bytes) -> bytes:
    """Encrypt whole blocks in CBC mode (input must be padded)."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    blocks = _check_blocks(plaintext, "plaintext")
    previous = np.frombuffer(iv, dtype=np.uint8)
    out = np.empty_like(blocks)
    for i in range(blocks.shape[0]):
        previous = encrypt_blocks(key, blocks[i] ^ previous)
        out[i] = previous
    return out.tobytes()


def cbc_decrypt(key: AesKey, ciphertext: bytes, iv: bytes) -> bytes:
    """Decrypt whole blocks in CBC mode."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    blocks = _check_blocks(ciphertext, "ciphertext")
    decrypted = decrypt_blocks(key, blocks)
    previous = np.vstack(
        [np.frombuffer(iv, dtype=np.uint8).reshape(1, -1), blocks[:-1]]
    )
    return (decrypted ^ previous).tobytes()


def _counter_blocks_many(
    nonces: list[bytes], blocks_per: np.ndarray
) -> np.ndarray:
    """Counter blocks of many messages, one message after another.

    Message ``i`` contributes the big-endian 128-bit counters
    ``nonces[i], nonces[i] + 1, ...`` (``blocks_per[i]`` of them, NIST
    SP 800-38A style). The counters are built as two big-endian 64-bit
    columns whose bytes *are* the blocks; a message whose low half
    could wrap (astronomically rare under random nonces) sends the call
    to exact big-integer arithmetic instead.
    """
    halves = np.frombuffer(b"".join(nonces), dtype=">u8").reshape(-1, 2)
    longest = int(blocks_per.max(initial=0))
    if np.any(halves[:, 1] > np.uint64(0xFFFFFFFFFFFFFFFF - longest)):
        mask = (1 << 128) - 1
        exact = b"".join(
            ((int.from_bytes(nonce, "big") + i) & mask).to_bytes(16, "big")
            for nonce, n_blocks in zip(nonces, blocks_per)
            for i in range(n_blocks)
        )
        return np.frombuffer(exact, dtype=np.uint8).reshape(-1, BLOCK_SIZE)
    # Each message's start repeated for its block count, plus the
    # within-message block offsets added to the low half.
    counters = np.repeat(halves, blocks_per, axis=0)
    first = np.cumsum(blocks_per) - blocks_per
    offsets = np.arange(counters.shape[0]) - np.repeat(first, blocks_per)
    counters[:, 1] += offsets.astype(np.uint64)
    return counters.view(np.uint8)


def counter_blocks(start: int, n_blocks: int) -> np.ndarray:
    """Big-endian 16-byte counter blocks ``start .. start + n_blocks - 1``
    (modulo 2^128)."""
    nonce = (start & ((1 << 128) - 1)).to_bytes(BLOCK_SIZE, "big")
    return _counter_blocks_many([nonce], np.array([n_blocks]))


def ctr_keystream(key: AesKey, nonce: bytes, length: int) -> np.ndarray:
    """CTR keystream bytes for a 16-byte initial counter block ``nonce``.

    The counter occupies the full 16-byte block interpreted as a
    big-endian integer (NIST SP 800-38A style), incremented per block.
    The keystream is what CTR makes of ``length`` zero bytes.
    """
    if length < 0:
        raise CryptoError(f"keystream length must be >= 0, got {length}")
    stream = ctr_transform(key, nonce, bytes(length))
    return np.frombuffer(stream, dtype=np.uint8)


def ctr_transform(key: AesKey, nonce: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` in CTR mode (the operation is its own
    inverse): :func:`ctr_transform_many` for one message."""
    return ctr_transform_many(key, [nonce], [data])[0]


def ctr_transform_many(
    key: AesKey, nonces: list[bytes], datas: list[bytes]
) -> list[bytes]:
    """CTR-transform many messages in one vectorized AES pass.

    This is the path behind :class:`repro.crypto.cipher.AesCipher`: the
    counter blocks of *all* messages are built and encrypted as one
    matrix, amortizing the per-call numpy overhead that dominates
    small-message CTR, and the keystream is applied by one XOR over the
    messages laid out block-aligned (each padded to whole blocks, so
    message and keystream offsets coincide); the results are slices of
    that one buffer.
    """
    if len(nonces) != len(datas):
        raise CryptoError(
            f"got {len(nonces)} nonces for {len(datas)} messages"
        )
    for nonce in nonces:
        if len(nonce) != BLOCK_SIZE:
            raise CryptoError(
                f"nonce must be {BLOCK_SIZE} bytes, got {len(nonce)}"
            )
    sizes = [-(-len(data) // BLOCK_SIZE) * BLOCK_SIZE for data in datas]
    counters = _counter_blocks_many(
        nonces, np.array(sizes, dtype=np.int64) // BLOCK_SIZE
    )
    if counters.shape[0] == 0:
        return [b"" for _ in datas]
    stream = encrypt_blocks(key, counters).reshape(-1)
    aligned = b"".join(
        [data.ljust(size, b"\0") for data, size in zip(datas, sizes)]
    )
    xored = (np.frombuffer(aligned, dtype=np.uint8) ^ stream).tobytes()
    messages = []
    start = 0
    for data, size in zip(datas, sizes):
        messages.append(xored[start : start + len(data)])
        start += size
    return messages
