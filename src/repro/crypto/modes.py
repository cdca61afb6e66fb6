"""Block-cipher modes of operation: ECB, CBC and CTR.

ECB and CBC operate on PKCS#7-padded input; CTR is a stream mode
(ciphertext length == plaintext length) and is the mode the Encrypted
M-Index uses for object payloads. There is one CTR implementation,
:func:`ctr_transform_rows`: messages of one length are the rows of a
matrix, their counter blocks come from the nonce column in one step,
are encrypted in one vectorized AES pass and applied by one XOR.
:func:`ctr_transform_many` sends a list of messages of any lengths
through it, one length at a time (:func:`rows_by_length`), and the
single-message functions are its one-message view.

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
    "ctr_transform_rows",
    "rows_by_length",
    "rows_in_order",
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


def _counter_blocks_rows(nonces: np.ndarray, n_blocks: int) -> np.ndarray:
    """The counter blocks of ``n`` messages of ``n_blocks`` blocks each,
    one message after another.

    Message ``i`` contributes the big-endian 128-bit counters
    ``nonces[i], nonces[i] + 1, ...`` (NIST SP 800-38A style). The
    counters are two big-endian 64-bit columns whose bytes *are* the
    blocks, the block offsets added to every low half in one broadcast
    step. Where a low half could wrap (astronomically rare under random
    nonces) the wrapped counters carry into their high halves, so the
    arithmetic is exact modulo 2^128.
    """
    halves = np.ascontiguousarray(nonces, dtype=np.uint8).view(">u8")
    steps = np.arange(n_blocks, dtype=np.uint64)
    counters = np.empty((halves.shape[0], n_blocks, 2), dtype=">u8")
    counters[:, :, 0] = halves[:, :1]
    np.add(halves[:, 1:], steps, out=counters[:, :, 1])
    if n_blocks > 1 and np.any(halves[:, 1] > np.uint64(2**64 - n_blocks)):
        counters[:, :, 0] += counters[:, :, 1] < steps
    return counters.view(np.uint8).reshape(-1, BLOCK_SIZE)


def counter_blocks(start: int, n_blocks: int) -> np.ndarray:
    """Big-endian 16-byte counter blocks ``start .. start + n_blocks - 1``
    (modulo 2^128)."""
    nonce = (start & ((1 << 128) - 1)).to_bytes(BLOCK_SIZE, "big")
    return _counter_blocks_rows(
        np.frombuffer(nonce, dtype=np.uint8).reshape(1, -1), n_blocks
    )


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


def ctr_transform_rows(
    key: AesKey, nonces: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """CTR-transform ``n`` messages of one length in one vectorized pass.

    ``nonces`` is the ``(n, 16)`` uint8 matrix of initial counter blocks
    and ``data`` the ``(n, length)`` uint8 matrix of the messages, one a
    row (either may be a column slice of a wider matrix); the result is
    a new ``(n, length)`` matrix. The counter blocks of every message
    are encrypted as one matrix and the keystream is applied by one XOR.
    This is the path behind :class:`repro.crypto.cipher.AesCipher`.
    """
    count, length = data.shape
    if nonces.shape != (count, BLOCK_SIZE):
        raise CryptoError(f"got nonces {nonces.shape} for {count} messages")
    n_blocks = -(-length // BLOCK_SIZE)
    stream = encrypt_blocks(key, _counter_blocks_rows(nonces, n_blocks))
    return np.bitwise_xor(
        data, stream.reshape(count, n_blocks * BLOCK_SIZE)[:, :length]
    )


def rows_by_length(messages, what: str) -> list:
    """A batch as ``(positions, matrix)`` groups of messages of one
    length: a uint8 matrix is one group, its rows in order; a list of
    ``bytes`` of any lengths is one ``(count, length)`` matrix per length
    (a new buffer, read-only), lengths in order of first appearance,
    each with the positions its rows had in the list."""
    if isinstance(messages, np.ndarray):
        return [(slice(None), messages)]
    positions: dict[int, list[int]] = {}
    for position, message in enumerate(messages):
        if not isinstance(message, (bytes, bytearray)):
            raise CryptoError(f"{what} must be bytes")
        positions.setdefault(len(message), []).append(position)
    return [
        (
            chosen,
            np.frombuffer(
                b"".join([messages[position] for position in chosen]),
                dtype=np.uint8,
            ).reshape(len(chosen), length),
        )
        for length, chosen in positions.items()
    ]


def rows_in_order(messages, groups: list):
    """The inverse of :func:`rows_by_length` for the results of a
    batch's groups: the one matrix of a matrix batch; for a list, the
    rows of every ``(positions, matrix)`` group as ``bytes``, back in
    their positions."""
    if isinstance(messages, np.ndarray):
        return groups[0][1]
    results = [b""] * len(messages)
    for chosen, matrix in groups:
        data, length = matrix.tobytes(), matrix.shape[1]
        for row, position in enumerate(chosen):
            results[position] = data[row * length : (row + 1) * length]
    return results


def ctr_transform_many(
    key: AesKey, nonces: list[bytes], datas: list[bytes]
) -> list[bytes]:
    """CTR-transform a list of messages of any lengths: the messages of
    each length go through :func:`ctr_transform_rows` as one matrix."""
    if len(nonces) != len(datas):
        raise CryptoError(
            f"got {len(nonces)} nonces for {len(datas)} messages"
        )
    if any(len(nonce) != BLOCK_SIZE for nonce in nonces):
        raise CryptoError(f"a nonce must be {BLOCK_SIZE} bytes")
    column = np.frombuffer(b"".join(nonces), np.uint8).reshape(-1, BLOCK_SIZE)
    return rows_in_order(
        datas,
        [
            (chosen, ctr_transform_rows(key, column[chosen], rows))
            for chosen, rows in rows_by_length(datas, "data")
        ],
    )
