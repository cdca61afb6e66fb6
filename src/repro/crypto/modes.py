"""CTR mode over the platform's AES, and the batch shapes it serves.

There is one CTR implementation, :func:`ctr_transform_rows`: messages
of one length are the rows of a matrix, their counter blocks come from
the nonce column in one NumPy step, are encrypted by one call into
OpenSSL's AES (through ``cryptography``) and applied by one XOR.
:func:`rows_by_length` and :func:`rows_in_order` send a list of
messages of any lengths through it, one length at a time.
"""

from __future__ import annotations

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from cryptography.hazmat.primitives.ciphers.modes import ECB

from repro.exceptions import CryptoError

__all__ = ["BLOCK_SIZE", "ctr_transform_rows", "rows_by_length", "rows_in_order"]

BLOCK_SIZE = 16


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


def ctr_transform_rows(
    key: bytes, nonces: np.ndarray, data: np.ndarray
) -> np.ndarray:
    """CTR-transform ``n`` messages of one length in one pass (the
    operation is its own inverse).

    ``key`` is a 16-, 24- or 32-byte AES key, ``nonces`` the ``(n, 16)``
    uint8 matrix of initial counter blocks and ``data`` the ``(n,
    length)`` uint8 matrix of the messages, one a row (either may be a
    column slice of a wider matrix); the result is a new ``(n, length)``
    matrix. The counter blocks of every message are encrypted by one
    AES-ECB call and the keystream is applied by one XOR. The
    ``Cipher`` is built per call, so threads may share a key. This is
    the path behind :class:`repro.crypto.cipher.AesCipher`.
    """
    count, length = data.shape
    if nonces.shape != (count, BLOCK_SIZE):
        raise CryptoError(f"got nonces {nonces.shape} for {count} messages")
    n_blocks = -(-length // BLOCK_SIZE)
    encryptor = Cipher(algorithms.AES(key), ECB()).encryptor()
    stream = np.frombuffer(
        encryptor.update(_counter_blocks_rows(nonces, n_blocks)), np.uint8
    )
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
