"""The AES block cipher (FIPS-197), implemented from scratch.

The S-box and the GF(2^8) multiplication tables are *computed* at import
time from the field definition (irreducible polynomial ``x^8 + x^4 + x^3
+ x + 1``) rather than hardcoded, which removes any chance of a typo in a
256-entry table; the test suite then pins the implementation to the
official FIPS-197 and NIST SP 800-38A vectors.

Two execution paths are provided:

* scalar :func:`encrypt_block` / :func:`decrypt_block` on 16-byte blocks,
* :func:`encrypt_blocks`, a numpy-vectorized path that runs all AES
  rounds on an ``(n, 16)`` uint8 array at once. CTR mode uses it to
  encrypt thousands of counter blocks per call, which is what makes
  bulk object encryption tractable in pure Python.

The vectorized encrypt kernel works on *fused pair tables*: the four
classic 256-entry T-tables (SubBytes + MixColumns per state byte) are
combined pairwise into 65 536-entry tables indexed by two state bytes
at once, so a round costs two gathers per column instead of four, over
a column-major state in which ShiftRows is a row offset. One kernel
serves every input size; it walks the input in fixed slabs so its
scratch memory does not grow with the input.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CryptoError, KeyError_

__all__ = ["AesKey", "encrypt_block", "decrypt_block", "encrypt_blocks"]

BLOCK_SIZE = 16

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and derived tables
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8) modulo x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """Russian-peasant multiplication in GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> tuple[np.ndarray, np.ndarray]:
    """Compute the AES S-box from field inversion + affine transform."""
    # Multiplicative inverses from the powers of the generator 3 = x + 1:
    # with a = 3^i, the inverse is 3^(255 - i).
    powers = [1] * 255
    for i in range(1, 255):
        powers[i] = powers[i - 1] ^ _xtime(powers[i - 1])
    inverse = [0] * 256
    for i, a in enumerate(powers):
        inverse[a] = powers[-i % 255]
    sbox = np.zeros(256, dtype=np.uint8)
    for value in range(256):
        x = inverse[value]
        affine = 0
        for bit in range(8):
            affine |= (
                ((x >> bit) & 1)
                ^ ((x >> ((bit + 4) % 8)) & 1)
                ^ ((x >> ((bit + 5) % 8)) & 1)
                ^ ((x >> ((bit + 6) % 8)) & 1)
                ^ ((x >> ((bit + 7) % 8)) & 1)
                ^ ((0x63 >> bit) & 1)
            ) << bit
        sbox[value] = affine
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    return sbox, inv_sbox


SBOX, INV_SBOX = _build_sbox()

# GF multiplication lookup tables used by (inverse) MixColumns.
_MUL = {
    factor: np.array([_gf_mul(x, factor) for x in range(256)], dtype=np.uint8)
    for factor in (2, 3, 9, 11, 13, 14)
}

# ShiftRows permutations over the flat 16-byte block. AES state is
# column-major: flat[4*c + r] == state[r][c]. ShiftRows rotates row r
# left by r, so new_state[r][c] = old_state[r][(c + r) % 4].
_SHIFT_ROWS = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.empty(16, dtype=np.intp)
_INV_SHIFT_ROWS[_SHIFT_ROWS] = np.arange(16, dtype=np.intp)


def _build_pair_tables() -> tuple[np.ndarray, ...]:
    """Fused T-tables: SubBytes + MixColumns for two state bytes at once.

    With the state held as little-endian uint32 column words (byte 0 =
    row 0 in the low byte), the classic tables ``T_r[b]`` give the
    contribution of row ``r``'s byte to its output column, and a round
    is ``T0[b0] ^ T1[b1] ^ T2[b2] ^ T3[b3] ^ round key``. Indexing by
    the 16-bit pair ``b0 | b1 << 8`` (resp. ``b2 | b3 << 8``) halves
    the gathers: ``T01[pair] = T0[b0] ^ T1[b1]``, ``T23`` likewise. The
    last round has no MixColumns, so its pair tables ``S01`` / ``S23``
    just place the two substituted bytes in their rows.
    """
    s = SBOX.astype(np.uint32)
    m2 = _MUL[2][SBOX].astype(np.uint32)
    m3 = _MUL[3][SBOX].astype(np.uint32)
    t0 = m2 | (s << 8) | (s << 16) | (m3 << 24)
    t1 = m3 | (m2 << 8) | (s << 16) | (s << 24)
    t2 = s | (m3 << 8) | (m2 << 16) | (s << 24)
    t3 = s | (s << 8) | (m3 << 16) | (m2 << 24)
    pair = np.arange(1 << 16, dtype=np.intp)
    low, high = pair & 0xFF, pair >> 8
    return (
        t0[low] ^ t1[high],
        t2[low] ^ t3[high],
        s[low] | (s[high] << 8),
        (s[low] << 16) | (s[high] << 24),
    )


_T01, _T23, _S01, _S23 = _build_pair_tables()
_ROW_MASKS = tuple(np.uint32(0xFF << (8 * row)) for row in range(4))
#: blocks per pass of the encrypt kernel: its scratch is about 0.5 MiB
#: whatever the input size, small enough to stay in cache next to the
#: two 256 KiB tables of a round (measured on 9 600 blocks: 1 024 is
#: 20 % slower, 8 192 no faster)
_SLAB = 4096

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]

_ROUNDS_BY_KEYLEN = {16: 10, 24: 12, 32: 14}


class AesKey:
    """An expanded AES key schedule for a 128/192/256-bit key."""

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KeyError_("AES key must be bytes")
        key = bytes(key)
        if len(key) not in _ROUNDS_BY_KEYLEN:
            raise KeyError_(
                f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
            )
        self.key = key
        self.rounds = _ROUNDS_BY_KEYLEN[len(key)]
        self._round_keys = _expand_key(key, self.rounds)
        self._round_key_words = np.ascontiguousarray(self._round_keys).view(
            "<u4"
        )

    @property
    def round_keys(self) -> np.ndarray:
        """``(rounds + 1, 16)`` uint8 array of round keys."""
        return self._round_keys

    @property
    def round_key_words(self) -> np.ndarray:
        """``(rounds + 1, 4)`` little-endian uint32 view of the round
        keys (the representation the T-table encrypt path consumes)."""
        return self._round_key_words

    def __repr__(self) -> str:  # pragma: no cover - never leak key material
        return f"AesKey(<{len(self.key) * 8}-bit key>)"


def _expand_key(key: bytes, rounds: int) -> np.ndarray:
    """FIPS-197 key expansion; returns ``(rounds+1, 16)`` round keys."""
    nk = len(key) // 4
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    total_words = 4 * (rounds + 1)
    for i in range(nk, total_words):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]  # RotWord
            temp = [int(SBOX[b]) for b in temp]  # SubWord
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [int(SBOX[b]) for b in temp]  # extra SubWord for AES-256
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    flat = np.array(words, dtype=np.uint8).reshape(rounds + 1, 16)
    return flat


# ---------------------------------------------------------------------------
# Vectorized round functions (operate on an (n, 16) uint8 array)
# ---------------------------------------------------------------------------


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    s = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    m9, m11, m13, m14 = _MUL[9], _MUL[11], _MUL[13], _MUL[14]
    out = np.empty_like(s)
    out[:, :, 0] = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
    out[:, :, 1] = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
    out[:, :, 2] = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
    out[:, :, 3] = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
    return out.reshape(-1, 16)


def encrypt_blocks(key: AesKey, blocks: np.ndarray) -> np.ndarray:
    """Encrypt an ``(n, 16)`` uint8 array of blocks in one vectorized pass.

    Runs the fused pair-table kernel (:func:`_encrypt_blocks_core`),
    verified byte-identical to the textbook round functions and the
    FIPS-197 vectors in the test suite.
    """
    state = np.asarray(blocks, dtype=np.uint8)
    single = state.ndim == 1
    if single:
        state = state.reshape(1, -1)
    if state.shape[1] != BLOCK_SIZE:
        raise CryptoError(f"blocks must be 16 bytes wide, got {state.shape}")
    out = _encrypt_blocks_core(key, state)
    return out[0] if single else out


def _encrypt_blocks_core(key: AesKey, state: np.ndarray) -> np.ndarray:
    """Serial pair-table kernel over a validated ``(n, 16)`` uint8 array.

    The state of a slab of ``m`` blocks is held column-major: buffer
    row ``c`` is state column ``c`` of every block as a little-endian
    word (byte ``r`` = state row ``r``). The buffer has 7 rows, rows
    4..6 repeating rows 0..2, so ShiftRows — output column ``c`` takes
    its row-``r`` byte from column ``c + r`` — is the offset view
    ``window[r : r + 4]`` masked to byte ``r``. Masking keeps each byte
    in its place, so bytes 0 and 1 OR-ed together are already a pair
    index and bytes 2 and 3 are one after a single shift. Indices are
    written straight into ``intp`` buffers (a ``uint32`` index array
    would be cast on every gather) and every step reuses the slab's
    scratch via ``out=``.
    """
    n = state.shape[0]
    round_keys = key.round_key_words[:, :, None]
    words = np.ascontiguousarray(state).view("<u4")
    out = np.empty((n, 4), dtype="<u4")
    width = min(n, _SLAB)
    window = np.empty((7, width), dtype=np.uint32)
    left = np.empty((4, width), dtype=np.uint32)
    right = np.empty((4, width), dtype=np.uint32)
    pairs01 = np.empty((4, width), dtype=np.intp)
    pairs23 = np.empty((4, width), dtype=np.intp)
    mask0, mask1, mask2, mask3 = _ROW_MASKS
    for start in range(0, n, _SLAB):
        stop = min(start + _SLAB, n)
        if stop - start != width:
            width = stop - start
            window, left, right, pairs01, pairs23 = (
                buffer[:, :width]
                for buffer in (window, left, right, pairs01, pairs23)
            )
        columns = window[:4]
        np.bitwise_xor(words[start:stop].T, round_keys[0], out=columns)
        for round_index in range(1, key.rounds + 1):
            window[4:] = window[:3]
            np.bitwise_and(columns, mask0, out=left)
            np.bitwise_and(window[1:5], mask1, out=right)
            np.bitwise_or(left, right, out=pairs01)
            np.bitwise_and(window[2:6], mask2, out=left)
            np.bitwise_and(window[3:7], mask3, out=right)
            np.bitwise_or(left, right, out=left)
            np.right_shift(left, np.uint32(16), out=pairs23)
            # mode="wrap": the default "raise" gathers through a
            # temporary instead of straight into ``out``
            last = round_index == key.rounds
            table01, table23 = (_S01, _S23) if last else (_T01, _T23)
            np.take(table01, pairs01, out=left, mode="wrap")
            np.take(table23, pairs23, out=right, mode="wrap")
            np.bitwise_xor(left, right, out=left)
            # the final round lands transposed in the row-major output
            np.bitwise_xor(
                left,
                round_keys[round_index],
                out=out[start:stop].T if last else columns,
            )
    return out.view(np.uint8)


def decrypt_blocks(key: AesKey, blocks: np.ndarray) -> np.ndarray:
    """Decrypt an ``(n, 16)`` uint8 array of blocks (inverse cipher)."""
    state = np.asarray(blocks, dtype=np.uint8)
    single = state.ndim == 1
    if single:
        state = state.reshape(1, -1)
    if state.shape[1] != BLOCK_SIZE:
        raise CryptoError(f"blocks must be 16 bytes wide, got {state.shape}")
    rk = key.round_keys
    state = state ^ rk[key.rounds]
    state = state[:, _INV_SHIFT_ROWS]
    state = INV_SBOX[state]
    for round_index in range(key.rounds - 1, 0, -1):
        state = state ^ rk[round_index]
        state = _inv_mix_columns(state)
        state = state[:, _INV_SHIFT_ROWS]
        state = INV_SBOX[state]
    state = state ^ rk[0]
    return state[0] if single else state


def encrypt_block(key: AesKey, block: bytes) -> bytes:
    """Encrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoError(f"block must be 16 bytes, got {len(block)}")
    arr = np.frombuffer(block, dtype=np.uint8)
    return encrypt_blocks(key, arr).tobytes()


def decrypt_block(key: AesKey, block: bytes) -> bytes:
    """Decrypt one 16-byte block."""
    if len(block) != BLOCK_SIZE:
        raise CryptoError(f"block must be 16 bytes, got {len(block)}")
    arr = np.frombuffer(block, dtype=np.uint8)
    return decrypt_blocks(key, arr).tobytes()
