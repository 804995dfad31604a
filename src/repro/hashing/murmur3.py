"""MurmurHash3, x86 32-bit variant (Austin Appleby's public-domain design).

Two implementations share the same mixing constants:

* :func:`murmur3_32` — byte-exact scalar reference over ``bytes``.
* :func:`murmur3_32_vectors` — numpy-vectorized over rows of ``uint32``
  blocks, used to hash millions of LSH bucket vectors per second.

The vectorized variant treats each row as the little-endian byte string of
its ``uint32`` words, so for block-aligned input it matches the scalar
function bit for bit (verified in the test suite).
"""

from __future__ import annotations

import numpy as np

__all__ = ["murmur3_32", "murmur3_32_vectors", "murmur3_32_vectors_multiseed"]

_C1 = 0xCC9E2D51
_C2 = 0x1B873593
_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (32 - shift))) & _MASK32


def _fmix32(value: int) -> int:
    value ^= value >> 16
    value = (value * 0x85EBCA6B) & _MASK32
    value ^= value >> 13
    value = (value * 0xC2B2AE35) & _MASK32
    value ^= value >> 16
    return value


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Hash ``data`` to an unsigned 32-bit integer (scalar reference)."""
    length = len(data)
    state = seed & _MASK32
    rounded_end = (length // 4) * 4

    for offset in range(0, rounded_end, 4):
        block = int.from_bytes(data[offset : offset + 4], "little")
        block = (block * _C1) & _MASK32
        block = _rotl32(block, 15)
        block = (block * _C2) & _MASK32
        state ^= block
        state = _rotl32(state, 13)
        state = (state * 5 + 0xE6546B64) & _MASK32

    tail = 0
    remaining = length & 3
    if remaining == 3:
        tail ^= data[rounded_end + 2] << 16
    if remaining >= 2:
        tail ^= data[rounded_end + 1] << 8
    if remaining >= 1:
        tail ^= data[rounded_end]
        tail = (tail * _C1) & _MASK32
        tail = _rotl32(tail, 15)
        tail = (tail * _C2) & _MASK32
        state ^= tail

    state ^= length
    return _fmix32(state)


def _rotl32_array(values: np.ndarray, shift: int) -> np.ndarray:
    return (values << np.uint32(shift)) | (values >> np.uint32(32 - shift))


def _fmix32_inplace(values: np.ndarray, spill: np.ndarray) -> np.ndarray:
    """Murmur-3's finalizer, overwriting ``values``; ``spill`` is scratch."""
    for shift, multiplier in ((16, 0x85EBCA6B), (13, 0xC2B2AE35)):
        np.right_shift(values, np.uint32(shift), out=spill)
        values ^= spill
        values *= np.uint32(multiplier)
    np.right_shift(values, np.uint32(16), out=spill)
    values ^= spill
    return values


def murmur3_32_vectors(blocks: np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash each row of ``blocks`` (shape ``(n, words)``, dtype uint32).

    Every row is interpreted as the concatenation of its words in
    little-endian byte order, so
    ``murmur3_32_vectors(rows)[i] == murmur3_32(rows[i].tobytes())``.

    Returns an array of ``n`` unsigned 32-bit hashes.
    """
    blocks = np.ascontiguousarray(blocks, dtype=np.uint32)
    if blocks.ndim != 2:
        raise ValueError(f"blocks must be 2-D (n, words), got shape {blocks.shape}")
    n_rows, n_words = blocks.shape

    with np.errstate(over="ignore"):
        state = np.full(n_rows, seed & _MASK32, dtype=np.uint32)
        for word_index in range(n_words):
            block = blocks[:, word_index].copy()
            block *= np.uint32(_C1)
            block = _rotl32_array(block, 15)
            block *= np.uint32(_C2)
            state ^= block
            state = _rotl32_array(state, 13)
            state = state * np.uint32(5) + np.uint32(0xE6546B64)
        state ^= np.uint32(4 * n_words)
        return _fmix32_inplace(state, np.empty_like(state))


def murmur3_32_vectors_multiseed(blocks: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Hash each row of ``blocks`` under every seed in ``seeds`` at once.

    With ``blocks`` of shape ``(n, words)`` and ``seeds`` of shape ``(K,)``
    returns ``(K, n)``: row ``s`` equals
    ``murmur3_32_vectors(blocks, seed=seeds[s])`` bit for bit.  A leading
    table axis hashes several tables in the same pass: ``blocks`` of shape
    ``(L, n, words)`` with ``seeds`` of shape ``(L, K)`` returns
    ``(L, K, n)``, table ``t`` hashed under its own seeds ``seeds[t]``.

    The mixing of each input word into a per-chunk key is
    seed-independent, so it is computed once for every word and broadcast
    into all seed states; the per-word ops are those of the single-seed
    path, just stacked.  A Bloom hash family needs K seeds over the
    *same* vectors, and the oracle and the LSH index need them for every
    table, so this turns ``L * K`` full passes into one.
    """
    blocks = np.asarray(blocks, dtype=np.uint32)
    seeds = np.asarray(seeds, dtype=np.int64)
    stacked = blocks.ndim == 3
    if not stacked:
        if blocks.ndim != 2:
            raise ValueError(f"blocks must be 2-D (n, words), got shape {blocks.shape}")
        if seeds.ndim != 1:
            raise ValueError(f"seeds must be 1-D, got shape {seeds.shape}")
        blocks, seeds = blocks[np.newaxis], seeds[np.newaxis]
    elif seeds.ndim != 2 or seeds.shape[0] != blocks.shape[0]:
        raise ValueError(
            f"seeds must be (L, K) for blocks of shape {blocks.shape}, "
            f"got shape {seeds.shape}"
        )
    num_tables, n_rows, n_words = blocks.shape

    with np.errstate(over="ignore"):
        # Every word's chunk key at once, laid out word-major so each
        # round reads one contiguous (L, n) slice.
        keys = np.moveaxis(blocks, -1, 0).copy(order="C")
        keys *= np.uint32(_C1)
        keys = _rotl32_array(keys, 15)
        keys *= np.uint32(_C2)
        state = np.empty((num_tables, seeds.shape[1], n_rows), dtype=np.uint32)
        state[:] = (seeds & _MASK32).astype(np.uint32)[:, :, np.newaxis]
        spill = np.empty_like(state)
        for word_index in range(n_words):
            state ^= keys[word_index][:, np.newaxis, :]
            np.right_shift(state, np.uint32(19), out=spill)
            state <<= np.uint32(13)
            state |= spill
            state *= np.uint32(5)
            state += np.uint32(0xE6546B64)
        state ^= np.uint32(4 * n_words)
        hashes = _fmix32_inplace(state, spill)
    return hashes if stacked else hashes[0]
