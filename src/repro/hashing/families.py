"""Families of K independent hash functions for Bloom filter indexing.

A counting Bloom filter needs ``K`` independent indices per element.  Both
families here map a batch of fixed-length integer vectors (the quantized
LSH bucket vectors) to ``(n, K)`` indices in ``[0, table_size)``.

:class:`Murmur3Family` follows the paper: one Murmur-3 evaluation per
``(element, k)`` pair using ``k`` as the hash seed.  It is fully
vectorized across elements.  :class:`MultiplyShiftFamily` is a cheaper
universal-hash alternative kept for the ablation benchmarks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors_multiseed
from repro.util.validation import check_positive

__all__ = ["HashFamily", "Murmur3Family", "MultiplyShiftFamily", "stacked_indices"]


class HashFamily(ABC):
    """K hash functions from integer vectors to table indices."""

    def __init__(self, num_hashes: int, table_size: int) -> None:
        check_positive("num_hashes", num_hashes)
        check_positive("table_size", table_size)
        self.num_hashes = int(num_hashes)
        self.table_size = int(table_size)

    @abstractmethod
    def indices(self, vectors: np.ndarray) -> np.ndarray:
        """Map ``(n, words)`` integer vectors to ``(n, K)`` table indices."""

    def indices_single(self, vector: np.ndarray) -> np.ndarray:
        """Convenience wrapper for one vector; returns shape ``(K,)``."""
        return self.indices(np.asarray(vector)[np.newaxis, :])[0]


class Murmur3Family(HashFamily):
    """K MurmurHash3 functions distinguished by seed (the paper's choice)."""

    def __init__(self, num_hashes: int, table_size: int, base_seed: int = 0) -> None:
        super().__init__(num_hashes, table_size)
        self.base_seed = int(base_seed)

    def indices(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.uint32)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        return stacked_indices([self], vectors[np.newaxis])[0]


class MultiplyShiftFamily(HashFamily):
    """Dietzfelbinger multiply-shift universal hashing (ablation baseline)."""

    def __init__(
        self,
        num_hashes: int,
        table_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_hashes, table_size)
        generator = rng if rng is not None else np.random.default_rng(0)
        # Odd 64-bit multipliers, one row per hash function.
        self._multipliers = (
            generator.integers(1, 2**63, size=(num_hashes, 64), dtype=np.uint64)
            * np.uint64(2)
            + np.uint64(1)
        )

    def indices(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.ascontiguousarray(vectors, dtype=np.uint64)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
        n_rows, n_words = vectors.shape
        if n_words > self._multipliers.shape[1]:
            raise ValueError(
                f"vectors have {n_words} words; family supports at most "
                f"{self._multipliers.shape[1]}"
            )
        out = np.empty((n_rows, self.num_hashes), dtype=np.int64)
        with np.errstate(over="ignore"):
            for k in range(self.num_hashes):
                mixed = vectors * self._multipliers[k, :n_words]
                combined = np.zeros(n_rows, dtype=np.uint64)
                for word_index in range(n_words):
                    combined = combined * np.uint64(0x9E3779B97F4A7C15) + mixed[
                        :, word_index
                    ]
                out[:, k] = ((combined >> np.uint64(16)).astype(np.uint64)
                             % np.uint64(self.table_size)).astype(np.int64)
        return out


def stacked_indices(families: list[Murmur3Family], vectors: np.ndarray) -> np.ndarray:
    """``(L, n, K)`` indices: ``families[t].indices(vectors[t])`` for every ``t``.

    ``vectors`` is ``(L, n, words)``, one slab per family; all families
    must share ``num_hashes`` and ``table_size``.  Every family's seeds
    go through one Murmur-3 pass over all slabs, bit-identical to the
    per-family calls.
    """
    table_size = families[0].table_size
    if any(
        family.num_hashes != families[0].num_hashes or family.table_size != table_size
        for family in families
    ):
        raise ValueError("stacked families must share num_hashes and table_size")
    seeds = np.array(
        [family.base_seed + np.arange(family.num_hashes) for family in families],
        dtype=np.int64,
    )
    hashes = murmur3_32_vectors_multiseed(vectors, seeds)
    if table_size <= 0xFFFFFFFF:  # else every 32-bit hash is its own index
        np.remainder(hashes, np.uint32(table_size), out=hashes)
    # One pass to the (L, n, K) int64 layout callers gather and ravel.
    return hashes.transpose(0, 2, 1).astype(np.int64, order="C")
