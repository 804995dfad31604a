"""Canonical encoding of quantized LSH bucket vectors for hashing.

Quantized buckets are small signed integers (``floor(projection / W)``).
Bloom-filter hashing and bucket-key derivation both need a fixed-width
unsigned representation; this module centralizes that conversion so the
oracle, the server index, and the tests all agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors_multiseed

__all__ = ["QuantizedBuckets"]

_BUCKET_BIAS = np.int64(1 << 20)


def _bucket_keys(vectors: np.ndarray, seed: int) -> np.ndarray:
    """64-bit keys of ``(n, M)`` uint32 vectors: Murmur-3 low and high words."""
    low, high = murmur3_32_vectors_multiseed(vectors, np.array([seed, seed + 1]))
    return (high.astype(np.uint64) << np.uint64(32)) | low.astype(np.uint64)


class QuantizedBuckets:
    """Wraps a ``(n, L, M)`` int64 bucket tensor with encoding helpers."""

    def __init__(self, buckets: np.ndarray) -> None:
        buckets = np.asarray(buckets, dtype=np.int64)
        if buckets.ndim != 3:
            raise ValueError(f"buckets must be (n, L, M), got shape {buckets.shape}")
        if np.any(np.abs(buckets) >= _BUCKET_BIAS):
            raise ValueError(
                "bucket indices exceed the +/-2^20 encoding range; "
                "quantization width W is implausibly small"
            )
        self.buckets = buckets

    @property
    def num_items(self) -> int:
        return self.buckets.shape[0]

    @property
    def num_tables(self) -> int:
        return self.buckets.shape[1]

    @property
    def num_projections(self) -> int:
        return self.buckets.shape[2]

    def table_vectors(self, table: int) -> np.ndarray:
        """Unsigned ``(n, M)`` uint32 vectors for one LSH table.

        A constant bias shifts the signed bucket indices into unsigned
        range so the mapping is injective (no wraparound aliasing).
        """
        return (self.buckets[:, table, :] + _BUCKET_BIAS).astype(np.uint32)

    def table_keys(self, table: int, seed_base: int = 0) -> np.ndarray:
        """64-bit bucket keys for one table (two Murmur-3 passes).

        Used as dictionary keys in :class:`repro.lsh.LshIndex`.  Key
        collisions are possible but harmless: index candidates are always
        re-verified with exact Euclidean distances.
        """
        return _bucket_keys(self.table_vectors(table), seed_base + 2 * table)

    def perturbed(self, table: int, projection: int, delta: int) -> np.ndarray:
        """One-cell perturbation of a single coordinate (multiprobe)."""
        vectors = self.buckets[:, table, :].copy()
        vectors[:, projection] += delta
        return (vectors + _BUCKET_BIAS).astype(np.uint32)

    def probe_vectors(
        self, table: int, projections: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """All multiprobe vectors for one table in a single tensor.

        ``projections`` and ``deltas`` are ``(n, P)`` per-item perturbation
        schedules (see :func:`repro.lsh.multiprobe.ranked_perturbations`).
        Returns ``(n, P + 1, M)`` uint32 vectors: slot 0 is each item's
        original bucket vector, slot ``j + 1`` its ``j``-th perturbation.
        """
        base = self.buckets[:, table, :]
        n, _ = base.shape
        num_probes = projections.shape[1]
        probes = np.repeat(base[:, np.newaxis, :], num_probes + 1, axis=1)
        if num_probes:
            rows = np.arange(n)[:, np.newaxis]
            slots = np.arange(1, num_probes + 1)[np.newaxis, :]
            probes[rows, slots, projections] += deltas
        return (probes + _BUCKET_BIAS).astype(np.uint32)

    def probe_keys(
        self, table: int, projections: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """:meth:`table_keys` of every :meth:`probe_vectors` slot, ``(n, P + 1)``."""
        probes = self.probe_vectors(table, projections, deltas)
        num_items, num_slots, num_projections = probes.shape
        flat = probes.reshape(num_items * num_slots, num_projections)
        return _bucket_keys(flat, 2 * table).reshape(num_items, num_slots)
