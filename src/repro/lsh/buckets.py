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


def _bucket_keys(vectors: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """64-bit keys of ``(L, n, M)`` uint32 vectors, one table per slab.

    Table ``t`` takes its low and high Murmur-3 words under seeds
    ``seeds[t]`` and ``seeds[t] + 1``, all tables in one pass.
    """
    seeds = np.asarray(seeds, dtype=np.int64)[:, np.newaxis] + np.arange(2)
    words = murmur3_32_vectors_multiseed(vectors, seeds).astype(np.uint64)
    return (words[:, 1] << np.uint64(32)) | words[:, 0]


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
        """64-bit bucket keys for one table (two Murmur-3 words).

        Key collisions are possible but harmless: index candidates are
        always re-verified with exact Euclidean distances.
        """
        vectors = self.table_vectors(table)[np.newaxis]
        return _bucket_keys(vectors, [seed_base + 2 * table])[0]

    def all_vectors(self) -> np.ndarray:
        """:meth:`table_vectors` of every table at once, ``(L, n, M)`` uint32."""
        return (self.buckets.transpose(1, 0, 2) + _BUCKET_BIAS).astype(np.uint32)

    def all_keys(self) -> np.ndarray:
        """:meth:`table_keys` of every table in one Murmur-3 pass, ``(L, n)``.

        These are the bucket keys of :class:`repro.lsh.LshIndex`.
        """
        return _bucket_keys(self.all_vectors(), 2 * np.arange(self.num_tables))

    def perturbed(self, table: int, projection: int, delta: int) -> np.ndarray:
        """One-cell perturbation of a single coordinate (multiprobe)."""
        vectors = self.buckets[:, table, :].copy()
        vectors[:, projection] += delta
        return (vectors + _BUCKET_BIAS).astype(np.uint32)

    def probe_vectors(self, projections: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """All multiprobe vectors of every table in a single tensor.

        ``projections`` and ``deltas`` are ``(L, n, P)`` per-table,
        per-item perturbation schedules (see
        :func:`repro.lsh.multiprobe.ranked_perturbations`).  Returns
        ``(L, n, P + 1, M)`` uint32 vectors: slot 0 is each item's
        original bucket vector in that table, slot ``j + 1`` its
        ``j``-th perturbation.
        """
        base = self.buckets.transpose(1, 0, 2)  # (L, n, M)
        num_tables, n, _ = base.shape
        num_probes = projections.shape[2]
        probes = np.repeat(base[:, :, np.newaxis, :], num_probes + 1, axis=2)
        if num_probes:
            tables = np.arange(num_tables)[:, np.newaxis, np.newaxis]
            rows = np.arange(n)[np.newaxis, :, np.newaxis]
            slots = np.arange(1, num_probes + 1)[np.newaxis, np.newaxis, :]
            probes[tables, rows, slots, projections] += deltas
        return (probes + _BUCKET_BIAS).astype(np.uint32)

    def probe_keys(self, projections: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """:meth:`all_keys` of every :meth:`probe_vectors` slot, ``(L, n, P + 1)``."""
        probes = self.probe_vectors(projections, deltas)
        num_tables, num_items, num_slots, num_projections = probes.shape
        flat = probes.reshape(num_tables, num_items * num_slots, num_projections)
        keys = _bucket_keys(flat, 2 * np.arange(num_tables))
        return keys.reshape(num_tables, num_items, num_slots)
