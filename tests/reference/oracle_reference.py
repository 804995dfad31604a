"""Per-table and per-row oracle hashing, kept as parity references.

``UniquenessOracle`` once hashed each LSH table with its own Murmur-3
family call, and looked descriptors up one row, one table and one probe
at a time.  The production oracle now hashes every table in one
Murmur-3 pass (:func:`repro.hashing.families.stacked_indices`) and
resolves all probes of a batch with array passes; this module keeps the
old code so tests and the benchmarks can compare the two.  Test-only:
nothing under ``src/`` imports it.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.oracle import OracleLookup, UniquenessOracle
from repro.hashing.families import Murmur3Family
from repro.hashing.murmur3 import murmur3_32_vectors
from repro.lsh.buckets import QuantizedBuckets
from repro.lsh.multiprobe import perturbation_sets

__all__ = ["counts_reference", "indices_reference", "lookup_batch_reference"]


def indices_reference(family: Murmur3Family, vectors: np.ndarray) -> np.ndarray:
    """``family.indices`` with one Murmur-3 pass per seed."""
    vectors = np.ascontiguousarray(vectors, dtype=np.uint32)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    columns = [
        murmur3_32_vectors(vectors, seed=family.base_seed + k)
        for k in range(family.num_hashes)
    ]
    hashes = np.stack(columns, axis=1).astype(np.uint64)
    return (hashes % np.uint64(family.table_size)).astype(np.int64)


def counts_reference(
    oracle: UniquenessOracle, quantized: QuantizedBuckets
) -> np.ndarray:
    """Min-counter estimate, one family call and one gather per table."""
    estimate = np.full(quantized.num_items, np.iinfo(np.int64).max, dtype=np.int64)
    for table, family in enumerate(oracle._families):
        indices = family.indices(quantized.table_vectors(table))
        np.minimum(estimate, oracle.counting.count_from_indices(indices), out=estimate)
    return estimate


def lookup_batch_reference(
    oracle: UniquenessOracle, descriptors: np.ndarray
) -> list[OracleLookup]:
    """Reference per-row implementation of ``oracle.lookup_batch``.

    The pre-vectorization probe walk: per row, per table, the original
    bucket then each multiprobe perturbation, stopping at the first
    accepting probe.  It records the same oracle metrics, so tests can
    compare those too.
    """
    start = time.perf_counter()
    descriptors = np.asarray(descriptors, dtype=np.float32)
    if descriptors.ndim != 2:
        raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
    num = descriptors.shape[0]
    if num == 0:
        return []
    config = oracle.config
    buckets, residuals = oracle.projections.quantize_with_residuals(descriptors)
    counts = counts_reference(oracle, QuantizedBuckets(buckets))
    counters = oracle.counting.counters
    quorum = (config.lsh.num_tables + 1) // 2
    multiprobe_accepts = 0
    verification_vetoes = 0
    results: list[OracleLookup] = []
    for row in range(num):
        row_quantized = QuantizedBuckets(buckets[row : row + 1])
        accepting_tables = 0
        used_multiprobe = False
        for table, family in enumerate(oracle._families):
            probes: list[tuple[np.ndarray, bool]] = [
                (row_quantized.table_vectors(table)[0], False)
            ]
            for projection, delta in perturbation_sets(
                residuals[row, table, :], config.max_probes_per_table
            ):
                probes.append(
                    (row_quantized.perturbed(table, projection, delta)[0], True)
                )
            for vector, is_probe in probes:
                indices = family.indices(vector[np.newaxis, :])
                probed = counters[indices[0]]
                nonzero = int((probed > 0).sum())
                full_match = nonzero == config.bloom_hashes
                partial_match = nonzero == config.bloom_hashes - 1
                if not (full_match or partial_match):
                    continue
                if not bool(oracle.verification.verify(indices)[0]):
                    verification_vetoes += 1
                    continue
                accepting_tables += 1
                if is_probe:
                    used_multiprobe = True
                    multiprobe_accepts += 1
                break  # original bucket first; stop at the first accept
        # Presence needs a quorum of tables, as in the production lookup.
        results.append(
            OracleLookup(
                count=int(counts[row]),
                present=accepting_tables >= quorum,
                used_multiprobe=used_multiprobe,
            )
        )
    oracle._m_lookup_seconds.observe(time.perf_counter() - start)
    oracle._m_lookups_total.inc(num)
    if multiprobe_accepts:
        oracle._m_multiprobe_accepts.inc(multiprobe_accepts)
    if verification_vetoes:
        oracle._m_verification_vetoes.inc(verification_vetoes)
    return results
