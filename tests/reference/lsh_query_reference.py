"""The per-descriptor LSH lookup, kept as a parity reference.

``LshIndex.query_batch`` once hashed every probe of every descriptor in
its own small Murmur-3 call, ranked the multiprobe schedule with an inline
``[r, 1 - r]`` argsort, and re-ranked each descriptor's whole candidate
set in float64.  The production lookup now collects the candidate pairs
of the whole batch at once and re-ranks only a float32 shortlist exactly;
this module keeps the old code so tests and ``benchmarks/bench_lsh.py``
can compare the two.  Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors
from repro.lsh import LshIndex, LshMatch

__all__ = ["candidate_rows_reference", "query_batch_reference"]


def candidate_rows_reference(
    index: LshIndex, descriptors: np.ndarray
) -> list[np.ndarray]:
    """Sorted distinct candidate rows per query, as the old index found them."""
    descriptors = np.asarray(descriptors, dtype=np.float32)
    buckets, residuals = index.projections.quantize_with_residuals(descriptors)
    num_queries = buckets.shape[0]
    num_projections = index.params.num_projections
    per_query: list[list[np.ndarray]] = [[] for _ in range(num_queries)]
    bias = np.int64(1 << 20)

    for table in range(index.params.num_tables):
        table_buckets = buckets[:, table, :]  # (n, M)
        table_residuals = residuals[:, table, :]
        probe_vectors = [table_buckets]
        if index.max_probes_per_table > 0:
            # Residual r: the lower neighbour is r away, the upper 1 - r.
            boundary = np.concatenate(
                [table_residuals, 1.0 - table_residuals], axis=1
            )  # (n, 2M): first M = delta -1, last M = delta +1
            ranked = np.argsort(boundary, axis=1)[:, : index.max_probes_per_table]
            for probe_rank in range(ranked.shape[1]):
                choice = ranked[:, probe_rank]
                projection = choice % num_projections
                delta = np.where(choice < num_projections, -1, 1).astype(np.int64)
                perturbed = table_buckets.copy()
                perturbed[np.arange(num_queries), projection] += delta
                probe_vectors.append(perturbed)
        table_map = index._tables[table]
        for probe in probe_vectors:
            unsigned = (probe + bias).astype(np.uint32)
            low = murmur3_32_vectors(unsigned, seed=2 * table).astype(np.uint64)
            high = murmur3_32_vectors(unsigned, seed=2 * table + 1).astype(np.uint64)
            keys = (high << np.uint64(32)) | low
            for query_index, key in enumerate(keys):
                rows = table_map.get(int(key))
                if rows is not None:
                    per_query[query_index].append(rows)
    return [
        np.unique(np.concatenate(rows)) if rows else np.empty(0, dtype=np.int32)
        for rows in per_query
    ]


def query_batch_reference(
    index: LshIndex, descriptors: np.ndarray, num_neighbors: int = 1
) -> list[list[LshMatch]]:
    """Top-``num_neighbors`` matches per query by a float64 re-rank of all candidates.

    Ties among equal distances come back in ``np.argsort``'s default
    (unstable) order, as they did.
    """
    descriptors = np.asarray(descriptors, dtype=np.float32)
    stored = index._store[: index.size]
    item_ids = index._ids_store[: index.size]
    results: list[list[LshMatch]] = []
    for query, rows in zip(descriptors, candidate_rows_reference(index, descriptors)):
        if rows.size == 0:
            results.append([])
            continue
        deltas = stored[rows].astype(np.float64) - query.astype(np.float64)
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.argsort(distances)[:num_neighbors]
        results.append(
            [
                LshMatch(item_id=int(item_ids[rows[i]]), distance=float(distances[i]))
                for i in order
            ]
        )
    return results
