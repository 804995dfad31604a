"""The per-descriptor LSH lookup and the dictionary tables, kept as references.

``LshIndex.query_batch`` once hashed every probe of every descriptor in
its own small Murmur-3 call, ranked the multiprobe schedule with an inline
``[r, 1 - r]`` argsort, and re-ranked each descriptor's whole candidate
set in float64.  The production lookup now collects the candidate pairs
of the whole batch at once and re-ranks only a float32 shortlist exactly;
this module keeps the old code so tests and ``benchmarks/bench_lsh.py``
can compare the two.

The index also once kept each table as a ``{key: rows}`` dictionary and
resolved the batch's probes with one dictionary lookup each, hashing
table by table; :func:`candidate_pairs_dict_reference` keeps that
collection step for the sorted-table benchmark row.  Test-only: nothing
under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.murmur3 import murmur3_32_vectors, murmur3_32_vectors_multiseed
from repro.lsh import LshIndex, LshMatch, QuantizedBuckets
from repro.lsh.multiprobe import ranked_perturbations

__all__ = [
    "candidate_pairs_dict_reference",
    "candidate_rows_reference",
    "dict_tables",
    "query_batch_reference",
]

_NO_ROWS = np.empty(0, dtype=np.int32)


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
        for probe in probe_vectors:
            unsigned = (probe + bias).astype(np.uint32)
            low = murmur3_32_vectors(unsigned, seed=2 * table).astype(np.uint64)
            high = murmur3_32_vectors(unsigned, seed=2 * table + 1).astype(np.uint64)
            keys = (high << np.uint64(32)) | low
            for query_index, key in enumerate(keys):
                rows = index._bucket_rows(table, int(key))
                if rows.size:
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


def dict_tables(index: LshIndex) -> list[dict[int, np.ndarray]]:
    """The index's buckets as the per-table ``{key: rows}`` dictionaries."""
    return [
        {
            key: table.rows[start:end]
            for key, start, end in zip(
                table.keys.tolist(), table.offsets[:-1].tolist(), table.offsets[1:].tolist()
            )
        }
        for table in index._tables
    ]


def candidate_pairs_dict_reference(
    index: LshIndex, tables: list[dict[int, np.ndarray]], descriptors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``index._candidate_pairs`` over :func:`dict_tables`, one lookup per probe."""
    buckets, residuals = index.projections.quantize_with_residuals(descriptors)
    projections, deltas = ranked_perturbations(
        residuals.transpose(1, 0, 2), index.max_probes_per_table
    )
    probes = QuantizedBuckets(buckets).probe_vectors(projections, deltas)
    _, num_queries, probes_per_query, num_projections = probes.shape
    found: list[np.ndarray] = []
    for table, table_map in enumerate(tables):
        flat = probes[table].reshape(num_queries * probes_per_query, num_projections)
        low, high = murmur3_32_vectors_multiseed(flat, np.array([2 * table, 2 * table + 1]))
        keys = (high.astype(np.uint64) << np.uint64(32)) | low.astype(np.uint64)
        found.extend(table_map.get(key, _NO_ROWS) for key in keys.tolist())
    # ``found`` is (table, query, probe)-ordered, one entry per probe.
    owners = np.tile(np.repeat(np.arange(num_queries), probes_per_query), len(tables))
    lengths = np.fromiter(map(len, found), np.int64, len(found))
    if not lengths.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    queries = np.repeat(owners, lengths)
    codes = np.sort(queries * index.size + np.concatenate(found))
    distinct = np.empty(codes.size, dtype=bool)
    distinct[0] = True
    np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
    return np.divmod(codes[distinct], index.size)

