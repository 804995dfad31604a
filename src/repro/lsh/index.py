"""Multi-table LSH index for Euclidean nearest-neighbor lookup.

This is the server-side "large-scale image-based content retrieval table"
of the paper: each indexed descriptor carries an opaque payload id (in
VisualPrint, a row into the keypoint-to-3D-position table).  Queries
collect candidates from every table's bucket (optionally multiprobing
adjacent cells), then re-rank candidates by exact Euclidean distance —
so hash-key collisions never produce wrong matches, only extra work.

The index deliberately stores descriptors once but bucket references L
times; :meth:`LshIndex.memory_bytes` reports that replication, which is
what makes conventional LSH "an extremely large memory footprint, much
larger than the input data" in Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lsh.buckets import QuantizedBuckets
from repro.lsh.multiprobe import ranked_perturbations
from repro.lsh.projections import E2LSHParams, StableProjections
from repro.util.validation import check_positive

__all__ = ["LshIndex", "LshMatch"]

#: Relative slack added to the float32 screening margin; it covers the
#: float64 rounding of the Gram terms and of the exact re-rank with
#: orders of magnitude to spare.
_F64_SLACK = 1e-9
#: Shortlisted pairs re-ranked per float64 chunk (about 1 MB each).
_RECHECK_CHUNK = 1024
#: Candidate rows of a probe whose bucket is empty.
_NO_ROWS = np.empty(0, dtype=np.int32)


def _screen_margin(norms: np.ndarray, dimension: int) -> np.ndarray:
    """Bound on ``|float32 Gram d^2 - d^2|`` given ``norms = |x|^2 + |q|^2``.

    ``gamma_D = D u / (1 - D u)`` with ``u = 2^-24`` bounds the rounding
    of a D-term float32 dot product under any summation order; the
    additive term covers products that underflow (flushed to zero or not).
    """
    units = dimension * 2.0**-24
    gamma = units / (1.0 - units)
    underflow = 2.0 * dimension * float(np.finfo(np.float32).tiny)
    return (gamma + _F64_SLACK) * norms + underflow


def _kth_smallest_per_query(
    values: np.ndarray, queries: np.ndarray, starts: np.ndarray, k: int
) -> np.ndarray:
    """An upper bound on each query's k-th smallest value; +inf below k values.

    ``values`` are non-negative (or NaN) and grouped by ``queries``, with
    query ``i``'s values at ``starts[i]:starts[i + 1]``.  Rounding each
    up to float32 never lowers the k-th smallest, and the bit pattern of
    a non-negative float32 orders like the float, so one int64 sort of
    ``query << 32 | bits`` ranks every query's values at once.
    """
    with np.errstate(over="ignore"):
        rounded = (np.maximum(values, 0.0) * (1.0 + 2.0**-22)).astype(np.float32)
    keys = (queries << 32) | rounded.view(np.uint32).astype(np.int64)
    keys.sort()
    counts = np.diff(starts)
    threshold = np.full(counts.size, np.inf)
    full = counts >= k
    kth_bits = keys[starts[:-1][full] + k - 1] & 0xFFFFFFFF
    threshold[full] = kth_bits.astype(np.uint32).view(np.float32)
    return threshold


@dataclass(frozen=True)
class LshMatch:
    """One nearest-neighbor candidate returned by the index."""

    item_id: int
    distance: float


class LshIndex:
    """E2LSH index over 128-D descriptors with integer payload ids."""

    def __init__(
        self,
        params: E2LSHParams | None = None,
        seed: int = 0,
        max_probes_per_table: int = 2,
        max_bucket_size: int = 512,
    ) -> None:
        if max_probes_per_table < 0:
            raise ValueError("max_probes_per_table must be non-negative")
        if max_bucket_size < 1:
            raise ValueError("max_bucket_size must be >= 1")
        self.params = params or E2LSHParams()
        self.projections = StableProjections(self.params, seed=seed)
        self.max_probes_per_table = int(max_probes_per_table)
        # Overfull buckets hold near-duplicate content (e.g. a wallpaper
        # pattern repeated across a building); capping them bounds query
        # cost, as production E2LSH deployments do.  Dropped entries are
        # precisely the ones the ratio test would reject anyway.
        self.max_bucket_size = int(max_bucket_size)
        self._tables: list[dict[int, np.ndarray]] = [
            {} for _ in range(self.params.num_tables)
        ]
        # Amortized-growth row storage: descriptors/ids live in
        # capacity-doubling arrays so :meth:`insert` appends in O(batch)
        # instead of re-copying (and re-hashing) all history per batch.
        # Squared row norms (float64) feed the float32 Gram screen of
        # :meth:`query_batch`.
        self._store: np.ndarray | None = None
        self._ids_store: np.ndarray | None = None
        self._norms_store: np.ndarray | None = None
        self._size = 0

    @property
    def size(self) -> int:
        """Number of indexed descriptors."""
        return self._size

    def build(self, descriptors: np.ndarray, item_ids: np.ndarray) -> None:
        """(Re)build the index over ``descriptors`` with per-row payload ids."""
        self._tables = [{} for _ in range(self.params.num_tables)]
        self._store = None
        self._ids_store = None
        self._norms_store = None
        self._size = 0
        self.insert(descriptors, item_ids)

    def _grow_storage(self, extra_rows: int, dimension: int) -> None:
        needed = self._size + extra_rows
        if self._store is None:
            capacity = max(needed, 1024)
            self._store = np.empty((capacity, dimension), dtype=np.float32)
            self._ids_store = np.empty(capacity, dtype=np.int64)
            self._norms_store = np.empty(capacity, dtype=np.float64)
            return
        if self._store.shape[1] != dimension:
            raise ValueError(
                f"descriptor dimension {dimension} does not match "
                f"indexed dimension {self._store.shape[1]}"
            )
        if needed <= self._store.shape[0]:
            return
        capacity = max(needed, 2 * self._store.shape[0])
        grown = np.empty((capacity, self._store.shape[1]), dtype=np.float32)
        grown[: self._size] = self._store[: self._size]
        self._store = grown
        grown_ids = np.empty(capacity, dtype=np.int64)
        grown_ids[: self._size] = self._ids_store[: self._size]
        self._ids_store = grown_ids
        grown_norms = np.empty(capacity, dtype=np.float64)
        grown_norms[: self._size] = self._norms_store[: self._size]
        self._norms_store = grown_norms

    def insert(self, descriptors: np.ndarray, item_ids: np.ndarray) -> None:
        """Append descriptors incrementally — only the new batch is hashed.

        This is the "incorporated continuously, in constant time and
        memory" ingest path of the paper: per batch the cost is
        O(batch · L) hashing plus amortized-O(batch) row storage, versus
        the quadratic cost of rebuilding over all history each time.
        Bucket capping keeps first-inserted rows, matching what a
        one-shot :meth:`build` over the concatenated data produces.
        """
        descriptors = np.asarray(descriptors, dtype=np.float32)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        if item_ids.shape != (descriptors.shape[0],):
            raise ValueError(
                "item_ids must have one entry per descriptor, got "
                f"{item_ids.shape} for {descriptors.shape[0]} descriptors"
            )
        num_new = descriptors.shape[0]
        if num_new == 0:
            return
        start_row = self._size
        self._grow_storage(num_new, descriptors.shape[1])
        self._store[start_row : start_row + num_new] = descriptors
        self._ids_store[start_row : start_row + num_new] = item_ids
        self._norms_store[start_row : start_row + num_new] = (
            descriptors.astype(np.float64) ** 2
        ).sum(axis=1)
        self._size += num_new

        quantized = QuantizedBuckets(self.projections.quantize(descriptors))
        cap = self.max_bucket_size
        for table in range(self.params.num_tables):
            keys = quantized.table_keys(table)
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
            groups = np.split(order, boundaries)
            starts = np.concatenate(([0], boundaries))
            table_map = self._tables[table]
            for start, group in zip(starts, groups):
                key = int(sorted_keys[start])
                rows = (group + start_row).astype(np.int32)
                existing = table_map.get(key)
                if existing is None:
                    table_map[key] = rows[:cap]
                elif existing.size < cap:
                    table_map[key] = np.concatenate(
                        [existing, rows[: cap - existing.size]]
                    )

    def query(self, descriptor: np.ndarray, num_neighbors: int = 1) -> list[LshMatch]:
        """Approximate nearest neighbors of one descriptor.

        Returns up to ``num_neighbors`` matches ordered by exact distance;
        may return fewer (or none) when no bucket holds candidates — the
        defining failure mode E2LSH trades for speed.
        """
        descriptor = np.asarray(descriptor, dtype=np.float32).reshape(1, -1)
        return self.query_batch(descriptor, num_neighbors)[0]

    def query_batch(
        self, descriptors: np.ndarray, num_neighbors: int = 1
    ) -> list[list[LshMatch]]:
        """Query many descriptors; one (possibly empty) match list per row.

        Each list holds up to ``num_neighbors`` candidates ordered by
        (exact distance, database row), so the earliest-inserted row wins
        a tie.  The whole batch is looked up at once: every probe of every
        descriptor is hashed in one pass per table, a float32 Gram screen
        keeps only the candidate pairs that can reach a descriptor's top
        ``num_neighbors``, and those are re-ranked with exact float64
        distances (see :meth:`_shortlist`).
        """
        check_positive("num_neighbors", num_neighbors)
        if self._size == 0:
            raise RuntimeError("index is empty; call build() first")
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2:
            raise ValueError(f"descriptors must be 2-D, got {descriptors.shape}")
        queries, rows = self._candidate_pairs(descriptors)
        keep = self._shortlist(descriptors, queries, rows, num_neighbors)
        queries, rows = queries[keep], rows[keep]

        # Exact float64 re-rank: the returned distances are this
        # expression's, bit for bit, whichever pairs the screen kept.
        # Chunked so scratch stays bounded when near-ties keep many pairs.
        distances = np.empty(rows.size, dtype=np.float64)
        for start in range(0, rows.size, _RECHECK_CHUNK):
            part = slice(start, start + _RECHECK_CHUNK)
            deltas = self._store[rows[part]].astype(np.float64) - descriptors[
                queries[part]
            ].astype(np.float64)
            distances[part] = np.sqrt((deltas**2).sum(axis=1))
        order = np.lexsort((rows, distances, queries))
        item_ids = self._ids_store[rows]
        results: list[list[LshMatch]] = [[] for _ in range(descriptors.shape[0])]
        for query, item_id, distance in zip(
            queries[order].tolist(), item_ids[order].tolist(), distances[order].tolist()
        ):
            matches = results[query]
            if len(matches) < num_neighbors:
                matches.append(LshMatch(item_id=item_id, distance=distance))
        return results

    def _candidate_pairs(
        self, descriptors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``(query, row)`` candidate pairs, sorted by query then row.

        Per table, the multiprobe schedule of the whole batch is ranked
        and every probe hashed in one pass (the same helpers the oracle
        uses); only the bucket dictionary lookups run per probe.
        """
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        quantized = QuantizedBuckets(buckets)
        found: list[np.ndarray] = []
        for table, table_map in enumerate(self._tables):
            projections, deltas = ranked_perturbations(
                residuals[:, table, :], self.max_probes_per_table
            )
            keys = quantized.probe_keys(table, projections, deltas)
            found.extend(table_map.get(key, _NO_ROWS) for key in keys.ravel().tolist())
        # ``found`` is (table, query, probe)-ordered, one entry per probe.
        probes_per_query = keys.shape[1]
        owners = np.tile(
            np.repeat(np.arange(descriptors.shape[0]), probes_per_query),
            len(self._tables),
        )
        lengths = np.fromiter(map(len, found), np.int64, len(found))
        if not lengths.any():
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        queries = np.repeat(owners, lengths)
        codes = np.sort(queries * self._size + np.concatenate(found))
        distinct = np.empty(codes.size, dtype=bool)
        distinct[0] = True
        np.not_equal(codes[1:], codes[:-1], out=distinct[1:])
        return np.divmod(codes[distinct], self._size)

    def _shortlist(
        self,
        descriptors: np.ndarray,
        queries: np.ndarray,
        rows: np.ndarray,
        num_neighbors: int,
    ) -> np.ndarray:
        """Mask of the pairs that can be among a query's exact top ``num_neighbors``.

        A float32 Gram distance ``|x|^2 + |q|^2 - 2 x.q`` is off from the
        true squared distance by at most ``gamma_D (|x|^2 + |q|^2)``:
        any float32 dot of D terms errs by at most ``gamma_D sum|x_j q_j|``
        whatever the summation order (so whatever BLAS does), and
        ``sum|x_j q_j| <= (|x|^2 + |q|^2) / 2``.  A pair whose lower
        bound exceeds the query's k-th smallest upper bound is strictly
        farther than k other candidates, so dropping it cannot change the
        exact top k; the slack on the margin keeps that strict after the
        float64 re-rank rounds.  Pairs are ``(query, row)``-sorted, so
        each query's dots are one gather and one BLAS matrix-vector call.
        """
        if rows.size == 0:
            return np.ones(0, dtype=bool)
        starts = np.searchsorted(queries, np.arange(descriptors.shape[0] + 1))
        dots = np.empty(rows.size, dtype=np.float32)
        for query in np.flatnonzero(np.diff(starts)):
            part = slice(starts[query], starts[query + 1])
            np.matmul(
                np.take(self._store, rows[part], axis=0),
                descriptors[query],
                out=dots[part],
            )
        query_norms = (descriptors.astype(np.float64) ** 2).sum(axis=1)
        norms = self._norms_store[rows] + query_norms[queries]
        approx = norms - 2.0 * dots
        margin = _screen_margin(norms, descriptors.shape[1])
        threshold = _kth_smallest_per_query(
            approx + margin, queries, starts, num_neighbors
        )
        # Negated so a NaN bound keeps its pair for the exact re-rank.
        return ~(approx - margin > threshold[queries])

    def memory_bytes(self) -> int:
        """In-memory footprint: rows + L-fold bucket references.

        Each row costs its float32 descriptor, an 8-byte payload id and
        the 8-byte squared norm cached for the query screen.
        """
        total = sum(
            store[: self._size].nbytes
            for store in (self._store, self._ids_store, self._norms_store)
            if store is not None
        )
        for table_map in self._tables:
            # dict overhead approximated by key + pointer per entry.
            total += len(table_map) * 16
            total += sum(rows.nbytes for rows in table_map.values())
        return total

    def disk_bytes(self) -> int:
        """Serialized (uncompressed) footprint for Fig. 15's disk column."""
        return self.memory_bytes()
