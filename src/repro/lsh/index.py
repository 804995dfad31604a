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
from typing import NamedTuple

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


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    heads = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


class _SortedTable(NamedTuple):
    """One hash table's buckets, CSR style.

    ``keys`` are the distinct bucket keys in ascending order; bucket ``b``
    holds ``rows[offsets[b]:offsets[b + 1]]`` in insertion order.
    """

    keys: np.ndarray  # (buckets,) uint64
    offsets: np.ndarray  # (buckets + 1,) int64
    rows: np.ndarray  # (entries,) int32

    @classmethod
    def empty(cls) -> "_SortedTable":
        return cls(
            np.empty(0, dtype=np.uint64), np.zeros(1, dtype=np.int64), _NO_ROWS
        )

    def merged(self, keys: np.ndarray, rows: np.ndarray, cap: int) -> "_SortedTable":
        """This table with ``rows`` (ascending) added under ``keys``.

        Within a bucket the existing rows stay first and the new ones
        follow in order, up to ``cap`` per bucket, so the first-inserted
        rows are the ones kept.  One sort of the batch plus one O(N)
        merge pass over the table.
        """
        order = np.argsort(keys, kind="stable")
        keys, rows = keys[order], rows[order]
        # Each new entry's rank within its key, against the room its
        # bucket has left: entries past the cap are dropped.
        position = np.arange(keys.size)
        rank = position - np.maximum.accumulate(np.where(_run_heads(keys), position, 0))
        sizes = np.diff(self.offsets)
        held = np.zeros(keys.size, dtype=np.int64)
        if self.keys.size:
            where = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
            held = np.where(self.keys[where] == keys, sizes[where], 0)
        keep = rank < cap - held
        keys, rows = keys[keep], rows[keep]
        # Merge at entry level: each new entry goes after every existing
        # entry with a key <= its own, and after the new entries before it.
        entry_keys = np.repeat(self.keys, sizes)
        slots = np.searchsorted(entry_keys, keys, side="right") + np.arange(keys.size)
        is_old = np.ones(entry_keys.size + keys.size, dtype=bool)
        is_old[slots] = False
        merged_keys = np.empty(is_old.size, dtype=np.uint64)
        merged_rows = np.empty(is_old.size, dtype=np.int32)
        merged_keys[slots], merged_rows[slots] = keys, rows
        merged_keys[is_old], merged_rows[is_old] = entry_keys, self.rows
        heads = np.flatnonzero(_run_heads(merged_keys))
        return _SortedTable(
            merged_keys[heads], np.append(heads, merged_keys.size), merged_rows
        )


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
        self._tables = [_SortedTable.empty() for _ in range(self.params.num_tables)]
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
        self._tables = [_SortedTable.empty() for _ in range(self.params.num_tables)]
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

        Per batch, hashing is O(batch · L) (one Murmur-3 pass over every
        table) and row storage is amortized O(batch), so history is never
        re-hashed.  Merging the batch into the sorted-key tables, though,
        rewrites each table's arrays: O(N · L) copying for an index of
        N rows.  That is cheap next to hashing for wardrive-sized
        batches; a stream of tiny inserts into a large index pays it per
        call.  Within a bucket existing rows stay first and capping keeps
        the first-inserted rows, so any sequence of inserts gives the
        tables a one-shot :meth:`build` over the concatenated data
        produces.
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

        keys = QuantizedBuckets(self.projections.quantize(descriptors)).all_keys()
        rows = np.arange(start_row, start_row + num_new, dtype=np.int32)
        self._tables = [
            table.merged(table_keys, rows, self.max_bucket_size)
            for table, table_keys in zip(self._tables, keys)
        ]

    def _bucket_rows(self, table: int, key: int) -> np.ndarray:
        """Rows stored under ``key`` in ``table``, in insertion order."""
        sorted_table = self._tables[table]
        where = int(np.searchsorted(sorted_table.keys, np.uint64(key)))
        if where == sorted_table.keys.size or sorted_table.keys[where] != key:
            return _NO_ROWS
        offsets = sorted_table.offsets
        return sorted_table.rows[offsets[where] : offsets[where + 1]]

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

        The multiprobe schedule of the whole batch is ranked and every
        probe of every table hashed in one pass (the same helpers the
        oracle uses); each table then resolves all its probe keys with
        one ``searchsorted`` and expands the matched buckets' row ranges
        without a Python loop.
        """
        buckets, residuals = self.projections.quantize_with_residuals(descriptors)
        projections, deltas = ranked_perturbations(
            residuals.transpose(1, 0, 2), self.max_probes_per_table
        )
        keys = QuantizedBuckets(buckets).probe_keys(projections, deltas)
        probes_per_query = keys.shape[2]
        found_queries: list[np.ndarray] = []
        found_rows: list[np.ndarray] = []
        for table, table_keys in zip(self._tables, keys):
            if table.keys.size == 0:
                continue
            probe_keys = table_keys.ravel()  # (query, probe) order
            where = np.searchsorted(table.keys, probe_keys)
            np.minimum(where, table.keys.size - 1, out=where)
            hit = np.flatnonzero(table.keys[where] == probe_keys)
            starts = table.offsets[where[hit]]
            lengths = table.offsets[where[hit] + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                continue
            # Entry e of probe h reads rows[starts[h] + e].
            ends = np.cumsum(lengths)
            positions = np.arange(total) + np.repeat(starts - (ends - lengths), lengths)
            found_rows.append(table.rows[positions])
            found_queries.append(np.repeat(hit // probes_per_query, lengths))
        if not found_rows:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        queries = np.concatenate(found_queries)
        codes = np.sort(queries * self._size + np.concatenate(found_rows))
        return np.divmod(codes[_run_heads(codes)], self._size)

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
        for table in self._tables:
            # An 8-byte key and an 8-byte offset per bucket, 4 bytes per row.
            total += table.keys.size * 16 + table.rows.nbytes
        return total

    def disk_bytes(self) -> int:
        """Serialized (uncompressed) footprint for Fig. 15's disk column."""
        return self.memory_bytes()
