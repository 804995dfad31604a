"""Unit + property tests for E2LSH projections, buckets, multiprobe, index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh import (
    E2LSHParams,
    LshIndex,
    LshMatch,
    QuantizedBuckets,
    StableProjections,
    perturbation_sets,
)
from repro.lsh.index import _kth_smallest_per_query
from tests.reference.lsh_query_reference import (
    candidate_rows_reference,
    query_batch_reference,
)


class TestE2LSHParams:
    def test_paper_defaults(self):
        params = E2LSHParams()
        assert (params.num_tables, params.num_projections) == (10, 7)
        assert params.quantization_width == 500.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            E2LSHParams(num_tables=0)


class TestStableProjections:
    def test_deterministic_from_seed(self, descriptors_1k):
        a = StableProjections(E2LSHParams(), seed=5).quantize(descriptors_1k[:10])
        b = StableProjections(E2LSHParams(), seed=5).quantize(descriptors_1k[:10])
        assert np.array_equal(a, b)

    def test_shapes(self, descriptors_1k):
        projections = StableProjections(E2LSHParams(num_tables=4, num_projections=3))
        buckets = projections.quantize(descriptors_1k[:20])
        assert buckets.shape == (20, 4, 3)

    def test_wrong_dimension_rejected(self):
        projections = StableProjections(E2LSHParams())
        with pytest.raises(ValueError):
            projections.project(np.zeros((3, 64)))

    def test_nearby_descriptors_share_buckets(self, descriptors_1k, rng):
        """The locality property: small perturbations rarely change buckets."""
        projections = StableProjections(E2LSHParams())
        base = descriptors_1k[:100]
        nearby = np.clip(base + rng.normal(0, 2, base.shape), 0, 255)
        buckets_a = projections.quantize(base)
        buckets_b = projections.quantize(nearby)
        same_bucket = (buckets_a == buckets_b).all(axis=2)  # per (n, L)
        assert same_bucket.mean() > 0.5

    def test_distant_descriptors_rarely_collide(self, descriptors_1k):
        projections = StableProjections(E2LSHParams())
        buckets = projections.quantize(descriptors_1k[:200])
        flat = buckets.reshape(200, -1)
        distinct = {tuple(row) for row in flat}
        assert len(distinct) > 190

    def test_residuals_in_unit_interval(self, descriptors_1k):
        projections = StableProjections(E2LSHParams())
        buckets, residuals = projections.quantize_with_residuals(descriptors_1k[:30])
        assert (residuals >= 0).all() and (residuals < 1).all()
        reconstructed = np.floor(
            projections.project(descriptors_1k[:30])
            / projections.params.quantization_width
        )
        assert np.array_equal(buckets, reconstructed.astype(np.int64))


class TestQuantizedBuckets:
    def test_encoding_injective_on_sign(self):
        buckets = QuantizedBuckets(np.array([[[-1, 0, 1]], [[1, 0, -1]]]))
        a = buckets.table_vectors(0)
        assert not np.array_equal(a[0], a[1])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QuantizedBuckets(np.full((1, 1, 1), 1 << 21))

    def test_table_keys_collide_for_equal_vectors(self):
        data = np.zeros((2, 2, 3), dtype=np.int64)
        buckets = QuantizedBuckets(data)
        keys = buckets.table_keys(0)
        assert keys[0] == keys[1]

    def test_perturbed_changes_one_coordinate(self):
        data = np.zeros((1, 2, 3), dtype=np.int64)
        buckets = QuantizedBuckets(data)
        original = buckets.table_vectors(1)[0]
        perturbed = buckets.perturbed(1, 2, +1)[0]
        assert perturbed[2] == original[2] + 1
        assert np.array_equal(perturbed[:2], original[:2])


class TestMultiprobe:
    def test_orders_by_boundary_distance(self):
        residuals = np.array([0.05, 0.5, 0.95])
        probes = perturbation_sets(residuals, max_probes=2)
        # Closest boundaries: dim 0 toward -1 (0.05), dim 2 toward +1 (0.05).
        assert set(probes) == {(0, -1), (2, +1)}

    def test_max_probes_respected(self):
        probes = perturbation_sets(np.array([0.1, 0.2]), max_probes=3)
        assert len(probes) == 3

    def test_zero_probes(self):
        assert perturbation_sets(np.array([0.5]), 0) == []

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=20)
    def test_probe_count_bounded(self, m):
        residuals = np.linspace(0.1, 0.9, m)
        assert len(perturbation_sets(residuals, 2 * m + 5)) == 2 * m


@pytest.fixture(scope="module")
def index_1k(descriptors_1k):
    idx = LshIndex(E2LSHParams(), seed=1)
    idx.build(descriptors_1k, np.arange(1000))
    return idx


class TestLshIndex:
    @pytest.fixture(scope="class")
    def index(self, index_1k):
        return index_1k

    def test_exact_self_query(self, index, descriptors_1k):
        matches = index.query(descriptors_1k[42], num_neighbors=1)
        assert matches and matches[0].item_id == 42
        assert matches[0].distance == pytest.approx(0.0, abs=1e-5)

    def test_noisy_query_recovers_neighbor(self, index, descriptors_1k, rng):
        hits = 0
        for row in range(50):
            noisy = np.clip(descriptors_1k[row] + rng.normal(0, 2, 128), 0, 255)
            matches = index.query(noisy, num_neighbors=1)
            hits += bool(matches) and matches[0].item_id == row
        assert hits >= 45  # multiprobe keeps recall high

    def test_query_batch_matches_single(self, index, descriptors_1k):
        batch = index.query_batch(descriptors_1k[:5], num_neighbors=2)
        for row, single in enumerate(descriptors_1k[:5]):
            assert [m.item_id for m in index.query(single, 2)] == [
                m.item_id for m in batch[row]
            ]

    def test_memory_exceeds_descriptor_bytes(self, index, descriptors_1k):
        # L-fold bucket replication: the Fig. 15 LSH overhead.
        assert index.memory_bytes() > descriptors_1k.astype(np.float32).nbytes

    def test_empty_index_raises(self, descriptors_1k):
        with pytest.raises(RuntimeError):
            LshIndex().query(descriptors_1k[0])

    def test_mismatched_ids_rejected(self, descriptors_1k):
        with pytest.raises(ValueError):
            LshIndex().build(descriptors_1k, np.arange(5))

    def test_bucket_cap_enforced(self, rng):
        # 500 identical descriptors must not make buckets of size 500.
        duplicated = np.tile(rng.integers(0, 255, 128).astype(np.float32), (500, 1))
        idx = LshIndex(E2LSHParams(num_tables=2), max_bucket_size=32)
        idx.build(duplicated, np.arange(500))
        keys = QuantizedBuckets(idx.projections.quantize(duplicated)).all_keys()
        for table, table_keys in enumerate(keys):
            assert all(
                len(idx._bucket_rows(table, int(key))) <= 32
                for key in np.unique(table_keys)
            )

    def test_payload_ids_returned(self, descriptors_1k):
        idx = LshIndex(E2LSHParams(num_tables=4), seed=2)
        ids = np.arange(1000) * 7  # arbitrary payload ids
        idx.build(descriptors_1k, ids)
        matches = idx.query(descriptors_1k[10])
        assert matches[0].item_id == 70


def _noisy_queries(database: np.ndarray, count: int, sigma: float, seed: int):
    """Float queries near database rows, the way re-sighted keypoints are."""
    rng = np.random.default_rng(seed)
    rows = rng.choice(database.shape[0], size=count, replace=False)
    noisy = database[rows] + rng.normal(0.0, sigma, (count, database.shape[1]))
    return np.clip(noisy, 0, 255).astype(np.float32)


def _brute_force_topk(index, queries, num_neighbors):
    """Exact top-k by (distance, row) over the reference candidate sets."""
    stored = index._store[: index.size]
    ids = index._ids_store[: index.size]
    results = []
    for query, rows in zip(queries, candidate_rows_reference(index, queries)):
        deltas = stored[rows].astype(np.float64) - query.astype(np.float64)
        distances = np.sqrt((deltas**2).sum(axis=1))
        order = np.lexsort((rows, distances))[:num_neighbors]
        results.append(
            [LshMatch(int(ids[rows[i]]), float(distances[i])) for i in order]
        )
    return results


class TestBatchedLookup:
    """The whole-batch lookup against the per-descriptor reference."""

    @pytest.fixture(scope="class")
    def database(self, descriptors_1k):
        # Near-duplicate rows (repeated motifs) give ties and near-ties.
        rng = np.random.default_rng(11)
        repeats = descriptors_1k[rng.integers(0, 1000, 200)]
        jittered = np.clip(repeats + rng.normal(0, 0.01, repeats.shape), 0, 255)
        return np.vstack([descriptors_1k, repeats, jittered]).astype(np.float32)

    @pytest.mark.parametrize("probes", [0, 1, 2, 3])
    def test_candidate_sets_match_reference(self, database, probes):
        index = LshIndex(seed=4, max_probes_per_table=probes)
        index.build(database, np.arange(database.shape[0]))
        queries = _noisy_queries(database, 80, sigma=3.0, seed=probes)
        queries_of, rows = index._candidate_pairs(queries)
        for query, reference in enumerate(candidate_rows_reference(index, queries)):
            assert np.array_equal(rows[queries_of == query], reference)

    @pytest.mark.parametrize("num_neighbors", [1, 2, 3])
    @pytest.mark.parametrize("probes", [0, 1, 2, 3])
    def test_parity_with_reference(self, database, probes, num_neighbors):
        index = LshIndex(seed=5, max_probes_per_table=probes, max_bucket_size=24)
        index.build(database, np.arange(database.shape[0]) * 3 + 1)
        queries = np.vstack(
            [_noisy_queries(database, 60, sigma=2.0, seed=7), database[990:1010]]
        )
        stored = index._store[: index.size]
        expected = query_batch_reference(index, queries, num_neighbors)
        actual = index.query_batch(queries, num_neighbors)
        candidates = candidate_rows_reference(index, queries)
        for query, rows, want, got in zip(queries, candidates, expected, actual):
            # Distances are bit-identical.
            assert [m.distance for m in got] == [m.distance for m in want]
            deltas = stored[rows].astype(np.float64) - query.astype(np.float64)
            all_distances = np.sqrt((deltas**2).sum(axis=1))
            for position, (w, g) in enumerate(zip(want, got)):
                tied = np.count_nonzero(all_distances == w.distance) > 1
                assert tied or w.item_id == g.item_id, position

    def test_float32_screen_keeps_near_ties(self):
        """Near-copies closer than float32 Gram rounding still rank exactly.

        Each query sits ~0.3 from eight non-integer copies of one base
        descriptor whose squared norm is ~4e6, so float32 dots err by more
        than the gaps between them; a screen without its error margin
        returns the wrong neighbours here.
        """
        rng = np.random.default_rng(0)
        base = rng.uniform(100, 255, (20, 128))
        copies = base[:, None, :] + rng.normal(0, 0.02, (20, 8, 128))
        database = copies.reshape(-1, 128).astype(np.float32)
        queries = (base + rng.normal(0, 0.02, base.shape)).astype(np.float32)
        index = LshIndex(E2LSHParams(num_tables=2), seed=0)
        index.build(database, np.arange(database.shape[0]))
        for num_neighbors in (1, 2, 3):
            assert index.query_batch(queries, num_neighbors) == query_batch_reference(
                index, queries, num_neighbors
            )

    def test_ties_go_to_the_lowest_row(self):
        """Four copies of one row among 300 near neighbours come back row-first.

        The per-descriptor lookup's default ``np.argsort`` returned these
        tied rows in scrambled order.
        """
        rng = np.random.default_rng(1)
        center = rng.uniform(50, 200, 128)
        database = (center + rng.normal(0, 1, (300, 128))).astype(np.float32)
        copies = np.array([38, 50, 229, 253])
        database[copies] = database[copies[0]]
        query = (database[38] + rng.normal(0, 0.5, 128)).astype(np.float32)
        ids = 1000 - np.arange(300)  # payload ids run backwards
        built = LshIndex(E2LSHParams(num_tables=3), seed=1)
        built.build(database, ids)
        incremental = LshIndex(E2LSHParams(num_tables=3), seed=1)
        for chunk in np.array_split(np.arange(300), 3):
            incremental.insert(database[chunk], ids[chunk])
        for index in (built, incremental):
            matches = index.query(query, num_neighbors=4)
            assert [m.item_id for m in matches] == list(1000 - copies)
            assert len({m.distance for m in matches}) == 1
            assert [m.item_id for m in index.query(query, 2)] == list(1000 - copies[:2])

    @pytest.mark.parametrize("cap", [3, 512])
    def test_incremental_insert_equals_build(self, database, cap):
        """Batches merged into the sorted tables give the tables of one build.

        The repeated and jittered rows share buckets, so at ``cap=3`` the
        cap drops rows, and it must keep the first-inserted ones.
        """
        ids = np.arange(database.shape[0]) * 5 + 2
        built = LshIndex(seed=6, max_probes_per_table=2, max_bucket_size=cap)
        built.build(database, ids)
        incremental = LshIndex(seed=6, max_probes_per_table=2, max_bucket_size=cap)
        for chunk in np.array_split(np.arange(database.shape[0]), [1, 250, 251, 900]):
            incremental.insert(database[chunk], ids[chunk])
        for ours, theirs in zip(incremental._tables, built._tables):
            for ours_part, theirs_part in zip(ours, theirs):
                np.testing.assert_array_equal(ours_part, theirs_part)
        if cap == 3:
            assert max(np.diff(table.offsets).max() for table in built._tables) == 3
        queries = np.vstack(
            [_noisy_queries(database, 40, sigma=2.0, seed=3), database[:10]]
        )
        assert incremental.query_batch(queries, 3) == built.query_batch(queries, 3)
        assert incremental.query_batch(queries, 3) == _brute_force_topk(
            incremental, queries, 3
        )
        assert incremental.memory_bytes() == built.memory_bytes()

    def test_bucket_rows_keep_insertion_order(self):
        duplicated = np.tile(np.arange(128, dtype=np.float32), (10, 1))
        index = LshIndex(E2LSHParams(num_tables=2), max_bucket_size=6)
        for chunk in (slice(0, 4), slice(4, 5), slice(5, 10)):
            index.insert(duplicated[chunk], np.arange(10)[chunk])
        quantized = QuantizedBuckets(index.projections.quantize(duplicated[:1]))
        key = int(quantized.all_keys()[1, 0])
        np.testing.assert_array_equal(index._bucket_rows(1, key), np.arange(6))
        assert index._bucket_rows(1, key ^ 1).size == 0

    def test_empty_batch(self, index_1k):
        assert index_1k.query_batch(np.empty((0, 128), np.float32), 2) == []

    def test_out_of_range_query_rejected(self, index_1k):
        # The +/-2^20 bucket range is checked, not wrapped, for queries too.
        with pytest.raises(ValueError):
            index_1k.query(np.full(128, 1e9, dtype=np.float32))

    def test_memory_counts_norm_cache(self, index_1k):
        # 8-byte key + 8-byte offset per bucket, a 4-byte row per entry.
        keys = QuantizedBuckets(
            index_1k.projections.quantize(index_1k._store[: index_1k.size])
        ).all_keys()
        bucket_bytes = 0
        for table_keys in keys:
            _, sizes = np.unique(table_keys, return_counts=True)
            held = np.minimum(sizes, index_1k.max_bucket_size)
            bucket_bytes += sizes.size * 16 + int(held.sum()) * 4
        per_row = 128 * 4 + 8 + 8  # descriptor, payload id, squared norm
        assert index_1k.memory_bytes() == bucket_bytes + index_1k.size * per_row

    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 120),
        levels=st.sampled_from([2, 4, 256]),
        jitter=st.sampled_from([0.0, 1e-3, 1.0]),
        num_neighbors=st.integers(1, 3),
        probes=st.integers(0, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_force_over_reference_candidates(
        self, seed, size, levels, jitter, num_neighbors, probes
    ):
        """Few value levels make exact ties; jitter makes near-ties."""
        rng = np.random.default_rng(seed)
        database = rng.integers(0, levels, (size, 128)) * (255 // max(levels - 1, 1))
        database = (database + rng.normal(0, jitter, database.shape)).astype(np.float32)
        queries = np.vstack(
            [database[rng.integers(0, size, 8)], rng.integers(0, 256, (4, 128))]
        )
        queries = (queries + rng.normal(0, jitter, queries.shape)).astype(np.float32)
        index = LshIndex(
            E2LSHParams(num_tables=4),
            seed=seed,
            max_probes_per_table=probes,
            max_bucket_size=16,
        )
        index.build(database, rng.permutation(size))
        assert index.query_batch(queries, num_neighbors) == _brute_force_topk(
            index, queries, num_neighbors
        )


class TestKthSmallestPerQuery:
    @given(
        counts=st.lists(st.integers(0, 12), min_size=1, max_size=6),
        k=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_kth_tightly(self, counts, k, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice([0.0, 1e-3, 1.0, 7.5, 1e6], size=sum(counts))
        values = values * rng.uniform(0.5, 2.0, values.size)
        queries = np.repeat(np.arange(len(counts)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)))
        threshold = _kth_smallest_per_query(values, queries, starts, k)
        for query, count in enumerate(counts):
            if count < k:
                assert threshold[query] == np.inf
                continue
            kth = np.sort(values[starts[query] : starts[query + 1]])[k - 1]
            assert kth <= threshold[query] <= kth * (1 + 1e-6)
