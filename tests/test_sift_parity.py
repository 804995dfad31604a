"""Equivalence suite: batched hot paths vs their retained scalar references.

PR 7 rewrote the client hot path (batched SIFT kernels, zero-copy
serialization, packed bloom counters) while keeping the original scalar
implementations as ``*_reference`` methods.  These tests pin the
contract:

* Gaussian/DoG pyramids: bit-identical (same scipy kernels, same op
  order).
* SIFT geometry (positions, scales, orientations, responses):
  bit-identical — every discontinuous decision (extremum, refine,
  edge reject, histogram peak) runs in the reference float64 op order.
* SIFT descriptors: equal within ±1 integer step.  The batched
  descriptor path does its orientation-bin arithmetic in float32; the
  descriptor is continuous in the orientation bin, so reassociation
  shifts a sample's soft-binned weight by at most one quantization
  step after the 0..255 integerization (see DESIGN.md §12).
* Serialization: ``serialize_keypoints_into`` is byte-for-byte
  ``serialize_keypoints``, and ``serialized_size`` prices it exactly.
* Packed counters and multiseed murmur: identical to the unpacked /
  per-seed formulations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import CountingBloomFilter
from repro.core.fingerprint import Fingerprint
from repro.features.gaussian import DogPyramid, GaussianPyramid
from repro.features.keypoint import DESCRIPTOR_DIM, KeypointSet
from repro.features.serialize import (
    serialize_keypoints,
    serialize_keypoints_into,
    serialized_size,
)
from repro.features.sift import SiftExtractor, SiftParams
from repro.hashing.families import Murmur3Family, stacked_indices
from repro.hashing.murmur3 import murmur3_32_vectors, murmur3_32_vectors_multiseed
from repro.imaging import value_noise_texture
from repro.obs import MetricsRegistry
from repro.util.rng import rng_for
from tests.reference.oracle_reference import indices_reference


def textured(height: int, width: int, seed: int) -> np.ndarray:
    """A deterministic textured frame that actually yields keypoints."""
    return value_noise_texture((height, width), rng_for(seed, "parity"))


def assert_extract_parity(image: np.ndarray, params: SiftParams | None = None):
    extractor = SiftExtractor(params or SiftParams())
    fast = extractor.extract(image)
    ref = extractor.extract_reference(image)
    assert len(fast) == len(ref)
    np.testing.assert_array_equal(fast.positions, ref.positions)
    np.testing.assert_array_equal(fast.scales, ref.scales)
    np.testing.assert_array_equal(fast.orientations, ref.orientations)
    np.testing.assert_array_equal(fast.responses, ref.responses)
    if len(fast):
        diff = np.abs(fast.descriptors - ref.descriptors)
        assert diff.max() <= 1.0, f"descriptor diff {diff.max()} exceeds ±1"
    return fast


class TestPyramidParity:
    def test_gaussian_build_bit_identical(self):
        image = textured(64, 64, 1)
        fast = GaussianPyramid.build(image)
        ref = GaussianPyramid.build_reference(image)
        assert len(fast.octaves) == len(ref.octaves)
        for a, b in zip(fast.octaves, ref.octaves):
            np.testing.assert_array_equal(a, b)

    def test_dog_scratch_matches_fresh(self):
        image = textured(48, 64, 2)
        pyramid = GaussianPyramid.build(image)
        fresh = DogPyramid.from_gaussian(pyramid)
        scratch: dict = {}
        reused = DogPyramid.from_gaussian(pyramid, scratch=scratch)
        for a, b in zip(fresh.octaves, reused.octaves):
            np.testing.assert_array_equal(a, b)

    def test_dog_scratch_reuse_across_frames(self):
        scratch: dict = {}
        for seed in (3, 4):
            image = textured(48, 48, seed)
            pyramid = GaussianPyramid.build(image)
            fresh = DogPyramid.from_gaussian(pyramid)
            reused = DogPyramid.from_gaussian(pyramid, scratch=scratch)
            for a, b in zip(fresh.octaves, reused.octaves):
                np.testing.assert_array_equal(a, b)


class TestSiftParity:
    @given(
        height=st.sampled_from([16, 24, 32, 48]),
        width=st.sampled_from([16, 32, 40]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=12, deadline=None)
    def test_batched_matches_reference(self, height, width, seed):
        assert_extract_parity(textured(height, width, seed))

    def test_tiny_16x16_octave(self):
        # The oversized-orientation-window shape: deep levels whose
        # smoothing radius exceeds the frame.
        assert_extract_parity(textured(16, 16, 9))

    def test_dense_frame(self):
        # A larger frame with hundreds of keypoints: exercises the
        # multi-octave batched paths at realistic density.
        fast = assert_extract_parity(
            textured(96, 96, 11), SiftParams(contrast_threshold=0.01)
        )
        assert len(fast) > 20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_dtypes_agree(self, dtype):
        image = textured(32, 32, 13)
        extractor = SiftExtractor(SiftParams())
        out = extractor.extract(image.astype(dtype))
        baseline = extractor.extract(image.astype(np.float32))
        np.testing.assert_array_equal(out.positions, baseline.positions)
        np.testing.assert_array_equal(out.descriptors, baseline.descriptors)

    def test_dropped_candidates_counted(self):
        registry = MetricsRegistry()
        extractor = SiftExtractor(SiftParams(), registry=registry)
        image = textured(16, 16, 3)
        pyramid = GaussianPyramid.build(
            image,
            scales_per_octave=extractor.params.scales_per_octave,
            base_sigma=extractor.params.base_sigma,
        )
        candidates = np.array([[4.0, 8.0, 8.0, 0.05]])
        oriented = extractor._assign_orientations(pyramid, 0, candidates)
        assert oriented.shape == (0, 5)
        assert registry.counter("sift_candidates_dropped_total").value == 1.0


def keypoint_set(count: int, seed: int) -> KeypointSet:
    rng = rng_for(seed, "kps")
    return KeypointSet(
        positions=rng.uniform(0, 512, (count, 2)).astype(np.float32),
        scales=rng.uniform(1, 8, count).astype(np.float32),
        orientations=rng.uniform(-np.pi, np.pi, count).astype(np.float32),
        responses=rng.uniform(0, 1, count).astype(np.float32),
        descriptors=rng.uniform(0, 255, (count, DESCRIPTOR_DIM)).astype(np.float32),
    )


class TestSerializeInto:
    @given(count=st.integers(0, 40), seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_byte_identical_and_sized(self, count, seed):
        keypoints = keypoint_set(count, seed)
        reference = serialize_keypoints(keypoints)
        assert serialized_size(count) == len(reference)
        buffer = bytearray()
        size = serialize_keypoints_into(keypoints, buffer)
        assert size == len(reference)
        assert bytes(buffer[:size]) == reference

    def test_empty_and_single(self):
        for count in (0, 1):
            keypoints = keypoint_set(count, count)
            buffer = bytearray()
            size = serialize_keypoints_into(keypoints, buffer)
            assert bytes(buffer[:size]) == serialize_keypoints(keypoints)
            assert size == serialized_size(count)

    def test_buffer_reuse_shrinking(self):
        # A big payload then a small one into the same buffer: the
        # prefix must be the small payload exactly (stale tail ignored).
        big, small = keypoint_set(30, 1), keypoint_set(5, 2)
        buffer = bytearray()
        serialize_keypoints_into(big, buffer)
        size = serialize_keypoints_into(small, buffer)
        assert bytes(buffer[:size]) == serialize_keypoints(small)
        assert len(buffer) == serialized_size(30)  # high-water mark kept

    def test_scratch_reuse(self):
        keypoints = keypoint_set(12, 3)
        scratch = np.empty((12, DESCRIPTOR_DIM), dtype=np.float32)
        buffer = bytearray()
        size = serialize_keypoints_into(keypoints, buffer, scratch=scratch)
        assert bytes(buffer[:size]) == serialize_keypoints(keypoints)

    def test_fingerprint_upload_bytes_is_exact(self):
        for count in (0, 1, 17):
            keypoints = keypoint_set(count, count)
            fingerprint = Fingerprint(
                keypoints=keypoints,
                uniqueness_counts=np.zeros(count, dtype=np.int64),
            )
            assert fingerprint.upload_bytes == len(fingerprint.to_bytes())

    def test_truncate_is_view_and_serializes_identically(self):
        fingerprint = Fingerprint(
            keypoints=keypoint_set(20, 5),
            uniqueness_counts=np.arange(20, dtype=np.int64),
        )
        truncated = fingerprint.truncate(8)
        assert truncated.keypoints.descriptors.base is (
            fingerprint.keypoints.descriptors
        )
        assert truncated.to_bytes() == serialize_keypoints(
            fingerprint.keypoints.select(np.arange(8))
        )


class TestPackedCounters:
    @given(
        indices=st.lists(st.integers(0, 499), min_size=1, max_size=60),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_set_at_matches_fancy_assignment(self, indices, seed):
        cbf = CountingBloomFilter(num_counters=500, num_hashes=3)
        rng = rng_for(seed, "packed")
        idx = np.array(indices, dtype=np.int64)
        values = rng.integers(0, cbf.saturation + 1, idx.size)
        expected = np.zeros(500, dtype=np.uint16)
        expected[idx] = values  # duplicate indices: last value wins
        cbf.set_at(idx, values)
        np.testing.assert_array_equal(cbf.counters, expected)
        np.testing.assert_array_equal(cbf.gather(idx), expected[idx])

    @given(seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_bump_matches_unpacked_accumulation(self, seed):
        cbf = CountingBloomFilter(num_counters=256, num_hashes=3)
        rng = rng_for(seed, "bump")
        flat = rng.integers(0, 256, 400)
        cbf.bump_counters(flat)
        expected = np.minimum(
            np.bincount(flat, minlength=256), cbf.saturation
        ).astype(np.uint16)
        np.testing.assert_array_equal(cbf.counters, expected)

    def test_packed_bytes_roundtrip(self):
        cbf = CountingBloomFilter(num_counters=300, num_hashes=4, seed=7)
        rng = rng_for(1, "wire")
        cbf.counters = rng.integers(0, cbf.saturation + 1, 300).astype(np.uint16)
        clone = CountingBloomFilter.from_packed_bytes(
            cbf.packed_bytes(), num_counters=300, num_hashes=4, seed=7
        )
        np.testing.assert_array_equal(clone.counters, cbf.counters)


class TestMultiseedMurmur:
    @given(
        rows=st.integers(1, 12),
        dims=st.integers(1, 16),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=20, deadline=None)
    def test_multiseed_matches_per_seed_loop(self, rows, dims, seed):
        rng = rng_for(seed, "murmur")
        blocks = rng.integers(0, 2**32, (rows, dims), dtype=np.uint32)
        seeds = rng.integers(0, 2**32, 4, dtype=np.uint32)
        batched = murmur3_32_vectors_multiseed(blocks, seeds)
        looped = np.stack(
            [murmur3_32_vectors(blocks, int(s)) for s in seeds], axis=0
        )
        np.testing.assert_array_equal(batched, looped)

    @given(
        tables=st.integers(1, 6),
        rows=st.integers(0, 12),
        dims=st.integers(1, 9),
        hashes=st.integers(1, 5),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_tables_pass_matches_per_table_calls(
        self, tables, rows, dims, hashes, seed
    ):
        rng = rng_for(seed, "murmur-tables")
        blocks = rng.integers(0, 2**32, (tables, rows, dims), dtype=np.uint32)
        seeds = rng.integers(0, 2**33, (tables, hashes))
        stacked = murmur3_32_vectors_multiseed(blocks, seeds)
        assert stacked.shape == (tables, hashes, rows)
        for table in range(tables):
            np.testing.assert_array_equal(
                stacked[table], murmur3_32_vectors_multiseed(blocks[table], seeds[table])
            )

    def test_stacked_family_indices_match_per_family(self):
        rng = rng_for(4, "murmur-families")
        families = [
            Murmur3Family(num_hashes=4, table_size=1_000_003, base_seed=1000 + 4 * t)
            for t in range(10)
        ]
        vectors = rng.integers(0, 2**21, (10, 37, 7), dtype=np.uint32)
        stacked = stacked_indices(families, vectors)
        for table, family in enumerate(families):
            expected = indices_reference(family, vectors[table])
            np.testing.assert_array_equal(stacked[table], expected)
            np.testing.assert_array_equal(family.indices(vectors[table]), expected)

    @pytest.mark.parametrize("shape", [(1, 7), (1, 1, 7), (3, 1, 1), (2, 5, 7)])
    def test_input_blocks_left_unchanged(self, shape):
        # A single row's word-major view is already contiguous; hashing
        # must still work on a copy of it.
        blocks = rng_for(9, "murmur-input").integers(0, 2**32, shape, dtype=np.uint32)
        before = blocks.copy()
        seeds = np.arange(4 * shape[0]).reshape(shape[0], 4)
        if blocks.ndim == 2:
            seeds = np.arange(4)
        first = murmur3_32_vectors_multiseed(blocks, seeds)
        np.testing.assert_array_equal(blocks, before)
        np.testing.assert_array_equal(murmur3_32_vectors_multiseed(blocks, seeds), first)

    def test_seed_shape_mismatch_rejected(self):
        blocks = np.zeros((3, 2, 4), dtype=np.uint32)
        with pytest.raises(ValueError):
            murmur3_32_vectors_multiseed(blocks, np.zeros((2, 4), dtype=np.int64))

