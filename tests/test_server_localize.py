"""The server's localize path: match -> cluster -> solve glue and its spans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Fingerprint, VisualPrintConfig, VisualPrintServer
from repro.features.keypoint import KeypointSet
from repro.localization import largest_cluster
from repro.obs import MetricsRegistry, TraceCollector, use_collector


def _fingerprint(descriptors: np.ndarray, rng: np.random.Generator) -> Fingerprint:
    n = descriptors.shape[0]
    keypoints = KeypointSet(
        positions=rng.uniform(0, 256, (n, 2)).astype(np.float32),
        scales=np.ones(n, np.float32),
        orientations=np.zeros(n, np.float32),
        responses=np.ones(n, np.float32),
        descriptors=descriptors.astype(np.float32),
    )
    return Fingerprint(keypoints=keypoints, uniqueness_counts=np.ones(n, np.int64))


@pytest.fixture(scope="module")
def server(descriptors_1k) -> VisualPrintServer:
    """1,000 mappings: a dense scene around (5, 5, 1.5) and scattered rest."""
    rng = np.random.default_rng(8)
    positions = rng.uniform(0, 20, (1000, 3))
    positions[:400] = [5.0, 5.0, 1.5] + rng.normal(0, 1.0, (400, 3))
    server = VisualPrintServer(
        VisualPrintConfig(descriptor_capacity=20_000),
        bounds=(np.zeros(3), np.array([20.0, 20.0, 3.0])),
        registry=MetricsRegistry(),
    )
    # Repeated descriptors give keypoints several neighbours each.
    server.ingest(descriptors_1k, positions)
    server.ingest(descriptors_1k[:300], positions[600:900])
    return server


def _problem_by_loop(server: VisualPrintServer, fingerprint: Fingerprint):
    """The per-match Python loops the server glue replaced."""
    matches = server.lookup.query_batch(
        fingerprint.keypoints.descriptors,
        num_neighbors=server.config.nearest_neighbors_per_keypoint,
    )
    pixel_rows: list[int] = []
    point_rows: list[int] = []
    for row, row_matches in enumerate(matches):
        for match in row_matches:
            pixel_rows.append(row)
            point_rows.append(match.item_id)
    candidate_points = server.positions[point_rows]
    kept = largest_cluster(
        candidate_points,
        eps=server.config.cluster_radius,
        min_samples=server.config.min_cluster_size,
    )
    if kept.size < 3:
        kept = np.arange(candidate_points.shape[0])
    pixels = fingerprint.keypoints.positions
    seen: set[int] = set()
    final_pixels, final_points = [], []
    for index in kept:
        if pixel_rows[index] in seen:
            continue
        seen.add(pixel_rows[index])
        final_pixels.append(pixels[pixel_rows[index]])
        final_points.append(candidate_points[index])
    return np.array(final_pixels), np.array(final_points), len(point_rows), kept.size


@pytest.mark.parametrize("seed", range(6))
def test_problem_equals_the_loop(server, descriptors_1k, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    rows = rng.choice(1000, size=int(rng.integers(20, 120)), replace=False)
    noisy = descriptors_1k[rows] + rng.normal(0, 2.0, (rows.size, 128))
    fingerprint = _fingerprint(np.clip(noisy, 0, 255), rng)
    captured = []
    solve = server._localizer.solve

    def capture(problem):
        captured.append(problem)
        return solve(problem)

    monkeypatch.setattr(server._localizer, "solve", capture)
    answer = server.localize(fingerprint)
    pixels, points, matched, clustered = _problem_by_loop(server, fingerprint)
    (problem,) = captured
    for ours, theirs in ((problem.pixels, pixels), (problem.world_points, points)):
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()
    assert (answer.matched_points, answer.clustered_points) == (matched, clustered)


def test_localize_span_has_its_stages_in_order(server, descriptors_1k):
    rng = np.random.default_rng(1)
    fingerprint = _fingerprint(descriptors_1k[:80], rng)
    collector = TraceCollector()
    with use_collector(collector):
        server.localize(fingerprint)
    (root,) = collector.roots
    assert root.name == "localize"
    stages = root.children
    assert [span.name for span in stages] == [
        "localize.match",
        "localize.cluster",
        "localize.solve",
    ]
    previous_end = root.start_seconds
    for span in stages:
        assert span.parent_id == root.span_id and span.trace_id == root.trace_id
        assert previous_end <= span.start_seconds <= span.end_seconds <= root.end_seconds
        previous_end = span.end_seconds


def test_no_match_query_has_only_the_match_stage(server):
    fingerprint = _fingerprint(np.empty((0, 128)), np.random.default_rng(0))
    collector = TraceCollector()
    with use_collector(collector):
        answer = server.localize(fingerprint)
    assert answer.matched_points == 0
    assert [span.name for span in collector.roots[0].children] == ["localize.match"]
