"""The breadth-first DBSCAN, kept as a parity reference.

``repro.localization.clustering.dbscan_labels`` once expanded each
cluster with a Python breadth-first search over ``query_ball_point``
neighbourhoods.  It now labels the same clusters with whole-array passes
(neighbour pairs, connected components of the core points, a minimum
over each border point's adjacent clusters); this module keeps the
search so tests and ``benchmarks/bench_solver.py`` can compare the two.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["dbscan_labels_reference"]

NOISE = -1


def dbscan_labels_reference(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Classic DBSCAN over 3D points; returns a label per point (-1 noise)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels

    tree = cKDTree(points)
    neighborhoods = tree.query_ball_point(points, eps)
    is_core = np.array([len(nb) >= min_samples for nb in neighborhoods])

    cluster = 0
    visited = np.zeros(n, dtype=bool)
    for seed in range(n):
        if visited[seed] or not is_core[seed]:
            continue
        # Breadth-first expansion from this core point.
        queue = [seed]
        visited[seed] = True
        labels[seed] = cluster
        while queue:
            current = queue.pop()
            for neighbor in neighborhoods[current]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster
                if not visited[neighbor]:
                    visited[neighbor] = True
                    if is_core[neighbor]:
                        queue.append(neighbor)
        cluster += 1
    return labels
