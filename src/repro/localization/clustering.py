"""Spatial clustering of retrieved 3D points (DBSCAN, from scratch).

Wrong LSH matches scatter across the venue; correct matches concentrate
around the true scene.  Density clustering keeps "only those 3D points
in the largest cluster P, discarding others".
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["dbscan_labels", "largest_cluster"]

NOISE = -1


def dbscan_labels(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Classic DBSCAN over 3D points; returns a label per point (-1 noise).

    A point is a core point when at least ``min_samples`` points (itself
    included) lie within ``eps``.  Clusters are the connected components
    of the core points, numbered in order of their lowest core index; a
    non-core point within ``eps`` of a core point joins the
    lowest-numbered such cluster.  These are exactly the labels of the
    textbook breadth-first expansion seeded in index order, computed in
    whole-array passes: one neighbour-pair query, one graph-component
    pass and one minimum per border point.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError(f"points must be 2-D, got {points.shape}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_samples < 1:
        raise ValueError(f"min_samples must be >= 1, got {min_samples}")
    n = points.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    if n == 0:
        return labels

    pairs = cKDTree(points).query_pairs(eps, output_type="ndarray")
    first, second = pairs[:, 0], pairs[:, 1]
    is_core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_samples
    cores = np.flatnonzero(is_core)
    if cores.size == 0:
        return labels

    # Core-core components by minimum-label propagation with pointer
    # jumping: every core ends labelled with its component's lowest
    # core index, whatever order the edges come in.
    slot = np.cumsum(is_core) - 1
    linked = is_core[first] & is_core[second]
    ends = np.concatenate((slot[first[linked]], slot[second[linked]]))
    others = np.concatenate((slot[second[linked]], slot[first[linked]]))
    lowest = np.arange(cores.size)
    while True:
        merged = lowest.copy()
        np.minimum.at(merged, ends, lowest[others])
        merged = merged[merged]
        if np.array_equal(merged, lowest):
            break
        lowest = merged
    # Clusters are numbered in order of their lowest core index.
    is_root = lowest == np.arange(cores.size)
    count = int(np.count_nonzero(is_root))
    labels[cores] = (np.cumsum(is_root) - 1)[lowest]

    # Border points: the lowest-numbered cluster among adjacent cores.
    border = is_core[first] != is_core[second]
    core_end = np.where(is_core[first[border]], first[border], second[border])
    border_end = np.where(is_core[first[border]], second[border], first[border])
    nearest = np.full(n, count, dtype=np.int64)
    np.minimum.at(nearest, border_end, labels[core_end])
    reached = ~is_core & (nearest < count)
    labels[reached] = nearest[reached]
    return labels


def largest_cluster(
    points: np.ndarray, eps: float, min_samples: int = 4
) -> np.ndarray:
    """Indices of the most populous DBSCAN cluster (empty if only noise).

    A tie goes to the lowest cluster label.
    """
    labels = dbscan_labels(points, eps=eps, min_samples=min_samples)
    sizes = np.bincount(labels[labels != NOISE])
    if sizes.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(labels == np.argmax(sizes))
