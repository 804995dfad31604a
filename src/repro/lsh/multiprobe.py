"""Multiprobe perturbation schedules (Lv et al., VLDB 2007).

False negatives in E2LSH come from quantization boundaries: two nearby
descriptors can land in adjacent cells.  "Fortunately, the error can be
at most a single quantization bucket", so probing the +/-1 neighbor of
each projection coordinate — preferring the side the query's residual
says is closest — recovers most of those misses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["perturbation_sets", "ranked_perturbations"]


def perturbation_sets(
    residuals: np.ndarray, max_probes: int
) -> list[tuple[int, int]]:
    """Rank single-coordinate perturbations for one bucket vector.

    ``residuals`` is the ``(M,)`` within-cell position of each projection
    in ``[0, 1)``.  Returns up to ``max_probes`` ``(projection, delta)``
    pairs ordered by how close the query sits to that boundary: residual
    near 0 -> probe ``delta = -1`` first, near 1 -> ``delta = +1``.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim != 1:
        raise ValueError(f"residuals must be 1-D, got shape {residuals.shape}")
    if max_probes < 0:
        raise ValueError(f"max_probes must be non-negative, got {max_probes}")

    candidates: list[tuple[float, int, int]] = []
    for projection, residual in enumerate(residuals):
        # Distance to the lower boundary is the residual itself; to the
        # upper boundary, one minus it.  Smaller distance = likelier miss.
        candidates.append((float(residual), projection, -1))
        candidates.append((float(1.0 - residual), projection, +1))
    candidates.sort(key=lambda item: item[0])
    return [(projection, delta) for _, projection, delta in candidates[:max_probes]]


def ranked_perturbations(
    residuals: np.ndarray, max_probes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batch form of :func:`perturbation_sets` over ``(..., n, M)`` residuals.

    Returns ``(projections, deltas)``, both ``(..., n, P)`` with
    ``P = min(max_probes, 2M)``: row ``i`` holds the same
    ``(projection, delta)`` sequence ``perturbation_sets(residuals[i],
    max_probes)`` would produce, in the same order.  The candidate
    layout interleaves ``(p, -1)`` then ``(p, +1)`` per projection and
    the sort is stable, matching the scalar tie-breaking exactly.
    Leading axes (the LSH tables) rank independently.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    if residuals.ndim < 2:
        raise ValueError(
            f"residuals must be at least 2-D, got shape {residuals.shape}"
        )
    if max_probes < 0:
        raise ValueError(f"max_probes must be non-negative, got {max_probes}")
    m = residuals.shape[-1]
    num_probes = min(max_probes, 2 * m)
    if num_probes == 0:
        empty = np.empty(residuals.shape[:-1] + (0,), dtype=np.int64)
        return empty, empty.copy()
    distances = np.empty(residuals.shape[:-1] + (2 * m,), dtype=np.float64)
    distances[..., 0::2] = residuals  # (p, -1) candidates
    distances[..., 1::2] = 1.0 - residuals  # (p, +1) candidates
    order = np.argsort(distances, axis=-1, kind="stable")[..., :num_probes]
    projections = order >> 1
    deltas = np.where(order & 1 == 0, -1, +1).astype(np.int64)
    return projections.astype(np.int64), deltas
