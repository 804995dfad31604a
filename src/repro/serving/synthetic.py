"""Synthetic venues and queries for driving the serving layer.

One builder each for the miniature fleets that ``repro serve
--bootstrap``, :func:`repro.loadgen.calibrate_service_seconds` and the
serving benchmark stand up: a venue is random SIFT descriptors at
random 3D positions in a 10 x 10 x 3 m room, and a query draws its
descriptors from the venue's own store.  Both consume the caller's rng
in a fixed order, so a caller's seeded stream fixes every output.
"""

from __future__ import annotations

import numpy as np

from repro.core import Fingerprint, VisualPrintConfig, VisualPrintServer
from repro.features.keypoint import KeypointSet
from repro.wardrive.environment import random_sift_descriptor

__all__ = ["synthetic_query", "synthetic_venue"]


def synthetic_venue(
    rng: np.random.Generator,
    num_descriptors: int,
    descriptor_capacity: int = 4096,
) -> VisualPrintServer:
    """A wardriven-in-miniature venue server with ``num_descriptors`` points."""
    server = VisualPrintServer(
        VisualPrintConfig(
            descriptor_capacity=descriptor_capacity, fingerprint_size=10
        ),
        bounds=(np.zeros(3), np.array([10.0, 10.0, 3.0])),
    )
    descriptors = np.array(
        [random_sift_descriptor(rng) for _ in range(num_descriptors)]
    )
    server.ingest(descriptors, rng.uniform(0.0, 10.0, (num_descriptors, 3)))
    return server


def synthetic_query(
    server: VisualPrintServer, rng: np.random.Generator, size: int = 24
) -> Fingerprint:
    """A localization query drawn from a venue's own stored descriptors."""
    take = rng.choice(
        server.num_mappings, size=min(size, server.num_mappings), replace=False
    )
    descriptors = server.descriptors[np.sort(take)]
    n = descriptors.shape[0]
    keypoints = KeypointSet(
        positions=rng.uniform(50.0, 590.0, size=(n, 2)).astype(np.float32),
        scales=np.ones(n, np.float32),
        orientations=np.zeros(n, np.float32),
        responses=np.ones(n, np.float32),
        descriptors=descriptors.astype(np.float32),
    )
    return Fingerprint(
        keypoints=keypoints, uniqueness_counts=np.zeros(n, dtype=np.int64)
    )
