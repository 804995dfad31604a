"""Parallel-layer trajectory: pool fan-out and vectorized multiprobe.

Two before/after measurements, both asserted bit-identical:

* ``build_workload`` at ``workers=1`` versus ``workers=4`` — the pool
  speedup scales with physical cores (a 1-core host only measures pool
  overhead; see ``host_cpus`` in the emitted file).
* ``lookup_batch`` vectorized versus the retained scalar reference
  walk on a 500-descriptor batch — a pure single-core win.

Rows land in BENCH_parallel.json via ``conftest.pytest_sessionfinish``
so future PRs can track the perf curve.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import VisualPrintConfig
from repro.core.oracle import UniquenessOracle
from repro.evaluation.datasets import build_workload
from repro.util.rng import rng_for

# The scalar reference is test-only code; make ``tests`` importable when
# pytest is started without the repository root on ``sys.path``.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from tests.reference.oracle_reference import lookup_batch_reference  # noqa: E402

_POOL_WORKERS = 4


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_workload_build_parallel(parallel_trajectory, full_scale):
    if full_scale:
        params = dict(
            seed=13, num_scenes=20, num_distractors=60, views_per_scene=3,
            image_size=256, cache_dir=None,
        )
    else:
        params = dict(
            seed=13, num_scenes=5, num_distractors=10, views_per_scene=2,
            image_size=160, cache_dir=None,
        )

    serial, serial_seconds = _timed(lambda: build_workload(**params, workers=1))
    pooled, pooled_seconds = _timed(
        lambda: build_workload(**params, workers=_POOL_WORKERS)
    )

    assert serial.database_labels == pooled.database_labels
    assert serial.query_labels == pooled.query_labels
    for a, b in zip(
        serial.database_keypoints + serial.query_keypoints,
        pooled.database_keypoints + pooled.query_keypoints,
    ):
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.positions, b.positions)

    parallel_trajectory["workload_build"] = {
        "images": serial.num_database_images + serial.num_queries,
        "workers": _POOL_WORKERS,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(pooled_seconds, 4),
        "speedup": round(serial_seconds / max(pooled_seconds, 1e-9), 2),
        "bit_identical": True,
    }


def test_lookup_batch_vectorized(parallel_trajectory):
    config = VisualPrintConfig()
    oracle = UniquenessOracle(config)
    database = rng_for(31, "bench-lookup-db").normal(0, 30, size=(5000, 128))
    oracle.insert(database.astype(np.float32))

    rng = rng_for(32, "bench-lookup-q")
    queries = np.concatenate(
        [
            database[:250] + rng.normal(0, 5, size=(250, 128)),
            rng.normal(0, 30, size=(250, 128)),
        ]
    ).astype(np.float32)

    scalar, scalar_seconds = _timed(lambda: lookup_batch_reference(oracle, queries))
    vectorized, vectorized_seconds = _timed(lambda: oracle.lookup_batch(queries))

    assert vectorized == scalar

    parallel_trajectory["lookup_batch"] = {
        "descriptors": queries.shape[0],
        "scalar_seconds": round(scalar_seconds, 4),
        "vectorized_seconds": round(vectorized_seconds, 4),
        "speedup": round(scalar_seconds / max(vectorized_seconds, 1e-9), 2),
        "bit_identical": True,
    }
