"""Server LSH lookup: per-descriptor reference vs the batched ``query_batch``.

``LshIndex.query_batch`` used to hash every probe of every descriptor in
its own Murmur-3 call and re-rank each descriptor's whole candidate set
in float64.  It now collects the candidate pairs of the whole batch at
once, screens them with float32 Gram distances and re-ranks only the
shortlist exactly.  This benchmark times both on two seeded indexes:

* ``camera_like`` — SIFT of a rendered scene library (~22k rows), queried
  with 60 descriptors of each query view and ``k = 2``, as scene matching
  does;
* ``venue_like`` — noisy sightings of an office venue's landmarks
  (~13k rows), queried with 60 fresh sightings and ``k = 3``, as the
  server's localization lookup does.

It also records the candidate pairs per descriptor and the share of them
the screen sends to the exact re-rank.

The ``sorted_tables`` row times the candidate collection alone on the
venue-like index: the sorted-key (CSR) tables, one ``searchsorted`` per
table over every probe key, against the ``{key: rows}`` dictionaries the
index used to keep, one lookup per probe.  It checks both find the same
pairs and records the tables' size and what an incremental insert costs.

Rows land in BENCH_lsh.json via ``conftest.pytest_sessionfinish``.  Run from
the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_lsh.py -q -s
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.core import VisualPrintConfig
from repro.features import SiftExtractor, SiftParams
from repro.imaging.synth import SceneLibrary
from repro.lsh import LshIndex
from repro.parallel import default_workers
from repro.wardrive import IndoorEnvironment

# The reference is test-only code; make ``tests`` importable when pytest
# is started without the repository root on ``sys.path``.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from tests.reference.lsh_query_reference import (  # noqa: E402
    candidate_pairs_dict_reference,
    dict_tables,
    query_batch_reference,
)

_BATCH = 60
_REPEATS = 3


def _camera_like() -> tuple[LshIndex, list[np.ndarray]]:
    library = SceneLibrary(
        seed=5, size=(224, 224), num_scenes=10, num_distractors=30, views_per_scene=2
    )
    extractor = SiftExtractor(SiftParams(contrast_threshold=0.008))
    images = [library.scene(i) for i in range(library.num_scenes)] + [
        library.distractor(i) for i in range(library.num_distractors)
    ]
    database = np.vstack([extractor.extract(image).descriptors for image in images])
    index = LshIndex()
    index.build(database, np.arange(database.shape[0]))
    rng = np.random.default_rng(5)
    batches = []
    for scene in range(library.num_scenes):
        for view in range(library.views_per_scene):
            found = extractor.extract(library.query_view(scene, view)).descriptors
            picked = rng.permutation(found.shape[0])[:_BATCH]
            batches.append(found[np.sort(picked)])
    return index, batches


def _venue_like() -> tuple[LshIndex, list[np.ndarray]]:
    landmarks = IndoorEnvironment.build("office", seed=3).descriptors
    rng = np.random.default_rng(3)

    def sightings(rows: np.ndarray) -> np.ndarray:
        noisy = landmarks[rows] + rng.normal(0.0, 3.0, (rows.size, 128))
        return np.clip(noisy, 0, 255).astype(np.float32)

    rows = np.repeat(np.arange(landmarks.shape[0]), 5)
    config = VisualPrintConfig()
    index = LshIndex(
        params=config.lsh,
        seed=config.seed + 7,
        max_probes_per_table=config.max_probes_per_table,
    )
    index.build(sightings(rows), rows)
    batches = [
        sightings(rng.choice(landmarks.shape[0], size=_BATCH, replace=False))
        for _ in range(20)
    ]
    return index, batches


def _time(lookup, batches) -> np.ndarray:
    """Per-batch wall milliseconds over ``_REPEATS`` passes."""
    lookup(batches[0])  # warm imports and caches
    seconds = []
    for _ in range(_REPEATS):
        for batch in batches:
            start = time.perf_counter()
            lookup(batch)
            seconds.append(time.perf_counter() - start)
    return np.array(seconds) * 1e3


def _row(index: LshIndex, batches: list[np.ndarray], num_neighbors: int) -> dict:
    pairs = shortlisted = descriptors = 0
    for batch in batches:
        # Same answers; ids may differ only in the order of exactly tied
        # neighbours, which tests/test_lsh.py checks in full.
        new = index.query_batch(batch, num_neighbors)
        ref = query_batch_reference(index, batch, num_neighbors)
        assert [[m.distance for m in row] for row in new] == [
            [m.distance for m in row] for row in ref
        ]
        queries, rows = index._candidate_pairs(batch)
        pairs += rows.size
        shortlisted += int(index._shortlist(batch, queries, rows, num_neighbors).sum())
        descriptors += batch.shape[0]
    ref_ms = _time(lambda b: query_batch_reference(index, b, num_neighbors), batches)
    new_ms = _time(lambda b: index.query_batch(b, num_neighbors), batches)
    return {
        "index_rows": index.size,
        "batches": len(batches),
        "descriptors_per_batch": round(descriptors / len(batches), 1),
        "num_neighbors": num_neighbors,
        "candidates_per_descriptor": round(pairs / descriptors, 1),
        "shortlist_frac": round(shortlisted / pairs, 5),
        "reference_ms_p50": round(float(np.median(ref_ms)), 2),
        "reference_ms_p90": round(float(np.percentile(ref_ms, 90)), 2),
        "batched_ms_p50": round(float(np.median(new_ms)), 2),
        "batched_ms_p90": round(float(np.percentile(new_ms, 90)), 2),
        "speedup_p50": round(float(np.median(ref_ms) / np.median(new_ms)), 2),
        "numpy": np.__version__,
        "host_cpus": default_workers(),
    }


def test_lookup_camera_like(lsh_trajectory):
    index, batches = _camera_like()
    row = _row(index, batches, num_neighbors=2)
    lsh_trajectory["camera_like_k2"] = row
    print(f"\ncamera_like: {row}")


def test_lookup_venue_like(lsh_trajectory):
    index, batches = _venue_like()
    row = _row(index, batches, num_neighbors=3)
    lsh_trajectory["venue_like_k3"] = row
    print(f"\nvenue_like: {row}")


def test_sorted_tables(lsh_trajectory):
    index, batches = _venue_like()
    tables = dict_tables(index)
    for batch in batches:
        ours = index._candidate_pairs(batch)
        theirs = candidate_pairs_dict_reference(index, tables, batch)
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))
    dict_ms = _time(lambda b: candidate_pairs_dict_reference(index, tables, b), batches)
    sorted_ms = _time(index._candidate_pairs, batches)

    # Incremental insert of one 60-row batch into a copy of the full index:
    # hashing the batch is O(batch), merging it into each table is O(N).
    rows = np.vstack(batches)
    insert_ms = []
    for batch in batches[:5]:
        grown = LshIndex(
            params=index.params,
            seed=index.projections.seed,
            max_probes_per_table=index.max_probes_per_table,
        )
        grown.build(index._store[: index.size], index._ids_store[: index.size])
        start = time.perf_counter()
        grown.insert(batch, np.arange(batch.shape[0]))
        insert_ms.append((time.perf_counter() - start) * 1e3)
    row = {
        "index_rows": index.size,
        "tables": len(index._tables),
        "buckets_per_table": round(
            float(np.mean([table.keys.size for table in index._tables])), 1
        ),
        "bucket_bytes": sum(
            table.keys.size * 16 + table.rows.nbytes for table in index._tables
        ),
        "batches": len(batches),
        "descriptors_per_batch": round(rows.shape[0] / len(batches), 1),
        "dict_candidates_ms_p50": round(float(np.median(dict_ms)), 3),
        "sorted_candidates_ms_p50": round(float(np.median(sorted_ms)), 3),
        "sorted_candidates_ms_p90": round(float(np.percentile(sorted_ms, 90)), 3),
        "speedup_p50": round(float(np.median(dict_ms) / np.median(sorted_ms)), 2),
        "insert_60_rows_ms_p50": round(float(np.median(insert_ms)), 3),
        "numpy": np.__version__,
        "host_cpus": default_workers(),
    }
    lsh_trajectory["sorted_tables_venue_like"] = row
    print(f"\nsorted tables: {row}")

