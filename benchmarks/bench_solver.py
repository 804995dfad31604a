"""Server pose solve: scipy differential evolution vs the numpy population loop.

``AngularLocalizer.solve`` used to hand a scalar objective to
``scipy.optimize.differential_evolution``, which called it once per
population member (60 members, up to 41 population passes per solve).
It now runs the same best1bin scheme over the whole population in one
broadcast pass per generation.  This benchmark times both on the same
seeded synthetic queries, clean and with 3 of 15 correspondences wrong
(the paper's repeated-floor-tile failure), and records the median pose
error of each so a speedup that lost accuracy would show.

Rows land in BENCH_solver.json via ``conftest.pytest_sessionfinish``.
Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/bench_solver.py -q -s
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import scipy

from repro.localization import AngularLocalizer

# The scipy reference is test-only code; make ``tests`` importable when
# pytest is started without the repository root on ``sys.path``.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from tests.reference.solver_scipy_de import seeded_problems, solve_scipy_de  # noqa: E402

_PROBLEMS = 30


def _time_solves(solve, cases) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-solve wall seconds, position errors and the mean pair count."""
    seconds, errors, pairs = [], [], []
    for problem, truth in cases:
        start = time.perf_counter()
        solution = solve(problem)
        seconds.append(time.perf_counter() - start)
        errors.append(solution.pose.position_error(truth))
        pairs.append(solution.num_pairs)
    return np.array(seconds), np.array(errors), float(np.mean(pairs))


def _row(num_points: int, wrong: int) -> dict:
    localizer = AngularLocalizer(seed=0)
    cases = seeded_problems(_PROBLEMS, num_points, wrong=wrong, seed=9_000)
    localizer.solve(cases[0][0])  # warm imports and caches
    ref_s, ref_err, _ = _time_solves(lambda p: solve_scipy_de(localizer, p), cases)
    new_s, new_err, pairs = _time_solves(localizer.solve, cases)
    return {
        "problems": len(cases),
        "points": num_points,
        "wrong_correspondences": wrong,
        "pairs_mean": round(pairs, 1),
        "reference_ms_p50": round(float(np.median(ref_s)) * 1e3, 2),
        "reference_ms_p90": round(float(np.percentile(ref_s, 90)) * 1e3, 2),
        "numpy_de_ms_p50": round(float(np.median(new_s)) * 1e3, 2),
        "numpy_de_ms_p90": round(float(np.percentile(new_s, 90)) * 1e3, 2),
        "speedup_p50": round(float(np.median(ref_s) / np.median(new_s)), 2),
        "reference_error_median_m": round(float(np.median(ref_err)), 4),
        "numpy_de_error_median_m": round(float(np.median(new_err)), 4),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def test_solve_clean(solver_trajectory):
    row = _row(num_points=25, wrong=0)
    # Same optimum: a clean query must land where the scipy solve did.
    assert row["numpy_de_error_median_m"] < 0.05
    solver_trajectory["solve_clean_25pt"] = row
    print(f"\nclean: {row}")


def test_solve_wrong_correspondences(solver_trajectory):
    row = _row(num_points=15, wrong=3)
    assert row["numpy_de_error_median_m"] <= 1.1 * row["reference_error_median_m"]
    solver_trajectory["solve_3_of_15_wrong"] = row
    print(f"\n3 of 15 wrong: {row}")
