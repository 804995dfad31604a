"""CI gate for the traced perfbench smoke runs.

Each argument is ``WORKLOAD=PATH``: the captured standard output of
``python3 perfbench/run.py --workload WORKLOAD --trace 1 ...``.  The last
line of that output is a JSON object; the gate fails unless

* ``correct`` is true and ``failed`` is 0, and
* every layer on that workload's query path reports a nonzero p50.

A layer whose metric reads 0 never ran under the layer tracer: a
refactor renamed or unwrapped the entry point the benchmark wraps, so
the traced run can no longer attribute that layer's time.

Usage::

    python ci/perfbench_smoke.py localize_closed=localize.txt camera_stream=camera.txt
"""

from __future__ import annotations

import json
import sys

#: The layers each workload's queries cross, by their per-layer metric.
PATH_METRICS = {
    "localize_closed": (
        "localization.solve_s_p50",
        "localization.cluster_s_p50",
        "lsh.query_s_p50",
    ),
    "camera_stream": ("features.sift_s_p50", "oracle.rank_s_p50"),
}


def check(workload: str, output: str) -> list[str]:
    """Failure messages for one run's captured output (empty if it passed)."""
    lines = output.strip().splitlines()
    if not lines:
        return [f"{workload}: no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"{workload}: last line is not JSON: {lines[-1][:120]!r}"]
    failures = []
    if result.get("correct") is not True:
        failures.append(f"{workload}: correct is {result.get('correct')!r}")
    if result.get("failed") != 0:
        failures.append(f"{workload}: failed is {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    for name in PATH_METRICS[workload]:
        value = metrics.get(name, {}).get("value", 0.0)
        if not value > 0.0:
            failures.append(f"{workload}: {name} is {value!r}; the layer was not traced")
    return failures


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    failures: list[str] = []
    for argument in argv:
        workload, _, path = argument.partition("=")
        if workload not in PATH_METRICS or not path:
            print(f"expected WORKLOAD=PATH with WORKLOAD in {sorted(PATH_METRICS)}, "
                  f"got {argument!r}", file=sys.stderr)
            return 2
        with open(path, encoding="utf-8") as handle:
            failures += check(workload, handle.read())
    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print(f"perfbench smoke: {len(argv)} run(s) correct, every path layer traced")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
