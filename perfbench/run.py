"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload localize_closed --seed 1 --seconds 40 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no layer wrappers installed; ``--trace 1`` installs them,
traces every other query, and reports the per-layer metrics plus the
tracing overhead against the untraced queries of the same run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads, metrics and checks.
"""

from __future__ import annotations

import os

# One BLAS thread: the host has two cores, and in fleet_open the process
# shard needs one while the arrival generator keeps the other.  Set
# before numpy loads, and recorded in every result.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_qps": "1/s",
    "answered_frac": "fraction",
    "scene_accuracy": "fraction",
    "uplink_bytes_per_query": "bytes",
    "peak_rss_mb": "MB",
}

#: p90 is reported from at least this many replied queries, so that at
#: least ten samples lie beyond it.
P90_MIN_SAMPLES = 100
#: A closed loop's traced queries must run within this share of their
#: untraced same-input pairs.
RECONCILE_TOLERANCE = 0.1


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("localize_closed", "camera_stream", "fleet_open"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"blas": f"{info.get('name')} {info.get('version')}"}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.restype = ctypes.c_int
        out["blas_threads"] = int(getter())
        break
    else:
        out["blas_threads"] = os.environ["OPENBLAS_NUM_THREADS"]
    return out


def provenance(result) -> dict:
    import numpy as np

    return {
        "workload": result.workload,
        "seed": result.seed,
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **_blas(),
        **result.provenance,
    }


def end_to_end(result, factor: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics, measured seconds multiplied by ``factor``.

    A latency's simulated channel seconds are not measured, so they are
    added after the scaling.
    """
    from perfbench.workloads import median, percentile

    tally = result.tally
    attempted = max(tally.attempted, 1)
    answered_frac, scene_accuracy = tally.fractions()
    latencies = [
        (latency - simulated) * factor + simulated
        for latency, simulated in zip(tally.latencies, tally.latency_sim)
    ]
    return {
        "setup_s": median(result.setup_seconds) * factor,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "throughput_qps": len(tally.latencies) / (result.elapsed * factor),
        "answered_frac": answered_frac,
        "scene_accuracy": scene_accuracy,
        "uplink_bytes_per_query": tally.air_bytes / attempted,
        "peak_rss_mb": result.peak_rss_mb,
    }


#: Per-layer seconds that are simulated, not measured, so never host-scaled.
SIMULATED_LAYER_METRICS = {"network.uplink_sim_s_p50"}


def per_layer(result) -> dict[str, tuple[float, str]]:
    """The per-layer metrics; measured seconds scaled to the reference speed."""
    factor = result.speed_factor()
    return {
        name: (value * factor if unit == "s" and name not in SIMULATED_LAYER_METRICS
               else value, unit)
        for name, (value, unit) in _per_layer(result).items()
    }


def _per_layer(result) -> dict[str, tuple[float, str]]:
    from perfbench.layers import UNATTRIBUTED, layer_quantile, self_seconds
    from perfbench.workloads import percentile

    registry = result.registry
    tally = result.tally

    def count(name: str) -> float:
        return registry.counter(f"perfbench_{name}_total").value

    def ratio(numerator: str, denominator: str) -> float:
        base = count(denominator)
        return count(numerator) / base if base else 0.0

    def q(layer: str, quantile: float) -> float:
        return layer_quantile(registry, layer, quantile)

    traced_wall = registry.counter(
        "perfbench_traced_wall_seconds_total", root="query"
    ).value
    unattributed = self_seconds(registry, "query").get(UNATTRIBUTED, 0.0)
    uplinks = max(len(tally.uplink_sim), 1)
    serving = result.serving
    s, count_unit, frac = "s", "count", "fraction"
    return {
        "localization.solve_s_p50": (q("localization.solve", 0.5), s),
        "localization.solve_s_p90": (q("localization.solve", 0.9), s),
        "localization.converged_frac": (ratio("solve_converged", "solve_calls"), frac),
        "localization.pairs_mean": (ratio("solve_pairs", "solve_calls"), count_unit),
        "localization.cluster_s_p50": (q("localization.cluster", 0.5), s),
        "localization.cluster_kept_frac": (
            ratio("cluster_kept", "cluster_candidates"),
            frac,
        ),
        "localization.pose_error_p50_m": (percentile(tally.pose_errors, 50), "m"),
        "localization.pose_error_p90_m": (percentile(tally.pose_errors, 90), "m"),
        "lsh.query_s_p50": (q("lsh.query", 0.5), s),
        "lsh.matches_per_query": (ratio("lsh_matches", "lsh_calls"), count_unit),
        "server.localize_s_p50": (q("server.localize", 0.5), s),
        "server.localize_s_p90": (q("server.localize", 0.9), s),
        "features.sift_s_p50": (q("features.sift", 0.5), s),
        "features.keypoints_per_frame": (
            ratio("sift_keypoints", "sift_frames"),
            count_unit,
        ),
        "features.serialize_s_p50": (q("features.serialize", 0.5), s),
        "oracle.rank_s_p50": (q("oracle.rank", 0.5), s),
        "oracle.candidates_per_query": (
            ratio("oracle_candidates", "oracle_calls"),
            count_unit,
        ),
        "matching.match_s_p50": (q("matching.match", 0.5), s),
        "matching.vote_s_p50": (q("matching.vote", 0.5), s),
        "matching.matched_per_query": (ratio("match_matched", "match_calls"), count_unit),
        "network.uplink_sim_s_p50": (percentile(tally.uplink_sim, 50), s),
        "network.attempts_per_query": (tally.attempts / uplinks, count_unit),
        "network.retries": (float(tally.retries), count_unit),
        "network.degraded": (float(tally.degraded), count_unit),
        "network.abandoned": (float(tally.abandoned), count_unit),
        "network.wasted_bytes_frac": (
            tally.wasted_bytes / tally.air_bytes if tally.air_bytes else 0.0,
            frac,
        ),
        "serving.queue_wait_s_p50": (percentile(tally.queue_wait, 50), s),
        "serving.queue_wait_s_p90": (percentile(tally.queue_wait, 90), s),
        "serving.service_s_p50": (percentile(tally.service, 50), s),
        "serving.admitted": (serving.get("admitted", 0.0), count_unit),
        "serving.rejected": (serving.get("rejected", 0.0), count_unit),
        "serving.served": (serving.get("served", 0.0), count_unit),
        "serving.failed": (serving.get("failed", 0.0), count_unit),
        "serving.depth_max": (float(tally.depth_max), count_unit),
        "wardrive.session_s": (result.setup_layers["wardrive.session_s"], s),
        "server.ingest_s": (result.setup_layers["server.ingest_s"], s),
        "matching.db_build_s": (result.setup_layers["matching.db_build_s"], s),
        "obs.trace_overhead_frac": (trace_overhead(tally), frac),
        "obs.unattributed_frac": (unattributed / traced_wall if traced_wall else 0.0, frac),
    }


def breakdown(result) -> list[str]:
    """Blocking-path self time per layer, and the reconciliation checks.

    Returns the failed checks.  Simulated channel seconds are printed
    apart from the wall-clock layers.
    """
    from perfbench.layers import SIMULATED, self_seconds
    from perfbench.workloads import median

    registry = result.registry
    failures: list[str] = []
    for root, title in (("query", "query wall"), ("shard.serve", "shard service")):
        queries = registry.counter("perfbench_traced_queries_total", root=root).value
        wall = registry.counter("perfbench_traced_wall_seconds_total", root=root).value
        if not queries:
            continue
        print(f"blocking path ({title}, {int(queries)} traced queries, "
              f"{1e3 * wall / queries:.2f} ms wall per query):")
        shares = self_seconds(registry, root)
        simulated = shares.pop(SIMULATED, None)
        for layer, seconds in sorted(shares.items(), key=lambda item: -item[1]):
            print(f"  {layer:<28} {1e3 * seconds / queries:9.3f} ms  {seconds / wall:7.1%}")
        if simulated is not None:
            print(f"  {'(simulated channel, slept)':<28} {1e3 * simulated / queries:9.3f} ms")
        attributed = sum(shares.values())
        if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
            failures.append(
                f"{title}: layer self times {attributed:.6f} s do not sum to "
                f"the traced wall {wall:.6f} s"
            )
    tally = result.tally
    traced, untraced = median(tally.wall[True]), median(tally.wall[False])
    gap = trace_overhead(tally)
    print(
        f"reconcile: traced wall p50 {1e3 * traced:.2f} ms, untraced "
        f"{1e3 * untraced:.2f} ms; tracing overhead {gap:+.2%}"
        + (f" (median over {len(tally.pairs)} same-input pairs)" if tally.pairs else "")
    )
    # Only the closed loops pair each traced query with an untraced run
    # of the same input; the open loop's halves see different queues.
    if tally.pairs and abs(gap) > RECONCILE_TOLERANCE:
        failures.append(
            f"traced queries run {gap:+.1%} against their untraced pairs "
            f"(tolerance {RECONCILE_TOLERANCE:.0%}); the layer times would "
            "not account for the untraced wall time"
        )
    return failures


def trace_overhead(tally) -> float:
    """Relative wall-time cost of tracing a query."""
    from perfbench.workloads import median

    if tally.pairs:
        return median([traced / untraced - 1.0 for traced, untraced in tally.pairs])
    untraced = median(tally.wall[False])
    return (median(tally.wall[True]) - untraced) / untraced if untraced else 0.0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    from perfbench.layers import LayerTracer, layer_quantile
    from perfbench.workloads import (
        LATENCY_LIMIT_S,
        MAX_LATE_FRACTION,
        WORKLOADS,
        digest,
        percentile,
    )
    from repro.obs import write_ndjson

    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    try:
        result = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    tally = result.tally
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance: " + json.dumps(provenance(result), sort_keys=True))
    print("set-ups: " + ", ".join(f"{s:.3f} s" for s in result.setup_seconds))
    print(
        f"queries: attempted {tally.attempted}, answered {tally.answered}, "
        f"no-match {tally.no_match}, shed {tally.shed}, abandoned {tally.abandoned}, "
        f"distinct inputs {len(tally.by_input) or tally.attempted}, "
        f"engine errors {tally.errors}; failed_frac "
        f"{1 - tally.fractions()[0]:.4f}"
    )

    failures = list(tally.failures)
    if tally.check_failures > len(tally.failures):
        failures.append(f"... {tally.check_failures - len(tally.failures)} more")
    speed = result.speed
    if speed is None:
        print("host speed: not probed (open loop); times are measured seconds")
    else:
        print(
            f"host speed: {speed.kernel_name} kernel median "
            f"{1e3 * statistics.median(speed.samples):.3f} ms over {len(speed.samples)} "
            f"samples, nominal {1e3 * speed.nominal:.3f} ms; times below are "
            f"measured x {result.speed_factor():.4f} (raw in brackets)"
        )
    metrics_e2e = end_to_end(result, result.speed_factor())
    raw = end_to_end(result)
    for name, value in metrics_e2e.items():
        samples = ""
        if name.startswith("latency_"):
            samples = f"  n={len(tally.latencies)}"
            if name == "latency_p90_s" and len(tally.latencies) < P90_MIN_SAMPLES:
                samples += f" (under {P90_MIN_SAMPLES}: fewer than 10 samples beyond p90)"
        if raw[name] != value:
            samples = f"  [{raw[name]:.6f}]" + samples
        print(f"  {name:<26} {value:14.6f} {END_TO_END_UNITS[name]}{samples}")
    if tally.pose_errors:
        print(
            f"  pose error p50 {percentile(tally.pose_errors, 50):.3f} m, "
            f"p90 {percentile(tally.pose_errors, 90):.3f} m (n={len(tally.pose_errors)})"
        )

    # The channel model's own byte counters must agree with the attempt
    # records the uplink metric is summed from.
    on_air = sum(
        instrument.value
        for instrument in result.registry.instruments()
        if instrument.name in ("network_upload_bytes_total", "network_wasted_bytes_total")
    )
    if on_air != tally.air_bytes:
        failures.append(
            f"channel counters saw {on_air:.0f} bytes on air; the attempt "
            f"records sum to {tally.air_bytes}"
        )
    if result.digest_queries:
        if len(tally.digest_items) < result.digest_queries:
            failures.append(
                f"only {len(tally.digest_items)} queries ran; the digest needs "
                f"{result.digest_queries}"
            )
        else:
            print(f"digest: {digest(tally.digest_items)} "
                  f"(first {result.digest_queries} queries)")
    if tally.lateness:
        # Open-loop only: goodput, generator lateness, adaptive policy.
        late_p99 = percentile(tally.lateness, 99)
        print(f"  goodput_qps {tally.within_limit / result.schedule_seconds:.6f} 1/s "
              f"(answers within {LATENCY_LIMIT_S:g} s per second of schedule)")
        print(f"  loadgen.late_s_p99 {late_p99:.6f} s, loadgen.late_s_max "
              f"{max(tally.lateness):.6f} s")
        if tracer is not None:
            policy = layer_quantile(result.registry, "network.policy", 0.5)
            print(f"  network.policy_s_p50 {policy:.6g} s")
        if late_p99 > MAX_LATE_FRACTION * LATENCY_LIMIT_S:
            failures.append(
                f"INVALID run: generator p99 lateness {late_p99:.4f} s exceeds "
                f"{MAX_LATE_FRACTION:.0%} of the {LATENCY_LIMIT_S:g} s limit"
            )

    metrics = {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in metrics_e2e.items()
    }
    if tracer is not None:
        failures += breakdown(result)
        metrics = {}
        for name, (value, unit) in per_layer(result).items():
            print(f"  {name:<32} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        trace_path = out / f"trace-{args.workload}-{args.seed}.ndjson"
        write_ndjson(tracer.collector.roots, str(trace_path))
        print(f"spans: {trace_path.relative_to(ROOT)}")

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": tally.attempted,
                "failed": tally.errors + tally.check_failures,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
