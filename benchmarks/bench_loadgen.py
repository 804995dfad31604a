"""Fleet load-test trajectory: million users, replication gain, linearity.

Three measurements land in BENCH_loadgen.json:

* ``million_user_fast`` — the headline scale point: one million
  simulated users at the ``--fast`` operating point, generated and
  replayed end to end.  Simulated-time results (offered/served/shed,
  p50/p99/p999, sustained qps/core) are seeded and deterministic; the
  wall-clock columns record what the harness itself costs, and the
  per-arrival processing rate is the perf budget CI watches.
* ``replication_skew`` — a Zipf-head venue taking >=50% of traffic,
  served at ``replication_factor`` 1 vs 2 on the same ring.  The
  acceptance bar: replication must measurably raise sustained qps
  (the whole point of successor-list replication).
* ``backlog_scaling`` — the regression assertion for the simulator's
  deque backlog: quadrupling the query count must scale the replay
  near-linearly.  The historical ``list.pop(0)``-style retire scan was
  O(queue) per arrival — quadratic on a deep queue — and would blow
  the ratio bound immediately.
"""

from __future__ import annotations

import time

from repro.core import ServerConfig
from repro.loadgen import TrafficModel, run_loadtest
from repro.obs import MetricsRegistry, use_registry
from repro.serving import simulate_queue_network

_FAST_MILLION = TrafficModel(
    users=1_000_000,
    venues=100,
    duration_seconds=5.0,
    rate_per_user=0.05,
    zipf_exponent=1.1,
)

_SKEWED = TrafficModel(
    users=4000,
    venues=16,
    duration_seconds=30.0,
    rate_per_user=0.05,
    zipf_exponent=3.0,
)


def test_million_user_fast(loadgen_trajectory):
    start = time.perf_counter()
    with use_registry(MetricsRegistry()):
        report = run_loadtest(
            _FAST_MILLION, ServerConfig(num_shards=4), seed=3
        )
    wall = time.perf_counter() - start
    assert report["offered"] > 100_000
    rate = report["offered"] / wall
    loadgen_trajectory["million_user_fast"] = {
        "users": _FAST_MILLION.users,
        "offered": report["offered"],
        "served": report["served"],
        "shed_fraction": round(report["shed_fraction"], 4),
        "latency_p50_ms": round(report["latency_seconds"]["p50"] * 1e3, 2),
        "latency_p99_ms": round(report["latency_seconds"]["p99"] * 1e3, 2),
        "latency_p999_ms": round(report["latency_seconds"]["p999"] * 1e3, 2),
        "queries_per_second": round(report["queries_per_second"], 2),
        "queries_per_second_per_core": round(
            report["queries_per_second_per_core"], 2
        ),
        "wall_seconds": round(wall, 3),
        "arrivals_per_wall_second": round(rate, 0),
    }
    print()
    print(
        f"  1M users: {report['offered']} arrivals in {wall:.2f} s wall "
        f"({rate / 1e3:.0f}k arrivals/s), shed {report['shed_fraction']:.1%}"
    )


def test_replication_skew(loadgen_trajectory):
    results = {}
    for factor in (1, 2):
        cluster = ServerConfig(
            num_shards=4, queue_depth=16, replication_factor=factor
        )
        with use_registry(MetricsRegistry()):
            results[factor] = run_loadtest(_SKEWED, cluster, seed=11)
    assert results[1]["hot_venue_share"] >= 0.5
    gain = results[2]["queries_per_second"] / results[1]["queries_per_second"]
    # The acceptance bar: replicating the Zipf head must measurably
    # raise sustained throughput on the same offered stream.
    assert gain > 1.2
    loadgen_trajectory["replication_skew"] = {
        "hot_venue_share": round(results[1]["hot_venue_share"], 3),
        "qps_rf1": round(results[1]["queries_per_second"], 2),
        "qps_rf2": round(results[2]["queries_per_second"], 2),
        "qps_gain": round(gain, 3),
        "shed_rf1": results[1]["shed"],
        "shed_rf2": results[2]["shed"],
    }
    print()
    print(
        f"  replication x2 on {results[1]['hot_venue_share']:.0%}-hot venue: "
        f"{results[1]['queries_per_second']:.0f} -> "
        f"{results[2]['queries_per_second']:.0f} qps ({gain:.2f}x)"
    )


def _replay_seconds(num_queries: int) -> float:
    # Deep single-shard queue: every arrival lands behind all prior
    # ones, the worst case for any per-arrival backlog scan.
    service = [1.0] * num_queries
    start = time.perf_counter()
    arrivals = [0.0] * num_queries
    shards = [0] * num_queries
    result, _ = simulate_queue_network(
        arrivals, service, shards, 1, queue_depth=num_queries
    )
    elapsed = time.perf_counter() - start
    assert result.served == num_queries
    return elapsed

def test_backlog_scaling_near_linear(loadgen_trajectory):
    small, large = 25_000, 100_000
    base = min(_replay_seconds(small) for _ in range(3))
    scaled = min(_replay_seconds(large) for _ in range(3))
    ratio = scaled / max(base, 1e-9)
    # Linear scaling lands near 4x; the old rebuild-the-backlog-per-
    # arrival accounting was quadratic (~16x) and must never come back.
    assert ratio < 10.0
    loadgen_trajectory["backlog_scaling"] = {
        "queries_small": small,
        "queries_large": large,
        "seconds_small": round(base, 4),
        "seconds_large": round(scaled, 4),
        "scaling_ratio": round(ratio, 2),
        "ns_per_query": round(scaled / large * 1e9, 0),
    }
    print()
    print(
        f"  backlog scaling {small} -> {large} queries: "
        f"{base * 1e3:.1f} -> {scaled * 1e3:.1f} ms ({ratio:.1f}x, "
        f"{scaled / large * 1e6:.2f} us/query)"
    )
