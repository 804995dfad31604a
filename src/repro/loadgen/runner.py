"""Fleet-scale load-test runner: calibrate, generate, replay, report.

The evaluation discipline everywhere else in this repo — measure real
costs once, then replay them in simulated time — scaled up to a fleet:

1. **Calibrate.**  Per-query service times come either from a seeded
   synthetic model (:func:`synthetic_service_seconds`, the
   deterministic default — a ``--fast`` CI run must be bit-identical
   across reruns) or from :func:`calibrate_service_seconds`, which
   boots a small *real* :class:`repro.serving.ServingFrontend`, serves
   real localization queries, and times each one on the frontend's
   ``serving_request_seconds`` histogram.
2. **Generate.**  :func:`repro.loadgen.arrivals.generate_arrivals`
   synthesizes the open-loop arrival stream (Poisson users, burst
   envelope, mobility sessions, Zipf venues) in parallel blocks.
3. **Replay.**  Arrivals run through
   :func:`repro.serving.simulate_queue_network` against the cluster's
   shard queues.  Venue → shard placement is the real serving-layer
   ring (:class:`repro.serving.VenueRegistry` with the cluster's
   ``replication_factor``), so a replicated hot venue offers every
   query its replica set and the simulator joins the shortest queue —
   the same routing :meth:`repro.serving.ServingFrontend.submit` does.
   An optional :class:`repro.network.faults.FaultyChannel` uplink leg
   prices each query's transfer (retries, degradation, abandonment)
   before it reaches admission.
4. **Report.**  End-to-end latency lands in a
   ``loadgen_e2e_seconds`` :class:`repro.obs.QuantileSketch`
   (p50/p99/p999), queue depths in ``loadgen_queue_depth``, volumes in
   ``loadgen_*_total`` counters — all in the contextual registry so
   ``repro metrics-diff`` can gate a run against a baseline snapshot.
   A contextual :class:`repro.obs.SloTracker` (when installed) receives
   a deterministic stride-sample of outcomes stamped with *simulated*
   time, so burn-rate alerts fire on simulated overload and
   ``repro slo-report --fail-on-alerts`` closes the CI gate.

``queries_per_second_per_core`` divides sustained simulated throughput
by the shard count: each shard is one single-threaded worker (one core)
in simulated time, so the figure is host-independent — the same number
on a laptop and a 64-core CI runner.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.config import ServerConfig
from repro.loadgen.arrivals import (
    _USER_BLOCK,
    ArrivalStream,
    TrafficModel,
    generate_arrivals,
)
from repro.network.faults import RetryPolicy, submit_payload
from repro.network.linkstate import AdaptiveConfig, AdaptiveOffloadPolicy
from repro.obs import (
    MetricsRegistry,
    current_slo_tracker,
    resolve_registry,
)
from repro.serving import QUERY_SERVED, VenueRegistry, simulate_queue_network
from repro.util.rng import rng_for

__all__ = [
    "calibrate_service_seconds",
    "run_loadtest",
    "synthetic_service_seconds",
]

#: Payload-size ladder (bytes) for the optional uplink leg: a full
#: fingerprint down two degradation rungs, matching the client's
#: degrade-under-retry behaviour at round sizes.
DEFAULT_LADDER: tuple[int, ...] = (4096, 2048, 1024)


def synthetic_service_seconds(
    count: int = 256,
    seed: int = 0,
    mean_seconds: float = 0.02,
    sigma: float = 0.4,
) -> np.ndarray:
    """A seeded lognormal service-time sample (deterministic calibration).

    Centered on the order of one real localization query (tens of
    milliseconds) with a right tail, but entirely a function of
    ``(count, seed, mean, sigma)`` — the bit-identical-rerun mode.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if mean_seconds <= 0:
        raise ValueError(f"mean_seconds must be > 0, got {mean_seconds}")
    rng = rng_for(seed, "loadgen/service-model")
    mu = math.log(mean_seconds) - sigma * sigma / 2.0
    return rng.lognormal(mu, sigma, count)


def calibrate_service_seconds(
    queries: int = 48,
    seed: int = 0,
    venues: int = 2,
    descriptors_per_venue: int = 200,
) -> np.ndarray:
    """Measure real per-query service times through a live frontend.

    Builds a miniature fleet (:func:`repro.serving.synthetic_venue`),
    serves ``queries`` real localization queries through a one-shard
    inline :class:`repro.serving.ServingFrontend`, and returns each
    query's ``serving_request_seconds`` observation (the shard
    histogram's sum delta across the call).  Wall-clock measurement —
    not deterministic across hosts or reruns; use
    :func:`synthetic_service_seconds` when the output must be.
    """
    from repro.serving import ServingFrontend, synthetic_query, synthetic_venue

    registry = MetricsRegistry()
    frontend = ServingFrontend(num_shards=1, registry=registry)
    servers = {}
    for index in range(venues):
        name = f"venue-{index}"
        rng = rng_for(seed, f"loadgen/calibrate/{name}")
        servers[name] = synthetic_venue(rng, descriptors_per_venue)
        frontend.register_venue(name, servers[name])
    service = registry.histogram(
        "serving_request_seconds", shard=frontend.venues.shard_ids[0]
    )
    rng = rng_for(seed, "loadgen/calibrate/queries")
    samples = np.empty(queries)
    for index in range(queries):
        name = f"venue-{index % venues}"
        before = service.sum
        frontend.call(name, synthetic_query(servers[name], rng))
        samples[index] = service.sum - before
    frontend.close()
    return samples


def _replica_choices(
    model: TrafficModel, cluster: ServerConfig
) -> list[tuple[int, ...]]:
    """Venue rank → candidate shard indices, from the real serving ring."""
    registry = VenueRegistry(
        cluster.num_shards,
        replicas=cluster.hash_replicas,
        seed=cluster.seed,
        replication_factor=cluster.replication_factor,
    )
    shard_index = {sid: i for i, sid in enumerate(registry.shard_ids)}
    return [
        tuple(shard_index[sid] for sid in registry.shards_for(f"venue-{rank}"))
        for rank in range(model.venues)
    ]


def _channel_leg(
    count: int,
    channel,
    retry: RetryPolicy,
    ladder: Sequence[int],
    seed: int,
    registry: MetricsRegistry,
    adaptive: AdaptiveOffloadPolicy | None = None,
    arrival_times: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, Any]]:
    """Price every query's uplink; returns (latency, abandoned, summary).

    One :func:`repro.network.faults.submit_payload` per query — Python-
    loop cost, so channel legs are for thousands-scale studies, not the
    million-user fast path (which models the uplink as already priced
    into the latency SLO threshold).

    With ``adaptive`` set, the policy is consulted before every query
    (entry rung, retry budget, backoff scaling) and its estimator is
    advanced by the inter-arrival gaps so confidence decays over quiet
    stretches of the arrival stream.
    """
    rng = rng_for(seed, "loadgen/channel")
    ladder = [int(size) for size in ladder]
    latency = np.zeros(count)
    abandoned = np.zeros(count, dtype=bool)
    degraded = 0
    delivered_bytes = 0
    wasted = 0.0
    wasted_bytes = 0
    retries = 0
    last_time = float(arrival_times[0]) if arrival_times is not None else 0.0
    for index in range(count):
        policy = retry
        start_step = 0
        if adaptive is not None:
            if arrival_times is not None:
                now = float(arrival_times[index])
                adaptive.advance(max(0.0, now - last_time))
                last_time = now
            decision = adaptive.decide(channel, ladder_rungs=len(ladder))
            policy = decision.adapt_retry_policy(retry)
            start_step = decision.entry_rung
        outcome = submit_payload(
            channel, ladder, policy, rng, registry=registry,
            start_step=start_step,
        )
        latency[index] = outcome.latency_seconds
        retries += outcome.retries
        wasted += outcome.wasted_seconds
        wasted_bytes += outcome.wasted_bytes
        if outcome.status == "abandoned":
            abandoned[index] = True
        else:
            delivered_bytes += outcome.payload_bytes
            if outcome.status == "degraded":
                degraded += 1
    summary = {
        "degraded": degraded,
        "delivered_bytes": delivered_bytes,
        "wasted_seconds": float(wasted),
        "wasted_bytes": wasted_bytes,
        "retries": retries,
    }
    if adaptive is not None:
        summary["adaptive"] = adaptive.snapshot()
    return latency, abandoned, summary


def run_loadtest(
    model: TrafficModel,
    cluster: ServerConfig | None = None,
    *,
    seed: int = 0,
    workers: int = 1,
    service_samples: Sequence[float] | np.ndarray | None = None,
    channel=None,
    retry: RetryPolicy | None = None,
    adaptive: AdaptiveOffloadPolicy | AdaptiveConfig | bool | None = None,
    payload_ladder: Sequence[int] = DEFAULT_LADDER,
    registry: MetricsRegistry | None = None,
    slo_tracker=None,
    slo_events_cap: int = 2000,
    block_users: int = _USER_BLOCK,
) -> dict[str, Any]:
    """Run one open-loop load test; returns the JSON-ready report.

    ``service_samples`` defaults to the seeded synthetic model; pass
    :func:`calibrate_service_seconds` output for measured-cost realism.
    ``channel`` (any ``UplinkChannel``-shaped object, typically a
    :class:`repro.network.faults.FaultyChannel`) adds a per-query uplink
    leg; ``adaptive`` (``True``, an
    :class:`repro.network.linkstate.AdaptiveConfig`, or a prebuilt
    :class:`~repro.network.linkstate.AdaptiveOffloadPolicy`) shapes that
    leg predictively.  ``slo_tracker`` defaults to the contextual tracker; it
    receives at most ``slo_events_cap`` stride-sampled outcomes stamped
    with simulated time (the tracker's sliding-window scan is linear per
    event, so feeding every query of a million-query run would be
    quadratic).  Identical arguments produce an identical report — the
    property the CI gate's bit-identical rerun locks.
    """
    cluster = cluster if cluster is not None else ServerConfig(num_shards=4)
    registry = resolve_registry(registry)
    tracker = slo_tracker if slo_tracker is not None else current_slo_tracker()

    stream: ArrivalStream = generate_arrivals(
        model, seed=seed, workers=workers, block_users=block_users
    )
    count = len(stream)
    if service_samples is None:
        samples = synthetic_service_seconds(seed=seed)
    else:
        samples = np.asarray(service_samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("service_samples must be non-empty")
    service = samples[
        rng_for(seed, "loadgen/service-resample").integers(0, samples.size, count)
    ]

    uplink_summary: dict[str, Any] | None = None
    if channel is not None and count:
        retry = retry if retry is not None else RetryPolicy()
        policy: AdaptiveOffloadPolicy | None
        if adaptive is None or adaptive is False:
            policy = None
        elif isinstance(adaptive, AdaptiveOffloadPolicy):
            policy = adaptive
        elif adaptive is True:
            policy = AdaptiveOffloadPolicy()
        else:
            policy = AdaptiveOffloadPolicy(adaptive)
        uplink, abandoned_mask, uplink_summary = _channel_leg(
            count, channel, retry, payload_ladder, seed, registry,
            adaptive=policy, arrival_times=stream.times,
        )
        shard_times = stream.times + uplink
        # The uplink delays reorder admissions; re-sort (stably, so the
        # stream stays deterministic) before the replay.
        order = np.argsort(shard_times, kind="stable")
        shard_times = shard_times[order]
        service = service[order]
        uplink = uplink[order]
        abandoned_arg = abandoned_mask[order]
        venue_ranks = stream.venues[order]
    else:
        shard_times = stream.times
        uplink = np.zeros(count)
        abandoned_arg = None
        venue_ranks = stream.venues

    venue_choices = _replica_choices(model, cluster)
    choices = [venue_choices[rank] for rank in venue_ranks]

    e2e = registry.sketch(
        "loadgen_e2e_seconds",
        help="end-to-end simulated latency of served queries (uplink + wait + service)",
    )
    depth_sketch = registry.sketch(
        "loadgen_queue_depth",
        help="queue depth observed by each admitted arrival before joining",
    )
    latency = np.zeros(count)

    def on_served(index: int, wait: float, finish: float) -> None:
        total = uplink[index] + wait + service[index]
        latency[index] = total
        e2e.observe(total)

    def on_arrival(index: int, shard: int, depth: int) -> None:
        depth_sketch.observe(float(depth))

    result, outcomes = simulate_queue_network(
        shard_times,
        service,
        choices,
        cluster.num_shards,
        queue_depth=cluster.queue_depth,
        abandoned=abandoned_arg,
        on_served=on_served,
        on_arrival=on_arrival,
    )

    registry.counter(
        "loadgen_queries_offered_total", help="arrivals offered to the fleet"
    ).inc(result.offered)
    registry.counter(
        "loadgen_queries_served_total", help="arrivals served to completion"
    ).inc(result.served)
    registry.counter(
        "loadgen_queries_shed_total", help="arrivals shed at shard admission"
    ).inc(result.shed)
    registry.counter(
        "loadgen_queries_abandoned_total",
        help="arrivals lost on the uplink before admission",
    ).inc(result.abandoned)

    if tracker is not None and count:
        stride = max(1, result.offered // max(1, slo_events_cap))
        for index in range(0, count, stride):
            ok = outcomes[index] == QUERY_SERVED
            tracker.record(
                latency_seconds=float(latency[index]) if ok else None,
                ok=ok,
                now=float(shard_times[index]),
                component="loadgen",
            )

    quantiles = e2e.quantiles()
    depths = depth_sketch.quantiles()
    report: dict[str, Any] = {
        "traffic": model.as_dict(),
        "cluster": {
            "num_shards": cluster.num_shards,
            "replication_factor": cluster.replication_factor,
            "queue_depth": cluster.queue_depth,
            "hash_replicas": cluster.hash_replicas,
        },
        "seed": seed,
        "workers": workers,
        "offered": result.offered,
        "served": result.served,
        "shed": result.shed,
        "abandoned": result.abandoned,
        "shed_fraction": float(result.shed_fraction),
        "makespan_seconds": float(result.makespan_seconds),
        "last_arrival_seconds": float(result.last_arrival_seconds),
        "last_finish_seconds": float(result.last_finish_seconds),
        "queries_per_second": float(result.queries_per_second),
        "queries_per_second_per_core": float(
            result.queries_per_second / cluster.num_shards
        ),
        "mean_wait_seconds": float(result.mean_wait_seconds),
        "mean_wait_seconds_offered": float(result.mean_wait_seconds_offered),
        "utilization": float(result.utilization),
        "hot_venue_share": stream.hot_venue_share(model.venues),
        "latency_seconds": {
            "p50": float(quantiles[0.5]),
            "p99": float(quantiles[0.99]),
            "p999": float(quantiles[0.999]),
            "mean": float(e2e.mean),
            "max": float(e2e.quantile(1.0)),
        },
        "queue_depth": {
            "p50": float(depths[0.5]),
            "p99": float(depths[0.99]),
            "p999": float(depths[0.999]),
            "max": float(depth_sketch.quantile(1.0)),
        },
    }
    if uplink_summary is not None:
        report["uplink"] = uplink_summary
    if tracker is not None:
        objectives = {}
        for objective in tracker.report()["objectives"]:
            events = sum(s["total_events"] for s in objective["scopes"])
            bad = sum(s["total_bad"] for s in objective["scopes"])
            objectives[objective["name"]] = {
                "total_events": events,
                "total_bad": bad,
                "error_rate": bad / events if events else 0.0,
            }
        report["slo"] = {
            "alerts_fired": tracker.alerts_fired,
            "objectives": objectives,
        }
    return report
