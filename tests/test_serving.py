"""Tests for the multi-venue serving layer (repro.serving).

Covers: consistent-hash placement (determinism, minimal remapping,
hypothesis round-trip of route→shard→venue), the venue registry's
per-venue save/load/refresh flows, frontend admission/routing/metrics
in inline and process modes, topology changes under live venues, the
discrete-event load simulator, retrieval-path parity through the
frontend, and the ``repro serve`` CLI.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    OracleRefresher,
    ServerConfig,
    UniquenessOracle,
    VisualPrintConfig,
    VisualPrintServer,
)
from repro.obs import MetricsRegistry
from repro.serving import (
    QUERY_ABANDONED,
    QUERY_SERVED,
    QUERY_SHED,
    ConsistentHashRing,
    EngineSpec,
    ServingFrontend,
    ShardSaturatedError,
    VenueRegistry,
    simulate_queue_network,
)
from repro.util.rng import rng_for
from repro.wardrive.environment import random_sift_descriptor

_KEYS = [f"venue-{index}" for index in range(200)]


def _small_server(seed: int = 3, count: int = 80) -> VisualPrintServer:
    rng = rng_for(seed, "test-serving/server")
    server = VisualPrintServer(
        VisualPrintConfig(descriptor_capacity=2048, fingerprint_size=10),
        bounds=(np.zeros(3), np.array([10.0, 10.0, 3.0])),
    )
    descriptors = np.array([random_sift_descriptor(rng) for _ in range(count)])
    server.ingest(descriptors, rng.uniform(0.0, 10.0, (count, 3)))
    return server


class _Echo:
    """Trivial engine: serve(payload) -> (tag, payload)."""

    def __init__(self, tag: str = "echo") -> None:
        self.tag = tag

    def serve(self, payload):
        return (self.tag, payload)


def _build_echo(tag: str) -> _Echo:
    return _Echo(tag)


class TestConsistentHashRing:
    def test_route_deterministic_across_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s2", "s0", "s1"])  # insertion order irrelevant
        assert [a.route(k) for k in _KEYS] == [b.route(k) for k in _KEYS]

    def test_seed_changes_placement(self):
        a = ConsistentHashRing(["s0", "s1", "s2"], seed=0)
        b = ConsistentHashRing(["s0", "s1", "s2"], seed=1)
        assert [a.route(k) for k in _KEYS] != [b.route(k) for k in _KEYS]

    def test_every_shard_gets_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        placement = ring.placement(_KEYS)
        assert set(placement) == {"s0", "s1", "s2", "s3"}
        assert all(placement.values())
        assert sorted(sum(placement.values(), [])) == sorted(_KEYS)

    def test_add_shard_moves_only_arcs_of_new_shard(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        before = {k: ring.route(k) for k in _KEYS}
        ring.add_shard("s4")
        after = {k: ring.route(k) for k in _KEYS}
        moved = [k for k in _KEYS if before[k] != after[k]]
        assert moved, "a new shard must take over some keys"
        # Every moved key moved TO the new shard, and the churn is a
        # minority: roughly 1/5 of keys, far below a full reshuffle.
        assert all(after[k] == "s4" for k in moved)
        assert len(moved) < len(_KEYS) / 2

    def test_remove_shard_moves_only_its_keys(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        before = {k: ring.route(k) for k in _KEYS}
        ring.remove_shard("s2")
        after = {k: ring.route(k) for k in _KEYS}
        for key in _KEYS:
            if before[key] == "s2":
                assert after[key] != "s2"
            else:
                assert after[key] == before[key]

    def test_add_then_remove_restores_placement(self):
        ring = ConsistentHashRing(["s0", "s1"])
        before = {k: ring.route(k) for k in _KEYS}
        ring.add_shard("s2")
        ring.remove_shard("s2")
        assert {k: ring.route(k) for k in _KEYS} == before

    def test_validation(self):
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add_shard("s0")
        with pytest.raises(ValueError):
            ring.add_shard("")
        with pytest.raises(KeyError):
            ring.remove_shard("missing")
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)
        empty = ConsistentHashRing()
        with pytest.raises(KeyError):
            empty.route("anything")

    @given(
        names=st.lists(
            st.text(min_size=1, max_size=30), min_size=1, max_size=40, unique=True
        ),
        num_shards=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_route_shard_venue_round_trip(self, names, num_shards, seed):
        """route→shard→venue: placement inverts routing exactly."""
        registry = VenueRegistry(num_shards, seed=seed)
        for name in names:
            shard = registry.register(name, _Echo(name))
            assert shard == registry.ring.route(name) == registry.shard_for(name)
        placement = registry.placement()
        # Every venue appears exactly once, on the shard route() names.
        seen = [name for venues in placement.values() for name in venues]
        assert sorted(seen) == sorted(names)
        for shard, venues in placement.items():
            for name in venues:
                assert registry.shard_for(name) == shard


class TestVenueRegistry:
    def test_register_and_lookup(self):
        registry = VenueRegistry(2)
        engine = _Echo("a")
        shard = registry.register("a", engine)
        assert shard in registry.shard_ids
        assert registry.engine("a") is engine
        assert "a" in registry and len(registry) == 1
        with pytest.raises(ValueError):
            registry.register("a", engine)
        with pytest.raises(ValueError):
            registry.register("", engine)
        registry.unregister("a")
        with pytest.raises(KeyError):
            registry.engine("a")
        with pytest.raises(KeyError):
            registry.unregister("a")

    def test_save_load_round_trip(self, tmp_path):
        registry = VenueRegistry(2)
        server = _small_server()
        registry.register("office", server)
        generation = registry.save_venue("office", tmp_path)
        assert generation == 1

        restored = VenueRegistry(2)
        shard = restored.load_venue("office", tmp_path)
        assert shard == registry.shard_for("office")
        loaded = restored.engine("office")
        np.testing.assert_array_equal(
            loaded.oracle.counting.counters, server.oracle.counting.counters
        )
        np.testing.assert_array_equal(loaded.descriptors, server.descriptors)

    def test_spec_for_stored_venue_builds(self, tmp_path):
        registry = VenueRegistry(1)
        registry.register("office", _small_server())
        registry.save_venue("office", tmp_path)
        spec = registry.spec_for_stored_venue("office", tmp_path)
        assert isinstance(spec, EngineSpec)
        rebuilt = spec.build()
        assert rebuilt.num_mappings == registry.engine("office").num_mappings

    def test_refresh_venue_pulls_oracle(self):
        registry = VenueRegistry(1)
        server = _small_server()
        registry.register("office", server)
        client_oracle = UniquenessOracle(server.config)
        refresher = OracleRefresher(client_oracle)
        report = registry.refresh_venue("office", refresher)
        assert report.status == "applied"
        np.testing.assert_array_equal(
            client_oracle.counting.counters, server.oracle.counting.counters
        )

    def test_refresh_venue_rejects_non_server_engine(self):
        registry = VenueRegistry(1)
        registry.register("echo", _Echo())
        refresher = OracleRefresher(UniquenessOracle(VisualPrintConfig()))
        with pytest.raises(TypeError):
            registry.refresh_venue("echo", refresher)


class TestServingFrontend:
    def test_inline_results_match_direct_calls(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(num_shards=3, registry=registry)
        engines = {name: _Echo(name) for name in ("a", "b", "c", "d")}
        for name, engine in engines.items():
            frontend.register_venue(name, engine)
        items = [(name, index) for index in range(5) for name in engines]
        served = frontend.map_many(items)
        direct = [engines[name].serve(payload) for name, payload in items]
        assert served == direct
        frontend.close()

    def test_per_shard_accounting(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(num_shards=2, registry=registry)
        for name in ("a", "b", "c"):
            frontend.register_venue(name, _Echo(name))
        frontend.map_many([("a", 0), ("b", 1), ("c", 2), ("a", 3)])
        placement = frontend.placement()
        counts = {"a": 2, "b": 1, "c": 1}
        for shard_id, venues in placement.items():
            expected = sum(counts[name] for name in venues)
            served = registry.counter(
                "serving_queries_served_total", shard=shard_id
            ).value
            assert served == expected
            assert registry.gauge(
                "serving_shard_queue_depth", shard=shard_id
            ).value == 0
        assert registry.gauge("serving_venues").value == 3
        assert registry.gauge("serving_shards").value == 2
        assert registry.histogram("serving_queue_wait_seconds").count == 4

    def test_unknown_venue_fails_before_admission(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(registry=registry)
        with pytest.raises(KeyError):
            frontend.call("missing", 1)
        assert registry.counter(
            "serving_queries_admitted_total", shard="shard-0"
        ).value == 0

    def test_reject_admission_sheds_when_saturated(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(
            num_shards=1, queue_depth=2, admission="reject", registry=registry
        )
        frontend.register_venue("a", _Echo())
        shard = frontend.venues.shard_for("a")
        # Inline execution never overlaps, so saturate the queue
        # accounting directly to exercise the admission policy.
        state = frontend._shards[shard]
        state.set_depth(2, frontend.queue_depth)
        with pytest.raises(ShardSaturatedError) as err:
            frontend.call("a", 1)
        assert err.value.shard_id == shard
        assert registry.counter(
            "serving_queries_rejected_total", shard=shard
        ).value == 1
        state.set_depth(0, frontend.queue_depth)
        assert frontend.call("a", 1) == ("echo", 1)

    def test_engine_failure_counted_and_propagates(self):
        class Boom:
            def serve(self, payload):
                raise RuntimeError("engine exploded")

        registry = MetricsRegistry()
        frontend = ServingFrontend(registry=registry)
        frontend.register_venue("bad", Boom())
        with pytest.raises(RuntimeError, match="engine exploded"):
            frontend.call("bad", 1)
        shard = frontend.venues.shard_for("bad")
        assert registry.counter(
            "serving_queries_failed_total", shard=shard
        ).value == 1
        assert frontend.shard_saturation(shard) == 0.0

    def test_bare_server_is_a_valid_engine(self):
        frontend = ServingFrontend()
        server = _small_server()
        frontend.register_venue("office", server)
        rng = rng_for(5, "test-serving/query")
        take = rng.choice(server.num_mappings, size=16, replace=False)
        from repro.core import Fingerprint
        from repro.features.keypoint import KeypointSet

        descriptors = server.descriptors[np.sort(take)]
        n = len(descriptors)
        fingerprint = Fingerprint(
            keypoints=KeypointSet(
                positions=rng.uniform(50, 590, (n, 2)).astype(np.float32),
                scales=np.ones(n, np.float32),
                orientations=np.zeros(n, np.float32),
                responses=np.ones(n, np.float32),
                descriptors=descriptors.astype(np.float32),
            ),
            uniqueness_counts=np.zeros(n, dtype=np.int64),
        )
        answer = frontend.call("office", fingerprint)
        direct = server.localize(fingerprint)
        assert answer.pose == direct.pose
        assert answer.matched_points == direct.matched_points

    def test_add_shard_moves_minimally_and_keeps_serving(self):
        frontend = ServingFrontend(num_shards=2)
        engines = {f"v{i}": _Echo(f"v{i}") for i in range(12)}
        for name, engine in engines.items():
            frontend.register_venue(name, engine)
        before = {
            name: frontend.venues.shard_for(name) for name in engines
        }
        moved = frontend.add_shard()
        after = {name: frontend.venues.shard_for(name) for name in engines}
        assert sorted(moved) == sorted(
            name for name in engines if before[name] != after[name]
        )
        for name in moved:
            assert after[name] == "shard-2"
        results = frontend.map_many([(name, 1) for name in engines])
        assert results == [(name, 1) for name in engines]

    def test_remove_shard_drains_and_keeps_serving(self):
        frontend = ServingFrontend(num_shards=3)
        engines = {f"v{i}": _Echo(f"v{i}") for i in range(12)}
        for name, engine in engines.items():
            frontend.register_venue(name, engine)
        frontend.remove_shard("shard-1")
        assert "shard-1" not in frontend.venues.shard_ids
        results = frontend.map_many([(name, 2) for name in engines])
        assert results == [(name, 2) for name in engines]
        frontend.remove_shard("shard-0")
        with pytest.raises(ValueError):
            frontend.remove_shard("shard-2")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServingFrontend(queue_depth=0)
        with pytest.raises(ValueError):
            ServingFrontend(admission="drop")

    def test_from_config(self):
        frontend = ServingFrontend.from_config(
            ServerConfig(num_shards=3, queue_depth=7, admission="reject")
        )
        assert frontend.venues.shard_ids == ["shard-0", "shard-1", "shard-2"]
        assert frontend.queue_depth == 7
        assert frontend.admission == "reject"
        assert not frontend.process_mode

    def test_process_mode_serves_and_merges_metrics(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(num_shards=2, workers=2, registry=registry)
        frontend.register_venue("a", EngineSpec(_build_echo, "a"))
        frontend.register_venue("b", EngineSpec(_build_echo, "b"))
        results = frontend.map_many([("a", 1), ("b", 2), ("a", 3)])
        assert results == [("a", 1), ("b", 2), ("a", 3)]
        frontend.close()
        served = sum(
            registry.counter("serving_queries_served_total", shard=s).value
            for s in ("shard-0", "shard-1")
        )
        assert served == 3

    def test_process_mode_rejects_attach_after_start(self):
        frontend = ServingFrontend(num_shards=1, workers=2)
        frontend.register_venue("a", EngineSpec(_build_echo, "a"))
        assert frontend.call("a", 1) == ("a", 1)
        with pytest.raises(RuntimeError, match="already started"):
            frontend.register_venue("b", EngineSpec(_build_echo, "b"))
        frontend.close()


def _fixed_gap(service, num_shards, queue_depth=64, gap=0.0):
    """Query i arrives at ``i * gap`` on shard ``i % num_shards``."""
    count = len(service)
    result, _ = simulate_queue_network(
        [index * gap for index in range(count)],
        service,
        [index % num_shards for index in range(count)],
        num_shards,
        queue_depth=queue_depth,
    )
    return result


class TestLoadSimulator:
    def test_throughput_scales_with_shards(self):
        service = [0.01] * 200
        one = _fixed_gap(service, 1, queue_depth=200)
        four = _fixed_gap(service, 4, queue_depth=200)
        assert one.served == four.served == 200
        assert four.queries_per_second >= 2.0 * one.queries_per_second
        assert four.utilization > 0.9

    def test_open_loop_sheds_beyond_queue_bound(self):
        # Offered load 10x one shard's capacity with a tiny queue: most
        # arrivals shed, served + shed accounts for every query.
        result = _fixed_gap([0.1] * 100, 1, queue_depth=2, gap=0.01)
        assert result.shed > 0
        assert result.served + result.shed == 100

    def test_underload_has_no_waiting(self):
        result = _fixed_gap([0.01] * 50, 2, gap=1.0)
        assert result.shed == 0
        assert result.mean_wait_seconds == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            simulate_queue_network([0.0], [0.1], [0], 0)
        with pytest.raises(ValueError, match="queue_depth"):
            simulate_queue_network([0.0], [0.1], [0], 1, queue_depth=0)
        with pytest.raises(ValueError, match="negative"):
            simulate_queue_network([0.0], [-1.0], [0], 1)

    # -- accounting bugfix regressions (ISSUE 9 satellites) ------------

    def test_deque_backlog_matches_reference_accounting(self):
        """The deque rewrite preserves the exact shed/served pattern."""
        # Saturated single shard, hand-traced: with service 3.0, gap
        # 1.0, depth 1, every third arrival is served at its arrival
        # instant (the queue retires exactly then) and the two between
        # are shed.
        result = _fixed_gap([3.0] * 8, 1, queue_depth=1, gap=1.0)
        assert result.served == 3  # queries 0, 3, 6
        assert result.shed == 5
        assert result.offered == 8
        assert result.wait_seconds_total == 0.0
        assert result.last_finish_seconds == 9.0

    def test_makespan_extends_to_last_offered_arrival(self):
        """qps divides by max(last_arrival, last_finish), not the served
        prefix's finish — a tail of offered-but-never-served arrivals
        (e.g. lost in the channel leg) must not inflate throughput."""
        arrivals = [float(i) for i in range(10)]
        service = [0.5] * 10
        # The channel swallows everything after t=2: offered load keeps
        # arriving until t=9 but nothing reaches a shard.
        lost = [False] * 3 + [True] * 7
        result, outcomes = simulate_queue_network(
            arrivals, service, [0] * 10, num_shards=1, queue_depth=4,
            abandoned=lost,
        )
        assert result.served == 3
        assert result.abandoned == 7
        assert result.offered == 10
        assert result.last_finish_seconds == 2.5
        assert result.last_arrival_seconds == 9.0
        assert result.makespan_seconds == 9.0
        assert result.queries_per_second == pytest.approx(3 / 9.0)
        # The pre-fix accounting would have reported served/last_finish.
        assert result.queries_per_second < result.served / result.last_finish_seconds
        assert outcomes == [QUERY_SERVED] * 3 + [QUERY_ABANDONED] * 7

    def test_saturation_locks_corrected_throughput_value(self):
        """Saturated run: the corrected qps value, locked by hand."""
        result = _fixed_gap([3.0] * 8, 1, queue_depth=1, gap=1.0)
        # Served at t=0,3,6 finishing at 3,6,9; last arrival t=7.
        assert result.makespan_seconds == max(7.0, 9.0) == 9.0
        assert result.queries_per_second == pytest.approx(3 / 9.0)

    def test_overload_wait_accounting_exports_both_views(self):
        """Served-only mean wait *improves* as overload worsens (the
        survivor bias the offered count exposes)."""
        mild = _fixed_gap([1.0] * 60, 1, queue_depth=4, gap=0.5)
        heavy = _fixed_gap([1.0] * 60, 1, queue_depth=4, gap=0.05)
        assert heavy.shed_fraction > mild.shed_fraction > 0.0
        # The misleading direction the fix documents: heavier shedding,
        # *better-looking* served-only wait.
        assert heavy.mean_wait_seconds < mild.mean_wait_seconds
        for result in (mild, heavy):
            assert result.offered == 60 == result.served + result.shed
            assert result.mean_wait_seconds_offered <= result.mean_wait_seconds
            exported = result.as_dict()
            assert exported["offered"] == 60
            assert exported["mean_wait_seconds"] == result.mean_wait_seconds
            assert (
                exported["mean_wait_seconds_offered"]
                == result.mean_wait_seconds_offered
            )
            assert exported["shed_fraction"] == result.shed_fraction

    # -- the generalized queue-network entry point ---------------------

    def test_explicit_arrivals_validate_ordering_and_length(self):
        with pytest.raises(ValueError, match="sorted"):
            simulate_queue_network([1.0, 0.5], [0.1, 0.1], [0, 0], 1)
        with pytest.raises(ValueError, match="length"):
            simulate_queue_network([0.0], [0.1, 0.1], [0, 0], 1)
        with pytest.raises(ValueError):
            simulate_queue_network([0.0], [0.1], [0], 0)

    def test_replica_choices_join_shortest_queue(self):
        # Two shards, every query may use either: a long-running query
        # parks on shard 0 and the rest flow through shard 1 unshed.
        arrivals = [0.0, 0.1, 0.2, 0.3]
        service = [10.0, 0.05, 0.05, 0.05]
        choices = [(0, 1)] * 4
        result, outcomes = simulate_queue_network(
            arrivals, service, choices, 2, queue_depth=1
        )
        assert result.served == 4
        assert result.shed == 0
        assert outcomes == [QUERY_SERVED] * 4
        assert result.busy_seconds_per_shard[0] == pytest.approx(10.0)
        assert result.busy_seconds_per_shard[1] == pytest.approx(0.15)

    def test_single_candidate_sheds_where_replicas_absorb(self):
        arrivals = [0.0, 0.1, 0.2, 0.3]
        service = [10.0, 0.05, 0.05, 0.05]
        pinned, _ = simulate_queue_network(
            arrivals, service, [0] * 4, 2, queue_depth=1
        )
        replicated, _ = simulate_queue_network(
            arrivals, service, [(0, 1)] * 4, 2, queue_depth=1
        )
        assert pinned.shed == 3
        assert replicated.shed == 0
        assert replicated.queries_per_second > pinned.queries_per_second

    def test_observation_hooks_fire_in_arrival_order(self):
        seen_served = []
        seen_arrivals = []
        result, outcomes = simulate_queue_network(
            [0.0, 0.5, 0.6],
            [1.0, 1.0, 1.0],
            [0, 0, 0],
            1,
            queue_depth=1,
            on_served=lambda i, wait, finish: seen_served.append((i, wait, finish)),
            on_arrival=lambda i, shard, depth: seen_arrivals.append((i, shard, depth)),
        )
        assert outcomes == [QUERY_SERVED, QUERY_SHED, QUERY_SHED]
        assert seen_served == [(0, 0.0, 1.0)]
        assert seen_arrivals == [(0, 0, 0), (1, 0, 1), (2, 0, 1)]
        assert result.served == 1 and result.shed == 2


class TestServingParity:
    """fig13's retrieval path through the frontend is bit-identical."""

    @pytest.fixture(scope="class")
    def tiny_workload(self, tmp_path_factory):
        from repro.evaluation.datasets import build_workload

        return build_workload(
            seed=11,
            num_scenes=4,
            num_distractors=8,
            views_per_scene=2,
            image_size=128,
            cache_dir=tmp_path_factory.mktemp("serving-workload"),
        )

    def test_retrieval_through_frontend_matches_direct(self, tiny_workload):
        from repro.evaluation.retrieval import (
            build_oracle,
            build_scene_database,
            run_random,
            run_visualprint,
        )
        from repro.matching import LshMatcher

        database = build_scene_database(tiny_workload)
        oracle = build_oracle(tiny_workload)
        matcher = LshMatcher(database.descriptors)
        kwargs = dict(count=40, min_votes=4)

        direct = [
            run_random(tiny_workload, database, matcher, **kwargs),
            run_visualprint(tiny_workload, database, matcher, oracle, **kwargs),
        ]
        with ServingFrontend(num_shards=2) as frontend:
            served = [
                run_random(
                    tiny_workload, database, matcher, frontend=frontend, **kwargs
                ),
                run_visualprint(
                    tiny_workload,
                    database,
                    matcher,
                    oracle,
                    frontend=frontend,
                    **kwargs,
                ),
            ]
        for a, b in zip(direct, served):
            assert a.scheme == b.scheme
            np.testing.assert_array_equal(a.predicted_scenes, b.predicted_scenes)
            np.testing.assert_array_equal(a.uploaded_keypoints, b.uploaded_keypoints)


class TestServeCli:
    def test_bootstrap_and_serve(self, tmp_path, capsys):
        from repro.cli import main

        state = tmp_path / "venues"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "serve",
                    "--state",
                    str(state),
                    "--bootstrap",
                    "2",
                    "--shards",
                    "2",
                    "--queries",
                    "4",
                    "--metrics-json",
                    str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bootstrapped 2 venue(s)" in out
        assert "served 4 queries over 2 venue(s) on 2 shard(s)" in out
        assert metrics_path.exists()

    def test_serve_existing_state(self, tmp_path, capsys):
        from repro.cli import main

        state = tmp_path / "venues"
        assert main(["serve", "--state", str(state), "--bootstrap", "1"]) == 0
        capsys.readouterr()
        assert main(["serve", "--state", str(state), "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "served 2 queries over 1 venue(s)" in out

    def test_serve_empty_state_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["serve", "--state", str(tmp_path / "nothing")]) == 2
        assert "no venues found" in capsys.readouterr().out


class TestShardDepthClamp:
    """Regression: saturation gauges must stay in [0, 1] and depth
    non-negative even if release accounting runs one extra time (the
    reject-path decrement hazard)."""

    def _state(self, frontend):
        return frontend._shards[frontend.venues.shard_ids[0]]

    def test_negative_depth_clamps_to_zero(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(queue_depth=4, registry=registry)
        state = self._state(frontend)
        state.set_depth(-1, frontend.queue_depth)
        assert state.depth == 0
        assert state.m_depth.value == 0.0
        assert state.m_saturation.value == 0.0

    def test_saturation_capped_at_one(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(queue_depth=2, registry=registry)
        state = self._state(frontend)
        state.set_depth(5, frontend.queue_depth)
        assert state.m_saturation.value == 1.0

    def test_zero_queue_depth_reports_zero_saturation(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(queue_depth=1, registry=registry)
        state = self._state(frontend)
        state.set_depth(1, 0)
        assert state.m_saturation.value == 0.0

    def test_double_release_after_reject_stays_consistent(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(
            queue_depth=2, admission="reject", registry=registry
        )
        frontend.register_venue("a", _Echo())
        shard = frontend.venues.shard_for("a")
        state = frontend._shards[shard]
        state.set_depth(2, frontend.queue_depth)
        with pytest.raises(ShardSaturatedError):
            frontend.call("a", 1)
        # One release per admission is correct; a stray extra decrement
        # (the historical double-release) must not push accounting
        # negative or break later serving.
        state.set_depth(state.depth - 1, frontend.queue_depth)
        state.set_depth(state.depth - 1, frontend.queue_depth)
        state.set_depth(state.depth - 1, frontend.queue_depth)
        assert state.depth == 0
        assert state.m_saturation.value == 0.0
        assert frontend.call("a", 2) == ("echo", 2)
        assert state.depth == 0
        assert registry.counter(
            "serving_queries_served_total", shard=shard
        ).value == 1


class TestReplication:
    """Successor-list replication: ring → registry → frontend routing."""

    def test_route_replicas_primary_first_and_distinct(self):
        ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        for key in _KEYS:
            replicas = ring.route_replicas(key, 3)
            assert replicas[0] == ring.route(key)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_route_replicas_deterministic_across_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2", "s3"])
        b = ConsistentHashRing(["s3", "s1", "s0", "s2"])
        for key in _KEYS[:50]:
            assert a.route_replicas(key, 2) == b.route_replicas(key, 2)

    def test_route_replicas_caps_at_shard_count(self):
        ring = ConsistentHashRing(["s0", "s1"])
        replicas = ring.route_replicas("venue", 10)
        assert sorted(replicas) == ["s0", "s1"]

    def test_route_replicas_validation(self):
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(ValueError):
            ring.route_replicas("venue", 0)
        with pytest.raises(KeyError):
            ConsistentHashRing().route_replicas("venue", 1)

    def test_registry_shards_for_matches_ring(self):
        registry = VenueRegistry(4, replication_factor=2)
        for key in _KEYS[:50]:
            replicas = registry.shards_for(key)
            assert replicas == registry.ring.route_replicas(key, 2)
            assert replicas[0] == registry.shard_for(key)

    def test_registry_placement_lists_every_replica(self):
        registry = VenueRegistry(4, replication_factor=2)
        names = _KEYS[:20]
        for name in names:
            registry.register(name, _Echo(name))
        placement = registry.placement()
        seen = [name for venues in placement.values() for name in venues]
        assert sorted(seen) == sorted(names * 2)
        for name in names:
            for shard in registry.shards_for(name):
                assert name in placement[shard]

    def test_registry_rf1_placement_unchanged(self):
        plain = VenueRegistry(4)
        replicated = VenueRegistry(4, replication_factor=1)
        for name in _KEYS[:20]:
            plain.register(name, _Echo(name))
            replicated.register(name, _Echo(name))
        assert plain.placement() == replicated.placement()

    def test_registry_validation(self):
        with pytest.raises(ValueError):
            VenueRegistry(2, replication_factor=0)

    def test_frontend_replicated_venue_served_from_every_replica(self):
        registry = MetricsRegistry()
        frontend = ServingFrontend(
            num_shards=4, replication_factor=2, registry=registry
        )
        frontend.register_venue("hot", _Echo())
        primary, secondary = frontend.venues.shards_for("hot")
        # Equal depth ties toward the primary.
        assert frontend.call("hot", 1) == ("echo", 1)
        assert registry.counter(
            "serving_queries_served_total", shard=primary
        ).value == 1
        # A loaded primary diverts the next query to the secondary.
        frontend._shards[primary].set_depth(5, frontend.queue_depth)
        assert frontend.call("hot", 2) == ("echo", 2)
        assert registry.counter(
            "serving_queries_served_total", shard=secondary
        ).value == 1

    def test_frontend_rf1_matches_default_routing(self):
        plain = ServingFrontend(num_shards=4, registry=MetricsRegistry())
        replicated = ServingFrontend(
            num_shards=4, replication_factor=1, registry=MetricsRegistry()
        )
        for name in _KEYS[:20]:
            assert plain.register_venue(name, _Echo(name)) == (
                replicated.register_venue(name, _Echo(name))
            )
        assert plain.placement() == replicated.placement()

    def test_from_config_carries_replication_factor(self):
        config = ServerConfig(num_shards=4, replication_factor=3)
        frontend = ServingFrontend.from_config(config, registry=MetricsRegistry())
        assert frontend.venues.replication_factor == 3
        assert len(frontend.venues.shards_for("anything")) == 3

    def test_add_shard_rebalances_replica_sets_and_keeps_serving(self):
        frontend = ServingFrontend(
            num_shards=3, replication_factor=2, registry=MetricsRegistry()
        )
        names = _KEYS[:30]
        for name in names:
            frontend.register_venue(name, _Echo(name))
        frontend.add_shard("shard-3")
        placement = frontend.placement()
        for name in names:
            for shard in frontend.venues.shards_for(name):
                assert name in placement[shard]
            assert frontend.call(name, name) == (name, name)

    def test_remove_shard_rebalances_replica_sets_and_keeps_serving(self):
        frontend = ServingFrontend(
            num_shards=4, replication_factor=2, registry=MetricsRegistry()
        )
        names = _KEYS[:30]
        for name in names:
            frontend.register_venue(name, _Echo(name))
        frontend.remove_shard("shard-1")
        placement = frontend.placement()
        assert "shard-1" not in placement
        for name in names:
            replicas = frontend.venues.shards_for(name)
            assert "shard-1" not in replicas
            for shard in replicas:
                assert name in placement[shard]
            assert frontend.call(name, name) == (name, name)

    def test_unregister_detaches_all_replicas(self):
        frontend = ServingFrontend(
            num_shards=4, replication_factor=2, registry=MetricsRegistry()
        )
        frontend.register_venue("hot", _Echo())
        frontend.unregister_venue("hot")
        placement = frontend.placement()
        assert all("hot" not in venues for venues in placement.values())
        with pytest.raises(KeyError):
            frontend.call("hot", 1)
