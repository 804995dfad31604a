"""The benchmark's three workloads and their set-up.

* ``localize_closed`` — one phone, closed loop: Fig. 19 keypoint
  captures → client rank/serialize → clean LTE uplink → one-shard inline
  :class:`repro.serving.ServingFrontend` → ``VisualPrintServer.localize``.
* ``camera_stream`` — one phone, closed loop: rendered frames →
  ``process_frame`` (SIFT → oracle → serialize) → clean LTE uplink →
  scene identification (``LshMatcher.match`` + ``vote_scene``).
* ``fleet_open`` — ~200 phones, open loop from
  :func:`repro.loadgen.generate_arrivals`, each with its own adaptive
  client and bursty faulty LTE channel, into a one-shard process-mode
  frontend that sheds load (``admission="reject"``).

Every input is generated from the workload seed, except the two
wardriven venues, which are built from :data:`VENUE_SEED` in every run;
see README.md for why each workload exists and which layers it
exercises.
"""

from __future__ import annotations

import asyncio
import hashlib
import multiprocessing
import resource
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.matching as matching
from repro.core import (
    UniquenessOracle,
    VisualPrintClient,
    VisualPrintConfig,
    VisualPrintServer,
)
from repro.core.fingerprint import degradation_keep_counts
from repro.evaluation.experiments.fig19_localization import query_poses, simulate_query
from repro.features import SiftExtractor, SiftParams
from repro.imaging.synth import SceneLibrary
from repro.loadgen import TrafficModel, generate_arrivals
from repro.matching import LshMatcher, SceneDatabase
from repro.matching.schemes import NO_SCENE
from repro.network import CHANNEL_PRESETS, FaultSpec, FaultyChannel
from repro.network.linkstate import AdaptiveConfig
from repro.obs import MetricsRegistry, use_registry
from repro.serving import ServingFrontend, ShardSaturatedError
from repro.util.rng import derive_seed, rng_for
from repro.wardrive import DriftModel, IndoorEnvironment, TangoRig, WardriveSession

from perfbench.hostspeed import HostSpeed
from perfbench.layers import SIMULATED, LayerTracer

#: Answers later than this after the shutter miss the latency limit.
LATENCY_LIMIT_S = 1.0
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# Fig. 19 operating point.
VENUE_KINDS = ("office", "cafeteria")
#: Seed of the wardriven venues (Fig. 19's default seed).  The venues
#: are the fixed scenario, like a dataset; ``--seed`` draws the query
#: poses, their captures, the query order and the channel jitter.  One
#: venue's queries solve ~10% slower than another's, a difference that
#: venues drawn from ``--seed`` would add to every run-to-run spread.
VENUE_SEED = 3
DRIFT_SCALE = 2.0
FINGERPRINT_SIZE = 60
QUERIES_PER_VENUE = 64
LOCALIZE_DIGEST_QUERIES = 32

# Fig. 13 ``--fast`` database (10 scenes, 30 distractors), queried with
# 25 views per scene instead of 3, so a run's accuracy rests on 250
# distinct frames; VisualPrint-60 scene identification.
CAMERA_LIBRARY = dict(num_scenes=10, num_distractors=30, views_per_scene=25)
CAMERA_IMAGE_SIZE = 224
CAMERA_CONTRAST = 0.008
CAMERA_MIN_VOTES = 5
CAMERA_DIGEST_FRAMES = 60

# Fleet: absolute rates, so later changes are measured at the same load.
FLEET_PHONES = 200
FLEET_CALM_QPS = 2.0
FLEET_BURST_MULTIPLIER = 3.0
FLEET_BURST_DWELL_S = 2.0
FLEET_CALM_DWELL_S = 4.0
FLEET_ZIPF = 1.1
FLEET_QUEUE_DEPTH = 8
#: The repo's "bursty" LTE regime (see the adaptive_offload experiment).
BURSTY_LTE = dict(loss=0.25, outage_enter=0.06, outage_exit=0.3)
#: A fleet run whose generator p99 lateness exceeds this share of the
#: latency limit is invalid: its latencies would measure the generator.
MAX_LATE_FRACTION = 0.1


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Raw per-query outcomes of one timed run, kept by the benchmark."""

    attempted: int = 0
    answered: int = 0
    within_limit: int = 0
    right_place: int = 0
    shed: int = 0
    abandoned: int = 0
    errors: int = 0
    no_match: int = 0
    # Shutter to reply, for every query the server replied to (an
    # answer or a no-match), and the simulated channel seconds in each.
    latencies: list[float] = field(default_factory=list)
    latency_sim: list[float] = field(default_factory=list)
    # Measured wall part of each replied query, by whether it was traced.
    wall: dict[bool, list[float]] = field(
        default_factory=lambda: {False: [], True: []}
    )
    pose_errors: list[float] = field(default_factory=list)
    air_bytes: int = 0
    wasted_bytes: int = 0
    attempts: int = 0
    retries: int = 0
    degraded: int = 0
    uplink_sim: list[float] = field(default_factory=list)
    queue_wait: list[float] = field(default_factory=list)
    service: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    # Closed loops, traced run: (traced wall, untraced wall) per input.
    pairs: list[tuple[float, float]] = field(default_factory=list)
    # Closed loops: (answered, right place) per distinct input, from the
    # first time it ran.  Outputs are deterministic per input, so a loop
    # that wraps around would only re-weight the inputs it repeats.
    by_input: dict[int, tuple[bool, bool]] = field(default_factory=dict)
    depth_max: int = 0
    check_failures: int = 0
    failures: list[str] = field(default_factory=list)
    digest_items: list[str] = field(default_factory=list)

    def first_outcome(self, key: int, answered: bool, right: bool) -> None:
        """A closed loop's outcome for input ``key``, kept the first time it runs.

        A repeat of the input must give the same outcome.
        """
        first = self.by_input.setdefault(key, (answered, right))
        if first != (answered, right):
            self.fail(f"input {key}: outcome {(answered, right)} on a repeat, {first} first")

    def fractions(self) -> tuple[float, float]:
        """Answered and right-place shares: per distinct input on the
        closed loops, per attempted query on the open loop."""
        if self.by_input:
            outcomes = self.by_input.values()
            return (
                sum(answered for answered, _ in outcomes) / len(outcomes),
                sum(right for _, right in outcomes) / len(outcomes),
            )
        attempted = max(self.attempted, 1)
        return self.answered / attempted, self.right_place / attempted

    def fail(self, message: str) -> None:
        """Record a failed output check (the first few are kept verbatim)."""
        self.check_failures += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def record_uplink(self, outcome) -> None:
        self.attempts += outcome.attempts
        self.retries += outcome.retries
        self.degraded += outcome.status == "degraded"
        self.abandoned += outcome.status == "abandoned"
        self.wasted_bytes += outcome.wasted_bytes
        self.air_bytes += sum(
            r.payload_bytes for r in outcome.attempt_records if r.kind != "outage"
        )
        self.uplink_sim.append(outcome.latency_seconds)

    def record_service(self, depth: int, submit_seconds: float, service: float) -> None:
        """One admitted query: queue depth it joined, its wait and service."""
        self.depth_max = max(self.depth_max, depth + 1)
        self.service.append(service)
        self.queue_wait.append(max(submit_seconds - service, 0.0))

    def reply(self, wall: float, simulated: float, traced: bool, matched: bool) -> None:
        """One reply: its measured wall and simulated channel seconds.

        ``matched`` is False for a no-match fallback, which is replied
        but not answered.
        """
        latency = wall + simulated
        self.latencies.append(latency)
        self.latency_sim.append(simulated)
        self.wall[traced].append(wall)
        if matched:
            self.answered += 1
            self.within_limit += latency <= LATENCY_LIMIT_S
        else:
            self.no_match += 1


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_seconds: list[float]
    elapsed: float
    schedule_seconds: float
    tally: Tally
    registry: MetricsRegistry
    setup_layers: dict[str, float]
    peak_rss_mb: float
    provenance: dict
    digest_queries: int = 0
    serving: dict[str, float] = field(default_factory=dict)
    #: Reference-kernel timings of a closed loop; None on the open loop.
    speed: HostSpeed | None = None

    def speed_factor(self) -> float:
        """Multiplier taking measured seconds to reference-speed seconds."""
        return self.speed.factor() if self.speed is not None else 1.0


def digest(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _pose_text(pose) -> str:
    return ",".join(
        float(v).hex() for v in (pose.x, pose.y, pose.z, pose.yaw, pose.pitch, pose.roll)
    )


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(build, discard=None, speed: HostSpeed | None = None):
    """Run ``build()`` SETUP_REPEATS times, each under a fresh registry.

    Returns the last build, its registry, and every set-up's seconds.
    Each earlier build goes to ``discard`` and is dropped before the
    next one starts, so two never hold memory at once.  ``speed`` times
    its reference kernel before each set-up and after the last.
    """
    seconds: list[float] = []
    kept = None
    for _ in range(SETUP_REPEATS):
        if kept is not None:
            if discard is not None:
                discard(kept[0])
            kept = None
        if speed is not None:
            speed.sample()
        registry = MetricsRegistry()
        started = time.perf_counter()
        with use_registry(registry):
            kept = (build(), registry)
        seconds.append(time.perf_counter() - started)
    if speed is not None:
        speed.sample()
    return kept[0], kept[1], seconds


# ----------------------------------------------------------------------
# Venues (localize_closed, fleet_open)
# ----------------------------------------------------------------------


@dataclass
class Venue:
    name: str
    server: VisualPrintServer
    wardrive_s: float
    ingest_s: float

    @property
    def oracle(self) -> UniquenessOracle:
        return self.server.publish_oracle()


def build_venue(kind: str, seed: int) -> Venue:
    """Wardrive one venue with drift + ICP and ingest it into a server."""
    environment = IndoorEnvironment.build(kind, seed=seed)
    started = time.perf_counter()
    mapping = WardriveSession(
        environment, seed=seed, drift=DriftModel(scale=DRIFT_SCALE)
    ).run(use_icp=True)
    wardrive_s = time.perf_counter() - started
    config = VisualPrintConfig(
        descriptor_capacity=max(mapping.num_mappings, 1024),
        fingerprint_size=FINGERPRINT_SIZE,
    )
    server = VisualPrintServer(
        config, bounds=environment.bounds, registry=MetricsRegistry()
    )
    started = time.perf_counter()
    server.ingest(mapping.descriptors, mapping.positions)
    ingest_s = time.perf_counter() - started
    return Venue(f"{kind}-{seed}", server, wardrive_s, ingest_s)


def build_venues() -> list[Venue]:
    """Both venues, built side by side in forked workers (one per core)."""
    with ProcessPoolExecutor(
        len(VENUE_KINDS), mp_context=multiprocessing.get_context("fork")
    ) as pool:
        return list(pool.map(build_venue, VENUE_KINDS, [VENUE_SEED] * len(VENUE_KINDS)))


def venue_inputs(seed: int) -> dict[str, tuple[IndoorEnvironment, list[tuple]]]:
    """Fig. 19 captures at held-out poses drawn from ``seed``, per venue name.

    Returns ``{venue name: (environment, [(true pose, keypoints), ...])}``.
    The environment is rebuilt here (it is deterministic), so the inputs
    exist before, and apart from, the timed set-up.
    """
    out = {}
    for kind in VENUE_KINDS:
        environment = IndoorEnvironment.build(kind, seed=VENUE_SEED)
        name = f"{kind}-{VENUE_SEED}"
        rig = TangoRig(environment, seed=seed + 50)
        rng = rng_for(seed, f"perfbench/querydesc/{name}")
        captures = []
        for pose in query_poses(environment, QUERIES_PER_VENUE, seed):
            keypoints = simulate_query(environment, pose, rig, rng)
            if keypoints is not None:
                captures.append((pose, keypoints))
        out[name] = (environment, captures)
    return out


class VenueEngine:
    """Frontend engine: localize one fingerprint and time the service.

    A request is ``(fingerprint, traced)``; the reply is ``(answer,
    service seconds, peak RSS MB of the serving process)``.  In a process
    shard a traced request opens its own query record, so the layers it
    crosses report into the shard's registry and merge home at
    ``frontend.close()``.
    """

    def __init__(self, server: VisualPrintServer, tracer: LayerTracer | None) -> None:
        self.server = server
        self.tracer = tracer

    def serve(self, request):
        fingerprint, traced = request
        started = time.perf_counter()
        if traced and self.tracer is not None and not self.tracer.active():
            with self.tracer.query("shard.serve"):
                answer = self.server.localize(fingerprint)
        else:
            answer = self.server.localize(fingerprint)
        return answer, time.perf_counter() - started, peak_rss_mb()


#: A localization answer within this distance of the true position
#: identifies the right place (the localization analogue of a correct
#: scene in camera_stream).
RIGHT_PLACE_M = 5.0


def _score_pose(tally: Tally, bounds, answer, truth, index: int) -> tuple[bool, bool]:
    """Check and score one localization answer: (matched, right place).

    ``matched`` is False for a no-match fallback.
    """
    pose = answer.pose
    values = np.array([pose.x, pose.y, pose.z, pose.yaw, pose.pitch, pose.roll])
    low, high = bounds
    if not np.isfinite(values).all():
        tally.fail(f"query {index}: non-finite pose {pose}")
    elif (values[:3] < low - 1e-6).any() or (values[:3] > high + 1e-6).any():
        tally.fail(f"query {index}: pose {values[:3]} outside its venue bounds")
    if answer.matched_points == 0:
        return False, False
    error = float(pose.position_error(truth))
    tally.pose_errors.append(error)
    right = error <= RIGHT_PLACE_M
    tally.right_place += right
    return True, right


def _check_payload(tally: Tally, client, fingerprint, index: int) -> None:
    """The size priced on the air is the size of the real serialized payload."""
    ladder = client.degradation_ladder(fingerprint)
    if ladder[0] != len(client.last_payload):
        tally.fail(
            f"query {index}: ladder size {ladder[0]} != payload "
            f"{len(client.last_payload)} bytes"
        )


def _venue_frontend(seed: int, tracer, process_shard: bool):
    """Venue wardrive + ICP + ingest and a one-shard frontend over both venues."""
    venues = build_venues()
    if process_shard:
        frontend = ServingFrontend(
            num_shards=1,
            workers=2,
            queue_depth=FLEET_QUEUE_DEPTH,
            admission="reject",
            seed=seed,
        )
    else:
        frontend = ServingFrontend(num_shards=1, seed=seed)
    for venue in venues:
        frontend.register_venue(venue.name, VenueEngine(venue.server, tracer))
    return venues, frontend


def _depth(frontend: ServingFrontend, venue: str) -> int:
    """Queries queued or executing on ``venue``'s shard right now."""
    shard = frontend.venues.shard_for(venue)
    return round(frontend.shard_saturation(shard) * frontend.queue_depth)


def _serving_counts(registry: MetricsRegistry, warmups: int) -> dict[str, float]:
    """The frontend's own admission counters, less the set-up warm-ups."""

    def total(name: str) -> float:
        return sum(i.value for i in registry.instruments() if i.name == name)

    return {
        "admitted": total("serving_queries_admitted_total") - warmups,
        "rejected": total("serving_queries_rejected_total"),
        "served": total("serving_queries_served_total") - warmups,
        "failed": total("serving_queries_failed_total"),
    }


def _venue_setup_layers(venues: list[Venue]) -> dict[str, float]:
    return {
        "wardrive.session_s": sum(v.wardrive_s for v in venues),
        "server.ingest_s": sum(v.ingest_s for v in venues),
        "matching.db_build_s": 0.0,
    }


async def _closed_loop(
    seconds: float, tracer, workload: str, step, tally: Tally, speed: HostSpeed
) -> float:
    """Run ``await step(index, record)`` for consecutive inputs until ``seconds`` pass.

    Untraced, each input runs once.  Traced, each input runs twice back
    to back, once under a query record and once not, in alternating
    order, so each pair prices the tracing on identical input at nearly
    the same moment.  Between inputs ``speed`` times its reference
    kernel now and then.  Returns the elapsed wall seconds less the
    kernel's.
    """
    started = time.perf_counter()
    probe_before = speed.seconds
    index = 0
    while time.perf_counter() - started < seconds:
        speed.maybe_sample()
        if tracer is None:
            await step(index, None)
        else:
            walls = {}
            for traced in (True, False) if index % 2 == 0 else (False, True):
                context = (
                    tracer.query("query", workload=workload, index=index)
                    if traced
                    else nullcontext()
                )
                with context as record:
                    walls[traced] = await step(index, record)
            tally.pairs.append((walls[True], walls[False]))
        index += 1
    return time.perf_counter() - started - (speed.seconds - probe_before)


# ----------------------------------------------------------------------
# localize_closed
# ----------------------------------------------------------------------


def run_localize_closed(seed: int, seconds: float, tracer: LayerTracer | None) -> RunResult:
    inputs = venue_inputs(seed)
    speed = HostSpeed("solver")

    def build():
        venues, frontend = _venue_frontend(seed, tracer, process_shard=False)
        client = VisualPrintClient(venues[0].oracle, venues[0].server.config)
        return venues, frontend, client

    (venues, frontend, client), registry, setup_seconds = repeat_setup(
        build, discard=lambda built: built[1].close(), speed=speed
    )
    by_name = {venue.name: venue for venue in venues}
    pool = [
        (name, pose, keypoints)
        for name, (_, captures) in inputs.items()
        for pose, keypoints in captures
    ]
    order = rng_for(seed, "perfbench/localize/order").permutation(len(pool))
    channel = CHANNEL_PRESETS["lte"]
    jitter = rng_for(seed, "perfbench/localize/jitter")
    tally = Tally()

    async def step(index: int, record) -> float:
        key = int(order[index % len(order)])
        name, truth, keypoints = pool[key]
        venue = by_name[name]
        shutter = time.perf_counter()
        client.oracle = venue.oracle
        fingerprint = client.fingerprint_keypoints(keypoints, frame_index=index)
        outcome = client.submit_fingerprint(fingerprint, channel, rng=jitter)
        depth = _depth(frontend, name)
        submitted = time.perf_counter()
        answer, service, _ = await frontend.submit(name, (fingerprint, record is not None))
        finished = time.perf_counter()
        wall = finished - shutter
        _check_payload(tally, client, fingerprint, index)
        tally.attempted += 1
        tally.record_uplink(outcome)
        tally.record_service(depth, finished - submitted, service)
        matched, right = _score_pose(tally, inputs[name][0].bounds, answer, truth, index)
        tally.reply(wall, outcome.latency_seconds, record is not None, matched)
        tally.first_outcome(key, matched, right)
        if record is None and index < LOCALIZE_DIGEST_QUERIES:
            tally.digest_items.append(
                f"{name}|{outcome.payload_bytes}|{_pose_text(answer.pose)}"
            )
        return wall

    with use_registry(registry):
        elapsed = asyncio.run(
            _closed_loop(seconds, tracer, "localize_closed", step, tally, speed)
        )
        frontend.close()
    return RunResult(
        serving=_serving_counts(registry, warmups=0),
        workload="localize_closed",
        seed=seed,
        setup_seconds=setup_seconds,
        elapsed=elapsed,
        schedule_seconds=elapsed,
        tally=tally,
        registry=registry,
        setup_layers=_venue_setup_layers(venues),
        peak_rss_mb=peak_rss_mb(),
        provenance={"placement": frontend.placement()},
        digest_queries=LOCALIZE_DIGEST_QUERIES,
        speed=speed,
    )


# ----------------------------------------------------------------------
# camera_stream
# ----------------------------------------------------------------------


@dataclass
class SceneService:
    database: SceneDatabase
    matcher: LshMatcher
    client: VisualPrintClient
    db_build_s: float


def _camera_library(seed: int) -> SceneLibrary:
    return SceneLibrary(
        seed=seed, size=(CAMERA_IMAGE_SIZE, CAMERA_IMAGE_SIZE), **CAMERA_LIBRARY
    )


def _scene_service(seed: int) -> SceneService:
    """Scene database (SIFT + LSH index), the oracle, and the phone's client."""
    library = _camera_library(seed)
    params = SiftParams(contrast_threshold=CAMERA_CONTRAST)
    started = time.perf_counter()
    extractor = SiftExtractor(params)
    images = [library.scene(i) for i in range(library.num_scenes)] + [
        library.distractor(i) for i in range(library.num_distractors)
    ]
    labels = list(range(library.num_scenes)) + [NO_SCENE] * library.num_distractors
    database = SceneDatabase.from_keypoint_sets(
        [extractor.extract(image) for image in images], labels
    )
    matcher = LshMatcher(database.descriptors)
    db_build_s = time.perf_counter() - started
    config = VisualPrintConfig(
        descriptor_capacity=max(database.size, 1024),
        fingerprint_size=FINGERPRINT_SIZE,
    )
    oracle = UniquenessOracle(config, registry=MetricsRegistry())
    oracle.insert(database.descriptors)
    client = VisualPrintClient(oracle, config, sift_params=params)
    return SceneService(database, matcher, client, db_build_s)


def run_camera_stream(seed: int, seconds: float, tracer: LayerTracer | None) -> RunResult:
    library = _camera_library(seed)
    frames = [
        (scene, library.query_view(scene, view))
        for scene in range(library.num_scenes)
        for view in range(library.views_per_scene)
    ]
    order = rng_for(seed, "perfbench/camera/order").permutation(len(frames))
    speed = HostSpeed("image")
    service, registry, setup_seconds = repeat_setup(
        lambda: _scene_service(seed), speed=speed
    )
    client = service.client
    labels = service.database.labels
    channel = CHANNEL_PRESETS["lte"]
    jitter = rng_for(seed, "perfbench/camera/jitter")
    tally = Tally()

    async def step(index: int, record) -> float:
        key = int(order[index % len(order)])
        truth, image = frames[key]
        shutter = time.perf_counter()
        fingerprint = client.process_frame(image, frame_index=index)
        outcome = client.submit_fingerprint(fingerprint, channel, rng=jitter)
        _, rows = service.matcher.match(fingerprint.keypoints.descriptors)
        vote = matching.vote_scene(labels[rows], min_votes=CAMERA_MIN_VOTES)
        wall = time.perf_counter() - shutter
        _check_payload(tally, client, fingerprint, index)
        tally.attempted += 1
        tally.record_uplink(outcome)
        predicted = vote.predicted_scene
        if predicted == NO_SCENE or 0 <= predicted < library.num_scenes:
            matched = predicted != NO_SCENE
            right = matched and predicted == truth
            tally.reply(wall, outcome.latency_seconds, record is not None, matched)
            tally.right_place += right
            tally.first_outcome(key, matched, right)
        else:
            tally.fail(f"frame {index}: predicted unknown scene {predicted}")
        if record is None and index < CAMERA_DIGEST_FRAMES:
            tally.digest_items.append(f"{truth}|{outcome.payload_bytes}|{predicted}")
        return wall

    with use_registry(registry):
        elapsed = asyncio.run(
            _closed_loop(seconds, tracer, "camera_stream", step, tally, speed)
        )
    return RunResult(
        workload="camera_stream",
        seed=seed,
        setup_seconds=setup_seconds,
        elapsed=elapsed,
        schedule_seconds=elapsed,
        tally=tally,
        registry=registry,
        setup_layers={
            "wardrive.session_s": 0.0,
            "server.ingest_s": 0.0,
            "matching.db_build_s": service.db_build_s,
        },
        peak_rss_mb=peak_rss_mb(),
        provenance={"placement": {}},
        digest_queries=CAMERA_DIGEST_FRAMES,
        speed=speed,
    )


# ----------------------------------------------------------------------
# fleet_open
# ----------------------------------------------------------------------


@dataclass
class Phone:
    client: VisualPrintClient
    channel: FaultyChannel
    jitter: np.random.Generator
    last_due: float | None = None


def fleet_model(seconds: float) -> TrafficModel:
    return TrafficModel(
        users=FLEET_PHONES,
        venues=len(VENUE_KINDS),
        duration_seconds=seconds,
        rate_per_user=FLEET_CALM_QPS / FLEET_PHONES,
        zipf_exponent=FLEET_ZIPF,
        burst_multiplier=FLEET_BURST_MULTIPLIER,
        burst_dwell_seconds=FLEET_BURST_DWELL_S,
        calm_dwell_seconds=FLEET_CALM_DWELL_S,
    )


def _phones(seed: int, venue: Venue) -> list[Phone]:
    lte = CHANNEL_PRESETS["lte"]
    return [
        Phone(
            client=VisualPrintClient(
                venue.oracle, venue.server.config, adaptive=AdaptiveConfig()
            ),
            channel=FaultyChannel(
                lte,
                FaultSpec(**BURSTY_LTE, seed=derive_seed(seed, f"perfbench/phone/{user}")),
            ),
            jitter=rng_for(seed, f"perfbench/phone/{user}/jitter"),
        )
        for user in range(FLEET_PHONES)
    ]


def run_fleet_open(seed: int, seconds: float, tracer: LayerTracer | None) -> RunResult:
    inputs = venue_inputs(seed)
    arrivals = generate_arrivals(fleet_model(seconds), seed=seed)

    def build():
        venues, frontend = _venue_frontend(seed, tracer, process_shard=True)
        phones = _phones(seed, venues[0])
        # Warm-up: the first process-shard query per venue forks the
        # worker and touches its engine, so it belongs to set-up.
        for venue in venues:
            warm = VisualPrintClient(venue.oracle, venue.server.config)
            _, keypoints = inputs[venue.name][1][0]
            frontend.call(venue.name, (warm.fingerprint_keypoints(keypoints), False))
        return venues, frontend, phones

    (venues, frontend, phones), registry, setup_seconds = repeat_setup(
        build, discard=lambda built: built[1].close()
    )
    warmups = len(venues)
    keep_counts = degradation_keep_counts(
        FINGERPRINT_SIZE,
        floor=phones[0].client.degrade_floor,
        max_steps=phones[0].client.degrade_steps,
    )
    tally = Tally()
    served = 0
    shard_rss = 0.0

    async def one_query(index: int, due: float) -> None:
        nonlocal served, shard_rss
        venue = venues[int(arrivals.venues[index])]
        environment, captures = inputs[venue.name]
        truth, keypoints = captures[index % len(captures)]
        phone = phones[int(arrivals.users[index])]
        if phone.last_due is not None:
            phone.client.adaptive.advance(due - phone.last_due)
        phone.last_due = due
        traced = tracer is not None and index % 2 == 0
        context = (
            tracer.query("query", workload="fleet_open", index=index)
            if traced
            else nullcontext()
        )
        with context as record:
            phone.client.oracle = venue.oracle
            fingerprint = phone.client.fingerprint_keypoints(keypoints, frame_index=index)
            outcome = phone.client.submit_fingerprint(
                fingerprint, phone.channel, rng=phone.jitter
            )
            _check_payload(tally, phone.client, fingerprint, index)
            tally.record_uplink(outcome)
            if not outcome.delivered:
                return
            # Simulated uplink seconds shift when the query reaches the
            # shared queue, so the open loop sleeps them.
            with tracer.layer(SIMULATED) if record is not None else nullcontext():
                await asyncio.sleep(outcome.latency_seconds)
            delivered = fingerprint.truncate(keep_counts[outcome.ladder_step])
            depth = _depth(frontend, venue.name)
            submitted = time.perf_counter()
            try:
                answer, service, rss = await frontend.submit(
                    venue.name, (delivered, record is not None)
                )
            except ShardSaturatedError:
                tally.shed += 1
                return
            except Exception as error:  # an engine failure is counted, not fatal
                tally.errors += 1
                tally.fail(f"query {index}: engine raised {error!r}")
                return
            finished = time.perf_counter()
        served += 1
        shard_rss = max(shard_rss, rss)
        tally.record_service(depth, finished - submitted, service)
        matched, _ = _score_pose(tally, environment.bounds, answer, truth, index)
        wall = finished - due - outcome.latency_seconds
        tally.reply(wall, outcome.latency_seconds, record is not None, matched)

    async def loop() -> float:
        clock_zero = time.perf_counter()
        tasks = []
        for index, offset in enumerate(arrivals.times):
            due = clock_zero + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tally.lateness.append(max(time.perf_counter() - due, 0.0))
            tally.attempted += 1
            tasks.append(asyncio.create_task(one_query(index, due)))
        await asyncio.gather(*tasks)
        return time.perf_counter() - clock_zero

    with use_registry(registry):
        elapsed = asyncio.run(loop())
        frontend.close()

    serving = _serving_counts(registry, warmups)
    if served + tally.shed + tally.abandoned + tally.errors != tally.attempted:
        tally.fail(
            f"served {served} + shed {tally.shed} + abandoned {tally.abandoned} "
            f"+ failed {tally.errors} != offered {tally.attempted}"
        )
    if (serving["served"], serving["rejected"], serving["failed"]) != (
        served,
        tally.shed,
        tally.errors,
    ):
        tally.fail(f"frontend counters {serving} disagree with the benchmark's tally")
    return RunResult(
        workload="fleet_open",
        seed=seed,
        setup_seconds=setup_seconds,
        elapsed=elapsed,
        schedule_seconds=seconds,
        tally=tally,
        registry=registry,
        setup_layers=_venue_setup_layers(venues),
        peak_rss_mb=peak_rss_mb() + shard_rss,
        provenance={
            "placement": frontend.placement(),
            "offered": len(arrivals),
            "traffic": fleet_model(seconds).as_dict(),
        },
        serving=serving,
    )


WORKLOADS = {
    "localize_closed": run_localize_closed,
    "camera_stream": run_camera_stream,
    "fleet_open": run_fleet_open,
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile of raw samples (``q`` in [0, 100])."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
