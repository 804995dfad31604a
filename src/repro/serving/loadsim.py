"""Discrete-event shard-queue simulator for serving capacity studies.

The repo's evaluation philosophy is simulated time: channels charge
simulated transfer seconds, latency figures add simulated legs.  The
serving layer follows suit.  Real per-query service times are measured
once (by actually executing queries against a venue engine), then this
simulator replays an open-loop arrival process against N shard queues to
answer the capacity question — *what aggregate queries/sec does a
topology sustain?* — independently of how many physical cores the
measurement host happens to have.

One entry point, :func:`simulate_queue_network`, takes explicit
(sorted) arrival times, per-query candidate shard lists (replica sets —
the query joins the shortest candidate queue), and an optional
per-query *abandoned* mask for queries lost upstream (e.g. in a
:class:`repro.network.faults.FaultyChannel` leg) that count as offered
load but never reach a shard.  The :mod:`repro.loadgen` harness passes
generated arrivals and ring-derived replica sets; a fixed-gap capacity
study passes ``arrivals[i] = i * gap`` and round-robin
``shard_choices[i] = i % num_shards`` (the consistent-hash spread of
many venues over few shards).

Each shard is a single FIFO server (matching the one-process-per-shard
worker).  A bounded queue applies the frontend's admission policy:
arrivals beyond ``queue_depth`` queued-or-executing entries are shed.

Accounting (the contract the regression tests in
``tests/test_serving.py`` lock):

* ``makespan_seconds = max(last_arrival, last_finish)`` — the run lasts
  until the later of the last offered arrival and the last served
  finish.  Dividing by served finishes alone overstates throughput when
  the tail of the offered stream never executes (abandoned upstream):
  those arrivals are real offered load and real elapsed time.
* ``queries_per_second = served / makespan_seconds`` — *sustained*
  throughput over the whole offered run, not over the served prefix.
* ``mean_wait_seconds`` averages queue wait over **served** queries
  only (shed/abandoned queries never start, so they have no wait);
  ``mean_wait_seconds_offered`` spreads the same total wait over every
  *offered* query.  Under overload the served-only mean can *improve*
  as shedding worsens — the served survivors are the ones that skipped
  the queue — so overload studies must read either form next to
  ``offered`` and ``shed_fraction``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "QUERY_ABANDONED",
    "QUERY_SERVED",
    "QUERY_SHED",
    "SimulatedLoadResult",
    "simulate_queue_network",
]

# Per-query outcome codes emitted by simulate_queue_network.
QUERY_SERVED = 0
QUERY_SHED = 1
QUERY_ABANDONED = 2


@dataclass
class SimulatedLoadResult:
    """Outcome of one simulated run.

    ``served + shed + abandoned == offered`` always holds; the
    ``abandoned`` bucket is only populated by callers that model an
    upstream (channel) leg.
    """

    num_shards: int
    served: int
    shed: int
    makespan_seconds: float
    busy_seconds_per_shard: list[float] = field(default_factory=list)
    wait_seconds_total: float = 0.0
    abandoned: int = 0
    last_arrival_seconds: float = 0.0
    last_finish_seconds: float = 0.0

    @property
    def offered(self) -> int:
        """Every query that arrived, whether or not a shard ever saw it."""
        return self.served + self.shed + self.abandoned

    @property
    def queries_per_second(self) -> float:
        """Served throughput over the *offered* run duration.

        The makespan extends to the last offered arrival even when that
        arrival was shed or abandoned — a run whose tail is entirely
        dropped must not divide by the early finish of its served
        prefix.
        """
        if self.makespan_seconds <= 0.0:
            return 0.0
        return self.served / self.makespan_seconds

    @property
    def shed_fraction(self) -> float:
        """Fraction of offered queries rejected at shard admission."""
        return self.shed / self.offered if self.offered else 0.0

    @property
    def mean_wait_seconds(self) -> float:
        """Queue wait averaged over *served* queries only.

        Shed queries never wait, so this average silently improves as
        overload worsens (the survivors are the lucky ones); read it
        alongside ``offered``/``shed_fraction`` or use
        :attr:`mean_wait_seconds_offered`.
        """
        return self.wait_seconds_total / self.served if self.served else 0.0

    @property
    def mean_wait_seconds_offered(self) -> float:
        """Total queue wait spread over every *offered* query.

        Answers "what queue-wait cost did one offered query impose on
        average" — the complementary view to :attr:`mean_wait_seconds`'s
        "how long did a survivor wait".  Neither alone characterizes
        overload (a run that sheds 90% of traffic has *low* wait under
        both definitions); saturation studies must read them next to
        ``offered`` and ``shed_fraction``.
        """
        return self.wait_seconds_total / self.offered if self.offered else 0.0

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan each shard spent serving."""
        if not self.busy_seconds_per_shard or self.makespan_seconds <= 0.0:
            return 0.0
        busy = sum(self.busy_seconds_per_shard) / len(self.busy_seconds_per_shard)
        return busy / self.makespan_seconds

    def as_dict(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "offered": self.offered,
            "served": self.served,
            "shed": self.shed,
            "abandoned": self.abandoned,
            "makespan_seconds": self.makespan_seconds,
            "last_arrival_seconds": self.last_arrival_seconds,
            "last_finish_seconds": self.last_finish_seconds,
            "queries_per_second": self.queries_per_second,
            "shed_fraction": self.shed_fraction,
            "mean_wait_seconds": self.mean_wait_seconds,
            "mean_wait_seconds_offered": self.mean_wait_seconds_offered,
            "utilization": self.utilization,
        }


def simulate_queue_network(
    arrivals: Sequence[float],
    service_seconds: Sequence[float],
    shard_choices: Sequence[Sequence[int]] | Sequence[int],
    num_shards: int,
    queue_depth: int = 64,
    abandoned: Sequence[bool] | None = None,
    on_served: Callable[[int, float, float], None] | None = None,
    on_arrival: Callable[[int, int, int], None] | None = None,
) -> tuple[SimulatedLoadResult, list[int]]:
    """Replay an explicit arrival stream through bounded FIFO shard queues.

    ``arrivals`` must be sorted ascending (simulated seconds).  Query
    ``i`` runs for ``service_seconds[i]`` on one shard drawn from
    ``shard_choices[i]`` — an int for fixed placement, or a sequence of
    candidate shard indices (a replica set) of which the query joins the
    *shortest* queue (ties break toward the earlier candidate, keeping
    replica routing deterministic).  If every candidate already holds
    ``queue_depth`` queued-or-executing queries, the query is shed.

    ``abandoned[i]`` marks queries lost upstream of admission (channel
    retry budget exhausted): they count as offered load and extend the
    makespan but never touch a queue.

    Hooks (both optional, both called in arrival order):

    * ``on_served(index, wait_seconds, finish_seconds)`` after each
      admission — e.g. to observe per-query latency into a sketch;
    * ``on_arrival(index, shard, depth)`` with the routed shard and its
      queue depth *before* this query joins (shed queries report the
      depth of their least-loaded candidate) — e.g. to sample queue
      depth distributions.

    Returns the aggregate :class:`SimulatedLoadResult` plus a per-query
    outcome list (``QUERY_SERVED`` / ``QUERY_SHED`` /
    ``QUERY_ABANDONED``).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    if len(arrivals) != len(service_seconds):
        raise ValueError(
            f"arrivals and service_seconds disagree on length "
            f"({len(arrivals)} vs {len(service_seconds)})"
        )
    # Per-shard state: when the server frees up, and queued finish times.
    free_at = [0.0] * num_shards
    backlog: list[deque[float]] = [deque() for _ in range(num_shards)]
    busy = [0.0] * num_shards
    served = 0
    shed = 0
    dropped = 0
    wait_total = 0.0
    last_arrival = 0.0
    last_finish = 0.0
    previous_arrival = -float("inf")
    outcomes = [QUERY_SERVED] * len(arrivals)

    for index, service in enumerate(service_seconds):
        if service < 0:
            raise ValueError(f"service time {index} is negative: {service}")
        arrival = arrivals[index]
        if arrival < previous_arrival:
            raise ValueError(
                f"arrivals must be sorted ascending (query {index} at "
                f"{arrival} after {previous_arrival})"
            )
        previous_arrival = arrival
        if arrival > last_arrival:
            last_arrival = arrival
        if abandoned is not None and abandoned[index]:
            dropped += 1
            outcomes[index] = QUERY_ABANDONED
            continue
        choices = shard_choices[index]
        if isinstance(choices, int):
            choices = (choices,)
        # Join the shortest candidate queue (first wins ties).
        shard = -1
        depth = queue_depth + 1
        for candidate in choices:
            queue = backlog[candidate]
            while queue and queue[0] <= arrival:
                queue.popleft()
            if len(queue) < depth:
                depth = len(queue)
                shard = candidate
        if on_arrival is not None:
            on_arrival(index, shard, depth)
        if depth >= queue_depth:
            shed += 1
            outcomes[index] = QUERY_SHED
            continue
        start = max(arrival, free_at[shard])
        finish = start + service
        free_at[shard] = finish
        backlog[shard].append(finish)
        busy[shard] += service
        wait = start - arrival
        wait_total += wait
        served += 1
        if finish > last_finish:
            last_finish = finish
        if on_served is not None:
            on_served(index, wait, finish)

    result = SimulatedLoadResult(
        num_shards=num_shards,
        served=served,
        shed=shed,
        abandoned=dropped,
        makespan_seconds=max(last_arrival, last_finish),
        busy_seconds_per_shard=busy,
        wait_seconds_total=wait_total,
        last_arrival_seconds=last_arrival,
        last_finish_seconds=last_finish,
    )
    return result, outcomes

