"""Multi-venue serving layer: registry, shards, and the async front-end.

The paper's offload story implies a server fielding fingerprint queries
from many clients across many venues; :mod:`repro.core` provides the
single-venue engine (:class:`repro.core.VisualPrintServer`), and this
package scales it out:

* :class:`ConsistentHashRing` — stable, minimal-remap placement of
  venues onto shards (``hashring``).
* :class:`VenueRegistry` — venue name → engine, plus per-venue
  snapshot/restore and oracle-download flows through the existing
  integrity layer (``registry``).
* :class:`InlineShardWorker` / :class:`ProcessShardWorker` — execution
  backends per shard (``shards``).
* :class:`ServingFrontend` — the asyncio admission/routing layer with
  bounded-queue backpressure and per-shard saturation gauges
  (``frontend``).
* :func:`simulate_queue_network` — discrete-event capacity model
  replaying measured service times over shard queues (``loadsim``).
* :func:`synthetic_venue` / :func:`synthetic_query` — miniature venues
  and queries for driving the layer (``synthetic``).
"""

from repro.serving.frontend import ServingFrontend, ShardSaturatedError
from repro.serving.hashring import ConsistentHashRing
from repro.serving.loadsim import (
    QUERY_ABANDONED,
    QUERY_SERVED,
    QUERY_SHED,
    SimulatedLoadResult,
    simulate_queue_network,
)
from repro.serving.registry import VenueRegistry, load_venue_server
from repro.serving.shards import (
    EngineSpec,
    InlineShardWorker,
    ProcessShardWorker,
    resolve_serve,
)
from repro.serving.synthetic import synthetic_query, synthetic_venue

__all__ = [
    "ConsistentHashRing",
    "EngineSpec",
    "InlineShardWorker",
    "ProcessShardWorker",
    "QUERY_ABANDONED",
    "QUERY_SERVED",
    "QUERY_SHED",
    "ServingFrontend",
    "ShardSaturatedError",
    "SimulatedLoadResult",
    "VenueRegistry",
    "load_venue_server",
    "resolve_serve",
    "simulate_queue_network",
    "synthetic_query",
    "synthetic_venue",
]
