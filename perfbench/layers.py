"""Per-layer timing for the traced benchmark run.

The wrappers here are installed from the benchmark's own files around
each layer's public entry point; nothing inside ``src/`` changes.  A
query is traced when it runs under :meth:`LayerTracer.query` (the shard
worker opens one per traced request); every other call goes straight
to the original function.

For a traced query each wrapped call becomes a :class:`repro.obs.Span`
under the query's root span, and its self time is its duration minus
the durations of the wrapped calls nested inside it.  When the query
ends, per-layer totals and self times go to ``registry.sketch(...)`` /
``registry.counter(...)`` in the contextual registry, so work done in a
forked process shard merges home exactly at ``frontend.close()``; the
root span goes to the tracer's :class:`repro.obs.TraceCollector`.

The query record lives in a :class:`contextvars.ContextVar`, so the
open-loop workload can trace many concurrent asyncio tasks without
their frames interleaving.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs import Span, TraceCollector, current_registry

#: Relative accuracy of the per-layer quantile sketches.  Fine enough
#: that a reported quantile is a measurement, not a bucket label.
SKETCH_ACCURACY = 1e-3

#: A root span's self time: wall time inside a query that no wrapped
#: layer covers.
UNATTRIBUTED = "unattributed"

#: Pseudo-layer for simulated channel seconds slept in the open loop;
#: reported apart from the wall-clock layers.
SIMULATED = "simulated"


class _Frame:
    __slots__ = ("layer", "span", "child_seconds")

    def __init__(self, layer: str, span: Span) -> None:
        self.layer = layer
        self.span = span
        self.child_seconds = 0.0


class QueryRecord:
    """One traced query: its root span and per-layer seconds."""

    def __init__(self, name: str, attributes: dict[str, Any]) -> None:
        self.root = _Frame(name, Span(name))
        self.root.span.attributes.update(attributes)
        self.stack: list[_Frame] = [self.root]
        self.total: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}

    def enter(self, layer: str) -> _Frame:
        parent = self.stack[-1].span
        span = Span(layer, trace_id=parent.trace_id, parent_id=parent.span_id)
        parent.children.append(span)
        frame = _Frame(layer, span)
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"layer frames closed out of order: {frame.layer}")
        frame.span.finish()
        duration = frame.span.duration_seconds
        self.stack[-1].child_seconds += duration
        self.total[frame.layer] = self.total.get(frame.layer, 0.0) + duration
        self.self_seconds[frame.layer] = (
            self.self_seconds.get(frame.layer, 0.0) + duration - frame.child_seconds
        )

    def finish(self) -> None:
        root = self.root
        root.span.finish()
        self.self_seconds[UNATTRIBUTED] = (
            root.span.duration_seconds - root.child_seconds
        )

    @property
    def wall_seconds(self) -> float:
        """Root duration minus simulated seconds slept inside it."""
        return self.root.span.duration_seconds - self.total.get(SIMULATED, 0.0)


def _count(name: str, amount: float = 1.0) -> None:
    registry = current_registry()
    if registry is not None:
        registry.counter(f"perfbench_{name}_total").inc(amount)


def _solve_counts(args, kwargs, solution) -> None:
    _count("solve_calls")
    _count("solve_converged", float(bool(solution.converged)))
    _count("solve_pairs", solution.num_pairs)


def _cluster_counts(args, kwargs, kept) -> None:
    _count("cluster_candidates", len(args[0]))
    _count("cluster_kept", len(kept))


def _lsh_counts(args, kwargs, matches) -> None:
    _count("lsh_calls")
    _count("lsh_matches", sum(len(row) for row in matches))


def _sift_counts(args, kwargs, keypoints) -> None:
    _count("sift_frames")
    _count("sift_keypoints", len(keypoints))


def _oracle_counts(args, kwargs, result) -> None:
    _count("oracle_calls")
    _count("oracle_candidates", len(args[1]))


def _match_counts(args, kwargs, result) -> None:
    _count("match_calls")
    _count("match_matched", len(result[0]))


def _entry_points() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, layer, count_hook)`` for every wrapped entry point.

    ``largest_cluster``, ``serialize_keypoints_into`` and
    ``submit_payload`` are patched where their callers look them up
    (module globals of the server and client), so the wrapper sees
    exactly the calls the query path makes.
    """
    import repro.core.client as client_module
    import repro.core.server as server_module
    import repro.matching as matching
    from repro.core import UniquenessOracle, VisualPrintServer
    from repro.features import SiftExtractor
    from repro.localization.solver import AngularLocalizer
    from repro.lsh import LshIndex
    from repro.matching import LshMatcher
    from repro.network.linkstate import AdaptiveOffloadPolicy
    from repro.serving import ServingFrontend

    return [
        (AngularLocalizer, "solve", "localization.solve", _solve_counts),
        (server_module, "largest_cluster", "localization.cluster", _cluster_counts),
        (LshIndex, "query_batch", "lsh.query", _lsh_counts),
        (VisualPrintServer, "localize", "server.localize", None),
        (SiftExtractor, "extract", "features.sift", _sift_counts),
        (client_module, "serialize_keypoints_into", "features.serialize", None),
        (UniquenessOracle, "counts", "oracle.rank", _oracle_counts),
        (UniquenessOracle, "rank_by_uniqueness", "oracle.rank", None),
        (client_module, "submit_payload", "network.uplink", None),
        (AdaptiveOffloadPolicy, "decide", "network.policy", None),
        (ServingFrontend, "submit", "serving.submit", None),
        (LshMatcher, "match", "matching.match", _match_counts),
        (matching, "vote_scene", "matching.vote", None),
    ]


class LayerTracer:
    """Installs the layer wrappers and turns traced queries into metrics."""

    def __init__(self) -> None:
        self.collector = TraceCollector(max_roots=1_000_000)
        self._current: contextvars.ContextVar[QueryRecord | None] = (
            contextvars.ContextVar("perfbench_query", default=None)
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        for owner, attribute, layer, hook in _entry_points():
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer, hook))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _wrap(self, function, layer: str, hook):
        current = self._current

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                record = current.get()
                if record is None:
                    return await function(*args, **kwargs)
                frame = record.enter(layer)
                try:
                    return await function(*args, **kwargs)
                finally:
                    record.exit(frame)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            record = current.get()
            if record is None:
                return function(*args, **kwargs)
            frame = record.enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                record.exit(frame)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- queries ------------------------------------------------------

    def active(self) -> bool:
        return self._current.get() is not None

    @contextmanager
    def query(self, name: str, **attributes: Any) -> Iterator[QueryRecord]:
        """Trace everything the block calls as one query."""
        record = QueryRecord(name, attributes)
        token = self._current.set(record)
        try:
            yield record
        finally:
            self._current.reset(token)
            record.finish()
            self._publish(record)

    @contextmanager
    def layer(self, layer: str) -> Iterator[None]:
        """Attribute a block of the benchmark's own loop to ``layer``."""
        record = self._current.get()
        if record is None:
            yield
            return
        frame = record.enter(layer)
        try:
            yield
        finally:
            record.exit(frame)

    def _publish(self, record: QueryRecord) -> None:
        registry = current_registry()
        if registry is not None:
            root = record.root.layer
            for layer, seconds in record.total.items():
                registry.sketch(
                    "perfbench_layer_seconds",
                    relative_accuracy=SKETCH_ACCURACY,
                    layer=layer,
                ).observe(seconds)
            for layer, seconds in record.self_seconds.items():
                registry.counter(
                    "perfbench_layer_self_seconds_total", root=root, layer=layer
                ).inc(seconds)
            registry.counter("perfbench_traced_queries_total", root=root).inc()
            registry.counter("perfbench_traced_wall_seconds_total", root=root).inc(
                record.wall_seconds
            )
        self.collector.collect(record.root.span)


def layer_quantile(registry, layer: str, q: float) -> float:
    """Per-query seconds in ``layer`` at quantile ``q`` (0.0 if it never ran)."""
    sketch = registry.sketch(
        "perfbench_layer_seconds", relative_accuracy=SKETCH_ACCURACY, layer=layer
    )
    return sketch.quantile(q) if sketch.count else 0.0


def self_seconds(registry, root: str) -> dict[str, float]:
    """Summed self time per layer over the traced queries rooted at ``root``.

    ``root`` is ``"query"`` for the benchmark's own queries and
    ``"shard.serve"`` for requests a process shard traced.
    """
    return {
        instrument.labels["layer"]: instrument.value
        for instrument in registry.instruments()
        if instrument.name == "perfbench_layer_self_seconds_total"
        and instrument.labels["root"] == root
    }
