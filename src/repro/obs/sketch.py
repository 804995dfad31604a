"""Streaming quantile sketch: p50/p99/p999 without storing samples.

The repo's one quantile primitive.  Tail quantiles over millions of
latencies must be (a) memory-bounded, (b) *mergeable with an
order-independent result*, and (c) carry a known error bound — for SLO
arithmetic at fleet scale and equally for the per-run summaries of
:class:`repro.obs.Histogram`, which embeds one of these for every
quantile it reports.

:class:`QuantileSketch` is a fixed-relative-accuracy sketch in the
DDSketch family: values map to geometrically-spaced buckets
(``key = ceil(log_gamma(value))`` with ``gamma = (1 + a) / (1 - a)``),
so every reported quantile is within relative accuracy ``a`` (default
1%) of an exact sample quantile, at any scale from microseconds to
hours.  Estimates are clamped to the observed ``[min, max]``, which
never increases the error and keeps single-value and extreme-rank
quantiles exact.  Buckets are a sparse dict, so memory is
O(log(max/min) / a) — a few hundred ints for any realistic latency
distribution — and merging two sketches is bucket-wise addition (with
exact ``min``/``max``): commutative and associative, so a ``workers=N``
:mod:`repro.parallel` merge-back reports bit-identical quantiles to a
serial run regardless of chunk completion order (the property
``tests/test_sketch.py`` holds it to).

Registered through :meth:`repro.obs.MetricsRegistry.sketch`, a sketch
rides the registry's existing ``state()`` / ``merge_state()``
cross-process protocol and shows up in JSON snapshots under a
``"sketches"`` section with p50/p99/p999 precomputed — which is what
``repro slo-report`` and ``repro top`` render.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

__all__ = ["DEFAULT_QUANTILES", "QuantileSketch"]

#: The quantile set SLO reporting renders everywhere.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.99, 0.999)

# Values at or below this are collapsed into the zero bucket: the
# geometric mapping cannot represent 0, and sub-nanosecond "latencies"
# are measurement noise, not signal.
_MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """Mergeable fixed-relative-accuracy quantile sketch (DDSketch-style).

    ``relative_accuracy`` is the worst-case relative error of any
    reported quantile *value*: ``quantile(q)`` returns a value ``v``
    with ``|v - x| <= relative_accuracy * x`` for some exact sample
    quantile ``x`` at rank ``q``.  Values must be non-negative (these
    are latencies and sizes); values below 1e-9 count into a dedicated
    zero bucket.
    """

    kind = "sketch"
    __slots__ = (
        "name", "help", "labels", "relative_accuracy", "_gamma",
        "_log_gamma", "_buckets", "_zero_count", "_count", "_sum",
        "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: dict[str, str] | None = None,
        relative_accuracy: float = 0.01,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.relative_accuracy = float(relative_accuracy)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets: dict[int, int] = {}
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        if value < 0.0:
            raise ValueError(f"sketch values must be non-negative, got {value}")
        if value <= _MIN_TRACKABLE:
            self._zero_count += 1
        else:
            key = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[key] = self._buckets.get(key, 0) + 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # -- queries --------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value; 0.0 when empty."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observed value; 0.0 when empty."""
        return self._max if self._count else 0.0

    @property
    def num_buckets(self) -> int:
        return len(self._buckets) + (1 if self._zero_count else 0)

    def _bucket_value(self, key: int) -> float:
        """Midpoint estimate for a bucket, clamped to ``[min, max]``.

        The midpoint is within ``a`` of any member; the exact sample
        value lies in ``[min, max]`` too, so clamping only moves the
        estimate closer to it.
        """
        estimate = 2.0 * self._gamma ** key / (self._gamma + 1.0)
        return min(max(estimate, self._min), self._max)

    def quantile(self, q: float) -> float:
        """The q-quantile estimate; 0.0 when empty.

        Rank convention matches ``numpy``'s ``method="lower"`` on the
        sorted sample (``rank = floor(q * (count - 1))``), so the
        returned value is within ``relative_accuracy`` of the exact
        sample value at that rank.  The lowest and highest ranks return
        the observed ``min`` and ``max`` exactly.
        """
        return self.quantiles((q,))[q]

    def quantiles(
        self, qs: tuple[float, ...] = DEFAULT_QUANTILES
    ) -> dict[float, float]:
        """Several quantiles in one sorted-bucket walk (see :meth:`quantile`)."""
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            return {q: 0.0 for q in qs}
        last = self._count - 1
        out: dict[float, float] = {}
        pending: dict[float, int] = {}
        for q in qs:
            rank = int(q * last)
            if rank == 0 or rank < self._zero_count:
                out[q] = self._min
            elif rank == last:
                out[q] = self._max
            else:
                pending[q] = rank
        cumulative = self._zero_count
        for key in sorted(self._buckets):
            if not pending:
                break
            cumulative += self._buckets[key]
            for q in [q for q, rank in pending.items() if cumulative > rank]:
                out[q] = self._bucket_value(key)
                del pending[q]
        return {q: out[q] for q in qs}

    def bucket_items(self) -> Iterator[tuple[int, int]]:
        """``(key, count)`` pairs in ascending key order."""
        for key in sorted(self._buckets):
            yield key, self._buckets[key]

    # -- lifecycle / merge protocol ------------------------------------

    def reset(self) -> None:
        self._buckets.clear()
        self._zero_count = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def state(self) -> dict[str, Any]:
        return {
            "relative_accuracy": self.relative_accuracy,
            "zero_count": self._zero_count,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "buckets": [[key, count] for key, count in self.bucket_items()],
        }

    def merge_state(self, state: dict[str, Any]) -> None:
        """Fold another sketch's state in: bucket-wise addition.

        Addition over a sparse dict is commutative and associative, so
        any merge order — serial, chunked, tree-shaped — yields the
        same buckets and extrema and therefore the same quantiles.
        """
        if float(state["relative_accuracy"]) != self.relative_accuracy:
            raise ValueError(
                f"cannot merge sketch {self.name!r}: relative accuracy differs "
                f"({state['relative_accuracy']} vs {self.relative_accuracy})"
            )
        self._zero_count += int(state["zero_count"])
        self._count += int(state["count"])
        self._sum += float(state["sum"])
        self._min = min(self._min, float(state["min"]))
        self._max = max(self._max, float(state["max"]))
        for key, count in state["buckets"]:
            key = int(key)
            self._buckets[key] = self._buckets.get(key, 0) + int(count)

    def to_dict(self) -> dict[str, Any]:
        quantiles = self.quantiles(DEFAULT_QUANTILES)
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": quantiles[0.5],
            "p99": quantiles[0.99],
            "p999": quantiles[0.999],
            "relative_accuracy": self.relative_accuracy,
            "num_buckets": self.num_buckets,
        }
