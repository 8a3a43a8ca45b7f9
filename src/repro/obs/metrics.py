"""Named counters, gauges and histograms with deterministic export.

The :class:`MetricsRegistry` replaces the ad-hoc ``collections.Counter``
bookkeeping that used to be scattered through ``service/``,
``mapreduce/`` and ``dfs/``.  Instruments are created on first use and
addressed by slash-separated names (``"service/jobs_admitted"``,
``"dfs/replications_issued"``); hot sites resolve the instrument once
and keep the handle.

Determinism rules:

* :meth:`MetricsRegistry.to_dict` sorts every mapping, so serialized
  output is byte-identical across seeded reruns;
* :class:`Histogram` keeps raw observations *per bucket count* plus an
  exact :func:`math.fsum` over values, and :meth:`Histogram.merge`
  re-``fsum``s the concatenated partial sums — merging the same set of
  shards in any order yields identical output bytes.

Metrics never read the sim clock or RNGs; recording them cannot perturb
event order, which is why the registry is always live (unlike tracing,
there is no "off" registry — the cost is integer adds).

:class:`CounterBag` adapts a registry prefix to the mutable-mapping
surface the NameNode's legacy ``counters`` attribute exposed
(``nn.counters["blocks_created"] += 1``, ``dict(nn.counters)``), so
existing call sites and tests keep working unchanged.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ReproError

#: Default histogram bucket upper bounds (seconds; durations/waits).
DEFAULT_BOUNDS: Tuple[float, ...] = (
    0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
    600.0, 1800.0, 3600.0, 7200.0, 14400.0,
)

#: Every metric family (the segment before ``/`` in instrument names)
#: with its one-line meaning.  This is the single source of truth that
#: ``tools/check_metrics.py`` holds the code and the ARCHITECTURE.md
#: family table against: emitting a metric under an unlisted family —
#: or documenting a family nothing emits — fails the CI docs job.
METRIC_FAMILIES: Dict[str, str] = {
    "cluster": "volatile-node availability transitions (suspensions, resumes)",
    "detector": "failure-detection verdicts: trips, false positives, requeues, detection latency",
    "dfs": "NameNode namespace/block-map operations, journal activity and recovery",
    "mapreduce": "job/task execution accounting (wasted duplicate work)",
    "net": "shared-uplink flow counts and fair-share water-fill rounds",
    "service": "admission, queueing and SLO accounting for the serving layer",
    "obs": "the recorder's own health (trace events dropped at the cap)",
    "blame": "causal blame attribution: seconds of response time per cause",
}


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time numeric value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucket histogram with an exact value sum.

    ``bounds`` are inclusive upper edges; values above the last bound
    land in the overflow bucket, so ``len(counts) == len(bounds) + 1``.
    Partial sums are kept as a list and reduced with :func:`math.fsum`
    at read time, making :meth:`merge` order-independent bit-for-bit.
    """

    __slots__ = ("name", "bounds", "counts", "count", "_sums", "vmin", "vmax")

    def __init__(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self._sums: List[float] = []
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = 0
        for bound in self.bounds:
            if value <= bound:
                break
            idx += 1
        self.counts[idx] += 1
        self.count += 1
        self._sums.append(value)
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def total(self) -> float:
        """Exact (``fsum``) sum of all observed values."""
        return math.fsum(self._sums)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Return a new histogram combining both shards.

        Bucket bounds must match.  ``a.merge(b)`` and ``b.merge(a)``
        serialize identically: counts are integer adds and the value
        sum is re-``fsum``-ed over every original observation.
        """
        if self.bounds != other.bounds:
            raise ReproError(
                f"cannot merge histograms with different bounds: "
                f"{self.name} vs {other.name}"
            )
        merged = Histogram(self.name, self.bounds)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged._sums = sorted(self._sums + other._sums)
        mins = [v for v in (self.vmin, other.vmin) if v is not None]
        maxs = [v for v in (self.vmax, other.vmax) if v is not None]
        merged.vmin = min(mins) if mins else None
        merged.vmax = max(maxs) if maxs else None
        return merged

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, bounds)
        elif inst.bounds != tuple(bounds):
            raise ReproError(f"histogram {name!r} re-registered with different bounds")
        return inst

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic (sorted) snapshot of every instrument."""
        return {
            "counters": {n: self._counters[n].value for n in sorted(self._counters)},
            "gauges": {n: self._gauges[n].value for n in sorted(self._gauges)},
            "histograms": {
                n: self._histograms[n].to_dict() for n in sorted(self._histograms)
            },
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


class CounterBag:
    """Mutable-mapping facade over one registry prefix.

    Preserves the ``collections.Counter`` semantics the DFS layer
    relies on: reading a missing key returns 0 *without* creating it,
    ``+= n`` works through item access, and ``dict(bag)`` yields only
    the keys that were actually written.
    """

    __slots__ = ("_registry", "_prefix", "_touched")

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix
        self._touched: Dict[str, Counter] = {}

    def __getitem__(self, key: str) -> int:
        inst = self._touched.get(key)
        return inst.value if inst is not None else 0

    def __setitem__(self, key: str, value: int) -> None:
        inst = self._touched.get(key)
        if inst is None:
            inst = self._touched[key] = self._registry.counter(self._prefix + key)
        inst.value = value

    def __contains__(self, key: object) -> bool:
        return key in self._touched

    def __iter__(self) -> Iterator[str]:
        return iter(self._touched)

    def __len__(self) -> int:
        return len(self._touched)

    def keys(self) -> Iterable[str]:
        return self._touched.keys()

    def items(self) -> Iterable[Tuple[str, int]]:
        return ((k, c.value) for k, c in self._touched.items())

    def values(self) -> Iterable[int]:
        return (c.value for c in self._touched.values())

    def get(self, key: str, default: int = 0) -> int:
        inst = self._touched.get(key)
        return inst.value if inst is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterBag({self._prefix!r}, {dict(self.items())!r})"
