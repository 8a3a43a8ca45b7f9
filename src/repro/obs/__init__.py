"""Observability layer (S16): tracing, metrics and dispatch profiling.

The flight recorder for the simulator.  Three instruments behind one
:class:`~repro.obs.config.ObsConfig`, reached via ``sim.obs``:

* :class:`~repro.obs.trace.Tracer` — structured, sim-clock-stamped
  span/instant events (job lifecycle, attempt execution, scheduler
  decisions, preempt/autoscale actions, DFS replication, queue
  admission/eviction), exported as Perfetto-loadable Chrome-trace JSON
  or a deterministic text timeline;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters, gauges
  and histograms with deterministic serialization, replacing the
  ad-hoc per-component counters;
* :class:`~repro.obs.profile.DispatchProfiler` — wall-clock,
  per-event-type dispatch cost, explicitly *outside* the determinism
  boundary, surfaced as ``repro profile``.

Invariant: with observability off the simulation is byte-identical to
an uninstrumented build (same event checksums, same goldens); with it
on, the sim clock and RNG streams are never perturbed — only recorded.
"""

from .config import ObsConfig, Observability
from .explain import (
    BLAME_CATEGORIES,
    Divergence,
    RunExplanation,
    diff_files,
    explain_events,
    explain_trace_file,
    explain_tracer,
)
from .metrics import (
    DEFAULT_BOUNDS,
    METRIC_FAMILIES,
    Counter,
    CounterBag,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import PROFILE_SCHEMA_VERSION, DispatchProfiler
from .trace import (
    ATTEMPT_LANE_BASE,
    CATEGORY_LANES,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "ObsConfig",
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "CounterBag",
    "DEFAULT_BOUNDS",
    "METRIC_FAMILIES",
    "DispatchProfiler",
    "PROFILE_SCHEMA_VERSION",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "CATEGORY_LANES",
    "ATTEMPT_LANE_BASE",
    "BLAME_CATEGORIES",
    "Divergence",
    "RunExplanation",
    "diff_files",
    "explain_events",
    "explain_trace_file",
    "explain_tracer",
]
