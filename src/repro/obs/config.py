"""Observability wiring: one config object, one per-run bundle.

:class:`ObsConfig` is the single switchboard the ISSUE asks for:
tracing, metrics export and the dispatch profiler are all enabled
from here, and every instrumented component reaches its instruments
through the :class:`Observability` bundle hanging off the simulation
(``sim.obs``).

The bundle is deliberately asymmetric:

* ``tracer`` is :data:`~repro.obs.trace.NULL_TRACER` unless tracing is
  on — hot sites guard on ``tracer.enabled`` so obs-off adds one
  attribute load;
* ``metrics`` is always a live :class:`~repro.obs.metrics.MetricsRegistry`
  (integer adds cannot perturb event order, and components like the
  NameNode keep their counters here unconditionally);
* ``profiler`` is ``None`` unless profiling is on — the engine selects
  a timed dispatch path only when it exists.

There is no ambient default: a bundle reaches a world only by being
passed to it (``Simulation(obs=...)``, ``moon_system(cfg, obs=...)``,
a perf scenario's ``run(obs)``), and a world built without one gets a
fresh all-off bundle of its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional

from .metrics import MetricsRegistry
from .profile import DispatchProfiler
from .trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ObsConfig:
    """Switchboard for the observability layer (all off by default)."""

    #: Record span/instant trace events.
    trace: bool = False
    #: Time every dispatched callback (wall-clock; see ``profile.py``).
    profile: bool = False
    #: Where :meth:`Observability.export` writes Chrome-trace JSON.
    trace_out: Optional[str] = None
    #: Where :meth:`Observability.export` writes the metrics snapshot.
    metrics_out: Optional[str] = None
    #: Tracer memory cap (events beyond this are counted, not stored).
    max_trace_events: int = 1_000_000


class Observability:
    """Per-run bundle of tracer + metrics registry + profiler."""

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        cfg = self.config
        self.metrics = MetricsRegistry()
        if cfg.trace or cfg.trace_out is not None:
            # Lazy counter hookup: ``obs/dropped_events`` appears in
            # the registry only once something is actually dropped, so
            # uncapped runs export an unchanged metric set.
            self.tracer = Tracer(
                max_events=cfg.max_trace_events,
                on_drop=self._note_dropped_event,
            )
        else:
            self.tracer = NULL_TRACER
        self.profiler: Optional[DispatchProfiler] = (
            DispatchProfiler() if cfg.profile else None
        )

    def _note_dropped_event(self) -> None:
        self.metrics.counter("obs/dropped_events").inc()

    def export(self) -> List[str]:
        """Write any configured output files; return the paths written.

        A capped trace is reported loudly: the cap is a memory bound,
        not a license to silently truncate evidence."""
        if self.tracer.dropped:
            logging.getLogger("repro").warning(
                "trace capped: %d event(s) dropped beyond "
                "--max-trace-events=%d (obs/dropped_events counts them)",
                self.tracer.dropped,
                self.config.max_trace_events,
            )
        written: List[str] = []
        if self.config.trace_out is not None:
            self.tracer.write_chrome(self.config.trace_out)
            written.append(self.config.trace_out)
        if self.config.metrics_out is not None:
            self.metrics.write_json(self.config.metrics_out)
            written.append(self.config.metrics_out)
        return written
