"""One way to build a service world: :class:`RunSpec` and :func:`run`.

A served run is a cluster (:class:`~repro.config.SystemConfig`), a
service loop (:class:`~repro.service.ServiceConfig`) and an arrival
stream — synthetic (:class:`SyntheticArrivals`) or replayed from an
already-calibrated trace (:class:`TraceArrivals`).  Every entry point
that serves a stream — ``repro serve``/``replay``/``explain``, the
sweep runner's cells and the perf service scenarios — describes its
world as one frozen :class:`RunSpec` and builds it here, so three
decisions are made in exactly one place:

* a synthetic stream is drawn from ``sim.rng("service/arrivals")`` of
  the freshly built system, over the service horizon — the same seed
  gives every cell of a comparison the identical stream;
* autoscaling implies ``dedicated_primary=True``: the provisioning
  controller grows and shrinks the dedicated tier, so placement must
  prefer it;
* a finished world stops its JobTracker and NameNode (:func:`finish`).

:func:`comparison_table` lays the reports of several cells side by
side, adding the extension columns of every feature a cell's spec
turns on (autoscale cost, preemption, honest detection).

This module is deliberately not imported by :mod:`repro.service`
itself: import it as ``repro.service.world``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

from ..config import SystemConfig
from ..core import moon_system
from ..errors import ConfigError
from .arrivals import (
    DEFAULT_TENANTS,
    JobArrival,
    bursty_arrivals,
    default_catalog,
    diurnal_arrivals,
    poisson_arrivals,
    sleep_catalog,
)
from .service import MoonService, ServiceConfig
from .slo import ServiceReport


def numbered_tenants(n: int) -> Tuple[str, ...]:
    """``tenant-1`` .. ``tenant-n``: the CLI's and the sweep's tenants."""
    return tuple(f"tenant-{i + 1}" for i in range(n))


@dataclass(frozen=True)
class SyntheticArrivals:
    """A seed-deterministic synthetic stream over the service horizon."""

    #: ``poisson``, ``bursty`` or ``diurnal``.
    pattern: str = "poisson"
    #: Mean arrival rate (the peak rate for ``diurnal``).
    jobs_per_hour: float = 12.0
    #: Mean jobs per burst (``bursty`` only); the burst-epoch rate is
    #: ``jobs_per_hour / burst_size``, preserving the mean rate.
    burst_size: float = 6.0
    #: ``mixed`` (real data jobs) or ``sleep`` (data-free jobs).
    catalog: str = "mixed"
    #: Block size of the mixed catalog's jobs.
    block_mb: float = 4.0
    tenants: Tuple[str, ...] = DEFAULT_TENANTS

    def draw(self, sim, horizon: float) -> List[JobArrival]:
        rng = sim.rng("service/arrivals")
        catalog = (
            sleep_catalog() if self.catalog == "sleep"
            else default_catalog(block_mb=self.block_mb)
        )
        if self.pattern == "poisson":
            return poisson_arrivals(
                rng, self.jobs_per_hour, horizon, catalog, self.tenants
            )
        if self.pattern == "bursty":
            return bursty_arrivals(
                rng,
                bursts_per_hour=self.jobs_per_hour / self.burst_size,
                burst_size_mean=self.burst_size,
                horizon=horizon,
                catalog=catalog,
                tenants=self.tenants,
            )
        if self.pattern == "diurnal":
            return diurnal_arrivals(
                rng, self.jobs_per_hour, horizon, catalog, self.tenants
            )
        raise ConfigError(
            f"unknown synthetic arrival pattern: {self.pattern!r}"
        )


@dataclass(frozen=True)
class TraceArrivals:
    """Already-calibrated arrivals (see
    :func:`repro.workload_traces.trace_arrivals`), served verbatim —
    one frozen list safely shared by every cell of a comparison."""

    arrivals: Tuple[JobArrival, ...]
    pattern: str = "replay"

    def draw(self, sim, horizon: float) -> List[JobArrival]:
        return list(self.arrivals)


@dataclass(frozen=True)
class RunSpec:
    """Everything that determines one served run."""

    system: SystemConfig
    service: ServiceConfig
    arrivals: Union[SyntheticArrivals, TraceArrivals] = SyntheticArrivals()


def build_world(spec: RunSpec, obs=None) -> MoonService:
    """A fresh system serving ``spec``'s stream, not yet advanced."""
    system_cfg = spec.system
    if spec.service.autoscale is not None:
        system_cfg = replace(
            system_cfg,
            scheduler=replace(system_cfg.scheduler, dedicated_primary=True),
        )
    system = moon_system(system_cfg, obs=obs)
    arrivals = spec.arrivals.draw(system.sim, spec.service.horizon)
    return MoonService(
        system, spec.service, arrivals, pattern=spec.arrivals.pattern
    )


def finish(service: MoonService) -> ServiceReport:
    """Serve to the drain, report, and stop the world's daemons — also
    the tail of a run resumed from a snapshot."""
    cfg = service.config
    service.advance(cfg.horizon + cfg.drain_limit)
    report = service.finalize()
    service.system.jobtracker.stop()
    service.system.namenode.stop()
    return report


def run(spec: RunSpec, obs=None) -> Tuple[ServiceReport, MoonService]:
    """Build ``spec``'s world and serve it to the end."""
    service = build_world(spec, obs)
    return finish(service), service


#: Overall summary columns (``ServiceReport.summary_row``).
_SUMMARY_COLUMNS = ["done", "p50 s", "p95 s", "p99 s", "miss", "good/h",
                   "fairness"]

#: Per-feature extension columns of a comparison table: headers, the
#: ServiceReport row method (``summary_row`` plus these cells), and
#: whether the feature is on in a spec.
_EXTENSIONS = (
    (["node-h", "tier", "ops"], "cost_row",
     lambda spec: spec.service.autoscale is not None),
    (["depri", "pauses"], "preempt_row",
     lambda spec: spec.service.preempt is not None),
    (["detect s", "false+", "requeues", "wasted s"], "detector_row",
     lambda spec: spec.system.detector.mode != "oracle"),
)


def comparison_table(
    keys: Sequence[str],
    cells: Sequence[Tuple[Sequence, RunSpec, ServiceReport]],
    title: str,
) -> str:
    """One row per ``(key values, spec, report)`` cell: the ``keys``
    columns, the summary columns, and the extension columns of every
    feature that is on in any cell's spec."""
    from ..plotting import table

    exts = [
        (cols, method) for cols, method, on in _EXTENSIONS
        if any(on(spec) for _k, spec, _r in cells)
    ]
    rows = []
    for key_values, _spec, report in cells:
        row = list(key_values) + report.summary_row()
        for _cols, method in exts:
            row += getattr(report, method)()[len(_SUMMARY_COLUMNS):]
        rows.append(row)
    headers = list(keys) + _SUMMARY_COLUMNS
    return table(headers + [c for cols, _m in exts for c in cols], rows,
                 title=title)
