"""The benchmark's three seeded workloads, built from the public API.

Each workload function builds its world from ``seed`` alone, times the
phases itself (world build, arrival generation, the run from the first
event to the end) and returns an :class:`Outcome`: the host timings,
the modelled results, the arrival accounting and a digest of every
job's finish time.  Arrivals come from the benchmark's own
``np.random.default_rng(seed)``, never from the simulation's streams,
so the program under test receives only generated inputs.

``attach`` (optional) is called with every freshly built system before
it runs; the traced run uses it to hook the ledger into the engine.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, replace
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.config import ClusterConfig, SystemConfig, TraceConfig
from repro.core import hadoop_system, moon_system
from repro.dfs import ReplicationFactor as RF
from repro.experiments.harness import hadoop_policy, moon_policy
from repro.experiments.scale import Scale, sort_at
from repro.service import (
    MoonService,
    ServiceConfig,
    poisson_arrivals,
    sleep_catalog,
)
from repro.service.arrivals import WorkloadClass, poisson_arrivals_vectorised
from repro.service.slo import ServedState
from repro.workloads import sleep_spec

HOUR = 3600.0

Attach = Optional[Callable[[object], None]]


@dataclass
class Outcome:
    """What one run of a workload produced, and how long it took."""

    events: int
    sim_seconds: float
    build_s: float
    arrivals_s: float
    wall_s: float
    #: Modelled end-to-end results (simulated time, exact per seed).
    modelled: Dict[str, float]
    #: Arrival accounting: arrived plus one count per terminal state.
    accounting: Dict[str, int]
    #: sha256 over every job's identity, terminal state and finish time.
    digest: str
    #: Modelled per-layer figures (simulated time, exact per seed).
    layer: Dict[str, float] = field(default_factory=dict)

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly for one seed."""
        return (
            self.events,
            self.digest,
            tuple(sorted(self.accounting.items())),
            tuple(sorted(self.modelled.items())),
            tuple(sorted(self.layer.items())),
        )


def trial_seeds(seed: int, trials: int) -> List[int]:
    """Independent per-trial seeds derived from the workload seed."""
    return [
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence(seed).spawn(trials)
    ]


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _service_outcome(
    system, arrivals, report, build_s, arrivals_s, wall_s
) -> Outcome:
    records = report.records
    states = Counter(r.state for r in records)
    accounting = {
        "arrived": len(arrivals),
        "records": len(records),
        "completed": states[ServedState.SUCCEEDED],
        "failed": states[ServedState.FAILED],
        "rejected": states[ServedState.REJECTED],
        "dropped": states[ServedState.DROPPED],
        "unserved": states[ServedState.QUEUED]
        + states[ServedState.UNFINISHED],
    }
    overall = report.overall
    not_done = accounting["arrived"] - accounting["completed"]
    waits = [r.queue_wait for r in records if r.queue_wait is not None]
    finish = [r.finished_at for r in records if r.finished_at is not None]
    first = min(a.arrival_time for a in arrivals) if arrivals else 0.0
    modelled = {
        "jobs_failed_pct": _pct(not_done, accounting["arrived"]),
        "sim_response_p50_s": overall.p50_response or 0.0,
        "sim_response_p95_s": overall.p95_response or 0.0,
        "sim_deadline_miss_pct": 100.0 * (overall.miss_rate or 0.0),
        "sim_makespan_s": (max(finish) - first) if finish else 0.0,
    }
    return Outcome(
        events=system.sim.executed_events,
        sim_seconds=system.sim.now,
        build_s=build_s,
        arrivals_s=arrivals_s,
        wall_s=wall_s,
        modelled=modelled,
        accounting=accounting,
        digest=_digest(
            [f"{r.seq}:{r.state.value}:{r.finished_at!r}" for r in records]
        ),
        layer={
            "service.rejected": float(accounting["rejected"]),
            "service.queue_wait_p50_s": float(median(waits)) if waits else 0.0,
        },
    )


def _serve(system, arrivals, config, pattern, attach, build_s, arrivals_s):
    t0 = perf_counter()
    service = MoonService(system, config, arrivals, pattern=pattern)
    build_s += perf_counter() - t0
    if attach is not None:
        attach(system)
    t0 = perf_counter()
    report = service.run()
    wall_s = perf_counter() - t0
    system.jobtracker.stop()
    system.namenode.stop()
    return _service_outcome(
        system, arrivals, report, build_s, arrivals_s, wall_s
    )


# ----------------------------------------------------------------------
# service: the service2k shape
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceSize:
    trials: int = 7
    hours: float = 0.5
    jobs_per_hour: float = 250.0
    n_volatile: int = 30
    n_dedicated: int = 3


def run_service(
    seed: int, size: ServiceSize, attach: Attach = None
) -> Outcome:
    """Poisson sleep-catalog stream through the EDF queue on a 33-node
    MOON cluster at unavailability 0.3 (hybrid scheduler, speculation
    on, 16 jobs in flight, queue depth 256)."""
    horizon = size.hours * HOUR
    t0 = perf_counter()
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(
                n_volatile=size.n_volatile, n_dedicated=size.n_dedicated
            ),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=moon_policy(True),
            seed=seed,
        )
    )
    build_s = perf_counter() - t0
    t0 = perf_counter()
    arrivals = poisson_arrivals(
        np.random.default_rng(seed),
        rate_per_hour=size.jobs_per_hour,
        horizon=horizon,
        catalog=sleep_catalog(),
    )
    arrivals_s = perf_counter() - t0
    config = ServiceConfig(
        policy="edf",
        max_in_flight=16,
        max_queue_depth=256,
        horizon=horizon,
        drain_limit=4 * HOUR,
    )
    return _serve(
        system, arrivals, config, "poisson", attach, build_s, arrivals_s
    )


# ----------------------------------------------------------------------
# sort: the paper's sort job, Fig. 7 cells plus a fair-share cell
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SortSize:
    trials: int = 7
    sort_maps: int = 64
    fairshare_maps: int = 16
    n_volatile: int = 60
    n_dedicated: int = 6
    time_limit: float = 4 * HOUR


def _sort_cells(size: SortSize):
    base = sort_at(
        Scale(
            n_volatile=size.n_volatile,
            n_dedicated=size.n_dedicated,
            sort_maps=size.sort_maps,
            wc_maps=size.sort_maps,
            data_factor=0.5,
            seeds=(0,),
            time_limit=size.time_limit,
        )
    )
    moon_rf = dict(
        input_rf=RF(1, 3), output_rf=RF(1, 3), intermediate_rf=RF(1, 1)
    )
    # (label, spec, unavailability, scheduler, hadoop baseline, network)
    return [
        (
            "hadoop-vo",
            base.with_(
                input_rf=RF(0, 6), output_rf=RF(0, 6), intermediate_rf=RF(0, 3)
            ),
            0.5, hadoop_policy(1), True, "fifo",
        ),
        ("moon-hybrid", base.with_(**moon_rf), 0.5, moon_policy(True), False,
         "fifo"),
        (
            "fairshare",
            base.with_(n_maps=size.fairshare_maps, **moon_rf),
            0.3, moon_policy(True), False, "fairshare",
        ),
    ]


def run_sort(seed: int, size: SortSize, attach: Attach = None) -> Outcome:
    """One sort job per cell on 66 nodes: Hadoop-VO (six volatile
    replicas) and MOON-Hybrid (six dedicated nodes) at unavailability
    0.5, and MOON-Hybrid on the fair-share network at 0.3."""
    events = 0
    sim_seconds = build_s = wall_s = makespan = 0.0
    lines: List[str] = []
    states: Counter = Counter()
    for label, spec, rate, sched, hadoop, net in _sort_cells(size):
        t0 = perf_counter()
        cfg = SystemConfig(
            cluster=ClusterConfig(
                n_volatile=size.n_volatile, n_dedicated=size.n_dedicated
            ),
            trace=TraceConfig(unavailability_rate=rate),
            scheduler=sched,
            seed=seed,
            network_model=net,
        )
        system = hadoop_system(cfg) if hadoop else moon_system(cfg)
        build_s += perf_counter() - t0
        if attach is not None:
            attach(system)
        t0 = perf_counter()
        job = system.submit(spec)
        system.sim.run(until=size.time_limit, stop_when=lambda: job.finished)
        wall_s += perf_counter() - t0
        system.jobtracker.stop()
        system.namenode.stop()
        events += system.sim.executed_events
        sim_seconds += system.sim.now
        state = job.state.value if job.finished else "unfinished"
        states[state] += 1
        makespan += job.elapsed or 0.0
        lines.append(f"{label}:{state}:{job.finished_at!r}:{job.elapsed!r}")
    n_cells = len(lines)
    accounting = {
        "arrived": n_cells,
        "records": n_cells,
        "completed": states["succeeded"],
        "failed": states["failed"],
        "rejected": 0,
        "dropped": 0,
        "unserved": states["unfinished"],
    }
    return Outcome(
        events=events,
        sim_seconds=sim_seconds,
        build_s=build_s,
        arrivals_s=0.0,
        wall_s=wall_s,
        modelled={
            "jobs_failed_pct": _pct(n_cells - states["succeeded"], n_cells),
            "sim_makespan_s": makespan,
        },
        accounting=accounting,
        digest=_digest(lines),
        layer={"service.rejected": 0.0, "service.queue_wait_p50_s": 0.0},
    )


# ----------------------------------------------------------------------
# scale: the scale10k configuration, subsampled
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScaleSize:
    trials: int = 5
    n_nodes: int = 2000
    n_dedicated: int = 20
    jobs_per_hour: float = 20000.0
    hours: float = 0.1


def run_scale(seed: int, size: ScaleSize, attach: Attach = None) -> Outcome:
    """Tiny one-map, one-reduce jobs on a 2k-node cluster: speculation
    off, dedicated-only replication, FIFO queue with 2048 in flight and
    finished jobs released."""
    horizon = size.hours * HOUR
    t0 = perf_counter()
    sched = replace(
        moon_policy(True), speculative_enabled=False, dedicated_primary=True
    )
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(
                n_volatile=size.n_nodes - size.n_dedicated,
                n_dedicated=size.n_dedicated,
                heartbeat_interval=15.0,
            ),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=sched,
            seed=seed,
        )
    )
    build_s = perf_counter() - t0
    t0 = perf_counter()
    spec = replace(
        sleep_spec(12.0, 4.0, n_maps=1, n_reduces=1),
        intermediate_rf=RF(1, 0),
        output_rf=RF(1, 0),
    )
    gap_rng, pick_rng = np.random.default_rng(seed).spawn(2)
    arrivals = poisson_arrivals_vectorised(
        gap_rng,
        pick_rng,
        size.jobs_per_hour,
        horizon,
        [WorkloadClass(spec, slo_seconds=None)],
    )
    arrivals_s = perf_counter() - t0
    config = ServiceConfig(
        policy="fifo",
        max_in_flight=2048,
        max_queue_depth=None,
        horizon=horizon,
        drain_limit=2 * HOUR,
        release_finished=True,
    )
    return _serve(
        system, arrivals, config, "poisson", attach, build_s, arrivals_s
    )


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[..., Outcome]
    full: object
    tiny: object


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("service", run_service, ServiceSize(),
                 ServiceSize(trials=2, hours=0.25, jobs_per_hour=120.0)),
        Workload("sort", run_sort, SortSize(),
                 SortSize(trials=2, sort_maps=16, fairshare_maps=4)),
        Workload("scale", run_scale, ScaleSize(),
                 ScaleSize(trials=2, n_nodes=200, n_dedicated=4,
                           jobs_per_hour=2000.0, hours=0.1)),
    )
}
