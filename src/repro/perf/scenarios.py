"""Named macro-scenarios for the perf-regression harness.

Each scenario is an end-to-end slice of a paper pipeline (or of the
service layer) sized to run in seconds, built fresh on every call so
wall-clock timings never hit the experiment memo cache.  Scenarios pin
the reduced scale explicitly — timings must stay comparable across
machines and across ``REPRO_FULL_SCALE`` settings.

The work counters a scenario returns (simulated events, completed
jobs) double as a behaviour checksum: the same code must report the
same counts on every run.  The runner records a per-scenario
``events_match_baseline`` flag (and prints a notice on drift) so a
count change vs the committed baseline reads as "the simulation's
behaviour changed", not just its speed — expected only when a
behaviour-changing PR re-pins the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..config import ClusterConfig, SchedulerConfig, SystemConfig, TraceConfig
from ..dfs import ReplicationFactor
from ..experiments.harness import hadoop_policy, moon_policy, run_job_once
from ..experiments.scale import Scale, sort_at
from ..workloads import JobSpec

#: The scale every scenario runs at (the benchmarks' reduced scale,
#: pinned here so env overrides cannot skew baseline comparisons).
PERF_SCALE = Scale(
    n_volatile=60,
    n_dedicated=6,
    sort_maps=384,
    wc_maps=320,
    data_factor=0.5,
    seeds=(42,),
    time_limit=4 * 3600.0,
)


def _rf(d: int, v: int) -> ReplicationFactor:
    return ReplicationFactor(d, v)


def _cell_config(
    rate: float,
    scheduler: SchedulerConfig,
    n_dedicated: Optional[int] = None,
    network_model: str = "fifo",
) -> SystemConfig:
    return SystemConfig(
        cluster=ClusterConfig(
            n_volatile=PERF_SCALE.n_volatile,
            n_dedicated=(
                PERF_SCALE.n_dedicated if n_dedicated is None else n_dedicated
            ),
        ),
        trace=TraceConfig(unavailability_rate=rate),
        scheduler=scheduler,
        seed=PERF_SCALE.seeds[0],
        network_model=network_model,
    )


def _run_cells(
    cells: List[Tuple[JobSpec, float, SchedulerConfig, bool, Optional[int], str]]
) -> Dict[str, float]:
    """Run (spec, rate, sched, hadoop_mode, n_dedicated, net) cells."""
    events = 0
    jobs_done = 0
    sim_seconds = 0.0
    for spec, rate, sched, hadoop_mode, n_ded, net in cells:
        cfg = _cell_config(rate, sched, n_dedicated=n_ded, network_model=net)
        result, system = run_job_once(
            cfg, spec, hadoop_mode, PERF_SCALE.time_limit
        )
        events += system.sim.executed_events
        sim_seconds += system.sim.now
        if result.succeeded:
            jobs_done += 1
    return {
        "events": float(events),
        "jobs_done": float(jobs_done),
        "sim_seconds": sim_seconds,
    }


# ----------------------------------------------------------------------
# Scenario bodies
# ----------------------------------------------------------------------
def _fig6_slice() -> Dict[str, float]:
    """Fig. 6 pipeline slice: sort under HA-V1 and VO-V1 at rate 0.5.

    The two intermediate-replication extremes exercise the shuffle
    pump, write pipelines and the replication queue back to back.
    """
    def spec(inter: ReplicationFactor) -> JobSpec:
        return sort_at(PERF_SCALE).with_(
            intermediate_rf=inter, input_rf=_rf(1, 3), output_rf=_rf(1, 3)
        )

    return _run_cells(
        [
            (spec(_rf(1, 1)), 0.5, moon_policy(True), False, None, "fifo"),
            (spec(_rf(0, 1)), 0.5, moon_policy(True), False, None, "fifo"),
        ]
    )


def _fig7_slice() -> Dict[str, float]:
    """Fig. 7 pipeline slice: Hadoop-VO vs MOON-Hybrid D6 at rate 0.5.

    The Hadoop-VO cell (six uniform replicas) floods the DFS layers;
    the MOON cell covers hybrid scheduling plus hibernation handling.
    """
    base = sort_at(PERF_SCALE)
    hadoop_spec = base.with_(
        input_rf=_rf(0, 6), output_rf=_rf(0, 6), intermediate_rf=_rf(0, 3)
    )
    moon_spec = base.with_(
        input_rf=_rf(1, 3), output_rf=_rf(1, 3), intermediate_rf=_rf(1, 1)
    )
    return _run_cells(
        [
            (hadoop_spec, 0.5, hadoop_policy(1), True, None, "fifo"),
            (moon_spec, 0.5, moon_policy(True), False, 6, "fifo"),
        ]
    )


def _service2k_spec():
    """The ``service2k`` world: ~2000 Poisson arrivals on the sleep
    catalog over an 8-hour horizon, EDF queue, 30+3 nodes at 0.3.  The
    other 2k service scenarios each replace one part of it."""
    from ..service import ServiceConfig
    from ..service.world import RunSpec, SyntheticArrivals

    return RunSpec(
        system=SystemConfig(
            cluster=ClusterConfig(n_volatile=30, n_dedicated=3),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=moon_policy(True),
            seed=PERF_SCALE.seeds[0],
        ),
        service=ServiceConfig(
            policy="edf",
            max_in_flight=16,
            max_queue_depth=256,
            horizon=8 * 3600.0,
            drain_limit=4 * 3600.0,
        ),
        arrivals=SyntheticArrivals(jobs_per_hour=250.0, catalog="sleep"),
    )


#: Bursts of ~30 jobs, 8 bursts an hour (the autoscale/preempt stress).
_BURSTY_2K = dict(
    pattern="bursty", jobs_per_hour=240.0, burst_size=30.0, catalog="sleep"
)


def _serve(spec, **counters) -> Dict[str, float]:
    """Run ``spec``; the common work counters plus ``counters``, each a
    function of (report, service)."""
    from ..service.world import run

    report, service = run(spec)
    work = {
        "events": float(service.sim.executed_events),
        "jobs_done": float(report.overall.completed),
        "sim_seconds": service.sim.now,
        "arrivals": float(len(service.records)),
    }
    for name, counter in counters.items():
        work[name] = float(counter(report, service))
    return work


def _metric(name: str):
    """A counter reading one registry counter of the served world."""
    return lambda _report, service: (
        service.system.obs.metrics.counter(name).value
    )


def _service_2k() -> Dict[str, float]:
    """2k-job service stream: Poisson arrivals on the sleep catalog.

    ~2000 arrivals over an 8-hour horizon through admission control,
    the EDF queue and the full task machinery underneath.
    """
    return _serve(_service2k_spec())


def _autoscale_2k() -> Dict[str, float]:
    """2k-job bursty stream with the reactive provisioning controller.

    Exercises the dynamic-membership machinery end to end: control
    rounds on the sim clock, repeated provision / graceful-drain /
    decommission cycles (tracker and DataNode registries churn, ids
    get reused), and the node-hours accounting — on top of the same
    admission/queue/task stack as ``service2k``.
    """
    from ..service import AutoscaleConfig
    from ..service.world import SyntheticArrivals

    base = _service2k_spec()
    return _serve(
        replace(
            base,
            service=replace(
                base.service,
                autoscale=AutoscaleConfig(
                    policy="reactive", min_dedicated=1, max_dedicated=12
                ),
            ),
            arrivals=SyntheticArrivals(**_BURSTY_2K),
        ),
        scale_actions=lambda report, _s: len(report.scale_events),
        node_hours=lambda report, _s: report.node_hours,
    )


def _replay_2k() -> Dict[str, float]:
    """2k-job trace replay: the full workload-trace pipeline, timed.

    Synthesizes a ~2000-job stream from the bundled Hadoop-style
    sample's fitted inter-arrival law (18x load over a 4x horizon),
    calibrates every job onto the catalogue, and serves the replay
    through the EDF queue — fit + sample + calibrate + replay end to
    end, on the same cluster shape as ``service2k``.
    """
    import numpy as np

    from ..service.world import TraceArrivals
    from ..workload_traces import (
        SynthesisConfig,
        sample_hadoop_trace,
        synthesize,
        trace_arrivals,
    )

    trace = synthesize(
        sample_hadoop_trace(),
        np.random.default_rng(PERF_SCALE.seeds[0]),
        SynthesisConfig(load_factor=18.0, horizon_factor=4.0),
    )
    base = _service2k_spec()
    return _serve(
        replace(
            base,
            service=replace(
                base.service, horizon=trace.horizon, trace_name=trace.name
            ),
            arrivals=TraceArrivals(
                tuple(trace_arrivals(trace)), pattern=trace.pattern
            ),
        )
    )


def _preempt_2k() -> Dict[str, float]:
    """2k-job bursty stream under SLO-aware pause preemption.

    The same admission/queue/task stack as ``service2k`` with the
    PreemptionController armed in its heaviest mode: tight-SLO bursts
    repeatedly demote and pause in-flight batch jobs, exercising the
    job-level hold/release machinery (slot release, tracker
    re-registration, shuffle re-pump on resume) at trace scale.
    """
    from ..service import PreemptConfig
    from ..service.world import SyntheticArrivals

    base = _service2k_spec()
    return _serve(
        replace(
            base,
            service=replace(
                base.service,
                preempt=PreemptConfig(mode="pause"),
                admission_prices=True,
            ),
            arrivals=SyntheticArrivals(**_BURSTY_2K),
        ),
        preempt_actions=lambda report, _s: len(report.preempt_events),
        pauses=lambda report, _s: report.preempt_counts["pause"],
    )


def _detect_2k() -> Dict[str, float]:
    """2k-job service stream judged by the adaptive honest detector.

    The same admission/queue/task stack as ``service2k``, but node
    state is *observed* rather than oracle-fed: per-node silence
    processes, phi-accrual threshold updates on every gap, grace-period
    requeues and late-result reconciliation all run at trace scale.
    The detector counters double as a behaviour checksum for the whole
    suspicion layer.
    """
    from ..config import DetectorConfig

    base = _service2k_spec()
    return _serve(
        replace(
            base,
            system=replace(
                base.system, detector=DetectorConfig(mode="adaptive")
            ),
        ),
        trips=_metric("detector/trips"),
        false_positives=_metric("detector/false_positives"),
        requeues=_metric("detector/suspicion_requeues"),
    )


def _recover_2k() -> Dict[str, float]:
    """2k-job service stream with the journal on and a mid-stream
    NameNode crash.

    The same admission/queue/task stack as ``service2k``, but every
    namespace/block-map mutation appends a journal record, checkpoints
    fire on the sim clock, and at t=2h the master dies: unsynced tail
    lost, checkpoint + durable log replayed, datanode block reports
    reconverge the replica maps while the stream keeps arriving.  The
    journal counters double as a behaviour checksum for the whole
    durable-metadata layer.
    """
    from ..config import DfsConfig, JournalConfig

    base = _service2k_spec()
    journal = JournalConfig(
        enabled=True, checkpoint_interval=600.0, crash_at=2 * 3600.0
    )
    return _serve(
        replace(
            base, system=replace(base.system, dfs=DfsConfig(journal=journal))
        ),
        journal_records=_metric("dfs/journal_records"),
        checkpoints=_metric("dfs/checkpoints"),
        replicas_recovered=_metric("dfs/replicas_recovered"),
    )


def scale_stream(
    n_nodes: int = 10000,
    jobs_per_hour: float = 41667.0,
    hours: float = 24.0,
) -> Dict[str, float]:
    """Service-scale stress: an ``n_nodes``-node cluster serving a
    day-long Poisson stream (defaults: 10k nodes, ~1M jobs over 24h).

    This is the engine-scale-out checksum: the dispatch loop, the
    vectorised arrival sampler, the candidacy-indexed assignment walk
    and the busy-tracker registry all run at their design scale.  The
    configuration keeps per-event cost independent of cluster size on
    purpose — every choice below is a documented scaling lever, not an
    accident:

    * ``speculative_enabled=False``: pure pending-task placement, so
      jobs whose tasks are all running drop out of the walk in O(1)
      and the per-tick progress refresh is skipped entirely;
    * dedicated-only replication (``rf {1,0}``) on a 100-node
      dedicated tier: write placement scans the tier, never the 9,900
      volatile nodes (volatile placement is rng-driven over the full
      servable pool and cannot be subsampled decision-preservingly);
    * ``release_finished=True``: the JobTracker forgets reaped jobs,
      so memory tracks the in-flight window, not the full million;
    * explicit ``n_reduces`` skips the cluster-wide slot census per
      submit, and a 15 s heartbeat bounds idle-tick overhead.

    CI runs this subsampled (see ``.github/workflows/ci.yml``); the
    committed baseline pins the full size.
    """
    from ..core import moon_system
    from ..service import MoonService, ServiceConfig
    from ..service.arrivals import WorkloadClass, poisson_arrivals_vectorised
    from ..service.world import finish
    from ..workloads import sleep_spec

    n_dedicated = min(100, max(1, n_nodes // 100))
    sched = replace(
        moon_policy(True),
        speculative_enabled=False,
        dedicated_primary=True,
    )
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(
                n_volatile=n_nodes - n_dedicated,
                n_dedicated=n_dedicated,
                heartbeat_interval=15.0,
            ),
            trace=TraceConfig(unavailability_rate=0.3),
            scheduler=sched,
            seed=PERF_SCALE.seeds[0],
        )
    )
    spec = replace(
        sleep_spec(12.0, 4.0, n_maps=1, n_reduces=1),
        intermediate_rf=_rf(1, 0),
        output_rf=_rf(1, 0),
    )
    horizon = hours * 3600.0
    arrivals = poisson_arrivals_vectorised(
        system.sim.rng("service/arrival_gaps"),
        system.sim.rng("service/arrival_picks"),
        jobs_per_hour,
        horizon,
        [WorkloadClass(spec, slo_seconds=None)],
    )
    service = MoonService(
        system,
        ServiceConfig(
            policy="fifo",
            max_in_flight=2048,
            max_queue_depth=None,
            horizon=horizon,
            drain_limit=2 * 3600.0,
            release_finished=True,
        ),
        arrivals,
        pattern="poisson",
    )
    report = finish(service)
    return {
        "events": float(system.sim.executed_events),
        "jobs_done": float(report.overall.completed),
        "sim_seconds": system.sim.now,
        "arrivals": float(len(arrivals)),
    }


def _scale10k() -> Dict[str, float]:
    return scale_stream()


def _fairshare_sort() -> Dict[str, float]:
    """Max-min fair-share network under a data-heavy sort at rate 0.3.

    Dominated by water-filling recomputation on every flow start and
    finish — the target of the incremental allocator.
    """
    spec = sort_at(PERF_SCALE).with_(
        n_maps=192,
        input_rf=_rf(1, 3),
        output_rf=_rf(1, 3),
        intermediate_rf=_rf(1, 1),
    )
    return _run_cells(
        [(spec, 0.3, moon_policy(True), False, None, "fairshare")]
    )


@dataclass(frozen=True)
class Scenario:
    """One named macro-scenario of the perf harness."""

    name: str
    description: str
    run: Callable[[], Dict[str, float]]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("fig6", "Fig. 6 slice: sort HA-V1 + VO-V1 at rate 0.5",
                 _fig6_slice),
        Scenario("fig7", "Fig. 7 slice: Hadoop-VO + MOON-Hybrid D6 at 0.5",
                 _fig7_slice),
        Scenario("service2k", "2k-job Poisson service stream (EDF queue)",
                 _service_2k),
        Scenario("autoscale2k",
                 "2k-job bursty stream with reactive tier autoscaling",
                 _autoscale_2k),
        Scenario("replay2k",
                 "2k-job synthesized trace replay (fit + calibrate + EDF)",
                 _replay_2k),
        Scenario("preempt2k",
                 "2k-job bursty stream under SLO-aware pause preemption",
                 _preempt_2k),
        Scenario("detect2k",
                 "2k-job Poisson stream under the adaptive honest detector",
                 _detect_2k),
        Scenario("recover2k",
                 "2k-job Poisson stream, journal on, NameNode crash at 2h",
                 _recover_2k),
        Scenario("fairshare", "192-map sort on the fair-share network",
                 _fairshare_sort),
        Scenario("scale10k",
                 "10k-node cluster, ~1M-job day-long Poisson stream",
                 _scale10k),
    )
}
