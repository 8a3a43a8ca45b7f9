"""The exhaustion-pruned assignment walk makes the unpruned walk's
decisions.

``SchedulerPolicy.select_task`` answers ``EXHAUSTED`` when a job can
take no slot of a type on any tracker for the rest of a tick, and the
JobTracker then drops the job from that type's walk until the next
tick.  The reference here is :func:`unpruned`, a test-side wrapper that
maps the sentinel back to ``None``: the walk then asks every job for
every free slot, as it did before the pruning.  Both walks must launch
the same attempts at the same instants on the same nodes, and execute
the same number of events, over drawn worlds with several jobs, churn,
preemption and both detector families.

The same file holds the from-scratch oracle of the candidacy index
(:func:`job_is_candidate`) and checks the index against it at every
tick.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    ClusterConfig,
    DetectorConfig,
    SchedulerConfig,
    SystemConfig,
    TraceConfig,
    hadoop_scheduler_config,
    moon_scheduler_config,
)
from repro.core import hadoop_system, moon_system
from repro.dfs import ReplicationFactor
from repro.mapreduce import JobTracker
from repro.mapreduce.task import TaskState, TaskType
from repro.scheduling import EXHAUSTED, MoonScheduler
from repro.workloads import sleep_spec, sort_spec

HOUR = 3600.0

VARIANTS = {
    "moon-hybrid": moon_scheduler_config(hybrid_aware=True),
    "moon-plain": moon_scheduler_config(hybrid_aware=False),
    "moon-primary": replace(
        moon_scheduler_config(hybrid_aware=True), dedicated_primary=True
    ),
    "hadoop": hadoop_scheduler_config(),
    "late": SchedulerConfig(
        kind="late", tracker_expiry_interval=600.0, hybrid_aware=False
    ),
}


def unpruned(policy):
    """Reference walk: the policy never reports exhaustion, so the
    JobTracker keeps asking every job for every free slot."""
    select = policy.select_task

    def select_task(job, tracker, task_type):
        picked = select(job, tracker, task_type)
        return None if picked is EXHAUSTED else picked

    policy.select_task = select_task


class CoLocationExhausts(MoonScheduler):
    """Mutant: also reports exhaustion when a speculative candidate was
    refused only for co-location, which depends on the tracker."""

    def _pick_speculative(self, job, tracker, task_type):
        picked = super()._pick_speculative(job, tracker, task_type)
        return EXHAUSTED if picked is None else picked


def build(variant, speculate, detector, seed, rate=0.4, n_volatile=6):
    sched = replace(VARIANTS[variant], speculative_enabled=speculate)
    cfg = SystemConfig(
        cluster=ClusterConfig(n_volatile=n_volatile, n_dedicated=2),
        trace=TraceConfig(unavailability_rate=rate),
        scheduler=sched,
        detector=DetectorConfig(mode=detector),
        seed=seed,
    )
    make = moon_system if sched.kind == "moon" else hadoop_system
    return make(cfg)


def run_world(system, specs, schedule, limit=4 * HOUR):
    """Submit ``specs`` at their offsets, apply the preemption script,
    drain; return the launch log and the executed event count."""
    sim, jt = system.sim, system.jobtracker
    log = []
    launch = jt.launch

    def recording_launch(task, tracker, speculative):
        attempt = launch(task, tracker, speculative)
        log.append(
            (
                sim.now,
                task.job.submit_seq,
                task.task_type.value,
                task.index,
                tracker.node_id,
                speculative,
                attempt.cause,
            )
        )
        return attempt

    jt.launch = recording_launch
    actions = sorted(
        [(t, 0, "submit", spec) for t, spec in specs]
        + [(t, 1, action, idx) for t, action, idx in schedule],
        key=lambda a: (a[0], a[1]),
    )
    jobs = []
    for t, _, action, arg in actions:
        sim.run(until=t)
        if action == "submit":
            jobs.append(jt.submit(arg))
        elif jobs:
            job = jobs[arg % len(jobs)]
            getattr(jt, action)(job)
    for job in jobs:
        jt.resume_job(job)
        jt.restore_job(job)
    sim.run(until=limit, stop_when=lambda: all(j.finished for j in jobs))
    return log, sim.executed_events


def small_sort(n_maps):
    """A sort whose map outputs live on volatile nodes only: churn
    loses them, so a reduce launch can fail a fetch on the spot and
    send a completed map back to PENDING inside the tick."""
    return sort_spec(
        n_maps=n_maps, block_mb=8.0, intermediate_rf=ReplicationFactor(0, 1)
    )


@st.composite
def workload(draw):
    n_jobs = draw(st.integers(min_value=2, max_value=4))
    specs = []
    t = 0.0
    for i in range(n_jobs):
        if draw(st.booleans()):
            spec = sleep_spec(
                map_seconds=draw(st.sampled_from([20.0, 90.0, 240.0])),
                reduce_seconds=draw(st.sampled_from([5.0, 40.0])),
                n_maps=draw(st.integers(min_value=2, max_value=16)),
                n_reduces=draw(st.integers(min_value=0, max_value=3)),
            )
        else:
            spec = small_sort(draw(st.integers(min_value=4, max_value=24)))
        specs.append((t, spec.with_(name=f"job-{i}")))
        t += draw(st.sampled_from([0.0, 30.0, 200.0]))
    schedule = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        t += draw(st.sampled_from([10.0, 60.0, 300.0]))
        action = draw(
            st.sampled_from(
                ["pause_job", "resume_job", "deprioritise_job", "restore_job"]
            )
        )
        schedule.append((t, action, draw(st.integers(0, 3))))
    return specs, schedule


def compare(variant, speculate, detector, seed, n_volatile, specs, schedule):
    pruned = run_world(
        build(variant, speculate, detector, seed, n_volatile=n_volatile),
        specs, schedule,
    )
    reference = build(variant, speculate, detector, seed, n_volatile=n_volatile)
    unpruned(reference.jobtracker.policy)
    return pruned, run_world(reference, specs, schedule)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    variant=st.sampled_from(sorted(VARIANTS)),
    speculate=st.booleans(),
    detector=st.sampled_from(["oracle", "timeout"]),
    seed=st.integers(min_value=0, max_value=2**16),
    n_volatile=st.sampled_from([6, 12]),
    drawn=workload(),
)
def test_pruned_walk_matches_unpruned(
    variant, speculate, detector, seed, n_volatile, drawn
):
    specs, schedule = drawn
    (log, events), (ref_log, ref_events) = compare(
        variant, speculate, detector, seed, n_volatile, specs, schedule
    )
    assert log == ref_log
    assert events == ref_events


def _speculative_world():
    """Two jobs on a churny hybrid cluster: enough suspended copies and
    stragglers that co-location decides some speculative picks."""
    specs = [
        (0.0, sleep_spec(240.0, 20.0, n_maps=16, n_reduces=2)),
        (30.0, sleep_spec(90.0, 20.0, n_maps=12, n_reduces=1)),
    ]
    return specs, []


def test_mutant_exhausting_on_colocation_is_caught():
    """Reporting exhaustion on a ``can_host`` refusal drops a job that
    another tracker would still take: the launch logs must differ."""
    specs, schedule = _speculative_world()
    reference = build("moon-hybrid", True, "oracle", seed=3, rate=0.5)
    unpruned(reference.jobtracker.policy)
    ref_log, _ = run_world(reference, specs, schedule)
    assert sum(1 for entry in ref_log if entry[5]) >= 5  # speculative

    mutant = build("moon-hybrid", True, "oracle", seed=3, rate=0.5)
    jt = mutant.jobtracker
    jt.policy = CoLocationExhausts(jt.cfg)
    jt.policy.bind(jt)
    mutant_log, _ = run_world(mutant, specs, schedule)
    assert mutant_log != ref_log

    shipped_log, _ = run_world(
        build("moon-hybrid", True, "oracle", seed=3, rate=0.5),
        specs, schedule,
    )
    assert shipped_log == ref_log


def test_launch_that_requeues_a_map_wakes_parked_jobs():
    """A reduce launch whose shuffle fetch fails on the spot can send a
    completed map back to PENDING mid-tick, un-exhausting a job parked
    for maps.  A walk that never un-parks must diverge here; the
    shipped walk must not."""
    specs = [(0.0, small_sort(24))]

    def world():
        return build("moon-hybrid", True, "oracle", seed=3, rate=0.5,
                     n_volatile=12)

    reference = world()
    unpruned(reference.jobtracker.policy)
    ref_log, ref_events = run_world(reference, specs, [])
    assert any(entry[6] == "fetch_failure" for entry in ref_log)

    stuck = world()
    jt = stuck.jobtracker
    assign = jt._assign_one
    jt._assign_one = (
        lambda tracker, task_type, jobs, parked:
        assign(tracker, task_type, jobs, [])
    )
    stuck_log, _ = run_world(stuck, specs, [])
    assert stuck_log != ref_log

    assert run_world(world(), specs, []) == (ref_log, ref_events)


def test_dedicated_tracker_keeps_job_with_pending_maps():
    """V-C trap: MOON-Hybrid sends a dedicated tracker straight to the
    speculative path, so a job with pending maps and empty speculative
    lists is refused there — but only there.  The answer must be
    ``None``, and the walk must keep the job for volatile trackers."""
    system = build("moon-hybrid", True, "oracle", seed=3, rate=0.0)
    jt = system.jobtracker
    # More maps than volatile map slots: pending maps outlive the
    # submit-time tick, and nothing has run long enough to straggle.
    job = jt.submit(sleep_spec(300.0, 5.0, n_maps=40, n_reduces=1))
    assert job.pending_count(TaskType.MAP) > 0
    dedicated = [t for t in jt.trackers.values() if t.node.is_dedicated]
    volatile = [t for t in jt.trackers.values() if not t.node.is_dedicated]
    policy = jt.policy
    policy.begin_tick()
    frozen, slow, home = policy._spec_candidates(job, TaskType.MAP)
    assert not (frozen or slow or home)
    assert policy.select_task(job, dedicated[0], TaskType.MAP) is None
    walk, parked = [job], []
    assert jt._assign_one(dedicated[0], TaskType.MAP, walk, parked) is False
    assert walk == [job] and parked == []
    picked = policy.select_task(job, volatile[0], TaskType.MAP)
    assert picked is not None and picked is not EXHAUSTED
    assert picked[1] is False


# ----------------------------------------------------------------------
# Candidacy index: incremental equals from scratch, at every tick
# ----------------------------------------------------------------------
def job_is_candidate(job, task_type, slowstart_fraction, speculate):
    """Can ``select_task`` possibly return a ``task_type`` task of this
    job on *any* tracker this tick?  Recomputed from task states alone:
    every selectable task is either PENDING — and pending reduces are
    gated by the slow-start rule — or incomplete-with-attempts (the
    speculative pools draw on running tasks plus requeued tasks that
    ran before)."""
    pool = job.maps if task_type is TaskType.MAP else job.reduces
    pending = [t for t in pool if t.state is TaskState.PENDING]
    running = [t for t in pool if t.state is TaskState.RUNNING]
    if pending:
        if task_type is TaskType.MAP:
            return True
        done = sum(1 for t in job.maps if t.state is TaskState.SUCCEEDED)
        if not job.maps or done / len(job.maps) >= slowstart_fraction:
            return True
        # Pending-but-ineligible reduces that ran before remain
        # homestretch material (MOON V-B).
        if speculate and any(t.attempts for t in pending):
            return True
    return bool(speculate and running)


def test_candidacy_index_equals_oracle_every_tick(monkeypatch):
    checked = {"ticks": 0, "members": 0}
    original = JobTracker._tick

    def audited_tick(self):
        cfg = self.cfg
        for task_type in (TaskType.MAP, TaskType.REDUCE):
            expected = {
                job.job_id
                for job in self.jobs
                if not job.finished
                and job_is_candidate(
                    job,
                    task_type,
                    cfg.reduce_slowstart_fraction,
                    cfg.speculative_enabled,
                )
            }
            actual = {job.job_id for job in self._assign_candidates[task_type]}
            assert actual == expected, (self.sim.now, task_type)
            checked["members"] += len(actual)
        checked["ticks"] += 1
        original(self)

    monkeypatch.setattr(JobTracker, "_tick", audited_tick)
    system = build("moon-hybrid", True, "timeout", seed=11, rate=0.5)
    jt = system.jobtracker
    specs = [
        (0.0, sleep_spec(120.0, 30.0, n_maps=20, n_reduces=3)),
        (60.0, sleep_spec(60.0, 30.0, n_maps=10, n_reduces=2)),
        (400.0, sleep_spec(200.0, 10.0, n_maps=8, n_reduces=1)),
    ]
    run_world(system, specs, [(500.0, "pause_job", 1), (900.0, "resume_job", 1)])
    jobs = jt.jobs
    assert all(job.finished for job in jobs)
    assert checked["ticks"] > 100 and checked["members"] > 100
    # The world must exercise what the index tracks: requeues and
    # slow-start-gated reduces.
    assert any(
        a.cause in ("failure", "suspicion", "fetch_failure")
        for job in jobs
        for t in job.tasks
        for a in t.attempts
    )
