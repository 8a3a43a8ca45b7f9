"""Preemption-invariant property tests (SLO-aware preemption, S15).

Random pause/resume/deprioritise/restore sequences are driven against
random job mixes on a churn-free cluster (``rate=0`` isolates the
preemption hooks: nothing else can kill, suspend or re-execute work),
and the machinery must uphold:

* **work conservation** — no completed map is ever re-executed after a
  resume: its attempt list stops growing the moment it completes, and
  the ``map_reexecutions`` counter stays zero;
* **no lost or duplicated attempts** — every attempt ends in exactly
  one terminal state, tracker occupancy returns to zero, the
  speculative-attempt counter matches its O(attempts) recount, and no
  held attempt is left behind on any job;
* **progress is banked** — pausing and resuming is pure delay, never
  rollback: every job still finishes;
* **determinism** — the same seed and the same preemption schedule
  produce identical per-job finish times;
* **``--preempt off`` is byte-identical** to a service without any
  controller: same event count, same rendered report (the service-
  level guarantee behind the unchanged paper-figure goldens).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    ClusterConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from repro.core import moon_system
from repro.service import (
    MoonService,
    PreemptConfig,
    ServiceConfig,
    bursty_arrivals,
    replay_arrivals,
    sleep_catalog,
)
from repro.workloads import sleep_spec

HOUR = 3600.0
TIME_LIMIT = 6 * HOUR


def make_system(seed=7, n_volatile=6, n_dedicated=2, rate=0.0):
    return moon_system(
        SystemConfig(
            cluster=ClusterConfig(
                n_volatile=n_volatile, n_dedicated=n_dedicated
            ),
            trace=TraceConfig(unavailability_rate=rate),
            scheduler=moon_scheduler_config(),
            seed=seed,
        )
    )


@st.composite
def job_mix(draw):
    n_jobs = draw(st.integers(min_value=2, max_value=4))
    specs = []
    for i in range(n_jobs):
        specs.append(
            sleep_spec(
                map_seconds=draw(st.sampled_from([5.0, 30.0, 120.0])),
                reduce_seconds=draw(st.sampled_from([2.0, 20.0])),
                n_maps=draw(st.integers(min_value=2, max_value=10)),
                n_reduces=draw(st.integers(min_value=0, max_value=2)),
            ).with_(name=f"job-{i}")
        )
    return specs


@st.composite
def preempt_schedule(draw, n_jobs_max=4):
    """A deterministic action script: (delay s, action, job index)."""
    n = draw(st.integers(min_value=3, max_value=10))
    out = []
    t = 0.0
    for _ in range(n):
        t += draw(st.sampled_from([1.0, 15.0, 60.0, 240.0]))
        action = draw(
            st.sampled_from(["pause", "resume", "deprioritise", "restore"])
        )
        out.append((t, action, draw(st.integers(0, n_jobs_max - 1))))
    return out


def drive(system, specs, schedule):
    """Submit the mix, run the action script, drain to completion.

    Returns the jobs plus the attempt-count snapshots taken for every
    task observed complete (the work-conservation witness).
    """
    jt = system.jobtracker
    jobs = [jt.submit(spec) for spec in specs]
    completed_snapshot = {}

    def snapshot():
        for job in jobs:
            for task in job.tasks:
                if task.complete and task.task_id not in completed_snapshot:
                    completed_snapshot[task.task_id] = len(task.attempts)

    for t, action, idx in schedule:
        system.sim.run(until=min(t, TIME_LIMIT))
        snapshot()
        job = jobs[idx % len(jobs)]
        if action == "pause":
            jt.pause_job(job)
        elif action == "resume":
            jt.resume_job(job)
        elif action == "deprioritise":
            jt.deprioritise_job(job)
        else:
            jt.restore_job(job)
        snapshot()
    # Final unwind: whatever is still paused must resume, then the
    # whole mix must drain.
    for job in jobs:
        jt.resume_job(job)
        jt.restore_job(job)
    system.sim.run(
        until=TIME_LIMIT, stop_when=lambda: all(j.finished for j in jobs)
    )
    snapshot()
    return jobs, completed_snapshot


class TestPreemptionInvariants:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        specs=job_mix(),
        schedule=preempt_schedule(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_preemption_conserves_work(
        self, specs, schedule, seed
    ):
        system = make_system(seed=seed)
        jobs, snapshot = drive(system, specs, schedule)

        for job in jobs:
            # Progress is banked, never rolled back: everything ends.
            assert job.state.value == "succeeded", job.failure_reason
            # Work conservation: a churn-free cluster re-executes no
            # completed map, with or without preemption in between.
            assert job.counters["map_reexecutions"] == 0
            assert not job.paused and not job.deprioritised
            assert job.held_attempts == []
            # No lost/duplicated attempts: every attempt is terminal,
            # the speculative counter agrees with its recount, and
            # completed tasks never grew new attempts afterwards.
            assert job.speculative_attempts_active() == 0
            assert job.recount_speculative() == 0
            for task in job.tasks:
                assert not task.live_attempts()
                for attempt in task.attempts:
                    assert attempt.finished
                assert len(task.attempts) >= 1
                assert len(task.attempts) == snapshot[task.task_id]

        # Slot accounting drained: no occupancy, no overcommit left.
        from repro.mapreduce.task import TaskType

        for tracker in system.jobtracker.trackers.values():
            assert not tracker.attempts
            assert tracker.occupied(TaskType.MAP) == 0
            assert tracker.occupied(TaskType.REDUCE) == 0
            assert tracker.overcommitted(TaskType.MAP) == 0
            assert tracker.overcommitted(TaskType.REDUCE) == 0

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        specs=job_mix(),
        schedule=preempt_schedule(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_preempted_rerun_is_deterministic(
        self, specs, schedule, seed
    ):
        def finish_times(system):
            jobs, _ = drive(system, specs, schedule)
            return [j.finished_at for j in jobs], system.sim.executed_events

        t1, e1 = finish_times(make_system(seed=seed))
        t2, e2 = finish_times(make_system(seed=seed))
        assert t1 == t2
        assert e1 == e2


class TestPauseSemantics:
    """Deterministic spot checks under the property suite."""

    def test_pause_releases_slots_and_resume_recovers(self):
        system = make_system()
        jt = system.jobtracker
        job = jt.submit(
            sleep_spec(300.0, 60.0, n_maps=8, n_reduces=1)
        )
        system.sim.run(until=30.0)
        busy = sum(t.busy_slots() for t in jt.trackers.values())
        assert busy > 0
        jt.pause_job(job)
        assert job.paused
        assert sum(t.busy_slots() for t in jt.trackers.values()) == 0
        assert all(not a.finished for a in job.held_attempts)
        # Paused jobs are invisible to the assignment walk: time can
        # pass without any progress.
        done_before = job.maps_completed()
        system.sim.run(until=600.0)
        assert job.maps_completed() == done_before
        jt.resume_job(job)
        system.sim.run(until=TIME_LIMIT, stop_when=lambda: job.finished)
        assert job.state.value == "succeeded"
        assert job.counters["preempt_pauses"] == 1
        assert job.counters["preempt_resumes"] == 1

    def test_pause_is_delay_not_rollback(self):
        """A paused-and-resumed run finishes later than an unpaused
        one by at most the pause window plus bounded I/O restart —
        banked compute is never thrown away."""
        def run(paused_for):
            system = make_system()
            jt = system.jobtracker
            job = jt.submit(sleep_spec(120.0, 30.0, n_maps=6, n_reduces=1))
            system.sim.run(until=60.0)
            if paused_for:
                jt.pause_job(job)
                system.sim.run(until=60.0 + paused_for)
                jt.resume_job(job)
            system.sim.run(
                until=TIME_LIMIT, stop_when=lambda: job.finished
            )
            assert job.state.value == "succeeded"
            return job.finished_at

        base = run(0.0)
        paused = run(500.0)
        assert paused > base
        # Generous slack for heartbeat re-assignment + I/O restarts.
        assert paused <= base + 500.0 + 120.0

    def test_physical_resume_does_not_wake_held_attempts(self):
        """The VM-pause path must not undo a job-level hold: a node
        bouncing while its job is paused leaves the work suspended."""
        from repro.mapreduce.execution import AttemptRunner

        system = make_system()
        jt = system.jobtracker
        job = jt.submit(sleep_spec(300.0, 60.0, n_maps=4, n_reduces=0))
        system.sim.run(until=30.0)
        jt.pause_job(job)
        held = [a for a in job.held_attempts if not a.finished]
        assert held
        for attempt in held:
            runner = attempt.runner
            assert isinstance(runner, AttemptRunner)
            assert runner.paused and runner.job_held
            # A stray physical resume (node bounce) is a no-op.
            runner.resume()
            assert runner.paused
        jt.resume_job(job)
        system.sim.run(until=TIME_LIMIT, stop_when=lambda: job.finished)
        assert job.state.value == "succeeded"

    def test_tracker_expiry_during_pause_kills_held_attempts(self):
        """Regression: a tracker expiring mid-pause takes its held
        attempts with it — a pause must not grant resurrection
        semantics across an expiry that kills every registered
        attempt, even if the node later rejoins."""
        system = make_system()
        jt = system.jobtracker
        job = jt.submit(sleep_spec(300.0, 60.0, n_maps=6, n_reduces=1))
        system.sim.run(until=30.0)
        jt.pause_job(job)
        victim_node = next(
            a.node_id for a in job.held_attempts if not a.finished
        )
        node = system.cluster.node(victim_node)
        on_victim = [
            a for a in job.held_attempts if a.node_id == victim_node
        ]
        jt._tracker_dead(node)
        assert all(a.finished for a in on_victim)
        jt._tracker_rejoined(node)
        jt.resume_job(job)
        # The killed work re-runs from scratch; nothing resurrects.
        for a in on_victim:
            assert a.state.value == "killed"
        system.sim.run(until=TIME_LIMIT, stop_when=lambda: job.finished)
        assert job.state.value == "succeeded"

    def test_committing_job_is_not_a_preemption_victim(self):
        """A COMMITTING job holds no task slots — demoting or pausing
        it frees nothing, so the victim walk must skip it."""
        from repro.mapreduce.job import JobState
        from repro.service.preempt import PreemptionController

        system = make_system(seed=3, n_volatile=8, n_dedicated=2)
        service = MoonService(
            system,
            ServiceConfig(
                policy="edf",
                max_in_flight=2,
                horizon=HOUR,
                preempt=PreemptConfig(mode="pause"),
            ),
            replay_arrivals(
                [(0.0, "a",
                  sleep_spec(60.0, 10.0, n_maps=4, n_reduces=1),
                  4 * HOUR)]
            ),
        )
        controller = service.preemptor
        assert isinstance(controller, PreemptionController)
        system.sim.run(until=5.0)
        (_record, job), = service._in_flight
        assert [v[3] for v in controller._victims()] == [job]
        job.state = JobState.COMMITTING
        assert controller._victims() == []
        job.state = JobState.RUNNING
        service.run()
        system.jobtracker.stop()
        system.namenode.stop()

    def test_deprioritised_job_yields_to_normal_work(self):
        """A deprioritised job drops behind a later submission in the
        walk and gets no new speculative copies."""
        system = make_system(n_volatile=2, n_dedicated=1)
        jt = system.jobtracker
        batch = jt.submit(sleep_spec(200.0, 10.0, n_maps=12, n_reduces=0))
        jt.deprioritise_job(batch)
        urgent = jt.submit(sleep_spec(10.0, 5.0, n_maps=4, n_reduces=0))
        assert jt._active_jobs == [urgent, batch]
        system.sim.run(
            until=TIME_LIMIT,
            stop_when=lambda: urgent.finished and batch.finished,
        )
        assert urgent.finished_at < batch.finished_at
        assert batch.counters["speculative_launched"] == 0
        jt.restore_job(batch)
        assert not batch.deprioritised


class TestPreemptOffByteIdentical:
    def test_off_mode_equals_no_controller(self):
        """mode="off" arms nothing: event count and rendered report
        are byte-identical to a service without the controller —
        today's event checksums, unchanged."""
        def one_run(preempt):
            system = make_system(seed=11, rate=0.3)
            arrivals = bursty_arrivals(
                system.sim.rng("service/arrivals"),
                bursts_per_hour=3.0,
                burst_size_mean=5.0,
                horizon=1 * HOUR,
                catalog=sleep_catalog(),
            )
            report = system.run_service(
                arrivals,
                ServiceConfig(
                    policy="edf",
                    max_in_flight=2,
                    horizon=HOUR,
                    preempt=preempt,
                ),
                pattern="bursty",
            )
            system.jobtracker.stop()
            system.namenode.stop()
            return report, system.sim.executed_events

        # The render differs only by the preempt= trailer line, which
        # exists exactly because a controller was configured; strip it
        # before comparing and check the zeroed counters directly.
        base, base_events = one_run(None)
        off, off_events = one_run(PreemptConfig(mode="off"))
        assert off_events == base_events
        assert base.render() == "\n".join(
            line
            for line in off.render().splitlines()
            if not line.startswith("preempt=")
        )
        assert off.preempt == "off"
        assert off.preempt_counts == {
            "deprioritise": 0, "pause": 0, "resume": 0, "restore": 0,
        }
        assert base.to_dict() == {
            k: v for k, v in off.to_dict().items() if k != "preempt"
        }

    def test_preempt_config_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            PreemptConfig(mode="defer").validate()
        with pytest.raises(ConfigError):
            PreemptConfig(interval=0.0).validate()
        with pytest.raises(ConfigError):
            PreemptConfig(max_paused=0).validate()
        with pytest.raises(ConfigError):
            ServiceConfig(preempt=PreemptConfig(mode="nope")).validate()


class TestServicePreemption:
    """The controller acting end-to-end through MoonService."""

    def _entries(self):
        batch = sleep_spec(300.0, 120.0, n_maps=12, n_reduces=2).with_(
            name="batch"
        )
        tight = sleep_spec(20.0, 5.0, n_maps=4, n_reduces=1).with_(
            name="tight"
        )
        return [
            (0.0, "a", batch, 4 * HOUR),
            (0.0, "a", batch, 4 * HOUR),
            (60.0, "b", tight, 300.0),
            (70.0, "b", tight, 300.0),
        ]

    def _run(self, mode):
        system = make_system(seed=3, n_volatile=8, n_dedicated=2)
        service = MoonService(
            system,
            ServiceConfig(
                policy="edf",
                max_in_flight=2,
                horizon=HOUR,
                preempt=PreemptConfig(mode=mode),
            ),
            replay_arrivals(self._entries()),
        )
        report = service.run()
        system.jobtracker.stop()
        system.namenode.stop()
        return report

    def test_pause_rescues_tight_jobs_blocked_by_batch(self):
        off = self._run("off")
        paused = self._run("pause")
        assert off.overall.deadline_misses > 0
        assert (
            paused.overall.deadline_misses < off.overall.deadline_misses
        )
        # Bounded goodput loss: every job still completes.
        assert paused.overall.completed == off.overall.completed
        counts = paused.preempt_counts
        assert counts["pause"] >= 1
        assert counts["resume"] == counts["pause"]
        assert paused.preempt_events
        assert "preempt=pause" in paused.render()

    def test_pause_releases_the_tenant_quota_seat_too(self):
        """Regression: a paused job must stop counting against its
        tenant's quota as well as the global window — otherwise
        pausing tenant A's loose job can never admit tenant A's tight
        job, the pressure never clears, and the pause livelocks until
        the drain limit."""
        batch = sleep_spec(300.0, 120.0, n_maps=12, n_reduces=2).with_(
            name="batch"
        )
        tight = sleep_spec(20.0, 5.0, n_maps=4, n_reduces=1).with_(
            name="tight"
        )
        system = make_system(seed=3, n_volatile=8, n_dedicated=2)
        service = MoonService(
            system,
            ServiceConfig(
                policy="edf",
                max_in_flight=1,
                tenant_quota=1,
                horizon=HOUR,
                preempt=PreemptConfig(mode="pause", escalate_rounds=1),
            ),
            replay_arrivals(
                [
                    (0.0, "a", batch, 4 * HOUR),
                    (60.0, "a", tight, 420.0),
                ]
            ),
        )
        report = service.run()
        system.jobtracker.stop()
        system.namenode.stop()
        # Both jobs complete: the tight one inside the pause window,
        # the batch one after its resume.
        assert report.overall.completed == 2
        assert report.overall.unserved == 0
        assert report.preempt_counts["pause"] == 1
        assert report.preempt_counts["resume"] == 1
        tight_rec = next(
            r for r in report.records if r.workload == "tight"
        )
        assert not tight_rec.missed_deadline

    def test_deprioritise_mode_never_pauses(self):
        report = self._run("deprioritise")
        counts = report.preempt_counts
        assert counts["pause"] == 0
        assert counts["deprioritise"] >= 1

    def test_preempt_reruns_are_deterministic(self):
        r1 = self._run("pause")
        r2 = self._run("pause")
        assert r1.render() == r2.render()
        # The audit identity is the record's admission sequence.
        assert [
            (e.time, e.action, e.record_seq) for e in r1.preempt_events
        ] == [(e.time, e.action, e.record_seq) for e in r2.preempt_events]
