"""LATE per-tick ranking memoisation is byte-identical to the original
per-slot recompute.

`LateScheduler._ranked_by_time_left` memoises per-task rates and the
ranked list per tick; `ranked_by_time_left_reference` below is the
original computation kept as the equivalence oracle.  Both are driven
over the same churn scenarios and every observable — assignment
history, event counts, counters — must match exactly.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np
import pytest

from repro.config import SchedulerConfig
from repro.mapreduce.job import Job
from repro.mapreduce.task import Task, TaskType
from repro.mapreduce.tasktracker import TaskTracker
from repro.scheduling.late import SLOW_TASK_PERCENTILE, LateScheduler
from repro.simulation import Simulation
from repro.workloads import sleep_spec

from helpers import build_mr


def ranked_by_time_left_reference(
    policy: LateScheduler, job: Job, task_type: TaskType, tracker: TaskTracker
) -> List[Task]:
    """The original per-slot recompute (no memoisation)."""
    running = [
        t
        for t in job.running_tasks(task_type)
        if not t.complete
        and t.live_attempts()
        and policy.under_per_task_cap(t)
        and policy.can_host(t, tracker)
    ]
    if not running:
        return []
    rates = {t.task_id: policy._rate(t) for t in running}
    threshold = float(
        np.percentile(list(rates.values()), SLOW_TASK_PERCENTILE)
    )
    slow = [t for t in running if rates[t.task_id] <= threshold]

    def time_left(t: Task) -> float:
        r = rates[t.task_id]
        if r <= 0:
            return float("inf")
        return (1.0 - t.best_progress()) / r

    return sorted(slow, key=lambda t: (-time_left(t), t.index))


def late_cfg(**kw):
    return SchedulerConfig(
        kind="late", tracker_expiry_interval=600.0, hybrid_aware=False, **kw
    )


def _run(traces, use_reference, n_maps=10, until=1500.0):
    sim = Simulation(seed=3)
    _, _, _, jt = build_mr(
        sim, scheduler_cfg=late_cfg(), traces=traces,
        n_volatile=4, n_dedicated=1,
    )
    if use_reference:
        jt.policy._ranked_by_time_left = partial(
            ranked_by_time_left_reference, jt.policy
        )
    assignments = []
    original_launch = jt.launch

    def recording_launch(task, tracker, speculative):
        # strip the job id: the global Job counter differs between the
        # two runs, but task identity within the job must match
        assignments.append(
            (sim.now, task.task_id.split("-", 1)[1], tracker.node_id,
             speculative)
        )
        return original_launch(task, tracker, speculative)

    jt.launch = recording_launch
    job = jt.submit(sleep_spec(120.0, 3.0, n_maps=n_maps, n_reduces=1))
    sim.run(until=until, stop_when=lambda: job.finished)
    return {
        "assignments": assignments,
        "events": sim.executed_events,
        "state": job.state.value,
        "counters": dict(job.counters),
        "now": sim.now,
    }


TRACE_SETS = [
    {3: [(50.0, 2000.0)]},  # one node disappears mid-wave
    {2: [(30.0, 400.0)], 4: [(80.0, 900.0)]},  # staggered churn
    {1: [(20.0, 60.0), (120.0, 500.0)]},  # flap then long outage
]


@pytest.mark.parametrize("traces", TRACE_SETS)
def test_memo_matches_reference(traces):
    memo = _run(traces, use_reference=False)
    ref = _run(traces, use_reference=True)
    assert memo == ref
    # the scenario must actually exercise the speculative ranking,
    # otherwise this equivalence is vacuous
    assert any(spec for (_, _, _, spec) in memo["assignments"])


def test_rates_cached_within_tick():
    """The per-(job, type) rate memo is populated at most once per task
    per tick and reused across slot requests."""
    sim = Simulation(seed=3)
    _, _, _, jt = build_mr(
        sim, scheduler_cfg=late_cfg(), traces={3: [(50.0, 2000.0)]},
        n_volatile=4, n_dedicated=1,
    )
    policy = jt.policy
    assert isinstance(policy, LateScheduler)
    calls = []
    original = policy._rate

    def counting_rate(task):
        calls.append(task.task_id)
        return original(task)

    policy._rate = counting_rate
    job = jt.submit(sleep_spec(120.0, 3.0, n_maps=10, n_reduces=1))
    sim.run(until=400.0, stop_when=lambda: job.finished)
    # every (tick, task) pair computes its rate at most once
    assert len(calls) == len(set(zip(calls, _tick_marks(calls))))


def _tick_marks(calls):
    # calls are appended in tick order; a task_id repeating means a new
    # tick (the memo was cleared), so number the repeats
    seen: dict = {}
    marks = []
    for c in calls:
        seen[c] = seen.get(c, 0) + 1
        marks.append(seen[c])
    return marks
