"""Dispatch semantics of the engine's one loop, `Simulation.run`.

Each test drives an adversarial same-instant schedule — bursts across
priorities, cancels of later same-instant events, same-key and
lower-key pushes from inside callbacks, and every stop condition — and
asserts the exact execution order, clock and queue state.  The random
storms compare `run` against a naive list-scan model of the
`(time, priority, seq)` contract.

`test_step_matches_run_dispatch` is the regression test for the old
`Simulation.step()` bypassing the `_running` guard, the trace hook and
the profiler.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import (
    PRIORITY_HEARTBEAT,
    PRIORITY_NODE_STATE,
    PRIORITY_PERIODIC,
    PRIORITY_TRANSFER,
    Simulation,
)

PRIORITIES = (
    PRIORITY_NODE_STATE,
    PRIORITY_TRANSFER,
    PRIORITY_HEARTBEAT,
    PRIORITY_PERIODIC,
)


class Recorder:
    """Logs every executed event as (now, tag)."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []

    def hit(self, tag):
        self.log.append((self.sim.now, tag))

    @property
    def tags(self):
        return [tag for _, tag in self.log]


def _setup():
    sim = Simulation(seed=7)
    return sim, Recorder(sim)


def test_same_instant_burst_order():
    sim, rec = _setup()
    for i in range(20):
        sim.call_at(5.0, rec.hit, f"a{i}")
    for i in range(5):
        sim.call_at(5.0, rec.hit, f"hb{i}", priority=PRIORITY_HEARTBEAT)
    sim.call_at(9.0, rec.hit, "late")

    assert sim.run() == 9.0
    # heartbeats (priority 10) before periodic (20), each in push order
    assert rec.log == (
        [(5.0, f"hb{i}") for i in range(5)]
        + [(5.0, f"a{i}") for i in range(20)]
        + [(9.0, "late")]
    )
    assert sim.executed_events == 26
    assert sim.pending_events() == 0


def test_same_instant_cancel_skipped():
    """An earlier same-instant event cancelling a later one skips it."""
    sim, rec = _setup()
    events = {}

    def cancel_later():
        rec.hit("canceller")
        events["victim"].cancel()

    sim.call_at(3.0, cancel_later)
    events["victim"] = sim.call_at(3.0, rec.hit, "victim")
    sim.call_at(3.0, rec.hit, "survivor")

    sim.run()
    assert rec.tags == ["canceller", "survivor"]
    assert sim.executed_events == 2


def test_lower_key_push_runs_next():
    """A same-time push that sorts before the queued same-instant
    events runs before all of them."""
    sim, rec = _setup()

    def pusher():
        rec.hit("pusher")
        sim.call_at(4.0, rec.hit, "urgent", priority=PRIORITY_NODE_STATE)

    sim.call_at(4.0, pusher)
    for i in range(3):
        sim.call_at(4.0, rec.hit, f"rest{i}")

    sim.run()
    assert rec.tags == ["pusher", "urgent", "rest0", "rest1", "rest2"]


def test_same_key_push_runs_after_queued_peers():
    sim, rec = _setup()

    def pusher():
        rec.hit("pusher")
        sim.call_at(4.0, rec.hit, "appended")

    sim.call_at(4.0, pusher)
    sim.call_at(4.0, rec.hit, "second")

    sim.run()
    assert rec.tags == ["pusher", "second", "appended"]


def test_max_events_stop_same_instant():
    sim, rec = _setup()
    for i in range(10):
        sim.call_at(2.0, rec.hit, f"e{i}")

    assert sim.run(max_events=4) == 2.0
    assert rec.tags == ["e0", "e1", "e2", "e3"]
    assert sim.pending_events() == 6
    # the remainder resumes in order
    sim.run()
    assert rec.tags == [f"e{i}" for i in range(10)]


def test_stop_when_same_instant():
    sim, rec = _setup()
    sim.flag = False

    def flip():
        rec.hit("flip")
        sim.flag = True

    sim.call_at(2.0, flip)
    for i in range(5):
        sim.call_at(2.0, rec.hit, f"e{i}")

    sim.run(stop_when=lambda: sim.flag)
    assert rec.log == [(2.0, "flip")]
    assert sim.pending_events() == 5


def test_daemon_idle_stop_same_instant():
    """The last foreground event stops a horizonless run before the
    same-instant daemons fire."""
    sim, rec = _setup()
    sim.call_at(2.0, rec.hit, "fg")
    sim.call_at(2.0, rec.hit, "d0", daemon=True)
    sim.call_at(2.0, rec.hit, "d1", daemon=True)

    sim.run()
    assert rec.tags == ["fg"]
    assert sim.pending_events() == 2
    assert sim.pending_foreground_events() == 0


def test_until_boundary():
    sim, rec = _setup()
    sim.call_at(2.0, rec.hit, "in")
    sim.call_at(5.0, rec.hit, "at")
    sim.call_at(5.5, rec.hit, "out")

    assert sim.run(until=5.0) == 5.0
    assert rec.tags == ["in", "at"]
    assert sim.now == 5.0
    assert sim.pending_events() == 1
    # an empty stretch still advances the clock to the horizon
    assert sim.run(until=5.25) == 5.25
    assert rec.tags == ["in", "at"]


def test_run_until_behind_clock_raises():
    """Regression: run(until=T) with T behind the clock used to move
    the clock back to T, so events could then be scheduled before
    events that had already run."""
    sim, rec = _setup()
    sim.call_at(70.0, rec.hit, "ran")
    assert sim.run(until=80.0) == 80.0
    with pytest.raises(SimulationError, match="past"):
        sim.run(until=50.0)
    assert sim.now == 80.0
    assert sim.run(until=80.0) == 80.0  # the clock itself is allowed
    with pytest.raises(SimulationError):
        sim.call_at(60.0, rec.hit, "before-ran")


def _model_storm(events, push_priority):
    """Naive model of the dispatch contract for the storm schedule:
    scan the pending list for the least live ``(time, priority, seq)``
    each step; stop when no live foreground event is left."""
    pending = []  # [time, priority, seq, tag, action, daemon, live]
    for i, (t, prio, daemon, action) in enumerate(events):
        pending.append([float(t), prio, i, f"e{i}", action, daemon, True])
    handles = list(pending)
    log = []
    seq = len(pending)
    while any(p[6] and not p[5] for p in pending):
        head = min((p for p in pending if p[6]), key=lambda p: p[:3])
        head[6] = False
        now, tag, action = head[0], head[3], head[4]
        log.append((now, tag))
        if action in (1, 3):
            pending.append(
                [now, push_priority, seq, f"{tag}+push", 0, False, True]
            )
            seq += 1
        if action in (2, 3):
            handles[len(log) % len(handles)][6] = False
    return log, sum(1 for p in pending if p[6])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4),  # time bucket (collisions on purpose)
            st.sampled_from(PRIORITIES),
            st.booleans(),  # daemon
            st.integers(0, 3),  # action: 0 none, 1 push, 2 cancel, 3 both
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2),
)
def test_property_random_storms(events, action_priority_ix):
    """Random same-instant storms with callback-driven pushes and
    cancels execute in exactly the model's order."""
    sim, rec = _setup()
    handles = []
    push_priority = PRIORITIES[action_priority_ix]

    def act(tag, action):
        rec.hit(tag)
        if action in (1, 3):
            sim.call_at(sim.now, rec.hit, f"{tag}+push", priority=push_priority)
        if action in (2, 3):
            handles[len(rec.log) % len(handles)].cancel()

    for i, (t, prio, daemon, action) in enumerate(events):
        handles.append(
            sim.call_at(
                float(t), act, f"e{i}", action, priority=prio, daemon=daemon
            )
        )

    sim.run()
    log, left = _model_storm(events, push_priority)
    assert rec.log == log
    assert sim.executed_events == len(log)
    assert sim.pending_events() == left


def test_step_matches_run_dispatch():
    """step() goes through the shared dispatch path: trace hook fires,
    executed_events advances, and stepping during run() is an error."""
    sim = Simulation(seed=1)
    seen = []
    sim.trace_hook = lambda now, event: seen.append(now)
    sim.call_at(1.0, lambda: None)
    assert sim.step() is True
    assert seen == [1.0]
    assert sim.executed_events == 1
    assert sim.step() is False

    sim2 = Simulation(seed=1)

    def reenter():
        with pytest.raises(SimulationError):
            sim2.step()

    sim2.call_at(1.0, reenter)
    sim2.run()


def test_step_profiler_accounting():
    """step() brackets callbacks with the profiler exactly like run()."""
    from repro.obs import Observability

    obs = Observability()
    profs = []

    class FakeProfiler:
        def note(self, name, dt):
            profs.append(name)

    obs.profiler = FakeProfiler()
    sim = Simulation(seed=1, obs=obs)

    def work():
        pass

    sim.call_at(1.0, work)
    sim.step()
    assert len(profs) == 1


def test_full_system_run_event_checksum():
    """End-to-end: a real MapReduce run (cluster churn, DFS writes,
    shuffle, heartbeats) keeps its pinned event checksum, clock and
    job timing."""
    from repro.config import (
        ClusterConfig,
        SystemConfig,
        TraceConfig,
        moon_scheduler_config,
    )
    from repro.core import moon_system
    from repro.workloads import sleep_spec

    cfg = SystemConfig(
        cluster=ClusterConfig(n_volatile=8, n_dedicated=2),
        trace=TraceConfig(unavailability_rate=0.3),
        scheduler=moon_scheduler_config(),
        seed=13,
    )
    system = moon_system(cfg)
    result = system.run_job(
        sleep_spec(5.0, 3.0, n_maps=12, n_reduces=4),
        time_limit=2 * 3600.0,
    )
    system.jobtracker.stop()
    system.namenode.stop()
    assert result.succeeded
    assert system.sim.executed_events == 148
    assert system.sim.now == 9.007499999999993
    assert result.elapsed == 9.007499999999993
