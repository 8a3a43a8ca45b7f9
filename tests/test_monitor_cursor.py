"""The availability monitor's cursor against the push-everything
reference.

:class:`PushAllMonitor` is the monitor as it used to ship: every
transition of every traced node pushed into the engine heap at build.
The shipped :class:`~repro.cluster.AvailabilityMonitor` arms one
transition at a time.  Both must fire the same ``(time, node, kind)``
sequence, interleave identically with other events at the same
instants, execute the same number of engine events and end a
horizonless run at the same time.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import AvailabilityMonitor, Cluster, Node, NodeKind
from repro.config import NodeSpec
from repro.simulation import PRIORITY_NODE_STATE, PRIORITY_TRANSFER, Simulation
from repro.traces import AvailabilityTrace


class PushAllMonitor:
    """Reference: schedules every trace transition at construction."""

    def __init__(self, sim, cluster):
        self.sim = sim
        self.cluster = cluster
        for node in cluster.nodes:
            if node.trace is None:
                continue
            for interval in node.trace:
                sim.call_at(
                    interval.start, self._suspend, node,
                    priority=PRIORITY_NODE_STATE,
                )
                sim.call_at(
                    interval.end, self._resume, node,
                    priority=PRIORITY_NODE_STATE,
                )

    def _suspend(self, node):
        if node.available:
            self.cluster._notify_suspend(node)

    def _resume(self, node):
        if not node.available:
            self.cluster._notify_resume(node)


def monitor_events(sim, monitor):
    """Live engine events whose callback belongs to ``monitor``."""
    return [
        entry[3] for entry in sim._queue._heap
        if not entry[3].cancelled
        and getattr(entry[3].fn, "__self__", None) is monitor
    ]


def replay(monitor_cls, traces, probes=()):
    """Run one world; return everything observable about the replay.

    ``traces`` is a list of ``(node_id, trace or None)`` in cluster
    order; ``probes`` are times at which a transfer-priority event
    records every node's availability.
    """
    sim = Simulation(seed=0)
    nodes = [
        Node(nid, NodeKind.VOLATILE, NodeSpec(), trace)
        for nid, trace in traces
    ]
    cluster = Cluster(nodes)
    fired, seen = [], []
    cluster.on_suspend(lambda n: seen.append((sim.now, n.node_id, "down")))
    cluster.on_resume(lambda n: seen.append((sim.now, n.node_id, "up")))

    def probe():
        seen.append((sim.now, "probe", tuple(n.available for n in nodes)))

    for t in probes:
        sim.call_at(t, probe, priority=PRIORITY_TRANSFER)
    monitor = monitor_cls(sim, cluster)
    traced = sum(1 for _, tr in traces if tr is not None and len(tr))
    peak = [len(monitor_events(sim, monitor))]

    def hook(now, event):
        name = getattr(event.fn, "__name__", "")
        if name in ("_suspend", "_resume"):
            fired.append((now, event.args[0].node_id, name))
        peak[0] = max(peak[0], len(monitor_events(sim, monitor)))

    sim.trace_hook = hook
    end = sim.run()
    return {
        "fired": fired,
        "seen": seen,
        "executed": sim.executed_events,
        "end": end,
        "peak": peak[0],
        "traced": traced,
    }


def trace(intervals, duration=1000.0):
    return AvailabilityTrace(intervals, duration)


def assert_same_replay(traces, probes=()):
    ref = replay(PushAllMonitor, traces, probes)
    got = replay(AvailabilityMonitor, traces, probes)
    for key in ("fired", "seen", "executed", "end"):
        assert got[key] == ref[key], key
    assert got["peak"] <= min(1, got["traced"])
    return got


class TestCursorMatchesReference:
    def test_node_down_at_time_zero(self):
        got = assert_same_replay(
            [(4, trace([(0.0, 5.0), (9.0, 12.0)]))], probes=[0.0, 5.0]
        )
        assert got["fired"][0] == (0.0, 4, "_suspend")

    def test_traceless_nodes_are_skipped(self):
        got = assert_same_replay(
            [
                (0, None),
                (3, trace([(2.0, 4.0)])),
                (5, trace([])),
                (8, None),
            ],
            probes=[2.0],
        )
        assert [f[1] for f in got["fired"]] == [3, 3]

    def test_no_traced_node_queues_nothing(self):
        got = assert_same_replay([(0, None), (1, trace([]))])
        assert got["fired"] == [] and got["executed"] == 0

    def test_equal_time_ties_follow_rank_not_arming_order(self):
        # Node 1's suspend fires first (t=3), so a per-node event pushed
        # on fire would arm its resume before node 0's and fire it first
        # at t=20.  The reference fires node 0 (lower rank) first.
        got = assert_same_replay(
            [(0, trace([(5.0, 20.0)])), (1, trace([(3.0, 20.0)]))],
            probes=[20.0],
        )
        at_20 = [f for f in got["fired"] if f[0] == 20.0]
        assert at_20 == [(20.0, 0, "_resume"), (20.0, 1, "_resume")]

    def test_touching_outages_resume_before_suspend(self):
        got = assert_same_replay(
            [(2, trace([(10.0, 15.0), (15.0, 30.0)])),
             (1, trace([(15.0, 16.0)]))],
            probes=[15.0],
        )
        at_15 = [f for f in got["fired"] if f[0] == 15.0]
        assert at_15 == [
            (15.0, 2, "_resume"), (15.0, 2, "_suspend"), (15.0, 1, "_suspend"),
        ]

    def test_outage_ending_at_trace_end(self):
        assert_same_replay([(0, trace([(990.0, 1000.0)]))], probes=[1000.0])


@st.composite
def worlds(draw):
    """Up to eight nodes with sparse ids; each traceless, empty, or a
    run of integer-timed outages (so ties across nodes are common),
    possibly starting at 0 and possibly touching."""
    n = draw(st.integers(1, 8))
    ids = draw(
        st.lists(st.integers(0, 1000), min_size=n, max_size=n, unique=True)
    )
    traces = []
    for nid in ids:
        kind = draw(st.sampled_from(["none", "empty", "outages"]))
        if kind == "none":
            traces.append((nid, None))
            continue
        intervals, t = [], 0.0
        if kind == "outages":
            for _ in range(draw(st.integers(1, 6))):
                t += draw(st.integers(0, 4))
                length = draw(st.integers(1, 4))
                intervals.append((t, t + length))
                t += length
        duration = max(1.0, t + draw(st.integers(0, 3)))
        traces.append((nid, AvailabilityTrace(intervals, duration)))
    probes = draw(st.lists(st.integers(0, 30).map(float), max_size=4))
    return traces, probes


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_cursor_replays_like_push_everything(world):
    traces, probes = world
    assert_same_replay(traces, probes)


def test_build_arms_one_engine_event():
    sim = Simulation(seed=0)
    nodes = [
        Node(10 * i + 7, NodeKind.VOLATILE, NodeSpec(),
             trace([(float(i), float(i) + 50.0), (200.0, 300.0)]))
        for i in range(50)
    ]
    monitor = AvailabilityMonitor(sim, Cluster(nodes))
    assert sim.pending_events() == 1
    assert len(monitor_events(sim, monitor)) == 1
