"""Tests for the cluster substrate (S4)."""

from __future__ import annotations

import pytest

from repro.cluster import (
    AvailabilityMonitor,
    Cluster,
    FailureDetector,
    Node,
    NodeKind,
    build_cluster,
)
from repro.config import ClusterConfig, NodeSpec, TraceConfig
from repro.errors import ConfigError
from repro.traces import AvailabilityTrace


def make_node(nid, kind=NodeKind.VOLATILE, intervals=(), duration=1000.0):
    trace = AvailabilityTrace(intervals, duration) if intervals else None
    return Node(nid, kind, NodeSpec(), trace)


class TestCluster:
    def test_dedicated_and_volatile_partitions(self):
        nodes = [
            make_node(0, NodeKind.DEDICATED),
            make_node(1),
            make_node(2),
        ]
        c = Cluster(nodes)
        assert [n.node_id for n in c.dedicated] == [0]
        assert [n.node_id for n in c.volatile] == [1, 2]
        assert len(c) == 3

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            Cluster([make_node(0), make_node(0)])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Cluster([])

    def test_unavailable_fraction(self):
        c = Cluster([make_node(0), make_node(1)])
        assert c.unavailable_fraction() == 0.0
        c.nodes[0].available = False
        assert c.unavailable_fraction() == 0.5


class TestBuildCluster:
    def test_paper_layout_ids(self, sim):
        cfg = ClusterConfig(n_volatile=6, n_dedicated=2)
        c = build_cluster(sim, cfg, TraceConfig(unavailability_rate=0.3))
        assert len(c.dedicated) == 2
        assert [n.node_id for n in c.dedicated] == [0, 1]
        assert all(n.trace is None for n in c.dedicated)
        assert all(n.trace is not None for n in c.volatile)

    def test_zero_rate_gives_traceless_volatile(self, sim):
        c = build_cluster(
            sim,
            ClusterConfig(n_volatile=3, n_dedicated=1),
            TraceConfig(unavailability_rate=0.0),
        )
        assert all(n.trace is None for n in c.volatile)

    def test_dedicated_traces_optional(self, sim):
        tr = AvailabilityTrace([(10.0, 20.0)], 100.0)
        c = build_cluster(
            sim,
            ClusterConfig(n_volatile=1, n_dedicated=1),
            None,
            dedicated_traces=[tr],
        )
        assert c.dedicated[0].trace is tr

    def test_traces_depend_only_on_node_index(self, sim):
        """Node i's trace is identical across runs with one seed —
        the property that lets the paper compare policies fairly."""
        from repro.simulation import Simulation

        cfg = ClusterConfig(n_volatile=4, n_dedicated=0)
        tc = TraceConfig(unavailability_rate=0.4)
        c1 = build_cluster(Simulation(seed=5), cfg, tc)
        c2 = build_cluster(Simulation(seed=5), cfg, tc)
        for a, b in zip(c1.volatile, c2.volatile):
            assert a.trace.intervals == b.trace.intervals


class TestMonitor:
    def test_replays_trace_transitions(self, sim):
        node = make_node(0, intervals=[(10.0, 20.0), (30.0, 40.0)])
        c = Cluster([node])
        log = []
        c.on_suspend(lambda n: log.append(("down", sim.now)))
        c.on_resume(lambda n: log.append(("up", sim.now)))
        AvailabilityMonitor(sim, c)
        sim.run()
        assert log == [
            ("down", 10.0),
            ("up", 20.0),
            ("down", 30.0),
            ("up", 40.0),
        ]

    def test_node_down_at_time_zero(self, sim):
        node = make_node(0, intervals=[(0.0, 5.0)])
        c = Cluster([node])
        log = []
        c.on_suspend(lambda n: log.append(("down", sim.now)))
        AvailabilityMonitor(sim, c)
        assert node.available is True  # the t=0 event delivers the suspend
        sim.run(until=0.0)
        assert node.available is False
        assert log == [("down", 0.0)]
        sim.run()
        assert node.available is True

    def test_traceless_node_never_transitions(self, sim):
        c = Cluster([make_node(0)])
        log = []
        c.on_suspend(lambda n: log.append("down"))
        AvailabilityMonitor(sim, c)
        assert sim.pending_events() == 0
        sim.run()
        assert log == [] and sim.executed_events == 0


class TestFailureDetector:
    def _setup(self, sim, intervals):
        node = make_node(0, intervals=intervals)
        cluster = Cluster([node])
        AvailabilityMonitor(sim, cluster)
        det = FailureDetector(sim, cluster, heartbeat_interval=3.0)
        return node, cluster, det

    def test_trips_after_threshold_plus_heartbeat(self, sim):
        node, _, det = self._setup(sim, [(100.0, 300.0)])
        trips = []
        det.add_threshold("expiry", 60.0, lambda n: trips.append(sim.now))
        sim.run()
        assert trips == [pytest.approx(163.0)]  # 100 + 60 + 3

    def test_short_outage_never_trips(self, sim):
        node, _, det = self._setup(sim, [(100.0, 140.0)])
        trips = []
        det.add_threshold("expiry", 60.0, lambda n: trips.append(sim.now))
        sim.run()
        assert trips == []

    def test_recovery_callback_after_trip(self, sim):
        node, _, det = self._setup(sim, [(100.0, 300.0)])
        log = []
        det.add_threshold(
            "expiry",
            60.0,
            lambda n: log.append(("dead", sim.now)),
            lambda n: log.append(("back", sim.now)),
        )
        sim.run()
        assert log == [("dead", pytest.approx(163.0)), ("back", 300.0)]

    def test_no_recovery_without_trip(self, sim):
        node, _, det = self._setup(sim, [(100.0, 120.0)])
        log = []
        det.add_threshold(
            "expiry", 60.0, lambda n: log.append("dead"), lambda n: log.append("back")
        )
        sim.run()
        assert log == []

    def test_multiple_thresholds_hibernate_then_expire(self, sim):
        """MOON's NameNode: hibernate at 60 s, expire at 600 s."""
        node, _, det = self._setup(sim, [(0.0, 1000.0)])
        log = []
        det.add_threshold("hibernate", 60.0, lambda n: log.append(("h", sim.now)))
        det.add_threshold("expiry", 600.0, lambda n: log.append(("e", sim.now)))
        sim.run()
        assert log == [("h", pytest.approx(63.0)), ("e", pytest.approx(603.0))]

    def test_has_tripped_query(self, sim):
        node, _, det = self._setup(sim, [(0.0, 200.0)])
        det.add_threshold("hibernate", 60.0, lambda n: None)
        sim.run(until=100.0)
        assert det.has_tripped(node, "hibernate") is True
        sim.run()  # node resumes at 200
        assert det.has_tripped(node, "hibernate") is False

    def test_repeated_outages_retrip(self, sim):
        node, _, det = self._setup(sim, [(0.0, 100.0), (200.0, 300.0)])
        trips = []
        det.add_threshold("x", 50.0, lambda n: trips.append(sim.now))
        sim.run()
        assert trips == [pytest.approx(53.0), pytest.approx(253.0)]


class TestFailureDetectorEdgeCases:
    """The ugly instants: flapping, late registration, exact ties."""

    def _setup(self, sim, intervals):
        node = make_node(0, intervals=intervals)
        cluster = Cluster([node])
        AvailabilityMonitor(sim, cluster)
        det = FailureDetector(sim, cluster, heartbeat_interval=3.0)
        return node, cluster, det

    def test_flapping_adjacent_instants_deterministic_order(self, sim):
        """Back-to-back outages sharing an instant: the resume at the
        shared boundary recovers the first trip *before* the second
        outage re-arms, so trip/recover strictly alternate."""
        node, _, det = self._setup(sim, [(100.0, 150.0), (150.0, 400.0)])
        log = []
        det.add_threshold(
            "x",
            40.0,
            lambda n: log.append(("trip", sim.now)),
            lambda n: log.append(("back", sim.now)),
        )
        sim.run()
        assert log == [
            ("trip", pytest.approx(143.0)),  # 100 + 40 + 3
            ("back", pytest.approx(150.0)),
            ("trip", pytest.approx(193.0)),  # 150 + 40 + 3
            ("back", pytest.approx(400.0)),
        ]

    def test_add_threshold_while_node_already_down(self, sim):
        """A judgement registered mid-outage is not armed retroactively
        (its observer missed the silence onset) but watches every
        subsequent outage."""
        node, _, det = self._setup(sim, [(100.0, 200.0), (300.0, 400.0)])
        trips = []
        sim.run(until=120.0)
        assert node.available is False
        det.add_threshold("late", 10.0, lambda n: trips.append(sim.now))
        sim.run()
        assert trips == [pytest.approx(313.0)]  # 300 + 10 + 3 only

    def test_resume_racing_trip_at_same_timestamp(self, sim):
        """Outage ends at the exact instant the judgement would fire:
        node-state events outrank heartbeat judgements, so the resume
        cancels the trip — neither callback runs."""
        node, _, det = self._setup(sim, [(100.0, 160.0)])
        log = []
        det.add_threshold(
            "x",
            57.0,  # trip would land at 100 + 57 + 3 = 160 exactly
            lambda n: log.append(("trip", sim.now)),
            lambda n: log.append(("back", sim.now)),
        )
        sim.run()
        assert log == []
        assert det.has_tripped(node, "x") is False
