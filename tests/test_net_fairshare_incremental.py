"""Incremental vs full water-filling: exact equivalence.

The fair-share model recomputes rates only for the connected component
a flow change touches.  These tests replay identical randomized
arrival/departure/outage schedules through the shipped network and
:class:`FullRecomputeNetwork`, a test-side oracle that re-fills every
flow on every change, and require *exact* agreement — same rates after
every change, same completion and failure events at the same simulated
times, in the same order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FairShareNetwork
from repro.simulation import Simulation

N_NODES = 6


class FullRecomputeNetwork(FairShareNetwork):
    """The full-recompute oracle: every change re-fills every flow."""

    def _refill(self, changed_channels):
        flows = list(self._flows)
        if flows:
            self._water_fill(flows)


def _build(incremental: bool):
    sim = Simulation(seed=0)
    net = (FairShareNetwork if incremental else FullRecomputeNetwork)(sim)
    for i in range(N_NODES):
        # Heterogeneous capacities so bottlenecks move around.
        net.register_node(i, disk_mbps=40.0 + 7.0 * i, nic_mbps=60.0 + 11.0 * i)
    return sim, net


def _replay(ops, incremental: bool):
    """Run one op schedule; return (event_log, rate_snapshots)."""
    sim, net = _build(incremental)
    log = []
    snapshots = []
    op_of_transfer = {}

    def start(op_idx, kind, a, b, size):
        def done(t):
            log.append(("done", op_of_transfer[id(t)], sim.now))

        def fail(t):
            log.append(("fail", op_of_transfer[id(t)], sim.now))

        if kind == "transfer":
            t = net.transfer(a, b, size, on_complete=done, on_fail=fail)
        else:
            t = net.disk_io(a, size, on_complete=done, on_fail=fail)
        op_of_transfer[id(t)] = op_idx

    def snapshot():
        rates = sorted(
            (op_of_transfer[id(f.transfer)], f.rate) for f in net._flows
        )
        snapshots.append((sim.now, tuple(rates)))

    for op_idx, (at, kind, a, b, size) in enumerate(ops):
        if kind in ("transfer", "disk"):
            sim.call_at(at, start, op_idx, kind, a, b, size)
        elif kind == "down":
            sim.call_at(at, net.node_down, a)
        else:
            sim.call_at(at, net.node_up, a)
        # Observe rates just after each op (and any same-time churn).
        sim.call_at(at, snapshot, priority=1000)
    sim.run()
    return log, snapshots


_op = st.tuples(
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False, width=32),
    st.sampled_from(["transfer", "transfer", "disk", "down", "up"]),
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.integers(min_value=0, max_value=N_NODES - 1),
    st.floats(min_value=0.0, max_value=300.0, allow_nan=False, width=32),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25))
def test_property_incremental_matches_full_recompute(ops):
    log_inc, snaps_inc = _replay(ops, incremental=True)
    log_full, snaps_full = _replay(ops, incremental=False)
    assert log_inc == log_full
    assert snaps_inc == snaps_full


def test_large_churn_schedule_matches_exactly():
    """A dense deterministic schedule: hundreds of overlapping flows,
    repeated outages of two nodes, many same-instant arrivals."""
    ops = []
    for i in range(400):
        at = (i * 7) % 97 + 0.25 * (i % 4)
        kind = ("transfer", "disk", "transfer", "transfer")[i % 4]
        src = i % N_NODES
        dst = (i * 3 + 1) % N_NODES
        size = float((i * 13) % 240)
        ops.append((at, kind, src, dst, size))
    for i in range(12):
        ops.append((8.0 * i + 3.0, "down", i % 2, 0, 0.0))
        ops.append((8.0 * i + 6.5, "up", i % 2, 0, 0.0))
    log_inc, snaps_inc = _replay(ops, incremental=True)
    log_full, snaps_full = _replay(ops, incremental=False)
    assert log_inc == log_full
    assert snaps_inc == snaps_full
    assert any(events for events in (log_inc,))  # sanity: work happened


def test_disjoint_components_untouched_by_churn():
    """A flow in an isolated component keeps its exact rate while
    unrelated flows start and finish (the incremental fast path)."""
    sim, net = _build(True)
    t_iso = net.transfer(4, 5, 1000.0)
    rate0 = net.flow_rate(t_iso)
    assert rate0 > 0
    for i in range(10):
        net.transfer(0, 1, 5.0)
        net.disk_io(2, 3.0)
    assert net.flow_rate(t_iso) == rate0
