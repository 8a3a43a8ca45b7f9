"""Tests for the FIFO-queue transfer model (S3, default)."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net import FifoNetwork, Transfer
from repro.simulation import Simulation


@pytest.fixture
def net(sim):
    n = FifoNetwork(sim, disk_fraction=0.0)  # pure-NIC timing for math tests
    n.register_node(0, disk_mbps=50.0, nic_mbps=100.0)
    n.register_node(1, disk_mbps=50.0, nic_mbps=100.0)
    n.register_node(2, disk_mbps=50.0, nic_mbps=10.0)
    return n


def run_transfer(sim, net, src, dst, mb):
    done = []
    net.transfer(src, dst, mb, on_complete=lambda t: done.append(sim.now))
    sim.run()
    return done


class TestTransferTiming:
    def test_single_transfer_rate_is_bottleneck(self, sim, net):
        # 100 MB at min(100, 10) MB/s via the slow node's NIC-in.
        done = run_transfer(sim, net, 0, 2, 100.0)
        assert done == [pytest.approx(10.0)]

    def test_symmetric_fast_nodes(self, sim, net):
        done = run_transfer(sim, net, 0, 1, 50.0)
        assert done == [pytest.approx(0.5)]

    def test_queueing_serialises_on_shared_destination(self, sim, net):
        """Two senders into one NIC-in queue: second waits for first."""
        times = []
        net.transfer(0, 2, 10.0, on_complete=lambda t: times.append(sim.now))
        net.transfer(1, 2, 10.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_source_queue_also_serialises(self, sim, net):
        times = []
        net.transfer(2, 0, 10.0, on_complete=lambda t: times.append(sim.now))
        net.transfer(2, 1, 10.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_disjoint_pairs_run_in_parallel(self, sim):
        net = FifoNetwork(sim, disk_fraction=0.0)
        for i in range(4):
            net.register_node(i, disk_mbps=50.0, nic_mbps=10.0)
        times = []
        net.transfer(0, 1, 10.0, on_complete=lambda t: times.append(sim.now))
        net.transfer(2, 3, 10.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_disk_io_uses_disk_channel(self, sim, net):
        times = []
        net.disk_io(0, 100.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(2.0)]  # 100 MB / 50 MB/s

    def test_disk_fraction_charges_disk(self, sim):
        net = FifoNetwork(sim, disk_fraction=1.0)
        net.register_node(0, disk_mbps=25.0, nic_mbps=100.0)
        net.register_node(1, disk_mbps=25.0, nic_mbps=100.0)
        times = []
        net.transfer(0, 1, 100.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        # Disk is the bottleneck: 100 MB / 25 MB/s = 4 s.
        assert times == [pytest.approx(4.0)]

    def test_zero_byte_transfer_completes_immediately(self, sim, net):
        times = []
        net.transfer(0, 1, 0.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(0.0)]


class TestFailures:
    def test_transfer_to_down_node_fails_async(self, sim, net):
        net.node_down(2)
        failed = []
        net.transfer(0, 2, 10.0, on_fail=lambda t: failed.append(t.state))
        sim.run()
        assert failed == [Transfer.FAILED]

    def test_inflight_transfer_aborted_on_node_down(self, sim, net):
        outcomes = []
        net.transfer(
            0,
            2,
            100.0,  # would finish at t=10
            on_complete=lambda t: outcomes.append("done"),
            on_fail=lambda t: outcomes.append("fail"),
        )
        sim.call_at(5.0, net.node_down, 2)
        sim.run()
        assert outcomes == ["fail"]
        assert net.active_transfers() == 0

    def test_unrelated_transfer_survives_node_down(self, sim, net):
        outcomes = []
        net.transfer(0, 1, 50.0, on_complete=lambda t: outcomes.append("done"))
        sim.call_at(0.2, net.node_down, 2)
        sim.run()
        assert outcomes == ["done"]

    def test_node_up_restores_service(self, sim, net):
        net.node_down(2)
        net.node_up(2)
        times = []
        net.transfer(0, 2, 10.0, on_complete=lambda t: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0)]

    def test_negative_size_rejected(self, sim, net):
        with pytest.raises(NetworkError):
            net.transfer(0, 1, -1.0)

    def test_unknown_node_rejected(self, sim, net):
        with pytest.raises(NetworkError):
            net.transfer(0, 99, 1.0)

    def test_duplicate_registration_rejected(self, sim, net):
        with pytest.raises(NetworkError):
            net.register_node(0, 10.0, 10.0)


class TestEventHandle:
    """A transfer drops its completion-event handle once it settles:
    the event's args hold the transfer, so a kept handle would be a
    reference cycle per transfer (see tests/test_gc_cycles.py)."""

    def test_handle_cleared_on_completion(self, sim, net):
        t = net.transfer(0, 1, 10.0)
        assert t._event is not None
        sim.run()
        assert t.state == Transfer.DONE
        assert t._event is None

    def test_handle_cleared_on_disk_io_completion(self, sim, net):
        t = net.disk_io(0, 10.0)
        sim.run()
        assert t.state == Transfer.DONE
        assert t._event is None

    def test_no_handle_when_endpoint_down_at_submit(self, sim, net):
        net.node_down(2)
        t = net.transfer(0, 2, 10.0)
        assert t._event is None
        sim.run()
        assert t.state == Transfer.FAILED
        assert t._event is None

    def test_handle_cleared_when_node_goes_down_mid_flight(self, sim, net):
        t = net.transfer(0, 2, 100.0)  # would finish at t=10
        sim.call_at(5.0, net.node_down, 2)
        sim.run()
        assert t.state == Transfer.FAILED
        assert t._event is None


class TestAccounting:
    def test_mb_served_counts_both_endpoints(self, sim, net):
        run_transfer(sim, net, 0, 1, 40.0)
        assert net.mb_served[0] == pytest.approx(40.0)
        assert net.mb_served[1] == pytest.approx(40.0)

    def test_failed_transfer_not_counted(self, sim, net):
        net.node_down(2)
        net.transfer(0, 2, 10.0)
        sim.run()
        assert net.mb_served[2] == 0.0

    def test_backlog_probe(self, sim, net):
        net.disk_io(0, 500.0)  # 10 s of disk work
        assert net.backlog_seconds(0, "disk") == pytest.approx(10.0)
        sim.run()
        assert net.backlog_seconds(0, "disk") == 0.0
