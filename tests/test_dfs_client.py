"""Tests for the DFS client: write pipelines, reads, adaptive v'."""

from __future__ import annotations

import pytest

from repro.config import DfsConfig
from repro.dfs import DfsClient, FileKind, ReplicationFactor
from repro.errors import BlockUnavailable, WriteDeclined

from helpers import build

RF11 = ReplicationFactor(1, 1)
RF12 = ReplicationFactor(1, 2)
RF03 = ReplicationFactor(0, 3)


class TestWritePipeline:
    def test_reliable_write_places_dedicated_and_volatile(self, sim):
        _, _, nn = build(sim)
        client = DfsClient(nn)
        done = []
        client.write_file(
            "/x", 64.0, FileKind.RELIABLE, RF12,
            client_node=3,
            on_complete=lambda: done.append(sim.now),
            on_fail=lambda e: pytest.fail(f"write failed: {e}"),
        )
        sim.run()
        assert len(done) == 1
        b = nn.file("/x").blocks[0]
        assert len(b.dedicated_replicas) == 1
        assert len(b.volatile_replicas) == 2
        assert 3 in b.replicas  # local-first placement

    def test_write_time_grows_with_replication_degree(self, sim):
        """The Table-II effect: map (write) time scales with the number
        of pipeline stages."""
        from repro.simulation import Simulation

        def time_write(rf):
            s = Simulation(seed=1)
            _, _, nn = build(s, n_volatile=8)
            finished = []
            DfsClient(nn).write_file(
                "/x", 64.0, FileKind.OPPORTUNISTIC, rf, 3,
                on_complete=lambda: finished.append(s.now),
                on_fail=lambda e: pytest.fail(str(e)),
            )
            s.run(until=10000.0)
            return finished[0]

        t1 = time_write(ReplicationFactor(0, 1))
        t3 = time_write(ReplicationFactor(0, 3))
        t5 = time_write(ReplicationFactor(0, 5))
        assert t1 < t3 < t5

    def test_multi_block_file_written_sequentially(self, sim):
        _, _, nn = build(sim)
        client = DfsClient(nn)
        done = []
        client.write_file(
            "/big", 200.0, FileKind.RELIABLE, RF11, 3,
            on_complete=lambda: done.append(1),
            on_fail=lambda e: pytest.fail(str(e)),
            block_size_mb=64.0,
        )
        sim.run()
        f = nn.file("/big")
        assert len(f.blocks) == 4
        assert all(len(b.replicas) == 2 for b in f.blocks)
        assert done == [1]

    def test_sequential_block_planning(self, sim):
        """Each block's pipeline is planned only after the previous
        block's pipeline finished: plan times strictly increase."""
        _, _, nn = build(sim)
        calls = []
        original = nn.placement.plan_write

        def recording(file, block, client_node, exclude=()):
            calls.append((nn.sim.now, block.block_id))
            return original(file, block, client_node, exclude)

        nn.placement.plan_write = recording
        done = []
        DfsClient(nn).write_file(
            "/big", 200.0, FileKind.RELIABLE, RF11, 3,
            on_complete=lambda: done.append(1),
            on_fail=lambda e: pytest.fail(str(e)),
            block_size_mb=64.0,
        )
        sim.run()
        assert done == [1]
        times = [t for t, _ in calls]
        assert len(calls) == 4
        assert all(a < b for a, b in zip(times, times[1:]))
        assert [b for _, b in calls] == [
            b.block_id for b in nn.file("/big").blocks
        ]

    def test_pipeline_survives_mid_target_failure(self, sim):
        """A volatile target dying mid-pipeline is skipped; the block
        still lands on the remaining targets and the deficit is queued."""
        traces = {4: [(0.4, 2000.0)]}
        _, _, nn = build(sim, traces=traces)
        client = DfsClient(nn)
        outcome = []
        # Force placement towards node 4 by excluding alternatives:
        # write from node 3 with v=3 (targets: 3 local, dedicated, 4, 5).
        client.write_file(
            "/x", 64.0, FileKind.RELIABLE, ReplicationFactor(1, 3), 3,
            on_complete=lambda: outcome.append("done"),
            on_fail=lambda e: outcome.append("fail"),
        )
        sim.run(until=30.0)
        assert outcome == ["done"]
        b = nn.file("/x").blocks[0]
        assert len(b.replicas) >= 2
        assert 4 not in b.replicas or nn.node_state(4).value != "alive"

    def test_write_fails_when_no_targets(self, sim):
        """All volatile nodes down + no dedicated wanted -> declined."""
        traces = {i: [(0.0, 90000.0)] for i in range(2, 6)}
        _, _, nn = build(sim, traces=traces)
        client = DfsClient(nn)
        sim.run(until=0.5)  # let suspends apply
        errors = []
        client.write_file(
            "/x", 64.0, FileKind.OPPORTUNISTIC, RF03, None,
            on_complete=lambda: pytest.fail("should not complete"),
            on_fail=lambda e: errors.append(e),
        )
        sim.run(until=5.0)
        assert len(errors) == 1
        assert isinstance(errors[0], WriteDeclined)


class TestAdaptiveReplication:
    def test_declined_dedicated_adjusts_v_prime(self, sim):
        """With all dedicated nodes saturated, an opportunistic write is
        declined its dedicated copy and v is raised to meet the goal."""
        _, net, nn = build(sim, n_dedicated=1, n_volatile=8)
        # Saturate the single dedicated node with a long stream: 8 GB at
        # the 80 MB/s NIC is ~100 s of backlog, so the served-bandwidth
        # plateau spans the whole detection window.
        for _ in range(200):
            net.transfer(2, 0, 40.0)
        # Pin the p estimate at 0.5: v' should become 4 (1-0.5^4 > 0.9).
        nn._p_estimate = 0.5
        sim.run(until=60.0)  # let the throttle detector trip
        assert nn.throttle.all_throttled()
        client = DfsClient(nn)
        done = []
        client.write_file(
            "/i", 8.0, FileKind.OPPORTUNISTIC, RF11, 3,
            on_complete=lambda: done.append(1),
            on_fail=lambda e: pytest.fail(str(e)),
        )
        sim.run(until=120.0)
        f = nn.file("/i")
        assert done == [1]
        assert f.adjusted_volatile == 4
        b = f.blocks[0]
        assert len(b.dedicated_replicas) == 0
        assert len(b.volatile_replicas) == 4
        assert nn.counters["writes_declined_dedicated"] >= 1


class TestReads:
    def _staged(self, sim, **kw):
        _, net, nn = build(sim, **kw)
        client = DfsClient(nn)
        f = client.stage_input("/in", 64.0, RF12)
        return net, nn, client, f

    def test_stage_input_materialises_replicas(self, sim):
        _, nn, _, f = self._staged(sim)
        b = f.blocks[0]
        assert len(b.dedicated_replicas) == 1
        assert len(b.volatile_replicas) == 2

    def test_read_prefers_local_replica(self, sim):
        net, nn, client, f = self._staged(sim)
        b = f.blocks[0]
        reader = next(iter(b.volatile_replicas))
        done = []
        client.read_block(b, reader, lambda: done.append(sim.now), lambda e: None)
        sim.run()
        # Local disk read at 60 MB/s: ~1.07 s; remote would queue NIC too.
        assert done[0] == pytest.approx(64.0 / 60.0)

    def test_read_fails_over_to_dedicated_when_volatile_down(self, sim):
        """Volatile replicas down (undetected): the client pays timeouts
        then falls back to the dedicated copy (IV-B last resort)."""
        cfg = DfsConfig(client_read_timeout=5.0)
        net, nn, client, f = self._staged(sim, cfg=cfg)
        b = f.blocks[0]
        for nid in b.volatile_replicas:
            net.node_down(nid)  # down, but NameNode hasn't noticed
        # Read from a volatile node that holds no replica (ids 2..5).
        reader = next(i for i in range(2, 6) if i not in b.replicas)
        done, failed = [], []
        client.read_block(b, reader, lambda: done.append(sim.now), failed.append)
        sim.run()
        assert not failed
        assert len(done) == 1
        assert done[0] >= 2 * 5.0  # paid two timeouts first
        assert nn.counters["read_timeouts"] == 2

    def test_read_fails_when_no_replica_reachable(self, sim):
        net, nn, client, f = self._staged(sim)
        b = f.blocks[0]
        for nid in b.replicas:
            net.node_down(nid)
        failed = []
        client.read_block(b, 5, lambda: pytest.fail("no"), failed.append)
        sim.run()
        assert len(failed) == 1
        assert isinstance(failed[0], BlockUnavailable)

    def test_partial_read_size(self, sim):
        """Shuffle partitions read only their share of a map output."""
        net, nn, client, f = self._staged(sim)
        b = f.blocks[0]
        reader = next(iter(b.volatile_replicas))
        done = []
        client.read_block(
            b, reader, lambda: done.append(sim.now), lambda e: None, size_mb=6.0
        )
        sim.run()
        assert done[0] == pytest.approx(6.0 / 60.0)

    def test_cancelled_read_never_fires(self, sim):
        net, nn, client, f = self._staged(sim)
        b = f.blocks[0]
        fired = []
        op = client.read_block(b, 5, lambda: fired.append(1), lambda e: fired.append(2))
        op.cancel()
        sim.run()
        assert fired == []
