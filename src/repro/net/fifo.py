"""FIFO-queue transfer model (default; fast).

Every node exposes three service channels — disk, NIC-in, NIC-out —
each a FIFO queue draining at the channel capacity.  A network transfer
occupies the source's NIC-out (and disk, for the read) and the
destination's NIC-in (and disk, for the write); its completion time is
the later of the two endpoints' queue drain times.  This is the classic
store-and-forward approximation: it is O(1) per transfer and reproduces
the saturation behaviour central to the paper (queues at the few
dedicated DataNodes grow when many volatile clients write to them,
which Algorithm 1 then observes as a bandwidth plateau).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import NetworkError
from ..simulation import PRIORITY_TRANSFER, Simulation
from .base import DISK, NIC_IN, NIC_OUT, NetworkModel, OnComplete, OnFail, Transfer


class _Channel:
    """One FIFO service queue with capacity in MB/s."""

    __slots__ = ("capacity", "busy_until")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.busy_until = 0.0

    def enqueue(self, now: float, size_mb: float) -> float:
        """Append a job; return its completion time."""
        start = max(now, self.busy_until)
        self.busy_until = start + size_mb / self.capacity
        return self.busy_until

    def backlog(self, now: float) -> float:
        """Seconds of queued work remaining."""
        return max(0.0, self.busy_until - now)


class FifoNetwork(NetworkModel):
    """See module docstring."""

    def __init__(self, sim: Simulation, disk_fraction: float = 1.0) -> None:
        """``disk_fraction`` scales how much of a network transfer is also
        charged to each endpoint's disk (1.0 = full store-and-forward)."""
        super().__init__(sim)
        if not 0.0 <= disk_fraction <= 1.0:
            raise NetworkError("disk_fraction must be in [0, 1]")
        self._disk_fraction = disk_fraction
        self._channels: Dict[int, Dict[str, _Channel]] = {}
        # Insertion-ordered on purpose: abort sweeps iterate this, and
        # their order feeds the event queue — an id-hashed set would
        # vary across processes and break golden stability.
        self._inflight: Dict[Transfer, None] = {}

    # ------------------------------------------------------------------
    def register_node(self, node_id: int, disk_mbps: float, nic_mbps: float) -> None:
        super().register_node(node_id, disk_mbps, nic_mbps)
        self._channels[node_id] = {
            DISK: _Channel(disk_mbps),
            NIC_IN: _Channel(nic_mbps),
            NIC_OUT: _Channel(nic_mbps),
        }

    def unregister_node(self, node_id: int) -> None:
        super().unregister_node(node_id)
        del self._channels[node_id]

    # ------------------------------------------------------------------
    def transfer(
        self,
        src: int,
        dst: int,
        size_mb: float,
        on_complete: Optional[OnComplete] = None,
        on_fail: Optional[OnFail] = None,
        kind: str = "net",
    ) -> Transfer:
        self._check_size(size_mb)
        now = self.sim.now
        t = Transfer(src, dst, size_mb, kind, now, on_complete, on_fail)
        if not self.is_up(src) or not self.is_up(dst):
            self._schedule_failure(t)
            return t
        disk_mb = size_mb * self._disk_fraction
        src_ch = self._channels[src]
        dst_ch = self._channels[dst]
        src_done = src_ch[NIC_OUT].enqueue(now, size_mb)
        dst_done = dst_ch[NIC_IN].enqueue(now, size_mb)
        if disk_mb > 0.0:
            src_done = max(src_done, src_ch[DISK].enqueue(now, disk_mb))
            dst_done = max(dst_done, dst_ch[DISK].enqueue(now, disk_mb))
        self._commit(t, max(src_done, dst_done))
        return t

    def disk_io(
        self,
        node_id: int,
        size_mb: float,
        on_complete: Optional[OnComplete] = None,
        on_fail: Optional[OnFail] = None,
        kind: str = "disk",
    ) -> Transfer:
        self._check_size(size_mb)
        t = Transfer(
            node_id, node_id, size_mb, kind, self.sim.now, on_complete, on_fail
        )
        if not self.is_up(node_id):
            self._schedule_failure(t)
            return t
        done = self._channels[node_id][DISK].enqueue(self.sim.now, size_mb)
        self._commit(t, done)
        return t

    # ------------------------------------------------------------------
    def backlog_seconds(self, node_id: int, channel: str = DISK) -> float:
        """Seconds of queued work on a node channel (saturation probe)."""
        return self._channels[node_id][channel].backlog(self.sim.now)

    def active_transfers(self) -> int:
        return len(self._inflight)

    # ------------------------------------------------------------------
    def _check_size(self, size_mb: float) -> None:
        if size_mb < 0:
            raise NetworkError("negative transfer size")

    def _commit(self, t: Transfer, done_time: float) -> None:
        self._inflight[t] = None
        t._event = self.sim.call_at(
            done_time, self._complete, t, priority=PRIORITY_TRANSFER
        )

    def _complete(self, t: Transfer) -> None:
        # The handle's args hold ``t``: clear it on fire, or every
        # completed transfer (and its callbacks' op graph) stays in a
        # reference cycle that only the cyclic collector can free.
        t._event = None
        self._inflight.pop(t, None)
        self._finish(t)

    def _schedule_failure(self, t: Transfer) -> None:
        # Deliver asynchronously so submitters never re-enter themselves.
        self.sim.call_after(0.0, self._fail, t, priority=PRIORITY_TRANSFER)

    def _abort_transfers(self, node_id: int) -> None:
        doomed = [t for t in self._inflight if t.involves(node_id)]
        for t in doomed:
            self._inflight.pop(t, None)
            self._fail(t)
