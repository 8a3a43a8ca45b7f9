"""Max-min fair-share flow model (ablation alternative to FIFO).

Each in-flight transfer is a *flow* demanding bandwidth on its source
NIC-out, destination NIC-in and both disks.  Rates are assigned by
progressive filling (classic max-min fairness), recomputed whenever the
flow set changes.  More faithful to TCP sharing than FIFO queues —
used by ``benchmarks/test_ablation_network.py`` to quantify the
modelling gap.

**Incremental recomputation.**  A max-min allocation decomposes over
the connected components of the flow/channel bipartite graph: flows
that share no channel (even transitively) cannot influence each
other's rates.  A flow starting or finishing therefore only perturbs
its own component, which this model finds by BFS over persistent
channel-user maps and re-fills in isolation — O(component) per change
instead of rebuilding all flow/channel state.  Within a component the
fill visits channels in the same relative order as a full rebuild
would, so the incremental allocation is *bitwise* identical to the
full recompute.  The full-recompute oracle for the equivalence
property test lives in ``tests/test_net_fairshare_incremental.py``.

Everything that iterates flows walks insertion-ordered dicts, never
id-hashed sets: completion and abort order feed the event queue, and
must not vary across processes.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import NetworkError
from ..simulation import PRIORITY_TRANSFER, Simulation
from .base import DISK, NIC_IN, NIC_OUT, NetworkModel, OnComplete, OnFail, Transfer

ChannelKey = Tuple[int, str]


class _Flow:
    __slots__ = ("transfer", "remaining_mb", "rate", "channels", "seq")

    def __init__(
        self, transfer: Transfer, channels: List[ChannelKey]
    ) -> None:
        self.transfer = transfer
        self.remaining_mb = transfer.size_mb
        self.rate = 0.0
        self.channels = channels  # [(node_id, channel_name), ...]
        self.seq = 0  # admission order, set by the network on add


class FairShareNetwork(NetworkModel):
    """See module docstring."""

    def __init__(self, sim: Simulation, disk_fraction: float = 1.0) -> None:
        super().__init__(sim)
        if not 0.0 <= disk_fraction <= 1.0:
            raise NetworkError("disk_fraction must be in [0, 1]")
        self._disk_fraction = disk_fraction
        self._flows: Dict[_Flow, None] = {}
        #: channel -> its current flows (insertion-ordered).
        self._users: Dict[ChannelKey, Dict[_Flow, None]] = {}
        #: channel -> capacity in MB/s (ports resolved once per channel).
        self._cap: Dict[ChannelKey, float] = {}
        self._last_update = 0.0
        self._next_event = None
        self._flow_seq = 0
        # Same-instant changes batch into one refill: no simulated time
        # passes between them, so intermediate allocations could never
        # integrate into transferred bytes anyway.  ``_dirty`` channels
        # accumulate until the flush event (scheduled at the current
        # timestamp) recomputes rates once for the final flow set.
        self._dirty_channels: List[ChannelKey] = []
        self._flush_event = None
        # Flight-recorder counters (registry adds only; no sim reads).
        metrics = sim.obs.metrics
        self._m_flows = metrics.counter("net/flows")
        self._m_water_fills = metrics.counter("net/water_fills")

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
        if size_mb < 0:
            raise NetworkError("negative transfer size")
        t = Transfer(src, dst, size_mb, kind, self.sim.now, on_complete, on_fail)
        if not self.is_up(src) or not self.is_up(dst):
            self.sim.call_after(0.0, self._fail, t, priority=PRIORITY_TRANSFER)
            return t
        channels = [(src, NIC_OUT), (dst, NIC_IN)]
        if self._disk_fraction > 0:
            channels += [(src, DISK), (dst, DISK)]
        self._add_flow(_Flow(t, channels))
        return t

    def disk_io(
        self,
        node_id: int,
        size_mb: float,
        on_complete: Optional[OnComplete] = None,
        on_fail: Optional[OnFail] = None,
        kind: str = "disk",
    ) -> Transfer:
        if size_mb < 0:
            raise NetworkError("negative transfer size")
        t = Transfer(
            node_id, node_id, size_mb, kind, self.sim.now, on_complete, on_fail
        )
        if not self.is_up(node_id):
            self.sim.call_after(0.0, self._fail, t, priority=PRIORITY_TRANSFER)
            return t
        self._add_flow(_Flow(t, [(node_id, DISK)]))
        return t

    def active_transfers(self) -> int:
        return len(self._flows)

    def flow_rate(self, transfer: Transfer) -> float:
        """Current assigned rate in MB/s (tests)."""
        self._ensure_fresh()
        for f in self._flows:
            if f.transfer is transfer:
                return f.rate
        return 0.0

    # ------------------------------------------------------------------
    def unregister_node(self, node_id: int) -> None:
        super().unregister_node(node_id)  # aborts the node's flows
        # Drop cached channel capacities: a later provision may reuse
        # the id with a different NodeSpec.
        for name in (DISK, NIC_IN, NIC_OUT):
            self._cap.pop((node_id, name), None)
            self._users.pop((node_id, name), None)

    # ------------------------------------------------------------------
    def _add_flow(self, flow: _Flow) -> None:
        self._advance()
        if flow.remaining_mb <= 0.0:
            # Zero-byte transfer: complete immediately (asynchronously).
            self.sim.call_after(
                0.0, self._finish, flow.transfer, priority=PRIORITY_TRANSFER
            )
            return
        self._flow_seq += 1
        flow.seq = self._flow_seq
        self._m_flows.inc()
        self._flows[flow] = None
        for key in flow.channels:
            users = self._users.get(key)
            if users is None:
                users = self._users[key] = {}
                ports = self.ports(key[0])
                self._cap[key] = (
                    ports.disk_mbps if key[1] == DISK else ports.nic_mbps
                )
            users[flow] = None
        self._mark_dirty(flow.channels)

    def _drop_flow(self, flow: _Flow) -> None:
        self._flows.pop(flow, None)
        for key in flow.channels:
            users = self._users.get(key)
            if users is not None:
                users.pop(flow, None)
                if not users:
                    del self._users[key]

    def _advance(self) -> None:
        """Progress all flows from the last update to now."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for f in self._flows:
                f.remaining_mb = max(0.0, f.remaining_mb - f.rate * dt)
        self._last_update = self.sim.now

    # ------------------------------------------------------------------
    # Deferred flush of same-instant changes
    # ------------------------------------------------------------------
    def _mark_dirty(self, channels: Iterable[ChannelKey]) -> None:
        self._dirty_channels.extend(channels)
        if self._dirty_channels and self._flush_event is None:
            self._flush_event = self.sim.call_after(
                0.0, self._flush_tick, priority=PRIORITY_TRANSFER
            )

    def _flush_tick(self) -> None:
        self._flush_event = None
        self._ensure_fresh()

    def _ensure_fresh(self) -> None:
        if not self._dirty_channels:
            return
        seeds = self._dirty_channels
        self._dirty_channels = []
        if self._flush_event is not None:
            self._flush_event.cancel()
            self._flush_event = None
        self._refill(seeds)
        self._schedule_completion()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def _component(self, seeds: Iterable[ChannelKey]) -> List[_Flow]:
        """Flows transitively sharing a channel with ``seeds``, in
        global admission order (so tie-breaks match a full rebuild)
        without scanning the whole flow table — O(component)."""
        seen_channels = set()
        comp = set()
        frontier: deque = deque()
        for key in seeds:
            if key not in seen_channels:
                seen_channels.add(key)
                frontier.append(key)
        n_all = len(self._flows)
        while frontier:
            key = frontier.popleft()
            for flow in self._users.get(key, ()):
                if flow in comp:
                    continue
                comp.add(flow)
                if len(comp) == n_all:
                    # Fully connected (the common case under load):
                    # stop expanding, the component is everything.
                    return list(self._flows)
                for other in flow.channels:
                    if other not in seen_channels:
                        seen_channels.add(other)
                        frontier.append(other)
        # Admission order == the order a full rebuild would walk the
        # flow dict in, so the fill's tie-breaks come out identical.
        return sorted(comp, key=lambda f: f.seq)

    def _refill(self, changed_channels: Iterable[ChannelKey]) -> None:
        """Re-run progressive filling where the change can matter."""
        affected = self._component(changed_channels)
        if affected:
            self._water_fill(affected)

    def _water_fill(self, flows: List[_Flow]) -> None:
        """Progressive-filling max-min allocation over ``flows`` (a
        union of whole components: every user of every channel touched
        is in the list).

        The tightest channel of each round comes from a lazy min-heap
        keyed by ``(share, construction_order)`` with per-channel
        active counts maintained on the side — identical fills to the
        naive find-min-rescan (same arithmetic, same tie-breaks), but
        O((F·C) log F) instead of O(rounds · channels · users).
        """
        self._m_water_fills.inc()
        users: Dict[ChannelKey, List[_Flow]] = {}
        for f in flows:
            f.rate = 0.0
            for key in f.channels:
                bucket = users.get(key)
                if bucket is None:
                    users[key] = [f]
                else:
                    bucket.append(f)

        remaining_cap: Dict[ChannelKey, float] = {}
        active: Dict[ChannelKey, int] = {}
        order: Dict[ChannelKey, int] = {}
        heap: List[Tuple[float, int, ChannelKey]] = []
        for idx, (key, bucket) in enumerate(users.items()):
            c = self._cap[key]
            remaining_cap[key] = c
            n = len(bucket)
            active[key] = n
            order[key] = idx
            heap.append((c / n, idx, key))
        heapq.heapify(heap)

        unfixed = set(flows)
        while unfixed and heap:
            share, _, best_key = heapq.heappop(heap)
            n = active[best_key]
            if n == 0 or share != remaining_cap[best_key] / n:
                continue  # stale entry: the channel changed since push
            changed: Dict[ChannelKey, None] = {}
            for f in users[best_key]:
                if f not in unfixed:
                    continue
                f.rate = share
                unfixed.discard(f)
                for key in f.channels:
                    remaining_cap[key] = max(
                        0.0, remaining_cap[key] - share
                    )
                    active[key] -= 1
                    changed[key] = None
            for key in changed:
                if active[key] > 0:
                    heapq.heappush(
                        heap,
                        (remaining_cap[key] / active[key], order[key], key),
                    )

    def _schedule_completion(self) -> None:
        """(Re-)arm the single next-completion event."""
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        soonest, soonest_flow = float("inf"), None
        for f in self._flows:
            if f.rate <= 0:
                continue
            eta = f.remaining_mb / f.rate
            if eta < soonest:
                soonest, soonest_flow = eta, f
        if soonest_flow is not None:
            self._next_event = self.sim.call_after(
                soonest, self._on_completion_tick, priority=PRIORITY_TRANSFER
            )

    # ------------------------------------------------------------------
    def _on_completion_tick(self) -> None:
        self._next_event = None
        self._advance()
        done = [f for f in self._flows if f.remaining_mb <= 1e-9]
        changed: List[ChannelKey] = []
        for f in done:
            self._drop_flow(f)
            changed.extend(f.channels)
        self._mark_dirty(changed)
        for f in done:
            # Callbacks often start follow-up transfers at this same
            # instant; their changes fold into the one pending flush.
            self._finish(f.transfer)
        if self._dirty_channels:
            self._ensure_fresh()
        else:
            # Nothing crossed the epsilon yet: re-arm from the slightly
            # advanced remaining volumes (the tick consumed the event).
            self._schedule_completion()

    def _abort_transfers(self, node_id: int) -> None:
        self._advance()
        doomed = [
            f
            for f in self._flows
            if any(node == node_id for node, _ in f.channels)
        ]
        changed: List[ChannelKey] = []
        for f in doomed:
            self._drop_flow(f)
            changed.extend(f.channels)
        self._mark_dirty(changed)
        for f in doomed:
            self._fail(f.transfer)
        if self._dirty_channels:
            self._ensure_fresh()
