"""The MOON-DFS NameNode (paper Section IV).

Owns all metadata (files, blocks, replica maps), judges DataNode states
through heartbeat thresholds (``alive -> hibernated -> dead``), runs
the prioritised replication queue, estimates volatile-node
unavailability ``p`` for the adaptive replication rule, and hosts the
throttle service for dedicated DataNodes.

Key behaviours from the paper:

* hibernated DataNodes are not sent I/O requests (IV-C);
* on hibernation, only opportunistic blocks *without* a dedicated
  replica are queued for re-replication — blocks anchored on dedicated
  nodes already have the availability to ride out transient outages;
* on expiry (dead), the node's replicas are dropped from the replica
  maps and every affected block is queued (reliable files first);
* when a dead node returns, its block report re-registers surviving
  replicas; any copies beyond a file's factor are recorded as
  *replication thrashing* (the waste MOON's hibernate state avoids);
* files below their replication factor sit in a queue scanned
  periodically, reliable files served before opportunistic ones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..cluster import Cluster, Node, NodeView
from ..config import DfsConfig
from ..errors import DfsError, FileAlreadyExists, FileNotFound
from ..net import NetworkModel
from ..obs import CounterBag
from ..simulation import PeriodicTask, Simulation
from .journal import Journal, JournalRecord, NamespaceImage
from .placement import PlacementPolicy
from .throttle import ThrottleService
from .types import (
    BlockInfo,
    DataNodeInfo,
    FileInfo,
    FileKind,
    NodeState,
    ReplicationFactor,
)

#: Replication-queue priorities (lower = served first).
PRIO_RELIABLE = 0
PRIO_OPPORTUNISTIC = 1


class NameNode:
    """Metadata service + replication manager."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        network: NetworkModel,
        config: DfsConfig,
        view: Optional[NodeView] = None,
    ) -> None:
        config.validate()
        self.sim = sim
        self.cluster = cluster
        self.network = network
        self.config = config
        #: This observer's belief about node liveness (oracle by default).
        self.view = view if view is not None else NodeView("namenode")
        self._honest = self.view.honest
        # DFS bookkeeping now lives in the run's metrics registry under
        # the ``dfs/`` prefix; the bag keeps the historical
        # collections.Counter surface (`nn.counters[k] += 1`,
        # ``dict(nn.counters)``) for callers and tests.
        self.counters: CounterBag = CounterBag(sim.obs.metrics, "dfs/")
        self.rng = sim.rng("namenode")

        self._files: Dict[str, FileInfo] = {}
        self._blocks: Dict[int, BlockInfo] = {}
        #: Block id stream: ids are unique within this world (a fresh
        #: standby issues new ones), and it pickles with the NameNode.
        self._block_counter = itertools.count()
        self._infos: Dict[int, DataNodeInfo] = {}
        self._states: Dict[int, NodeState] = {}
        for node in cluster.nodes:
            self._infos[node.node_id] = DataNodeInfo(
                node.node_id, node.is_dedicated, node.spec.storage_gb * 1024.0
            )
            self._states[node.node_id] = NodeState.ALIVE

        self.placement = PlacementPolicy(self)
        self.throttle = ThrottleService(
            sim,
            network,
            [n.node_id for n in cluster.dedicated],
            config,
            on_unthrottled=self._dedicated_unthrottled,
        )

        # Heartbeat judgements (through this observer's view: the plain
        # analytical detector under the oracle, honest otherwise).
        self._detector = self.view.make_detector(sim, cluster)
        self._detector.add_threshold(
            "hibernate",
            config.node_hibernate_interval,
            self._on_hibernate,
            self._on_wake,
            adapt=True,
        )
        self._detector.add_threshold(
            "expiry", config.node_expiry_interval, self._on_expiry, self._on_rejoin
        )

        # Dedicated-tier autoscaling: a provisioned node becomes a
        # DataNode immediately; a decommissioned one's replicas are
        # dropped and re-replicated.  Registered before the network's
        # decommission wiring (see repro.core.MoonSystem) so replica
        # maps are consistent by the time in-flight transfers abort.
        cluster.on_provision(self._on_provision)
        cluster.on_drain_begin(self._on_drain_begin)
        cluster.on_decommission(self._on_decommission)
        #: Nodes mid-drain: they still serve reads, but their replicas
        #: no longer count toward replication factors, so their data is
        #: copied off proactively (HDFS-style decommissioning).
        self._draining_ids: Dict[int, None] = {}

        # p estimation over the past interval I (volatile nodes only).
        self._down_integral = 0.0
        self._down_count = 0
        self._last_down_change = 0.0
        self._p_window_start_integral = 0.0
        self._p_estimate = 0.0
        cluster.on_suspend(self._track_down)
        cluster.on_resume(self._track_up)
        self._p_task = PeriodicTask(
            sim, config.p_estimate_interval, self._refresh_p_estimate
        )

        # Replication queue: (priority, seq, block_id).  The membership
        # indexes are insertion-ordered dicts, never unordered sets —
        # scan order feeds the event queue, so it must be identical
        # across processes (ROADMAP: cross-process golden stability).
        self._repl_queue: List[Tuple[int, int, int]] = []
        self._queued: Dict[int, None] = {}
        self._seq = itertools.count()
        self._repl_task = PeriodicTask(
            sim, config.replication_check_interval, self._replication_scan
        )
        #: Opportunistic blocks awaiting a dedicated replica.
        self._want_dedicated: Dict[int, None] = {}
        #: file path -> list of commit watchers awaiting full factor.
        self._watchers: Dict[str, List[Callable[[], None]]] = {}
        #: file path -> block_ids still below factor (dirty-set view of
        #: the watched files, so replica registrations re-check one
        #: block instead of rescanning the whole file).
        self._watch_pending: Dict[str, Dict[int, None]] = {}

        # Durable metadata: write-ahead journal + periodic checkpoints.
        # Strictly opt-in — with the journal off (the paper-figure
        # default) no task is armed and no event is scheduled, so
        # pre-journal goldens stay byte-identical.
        jcfg = config.journal
        self.journal: Optional[Journal] = Journal(jcfg) if jcfg.enabled else None
        self._ckpt_task: Optional[PeriodicTask] = None
        #: Nodes whose post-crash block report is still outstanding.
        self._report_owed: Dict[int, None] = {}
        if self.journal is not None:
            # Baseline checkpoint: the initial cluster, empty namespace.
            self.journal.checkpoint(self.snapshot_image())
            self._ckpt_task = PeriodicTask(
                sim, jcfg.checkpoint_interval, self.take_checkpoint
            )
            if jcfg.crash_at is not None:
                sim.call_at(jcfg.crash_at, self.simulate_crash, daemon=True)

    def _j(self, rtype: str, **payload) -> None:
        """Append a journal record *before* the mutation it describes
        (no-op when the journal is disabled).  Durability is decided by
        record type: namespace records fsync immediately, replica-map
        records group-commit."""
        j = self.journal
        if j is None:
            return
        if j.append(rtype, payload):
            self.counters["journal_fsyncs"] += 1
        self.counters["journal_records"] += 1

    # ==================================================================
    # Views used by the placement policy and clients
    # ==================================================================
    def info(self, node_id: int) -> DataNodeInfo:
        return self._infos[node_id]

    def dedicated_infos(self) -> Iterable[DataNodeInfo]:
        return (self._infos[n.node_id] for n in self.cluster.dedicated)

    def volatile_infos(self) -> Iterable[DataNodeInfo]:
        return (self._infos[n.node_id] for n in self.cluster.volatile)

    def is_dedicated(self, node_id: int) -> bool:
        return self._infos[node_id].is_dedicated

    def node_state(self, node_id: int) -> NodeState:
        return self._states[node_id]

    def node_is_servable(self, node_id: int) -> bool:
        """Should the NameNode direct I/O at this node?  Hibernated and
        dead nodes are excluded (IV-C); an undetected outage still
        counts as servable — clients then pay the timeout.

        An honest NameNode knows suspicion can be wrong: a hibernated
        (suspected-but-possibly-alive) node keeps serving reads until it
        is expired for good, so only DEAD excludes it."""
        if self._honest:
            return self._states[node_id] is not NodeState.DEAD
        return self._states[node_id] is NodeState.ALIVE

    def estimated_p(self) -> float:
        return self._p_estimate

    # ==================================================================
    # Namespace operations
    # ==================================================================
    def create_file(
        self,
        path: str,
        kind: FileKind,
        rf: ReplicationFactor,
        size_mb: float,
        block_size_mb: Optional[float] = None,
    ) -> FileInfo:
        if path in self._files:
            raise FileAlreadyExists(path)
        rf.validate()
        if size_mb < 0:
            raise DfsError("negative file size")
        bs = block_size_mb or self.config.block_size_mb
        sizes: List[float] = []
        remaining = size_mb
        while remaining > 0 or not sizes:
            size = min(bs, remaining) if remaining > 0 else 0.0
            sizes.append(size)
            remaining -= size
            if remaining <= 0:
                break
        self._j(
            "create",
            path=path,
            kind=kind.value,
            d=rf.dedicated,
            v=rf.volatile,
            sizes=sizes,
            created_at=self.sim.now,
        )
        file = FileInfo(path, kind, rf, self.sim.now)
        for index, size in enumerate(sizes):
            block = BlockInfo(next(self._block_counter), file, index, size)
            file.blocks.append(block)
            self._blocks[block.block_id] = block
        self._files[file.path] = file
        return file

    def file(self, path: str) -> FileInfo:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFound(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def files(self) -> Iterable[FileInfo]:
        return self._files.values()

    def delete_file(self, path: str) -> None:
        file = self.file(path)
        self._j("delete", path=file.path)
        self._drop_file_state(file.path)

    def _drop_file_state(self, path: str) -> None:
        """Remove a file's metadata (shared by delete and the defensive
        arm of recovery, which must not journal)."""
        file = self._files.pop(path)
        for block in file.blocks:
            for node_id in list(block.replicas):
                info = self._infos.get(node_id)
                if info is not None:
                    info.drop_block(block)
            block.replicas.clear()
            block.dedicated_replicas.clear()
            self._blocks.pop(block.block_id, None)
            self._want_dedicated.pop(block.block_id, None)
        self._watchers.pop(path, None)
        self._watch_pending.pop(path, None)

    def convert_to_reliable(self, path: str) -> None:
        """Opportunistic -> reliable (output commit, Section IV-A); any
        missing dedicated replicas are queued with top priority."""
        file = self.file(path)
        if file.kind is FileKind.RELIABLE:
            return
        self._j("convert", path=file.path)
        file.kind = FileKind.RELIABLE
        file.adjusted_volatile = None
        for block in file.blocks:
            self._want_dedicated.pop(block.block_id, None)
            if self._block_deficit(block):
                self._enqueue(block)

    def set_adjusted_volatile(self, file: FileInfo, v: int) -> None:
        """Placement declined the dedicated copy and adapted v' (paper
        IV-A); routed through the NameNode so the adjustment is
        journaled with the rest of the namespace."""
        if file.adjusted_volatile == v:
            return
        self._j("adjust", path=file.path, v=v)
        file.adjusted_volatile = v

    # ==================================================================
    # Replica bookkeeping
    # ==================================================================
    def register_replica(self, block: BlockInfo, node_id: int) -> None:
        if block.block_id not in self._blocks:
            return  # file deleted while the write was in flight
        if node_id in block.replicas:
            return
        if self.journal is not None:  # hot path: skip the kwargs build
            self._j("add", path=block.file.path, i=block.index, node=node_id)
        block.replicas.add(node_id)
        info = self._infos[node_id]
        info.add_block(block)
        if info.is_dedicated:
            block.dedicated_replicas.add(node_id)
            self._want_dedicated.pop(block.block_id, None)
        self.counters["replicas_written"] += 1
        self._watched_block_changed(block)

    def read_targets(self, block: BlockInfo, reader_node: int) -> List[int]:
        """Replica candidates in MOON's preferred order: local copy,
        then volatile replicas, then dedicated (Section IV-B: volatile
        clients only touch dedicated nodes as a last resort)."""
        local: List[int] = []
        volatile: List[int] = []
        dedicated: List[int] = []
        states = self._states
        infos = self._infos
        alive = NodeState.ALIVE
        for nid in block.replicas:
            if states[nid] is not alive:
                continue
            if nid == reader_node:
                local.append(nid)
            elif infos[nid].is_dedicated:
                dedicated.append(nid)
            else:
                volatile.append(nid)
        # Deterministic shuffle for load spreading.
        if len(volatile) > 1:
            self.rng.shuffle(volatile)
        if len(dedicated) > 1:
            self.rng.shuffle(dedicated)
        if self.is_dedicated(reader_node):
            return local + dedicated + volatile
        return local + volatile + dedicated

    def live_dedicated_replicas(self, block: BlockInfo) -> set:
        """Dedicated replicas on nodes currently judged ALIVE.

        Draining nodes are excluded: their copies still serve reads but
        are about to disappear, so they must not satisfy a factor."""
        # Inlined node_is_servable: this runs per dedicated replica on
        # every deficit probe, and the replication scan re-probes its
        # whole deferred queue each period.
        states = self._states
        draining = self._draining_ids
        if self._honest:
            dead = NodeState.DEAD
            return {
                n
                for n in block.dedicated_replicas
                if states[n] is not dead and n not in draining
            }
        alive = NodeState.ALIVE
        return {
            n
            for n in block.dedicated_replicas
            if states[n] is alive and n not in draining
        }

    def effective_volatile_count(self, block: BlockInfo) -> int:
        """Volatile copies that count toward the replication target.

        Paper IV-C: a block with a (live) dedicated replica already has
        the availability to ride out transient outages, so hibernated
        volatile copies still count; without a dedicated anchor only
        copies on ALIVE nodes count, which is what triggers the
        hibernate-time re-replication of unanchored opportunistic data.
        """
        if self.live_dedicated_replicas(block):
            return len(block.volatile_replicas)
        states = self._states
        if self._honest:
            dead = NodeState.DEAD
            return sum(
                1 for n in block.volatile_replicas if states[n] is not dead
            )
        alive = NodeState.ALIVE
        return sum(
            1 for n in block.volatile_replicas if states[n] is alive
        )

    def block_availability_now(self, block: BlockInfo) -> bool:
        """Is any replica reachable this instant, as far as this
        observer can tell?  (Used by the MOON JobTracker's fetch-failure
        fast path, Section VI-B.)  The oracle view still consults
        ground truth exactly as the paper's simulation did; an honest
        view can only answer from its own judgement state."""
        view = self.view
        cluster_node = self.cluster.node
        return any(
            self.node_is_servable(nid) and view.believes_up(cluster_node(nid))
            for nid in block.replicas
        )

    # ==================================================================
    # Commit watchers (output files reaching full factor)
    # ==================================================================
    def when_fully_replicated(self, path: str, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once every block of ``path`` meets its
        replication factor (used for output commit)."""
        file = self.file(path)
        pending = {
            b.block_id: None for b in file.blocks if self._block_deficit(b)
        }
        if not pending:
            self.sim.call_after(0.0, callback)
            return
        self._watchers.setdefault(path, []).append(callback)
        self._watch_pending[path] = pending
        for block in file.blocks:
            if block.block_id in pending:
                self._enqueue(block)

    def _watched_block_changed(self, block: BlockInfo) -> None:
        """Replica-set change on one block: re-check only that block
        against its file's pending set; the full-file rescan happens
        once, when the set drains (and re-fills it if a block regressed
        while the watch was open)."""
        pending = self._watch_pending.get(block.file.path)
        if pending is None:
            return
        if block.block_id in pending and not self._block_deficit(block):
            del pending[block.block_id]
        if not pending:
            self._fire_watchers(block.file)

    def _fire_watchers(self, file: FileInfo) -> None:
        pending = self._watch_pending.get(file.path)
        if pending is not None:
            # Exactness guard: a block may have slipped back below
            # factor (expiry, hibernation) since it left the set.
            for b in file.blocks:
                if self._block_deficit(b):
                    pending[b.block_id] = None
            if pending:
                return
            del self._watch_pending[file.path]
        watchers = self._watchers.pop(file.path, None)
        if not watchers:
            return
        for cb in watchers:
            self.sim.call_after(0.0, cb)

    # ==================================================================
    # Node-state transitions
    # ==================================================================
    def _on_hibernate(self, node: Node) -> None:
        self._states[node.node_id] = NodeState.HIBERNATED
        self.counters["hibernations"] += 1
        # Honest observers defer re-replication to *expiry*: first
        # suspicion may be a false positive, and copying data off every
        # suspect node would turn detector noise into replication storms.
        if self._honest:
            return
        # Re-replicate only opportunistic blocks lacking a dedicated copy.
        info = self._infos[node.node_id]
        for block_id in info.blocks:
            block = self._blocks.get(block_id)
            if block is None:
                continue
            if (
                block.file.kind is FileKind.OPPORTUNISTIC
                and not self.live_dedicated_replicas(block)
            ):
                self._enqueue(block)

    def _on_wake(self, node: Node) -> None:
        if self._states[node.node_id] is not NodeState.HIBERNATED:
            return
        self._states[node.node_id] = NodeState.ALIVE
        # A node returning after a NameNode failover owes the new master
        # a block report (replicas registered in the lost journal tail
        # are only on its disk).
        if node.node_id in self._report_owed:
            self.deliver_block_report(node.node_id)
        # Becoming servable again can clear a watched block's deficit
        # without any replica registration: re-check this node's blocks.
        if self._watch_pending:
            for block_id in list(self._infos[node.node_id].blocks):
                block = self._blocks.get(block_id)
                if (
                    block is not None
                    and block.file.path in self._watch_pending
                ):
                    self._watched_block_changed(block)

    def _on_expiry(self, node: Node) -> None:
        self._states[node.node_id] = NodeState.DEAD
        self.counters["expiries"] += 1
        info = self._infos[node.node_id]
        for block_id in list(info.blocks):
            block = self._blocks.get(block_id)
            if block is None:
                info.blocks.pop(block_id, None)
                continue
            if self.journal is not None and node.node_id in block.replicas:
                self._j(
                    "drop", path=block.file.path, i=block.index,
                    node=node.node_id,
                )
            block.replicas.discard(node.node_id)
            block.dedicated_replicas.discard(node.node_id)
            if not block.replicas:
                self.counters["blocks_lost"] += 1
            self._enqueue(block)
        # The data remains on the node's disk (info.blocks kept) so a
        # rejoin can re-register it via block report.

    def _on_provision(self, node: Node) -> None:
        """A new (dedicated) DataNode joins: empty disk, ALIVE, and —
        when dedicated — throttle-watched and placement-eligible."""
        self._j(
            "node_add",
            node=node.node_id,
            dedicated=node.is_dedicated,
            capacity_mb=node.spec.storage_gb * 1024.0,
        )
        self._infos[node.node_id] = DataNodeInfo(
            node.node_id, node.is_dedicated, node.spec.storage_gb * 1024.0
        )
        self._states[node.node_id] = NodeState.ALIVE
        self.counters["provisions"] += 1
        if node.is_dedicated:
            self.throttle.add_node(node.node_id)
            # Opportunistic blocks that were denied a dedicated anchor
            # can have one now.
            self._dedicated_unthrottled(node.node_id)

    def holds_sole_replicas(self, node_id: int) -> bool:
        """Does this node hold the *only* replica of any live block?
        Used as the drain-completion gate: decommissioning such a node
        would lose data, so the drain waits for the proactive copy-off
        (queued at drain-begin) to land a second copy first."""
        info = self._infos.get(node_id)
        if info is None:
            return False
        for block_id in info.blocks:
            block = self._blocks.get(block_id)
            if block is not None and block.replicas == {node_id}:
                return True
        return False

    def _on_drain_begin(self, node: Node) -> None:
        """Start copying the draining node's data off while it can
        still act as a source: mark its replicas non-counting and queue
        every block it holds for a deficit check.  Blocks whose only
        dedicated anchor is the draining node get no *volatile* deficit
        from that (e.g. opportunistic ``{1,0}`` intermediates), so they
        additionally join the dedicated-fill queue — the drain cannot
        complete while the node holds a sole replica."""
        self._j("node_drain", node=node.node_id)
        self._draining_ids[node.node_id] = None
        info = self._infos[node.node_id]
        for block_id in list(info.blocks):
            block = self._blocks.get(block_id)
            if block is None:
                continue
            if not self.live_dedicated_replicas(block):
                self._j("want", path=block.file.path, i=block.index)
                self._want_dedicated[block.block_id] = None
            self._enqueue(block)

    def _on_decommission(self, node: Node) -> None:
        """A drained node leaves for good: unlike expiry, its replicas
        are dropped permanently (the disk goes away with the machine)
        and every affected block is queued for re-replication."""
        self._j("node_retire", node=node.node_id)
        self.counters["decommissions"] += 1
        self._draining_ids.pop(node.node_id, None)
        self._report_owed.pop(node.node_id, None)
        info = self._infos.pop(node.node_id)
        self._states.pop(node.node_id)
        self.throttle.remove_node(node.node_id)
        for block_id in list(info.blocks):
            block = self._blocks.get(block_id)
            if block is None:
                continue
            block.replicas.discard(node.node_id)
            block.dedicated_replicas.discard(node.node_id)
            if not block.replicas:
                self.counters["blocks_lost"] += 1
            self._enqueue(block)
            # Losing a replica can drop a watched commit block back
            # below factor; _enqueue re-arms the pending set.

    def _on_rejoin(self, node: Node) -> None:
        if self._states[node.node_id] is not NodeState.DEAD:
            return
        self._states[node.node_id] = NodeState.ALIVE
        info = self._infos[node.node_id]
        for block_id in list(info.blocks):
            block = self._blocks.get(block_id)
            if block is None:
                info.blocks.pop(block_id, None)
                continue
            was_needed = self._block_deficit(block)
            if self.journal is not None and node.node_id not in block.replicas:
                self._j(
                    "add", path=block.file.path, i=block.index,
                    node=node.node_id,
                )
            block.replicas.add(node.node_id)
            if info.is_dedicated:
                block.dedicated_replicas.add(node.node_id)
            if not was_needed:
                # The system replicated elsewhere meanwhile: thrashing.
                self.counters["replication_thrash"] += 1
            self._watched_block_changed(block)
        # The rejoin loop re-registered the full disk: the post-crash
        # block report (if one was owed) is covered.
        self._report_owed.pop(node.node_id, None)

    # ==================================================================
    # p estimation
    # ==================================================================
    def _track_down(self, node: Node) -> None:
        if node.is_volatile:
            self._integrate_downtime()
            self._down_count += 1

    def _track_up(self, node: Node) -> None:
        if node.is_volatile:
            self._integrate_downtime()
            self._down_count -= 1

    def _integrate_downtime(self) -> None:
        now = self.sim.now
        self._down_integral += self._down_count * (now - self._last_down_change)
        self._last_down_change = now

    def _refresh_p_estimate(self) -> None:
        self._integrate_downtime()
        n = max(1, len(self.cluster.volatile))
        window = self.config.p_estimate_interval
        seen = self._down_integral - self._p_window_start_integral
        self._p_estimate = min(0.99, seen / (n * window))
        self._p_window_start_integral = self._down_integral

    # ==================================================================
    # Replication queue
    # ==================================================================
    def _block_deficit(self, block: BlockInfo) -> bool:
        file = block.file
        if block.block_id not in self._blocks:
            return False
        if file.rf.dedicated > 0 and file.kind is FileKind.RELIABLE:
            if len(self.live_dedicated_replicas(block)) < file.rf.dedicated:
                return True
        return self.effective_volatile_count(block) < file.volatile_target()

    def _enqueue(self, block: BlockInfo) -> None:
        if block.block_id not in self._blocks:
            return
        # A watched file's block going (back) into deficit must re-join
        # its pending set, or the commit could fire early.
        pending = self._watch_pending.get(block.file.path)
        if pending is not None and self._block_deficit(block):
            pending[block.block_id] = None
        if block.block_id in self._queued:
            return
        prio = (
            PRIO_RELIABLE
            if block.file.kind is FileKind.RELIABLE
            else PRIO_OPPORTUNISTIC
        )
        heapq.heappush(self._repl_queue, (prio, next(self._seq), block.block_id))
        self._queued[block.block_id] = None

    def note_write_shortfall(self, block: BlockInfo, declined: bool) -> None:
        """Client tells us a block finished its pipeline below target."""
        if declined and not block.has_dedicated_replica():
            self._j("want", path=block.file.path, i=block.index)
            self._want_dedicated[block.block_id] = None
            self._enqueue(block)
        if self._block_deficit(block):
            self._enqueue(block)

    def _dedicated_unthrottled(self, node_id: int) -> None:
        """A dedicated node left saturation: try to give opportunistic
        files their dedicated copies (paper IV-A: 'MOON will attempt to
        have dedicated replicas for opportunistic files when possible')."""
        for block_id in list(self._want_dedicated):
            block = self._blocks.get(block_id)
            if block is None:
                self._want_dedicated.pop(block_id, None)
                continue
            self._enqueue(block)

    def _replication_scan(self) -> None:
        budget = self.config.max_replications_per_scan
        deferred: List[Tuple[int, int, int]] = []
        while self._repl_queue and budget > 0:
            prio, seq, block_id = heapq.heappop(self._repl_queue)
            self._queued.pop(block_id, None)
            block = self._blocks.get(block_id)
            if block is None or not self._block_deficit(block):
                if block is not None and block.block_id in self._want_dedicated:
                    self._try_dedicated_fill(block)
                continue
            plan = self.placement.plan_rereplication(block)
            if plan is None:
                deferred.append((prio, seq, block_id))
                continue
            source, target = plan
            self._issue_replication(block, source, target)
            budget -= 1
            if self._block_deficit(block):
                deferred.append((prio, next(self._seq), block_id))
        for item in deferred:
            if item[2] not in self._queued:
                heapq.heappush(self._repl_queue, item)
                self._queued[item[2]] = None

    def _try_dedicated_fill(self, block: BlockInfo) -> None:
        # live_ rather than has_: a copy on a draining (or hibernated)
        # dedicated node is about to disappear and does not satisfy
        # the want.
        if self.live_dedicated_replicas(block):
            self._want_dedicated.pop(block.block_id, None)
            return
        targets = self.placement._pick_dedicated(
            1, block.replicas, require_unthrottled=True, size=block.size_mb
        )
        live = [n for n in block.replicas if self.node_is_servable(n)]
        if targets and live:
            self._issue_replication(block, live[0], targets[0])

    def _issue_replication(self, block: BlockInfo, source: int, target: int) -> None:
        self.counters["replications_issued"] += 1
        self.counters["replication_mb"] += block.size_mb
        issued_at = self.sim.now
        tracer = self.sim.obs.tracer
        # Trace label: path#index, not the numeric block id — the
        # label is what journal records use too, and it survives a
        # failover that re-issues ids.
        block_label = block.label

        def done(_t) -> None:
            if tracer.enabled:
                tracer.span(
                    "dfs.replicate",
                    "dfs",
                    issued_at,
                    self.sim.now,
                    block=block_label,
                    source=source,
                    target=target,
                    mb=block.size_mb,
                )
            self.register_replica(block, target)

        def fail(_t) -> None:
            self.counters["replications_failed"] += 1
            if tracer.enabled:
                tracer.instant(
                    "dfs.replicate_failed",
                    "dfs",
                    self.sim.now,
                    block=block_label,
                    source=source,
                    target=target,
                )
            if self._block_deficit(block):
                self._enqueue(block)

        self.network.transfer(
            source, target, block.size_mb, on_complete=done, on_fail=fail,
            kind="replication",
        )

    # ==================================================================
    # Durable metadata: checkpoints, crash, recovery
    # ==================================================================
    def snapshot_image(self) -> NamespaceImage:
        """Canonical semantic snapshot of the live metadata — the
        checkpoint payload, and the oracle side of the recovery-equality
        fuzz suite."""
        img = NamespaceImage()
        for nid, info in self._infos.items():
            img.nodes[nid] = (info.is_dedicated, info.capacity_mb)
        for nid in self._draining_ids:
            img.draining[nid] = None
        for path, file in self._files.items():
            img.files[path] = {
                "kind": file.kind.value,
                "d": file.rf.dedicated,
                "v": file.rf.volatile,
                "adjusted": file.adjusted_volatile,
                "created_at": file.created_at,
                "sizes": [b.size_mb for b in file.blocks],
                "replicas": [set(b.replicas) for b in file.blocks],
            }
        for block_id in self._want_dedicated:
            block = self._blocks.get(block_id)
            if block is not None:
                img.wants[(block.file.path, block.index)] = None
        return img

    def take_checkpoint(self) -> None:
        """Snapshot the namespace and truncate the journal (a full
        durability barrier; runs on the sim clock while the journal is
        enabled)."""
        if self.journal is None:
            return
        truncated = self.journal.checkpoint(self.snapshot_image())
        self.counters["checkpoints"] += 1
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "dfs.checkpoint", "dfs", self.sim.now,
                truncated=truncated, files=len(self._files),
            )

    def recover(
        self,
        checkpoint: Optional[NamespaceImage] = None,
        records: Optional[List[JournalRecord]] = None,
    ) -> NamespaceImage:
        """Rebuild namespace, replica maps, watcher state and the
        replication queue from ``checkpoint`` + ``records`` (default:
        this NameNode's own journal — its durable prefix).

        Namespace records fsync synchronously, so the recovered
        namespace always matches the in-memory object graph and
        recovery happens *in place*: ``FileInfo``/``BlockInfo``
        identities survive the failover, keeping references held by
        clients, the JobTracker and in-flight transfer callbacks valid.
        Replica knowledge resets to what the journal proves; the gap to
        disk truth closes via :meth:`deliver_block_report`.
        """
        if checkpoint is None:
            if self.journal is None:
                raise DfsError("recovery requires the journal")
            image = self.journal.recovered_image()
        else:
            image = checkpoint.copy().replay(records or [])
        self.counters["recoveries"] += 1

        # Namespace: reconcile the object graph against the image.
        for path in [p for p in self._files if p not in image.files]:
            # Unreachable in-place (namespace records are synchronous);
            # kept so recover() also works onto a fresh standby.
            self._drop_file_state(path)
        for path, fimg in image.files.items():
            file = self._files.get(path)
            if file is None:
                file = FileInfo(
                    path,
                    FileKind(fimg["kind"]),
                    ReplicationFactor(fimg["d"], fimg["v"]),
                    fimg["created_at"],
                )
                for index, size in enumerate(fimg["sizes"]):
                    block = BlockInfo(
                        next(self._block_counter), file, index, size
                    )
                    file.blocks.append(block)
                    self._blocks[block.block_id] = block
                self._files[file.path] = file
            else:
                file.kind = FileKind(fimg["kind"])
                file.adjusted_volatile = fimg["adjusted"]

        # Replica maps: reset to journal-proven knowledge.
        for path, fimg in image.files.items():
            file = self._files[path]
            for block, reps in zip(file.blocks, fimg["replicas"]):
                known = {n for n in reps if n in self._infos}
                block.replicas.clear()
                block.replicas.update(known)
                block.dedicated_replicas.clear()
                block.dedicated_replicas.update(
                    n for n in known if self._infos[n].is_dedicated
                )

        # Detector judgements survive the failover (the standby shares
        # the heartbeat stream), so re-apply what the journal may have
        # lost with its tail: an expired node's replicas are dropped
        # again.  Its disk is untouched — a later rejoin re-reports it.
        for nid, info in self._infos.items():
            if self._states.get(nid) is NodeState.DEAD:
                for block_id in info.blocks:
                    block = self._blocks.get(block_id)
                    if block is not None:
                        block.replicas.discard(nid)
                        block.dedicated_replicas.discard(nid)

        self._draining_ids = {
            nid: None for nid in image.draining if nid in self._infos
        }

        # Want-dedicated set, normalised: a live dedicated replica
        # satisfies any want the journal still carries.
        self._want_dedicated = {}
        for path, index in image.wants:
            file = self._files.get(path)
            if file is None or file.kind is FileKind.RELIABLE:
                continue
            if index >= len(file.blocks):
                continue
            block = file.blocks[index]
            if not self.live_dedicated_replicas(block):
                self._want_dedicated[block.block_id] = None

        # The replication queue and watcher dirty-sets are derived
        # state: recompute both with a full deficit scan (this is what
        # lets them survive checkpoint truncation — they are never
        # journaled at all).
        self._repl_queue = []
        self._queued = {}
        self._watch_pending = {}
        for path in list(self._watchers):
            file = self._files.get(path)
            if file is None:
                self._watchers.pop(path, None)
                continue
            pending = {
                b.block_id: None for b in file.blocks if self._block_deficit(b)
            }
            if pending:
                self._watch_pending[path] = pending
            else:
                self._fire_watchers(file)
        for file in self._files.values():
            for block in file.blocks:
                if (
                    self._block_deficit(block)
                    or block.block_id in self._want_dedicated
                ):
                    self._enqueue(block)
        return image

    def simulate_crash(self) -> Dict[str, object]:
        """Kill the NameNode and fail over: the unsynced journal tail
        dies with the master, a standby replays checkpoint + durable
        log (charged at ``replay_seconds_per_record``), then datanodes
        re-report their disks on a staggered schedule.  Returns the
        recovery stats (also pushed to metrics and the flight
        recorder)."""
        if self.journal is None:
            raise DfsError("simulate_crash requires the journal (--journal on)")
        t0 = self.sim.now
        jcfg = self.config.journal
        self.counters["namenode_crashes"] += 1
        lost = self.journal.drop_unsynced()
        self.counters["journal_records_lost"] += lost
        replayed = len(self.journal.durable_records())
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.instant(
                "dfs.namenode_crash", "dfs", t0,
                lost_records=lost, replay_records=replayed,
            )
        self.recover()
        # Every datanode owes the new master a block report.  ALIVE
        # nodes deliver on a staggered schedule once replay finishes;
        # the rest report when they wake or rejoin.
        self._report_owed = {nid: None for nid in sorted(self._infos)}
        reporters = [
            nid
            for nid in self._report_owed
            if self._states.get(nid) is NodeState.ALIVE
        ]
        replay_time = jcfg.replay_seconds_per_record * replayed
        t_first = t0 + replay_time + jcfg.block_report_delay
        for k, nid in enumerate(reporters):
            self.sim.call_at(
                t_first + k * jcfg.block_report_stagger,
                self._scheduled_report,
                nid,
                daemon=True,
            )
        t_done = (
            t_first + (len(reporters) - 1) * jcfg.block_report_stagger
            if reporters
            else t0 + replay_time
        )
        self.sim.call_at(
            t_done, self._finish_recovery, t0, replayed, len(reporters),
            daemon=True,
        )
        return {
            "crashed_at": t0,
            "lost_records": lost,
            "replayed_records": replayed,
            "reporters": len(reporters),
            "recovery_done_at": t_done,
        }

    def _scheduled_report(self, node_id: int) -> None:
        # Owed may have been cleared (rejoin, decommission, a second
        # crash); a node that went silent meanwhile reports on wake.
        if (
            node_id in self._report_owed
            and self._states.get(node_id) is NodeState.ALIVE
        ):
            self.deliver_block_report(node_id)

    def deliver_block_report(self, node_id: int) -> Tuple[int, int]:
        """Reconcile one node's disk contents against the recovered
        replica maps: registrations lost with the unsynced journal tail
        are re-learned here, and replicas the journal remembers but the
        disk no longer holds are dropped.  Returns ``(added,
        dropped)``."""
        self._report_owed.pop(node_id, None)
        info = self._infos.get(node_id)
        if info is None:
            return (0, 0)
        added = dropped = 0
        for block_id in list(info.blocks):
            block = self._blocks.get(block_id)
            if block is None:
                info.blocks.pop(block_id, None)
                continue
            if node_id in block.replicas:
                continue
            was_needed = self._block_deficit(block)
            self._j("add", path=block.file.path, i=block.index, node=node_id)
            block.replicas.add(node_id)
            if info.is_dedicated:
                block.dedicated_replicas.add(node_id)
                self._want_dedicated.pop(block.block_id, None)
            added += 1
            self.counters["replicas_recovered"] += 1
            if not was_needed:
                # Re-replication already covered it: thrashing, same as
                # a dead node rejoining.
                self.counters["replication_thrash"] += 1
            self._watched_block_changed(block)
        # Phantom sweep: journal-attributed replicas the disk lacks.
        for block in self._blocks.values():
            if node_id in block.replicas and block.block_id not in info.blocks:
                self._j(
                    "drop", path=block.file.path, i=block.index, node=node_id
                )
                block.replicas.discard(node_id)
                block.dedicated_replicas.discard(node_id)
                dropped += 1
                if self._block_deficit(block):
                    self._enqueue(block)
        return (added, dropped)

    def _finish_recovery(self, t0: float, replayed: int, reporters: int) -> None:
        dt = self.sim.now - t0
        self.sim.obs.metrics.histogram("dfs/recovery_seconds").observe(dt)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.span(
                "dfs.namenode_recovery", "dfs", t0, self.sim.now,
                replay_records=replayed, reports=reporters,
            )

    # ------------------------------------------------------------------
    def replication_queue_length(self) -> int:
        return len(self._queued)

    def stop(self) -> None:
        """Halt periodic services (end of experiment)."""
        self._repl_task.stop()
        self._p_task.stop()
        self.throttle.stop()
        if self._ckpt_task is not None:
            self._ckpt_task.stop()
