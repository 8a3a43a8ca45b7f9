"""Cluster container + availability fan-out to observers.

Membership is no longer fixed for a run: the service layer's
autoscaler grows and shrinks the *dedicated* tier at runtime through
:meth:`Cluster.provision_dedicated` / :meth:`Cluster.decommission_dedicated`.
Decommissioning is graceful: the node is immediately removed from the
placement/scheduling candidate pools (``on_drain_begin``), keeps
running whatever work it already holds, and only leaves the cluster —
``on_decommission`` fan-out, in-flight transfers aborted by the
observers — once its owner (the JobTracker) declares the drain
complete via :meth:`finish_decommission`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..config import ClusterConfig, NodeSpec, TraceConfig
from ..errors import ConfigError
from ..simulation import Simulation
from ..traces import AvailabilityTrace, generate_trace
from .node import Node, NodeKind

SuspendListener = Callable[[Node], None]
ResumeListener = Callable[[Node], None]
LifecycleListener = Callable[[Node], None]


class Cluster:
    """All nodes of one run.  Dedicated nodes get ids ``0..D-1`` so the
    placement code can iterate them cheaply; volatile nodes follow.
    Nodes provisioned later reuse retired dedicated ids when possible
    (lowest first), else extend past the current maximum."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ConfigError("empty cluster")
        self.nodes: List[Node] = list(nodes)
        self._by_id: Dict[int, Node] = {n.node_id: n for n in nodes}
        if len(self._by_id) != len(self.nodes):
            raise ConfigError("duplicate node ids")
        self.dedicated: List[Node] = [n for n in nodes if n.is_dedicated]
        self.volatile: List[Node] = [n for n in nodes if n.is_volatile]
        self._suspend_listeners: List[SuspendListener] = []
        self._resume_listeners: List[ResumeListener] = []
        # Dynamic-membership plumbing (dedicated tier autoscaling).
        self._provision_listeners: List[LifecycleListener] = []
        self._drain_listeners: List[LifecycleListener] = []
        self._decommission_listeners: List[LifecycleListener] = []
        #: node_id -> Node for nodes mid-drain (insertion-ordered).
        self._draining: Dict[int, Node] = {}
        #: Retired dedicated ids available for reuse, kept sorted.
        self._retired_ids: List[int] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self._by_id[node_id]

    def unavailable_fraction(self) -> float:
        down = sum(1 for n in self.nodes if not n.available)
        return down / len(self.nodes)

    # ------------------------------------------------------------------
    def on_suspend(self, listener: SuspendListener) -> None:
        self._suspend_listeners.append(listener)

    def on_resume(self, listener: ResumeListener) -> None:
        self._resume_listeners.append(listener)

    def _notify_suspend(self, node: Node) -> None:
        node.available = False
        for listener in self._suspend_listeners:
            listener(node)

    def _notify_resume(self, node: Node) -> None:
        node.available = True
        for listener in self._resume_listeners:
            listener(node)

    # ------------------------------------------------------------------
    # Dynamic dedicated-tier membership (service autoscaling)
    # ------------------------------------------------------------------
    def on_provision(self, listener: LifecycleListener) -> None:
        """``listener(node)`` fires after a new node joins the cluster."""
        self._provision_listeners.append(listener)

    def on_drain_begin(self, listener: LifecycleListener) -> None:
        """``listener(node)`` fires when a node starts its graceful
        drain: still running existing work, accepting nothing new."""
        self._drain_listeners.append(listener)

    def on_decommission(self, listener: LifecycleListener) -> None:
        """``listener(node)`` fires after a drained node has left the
        membership maps; observers drop their per-node state (and abort
        any I/O still touching it) here."""
        self._decommission_listeners.append(listener)

    def draining_nodes(self) -> List[Node]:
        return list(self._draining.values())

    def provision_dedicated(self, spec: Optional[NodeSpec] = None) -> Node:
        """Add one dedicated node, reusing the lowest retired id if any
        (a long-lived service must not grow ids without bound)."""
        if spec is None:
            spec = NodeSpec()
        spec.validate()
        if self._retired_ids:
            node_id = self._retired_ids.pop(0)
        else:
            node_id = max(self._by_id) + 1 if self._by_id else 0
        node = Node(node_id, NodeKind.DEDICATED, spec)
        self.nodes.append(node)
        self._by_id[node_id] = node
        self.dedicated.append(node)
        for listener in self._provision_listeners:
            listener(node)
        return node

    def decommission_dedicated(self, node_id: int) -> Node:
        """Start a graceful drain of one dedicated node.

        The node immediately leaves ``self.dedicated`` (so placement
        and hybrid scheduling stop offering it) but stays in
        ``self.nodes``: running attempts finish, stored replicas keep
        serving reads.  The JobTracker watches the drain and calls
        :meth:`finish_decommission` once the node is idle.
        """
        node = self._by_id.get(node_id)
        if node is None:
            raise ConfigError(f"unknown node id: {node_id}")
        if not node.is_dedicated:
            raise ConfigError(f"node {node_id} is not dedicated")
        if node.draining:
            raise ConfigError(f"node {node_id} is already draining")
        if len(self.nodes) - len(self._draining) <= 1:
            raise ConfigError("cannot decommission the last cluster node")
        node.draining = True
        self.dedicated.remove(node)
        self._draining[node_id] = node
        for listener in self._drain_listeners:
            listener(node)
        return node

    def finish_decommission(self, node_id: int) -> Node:
        """Complete a drain: remove the node and notify observers.

        Observers run in registration order — in a wired system the
        NameNode (drops replicas, queues re-replication) before the
        network (aborts in-flight transfers, so e.g. a reducer
        mid-fetch fails over through the normal fetch-failure path).
        """
        node = self._draining.pop(node_id, None)
        if node is None:
            raise ConfigError(f"node {node_id} is not draining")
        self.nodes.remove(node)
        del self._by_id[node_id]
        self._retired_ids.append(node_id)
        self._retired_ids.sort()
        for listener in self._decommission_listeners:
            listener(node)
        return node


def connect_network(cluster: Cluster, network) -> None:
    """Wire node availability into a transfer model: suspending a node
    aborts its in-flight transfers (the VM-pause semantics of III).

    Provisioned nodes register their ports here, *before* any other
    observer can direct I/O at them.  The decommission side is wired
    separately (see :class:`~repro.core.MoonSystem`): the network must
    abort transfers only after the NameNode has dropped the node's
    replicas, i.e. it must be the *last* decommission listener.
    """
    # Partials of module-level adapters, not lambdas: these listeners
    # live on the cluster for the whole run and must survive
    # snapshot/resume pickling.
    cluster.on_suspend(partial(_net_suspend, network))
    cluster.on_resume(partial(_net_resume, network))
    cluster.on_provision(partial(_net_provision, network))


def _net_suspend(network, node) -> None:
    network.node_down(node.node_id)


def _net_resume(network, node) -> None:
    network.node_up(node.node_id)


def _net_provision(network, node) -> None:
    network.register_node(
        node.node_id, node.spec.disk_mbps, node.spec.nic_mbps
    )


def build_cluster(
    sim: Simulation,
    cluster_cfg: ClusterConfig,
    trace_cfg: Optional[TraceConfig],
    dedicated_traces: Optional[Sequence[AvailabilityTrace]] = None,
) -> Cluster:
    """Construct nodes with per-node synthetic traces.

    Volatile nodes follow ``trace_cfg``; dedicated nodes are always
    available unless explicit ``dedicated_traces`` are supplied (the
    paper assumes dedicated unavailability < 0.4^3 ~ 0.06, effectively 0
    at experiment scale).
    """
    cluster_cfg.validate()
    nodes: List[Node] = []
    nid = 0
    for i in range(cluster_cfg.n_dedicated):
        trace = None
        if dedicated_traces is not None and i < len(dedicated_traces):
            trace = dedicated_traces[i]
        nodes.append(Node(nid, NodeKind.DEDICATED, cluster_cfg.dedicated, trace))
        nid += 1
    for i in range(cluster_cfg.n_volatile):
        trace = None
        if trace_cfg is not None and trace_cfg.unavailability_rate > 0:
            trace = generate_trace(trace_cfg, sim.rng_indexed("trace", i))
        nodes.append(Node(nid, NodeKind.VOLATILE, cluster_cfg.volatile, trace))
        nid += 1
    return Cluster(nodes)
