"""Availability monitor: replays each node's trace as suspend/resume
events, exactly like the paper's per-node monitoring process that
suspends and resumes all Hadoop/MOON processes (Section VI)."""

from __future__ import annotations

import heapq
from typing import List, Tuple

from ..simulation import PRIORITY_NODE_STATE, Simulation
from .cluster import Cluster
from .node import Node


class AvailabilityMonitor:
    """Replays every traced node's transitions through a cursor.

    Transition ``k`` of a node is the suspend at ``trace.starts[k // 2]``
    (even ``k``) or the resume at ``trace.ends[k // 2]`` (odd ``k``).
    The monitor keeps a heap of each node's *next* transition keyed by
    ``(time, node rank, k)`` and holds exactly one engine event, for the
    heap's minimum; firing it advances that node's cursor and arms the
    next minimum.  Equal-time transitions therefore fire in (node rank,
    transition index) order, one engine event per transition, and the
    engine heap never holds more than one monitor event whatever the
    trace lengths.

    Transitions carry ``PRIORITY_NODE_STATE`` so at any timestamp the
    cluster state is updated before heartbeats, transfers or scheduler
    work run at that same instant.  No other component uses that
    priority, so arming the next transition from inside the current one
    cannot let another event at the same instant slip between them.
    They are foreground events: a horizonless run lasts until the last
    trace transition.
    """

    def __init__(self, sim: Simulation, cluster: Cluster) -> None:
        self.sim = sim
        self.cluster = cluster
        # Flight recorder: transition counts plus per-node instants.
        self._trace = sim.obs.tracer
        metrics = sim.obs.metrics
        self._m_suspends = metrics.counter("cluster/suspensions")
        self._m_resumes = metrics.counter("cluster/resumes")
        #: Traced nodes in cluster order; the index is the node's rank.
        self._nodes: List[Node] = []
        #: ``(time, rank, k)`` of each traced node's next transition.
        self._heap: List[Tuple[float, int, int]] = []
        for node in cluster.nodes:
            if node.trace is None or not len(node.trace):
                continue
            self._heap.append((node.trace.starts[0], len(self._nodes), 0))
            self._nodes.append(node)
        heapq.heapify(self._heap)
        self._arm()

    def _arm(self) -> None:
        """Schedule the earliest pending transition, if any."""
        if self._heap:
            time, rank, k = self._heap[0]
            self.sim.call_at(
                time,
                self._resume if k & 1 else self._suspend,
                self._nodes[rank],
                priority=PRIORITY_NODE_STATE,
            )

    def _advance(self) -> None:
        """Move the firing node's cursor past its transition and arm the
        next one overall."""
        heap = self._heap
        _, rank, k = heap[0]
        trace = self._nodes[rank].trace
        k += 1
        i = k >> 1
        if k & 1:
            heapq.heapreplace(heap, (trace.ends[i], rank, k))
        elif i < len(trace):
            heapq.heapreplace(heap, (trace.starts[i], rank, k))
        else:
            heapq.heappop(heap)
        self._arm()

    def _suspend(self, node: Node) -> None:
        self._advance()
        if node.available:
            self._m_suspends.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "node.suspend", "node", self.sim.now, node=node.node_id
                )
            self.cluster._notify_suspend(node)

    def _resume(self, node: Node) -> None:
        self._advance()
        if not node.available:
            self._m_resumes.inc()
            if self._trace.enabled:
                self._trace.instant(
                    "node.resume", "node", self.sim.now, node=node.node_id
                )
            self.cluster._notify_resume(node)
