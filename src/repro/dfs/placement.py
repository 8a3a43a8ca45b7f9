"""Write-placement decision process (paper Figure 3 + Section IV-A/B).

Rules implemented:

* **Reliable file** — dedicated replicas are always satisfied on
  dedicated DataNodes (even when they are saturated: reliable writes
  take priority over opportunistic ones at full load).
* **Opportunistic file** — a dedicated replica is *declined* when every
  dedicated DataNode is near saturation (Algorithm 1 state); the
  volatile degree is then adjusted to ``v'`` so that availability under
  the currently estimated node unavailability ``p`` exceeds the
  user-defined goal: ``1 - p^v' > A``.
* First volatile replica goes to the writing client's own node when
  possible (Hadoop's local-first write), remaining volatile targets are
  drawn uniformly from alive volatile DataNodes with room.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

import numpy as np

from ..errors import DfsError
from .availability import required_volatile_replicas
from .types import BlockInfo, DataNodeInfo, FileInfo, FileKind


def _load_key(info: DataNodeInfo) -> tuple:
    return (info.used_mb, info.node_id)


@dataclass
class WritePlan:
    """Ordered pipeline targets for one block write."""

    targets: List[int] = field(default_factory=list)
    dedicated_declined: bool = False
    adjusted_volatile: Optional[int] = None


class PlacementPolicy:
    """Chooses replica targets.  The NameNode supplies cluster views via
    the ``namenode`` protocol (alive nodes, throttle state, p estimate)."""

    def __init__(self, namenode) -> None:
        self.namenode = namenode

    # ------------------------------------------------------------------
    def plan_write(
        self,
        file: FileInfo,
        block: BlockInfo,
        client_node: Optional[int],
        exclude: Sequence[int] = (),
    ) -> WritePlan:
        nn = self.namenode
        plan = WritePlan()
        excluded: Set[int] = set(exclude) | block.replicas

        want_d = file.rf.dedicated
        dedicated_targets: List[int] = []
        if want_d > 0:
            if file.kind is FileKind.RELIABLE:
                # Always satisfied on dedicated DataNodes.
                dedicated_targets = self._pick_dedicated(
                    want_d, excluded, require_unthrottled=False, size=block.size_mb
                )
            else:
                if nn.throttle.all_throttled():
                    plan.dedicated_declined = True
                    nn.counters["writes_declined_dedicated"] += 1
                else:
                    dedicated_targets = self._pick_dedicated(
                        want_d, excluded, require_unthrottled=True, size=block.size_mb
                    )
                    if not dedicated_targets:
                        plan.dedicated_declined = True
                        nn.counters["writes_declined_dedicated"] += 1

        want_v = file.volatile_target()
        if plan.dedicated_declined:
            # Adaptive rule: raise v so 1 - p^v' exceeds the goal.
            v_prime = required_volatile_replicas(
                nn.config.availability_goal,
                nn.estimated_p(),
                nn.config.max_volatile_replicas,
            )
            plan.adjusted_volatile = v_prime
            want_v = max(want_v, v_prime)

        volatile_targets = self._pick_volatile(
            want_v, excluded | set(dedicated_targets), client_node, block.size_mb
        )

        # Pipeline order: local copy first (cheap), then dedicated (gets
        # the availability anchor early), then the other volatile nodes.
        ordered: List[int] = []
        if client_node is not None and client_node in volatile_targets:
            ordered.append(client_node)
            volatile_targets.remove(client_node)
        ordered.extend(dedicated_targets)
        ordered.extend(volatile_targets)
        plan.targets = ordered
        return plan

    # ------------------------------------------------------------------
    def plan_rereplication(self, block: BlockInfo) -> Optional[tuple]:
        """``(source, target)`` for one missing replica, or ``None`` when
        nothing can or needs to be done right now.  Dedicated deficits
        are filled before volatile ones."""
        nn = self.namenode
        file = block.file
        live = [n for n in block.replicas if nn.node_is_servable(n)]
        if not live:
            return None  # nothing to copy from; stays in the queue

        # Prefer volatile sources to spare dedicated bandwidth (IV-B).
        volatile_sources = [n for n in live if not nn.is_dedicated(n)]
        source = volatile_sources[0] if volatile_sources else live[0]

        want_d = file.rf.dedicated
        if (
            file.kind is FileKind.RELIABLE
            and len(nn.live_dedicated_replicas(block)) < want_d
        ):
            targets = self._pick_dedicated(
                1, block.replicas, require_unthrottled=False, size=block.size_mb
            )
            if targets:
                return (source, targets[0])
            return None  # wait for a dedicated node; do not substitute

        if nn.effective_volatile_count(block) < file.volatile_target():
            targets = self._pick_volatile(1, block.replicas, None, block.size_mb)
            if targets:
                return (source, targets[0])
        return None

    # ------------------------------------------------------------------
    def _pick_dedicated(
        self,
        count: int,
        excluded: Set[int],
        require_unthrottled: bool,
        size: float,
    ) -> List[int]:
        # Runs on every output write: lookups are bound once, not per
        # dedicated node.
        nn = self.namenode
        info_of = nn.info
        servable = nn.node_is_servable
        throttled = nn.throttle.is_throttled if require_unthrottled else None
        candidates: List[DataNodeInfo] = []
        for node in nn.cluster.dedicated:
            node_id = node.node_id
            if node_id in excluded or not servable(node_id):
                continue
            if throttled is not None and throttled(node_id):
                continue
            info = info_of(node_id)
            if info.has_room(size):
                candidates.append(info)
        # Least-loaded first, node-id tiebreak.  nsmallest(k) returns
        # exactly sorted(...)[:k] for any key (the tiebreak makes the
        # order total), at O(n log k) instead of O(n log n) — writes
        # typically want one dedicated replica from a sizeable tier.
        picked = heapq.nsmallest(count, candidates, key=_load_key)
        return [c.node_id for c in picked]

    def _pick_volatile(
        self,
        count: int,
        excluded: Set[int],
        client_node: Optional[int],
        size: float,
    ) -> List[int]:
        nn = self.namenode
        if count <= 0:
            return []
        chosen: List[int] = []
        if (
            client_node is not None
            and client_node not in excluded
            and not nn.is_dedicated(client_node)
            and nn.node_is_servable(client_node)
            and nn.info(client_node).has_room(size)
        ):
            chosen.append(client_node)
        pool = [
            info.node_id
            for info in nn.volatile_infos()
            if info.node_id not in excluded
            and info.node_id not in chosen
            and nn.node_is_servable(info.node_id)
            and info.has_room(size)
        ]
        need = count - len(chosen)
        if need > 0 and pool:
            rng: np.random.Generator = nn.rng
            take = min(need, len(pool))
            idx = rng.choice(len(pool), size=take, replace=False)
            chosen.extend(pool[i] for i in sorted(idx))
        return chosen


__all__ = ["PlacementPolicy", "WritePlan", "DfsError"]
