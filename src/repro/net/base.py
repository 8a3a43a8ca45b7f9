"""Transfer-model interface shared by the FIFO and fair-share networks.

Both models expose the same operations to the DFS and MapReduce layers:

* ``transfer(src, dst, mb, ...)`` — a network copy between two nodes
  (also charged to both nodes' disks implicitly via channel choice),
* ``disk_io(node, mb, ...)`` — a purely local read or write,
* ``node_down`` / ``node_up`` — availability transitions that abort
  in-flight work touching the node (the VM-pause semantics of III).

Completion and failure are delivered via callbacks on the simulated
clock, never synchronously, so callers can issue I/O from within other
callbacks without reentrancy surprises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional

from ..errors import NetworkError
from ..simulation import Simulation

#: Channels a node offers. NIC_IN/NIC_OUT model full-duplex Ethernet.
DISK = "disk"
NIC_IN = "nic_in"
NIC_OUT = "nic_out"

OnComplete = Callable[["Transfer"], None]
OnFail = Callable[["Transfer"], None]


class Transfer:
    """Handle for one in-flight copy."""

    __slots__ = (
        "src",
        "dst",
        "size_mb",
        "kind",
        "submitted_at",
        "finished_at",
        "state",
        "on_complete",
        "on_fail",
        "_event",
    )

    PENDING = "pending"
    DONE = "done"
    FAILED = "failed"

    def __init__(
        self,
        src: Optional[int],
        dst: Optional[int],
        size_mb: float,
        kind: str,
        now: float,
        on_complete: Optional[OnComplete],
        on_fail: Optional[OnFail],
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_mb = size_mb
        self.kind = kind
        self.submitted_at = now
        self.finished_at: Optional[float] = None
        self.state = Transfer.PENDING
        self.on_complete = on_complete
        self.on_fail = on_fail
        self._event = None

    @property
    def duration(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def involves(self, node_id: int) -> bool:
        return node_id in (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Transfer {self.kind} {self.src}->{self.dst} "
            f"{self.size_mb:.2f}MB {self.state}>"
        )


class NodePorts:
    """Per-node capacities in MB/s."""

    __slots__ = ("disk_mbps", "nic_mbps", "up")

    def __init__(self, disk_mbps: float, nic_mbps: float) -> None:
        if disk_mbps <= 0 or nic_mbps <= 0:
            raise NetworkError("capacities must be positive")
        self.disk_mbps = disk_mbps
        self.nic_mbps = nic_mbps
        self.up = True


class NetworkModel(ABC):
    """Common bookkeeping: node registry, byte counters, callbacks."""

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self._ports: Dict[int, NodePorts] = {}
        #: Ids of decommissioned nodes.  Callers racing a decommission
        #: (a write pipeline that picked its targets before the node
        #: left) probe these via :meth:`is_up`; a never-registered id
        #: is still a programming error.
        self._retired: set = set()
        #: Cumulative MB served per node (reads+writes+net), used by the
        #: throttling monitor to estimate consumed I/O bandwidth.
        self.mb_served: Dict[int, float] = {}

    # -- registry -------------------------------------------------------
    def register_node(self, node_id: int, disk_mbps: float, nic_mbps: float) -> None:
        if node_id in self._ports:
            raise NetworkError(f"node {node_id} already registered")
        self._ports[node_id] = NodePorts(disk_mbps, nic_mbps)
        self.mb_served[node_id] = 0.0
        self._retired.discard(node_id)

    def unregister_node(self, node_id: int) -> None:
        """Remove a decommissioned node: abort whatever still touches it
        and free its id for reuse by a later provision."""
        if node_id not in self._ports:
            raise NetworkError(f"unknown node {node_id}")
        self._abort_transfers(node_id)
        del self._ports[node_id]
        self.mb_served.pop(node_id, None)
        self._retired.add(node_id)

    def ports(self, node_id: int) -> NodePorts:
        try:
            return self._ports[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    def is_up(self, node_id: int) -> bool:
        # A decommissioned node has no ports at all: callers racing the
        # decommission (e.g. a DFS write pipeline that picked its
        # targets before the node left) must see it as down and take
        # their clean failure path, not crash on the lookup.  An id
        # that was never registered still raises: that is a caller bug,
        # not a race.
        if node_id in self._retired:
            return False
        port = self._ports.get(node_id)
        if port is None:
            raise NetworkError(f"unknown node {node_id}")
        return port.up

    # -- availability ----------------------------------------------------
    def node_down(self, node_id: int) -> None:
        self.ports(node_id).up = False
        self._abort_transfers(node_id)

    def node_up(self, node_id: int) -> None:
        self.ports(node_id).up = True

    # -- operations -------------------------------------------------------
    @abstractmethod
    def transfer(
        self,
        src: int,
        dst: int,
        size_mb: float,
        on_complete: Optional[OnComplete] = None,
        on_fail: Optional[OnFail] = None,
        kind: str = "net",
    ) -> Transfer:
        """Copy ``size_mb`` from ``src`` to ``dst``."""

    @abstractmethod
    def disk_io(
        self,
        node_id: int,
        size_mb: float,
        on_complete: Optional[OnComplete] = None,
        on_fail: Optional[OnFail] = None,
        kind: str = "disk",
    ) -> Transfer:
        """Local disk read or write of ``size_mb`` on ``node_id``."""

    @abstractmethod
    def _abort_transfers(self, node_id: int) -> None:
        """Fail all in-flight transfers involving ``node_id``."""

    @abstractmethod
    def active_transfers(self) -> int:
        """Number of in-flight transfers (tests/diagnostics)."""

    # -- shared helpers ---------------------------------------------------
    def _finish(self, t: Transfer) -> None:
        if t.state != Transfer.PENDING:
            return
        t.state = Transfer.DONE
        t.finished_at = self.sim.now
        for node in (t.src, t.dst):
            if node is not None:
                self.mb_served[node] = self.mb_served.get(node, 0.0) + t.size_mb
        if t.on_complete is not None:
            t.on_complete(t)

    def _fail(self, t: Transfer) -> None:
        if t.state != Transfer.PENDING:
            return
        t.state = Transfer.FAILED
        t.finished_at = self.sim.now
        if t._event is not None:
            t._event.cancel()
            t._event = None
        if t.on_fail is not None:
            t.on_fail(t)
