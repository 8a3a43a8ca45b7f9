"""Core MOON-DFS data types: replication factors, files, blocks.

Paper Section IV: the replication factor of a file is the pair
``{d, v}`` (dedicated + volatile replicas); files are *reliable*
(never lost: input, system data, committed output) or *opportunistic*
(transient: intermediate data, in-flight output).
"""

from __future__ import annotations

import enum
import sys
from typing import Dict, List, NamedTuple, Optional, Set

from ..errors import DfsError


class ReplicationFactor(NamedTuple):
    """``{d, v}`` — replicas on dedicated / volatile DataNodes."""

    dedicated: int
    volatile: int

    def validate(self) -> None:
        if self.dedicated < 0 or self.volatile < 0:
            raise DfsError("replica counts must be non-negative")
        if self.dedicated + self.volatile == 0:
            raise DfsError("replication factor must request >= 1 replica")

    @property
    def total(self) -> int:
        return self.dedicated + self.volatile

    def __str__(self) -> str:
        return f"{{{self.dedicated},{self.volatile}}}"


class FileKind(enum.Enum):
    """MOON's two file classes (IV-A): RELIABLE vs OPPORTUNISTIC."""
    RELIABLE = "reliable"
    OPPORTUNISTIC = "opportunistic"


class NodeState(enum.Enum):
    """NameNode's judgement of a DataNode (paper IV-C)."""

    ALIVE = "alive"
    HIBERNATED = "hibernated"
    DEAD = "dead"


class BlockInfo:
    """One DFS block plus the NameNode's replica map for it."""

    __slots__ = (
        "block_id",
        "file",
        "index",
        "size_mb",
        "replicas",
        "dedicated_replicas",
    )

    def __init__(
        self, block_id: int, file: "FileInfo", index: int, size_mb: float
    ) -> None:
        if size_mb < 0:
            raise DfsError("negative block size")
        #: Issued by the owning NameNode (unique within its world).
        self.block_id = block_id
        self.file = file
        self.index = index
        self.size_mb = size_mb
        #: node_id -> True for every node holding a replica.
        self.replicas: Set[int] = set()
        #: subset of ``replicas`` on dedicated nodes (kept in sync by
        #: the NameNode, which knows node kinds).
        self.dedicated_replicas: Set[int] = set()

    @property
    def volatile_replicas(self) -> Set[int]:
        return self.replicas - self.dedicated_replicas

    @property
    def label(self) -> str:
        """Stable identity ``path#index``: unlike ``block_id`` (issued
        per world by the NameNode, and new when a fresh standby rebuilds
        the namespace), the label survives failovers and reads the same
        in every run of the namespace; traces and journal records use
        it exclusively."""
        return f"{self.file.path}#{self.index}"

    def has_dedicated_replica(self) -> bool:
        return bool(self.dedicated_replicas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block#{self.block_id} {self.file.path}[{self.index}] "
            f"{self.size_mb:.1f}MB reps={sorted(self.replicas)}>"
        )


class FileInfo:
    """A DFS file: path, kind, replication target and blocks."""

    __slots__ = (
        "path",
        "kind",
        "rf",
        "blocks",
        "committed",
        "adjusted_volatile",
        "created_at",
    )

    def __init__(
        self,
        path: str,
        kind: FileKind,
        rf: ReplicationFactor,
        created_at: float,
    ) -> None:
        rf.validate()
        # Interned: paths recur in every block label, journal record and
        # trace row — million-block namespaces must not store a million
        # copies of "/job3/part-00017".
        self.path = sys.intern(path)
        self.kind = kind
        self.rf = rf
        self.blocks: List[BlockInfo] = []
        self.committed = False
        #: When an opportunistic file's dedicated replica was declined,
        #: the NameNode records the adaptive v' here (paper IV-A).
        self.adjusted_volatile: Optional[int] = None
        self.created_at = created_at

    @property
    def is_reliable(self) -> bool:
        return self.kind is FileKind.RELIABLE

    @property
    def size_mb(self) -> float:
        return sum(b.size_mb for b in self.blocks)

    def volatile_target(self) -> int:
        """Current volatile replica goal (adaptive v' wins if larger)."""
        if self.adjusted_volatile is not None:
            return max(self.rf.volatile, self.adjusted_volatile)
        return self.rf.volatile

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<File {self.path} {self.kind.value} rf={self.rf}>"


class DataNodeInfo:
    """Per-node storage accounting kept by the NameNode.

    ``blocks`` is an insertion-ordered dict of block ids, not a set:
    the NameNode's node-state sweeps iterate it and the order feeds
    the replication queue.  An int set would iterate in an order
    derived from the id values, tying behaviour to them rather than to
    the order the replicas arrived in.
    """

    __slots__ = ("node_id", "is_dedicated", "capacity_mb", "used_mb", "blocks")

    def __init__(self, node_id: int, is_dedicated: bool, capacity_mb: float):
        self.node_id = node_id
        self.is_dedicated = is_dedicated
        self.capacity_mb = capacity_mb
        self.used_mb = 0.0
        self.blocks: Dict[int, None] = {}

    def has_room(self, size_mb: float) -> bool:
        return self.used_mb + size_mb <= self.capacity_mb

    def add_block(self, block: BlockInfo) -> None:
        if block.block_id not in self.blocks:
            self.blocks[block.block_id] = None
            self.used_mb += block.size_mb

    def drop_block(self, block: BlockInfo) -> None:
        if block.block_id in self.blocks:
            del self.blocks[block.block_id]
            self.used_mb = max(0.0, self.used_mb - block.size_mb)
