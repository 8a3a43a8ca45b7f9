"""DFS client: write pipelines and replica-aware reads.

Write path (HDFS-style): blocks are written sequentially; each block
streams through a pipeline of targets chosen by the placement policy
(Figure 3).  The write completes when every planned target has been
attempted and at least one replica of every block exists; shortfalls
are handed to the NameNode's replication queue.  A map task's measured
time therefore grows with the replication degree, which is exactly the
effect behind Table II's map-time column.

Read path: candidates come from the NameNode volatile-first (IV-B).
An attempt against a node that is down but not yet judged dead costs
``client_read_timeout`` seconds before the next candidate is tried —
the timeout penalty hibernation exists to avoid (IV-C).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, List, Optional

from ..errors import BlockUnavailable, DfsError, WriteDeclined
from .namenode import NameNode
from .types import BlockInfo, FileInfo, FileKind, ReplicationFactor

OnDone = Callable[[], None]
OnError = Callable[[Exception], None]


class WriteOp:
    """State machine driving one file write through its blocks."""

    _ids = itertools.count()

    def __init__(
        self,
        client: "DfsClient",
        file: FileInfo,
        client_node: Optional[int],
        on_complete: OnDone,
        on_fail: OnError,
    ) -> None:
        self.id = next(WriteOp._ids)
        self.client = client
        self.file = file
        self.client_node = client_node
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.block_index = 0
        self.cancelled = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._next_block()

    def cancel(self) -> None:
        """Abandon the write (task killed); replicas already registered
        stay in the namespace until the file is deleted."""
        self.cancelled = True

    # ------------------------------------------------------------------
    def _next_block(self) -> None:
        if self.cancelled:
            return
        if self.block_index >= len(self.file.blocks):
            self.on_complete()
            return
        block = self.file.blocks[self.block_index]
        self.block_index += 1
        plan = self.client.namenode.placement.plan_write(
            self.file, block, self.client_node
        )
        if plan.adjusted_volatile is not None:
            self.client.namenode.set_adjusted_volatile(
                self.file, plan.adjusted_volatile
            )
        if not plan.targets:
            self.on_fail(
                WriteDeclined(
                    f"no targets for block {block.block_id} of {self.file.path}"
                )
            )
            return
        self._pipeline(block, plan.targets, plan.dedicated_declined, 0, None)

    def _pipeline(
        self,
        block: BlockInfo,
        targets: List[int],
        declined: bool,
        idx: int,
        last_good: Optional[int],
    ) -> None:
        if self.cancelled:
            return
        nn = self.client.namenode
        if idx >= len(targets):
            if not block.replicas:
                self.on_fail(
                    WriteDeclined(f"pipeline wrote no replica of {self.file.path}")
                )
                return
            nn.note_write_shortfall(block, declined)
            self._next_block()
            return

        target = targets[idx]
        source = last_good if last_good is not None else self.client_node

        # Picklable continuations (snapshot/resume): partials of bound
        # methods, never local closures.
        ok = partial(self._stage_ok, block, targets, declined, idx, target)
        bad = partial(self._stage_bad, block, targets, declined, idx, last_good)

        if source is None or source == target:
            nn.network.disk_io(
                target, block.size_mb, on_complete=ok, on_fail=bad, kind="dfs_write"
            )
        else:
            nn.network.transfer(
                source, target, block.size_mb, on_complete=ok, on_fail=bad,
                kind="dfs_write",
            )

    def _stage_ok(
        self,
        block: BlockInfo,
        targets: List[int],
        declined: bool,
        idx: int,
        target: int,
        _t,
    ) -> None:
        self.client.namenode.register_replica(block, target)
        self._pipeline(block, targets, declined, idx + 1, target)

    def _stage_bad(
        self,
        block: BlockInfo,
        targets: List[int],
        declined: bool,
        idx: int,
        last_good: Optional[int],
        _t,
    ) -> None:
        self.client.namenode.counters["write_pipeline_failures"] += 1
        self._pipeline(block, targets, declined, idx + 1, last_good)


class ReadOp:
    """State machine driving one block read with failover + timeouts."""

    def __init__(
        self,
        client: "DfsClient",
        block: BlockInfo,
        reader_node: int,
        size_mb: float,
        on_complete: OnDone,
        on_fail: OnError,
    ) -> None:
        self.client = client
        self.block = block
        self.reader_node = reader_node
        self.size_mb = size_mb
        self.on_complete = on_complete
        self.on_fail = on_fail
        self.cancelled = False
        self._tried: set = set()

    def start(self) -> None:
        self._try_next()

    def cancel(self) -> None:
        self.cancelled = True

    def _try_next(self) -> None:
        if self.cancelled:
            return
        nn = self.client.namenode
        candidates = [
            n
            for n in nn.read_targets(self.block, self.reader_node)
            if n not in self._tried
        ]
        if not candidates:
            nn.counters["read_failures"] += 1
            self.on_fail(
                BlockUnavailable(
                    f"no live replica of block {self.block.block_id} "
                    f"({self.block.file.path})"
                )
            )
            return
        source = candidates[0]
        self._tried.add(source)
        ok = self._read_ok
        bad = self._read_bad

        if source == self.reader_node:
            nn.network.disk_io(
                self.reader_node, self.size_mb, on_complete=ok, on_fail=bad,
                kind="dfs_read",
            )
        else:
            nn.network.transfer(
                source, self.reader_node, self.size_mb, on_complete=ok,
                on_fail=bad, kind="dfs_read",
            )

    def _read_ok(self, _t) -> None:
        if not self.cancelled:
            self.on_complete()

    def _read_bad(self, _t) -> None:
        if self.cancelled:
            return
        # Undetected outage: the client burns a timeout first (IV-C).
        nn = self.client.namenode
        nn.counters["read_timeouts"] += 1
        nn.sim.call_after(nn.config.client_read_timeout, self._try_next)


class DfsClient:
    """Thin facade over the NameNode used by tasks and the job driver."""

    def __init__(self, namenode: NameNode) -> None:
        self.namenode = namenode

    # ------------------------------------------------------------------
    def write_file(
        self,
        path: str,
        size_mb: float,
        kind: FileKind,
        rf: ReplicationFactor,
        client_node: Optional[int],
        on_complete: OnDone,
        on_fail: OnError,
        block_size_mb: Optional[float] = None,
    ) -> WriteOp:
        file = self.namenode.create_file(path, kind, rf, size_mb, block_size_mb)
        op = WriteOp(self, file, client_node, on_complete, on_fail)
        op.start()
        return op

    def read_block(
        self,
        block: BlockInfo,
        reader_node: int,
        on_complete: OnDone,
        on_fail: OnError,
        size_mb: Optional[float] = None,
    ) -> ReadOp:
        """Read a block (or ``size_mb`` of it, for shuffle partitions)."""
        if size_mb is not None and size_mb < 0:
            raise DfsError("negative read size")
        op = ReadOp(
            self,
            block,
            reader_node,
            block.size_mb if size_mb is None else size_mb,
            on_complete,
            on_fail,
        )
        op.start()
        return op

    # ------------------------------------------------------------------
    def stage_input(
        self,
        path: str,
        size_mb: float,
        rf: ReplicationFactor,
        block_size_mb: Optional[float] = None,
    ) -> FileInfo:
        """Materialise an input file directly (no simulated transfer):
        the paper stages inputs before the measured window starts.
        Replicas are spread per the normal placement policy."""
        nn = self.namenode
        file = nn.create_file(path, FileKind.RELIABLE, rf, size_mb, block_size_mb)
        for block in file.blocks:
            plan = nn.placement.plan_write(file, block, None)
            for target in plan.targets:
                nn.register_replica(block, target)
            nn.note_write_shortfall(block, plan.dedicated_declined)
        return file
