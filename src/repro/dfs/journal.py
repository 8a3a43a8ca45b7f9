"""Write-ahead journal + checkpoints for the NameNode (durable metadata).

The paper's NameNode is an immortal in-memory singleton; this module
gives it a crash story.  Every namespace / block-map mutation appends a
typed, versioned :class:`JournalRecord` *before* the in-memory mutation
applies.  Namespace records (``create`` / ``delete`` / ``convert`` /
``adjust`` / node membership) are synchronously durable; replica-map
records (``add`` / ``drop`` / ``want``) group-commit every
``fsync_interval`` records, so a crash loses at most the unsynced tail
— exactly the window datanode block reports win back during recovery.

Records identify blocks by the stable ``(path, index)`` pair, never
the numeric ``block_id``.  Block ids are issued per world by the
NameNode, so they are unique within a run and pickle with it, but they
are not stable across failover: a standby that rebuilds the namespace
from a checkpoint issues fresh ids.  The label is the same on every
NameNode that replays the journal (the byte-identical-golden guarantee
rides on it).

:class:`NamespaceImage` is the pure replay state machine: a canonical,
object-graph-free view of the namespace, replica maps and
want-dedicated set.  ``image.apply(record)`` is **idempotent** —
replaying any journal prefix twice leaves the image exactly where
replaying it once does (pinned by the hypothesis property suite in
``tests/test_namenode_recovery.py``).  Checkpoints are images: the
journal snapshots the live namespace, truncates itself, and recovery is
``checkpoint.replay(durable_records)``.

Journal "I/O" is simulated — records live in memory and fsync is an
accounting event, not a syscall.  The determinism boundary: with the
journal disabled (the default for all paper figures) none of this code
schedules events, so pre-journal goldens stay byte-identical; with it
enabled, checkpoints and post-crash block reports are ordinary
deterministic sim events.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import JournalConfig
from ..errors import DfsError

#: Journal format version; bump on any record-shape change.  Checked
#: against the ARCHITECTURE.md record table by ``tools/check_journal.py``.
SCHEMA_VERSION = 1

#: Record-type registry: type -> (synchronously durable?, payload fields).
#: The payload tuple is the exact, ordered field set — encode/decode and
#: the docs validator both enforce it.
RECORD_TYPES: Dict[str, Tuple[bool, Tuple[str, ...]]] = {
    # namespace records (fsync immediately)
    "create": (True, ("path", "kind", "d", "v", "sizes", "created_at")),
    "delete": (True, ("path",)),
    "convert": (True, ("path",)),
    "adjust": (True, ("path", "v")),
    "node_add": (True, ("node", "dedicated", "capacity_mb")),
    "node_drain": (True, ("node",)),
    "node_retire": (True, ("node",)),
    # replica-map records (group commit)
    "add": (False, ("path", "i", "node")),
    "drop": (False, ("path", "i", "node")),
    "want": (False, ("path", "i")),
}


class JournalRecord:
    """One typed journal entry: ``type`` + primitive payload."""

    __slots__ = ("type", "payload")

    def __init__(self, rtype: str, payload: Dict[str, object]) -> None:
        try:
            _, fields = RECORD_TYPES[rtype]
        except KeyError:
            raise DfsError(f"unknown journal record type: {rtype!r}") from None
        if tuple(sorted(payload)) != tuple(sorted(fields)):
            raise DfsError(
                f"journal record {rtype!r} payload {sorted(payload)} != "
                f"schema fields {sorted(fields)}"
            )
        self.type = rtype
        if "path" in payload:
            payload = dict(payload, path=sys.intern(payload["path"]))
        self.payload = payload

    @property
    def synchronous(self) -> bool:
        return RECORD_TYPES[self.type][0]

    def encode(self) -> str:
        """One JSON line, fields in schema order (byte-stable)."""
        fields = RECORD_TYPES[self.type][1]
        body = {"t": self.type}
        for f in fields:
            body[f] = self.payload[f]
        return json.dumps(body, separators=(",", ":"))

    @classmethod
    def decode(cls, line: str) -> "JournalRecord":
        body = json.loads(line)
        rtype = body.pop("t")
        if "sizes" in body:
            body["sizes"] = list(body["sizes"])
        return cls(rtype, body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JournalRecord {self.encode()}>"


class NamespaceImage:
    """Canonical, pure-data view of NameNode metadata (replay target).

    Everything is primitives and insertion-ordered dicts — no
    ``BlockInfo``/``FileInfo`` object graph — so images can be copied,
    diffed and replayed without touching live state.  Record
    application is idempotent (see module docstring).
    """

    __slots__ = ("nodes", "draining", "files", "wants")

    def __init__(self) -> None:
        #: node_id -> (is_dedicated, capacity_mb)
        self.nodes: Dict[int, Tuple[bool, float]] = {}
        #: node ids mid-drain (replicas non-counting)
        self.draining: Dict[int, None] = {}
        #: path -> {kind, d, v, adjusted, created_at, sizes, replicas}
        #: where ``replicas`` is a list of per-block node-id sets.
        self.files: Dict[str, Dict[str, object]] = {}
        #: (path, index) labels of opportunistic blocks awaiting a
        #: dedicated replica.
        self.wants: Dict[Tuple[str, int], None] = {}

    # ------------------------------------------------------------------
    def copy(self) -> "NamespaceImage":
        img = NamespaceImage()
        img.nodes = dict(self.nodes)
        img.draining = dict(self.draining)
        for path, f in self.files.items():
            img.files[path] = {
                "kind": f["kind"],
                "d": f["d"],
                "v": f["v"],
                "adjusted": f["adjusted"],
                "created_at": f["created_at"],
                "sizes": list(f["sizes"]),
                "replicas": [set(r) for r in f["replicas"]],
            }
        img.wants = dict(self.wants)
        return img

    # ------------------------------------------------------------------
    # Record application (idempotent per record)
    # ------------------------------------------------------------------
    def apply(self, rec: JournalRecord) -> None:
        getattr(self, f"_apply_{rec.type}")(**rec.payload)

    def replay(self, records: Iterable[JournalRecord]) -> "NamespaceImage":
        for rec in records:
            self.apply(rec)
        return self

    def _apply_create(self, path, kind, d, v, sizes, created_at) -> None:
        if path in self.files:
            return
        self.files[sys.intern(path)] = {
            "kind": kind,
            "d": d,
            "v": v,
            "adjusted": None,
            "created_at": created_at,
            "sizes": list(sizes),
            "replicas": [set() for _ in sizes],
        }

    def _apply_delete(self, path) -> None:
        self.files.pop(path, None)
        self._apply_delete_wants(path)

    def _apply_convert(self, path) -> None:
        f = self.files.get(path)
        if f is None:
            return
        f["kind"] = "reliable"
        f["adjusted"] = None
        self._apply_delete_wants(path)

    def _apply_adjust(self, path, v) -> None:
        f = self.files.get(path)
        if f is not None:
            f["adjusted"] = v

    def _apply_add(self, path, i, node) -> None:
        reps = self._block_replicas(path, i)
        if reps is None or node not in self.nodes:
            return
        reps.add(node)
        if self.nodes[node][0]:  # dedicated replica satisfies the want
            self.wants.pop((path, i), None)

    def _apply_drop(self, path, i, node) -> None:
        reps = self._block_replicas(path, i)
        if reps is not None:
            reps.discard(node)

    def _apply_want(self, path, i) -> None:
        f = self.files.get(path)
        if f is None or f["kind"] == "reliable":
            return
        reps = self._block_replicas(path, i)
        if reps is None:
            return
        if any(n in self.nodes and self.nodes[n][0] for n in reps):
            return  # already dedicated-anchored: the want is satisfied
        self.wants[(path, i)] = None

    def _apply_node_add(self, node, dedicated, capacity_mb) -> None:
        self.nodes[node] = (dedicated, capacity_mb)

    def _apply_node_drain(self, node) -> None:
        if node in self.nodes:
            self.draining[node] = None

    def _apply_node_retire(self, node) -> None:
        self.nodes.pop(node, None)
        self.draining.pop(node, None)
        for f in self.files.values():
            for reps in f["replicas"]:
                reps.discard(node)

    # ------------------------------------------------------------------
    def _block_replicas(self, path: str, i: int) -> Optional[set]:
        f = self.files.get(path)
        if f is None or i >= len(f["replicas"]):
            return None
        return f["replicas"][i]

    def _apply_delete_wants(self, path: str) -> None:
        for label in [w for w in self.wants if w[0] == path]:
            del self.wants[label]

    # ------------------------------------------------------------------
    def canonical(self) -> Dict[str, object]:
        """Sorted, primitive form for equality checks and goldens."""
        return {
            "schema": SCHEMA_VERSION,
            "nodes": {
                str(nid): [self.nodes[nid][0], self.nodes[nid][1]]
                for nid in sorted(self.nodes)
            },
            "draining": sorted(self.draining),
            "files": {
                path: {
                    "kind": f["kind"],
                    "rf": [f["d"], f["v"]],
                    "adjusted": f["adjusted"],
                    "created_at": f["created_at"],
                    "sizes": list(f["sizes"]),
                    "replicas": [sorted(r) for r in f["replicas"]],
                }
                for path, f in sorted(self.files.items())
            },
            "wants": sorted(f"{p}#{i}" for p, i in self.wants),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NamespaceImage):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NamespaceImage files={len(self.files)} "
            f"nodes={len(self.nodes)} wants={len(self.wants)}>"
        )


class Journal:
    """The write-ahead log: an ordered record list with a durable
    prefix (``synced``) plus the last checkpoint image.

    ``append`` returns True when the record forced an fsync (so the
    NameNode can count group commits); ``drop_unsynced`` is the crash —
    it throws away the volatile tail and reports how many records died
    with the master.
    """

    def __init__(self, config: JournalConfig) -> None:
        config.validate()
        self.config = config
        self.checkpoint_image = NamespaceImage()
        self.records: List[JournalRecord] = []
        #: Number of leading records that reached stable storage.
        self.synced = 0
        self.appended_total = 0
        self.fsyncs = 0
        self.checkpoints = 0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    def append(self, rtype: str, payload: Dict[str, object], *, sync: Optional[bool] = None) -> bool:
        rec = JournalRecord(rtype, payload)
        self.records.append(rec)
        self.appended_total += 1
        force = rec.synchronous if sync is None else sync
        if force or len(self.records) - self.synced >= self.config.fsync_interval:
            self.fsync()
            return True
        return False

    def fsync(self) -> None:
        if self.synced != len(self.records):
            self.synced = len(self.records)
            self.fsyncs += 1

    def durable_records(self) -> List[JournalRecord]:
        return self.records[: self.synced]

    def unsynced_count(self) -> int:
        return len(self.records) - self.synced

    def drop_unsynced(self) -> int:
        """Crash: the volatile tail never reached stable storage."""
        lost = len(self.records) - self.synced
        del self.records[self.synced :]
        return lost

    # ------------------------------------------------------------------
    def checkpoint(self, image: NamespaceImage) -> int:
        """Install ``image`` as the recovery base and truncate the log.

        A checkpoint is itself a durability barrier (the snapshot
        captures every applied mutation, fsynced or not).  Returns the
        number of records truncated.
        """
        truncated = len(self.records)
        self.checkpoint_image = image.copy()
        self.records.clear()
        self.synced = 0
        self.checkpoints += 1
        return truncated

    def recovered_image(self) -> NamespaceImage:
        """What a failover NameNode can reconstruct: the checkpoint
        plus every *durable* record replayed on top."""
        return self.checkpoint_image.copy().replay(self.durable_records())


__all__ = [
    "SCHEMA_VERSION",
    "RECORD_TYPES",
    "JournalRecord",
    "NamespaceImage",
    "Journal",
]
