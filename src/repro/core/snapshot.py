"""Snapshot/resume checkpoints: pickle a mid-run world to disk.

A week-long serving stream should not have to be re-simulated from
``t=0`` to inspect hour 150: :func:`save_snapshot` captures a *root*
object — typically a :class:`~repro.service.MoonService` mid-
:meth:`~repro.service.MoonService.advance`, or the
:class:`~repro.core.MoonSystem` beneath it — and
:func:`load_snapshot` restores it in a fresh process so the run
continues from the captured instant.

What makes this exact rather than approximate:

* the pickled object graph reaches the :class:`~repro.simulation.
  Simulation` and with it the pending event queue, the named RNG
  registry (every ``Generator``'s bit-stream position) and the
  monotonic event sequence counter, so ``advance(t1); save; load;
  advance(t2)`` replays the *same events with the same draws* as a
  straight ``advance(t2)``;
* the only state the graph cannot reach — process-global id counters
  kept as class attributes (``Transfer._ids``, ``Job._ids``, ...) —
  is captured alongside the root and reassigned on load, so ids
  allocated after a resume continue where the snapshot left off
  instead of colliding with pre-snapshot ones;
* every long-lived callback in the tree (engine events, transfer
  completions, cluster lifecycle listeners, queue estimators) is a
  bound method or a :func:`functools.partial` of one — never a local
  closure — precisely so this module can exist.  A stray lambda shows
  up here as a loud :class:`~repro.errors.SnapshotError`, not a
  corrupted checkpoint.

The composition with the PR 8 NameNode journal is deliberate: the
journal makes *metadata* durable against NameNode crashes inside a
run; a snapshot makes the *whole world* durable against process exits
between runs.  A snapshot taken with journalling on simply carries the
in-memory journal records with it.

Restoring counters is process-global (they are class attributes), so
interleaving a resumed run with unrelated fresh systems in the same
process is not supported — the CLI resume path is one world per
process, which is also the sweep runner's execution model.
"""

from __future__ import annotations

import io
import itertools
import pickle
from typing import Any, BinaryIO, Dict, Union

from ..errors import SnapshotError

#: Bump on any incompatible change to the payload layout.
SNAPSHOT_VERSION = 1

_MAGIC = b"REPROSNAP\n"


def _counter_classes() -> Dict[str, type]:
    """The class-attribute id counters a pickled instance graph misses.

    Imported lazily: this module sits in ``core`` and must not create
    import cycles with the layers it snapshots.
    """
    from ..dfs.client import WriteOp
    from ..dfs.types import BlockInfo
    from ..mapreduce.job import Job
    from ..mapreduce.task import TaskAttempt
    from ..net.base import Transfer

    return {
        "net.Transfer": Transfer,
        "mapreduce.TaskAttempt": TaskAttempt,
        "mapreduce.Job": Job,
        "dfs.WriteOp": WriteOp,
        "dfs.BlockInfo": BlockInfo,
    }


def snapshot_bytes(root: Any) -> bytes:
    """Serialize ``root`` plus the global id counters to bytes."""
    payload = {
        "version": SNAPSHOT_VERSION,
        "root": root,
        # itertools.count pickles with its current value, so the
        # counters restore mid-sequence for free.
        "counters": {
            name: cls._ids for name, cls in _counter_classes().items()
        },
    }
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SnapshotError(
            f"unpicklable state in the snapshot graph: {exc!r} — every "
            "long-lived callback must be a bound method or a partial of "
            "one, never a local closure"
        ) from exc
    return _MAGIC + body


def restore_bytes(data: bytes) -> Any:
    """Inverse of :func:`snapshot_bytes`: reinstate counters, return root."""
    if not data.startswith(_MAGIC):
        raise SnapshotError("not a repro snapshot (bad magic)")
    try:
        payload = pickle.loads(data[len(_MAGIC):])
    except Exception as exc:
        raise SnapshotError(f"corrupt snapshot: {exc!r}") from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise SnapshotError("corrupt snapshot: missing payload envelope")
    version = payload["version"]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    # Validate the whole envelope before touching any process-global
    # counter: a rejected snapshot must leave this process as it was.
    if "root" not in payload:
        raise SnapshotError("corrupt snapshot: envelope has no root")
    counters = payload.get("counters")
    if not isinstance(counters, dict):
        raise SnapshotError(
            "corrupt snapshot: envelope counters missing or not a mapping"
        )
    classes = _counter_classes()
    for name, counter in counters.items():
        if name not in classes:
            raise SnapshotError(f"snapshot carries unknown counter {name!r}")
        if not isinstance(counter, itertools.count):
            raise SnapshotError(
                f"corrupt snapshot: counter {name!r} is not an id counter"
            )
    for name, counter in counters.items():
        classes[name]._ids = counter
    return payload["root"]


def save_snapshot(root: Any, dest: Union[str, BinaryIO]) -> None:
    """Write a snapshot of ``root`` to a path or binary file object."""
    data = snapshot_bytes(root)
    if isinstance(dest, (str, bytes)):
        with open(dest, "wb") as fh:
            fh.write(data)
    else:
        dest.write(data)


def load_snapshot(src: Union[str, BinaryIO]) -> Any:
    """Read a snapshot from a path or binary file object."""
    if isinstance(src, (str, bytes)):
        with open(src, "rb") as fh:
            data = fh.read()
    else:
        data = src.read()
    return restore_bytes(data)


def roundtrip(root: Any) -> Any:
    """snapshot + restore through memory — the property-test helper
    (a resumed world must behave exactly like the original)."""
    buf = io.BytesIO()
    save_snapshot(root, buf)
    buf.seek(0)
    return load_snapshot(buf)
