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
* every id stream lives on the object that issues the ids — job and
  attempt ids on the JobTracker, block ids on the NameNode — so the
  counters pickle with their owners and ids allocated after a resume
  continue where the snapshot left off.  Nothing outside the root is
  captured or patched, so restoring a snapshot cannot disturb any other
  world in the process, and a resumed world may run alongside fresh
  ones;
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
"""

from __future__ import annotations

import io
import pickle
from typing import Any, BinaryIO, Union

from ..errors import SnapshotError

#: Bump on any incompatible change to the payload layout.  Version 1
#: also carried process-global id counters beside the root.
SNAPSHOT_VERSION = 2

_MAGIC = b"REPROSNAP\n"


def snapshot_bytes(root: Any) -> bytes:
    """Serialize ``root`` to bytes."""
    payload = {"version": SNAPSHOT_VERSION, "root": root}
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
    """Inverse of :func:`snapshot_bytes`: return the root."""
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
    if "root" not in payload:
        raise SnapshotError("corrupt snapshot: envelope has no root")
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
