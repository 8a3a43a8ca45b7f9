"""Event and event-queue primitives for the discrete-event engine.

Events are ordered by ``(time, priority, seq)``: lower priority runs
first at equal times, and the monotonically increasing sequence number
makes execution order fully deterministic.

Events come in two flavours, mirroring thread semantics:

* **foreground** (default) — real work: compute steps, transfers,
  trace-driven suspend/resume.  These keep a drain-style
  :meth:`~repro.simulation.engine.Simulation.run` alive.
* **daemon** — infrastructure that re-arms itself forever (heartbeats,
  replication scans, throttle sampling).  A simulation whose queue
  holds only daemon events is *idle* and a horizonless ``run()``
  terminates.

Performance notes (this is the innermost loop of every experiment):

* heap entries are ``(time, priority, seq, event)`` tuples, so sift
  comparisons stay in C (tuple-vs-tuple on floats/ints) and never call
  back into Python — ``seq`` is unique, so the :class:`Event` payload
  itself is never compared;
* cancellation is *lazy*: a cancelled event stays in the heap (marked
  dead) and is skipped on pop, with a compaction pass once dead
  entries outnumber live ones, so cancel is O(1) and the heap cannot
  grow without bound under heavy cancel traffic (retry storms,
  speculative-copy kills);
* the engine pops one event at a time (``peek_time`` then ``pop``):
  popping a whole same-instant ``(time, priority)`` batch per heap
  pass measured no faster end to end
  (docs/ARCHITECTURE.md#engine-scale-out).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

from ..errors import SimulationError

#: Compaction is skipped below this many dead entries — rebuilding a
#: tiny heap costs more than skipping a few stale pops.
COMPACT_MIN_DEAD = 256


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel`."""

    __slots__ = (
        "time", "priority", "seq", "fn", "args", "cancelled", "daemon",
        "_queue", "_in_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        queue: "EventQueue",
        daemon: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.daemon = daemon
        self._queue = queue
        self._in_queue = True

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped.

        Cancelling an event that already fired (or was cancelled) is a
        harmless no-op.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._in_queue:
                self._queue._note_cancelled(self)

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "active"
        kind = "daemon " if self.daemon else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} p={self.priority} {kind}{name} {state}>"


class EventQueue:
    """A binary-heap event queue with lazy deletion of cancelled events.

    Tracks live totals separately for foreground and daemon events so
    the engine can detect the *idle* state (only daemons pending).
    """

    def __init__(self) -> None:
        #: Heap of ``(time, priority, seq, Event)`` — see module notes.
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self._live_foreground = 0
        #: Cancelled entries still sitting in the heap.
        self._dead = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def foreground(self) -> int:
        """Number of live non-daemon events."""
        return self._live_foreground

    def _note_removed(self, event: Event) -> None:
        self._live -= 1
        if not event.daemon:
            self._live_foreground -= 1
        event._in_queue = False

    def _note_cancelled(self, event: Event) -> None:
        self._note_removed(event)
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and re-heapify (amortised O(1) per cancel)."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._dead = 0

    def push(
        self,
        time: float,
        priority: int,
        fn: Callable,
        args: tuple,
        daemon: bool = False,
    ) -> Event:
        seq = next(self._counter)
        event = Event(time, priority, seq, fn, args, self, daemon)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        if not daemon:
            self._live_foreground += 1
        return event

    def pop(self) -> Event:
        """Pop the earliest non-cancelled event."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._dead -= 1
                continue
            self._note_removed(event)
            return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else None
