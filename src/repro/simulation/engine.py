"""The discrete-event simulation engine.

A :class:`Simulation` owns the clock, the event queue and the random
streams.  Components schedule callbacks with :meth:`Simulation.call_at`
or :meth:`Simulation.call_after`; both return cancellable
:class:`~repro.simulation.event.Event` handles.

Priorities (lower runs first at the same timestamp):

====================  ======
purpose               value
====================  ======
node suspend/resume   -10
transfer completion     0
heartbeats             10
scheduler/periodic     20
====================  ======

Keeping node state changes first guarantees that anything observing the
cluster at time *t* sees the availability that holds *at* t.

There is one dispatch loop, :meth:`Simulation.run`, which pops and
executes one event at a time; :meth:`Simulation.step` executes a single
event through the same ``_dispatch`` (trace hook, profiler slot,
executed-event count).  The clock only moves forward: scheduling in the
past and ``run(until=...)`` behind the clock both raise.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

import numpy as np

from ..errors import SimulationError
from ..obs import Observability
from .event import Event, EventQueue
from .rng import RngRegistry

PRIORITY_NODE_STATE = -10
PRIORITY_TRANSFER = 0
PRIORITY_HEARTBEAT = 10
PRIORITY_PERIODIC = 20


class Simulation:
    """Clock + event queue + named RNG streams."""

    def __init__(self, seed: int = 0, obs: Optional[Observability] = None) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._rng = RngRegistry(seed)
        self._running = False
        self._executed = 0
        #: Observability bundle (tracer/metrics/profiler) — the one
        #: passed in, else a fresh all-off bundle of this world's own.
        #: Instrumented components reach it via ``sim.obs``; with
        #: everything off the dispatch loop is untouched.
        self.obs = obs if obs is not None else Observability()
        #: Optional trace hook ``fn(time, event)`` for debugging.
        self.trace_hook: Optional[Callable[[float, Event], None]] = None

    # ------------------------------------------------------------------
    # Clock & RNG
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (monitoring/benchmarks)."""
        return self._executed

    def rng(self, name: str) -> np.random.Generator:
        """Named deterministic random stream.

        The returned generator handle is stable for the lifetime of the
        simulation — hot callers (heartbeat judgements, transfer
        completions, the NameNode's read shuffles) should resolve their
        stream once and keep the handle instead of paying a registry
        lookup per event.
        """
        return self._rng.stream(name)

    def rng_indexed(self, name: str, index: int) -> np.random.Generator:
        return self._rng.spawn(name, index)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        fn: Callable,
        *args,
        priority: int = PRIORITY_PERIODIC,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        ``daemon=True`` marks infrastructure events (heartbeats,
        periodic scans) that never keep a horizonless :meth:`run`
        alive on their own.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time:.3f} < now {self._now:.3f}"
            )
        return self._queue.push(time, priority, fn, args, daemon=daemon)

    def call_after(
        self,
        delay: float,
        fn: Callable,
        *args,
        priority: int = PRIORITY_PERIODIC,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self._now + delay, priority, fn, args, daemon=daemon)

    def pending_events(self) -> int:
        return len(self._queue)

    def pending_foreground_events(self) -> int:
        """Live non-daemon events (the ones that represent real work)."""
        return self._queue.foreground

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, event: Event) -> None:
        """Execute one popped event: trace hook, profiler bracketing
        and the executed-events count.  The single dispatch path shared
        by :meth:`run` and :meth:`step`, so every consumer sees
        identical accounting.

        The wall-clock profiler sits outside the determinism boundary:
        when armed, each callback is bracketed with perf_counter, but
        the event sequence (and everything the sim clock or RNGs see)
        is identical to an unprofiled run.
        """
        if self.trace_hook is not None:
            self.trace_hook(self._now, event)
        profiler = self.obs.profiler
        if profiler is None:
            event.fn(*event.args)
        else:
            t0 = perf_counter()
            event.fn(*event.args)
            profiler.note(
                getattr(event.fn, "__qualname__", repr(event.fn)),
                perf_counter() - t0,
            )
        self._executed += 1

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, a
        ``stop_when`` predicate returns true, or ``max_events`` fire.

        A *horizonless* call (``until is None``) additionally stops as
        soon as only daemon events remain — otherwise self-re-arming
        infrastructure (heartbeats, periodic scans) would spin forever.

        ``until`` behind the clock is an error, the same rule
        :meth:`call_at` applies to past times: the clock never moves
        backwards.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until the past: {until:.3f} < now {self._now:.3f}"
            )
        self._running = True
        try:
            fired = 0
            # The dispatch loop runs hundreds of thousands of times per
            # experiment: bind the queue internals once instead of
            # paying attribute/property chains per event.
            queue = self._queue
            peek = queue.peek_time
            pop = queue.pop
            dispatch = self._dispatch
            while queue._live:
                if until is None and queue._live_foreground == 0:
                    break
                if stop_when is not None and stop_when():
                    break
                next_time = peek()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                event = pop()
                self._now = event.time
                dispatch(event)
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
            else:
                if until is not None and until > self._now:
                    self._now = until
            return self._now
        finally:
            self._running = False

    def step(self) -> bool:
        """Execute exactly one event through the same dispatch path as
        :meth:`run` (trace hook, profiler, executed-events accounting);
        return False if the queue is empty."""
        if self._running:
            raise SimulationError("step() is not allowed while run() is active")
        if not self._queue:
            return False
        self._running = True
        try:
            event = self._queue.pop()
            self._now = event.time
            self._dispatch(event)
        finally:
            self._running = False
        return True


class PeriodicTask:
    """Re-schedules ``fn()`` every ``interval`` seconds until stopped.

    Periodic work is infrastructure, so its events default to *daemon*:
    they never keep a horizonless :meth:`Simulation.run` alive.  Pass
    ``daemon=False`` for a periodic task that represents real workload.
    """

    def __init__(
        self,
        sim: Simulation,
        interval: float,
        fn: Callable[[], None],
        *,
        priority: int = PRIORITY_PERIODIC,
        start_after: Optional[float] = None,
        daemon: bool = True,
    ) -> None:
        if interval <= 0:
            raise SimulationError("interval must be positive")
        self._sim = sim
        self._interval = interval
        self._fn = fn
        self._priority = priority
        self._daemon = daemon
        self._stopped = False
        first = interval if start_after is None else start_after
        self._event = sim.call_after(
            first, self._tick, priority=priority, daemon=daemon
        )

    def _tick(self) -> None:
        if self._stopped:
            return
        self._fn()
        if not self._stopped:
            self._event = self._sim.call_after(
                self._interval,
                self._tick,
                priority=self._priority,
                daemon=self._daemon,
            )

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
