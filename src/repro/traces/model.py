"""Availability-trace data model.

A trace is a sorted, non-overlapping list of *unavailable* half-open
intervals ``[start, end)`` within ``[0, duration)``.  Outside those
intervals the node is available.  This is exactly the artifact the MOON
emulation replayed: "a monitoring process on each node reads in the
assigned availability trace, and suspends and resumes all the
Hadoop/MOON related processes on the node accordingly" (paper VI).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError


@dataclass(frozen=True)
class Interval:
    """One unavailable period ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not (self.end > self.start >= 0.0):
            raise TraceError(f"bad interval [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class AvailabilityTrace:
    """Immutable per-node unavailability schedule."""

    __slots__ = ("_starts", "_ends", "duration")

    def __init__(self, intervals: Iterable[Tuple[float, float]], duration: float):
        if duration <= 0:
            raise TraceError("trace duration must be positive")
        pairs = sorted((float(s), float(e)) for s, e in intervals)
        starts: List[float] = []
        ends: List[float] = []
        prev_end = -1.0
        for s, e in pairs:
            if e <= s:
                raise TraceError(f"empty or inverted interval [{s}, {e})")
            if s < 0 or e > duration:
                raise TraceError(f"interval [{s}, {e}) outside [0, {duration})")
            if s < prev_end:
                raise TraceError(f"overlapping interval at {s}")
            starts.append(s)
            ends.append(e)
            prev_end = e
        self._starts = tuple(starts)
        self._ends = tuple(ends)
        self.duration = float(duration)

    # ------------------------------------------------------------------
    @property
    def starts(self) -> Tuple[float, ...]:
        """Outage start times, ascending (no :class:`Interval` built)."""
        return self._starts

    @property
    def ends(self) -> Tuple[float, ...]:
        """Outage end times, ascending; ``ends[i]`` closes ``starts[i]``."""
        return self._ends

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return tuple(Interval(s, e) for s, e in zip(self._starts, self._ends))

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def is_available(self, t: float) -> bool:
        """True when the node is up at simulated time ``t``.

        Times past the trace end are treated as available (the paper's
        traces cover the full experiment window).
        """
        if t < 0:
            raise TraceError("negative time")
        i = bisect_right(self._starts, t) - 1
        return not (i >= 0 and t < self._ends[i])

    def next_transition(self, t: float) -> Optional[Tuple[float, bool]]:
        """Return ``(time, available_after)`` of the next state change
        strictly after ``t``, or ``None`` if the node stays up forever."""
        i = bisect_right(self._starts, t) - 1
        if i >= 0 and t < self._ends[i]:
            return (self._ends[i], True)
        j = bisect_right(self._starts, t)
        if j < len(self._starts):
            return (self._starts[j], False)
        return None

    # ------------------------------------------------------------------
    def unavailable_seconds(self) -> float:
        return float(sum(e - s for s, e in zip(self._starts, self._ends)))

    def unavailability_rate(self) -> float:
        """Fraction of the trace during which the node is down."""
        return self.unavailable_seconds() / self.duration

    def outage_lengths(self) -> np.ndarray:
        return np.asarray(
            [e - s for s, e in zip(self._starts, self._ends)], dtype=float
        )

    def shifted(self, offset: float) -> "AvailabilityTrace":
        """Trace rotated by ``offset`` within the same window; useful
        for de-correlating copies of one trace.  Total downtime is
        conserved (a rigid rotation), modulo float rounding at the
        wrap boundary."""
        out = []
        for s, e in zip(self._starts, self._ends):
            s2 = (s + offset) % self.duration
            # Carry the *length* rather than shifting both endpoints:
            # immune to float absorption of tiny intervals at large
            # offsets and to ends landing exactly on the window edge.
            e2 = s2 + (e - s)
            if e2 <= self.duration:
                if e2 > s2:
                    out.append((s2, e2))
            else:  # wrapped around the end of the window
                out.append((s2, self.duration))
                tail = e2 - self.duration
                if tail > 0:
                    out.append((0.0, tail))
        # Rotation cannot create genuine overlaps, but float rounding
        # at the wrap boundary can leave touching/epsilon-crossing
        # pairs; merge to keep the constructor's invariant.
        merged: List[List[float]] = []
        for s, e in sorted(out):
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        return AvailabilityTrace([(s, e) for s, e in merged], self.duration)

    @staticmethod
    def always_available(duration: float) -> "AvailabilityTrace":
        return AvailabilityTrace([], duration)


def availability_matrix(
    traces: Sequence[AvailabilityTrace], times: np.ndarray
) -> np.ndarray:
    """Boolean matrix ``A[i, j]`` = trace *i* available at ``times[j]``."""
    out = np.empty((len(traces), len(times)), dtype=bool)
    for i, tr in enumerate(traces):
        out[i] = [tr.is_available(float(t)) for t in times]
    return out
