"""Tasks and task attempts.

A :class:`Task` is the unit of work (one map or one reduce); a
:class:`TaskAttempt` is one execution instance on one node.  Attempts
on suspended TaskTrackers become *inactive* — MOON's key observation is
that they may come back, so they are flagged rather than killed
(Section V-A).
"""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dfs.types import BlockInfo, FileInfo


class TaskType(enum.Enum):
    """Map or reduce."""
    MAP = "map"
    REDUCE = "reduce"

    # Identity hash (C-level) instead of enum's per-call name hash:
    # these members key the hottest dicts in the scheduler (per-state
    # task indices, candidacy maps), tens of millions of lookups per
    # big run.  Member equality is identity, so the hash stays
    # consistent, and dicts iterate in insertion order regardless —
    # no observable behaviour depends on the hash value.
    __hash__ = object.__hash__


class AttemptState(enum.Enum):
    """Attempt lifecycle; INACTIVE is MOON's suspended-not-killed state."""
    RUNNING = "running"
    INACTIVE = "inactive"  # node suspended; may resume (MOON V-A)
    SUCCEEDED = "succeeded"
    FAILED = "failed"  # error (input unavailable, write declined...)
    KILLED = "killed"  # tracker death / redundant speculative copy

    __hash__ = object.__hash__  # see TaskType


class TaskState(enum.Enum):
    """Task lifecycle (PENDING until first launch)."""
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    __hash__ = object.__hash__  # see TaskType


class TaskAttempt:
    """One execution of a task on a specific node."""

    __slots__ = (
        "attempt_id",
        "task",
        "node_id",
        "is_speculative",
        "on_dedicated",
        "_state",
        "active",
        "finished",
        "started_at",
        "finished_at",
        "progress",
        "phase_marks",
        "runner",
        "abandoned",
        "cause",
    )

    def __init__(
        self, attempt_id: int, task: "Task", node_id: int, now: float,
        is_speculative: bool, on_dedicated: bool,
    ) -> None:
        #: Issued by the owning JobTracker (unique within its world).
        self.attempt_id = attempt_id
        self.task = task
        self.node_id = node_id
        self.is_speculative = is_speculative
        self.on_dedicated = on_dedicated
        self._state = AttemptState.RUNNING
        #: Plain attributes mirroring ``state`` (kept exact by the
        #: setter): the scheduler's per-slot liveness probes read these
        #: millions of times per run, so they must be slot reads, not
        #: property calls re-deriving the same enum comparisons.
        self.active = True
        self.finished = False
        self.started_at = now
        self.finished_at: Optional[float] = None
        self.progress = 0.0
        #: phase name -> completion timestamp (Table II accounting).
        self.phase_marks: dict = {}
        self.runner = None  # set by the execution engine
        #: Suspicion requeue gave this attempt's task back to the
        #: scheduler; if the attempt still finishes, its runtime is
        #: duplicated effort (``wasted_work``).
        self.abandoned = False
        #: Causal parent of this launch: "first" | "speculative" |
        #: "failure" | "suspicion" | "fetch_failure" (why the
        #: scheduler started it — the flight recorder stamps it on the
        #: sched.assign instant and the attempt span so the explain
        #: layer can attribute re-execution time to its root cause).
        self.cause = "first"

    @property
    def state(self) -> AttemptState:
        return self._state

    @state.setter
    def state(self, new: AttemptState) -> None:
        self._state = new
        self.active = new is AttemptState.RUNNING
        self.finished = (
            new is not AttemptState.RUNNING
            and new is not AttemptState.INACTIVE
        )

    def runtime(self, now: float) -> float:
        return (self.finished_at or now) - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Attempt#{self.attempt_id} {self.task} on n{self.node_id} "
            f"{self.state.value} p={self.progress:.2f}>"
        )


class Task:
    """One map or reduce task of a job."""

    __slots__ = (
        "job",
        "task_type",
        "is_map",
        "index",
        "_state",
        "attempts",
        "input_block",
        "output_file",
        "failed_attempts",
        "fetch_failure_reporters",
        "total_fetch_failures",
        "scheduled_order",
        "finished_at",
        "requeue_cause",
    )

    def __init__(self, job, task_type: TaskType, index: int) -> None:
        self.job = job
        self.task_type = task_type
        self.is_map = task_type is TaskType.MAP
        self.index = index
        self._state = TaskState.PENDING
        job.note_state(self, None, TaskState.PENDING)
        self.attempts: List[TaskAttempt] = []
        #: map input (set at staging time).
        self.input_block: Optional["BlockInfo"] = None
        #: map intermediate output (set when the task succeeds).
        self.output_file: Optional["FileInfo"] = None
        self.failed_attempts = 0
        #: reduce task ids that reported failures fetching this map.
        self.fetch_failure_reporters: set = set()
        self.total_fetch_failures = 0
        self.scheduled_order: Optional[int] = None
        self.finished_at: Optional[float] = None
        #: Why the task most recently went back to PENDING ("failure",
        #: "suspicion" or "fetch_failure"); the next launch inherits it
        #: as its attempt cause.  None until a requeue happens.
        self.requeue_cause: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def state(self) -> TaskState:
        return self._state

    @state.setter
    def state(self, new: TaskState) -> None:
        """Transitions keep the job's O(1) pending counters and the
        per-state candidate indices exact (the scheduler probes 'any
        pending work?' once per free slot and walks pending/running
        candidates once per tick)."""
        old = self._state
        if old is new:
            return
        self._state = new
        self.job.note_state(self, old, new)

    @property
    def task_id(self) -> str:
        prefix = "m" if self.is_map else "r"
        return f"{self.job.job_id}-{prefix}{self.index}"

    @property
    def complete(self) -> bool:
        return self._state is TaskState.SUCCEEDED

    def active_attempts(self) -> List[TaskAttempt]:
        return [a for a in self.attempts if a.active]

    def live_attempts(self) -> List[TaskAttempt]:
        """Running or inactive (could still finish if resumed)."""
        return [a for a in self.attempts if not a.finished]

    def has_dedicated_attempt(self) -> bool:
        return any(a.on_dedicated for a in self.live_attempts())

    def is_frozen(self) -> bool:
        """MOON V-A: scheduled, not complete, and *all* copies inactive."""
        if self.complete or not self.attempts:
            return False
        live = self.live_attempts()
        return bool(live) and all(
            a.state is AttemptState.INACTIVE for a in live
        )

    def best_progress(self) -> float:
        if self._state is TaskState.SUCCEEDED:
            return 1.0
        attempts = self.attempts
        if not attempts:
            return 0.0
        return max(a.progress for a in attempts)

    def nodes_with_attempts(self) -> set:
        return {a.node_id for a in self.live_attempts()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.task_id} {self.state.value}>"
