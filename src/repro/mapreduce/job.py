"""Job state: tasks, lifecycle, per-job counters."""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from typing import List, Optional

from ..workloads import JobSpec
from .task import Task, TaskState, TaskType


class JobState(enum.Enum):
    """Job lifecycle: RUNNING -> COMMITTING -> SUCCEEDED / FAILED."""
    PENDING = "pending"
    RUNNING = "running"
    COMMITTING = "committing"  # reduces done; output reaching its factor
    SUCCEEDED = "succeeded"
    FAILED = "failed"


class Job:
    """One submitted MapReduce job."""

    _ids = itertools.count()

    def __init__(self, spec: JobSpec, priority: int = 0) -> None:
        spec.validate()
        self.spec = spec
        self.priority = priority
        self.job_id = f"job{next(Job._ids)}"
        self.state = JobState.PENDING
        #: live PENDING-task counts, maintained by Task.state (the
        #: scheduler's has-pending probe runs once per free slot).
        self._pending_maps = 0
        self._pending_reduces = 0
        #: Per-state task indices (``{task.index: task}``), maintained
        #: by :meth:`note_state` from the ``Task.state`` setter so the
        #: scheduler's candidate scans cost O(tasks in that state)
        #: instead of O(all tasks) per probe.  Keyed by task index and
        #: read back in sorted-index order, which is exactly the pool
        #: order the original full-pool comprehensions produced.
        self._pending_idx = {TaskType.MAP: {}, TaskType.REDUCE: {}}
        self._running_idx = {TaskType.MAP: {}, TaskType.REDUCE: {}}
        self._completed_maps = 0
        self._completed_reduces = 0
        #: Assignment-candidacy index wiring, stamped by the JobTracker
        #: at submit: ``_assign_index`` is its shared ``{task_type:
        #: {job: None}}`` map of jobs the walk must consider, kept
        #: exact by :meth:`note_state` (every candidacy-changing fact —
        #: pending/running counts, map completions — flows through task
        #: state transitions).  ``None`` until submitted; must exist
        #: before the first Task below fires ``note_state``.
        self._assign_index = None
        self._slowstart_fraction = 0.0
        self._spec_enabled = True
        self.maps: List[Task] = [
            Task(self, TaskType.MAP, i) for i in range(spec.n_maps)
        ]
        self.reduces: List[Task] = []  # created at submit (slot-dependent)
        self.n_reduces = 0
        self.submitted_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.counters: Counter = Counter()
        #: Output files still replicating during COMMITTING (the commit
        #: countdown lives here so the continuation pickles).
        self.commit_remaining = 0
        #: set when the job fails (diagnostics / tests).
        self.failure_reason: Optional[str] = None
        #: live count of unfinished speculative attempts, maintained by
        #: the JobTracker (cheap cap checks on every assignment).
        self._spec_active = 0
        #: Submission sequence (set by the JobTracker): the stable
        #: minor key of the priority-ordered active-jobs walk.
        self.submit_seq = 0
        #: SLO-aware preemption (service layer).  ``paused`` jobs are
        #: skipped by the assignment walk and their unfinished attempts
        #: are held (slots released) in ``held_attempts``;
        #: ``deprioritised`` jobs drop to the back of the walk and get
        #: no new speculative copies.  Both default off, so batch runs
        #: are byte-identical with the flags unused.
        self.paused = False
        self.deprioritised = False
        self.held_attempts: List = []

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> List[Task]:
        return self.maps + self.reduces

    @property
    def finished(self) -> bool:
        state = self.state
        return state is JobState.SUCCEEDED or state is JobState.FAILED

    def note_state(self, task: Task, old, new) -> None:
        """Task.state transition hook: keeps the pending counters and
        the per-state indices exact (``old is None`` at task creation).
        """
        tt = task.task_type
        if old is TaskState.PENDING:
            del self._pending_idx[tt][task.index]
            if task.is_map:
                self._pending_maps -= 1
            else:
                self._pending_reduces -= 1
        elif old is TaskState.RUNNING:
            del self._running_idx[tt][task.index]
        elif old is TaskState.SUCCEEDED:
            if task.is_map:
                self._completed_maps -= 1
            else:
                self._completed_reduces -= 1
        if new is TaskState.PENDING:
            self._pending_idx[tt][task.index] = task
            if task.is_map:
                self._pending_maps += 1
            else:
                self._pending_reduces += 1
        elif new is TaskState.RUNNING:
            self._running_idx[tt][task.index] = task
        elif new is TaskState.SUCCEEDED:
            if task.is_map:
                self._completed_maps += 1
            else:
                self._completed_reduces += 1
        if self._assign_index is not None:
            self._sync_candidacy(tt)
            if tt is TaskType.MAP and (
                old is TaskState.SUCCEEDED or new is TaskState.SUCCEEDED
            ):
                # Map completions move the reduce slow-start gate.
                self._sync_candidacy(TaskType.REDUCE)

    def assign_candidate(self, task_type: TaskType) -> bool:
        """Can ``select_task`` possibly return a ``task_type`` task of
        this job on *any* tracker?  Every selectable task is PENDING
        (pending reduces gated by the slow-start rule) or incomplete
        with attempts (the speculative pools draw on running tasks plus
        requeued tasks that ran before).  Evaluated from the job's own
        counters (the slow-start fraction and the speculation switch
        are stamped on the job at submit), so the index is maintained
        at transition time instead of being recomputed over every
        active job on every tick; ``tests/test_assignment_walk.py``
        recomputes it from task states at every tick."""
        if self.pending_count(task_type) > 0:
            if task_type is TaskType.MAP:
                return True
            maps = self.maps
            if (
                not maps
                or self._completed_maps / len(maps)
                >= self._slowstart_fraction
            ):
                return True
            if self._spec_enabled and self.any_pending_attempted(task_type):
                return True
        return bool(self._spec_enabled and self._running_idx[task_type])

    def _sync_candidacy(self, task_type: TaskType) -> None:
        idx = self._assign_index[task_type]
        if self.assign_candidate(task_type):
            idx[self] = None
        else:
            idx.pop(self, None)

    def register_candidacy(self, index, slowstart_fraction, spec_enabled):
        """JobTracker submit-time hook: wire the shared index and seed
        this job's entries (task creation predates registration)."""
        self._assign_index = index
        self._slowstart_fraction = slowstart_fraction
        self._spec_enabled = spec_enabled
        self._sync_candidacy(TaskType.MAP)
        self._sync_candidacy(TaskType.REDUCE)

    def unregister_candidacy(self) -> None:
        if self._assign_index is not None:
            self._assign_index[TaskType.MAP].pop(self, None)
            self._assign_index[TaskType.REDUCE].pop(self, None)
            self._assign_index = None

    def pending_count(self, task_type: TaskType) -> int:
        return (
            self._pending_maps
            if task_type is TaskType.MAP
            else self._pending_reduces
        )

    def running_count(self, task_type: TaskType) -> int:
        return len(self._running_idx[task_type])

    def any_pending_attempted(self, task_type: TaskType) -> bool:
        """Any PENDING task that ran before (i.e. was requeued)?  Feeds
        the assignment-walk candidate gate; O(pending of that type)."""
        return any(
            t.attempts for t in self._pending_idx[task_type].values()
        )

    @property
    def elapsed(self) -> Optional[float]:
        if self.submitted_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def input_path(self) -> str:
        return f"/{self.job_id}/input"

    def intermediate_path(self, map_index: int, attempt_id: int) -> str:
        return f"/{self.job_id}/intermediate/m{map_index}/a{attempt_id}"

    def output_path(self, reduce_index: int, attempt_id: int) -> str:
        return f"/{self.job_id}/output/r{reduce_index}/a{attempt_id}"

    # ------------------------------------------------------------------
    def _incomplete_of(self, task_type: TaskType) -> List[Task]:
        # Incomplete == PENDING or RUNNING (FAILED is terminal and
        # SUCCEEDED is complete): merge the two indices in index order.
        pend = self._pending_idx[task_type]
        run = self._running_idx[task_type]
        if not pend:
            return [run[i] for i in sorted(run)]
        if not run:
            return [pend[i] for i in sorted(pend)]
        merged = {**pend, **run}
        return [merged[i] for i in sorted(merged)]

    def incomplete_tasks(self, task_type: Optional[TaskType] = None) -> List[Task]:
        if task_type is None:
            return self._incomplete_of(TaskType.MAP) + self._incomplete_of(
                TaskType.REDUCE
            )
        return self._incomplete_of(task_type)

    def pending_tasks(self, task_type: TaskType) -> List[Task]:
        idx = self._pending_idx[task_type]
        return [idx[i] for i in sorted(idx)]

    def running_tasks(self, task_type: TaskType) -> List[Task]:
        idx = self._running_idx[task_type]
        return [idx[i] for i in sorted(idx)]

    def maps_completed(self) -> int:
        return self._completed_maps

    def all_maps_done(self) -> bool:
        return self._completed_maps == len(self.maps)

    def all_reduces_done(self) -> bool:
        return self.reduces and self._completed_reduces == len(self.reduces)

    def speculative_attempts_active(self) -> int:
        return self._spec_active

    def recount_speculative(self) -> int:
        """O(attempts) ground truth for the `_spec_active` counter
        (consistency checks in tests)."""
        return sum(
            1
            for t in self.tasks
            for a in t.attempts
            if a.is_speculative and not a.finished
        )

    def average_progress(self, task_type: TaskType) -> float:
        # Left-fold in pool (index) order, exactly like the original
        # ``sum()`` over the started-task comprehension: float addition
        # is order-sensitive and scheduling thresholds compare against
        # this value, so the iteration order is part of the contract.
        pool = self.maps if task_type is TaskType.MAP else self.reduces
        total = 0.0
        n = 0
        for t in pool:
            if t._state is TaskState.SUCCEEDED:
                total += 1.0
                n += 1
            elif t.attempts:
                total += max(a.progress for a in t.attempts)
                n += 1
        if not n:
            return 0.0
        return total / n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.job_id} {self.spec.name} {self.state.value}>"
