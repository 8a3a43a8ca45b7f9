"""Scheduler policy interface + shared straggler helpers.

Candidate lists (pending tasks, stragglers, frozen tasks) are memoised
for the duration of one JobTracker tick via :meth:`begin_tick`; the
per-tracker constraints (don't co-locate with an existing copy, input
locality) are applied at selection time so they stay exact.

:meth:`SchedulerPolicy.select_task` has two kinds of "no".  ``None``
means "not on this tracker": some task was refused only for a reason
that depends on the tracker (co-location, or the V-C rule that keeps
pending work off dedicated trackers).  :data:`EXHAUSTED` means "not on
any tracker for the rest of this tick": the job has no pending task of
that type and every speculative candidate was refused for a reason no
tracker changes (speculation off, a full cap, empty lists, frozen or
V-C state).  The per-tick lists are fixed, and within a tick those
reasons can only weaken when a launch finishes an attempt or sends a
completed map back to PENDING on the spot (an input read or a shuffle
fetch failing at start).  So the JobTracker parks an exhausted job for
that type and returns it to the walk at the next tick, or right after
such a launch.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple, Union

from ..config import SchedulerConfig
from ..mapreduce.job import Job
from ..mapreduce.task import Task, TaskState, TaskType
from ..mapreduce.tasktracker import TaskTracker
from .answers import _Exhausted


#: What ``select_task`` returns: ``(task, is_speculative)``, ``None``
#: or :data:`EXHAUSTED`.
Selection = Union[Tuple[Task, bool], None, _Exhausted]


class SchedulerPolicy(ABC):
    """Answers one question: given a free slot on ``tracker``, which
    task of ``job`` (if any) should run there, and is it speculative?"""

    def __init__(self, cfg: SchedulerConfig) -> None:
        cfg.validate()
        self.cfg = cfg
        self.jobtracker = None
        self._memo: Dict[tuple, object] = {}

    def bind(self, jobtracker) -> None:
        self.jobtracker = jobtracker

    def begin_tick(self) -> None:
        """Invalidate per-tick memoised candidate lists."""
        self._memo.clear()

    @property
    def now(self) -> float:
        return self.jobtracker.sim.now

    # ------------------------------------------------------------------
    @abstractmethod
    def select_task(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Selection:
        """Return ``(task, is_speculative)``, ``None`` (nothing of
        ``job`` runs on *this* tracker now) or :data:`EXHAUSTED`
        (nothing of ``job`` of this type runs on *any* tracker while
        the job's attempts and task states stay as they are this tick).

        ``EXHAUSTED`` is only returned when the job has no pending task
        of ``task_type`` and every candidate was refused for a
        tracker-independent reason; one co-location refusal makes the
        answer ``None``."""

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def reduces_eligible(self, job: Job) -> bool:
        """Slow-start rule: reduces wait for the first maps.

        Memoised per tick: completions only happen on events between
        ticks, and this is asked once per free slot on every tracker.
        """
        key = ("red_elig", job.job_id)
        cached = self._memo.get(key)
        if cached is None:
            if not job.maps:
                cached = True
            else:
                frac = job.maps_completed() / len(job.maps)
                cached = frac >= self.cfg.reduce_slowstart_fraction
            self._memo[key] = cached
        return cached

    def _pending_sorted(self, job: Job, task_type: TaskType) -> List[Task]:
        key = ("pending", job.job_id, task_type)
        cached = self._memo.get(key)
        if cached is None:
            pending = job.pending_tasks(task_type)
            # Recently failed tasks first (II-C), then index order.
            cached = sorted(
                pending, key=lambda t: (t.failed_attempts == 0, t.index)
            )
            self._memo[key] = cached
        return cached

    def pick_pending(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Optional[Task]:
        """Non-running task selection: recently-failed tasks first
        (II-C), then input-local maps, then the rest in index order."""
        if job.pending_count(task_type) == 0:
            return None
        if task_type is TaskType.REDUCE and not self.reduces_eligible(job):
            return None
        best: Optional[Task] = None
        for t in self._pending_sorted(job, task_type):
            if t.state is not TaskState.PENDING:
                continue  # launched earlier this same tick
            if tracker.node_id in t.nodes_with_attempts():
                continue
            if t.failed_attempts > 0:
                return t
            if (
                task_type is TaskType.MAP
                and t.input_block is not None
                and tracker.node_id in t.input_block.replicas
            ):
                return t  # data-local hit
            if best is None:
                best = t
        return best

    def has_pending(self, job: Job, task_type: TaskType) -> bool:
        return job.pending_count(task_type) > 0

    def hadoop_stragglers(self, job: Job, task_type: TaskType) -> List[Task]:
        """Hadoop's straggler rule (paper V): running > 1 minute and
        progress >= 0.2 behind the average of the task type.  Memoised
        per tick."""
        key = ("stragglers", job.job_id, task_type)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        avg = job.average_progress(task_type)
        out = []
        for task in job.running_tasks(task_type):
            if task.complete:
                continue
            live = task.live_attempts()
            if not live:
                continue
            oldest = min(a.started_at for a in live)
            if self.now - oldest < self.cfg.speculative_min_runtime:
                continue
            if task.best_progress() <= avg - self.cfg.speculative_progress_gap:
                out.append(task)
        self._memo[key] = out
        return out

    def under_per_task_cap(self, task: Task) -> bool:
        """Hadoop caps backup copies per task (default 1 extra)."""
        extras = len(task.live_attempts()) - 1
        return extras < self.cfg.max_speculative_per_task

    def allow_speculation(self, job: Job) -> bool:
        """Deprioritised jobs (service-layer preemption) yield slots as
        their tasks finish: they may still run *pending* work when the
        walk reaches them last, but no policy grants them new
        speculative copies — backup instances are exactly the extra
        slots the preemption is trying to hand to tighter jobs."""
        return self.cfg.speculative_enabled and not job.deprioritised

    def available_slots(self) -> int:
        cached = self._memo.get("avail_slots")
        if cached is None:
            cached = self.jobtracker.available_slots()
            self._memo["avail_slots"] = cached
        return cached

    def under_job_cap(self, job: Job) -> bool:
        """MOON's job-level cap: concurrent speculative instances below
        ``speculative_cap_fraction`` of available slots (V-A)."""
        cap = self.cfg.speculative_cap_fraction * self.available_slots()
        return job.speculative_attempts_active() < cap

    def can_host(self, task: Task, tracker: TaskTracker) -> bool:
        return (
            not task.complete
            and tracker.node_id not in task.nodes_with_attempts()
        )
