"""MOON's two-phase, hybrid-aware speculative scheduling (paper V).

Mechanisms, in priority order when a slot frees up:

1. **Pending tasks** (recently failed first) — normal work.
2. **Frozen tasks** (all copies inactive, V-A): always get a new copy,
   bypassing the per-task cap, sorted by progress (lowest first).
3. **Slow tasks** (Hadoop straggler criteria), progress-sorted.
4. **Homestretch replication** (V-B): once remaining tasks < H% of the
   available slots, keep >= R active copies of every remaining task.

A job-level cap bounds concurrent speculative instances to a fraction
(default 20%) of the currently available slots.  With
``hybrid_aware=True`` (MOON-Hybrid) dedicated nodes run speculative
copies; tasks that already hold a dedicated copy are deprioritised for
further replication and skip the homestretch (V-C).
"""

from __future__ import annotations

from typing import List, Tuple

from ..mapreduce.job import Job
from ..mapreduce.task import Task, TaskType
from ..mapreduce.tasktracker import TaskTracker
from .answers import EXHAUSTED
from .base import SchedulerPolicy, Selection


class MoonScheduler(SchedulerPolicy):
    """MOON's frozen/slow + two-phase + hybrid-aware policy (V)."""
    def select_task(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Selection:
        if tracker.node.is_dedicated:
            if not self.cfg.hybrid_aware:
                # Plain MOON uses dedicated machines as pure data
                # servers (V-C: the hybrid extension is what "takes
                # advantage of the CPU resources available on the
                # dedicated computers").
                return None
            if self.cfg.dedicated_primary:
                # Service mode: the tier is real capacity.  Volatile
                # trackers were walked first, so pending work reaching
                # a dedicated slot found no volatile home this tick.
                pending = self.pick_pending(job, tracker, task_type)
                if pending is not None:
                    return (pending, False)
            # MOON-Hybrid: best-effort speculative hosting only.
            picked = self._pick_speculative(job, tracker, task_type)
            if picked is EXHAUSTED and self.has_pending(job, task_type):
                # Pending work skips the speculative path only here: a
                # volatile tracker can still take it.
                return None
            return picked
        pending = self.pick_pending(job, tracker, task_type)
        if pending is not None:
            return (pending, False)
        if self.has_pending(job, task_type):
            return None
        return self._pick_speculative(job, tracker, task_type)

    # ------------------------------------------------------------------
    def _pick_speculative(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Selection:
        """Frozen, then slow, then homestretch.  Answers
        :data:`EXHAUSTED` unless some candidate was refused only for
        co-location (``can_host``), the one test that depends on the
        tracker."""
        if not self.allow_speculation(job) or not self.under_job_cap(job):
            return EXHAUSTED

        frozen, slow, home = self._spec_candidates(job, task_type)
        refused = EXHAUSTED
        # The ordered candidate lists are computed once per tick; only
        # the conditions a same-tick launch can change (a new copy, a
        # per-task cap, co-location) are re-checked per slot.
        for t in frozen:
            # Frozen tasks get a copy regardless of the per-task cap.
            if t.is_frozen() and not t.has_dedicated_attempt():
                if self.can_host(t, tracker):
                    job.counters["frozen_speculations"] += 1
                    return (t, True)
                refused = None
        # Two passes keep V-C live: tasks that gained a dedicated copy
        # earlier this same tick must drop behind those with none.
        for backed in (False, True):
            for t in slow:
                if (
                    t.has_dedicated_attempt() is backed
                    and not t.is_frozen()
                    and self.under_per_task_cap(t)
                ):
                    if self.can_host(t, tracker):
                        return (t, True)
                    refused = None
        want = self.cfg.homestretch_replicas
        for t in home:
            if (
                not t.complete
                and len(t.active_attempts()) < want
                and not t.has_dedicated_attempt()
            ):
                if self.can_host(t, tracker):
                    job.counters["homestretch_speculations"] += 1
                    return (t, True)
                refused = None
        return refused

    # ------------------------------------------------------------------
    def _order(self, tasks: List[Task]) -> List[Task]:
        """Progress-ascending; tasks holding a dedicated copy last
        (they already enjoy reliable backup, V-C)."""
        return sorted(
            tasks,
            key=lambda t: (t.has_dedicated_attempt(), t.best_progress(), t.index),
        )

    def _spec_candidates(
        self, job: Job, task_type: TaskType
    ) -> Tuple[List[Task], List[Task], List[Task]]:
        """(frozen, slow, homestretch) ordered lists, memoised per tick
        — no events fire mid-tick, so progress and judgement state are
        constant and per-slot rebuild+sort would be pure waste."""
        key = ("spec", job.job_id, task_type)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        frozen = self._order(
            [t for t in job.running_tasks(task_type) if t.is_frozen()]
        )
        # Progress-only order for the slow list: its dedicated-backed
        # split is applied *live* at pick time (two-pass), because a
        # backup launched earlier in the tick changes it.
        slow = sorted(
            (
                t
                for t in self.hadoop_stragglers(job, task_type)
                if not t.is_frozen() and self.under_per_task_cap(t)
            ),
            key=lambda t: (t.best_progress(), t.index),
        )
        home = self._order(self._homestretch_candidates(job, task_type))
        cached = (frozen, slow, home)
        self._memo[key] = cached
        return cached

    def _homestretch_candidates(
        self, job: Job, task_type: TaskType
    ) -> List[Task]:
        key = ("homestretch", job.job_id)
        remaining = self._memo.get(key)
        if remaining is None:
            remaining = job.incomplete_tasks()
            self._memo[key] = remaining
        threshold = (
            self.cfg.homestretch_threshold_pct / 100.0 * self.available_slots()
        )
        if not remaining or len(remaining) >= threshold:
            return []
        want = self.cfg.homestretch_replicas
        return [
            t
            for t in remaining
            if t.task_type is task_type
            and t.attempts  # scheduled at least once
            and not t.complete
            and len(t.active_attempts()) < want
            and not t.has_dedicated_attempt()  # V-C exemption
        ]
