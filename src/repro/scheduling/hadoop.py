"""Hadoop 0.17's default speculative scheduling (paper II-C, V).

Stragglers are treated equally regardless of how far behind they are,
selected in original scheduling order (with input-local preference for
maps); at most one backup copy per task.  The HadoopXMin baselines of
Figures 4/5 are this policy with different TrackerExpiryIntervals.
"""

from __future__ import annotations

from ..mapreduce.job import Job
from ..mapreduce.task import TaskType
from ..mapreduce.tasktracker import TaskTracker
from .answers import EXHAUSTED
from .base import SchedulerPolicy, Selection


class HadoopScheduler(SchedulerPolicy):
    """Stock Hadoop speculative scheduling (paper II-C / V)."""
    def select_task(
        self, job: Job, tracker: TaskTracker, task_type: TaskType
    ) -> Selection:
        pending = self.pick_pending(job, tracker, task_type)
        if pending is not None:
            return (pending, False)
        # "if all tasks for this job have been scheduled, the JobTracker
        # speculatively issues backup tasks for slow running ones".
        if self.has_pending(job, task_type):
            return None
        if not self.allow_speculation(job):
            return EXHAUSTED
        capped = [
            t
            for t in self.hadoop_stragglers(job, task_type)
            if self.under_per_task_cap(t)
        ]
        if not capped:
            return EXHAUSTED
        stragglers = [t for t in capped if self.can_host(t, tracker)]
        if not stragglers:
            return None
        if task_type is TaskType.MAP:
            local = [
                t
                for t in stragglers
                if t.input_block is not None
                and tracker.node_id in t.input_block.replicas
            ]
            if local:
                stragglers = local
        # Original scheduling order, not progress order (paper V).
        chosen = min(stragglers, key=lambda t: t.scheduled_order or 0)
        return (chosen, True)
