"""The JobTracker: job lifecycle, task assignment, failure handling.

Assignment is pull-style as in Hadoop (II-C): a heartbeat tick walks
the TaskTrackers and fills free slots by asking the scheduling policy
for work.  Failure handling implements both generations of behaviour:

* Hadoop: TrackerExpiryInterval -> kill + reschedule; fetch failures
  re-execute a map once >50% of running reduces report it;
* MOON: SuspensionInterval flags attempts inactive (frozen-task input),
  TrackerExpiryInterval (much longer) kills; after 3 fetch failures the
  JobTracker queries the file system and immediately re-executes a map
  whose output has no live replica (VI-B).
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, List, Optional

from ..cluster import Cluster, Node, NodeView
from ..config import SchedulerConfig, ShuffleConfig
from ..dfs import DfsClient, NameNode
from ..errors import SchedulingError
from ..obs import ATTEMPT_LANE_BASE
from ..scheduling.answers import EXHAUSTED
from ..simulation import PRIORITY_HEARTBEAT, PeriodicTask, Simulation
from ..workloads import JobSpec
from .execution import ReduceRunner, make_runner
from .job import Job, JobState
from .task import AttemptState, Task, TaskAttempt, TaskState, TaskType
from .tasktracker import TaskTracker


class Runtime:
    """Shared context handed to attempt runners."""

    def __init__(self, sim, cluster, namenode, dfs, shuffle_cfg, jobtracker):
        self.sim = sim
        self.cluster = cluster
        self.namenode = namenode
        self.dfs = dfs
        self.shuffle_cfg = shuffle_cfg
        self.jobtracker = jobtracker


class JobTracker:
    """Master-side control (II-C) with MOON extensions (V)."""

    def __init__(
        self,
        sim: Simulation,
        cluster: Cluster,
        namenode: NameNode,
        scheduler_cfg: SchedulerConfig,
        shuffle_cfg: ShuffleConfig,
        policy,
        heartbeat_interval: float = 3.0,
        view: Optional[NodeView] = None,
    ) -> None:
        scheduler_cfg.validate()
        shuffle_cfg.validate()
        self.sim = sim
        self.cluster = cluster
        self.namenode = namenode
        #: This observer's belief about node liveness (oracle by default).
        self.view = view if view is not None else NodeView("jobtracker")
        # Flight recorder: spans/instants when tracing is armed, and
        # run-level aggregates folded into the registry at job end.
        self._trace = sim.obs.tracer
        self._metrics = sim.obs.metrics
        self.cfg = scheduler_cfg
        self.shuffle_cfg = shuffle_cfg
        self.policy = policy
        self.dfs = DfsClient(namenode)
        self.rt = Runtime(sim, cluster, namenode, self.dfs, shuffle_cfg, self)

        # Trackers currently hosting live attempts, maintained by
        # TaskTracker.add/release: the heartbeat's progress refresh
        # walks this instead of the full membership, so big, mostly
        # idle clusters pay for their busy handful per tick.
        self._busy_trackers: Dict[int, TaskTracker] = {}
        self.trackers: Dict[int, TaskTracker] = {
            n.node_id: TaskTracker(n, self.view, self._busy_trackers)
            for n in cluster.nodes
        }
        # Tracker membership only changes on explicit provision or
        # decommission events (service autoscaling), so the assignment
        # walk order (volatile first, then by node id) is computed once
        # per membership change instead of re-sorted every heartbeat.
        self._assignment_order_cache: List[TaskTracker] = []
        self._rebuild_assignment_order()
        #: Trackers mid-drain, watched by the heartbeat tick.
        self._draining_trackers: Dict[int, TaskTracker] = {}
        self.jobs: List[Job] = []
        # Unfinished jobs only, priority-ordered: the heartbeat tick
        # walks this, so a long-lived service (thousands of completed
        # jobs in ``self.jobs``) never rescans its whole history.
        self._active_jobs: List[Job] = []
        # Jobs the assignment walk must consider, per task type,
        # maintained by Job.note_state at every task transition (see
        # Job.assign_candidate).  The tick reads it instead of probing
        # every active job, so a submit on a 10k-node cluster costs the
        # handful of jobs with placeable work, not the whole window.
        self._assign_candidates: Dict[TaskType, Dict[Job, None]] = {
            TaskType.MAP: {},
            TaskType.REDUCE: {},
        }
        self._schedule_seq = 0
        #: Bumped by every change that can turn a job's tracker-
        #: independent refusal back into an offer: an attempt finishing
        #: (fewer live or active copies, freed caps) or a completed map
        #: going back to PENDING.  A launch can cause either on the spot
        #: (an input read or a shuffle fetch failing at start), so the
        #: tick compares it around each launch; see :meth:`_tick`.
        self._wake_seq = 0
        #: Monotone submission counter (equals ``len(self.jobs)`` until
        #: :meth:`release` starts forgetting finished jobs).
        self._submit_seq = 0
        #: Attempt id stream: ids are unique within this world, and
        #: pickle with it.  Job ids are ``job<submit seq>``.
        self._attempt_counter = itertools.count()
        #: Opt-in for week-long streams: the service layer calls
        #: :meth:`release` after reaping so memory tracks the in-flight
        #: window, not the job history.
        self.release_finished = False

        policy.bind(self)

        # Physical pause/resume of runners (VM-pause semantics).
        cluster.on_suspend(self._physical_suspend)
        cluster.on_resume(self._physical_resume)

        # Dedicated-tier autoscaling: tracker membership follows the
        # cluster's; this JobTracker owns drain completion.
        cluster.on_provision(self._node_provisioned)
        cluster.on_drain_begin(self._node_drain_begin)
        cluster.on_decommission(self._node_decommissioned)

        # Heartbeat judgements (through this observer's view: the plain
        # analytical detector under the oracle, honest otherwise).
        self._detector = self.view.make_detector(
            sim, cluster, heartbeat_interval=heartbeat_interval
        )
        if self.cfg.kind == "moon":
            self._detector.add_threshold(
                "suspension",
                self.cfg.suspension_interval,
                self._tracker_suspected,
                self._tracker_unsuspected,
                adapt=True,
            )
        self._detector.add_threshold(
            "expiry",
            self.cfg.tracker_expiry_interval,
            self._tracker_dead,
            self._tracker_rejoined,
        )

        self._tick_task = PeriodicTask(sim, heartbeat_interval, self._tick)

    # ==================================================================
    # Submission
    # ==================================================================
    def submit(self, spec: JobSpec, priority: int = 0) -> Job:
        job = Job(f"job{self._submit_seq}", spec, priority)
        job.submitted_at = self.sim.now
        job.state = JobState.RUNNING

        # Stage the input file (paper: inputs staged before the runs).
        if spec.map_input_mb > 0:
            input_file = self.dfs.stage_input(
                job.input_path(),
                spec.input_mb,
                spec.input_rf,
                block_size_mb=spec.map_input_mb,
            )
            for task, block in zip(job.maps, input_file.blocks):
                task.input_block = block

        # Explicit reduce counts skip the cluster-wide slot census —
        # resolve_reduces only reads it for the slot-derived sizing.
        n_reduces = (
            spec.n_reduces
            if spec.n_reduces is not None
            else spec.resolve_reduces(self._available_reduce_slots())
        )
        job.n_reduces = n_reduces
        job.reduces = [Task(job, TaskType.REDUCE, i) for i in range(n_reduces)]

        job.register_candidacy(
            self._assign_candidates,
            self.cfg.reduce_slowstart_fraction,
            self.cfg.speculative_enabled,
        )
        job.submit_seq = self._submit_seq
        self._submit_seq += 1
        self.jobs.append(job)
        prev = self._active_jobs[-1] if self._active_jobs else None
        self._active_jobs.append(job)
        # The walk order is kept sorted as an invariant, and submit_seq
        # is monotone: an in-order append (every equal-priority stream)
        # skips the resort.
        if prev is not None and (
            (prev.deprioritised, -prev.priority, prev.submit_seq)
            > (job.deprioritised, -job.priority, job.submit_seq)
        ):
            self._resort_active_jobs()
        if self._trace.enabled:
            self._trace.instant(
                "job.submit",
                "job",
                self.sim.now,
                job=job.job_id,
                workload=spec.name,
                maps=len(job.maps),
                reduces=job.n_reduces,
                priority=priority,
            )
        self._tick()  # give it a first assignment round immediately
        return job

    def _resort_active_jobs(self) -> None:
        """Canonical assignment-walk order: deprioritised jobs last,
        then priority-major, submission-order-minor.  With no job
        deprioritised this equals the historical stable sort by
        ``-priority``, so batch runs are byte-identical."""
        self._active_jobs.sort(
            key=lambda j: (j.deprioritised, -j.priority, j.submit_seq)
        )

    # ==================================================================
    # Views used by scheduling policies
    # ==================================================================
    def available_slots(self) -> int:
        """'Currently available execution slots' (paper V-A/V-B).

        Counts the slots of every tracker not judged *dead*: suspended
        trackers keep their slots in the job's capacity (their tasks
        are inactive, not lost — that is the point of MOON's long
        TrackerExpiryInterval).  Making the speculative budget shrink
        with every suspension would throttle frozen-task rescue exactly
        when it is most needed, inverting the paper's Fig. 4 results.
        """
        return sum(
            t.total_slots()
            for t in self.trackers.values()
            if not t.dead and not t.draining
        )

    def _available_reduce_slots(self) -> int:
        """Table I's 'AvailSlots': total cluster reduce-slot capacity
        (not the instantaneous live subset), so the reduce count is
        deterministic across traces.  Draining trackers are about to
        leave and do not count."""
        return sum(
            t.reduce_slots
            for t in self.trackers.values()
            if not t.draining
        )

    def running_jobs(self) -> List[Job]:
        return [j for j in self._active_jobs if not j.finished]

    def release(self, job: Job) -> None:
        """Forget a finished job entirely (opt-in, long-lived streams).

        The caller owns whatever record it needs — after this the
        JobTracker no longer reports the job anywhere.
        """
        if not job.finished:
            raise SchedulingError(
                f"cannot release unfinished job {job.job_id}"
            )
        try:
            self.jobs.remove(job)
        except ValueError:
            pass
        try:
            self._active_jobs.remove(job)
        except ValueError:
            pass

    def next_schedule_order(self) -> int:
        self._schedule_seq += 1
        return self._schedule_seq

    # ==================================================================
    # Heartbeat tick: progress refresh + assignment
    # ==================================================================
    def _tick(self) -> None:
        # Drain watch: a decommissioning tracker leaves the cluster at
        # this tick (deterministic, and safely outside any cluster-
        # notification fan-out) once (a) it has no unfinished attempts
        # and (b) it no longer holds the only replica of any block —
        # the proactive copy-off queued at drain-begin must land a
        # second copy before the disk disappears with the machine.
        if self._draining_trackers:
            for node_id in list(self._draining_trackers):
                tracker = self._draining_trackers[node_id]
                if any(not a.finished for a in tracker.attempts):
                    continue
                if self.namenode.holds_sole_replicas(node_id):
                    continue
                self.cluster.finish_decommission(node_id)
        # Dirty-set refresh: only trackers that actually host attempts
        # are touched (idle trackers dominate on big, quiet clusters).
        # The registry is walked in node-id order — trackers are
        # created with ascending ids, so this is the same order the
        # full membership scan used.  Mid-flight progress feeds only
        # the straggler/frozen machinery, so the refresh rides the
        # speculation switch: with backups disabled nothing reads it
        # between an attempt's launch and its completion events.
        if self.cfg.speculative_enabled:
            for node_id in sorted(self._busy_trackers):
                for attempt in self._busy_trackers[node_id].attempts:
                    runner = attempt.runner
                    if runner is not None and not attempt.finished:
                        runner.update_progress()
        # The candidacy index holds exactly the jobs select_task could
        # accept on some tracker (see Job.assign_candidate): skipping
        # the rest — and on a quiet cluster, the whole tracker sweep —
        # changes no decision.
        index = self._assign_candidates
        idx_map, idx_red = index[TaskType.MAP], index[TaskType.REDUCE]
        if not (idx_map or idx_red):
            return
        # Candidate lists (pending, stragglers, frozen...) are memoised
        # inside the policy for the duration of one tick, so idle ticks
        # on big clusters cost O(tasks) once instead of per free slot.
        self.policy.begin_tick()
        # The walk visits candidates in the active-jobs order:
        # deprioritised last, then priority-major, submission-minor.
        def walk_order(members) -> List[Job]:
            return sorted(
                members,
                key=lambda j: (j.deprioritised, -j.priority, j.submit_seq),
            )

        # Each type's walk list shrinks as the tick goes: launches
        # re-sync the index through note_state, and _assign_one parks
        # the jobs the policy reports exhausted.  A launch that bumps
        # _wake_seq (it finished an attempt or requeued a map on the
        # spot) returns every parked job to its place in the walk.
        # Parked jobs skip the index re-sync: their membership can only
        # change through such a launch, which un-parks them first.
        # The sweep stops as soon as both lists run dry.
        walks = [
            (tt, walk_order(index[tt]), [])
            for tt in (TaskType.MAP, TaskType.REDUCE)
        ]
        (_, maps, _), (_, reduces, _) = walks
        wake_seq = self._wake_seq
        for tracker in self._assignment_order():
            if not tracker.usable:
                continue
            launched = False
            for task_type, cand, parked in walks:
                if not cand:
                    continue
                for _ in range(tracker.free_slots(task_type)):
                    if not self._assign_one(tracker, task_type, cand, parked):
                        break
                    launched = True
                    if self._wake_seq != wake_seq:
                        wake_seq = self._wake_seq
                        for _tt, lst, held in walks:
                            if held:
                                lst[:] = walk_order(lst + held)
                                held.clear()
            if launched:
                for task_type, cand, _parked in walks:
                    if cand:
                        live = index[task_type]
                        cand[:] = [j for j in cand if j in live]
            if not (maps or reduces):
                break

    def _assignment_order(self) -> List[TaskTracker]:
        # Volatile trackers first so dedicated slots stay free for the
        # hybrid policy's speculative placement (V-C).
        return self._assignment_order_cache

    def _assign_one(self, tracker, task_type, jobs, parked) -> bool:
        """Launch the first task some job of ``jobs`` (walk order)
        places on ``tracker``.  Finished and paused jobs leave ``jobs``
        (they stay so for the whole tick); jobs the policy answers
        :data:`EXHAUSTED` move to ``parked``.

        Exact: no events fire inside a tick and the policy's per-tick
        lists are fixed, so an exhausted job's refusals (pending count,
        caps, frozen and V-C state) can only become less true through a
        change that bumps ``_wake_seq``, and the tick un-parks every
        job when one happens."""
        select = self.policy.select_task
        i = 0
        while i < len(jobs):
            job = jobs[i]
            if job.finished or job.paused:
                del jobs[i]
                continue
            picked = select(job, tracker, task_type)
            if picked is None:
                i += 1
            elif picked is EXHAUSTED:
                parked.append(jobs.pop(i))
            else:
                task, speculative = picked
                self.launch(task, tracker, speculative)
                return True
        return False

    # ==================================================================
    # Launch / lifecycle
    # ==================================================================
    def launch(
        self, task: Task, tracker: TaskTracker, speculative: bool
    ) -> TaskAttempt:
        if task.complete:
            raise SchedulingError(f"launching completed task {task.task_id}")
        # Causal parent of this launch, read before the append below:
        # a relaunch inherits the reason its task went back to PENDING.
        if speculative:
            cause = "speculative"
        elif not task.attempts:
            cause = "first"
        else:
            cause = task.requeue_cause or "failure"
        attempt = TaskAttempt(
            next(self._attempt_counter),
            task,
            tracker.node_id,
            self.sim.now,
            is_speculative=speculative,
            on_dedicated=tracker.node.is_dedicated,
        )
        attempt.cause = cause
        task.attempts.append(attempt)
        if task.scheduled_order is None:
            task.scheduled_order = self.next_schedule_order()
        if task.state is TaskState.PENDING:
            task.state = TaskState.RUNNING
        tracker.add(attempt)

        job = task.job
        kind = "map" if task.is_map else "reduce"
        job.counters[f"attempts_{kind}"] += 1
        if len(task.attempts) > 1:
            job.counters["duplicated_tasks"] += 1
            job.counters[f"duplicated_{kind}s"] += 1
        if speculative:
            job.counters["speculative_launched"] += 1
            job._spec_active += 1

        if self._trace.enabled:
            self._trace.instant(
                "sched.assign",
                "sched",
                self.sim.now,
                task=task.task_id,
                job=job.job_id,
                node=tracker.node_id,
                speculative=speculative,
                attempt=attempt.attempt_id,
                cause=cause,
            )
        runner = make_runner(self.rt, attempt)
        runner.start()
        return attempt

    def _trace_attempt(self, attempt: TaskAttempt, outcome: str) -> None:
        """Record one finished attempt as a span on its node's lane.

        The args carry the causal parents the explain layer rebuilds
        the per-job graph from: the launch cause, the attempt id, the
        task kind, and the phase-completion marks (``name=ts`` pairs,
        ``;``-joined in mark order — deterministic, since marks land in
        execution order)."""
        task = attempt.task
        self._trace.span(
            task.task_id,
            "attempt",
            attempt.started_at,
            self.sim.now,
            tid=ATTEMPT_LANE_BASE + attempt.node_id,
            job=task.job.job_id,
            node=attempt.node_id,
            outcome=outcome,
            speculative=attempt.is_speculative,
            attempt=attempt.attempt_id,
            cause=attempt.cause,
            kind="map" if task.is_map else "reduce",
            phases=";".join(
                f"{name}={ts!r}" for name, ts in attempt.phase_marks.items()
            ),
        )

    def _note_attempt_finished(self, attempt: TaskAttempt) -> None:
        self._wake_seq += 1
        if attempt.is_speculative:
            attempt.task.job._spec_active -= 1

    def attempt_succeeded(self, attempt: TaskAttempt, output_file) -> None:
        attempt.state = AttemptState.SUCCEEDED
        attempt.finished_at = self.sim.now
        if self._trace.enabled:
            self._trace_attempt(attempt, "succeeded")
        self._note_attempt_finished(attempt)
        self.trackers[attempt.node_id].release(attempt)
        task = attempt.task
        job = task.job

        if task.complete:
            # A redundant copy finished after the winner: discard.  A
            # falsely-suspected node completing work that was requeued
            # past the grace window lands here — pure duplicated effort.
            if attempt.abandoned:
                job.counters["wasted_work_seconds"] += attempt.runtime(self.sim.now)
            if output_file is not None:
                self._delete_quiet(output_file.path)
            return

        task.state = TaskState.SUCCEEDED
        task.finished_at = self.sim.now
        task.output_file = output_file
        # Kill the losing copies (they count as killed task instances).
        # When winner or loser was abandoned by a suspicion requeue, the
        # loser's runtime is duplicated effort caused by the detector.
        for other in list(task.attempts):
            if other is not attempt and not other.finished:
                if attempt.abandoned or other.abandoned:
                    job.counters["wasted_work_seconds"] += other.runtime(
                        self.sim.now
                    )
                self.kill_attempt(other, "redundant copy")

        if task.is_map:
            task.fetch_failure_reporters.clear()
            task.total_fetch_failures = 0
            self._notify_reduces_of_map(job, task.index)
            if job.n_reduces == 0 and job.all_maps_done():
                self._commit_job(job)
        else:
            if job.all_reduces_done():
                self._commit_job(job)

    def attempt_failed(self, attempt: TaskAttempt, reason: str) -> None:
        attempt.state = AttemptState.FAILED
        attempt.finished_at = self.sim.now
        if self._trace.enabled:
            self._trace_attempt(attempt, "failed")
        self._note_attempt_finished(attempt)
        self.trackers[attempt.node_id].release(attempt)
        task = attempt.task
        job = task.job
        job.counters["attempt_failures"] += 1
        task.failed_attempts += 1
        if task.failed_attempts >= self.cfg.max_task_attempts:
            self._job_failed(
                job,
                f"task {task.task_id} failed "
                f"{task.failed_attempts} times: {reason}",
            )
            return
        if not task.complete and not task.live_attempts():
            task.state = TaskState.PENDING
            task.requeue_cause = "failure"

    def kill_attempt(self, attempt: TaskAttempt, reason: str) -> None:
        if attempt.finished:
            return
        if attempt.runner is not None:
            attempt.runner.kill()
        attempt.state = AttemptState.KILLED
        attempt.finished_at = self.sim.now
        if self._trace.enabled:
            self._trace_attempt(attempt, "killed")
        self._note_attempt_finished(attempt)
        # A held attempt's node may have been decommissioned while its
        # job was paused (the drain gate does not wait for held work);
        # the tracker is then already gone and there is no slot to free.
        tracker = self.trackers.get(attempt.node_id)
        if tracker is not None:
            tracker.release(attempt)
        task = attempt.task
        job = task.job
        kind = "map" if task.is_map else "reduce"
        job.counters[f"killed_{kind}_attempts"] += 1
        # Drop any partial output the attempt had registered.
        path = (
            job.intermediate_path(task.index, attempt.attempt_id)
            if task.is_map
            else job.output_path(task.index, attempt.attempt_id)
        )
        if task.output_file is None or task.output_file.path != path:
            self._delete_quiet(path)
        if not task.complete and not task.live_attempts():
            task.state = TaskState.PENDING
            # A kill on a live task (tracker expiry, decommission, a
            # node gone during a pause) loses real work; redundant-copy
            # and job-terminal kills never reach here (task complete or
            # job finished), so "failure" is the honest cause.
            task.requeue_cause = "failure"

    # ==================================================================
    # Fetch failures (VI-B)
    # ==================================================================
    def report_fetch_failure(self, reduce_task: Task, map_task: Task) -> None:
        job = map_task.job
        job.counters["fetch_failures"] += 1
        if not map_task.complete:
            return  # already being re-executed
        map_task.fetch_failure_reporters.add(reduce_task.index)
        map_task.total_fetch_failures += 1

        if self.cfg.kind == "hadoop":
            running = max(1, len(job.running_tasks(TaskType.REDUCE)))
            if (
                len(map_task.fetch_failure_reporters)
                > self.shuffle_cfg.hadoop_failure_fraction * running
            ):
                self.reexecute_map(map_task)
        else:
            # MOON fast path: after 3 failures ask the file system.
            if (
                map_task.total_fetch_failures
                >= self.shuffle_cfg.moon_fetch_failures
            ):
                f = map_task.output_file
                alive = f is not None and self.namenode.block_availability_now(
                    f.blocks[0]
                )
                if not alive:
                    self.reexecute_map(map_task)

    def reexecute_map(self, map_task: Task) -> None:
        job = map_task.job
        job.counters["map_reexecutions"] += 1
        job.counters["killed_map_attempts"] += 1  # the lost instance
        # The lost instance is dead, not merely stale: its output is
        # about to be deleted, so its attempt record must not read as a
        # live success (execution profiles and dead-tracker re-execution
        # probes both key on SUCCEEDED attempts).
        for attempt in map_task.attempts:
            if attempt.state is AttemptState.SUCCEEDED:
                attempt.state = AttemptState.KILLED
        if map_task.output_file is not None:
            self._delete_quiet(map_task.output_file.path)
        map_task.output_file = None
        map_task.state = TaskState.PENDING
        self._wake_seq += 1
        map_task.requeue_cause = "fetch_failure"
        map_task.finished_at = None
        map_task.fetch_failure_reporters.clear()
        map_task.total_fetch_failures = 0

    # ==================================================================
    # Tracker judgements
    # ==================================================================
    def _tracker_suspected(self, node: Node) -> None:
        tracker = self.trackers[node.node_id]
        tracker.mark_suspected()
        for job in self.running_jobs():
            job.counters["tracker_suspensions"] += 1
            break
        # Snippet 3 Policy B: suspect first, requeue only once the node
        # has stayed suspect past the grace window.  Oracle observers
        # never requeue on suspicion (suspension is then known-true and
        # MOON's frozen-task rescue already covers it).
        if self.view.honest:
            self.sim.call_after(
                self.view.config.grace_period,
                self._suspicion_requeue,
                node,
                priority=PRIORITY_HEARTBEAT,
                daemon=True,
            )

    def _suspicion_requeue(self, node: Node) -> None:
        """Grace window elapsed with the node still suspect: hand every
        unfinished task it hosts back to the scheduler.

        The suspect attempts are *abandoned*, not killed: the node may
        be falsely accused, and if its results arrive after the requeue
        they reconcile through the normal winner/redundant-copy paths —
        with the duplicated attempt-seconds accounted as wasted work.
        Slots are not released either (as far as the observer knows
        the node may still be running the work)."""
        tracker = self.trackers.get(node.node_id)
        if tracker is None or tracker.dead or not tracker.suspected:
            return  # recovered (or expired) before the grace ran out
        requeued = 0
        requeued_jobs: set = set()
        for attempt in list(tracker.attempts):
            if attempt.finished or attempt.abandoned:
                continue
            task = attempt.task
            if task.complete or task.job.finished or task.job.paused:
                continue
            attempt.abandoned = True
            if all(a.abandoned for a in task.live_attempts()):
                task.state = TaskState.PENDING
                task.requeue_cause = "suspicion"
                task.job.counters["suspicion_requeues"] += 1
                requeued += 1
                requeued_jobs.add(task.job.job_id)
        if requeued:
            self._metrics.counter("detector/suspicion_requeues").inc(requeued)
            if self._trace.enabled:
                self._trace.instant(
                    "detector.requeue",
                    "detector",
                    self.sim.now,
                    node=node.node_id,
                    tasks=requeued,
                    jobs=",".join(sorted(requeued_jobs)),
                )

    def _tracker_unsuspected(self, node: Node) -> None:
        self.trackers[node.node_id].mark_recovered()

    def _tracker_dead(self, node: Node) -> None:
        tracker = self.trackers[node.node_id]
        tracker.dead = True
        # Measurement only (never behaviour): an honest expiry of a node
        # that is actually up destroys genuinely running work.
        false_expiry = self.view.honest and node.available
        for attempt in list(tracker.running_attempts()):
            if false_expiry and not attempt.task.complete:
                attempt.task.job.counters["wasted_work_seconds"] += (
                    attempt.runtime(self.sim.now)
                )
            self.kill_attempt(attempt, "tracker expired")
        # Held attempts of paused jobs escaped the registry at pause
        # time, but they die with the tracker like everything else:
        # otherwise a pause spanning an expiry would resurrect work on
        # a rejoined node that every registered attempt lost for good.
        for job in self._active_jobs:
            if job.paused:
                for attempt in job.held_attempts:
                    if (
                        attempt.node_id == node.node_id
                        and not attempt.finished
                    ):
                        self.kill_attempt(attempt, "tracker expired")
        # Stock Hadoop: completed maps whose output lived on the dead
        # tracker's disk are re-executed while reduces still need them.
        if self.cfg.reexec_completed_maps():
            for job in self.running_jobs():
                if job.state is not JobState.RUNNING:
                    continue
                if job.n_reduces > 0 and not job.all_reduces_done():
                    for task in job.maps:
                        if (
                            task.complete
                            and task.output_file is not None
                            and any(
                                a.node_id == node.node_id
                                and a.state is AttemptState.SUCCEEDED
                                for a in task.attempts
                            )
                        ):
                            self.reexecute_map(task)

    def _tracker_rejoined(self, node: Node) -> None:
        self.trackers[node.node_id].dead = False

    # ==================================================================
    # Dedicated-tier membership (service autoscaling)
    # ==================================================================
    def _rebuild_assignment_order(self) -> None:
        # Volatile trackers first so dedicated slots stay free for the
        # hybrid policy's speculative placement (V-C).
        self._assignment_order_cache = sorted(
            self.trackers.values(),
            key=lambda t: (t.node.is_dedicated, t.node_id),
        )

    def _node_provisioned(self, node: Node) -> None:
        self.trackers[node.node_id] = TaskTracker(
            node, self.view, self._busy_trackers
        )
        self._rebuild_assignment_order()

    def _node_drain_begin(self, node: Node) -> None:
        tracker = self.trackers[node.node_id]
        tracker.draining = True
        self._draining_trackers[node.node_id] = tracker

    def _node_decommissioned(self, node: Node) -> None:
        tracker = self.trackers[node.node_id]
        # The drain watch only completes idle trackers, but guard the
        # direct finish_decommission path too: nothing may keep running
        # on a node that no longer exists.
        for attempt in list(tracker.running_attempts()):
            self.kill_attempt(attempt, "node decommissioned")
        del self.trackers[node.node_id]
        self._busy_trackers.pop(node.node_id, None)
        self._draining_trackers.pop(node.node_id, None)
        self._rebuild_assignment_order()

    # ==================================================================
    # Job-level preemption (SLO-aware service pressure)
    # ==================================================================
    # The VM-pause machinery below suspends whatever runs on one *node*;
    # these hooks suspend or demote one *job* across every node — the
    # service layer's PreemptionController drives them when tight-SLO
    # arrivals queue behind loose-SLO work.  Completed map output is
    # never touched, so a resumed job re-executes nothing it finished.
    def pause_job(self, job: Job) -> None:
        """Suspend every unfinished attempt of ``job`` and release
        their slots.  Held attempts keep their banked compute progress
        (same mechanics as a VM pause) but leave the tracker registry,
        so tracker sweeps — drain gates, expiry kills, suspension
        marks — no longer see them; :meth:`resume_job` reconciles the
        held set against whatever happened to the nodes meanwhile."""
        if job.finished or job.paused:
            return
        job.paused = True
        job.counters["preempt_pauses"] += 1
        for task in job.tasks:
            for attempt in task.live_attempts():
                runner = attempt.runner
                if runner is not None:
                    runner.hold()
                if attempt.state is AttemptState.RUNNING:
                    attempt.state = AttemptState.INACTIVE
                tracker = self.trackers.get(attempt.node_id)
                if tracker is not None:
                    tracker.release(attempt)
                job.held_attempts.append(attempt)

    def resume_job(self, job: Job) -> None:
        """Wake a paused job: re-register its held attempts (their old
        trackers may transiently overcommit — they accept no new work
        until occupancy drops back) and kill the ones whose node died
        or left while the job was paused, returning those tasks to
        PENDING for normal re-scheduling."""
        if job.finished or not job.paused:
            return
        job.paused = False
        job.counters["preempt_resumes"] += 1
        held, job.held_attempts = job.held_attempts, []
        for attempt in held:
            if attempt.finished:
                continue  # killed while paused (job commit/failure)
            tracker = self.trackers.get(attempt.node_id)
            if tracker is None or tracker.dead:
                self.kill_attempt(attempt, "preemption resume: node gone")
                continue
            tracker.add(attempt)
            if (
                attempt.state is AttemptState.INACTIVE
                and not tracker.suspected
            ):
                attempt.state = AttemptState.RUNNING
            runner = attempt.runner
            if runner is not None:
                runner.release()

    def deprioritise_job(self, job: Job) -> None:
        """Demote ``job`` to the back of the assignment walk and stop
        granting it new speculative copies; running work continues, so
        slots free up exactly as its tasks finish."""
        if job.finished or job.deprioritised:
            return
        job.deprioritised = True
        job.counters["preempt_deprioritisations"] += 1
        self._resort_active_jobs()

    def restore_job(self, job: Job) -> None:
        """Undo :meth:`deprioritise_job` (pressure cleared)."""
        if not job.deprioritised:
            return
        job.deprioritised = False
        job.counters["preempt_restores"] += 1
        if not job.finished:
            self._resort_active_jobs()

    # ==================================================================
    # Physical suspend/resume (VM-pause)
    # ==================================================================
    def _physical_suspend(self, node: Node) -> None:
        tracker = self.trackers.get(node.node_id)
        if tracker is None:
            return
        for attempt in tracker.running_attempts():
            if attempt.runner is not None:
                attempt.runner.pause()

    def _physical_resume(self, node: Node) -> None:
        tracker = self.trackers.get(node.node_id)
        if tracker is None:
            return
        for attempt in tracker.running_attempts():
            if attempt.runner is not None:
                attempt.runner.resume()

    # ==================================================================
    # Completion
    # ==================================================================
    def _notify_reduces_of_map(self, job: Job, map_index: int) -> None:
        for reduce_task in job.reduces:
            for attempt in reduce_task.live_attempts():
                runner = attempt.runner
                if isinstance(runner, ReduceRunner):
                    runner.notify_map_completed(map_index)

    def _commit_job(self, job: Job) -> None:
        if job.state is not JobState.RUNNING:
            return
        job.state = JobState.COMMITTING
        # Causal boundary for the explain layer: compute is done, the
        # remaining response time is output replication (IV-A).
        if self._trace.enabled:
            self._trace.instant(
                "job.commit", "job", self.sim.now, job=job.job_id
            )
        # Output files become reliable; the job is complete only when
        # every block reaches its replication factor (IV-A).
        paths = [
            t.output_file.path for t in job.reduces if t.output_file is not None
        ]
        if job.n_reduces == 0:
            paths = [
                t.output_file.path for t in job.maps if t.output_file is not None
            ]
        if not paths:
            self._finish_job(job)
            return

        # Picklable commit continuation (snapshot/resume): the countdown
        # lives on the job, the callback is a partial of a bound method.
        job.commit_remaining = len(paths)
        one_done = partial(self._commit_output_replicated, job)
        for path in paths:
            self.namenode.convert_to_reliable(path)
            self.namenode.when_fully_replicated(path, one_done)

    def _commit_output_replicated(self, job: Job) -> None:
        job.commit_remaining -= 1
        if job.commit_remaining == 0 and job.state is JobState.COMMITTING:
            self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        job.state = JobState.SUCCEEDED
        job.finished_at = self.sim.now
        # Kill outstanding attempts (leftover speculative copies and
        # maps re-executed for reduces that no longer need them): the
        # job is complete, so their results are moot.
        for task in job.tasks:
            for attempt in list(task.live_attempts()):
                self.kill_attempt(attempt, "job complete")
        self._cleanup_job(job)

    def _job_failed(self, job: Job, reason: str) -> None:
        if job.finished:
            return
        job.state = JobState.FAILED
        job.failure_reason = reason
        job.finished_at = self.sim.now
        for task in job.tasks:
            for attempt in task.live_attempts():
                self.kill_attempt(attempt, "job failed")
        self._cleanup_job(job)

    def _cleanup_job(self, job: Job) -> None:
        job.unregister_candidacy()
        try:
            self._active_jobs.remove(job)
        except ValueError:  # pragma: no cover - defensive
            pass
        # Fold the job's per-run counters into the registry.  Reports
        # and goldens keep reading ``job.counters`` directly — the
        # registry is an additive aggregate view, never a replacement.
        metrics = self._metrics
        metrics.counter(f"mapreduce/jobs_{job.state.value}").inc()
        for key, value in job.counters.items():
            metrics.counter(f"mapreduce/{key}").inc(value)
        if self._trace.enabled and job.submitted_at is not None:
            self._trace.span(
                job.job_id,
                "job",
                job.submitted_at,
                self.sim.now,
                state=job.state.value,
                workload=job.spec.name,
            )
        # Intermediate data is transient: drop it at job end.
        for task in job.maps:
            if task.output_file is not None:
                self._delete_quiet(task.output_file.path)
                task.output_file = None

    def _delete_quiet(self, path: str) -> None:
        if self.namenode.exists(path):
            self.namenode.delete_file(path)

    # ==================================================================
    def stop(self) -> None:
        self._tick_task.stop()
