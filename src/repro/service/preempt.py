"""SLO-aware preemption of in-flight jobs (service layer).

Everything before this module reorders work only *before* admission:
the queue policy decides who enters the cluster, and once a loose-SLO
job occupies in-flight slots a tight-SLO arrival can only wait — which
is why EDF still misses deadlines under heavy replay load.  OS4M
(arXiv:1406.3901) reschedules *running* MapReduce operations for
global balance, and hybrid job-driven scheduling (arXiv:1808.08040)
ranks jobs by deadline pressure; this module brings that job-level
control to the opportunistic setting.

The :class:`PreemptionController` runs on the simulation clock as a
periodic daemon, watches **queue pressure** — tight-SLO jobs waiting
whose projected completion (now + analytical cost estimate) already
overruns their deadline budget — and acts on in-flight loose-SLO
victims with two escalating mechanisms:

* **deprioritise** — the victim drops to the back of every scheduler
  candidate walk and gets no new speculative copies
  (:meth:`~repro.mapreduce.jobtracker.JobTracker.deprioritise_job`);
  its running work continues, so slots free up as tasks finish;
* **pause** — after sustained pressure the victim's unfinished
  attempts are suspended outright
  (:meth:`~repro.mapreduce.jobtracker.JobTracker.pause_job`): compute
  progress is banked VM-pause-style, slots release immediately, and
  the paused job stops counting against the service's in-flight
  window, so a queued tight job is admitted at the next pump.
  Completed map output is preserved — resume never re-executes
  finished work.

When pressure stays clear for ``calm_rounds`` control rounds the
controller unwinds in reverse order of severity: paused jobs resume
(their held attempts re-register; nodes that died or drained meanwhile
get their tasks re-queued), then deprioritised jobs are restored.

Determinism: the controller consumes only simulated state, orders
victims by (slack, admission seq) and acts on the simulated clock, so
a seeded run — actions, audit log, report — is byte-identical across
processes.  With ``mode="off"`` (or no config at all) no event is ever
armed and the service's event stream is byte-identical to a build
without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..mapreduce.job import JobState
from ..plotting import table
from ..simulation import PRIORITY_PERIODIC, PeriodicTask

PREEMPT_MODES = ("off", "deprioritise", "pause")


@dataclass(frozen=True)
class PreemptConfig:
    """Controller knobs; defaults tuned for the 3x replay benchmark."""

    #: "off" | "deprioritise" | "pause".  "pause" escalates *through*
    #: deprioritise: a victim is demoted first and suspended only if
    #: pressure persists.
    mode: str = "off"
    #: Seconds between control rounds.
    interval: float = 15.0
    #: A queued deadline job is *tight* (counts as pressure) when its
    #: slack — deadline minus now minus its analytical cost estimate —
    #: is below this many seconds: it is projected to miss unless it
    #: starts roughly now.
    slack_threshold: float = 120.0
    #: An in-flight job is a preemption victim only when its own slack
    #: (deadline minus now; infinite for deadline-free jobs) is at
    #: least this — never rob a job that is itself about to miss.
    victim_slack: float = 600.0
    #: Jobs concurrently paused (bounds the goodput loss).
    max_paused: int = 2
    #: Control rounds of sustained pressure a deprioritised victim
    #: must see before it is escalated to a pause (mode="pause").
    escalate_rounds: int = 2
    #: Control rounds of clear pressure before paused jobs resume and
    #: deprioritised jobs are restored (hysteresis against flapping).
    calm_rounds: int = 2

    def validate(self) -> None:
        if self.mode not in PREEMPT_MODES:
            raise ConfigError(f"unknown preempt mode: {self.mode!r}")
        if self.interval <= 0:
            raise ConfigError("preempt interval must be positive")
        if self.slack_threshold < 0:
            raise ConfigError("slack_threshold must be non-negative")
        if self.victim_slack < 0:
            raise ConfigError("victim_slack must be non-negative")
        if self.max_paused < 1:
            raise ConfigError("max_paused must be >= 1")
        if self.escalate_rounds < 0:
            raise ConfigError("escalate_rounds must be non-negative")
        if self.calm_rounds < 0:
            raise ConfigError("calm_rounds must be non-negative")


@dataclass(frozen=True)
class PreemptEvent:
    """One audit row: what the controller did and what it saw."""

    time: float
    #: "deprioritise" | "pause" | "resume" | "restore".
    action: str
    #: The victim's service sequence number and job id.
    record_seq: int
    job_id: str
    #: Tight-SLO jobs waiting in the queue at decision time.
    tight_waiting: int
    #: The victim's slack in seconds (None = no deadline).
    victim_slack: Optional[float]
    reason: str

    def row(self) -> list:
        # Rendered identity is the service-local admission seq, not
        # the job id: the seq is what the service report, its other
        # audit tables and the explainer print for a job.
        return [
            f"{self.time:.0f}",
            self.action,
            f"#{self.record_seq}",
            self.tight_waiting,
            "--" if self.victim_slack is None
            else f"{self.victim_slack:.0f}",
            self.reason,
        ]


def render_preempt_events(events: List[PreemptEvent]) -> str:
    """The audit log as one aligned text table."""
    if not events:
        return "preemption audit: no actions"
    return table(
        ["t s", "action", "arrival", "tight", "slack s", "reason"],
        [e.row() for e in events],
        title="preemption audit",
    )


class PreemptionController:
    """One per :class:`~repro.service.MoonService` run."""

    def __init__(self, service, config: PreemptConfig) -> None:
        config.validate()
        self.cfg = config
        self.service = service
        self.sim = service.sim
        self.jobtracker = service.system.jobtracker
        self.events: List[PreemptEvent] = []
        #: record seq -> control rounds spent deprioritised under
        #: sustained pressure (escalation counter).
        self._demoted_rounds: Dict[int, int] = {}
        self._calm = 0
        self._task: Optional[PeriodicTask] = None
        if config.mode != "off":
            self._task = PeriodicTask(
                self.sim,
                config.interval,
                self._control,
                priority=PRIORITY_PERIODIC,
                daemon=True,
            )

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def tight_waiting(self) -> int:
        """Queued deadline jobs projected to miss unless started now."""
        now = self.sim.now
        return sum(
            1
            for q in self.service.queue.pending
            if q.deadline is not None
            and q.deadline - now - q.cost_estimate <= self.cfg.slack_threshold
        )

    def _victims(self) -> List[Tuple[float, int, object, object]]:
        """In-flight loose-SLO jobs, loosest first.

        Returns ``(neg_slack, seq, record, job)`` tuples sorted so the
        job that can best afford to wait — deadline-free first, then
        largest slack — is preempted first; the admission sequence
        breaks ties, keeping the order a pure function of the stream.
        """
        now = self.sim.now
        out = []
        for record, job in self.service._in_flight:
            # Only RUNNING jobs are worth preempting: a COMMITTING job
            # (replication wait) holds no task slots, so demoting or
            # pausing it frees nothing and would burn a max_paused
            # seat on a no-op.
            if job.paused or job.state is not JobState.RUNNING:
                continue
            slack = (
                float("inf") if record.deadline is None
                else record.deadline - now
            )
            if slack < self.cfg.victim_slack:
                continue
            out.append((-slack, record.seq, record, job))
        out.sort(key=lambda v: (v[0], v[1]))
        return out

    def paused_count(self) -> int:
        return sum(
            1 for _r, job in self.service._in_flight if job.paused
        )

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _control(self) -> None:
        tight = self.tight_waiting()
        if tight == 0:
            self._calm += 1
            self._demoted_rounds.clear()
            if self._calm >= self.cfg.calm_rounds:
                self._unwind(tight)
            return
        self._calm = 0
        blocked = (
            self.service.active_in_flight()
            >= self.service.config.max_in_flight
        )
        if not blocked:
            # Tight work will be admitted at the next pump; acting on
            # victims now would only burn goodput.
            return
        self._act(tight)

    def _act(self, tight: int) -> None:
        cfg = self.cfg
        victims = self._victims()
        acted = 0
        for neg_slack, seq, record, job in victims:
            if acted >= tight:
                break
            slack = None if neg_slack == float("-inf") else -neg_slack
            if not job.deprioritised:
                self.jobtracker.deprioritise_job(job)
                self._demoted_rounds[seq] = 0
                self._note("deprioritise", record, job, tight, slack,
                           f"{tight} tight queued")
                acted += 1
                continue
            if cfg.mode != "pause":
                continue
            rounds = self._demoted_rounds.get(seq, 0) + 1
            self._demoted_rounds[seq] = rounds
            if (
                rounds >= cfg.escalate_rounds
                and self.paused_count() < cfg.max_paused
            ):
                self.jobtracker.pause_job(job)
                self._note("pause", record, job, tight, slack,
                           f"pressure held {rounds} rounds")
                # A pause frees an in-flight slot immediately: admit
                # the tight work it was taken for at this same instant
                # instead of waiting for the next bookkeeping sweep.
                self.service._pump()
                acted += 1

    def _unwind(self, tight: int) -> None:
        """Pressure cleared: resume paused jobs, restore demoted ones.

        Unwinds in admission order (earliest preempted first) — the
        deterministic mirror of the preemption order."""
        for record, job in self.service._in_flight:
            if job.paused and not job.finished:
                self.jobtracker.resume_job(job)
                self._note("resume", record, job, tight, None,
                           "pressure clear")
        for record, job in self.service._in_flight:
            if job.deprioritised and not job.finished:
                self.jobtracker.restore_job(job)
                self._note("restore", record, job, tight, None,
                           "pressure clear")

    def _note(
        self, action, record, job, tight, slack, reason
    ) -> None:
        self.events.append(
            PreemptEvent(
                time=self.sim.now,
                action=action,
                record_seq=record.seq,
                job_id=job.job_id,
                tight_waiting=tight,
                victim_slack=slack,
                reason=reason,
            )
        )
        # Flight recorder: every controller action doubles as a
        # zero-length span on the preempt lane plus a registry count.
        obs = self.sim.obs
        obs.metrics.counter(f"service/preempt/{action}").inc()
        tracer = obs.tracer
        if tracer.enabled:
            tracer.span(
                f"preempt.{action}",
                "preempt",
                self.sim.now,
                self.sim.now,
                seq=record.seq,
                job=job.job_id,
                tight_waiting=tight,
                reason=reason,
            )

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop the control task (a job still paused at the drain
        limit stays paused and reports UNFINISHED — that *is* the
        faithful accounting of what the run left behind)."""
        if self._task is not None:
            self._task.stop()
