"""SLO accounting: per-job latency records rolled into a ServiceReport.

Response time is arrival-to-completion (queue wait included), the
metric a serving front-end is judged on.  Goodput counts only jobs
completed within their deadline — finishing late is throughput, not
goodput.  Tenant fairness is Jain's index over per-tenant *served*
simulation seconds, so one starved tenant drags the index visibly
below 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import HOUR
from ..metrics.report import latency_quantiles
from ..plotting import table
from .arrivals import JobArrival


class ServedState(enum.Enum):
    """Terminal state of one arrival, from the service's perspective."""

    #: Admitted and finished successfully.
    SUCCEEDED = "succeeded"
    #: Admitted but the job failed inside the cluster.
    FAILED = "failed"
    #: Rejected at the front door (queue saturated).
    REJECTED = "rejected"
    #: Arrived after the admission horizon; never queued.
    DROPPED = "dropped"
    #: Still queued when the service stopped.
    QUEUED = "queued"
    #: Admitted but still running when the service stopped.
    UNFINISHED = "unfinished"


#: States that occupied cluster resources.
_ADMITTED = (ServedState.SUCCEEDED, ServedState.FAILED, ServedState.UNFINISHED)


@dataclass
class JobRecord:
    """Lifecycle of one arrival through the service."""

    seq: int
    arrival: JobArrival
    state: ServedState = ServedState.QUEUED
    admitted_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def tenant(self) -> str:
        return self.arrival.tenant

    @property
    def workload(self) -> str:
        return self.arrival.spec.name

    @property
    def deadline(self) -> Optional[float]:
        return self.arrival.deadline

    @property
    def queue_wait(self) -> Optional[float]:
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.arrival.arrival_time

    @property
    def response_time(self) -> Optional[float]:
        """Arrival to completion; None until the job finishes."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival.arrival_time

    @property
    def missed_deadline(self) -> bool:
        """Whether this job missed its SLO.

        Uniform rule, evaluated once the service has stopped: a
        deadline job misses unless it *succeeded by its deadline*.
        Rejected, dropped, failed, still-queued and still-running jobs
        all count — the paper-VIII QoS view that a drop (or a strand)
        *is* a miss for the user, applied symmetrically so a policy
        cannot lower its miss rate by parking work in the queue.
        """
        if self.deadline is None:
            return False
        if self.state is ServedState.SUCCEEDED:
            return self.finished_at > self.deadline
        return True


@dataclass(frozen=True)
class TenantSlo:
    """Aggregates for one tenant (or the whole service when
    ``tenant == "(all)"``)."""

    tenant: str
    arrived: int
    admitted: int
    completed: int
    failed: int
    rejected: int
    dropped: int
    unserved: int
    deadline_eligible: int
    deadline_misses: int
    mean_queue_wait: Optional[float]
    p50_response: Optional[float]
    p95_response: Optional[float]
    p99_response: Optional[float]
    throughput_per_hour: float
    goodput_per_hour: float
    served_seconds: float

    @property
    def miss_rate(self) -> Optional[float]:
        if self.deadline_eligible == 0:
            return None
        return self.deadline_misses / self.deadline_eligible


def _tenant_slo(
    tenant: str,
    records: Sequence[JobRecord],
    duration: float,
) -> TenantSlo:
    completed = [r for r in records if r.state is ServedState.SUCCEEDED]
    responses = [r.response_time for r in completed]
    waits = [
        r.queue_wait for r in records if r.queue_wait is not None
    ]
    eligible = [r for r in records if r.deadline is not None]
    misses = sum(1 for r in eligible if r.missed_deadline)
    good = sum(
        1
        for r in completed
        if r.deadline is None or r.finished_at <= r.deadline
    )
    hours = max(duration, 1e-9) / HOUR
    quantiles = latency_quantiles(responses)
    served = sum(
        r.finished_at - r.admitted_at
        for r in completed
        if r.admitted_at is not None
    )
    return TenantSlo(
        tenant=tenant,
        arrived=len(records),
        admitted=sum(1 for r in records if r.state in _ADMITTED),
        completed=len(completed),
        failed=sum(1 for r in records if r.state is ServedState.FAILED),
        rejected=sum(1 for r in records if r.state is ServedState.REJECTED),
        dropped=sum(1 for r in records if r.state is ServedState.DROPPED),
        unserved=sum(
            1
            for r in records
            if r.state in (ServedState.QUEUED, ServedState.UNFINISHED)
        ),
        deadline_eligible=len(eligible),
        deadline_misses=misses,
        mean_queue_wait=(sum(waits) / len(waits)) if waits else None,
        p50_response=quantiles["p50"],
        p95_response=quantiles["p95"],
        p99_response=quantiles["p99"],
        throughput_per_hour=len(completed) / hours,
        goodput_per_hour=good / hours,
        served_seconds=served,
    )


def jain_fairness(shares: Sequence[float]) -> Optional[float]:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one winner."""
    if not shares:
        return None
    total = sum(shares)
    if total <= 0:
        return None
    square_sum = sum(s * s for s in shares)
    return (total * total) / (len(shares) * square_sum)


#: Version stamp of :meth:`ServiceReport.to_dict` (and of the
#: ``repro serve/replay --json`` envelope).  Bump on any key change so
#: dashboards can detect incompatible reports instead of misreading
#: them.
REPORT_SCHEMA_VERSION = 1


def _fmt_s(v: Optional[float], decimals: int = 1) -> Optional[str]:
    return None if v is None else f"{v:.{decimals}f}"


def _fmt_pct(v: Optional[float]) -> Optional[str]:
    return None if v is None else f"{100.0 * v:.1f}%"


@dataclass(frozen=True)
class ServiceReport:
    """Everything one service run reports — deterministic given a seed."""

    policy: str
    pattern: str
    seed: int
    horizon: float
    end_time: float
    overall: TenantSlo
    tenants: List[TenantSlo]
    fairness: Optional[float]
    records: List[JobRecord] = field(repr=False, default_factory=list)
    #: Autoscale policy name when the run was autoscaled (None = the
    #: paper's fixed tier; cost fields below are None too).
    autoscale: Optional[str] = None
    #: Dedicated node-hours consumed (the cost axis policies compete
    #: on; includes draining time — a draining node still burns money).
    node_hours: Optional[float] = None
    #: Tier size when the run stopped (dedicated + draining).
    dedicated_final: Optional[int] = None
    #: Per-decision audit records (see repro.service.autoscale).
    scale_events: List = field(repr=False, default_factory=list)
    #: Provenance label of the replayed workload trace (None for
    #: synthetic arrival streams).
    trace: Optional[str] = None
    #: Preemption mode when a controller was configured ("off" |
    #: "deprioritise" | "pause"; None = no controller, the classic
    #: admission-only service).
    preempt: Optional[str] = None
    #: Per-action audit records (see repro.service.preempt).
    preempt_events: List = field(repr=False, default_factory=list)
    #: Saturation evictions by admission price (0 whenever the queue
    #: ran the classic arrival-order bound).
    evicted: int = 0
    #: Failure-detection mode when an honest detector was armed
    #: ("timeout" | "adaptive"; None = the oracle default, whose
    #: detection is perfect and whose wasted work is structurally 0).
    detector: Optional[str] = None
    #: Duplicated attempt-seconds caused by suspicion requeues (the
    #: price of detection mistakes; see ISSUE: Snippet 3 Policy B).
    wasted_work: float = 0.0
    #: Judgement trips on nodes that were actually up.
    false_positives: int = 0
    #: Tasks handed back to the scheduler past the grace window.
    requeues: int = 0
    #: Mean seconds from a real outage to its detection (None when the
    #: run saw no real trips).
    detection_mean: Optional[float] = None
    #: "on" when the NameNode write-ahead journal was enabled (None =
    #: the paper-figure default: immortal NameNode, no journal).
    journal: Optional[str] = None
    #: Simulated NameNode crash/failover events during the run.
    namenode_crashes: int = 0
    #: Mean seconds from crash to reconvergence — journal replay plus
    #: the staggered datanode block reports (None until a crash).
    recovery_mean: Optional[float] = None
    #: Journal records appended / checkpoints taken over the run.
    journal_records: int = 0
    checkpoints: int = 0
    #: Run-wide causal blame components, category -> summed seconds of
    #: response time (tracing runs only; see repro.obs.explain.blame —
    #: per job the components sum to the response time exactly).
    blame: Optional[Dict[str, float]] = None
    #: Same components, keyed per tenant.
    blame_by_tenant: Optional[Dict[str, Dict[str, float]]] = None

    @property
    def preempt_counts(self) -> Dict[str, int]:
        """Action totals of the preemption audit log."""
        out = {"deprioritise": 0, "pause": 0, "resume": 0, "restore": 0}
        for e in self.preempt_events:
            out[e.action] += 1
        return out

    # ------------------------------------------------------------------
    def tenant(self, name: str) -> TenantSlo:
        for t in self.tenants:
            if t.tenant == name:
                return t
        raise KeyError(name)

    def to_dict(self) -> dict:
        """Flat summary for programmatic comparison across runs."""
        def row(t: TenantSlo) -> dict:
            return {
                "arrived": t.arrived,
                "completed": t.completed,
                "rejected": t.rejected,
                "deadline_misses": t.deadline_misses,
                "miss_rate": t.miss_rate,
                "p50": t.p50_response,
                "p95": t.p95_response,
                "p99": t.p99_response,
                "throughput_per_hour": t.throughput_per_hour,
                "goodput_per_hour": t.goodput_per_hour,
            }

        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "policy": self.policy,
            "pattern": self.pattern,
            "seed": self.seed,
            "overall": row(self.overall),
            "tenants": {t.tenant: row(t) for t in self.tenants},
            "fairness": self.fairness,
        }
        if self.autoscale is not None:
            out["autoscale"] = {
                "policy": self.autoscale,
                "node_hours": self.node_hours,
                "dedicated_final": self.dedicated_final,
                "scale_events": len(self.scale_events),
            }
        if self.trace is not None:
            out["trace"] = self.trace
        if self.preempt is not None:
            counts = self.preempt_counts
            out["preempt"] = {
                "mode": self.preempt,
                "deprioritisations": counts["deprioritise"],
                "pauses": counts["pause"],
                "resumes": counts["resume"],
                "restores": counts["restore"],
            }
        if self.evicted:
            out["evicted"] = self.evicted
        if self.detector is not None:
            out["detector"] = {
                "mode": self.detector,
                "wasted_work_seconds": self.wasted_work,
                "false_positives": self.false_positives,
                "requeues": self.requeues,
                "detection_mean_seconds": self.detection_mean,
            }
        if self.journal is not None:
            out["journal"] = {
                "mode": self.journal,
                "records": self.journal_records,
                "checkpoints": self.checkpoints,
                "namenode_crashes": self.namenode_crashes,
                "recovery_mean_seconds": self.recovery_mean,
            }
        if self.blame is not None:
            out["blame"] = {
                "totals": dict(self.blame),
                "by_tenant": {
                    t: dict(c) for t, c in (self.blame_by_tenant or {}).items()
                },
            }
        return out

    def summary_row(self) -> list:
        """Formatted overall cells ``[done, p50, p95, p99, miss,
        good/h, fairness]`` — the shape shared by the CLI comparison
        table and the benchmark report."""
        o = self.overall
        return [
            o.completed,
            _fmt_s(o.p50_response, 0),
            _fmt_s(o.p95_response, 0),
            _fmt_s(o.p99_response, 0),
            _fmt_pct(o.miss_rate),
            f"{o.goodput_per_hour:.2f}",
            None if self.fairness is None else f"{self.fairness:.3f}",
        ]

    def cost_row(self) -> list:
        """``summary_row`` plus the autoscale cost cells ``[node-h,
        tier, scale-ops]`` — the shape of the autoscale comparison."""
        return self.summary_row() + [
            None if self.node_hours is None else f"{self.node_hours:.2f}",
            self.dedicated_final,
            len(self.scale_events),
        ]

    def preempt_row(self) -> list:
        """``summary_row`` plus the preemption cells ``[depri,
        pauses]`` — the shape of the ``--preempt all`` comparison."""
        counts = self.preempt_counts
        return self.summary_row() + [
            counts["deprioritise"],
            counts["pause"],
        ]

    def detector_row(self) -> list:
        """``summary_row`` plus the detection-tradeoff cells
        ``[detect s, false+, requeues, wasted s]`` — the shape of the
        ``--detector all`` comparison."""
        return self.summary_row() + [
            _fmt_s(self.detection_mean),
            self.false_positives,
            self.requeues,
            f"{self.wasted_work:.0f}",
        ]

    def blame_row(self) -> list:
        """``summary_row`` plus the dominant blame cells ``[exec s,
        queue s, rework s, other s]`` — the shape of the
        ``repro explain`` comparison footer.  ``rework`` folds both
        re-execution causes (real failures and false-positive
        suspicion); ``other`` is everything else, so the four cells
        still sum to the total attributed seconds."""
        blame = self.blame or {}
        exec_s = blame.get("exec", 0.0)
        queue_s = blame.get("queue_wait", 0.0)
        rework_s = blame.get("reexec_failure", 0.0) + blame.get(
            "reexec_suspicion", 0.0
        )
        other_s = sum(blame.values()) - exec_s - queue_s - rework_s
        return self.summary_row() + [
            f"{exec_s:.0f}",
            f"{queue_s:.0f}",
            f"{rework_s:.0f}",
            f"{other_s:.0f}",
        ]

    def render(self) -> str:
        """The service run as one aligned text table."""
        rows = []
        for t in self.tenants + [self.overall]:
            rows.append(
                [
                    t.tenant,
                    t.arrived,
                    t.completed,
                    t.rejected + t.dropped,
                    t.unserved,
                    _fmt_s(t.mean_queue_wait),
                    _fmt_s(t.p50_response),
                    _fmt_s(t.p95_response),
                    _fmt_s(t.p99_response),
                    _fmt_pct(t.miss_rate),
                    f"{t.goodput_per_hour:.2f}",
                ]
            )
        unserved = self.overall.unserved
        status = (
            "drained" if unserved == 0
            else f"stopped, {unserved} unserved"
        )
        title = (
            f"service report - pattern={self.pattern} policy={self.policy} "
            f"seed={self.seed} horizon={self.horizon / HOUR:.1f}h "
            f"({status} at {self.end_time:.0f}s)"
        )
        body = table(
            [
                "tenant", "arrived", "done", "rej", "unserved",
                "wait s", "p50 s", "p95 s", "p99 s", "miss", "good/h",
            ],
            rows,
            title=title,
        )
        fair = (
            f"tenant fairness (Jain, served seconds): {self.fairness:.3f}"
            if self.fairness is not None
            else "tenant fairness (Jain, served seconds): --"
        )
        out = body + "\n" + fair
        if self.trace is not None:
            out += f"\nreplayed trace: {self.trace}"
        if self.autoscale is not None:
            out += (
                f"\nautoscale={self.autoscale}: "
                f"{self.node_hours:.2f} dedicated node-hours, "
                f"final tier {self.dedicated_final}, "
                f"{len(self.scale_events)} scale actions"
            )
        if self.preempt is not None:
            counts = self.preempt_counts
            out += (
                f"\npreempt={self.preempt}: "
                f"{counts['deprioritise']} deprioritised, "
                f"{counts['pause']} paused, "
                f"{counts['resume']} resumed, "
                f"{counts['restore']} restored"
            )
        if self.evicted:
            out += (
                f"\nadmission prices: {self.evicted} queued jobs "
                "evicted for dearer arrivals at saturation"
            )
        if self.detector is not None:
            detect = (
                "--" if self.detection_mean is None
                else f"{self.detection_mean:.1f}s mean detection"
            )
            out += (
                f"\ndetector={self.detector}: {detect}, "
                f"{self.false_positives} false positives, "
                f"{self.requeues} suspicion requeues, "
                f"{self.wasted_work:.0f}s wasted work"
            )
        if self.journal is not None:
            recov = (
                "no crash" if self.recovery_mean is None
                else f"{self.namenode_crashes} crash(es), "
                     f"{self.recovery_mean:.1f}s mean recovery"
            )
            out += (
                f"\njournal={self.journal}: {recov}, "
                f"{self.journal_records} records, "
                f"{self.checkpoints} checkpoints"
            )
        return out


def build_report(
    records: Sequence[JobRecord],
    policy: str,
    pattern: str,
    seed: int,
    horizon: float,
    end_time: float,
    autoscale: Optional[str] = None,
    node_hours: Optional[float] = None,
    dedicated_final: Optional[int] = None,
    scale_events: Optional[List] = None,
    trace: Optional[str] = None,
    preempt: Optional[str] = None,
    preempt_events: Optional[List] = None,
    evicted: int = 0,
    detector: Optional[str] = None,
    wasted_work: float = 0.0,
    false_positives: int = 0,
    requeues: int = 0,
    detection_mean: Optional[float] = None,
    journal: Optional[str] = None,
    namenode_crashes: int = 0,
    recovery_mean: Optional[float] = None,
    journal_records: int = 0,
    checkpoints: int = 0,
    blame: Optional[Dict[str, float]] = None,
    blame_by_tenant: Optional[Dict[str, Dict[str, float]]] = None,
) -> ServiceReport:
    """Roll per-job records into the service-level report."""
    by_tenant: Dict[str, List[JobRecord]] = {}
    for r in records:
        by_tenant.setdefault(r.tenant, []).append(r)
    duration = max(end_time, horizon)
    tenants = [
        _tenant_slo(name, rs, duration)
        for name, rs in sorted(by_tenant.items())
    ]
    overall = _tenant_slo("(all)", list(records), duration)
    fairness = jain_fairness(
        [t.served_seconds for t in tenants]
    ) if len(tenants) > 1 else (1.0 if tenants else None)
    return ServiceReport(
        policy=policy,
        pattern=pattern,
        seed=seed,
        horizon=horizon,
        end_time=end_time,
        overall=overall,
        tenants=tenants,
        fairness=fairness,
        records=list(records),
        autoscale=autoscale,
        node_hours=node_hours,
        dedicated_final=dedicated_final,
        scale_events=list(scale_events or []),
        trace=trace,
        preempt=preempt,
        preempt_events=list(preempt_events or []),
        evicted=evicted,
        detector=detector,
        wasted_work=wasted_work,
        false_positives=false_positives,
        requeues=requeues,
        detection_mean=detection_mean,
        journal=journal,
        namenode_crashes=namenode_crashes,
        recovery_mean=recovery_mean,
        journal_records=journal_records,
        checkpoints=checkpoints,
        blame=blame,
        blame_by_tenant=blame_by_tenant,
    )
