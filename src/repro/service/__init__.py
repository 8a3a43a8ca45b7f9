"""Service layer (S11): continuous job-stream serving on MOON.

The paper's Section VIII names "the scheduling and QoS issues of
concurrent MapReduce jobs on opportunistic environments" as open
future work.  This package supplies that layer: arrival streams
(:mod:`~repro.service.arrivals`), a bounded multi-tenant job queue
with pluggable ordering (:mod:`~repro.service.queue`), the service
loop itself (:mod:`~repro.service.service`), SLO accounting
(:mod:`~repro.service.slo`), and — making the paper's Section VII
provisioning question dynamic — the dedicated-tier autoscaler
(:mod:`~repro.service.autoscale`): static/reactive/predictive
controllers that grow and shrink the dedicated tier against queue
depth, deadline-miss rate and occupancy, with per-decision audit
records and node-hours cost accounting.  SLO-aware preemption
(:mod:`~repro.service.preempt`) closes the remaining gap: when
tight-SLO arrivals queue behind admitted loose-SLO work, a controller
deprioritises — and under sustained pressure pauses — in-flight
victims through the JobTracker's job-level hooks, and the saturated
queue can price admission by cost-of-missing instead of arrival order
(:func:`~repro.service.queue.admission_price`).

See docs/ARCHITECTURE.md#service-layer for the layer map.
"""

from .arrivals import (
    DEFAULT_TENANTS,
    JobArrival,
    WorkloadClass,
    bursty_arrivals,
    default_catalog,
    diurnal_arrivals,
    poisson_arrivals,
    poisson_arrivals_vectorised,
    replay_arrivals,
    sleep_catalog,
)
from .autoscale import (
    AUTOSCALE_POLICIES,
    AutoscaleConfig,
    Autoscaler,
    ScaleDecision,
    render_decisions,
)
from .preempt import (
    PREEMPT_MODES,
    PreemptConfig,
    PreemptEvent,
    PreemptionController,
    render_preempt_events,
)
from .queue import (
    QUEUE_POLICIES,
    JobQueue,
    QueueContext,
    QueuedJob,
    admission_price,
    make_cost_estimator,
    make_queue_policy,
)
from .service import MoonService, ServiceConfig
from .sweep import (
    SWEEP_SCHEMA_VERSION,
    SweepCell,
    SweepResult,
    SweepSpec,
    run_sweep,
    sweep_summary_rows,
)
from .slo import (
    REPORT_SCHEMA_VERSION,
    JobRecord,
    ServedState,
    ServiceReport,
    TenantSlo,
    build_report,
    jain_fairness,
)

__all__ = [
    "JobArrival",
    "WorkloadClass",
    "DEFAULT_TENANTS",
    "default_catalog",
    "sleep_catalog",
    "poisson_arrivals",
    "poisson_arrivals_vectorised",
    "bursty_arrivals",
    "diurnal_arrivals",
    "replay_arrivals",
    "QUEUE_POLICIES",
    "JobQueue",
    "QueueContext",
    "QueuedJob",
    "admission_price",
    "make_queue_policy",
    "make_cost_estimator",
    "PREEMPT_MODES",
    "PreemptConfig",
    "PreemptEvent",
    "PreemptionController",
    "render_preempt_events",
    "MoonService",
    "ServiceConfig",
    "SWEEP_SCHEMA_VERSION",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "sweep_summary_rows",
    "AUTOSCALE_POLICIES",
    "AutoscaleConfig",
    "Autoscaler",
    "ScaleDecision",
    "render_decisions",
    "JobRecord",
    "ServedState",
    "TenantSlo",
    "ServiceReport",
    "REPORT_SCHEMA_VERSION",
    "build_report",
    "jain_fairness",
]
