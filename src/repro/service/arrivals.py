"""Job-arrival streams for continuous serving (paper VIII future work).

The paper studies single jobs submitted at t = 0; a serving front-end
instead sees an *arrival process*: jobs of different classes arriving
over a horizon, each owned by a tenant and carrying a response-time
SLO.  This module turns the existing :class:`~repro.workloads.JobSpec`
catalogue into such streams.

Every generator draws from one caller-supplied
``numpy.random.Generator`` (use the simulation's named streams, e.g.
``sim.rng("service/arrivals")``) so a stream is a pure function of the
root seed: identical across queue policies, which is how policy
comparisons stay apples-to-apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import HOUR
from ..errors import ConfigError
from ..workloads import JobSpec, grep_spec, sleep_spec, sort_spec, wordcount_spec


@dataclass(frozen=True)
class JobArrival:
    """One job hitting the service front door.

    ``deadline`` is an *absolute* simulated time (arrival + SLO); jobs
    without an SLO carry ``None`` and never count as deadline misses.
    """

    arrival_time: float
    tenant: str
    spec: JobSpec
    deadline: Optional[float] = None
    priority: int = 0

    def validate(self) -> None:
        if self.arrival_time < 0:
            raise ConfigError("arrival_time must be non-negative")
        if self.deadline is not None and self.deadline < self.arrival_time:
            raise ConfigError("deadline must not precede the arrival")
        self.spec.validate()


@dataclass(frozen=True)
class WorkloadClass:
    """One entry of the service catalogue: a job shape plus its SLO."""

    spec: JobSpec
    #: Response-time SLO in seconds (arrival -> completion); None = none.
    slo_seconds: Optional[float]
    weight: float = 1.0

    def validate(self) -> None:
        if self.weight <= 0:
            raise ConfigError("workload-class weight must be positive")
        if self.slo_seconds is not None and self.slo_seconds <= 0:
            raise ConfigError("slo_seconds must be positive")
        self.spec.validate()


def default_catalog(block_mb: float = 4.0) -> List[WorkloadClass]:
    """A small three-class traffic mix built from the Table-I shapes.

    Interactive grep queries dominate the stream (tight SLO), hourly
    word-count reports sit in the middle, and occasional batch sorts
    bring heavy data volume with a loose SLO.
    """
    return [
        WorkloadClass(
            grep_spec(n_maps=6, block_mb=block_mb, map_cpu_seconds=8.0),
            slo_seconds=10 * 60.0,
            weight=0.5,
        ),
        WorkloadClass(
            wordcount_spec(
                n_maps=16, block_mb=block_mb, n_reduces=4,
                map_cpu_seconds=30.0,
            ),
            slo_seconds=30 * 60.0,
            weight=0.3,
        ),
        WorkloadClass(
            # A fixed reduce count: a served job should not size itself
            # from whole-cluster slots it will share with other jobs.
            sort_spec(n_maps=24, block_mb=block_mb).with_(
                n_reduces=8, reduces_per_slot=0.0
            ),
            slo_seconds=60 * 60.0,
            weight=0.2,
        ),
    ]


def sleep_catalog() -> List[WorkloadClass]:
    """A data-free mix (paper VI-A sleep jobs) for fast policy studies.

    Short interactive jobs carry a tight SLO; long batch jobs a loose
    one — the regime where queue ordering (EDF vs FIFO) decides the
    deadline-miss rate under bursts.
    """
    return [
        WorkloadClass(
            sleep_spec(30.0, 10.0, n_maps=8, n_reduces=2).with_(
                name="sleep-interactive"
            ),
            slo_seconds=10 * 60.0,
            weight=0.6,
        ),
        WorkloadClass(
            sleep_spec(300.0, 120.0, n_maps=8, n_reduces=2).with_(
                name="sleep-batch"
            ),
            slo_seconds=90 * 60.0,
            weight=0.4,
        ),
    ]


DEFAULT_TENANTS: Tuple[str, ...] = ("tenant-a", "tenant-b", "tenant-c")


# ======================================================================
# Internals shared by the generators
# ======================================================================
def _validated(
    catalog: Sequence[WorkloadClass], tenants: Sequence[str]
) -> None:
    if not catalog:
        raise ConfigError("catalog must contain at least one workload class")
    for cls in catalog:
        cls.validate()
    if not tenants:
        raise ConfigError("need at least one tenant")


def _class_weights(catalog: Sequence[WorkloadClass]) -> np.ndarray:
    w = np.array([c.weight for c in catalog], dtype=float)
    return w / w.sum()


def _tenant_weights(
    tenants: Sequence[str], weights: Optional[Dict[str, float]]
) -> np.ndarray:
    if weights is None:
        w = np.ones(len(tenants), dtype=float)
    else:
        w = np.array([weights.get(t, 1.0) for t in tenants], dtype=float)
    if (w <= 0).any():
        raise ConfigError("tenant weights must be positive")
    return w / w.sum()


def _make_arrival(
    time: float,
    rng: np.random.Generator,
    catalog: Sequence[WorkloadClass],
    p_class: np.ndarray,
    tenants: Sequence[str],
    p_tenant: np.ndarray,
) -> JobArrival:
    cls = catalog[int(rng.choice(len(catalog), p=p_class))]
    tenant = tenants[int(rng.choice(len(tenants), p=p_tenant))]
    deadline = None if cls.slo_seconds is None else time + cls.slo_seconds
    return JobArrival(time, tenant, cls.spec, deadline)


# ======================================================================
# Generators
# ======================================================================
def poisson_arrivals(
    rng: np.random.Generator,
    rate_per_hour: float,
    horizon: float,
    catalog: Optional[Sequence[WorkloadClass]] = None,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    tenant_weights: Optional[Dict[str, float]] = None,
) -> List[JobArrival]:
    """Homogeneous Poisson stream: exponential inter-arrival gaps."""
    if rate_per_hour <= 0 or horizon <= 0:
        raise ConfigError("rate_per_hour and horizon must be positive")
    catalog = list(catalog) if catalog is not None else default_catalog()
    _validated(catalog, tenants)
    p_class = _class_weights(catalog)
    p_tenant = _tenant_weights(tenants, tenant_weights)
    mean_gap = HOUR / rate_per_hour
    out: List[JobArrival] = []
    t = float(rng.exponential(mean_gap))
    while t < horizon:
        out.append(_make_arrival(t, rng, catalog, p_class, tenants, p_tenant))
        t += float(rng.exponential(mean_gap))
    return out


def bursty_arrivals(
    rng: np.random.Generator,
    bursts_per_hour: float,
    burst_size_mean: float,
    horizon: float,
    catalog: Optional[Sequence[WorkloadClass]] = None,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    tenant_weights: Optional[Dict[str, float]] = None,
    within_burst_gap: float = 5.0,
) -> List[JobArrival]:
    """Burst epochs are Poisson; each epoch drops a geometric batch.

    Models the lab-session pattern of opportunistic environments (cf.
    the correlated-outage traces): quiet stretches punctuated by many
    near-simultaneous submissions — the load shape under which queue
    ordering matters most.
    """
    if bursts_per_hour <= 0 or horizon <= 0:
        raise ConfigError("bursts_per_hour and horizon must be positive")
    if burst_size_mean < 1:
        raise ConfigError("burst_size_mean must be >= 1")
    if within_burst_gap < 0:
        raise ConfigError("within_burst_gap must be non-negative")
    catalog = list(catalog) if catalog is not None else default_catalog()
    _validated(catalog, tenants)
    p_class = _class_weights(catalog)
    p_tenant = _tenant_weights(tenants, tenant_weights)
    mean_gap = HOUR / bursts_per_hour
    out: List[JobArrival] = []
    epoch = float(rng.exponential(mean_gap))
    while epoch < horizon:
        # geometric(1/m) has support {1, 2, ...} and mean m: every
        # burst carries at least one job and averages burst_size_mean.
        size = int(rng.geometric(1.0 / burst_size_mean))
        t = epoch
        for _ in range(size):
            if t >= horizon:
                break
            out.append(
                _make_arrival(t, rng, catalog, p_class, tenants, p_tenant)
            )
            t += float(rng.exponential(within_burst_gap))
        epoch += float(rng.exponential(mean_gap))
    out.sort(key=lambda a: a.arrival_time)
    return out


def diurnal_arrivals(
    rng: np.random.Generator,
    peak_rate_per_hour: float,
    horizon: float,
    catalog: Optional[Sequence[WorkloadClass]] = None,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    tenant_weights: Optional[Dict[str, float]] = None,
    trough_fraction: float = 0.2,
    period: float = 24 * HOUR,
) -> List[JobArrival]:
    """Non-homogeneous Poisson via thinning: a day/night rate cycle.

    The instantaneous rate swings sinusoidally between
    ``trough_fraction * peak`` (midnight) and ``peak`` (midday) — the
    same student-lab rhythm behind the paper's Fig. 1 availability
    profile, applied to the demand side.
    """
    if peak_rate_per_hour <= 0 or horizon <= 0:
        raise ConfigError("peak_rate_per_hour and horizon must be positive")
    if not 0.0 < trough_fraction <= 1.0:
        raise ConfigError("trough_fraction must be in (0, 1]")
    if period <= 0:
        raise ConfigError("period must be positive")
    catalog = list(catalog) if catalog is not None else default_catalog()
    _validated(catalog, tenants)
    p_class = _class_weights(catalog)
    p_tenant = _tenant_weights(tenants, tenant_weights)
    mean_gap = HOUR / peak_rate_per_hour
    out: List[JobArrival] = []
    t = float(rng.exponential(mean_gap))
    while t < horizon:
        # rate(t)/peak in [trough, 1], minimum at t = 0 (midnight).
        shape = 0.5 * (1.0 - math.cos(2.0 * math.pi * t / period))
        accept_p = trough_fraction + (1.0 - trough_fraction) * shape
        if float(rng.random()) < accept_p:
            out.append(
                _make_arrival(t, rng, catalog, p_class, tenants, p_tenant)
            )
        t += float(rng.exponential(mean_gap))
    return out


def poisson_arrivals_vectorised(
    gap_rng: np.random.Generator,
    pick_rng: np.random.Generator,
    rate_per_hour: float,
    horizon: float,
    catalog: Optional[Sequence[WorkloadClass]] = None,
    tenants: Sequence[str] = DEFAULT_TENANTS,
    tenant_weights: Optional[Dict[str, float]] = None,
    block: int = 8192,
) -> List[JobArrival]:
    """Batched Poisson stream for day-scale workloads (``scale10k``).

    :func:`poisson_arrivals` draws one exponential gap and two weighted
    picks *per arrival*, which is minutes of pure Generator call
    overhead at a million jobs.  This builder draws gaps in blocks of
    ``block`` standard exponentials and both picks as one doubles
    block, on **two dedicated streams** (gaps vs picks) so each stays
    homogeneous and batchable.

    Determinism contract: byte-identical to the scalar loop over the
    same two streams (one gap, then the class and tenant picks, per
    arrival) for every ``block`` size.  ``tests/test_sampling.py`` keeps
    that loop as its reference and pins this with hypothesis.  The output
    deliberately differs from :func:`poisson_arrivals` (one interleaved
    stream), whose draws the goldens pin; pick one builder per study
    and keep it.
    """
    if rate_per_hour <= 0 or horizon <= 0:
        raise ConfigError("rate_per_hour and horizon must be positive")
    if block < 1:
        raise ConfigError("block must be >= 1")
    catalog = list(catalog) if catalog is not None else default_catalog()
    _validated(catalog, tenants)
    cum_class = np.cumsum(_class_weights(catalog))
    cum_tenant = np.cumsum(_tenant_weights(tenants, tenant_weights))
    mean_gap = HOUR / rate_per_hour

    times: List[float] = []
    last = 0.0
    while True:
        gaps = mean_gap * gap_rng.standard_exponential(size=block)
        # Left-fold accumulation seeded with the previous block's tail:
        # np.add.accumulate is sequential, so this is bit-for-bit the
        # scalar ``t += gap`` loop.
        acc = np.add.accumulate(np.concatenate(([last], gaps)))[1:]
        cut = int(np.searchsorted(acc, horizon, side="left"))
        times.extend(acc[:cut].tolist())
        if cut < block:
            break
        last = float(acc[-1])

    n = len(times)
    u = pick_rng.random(size=2 * n)
    cls_idx = np.minimum(
        np.searchsorted(cum_class, u[0::2], side="right"), len(catalog) - 1
    )
    ten_idx = np.minimum(
        np.searchsorted(cum_tenant, u[1::2], side="right"), len(tenants) - 1
    )
    out: List[JobArrival] = []
    for i in range(n):
        cls = catalog[int(cls_idx[i])]
        t = times[i]
        deadline = None if cls.slo_seconds is None else t + cls.slo_seconds
        out.append(JobArrival(t, tenants[int(ten_idx[i])], cls.spec, deadline))
    return out


def replay_arrivals(
    entries: Sequence[Tuple[float, str, JobSpec, Optional[float]]],
) -> List[JobArrival]:
    """Deterministic replay of explicit ``(time, tenant, spec, slo)``
    tuples — the hook for trace-driven serving studies (fed by
    :func:`repro.workload_traces.trace_arrivals`).

    ``slo`` is relative (seconds after arrival), matching how real
    request logs record latency budgets; ``None`` means no deadline.

    **Ordering contract:** the output is sorted by ``arrival_time``
    with a *stable* sort, so entries sharing a timestamp keep their
    input order.  Trace parsers rely on this — a trace replays in
    exactly its stored order, duplicates included — and
    ``tests/test_service_arrivals.py`` locks it.
    """
    out: List[JobArrival] = []
    for time, tenant, spec, slo in entries:
        deadline = None if slo is None else time + slo
        arrival = JobArrival(float(time), tenant, spec, deadline)
        arrival.validate()
        out.append(arrival)
    out.sort(key=lambda a: a.arrival_time)
    return out
