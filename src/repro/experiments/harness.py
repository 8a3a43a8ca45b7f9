"""Shared experiment runner with per-process result caching.

Figures share runs (Fig. 5 reuses Fig. 4's, Table II reuses Fig. 6's),
so results are memoised on a structural key (a bounded LRU —
:data:`CACHE_MAX_ENTRIES` — with :func:`clear_cache` for explicit
release between benchmark modules).  Every cell is averaged
over the scale's seeds; a job that does not finish within the 8-hour
trace window is recorded as ``None`` (the paper reports exactly this
for plain Hadoop without intermediate replication).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SchedulerConfig, SystemConfig
from ..core import JobResult, MoonSystem, hadoop_system, moon_system
from ..dfs import ReplicationFactor
from ..workloads import JobSpec
from .scale import Scale, system_config

#: LRU bound on memoised cells: full-scale runs hold hundreds of
#: JobResults (each with task-level profiles), so an unbounded memo
#: grows without limit across a long pytest session.
CACHE_MAX_ENTRIES = 128

_cache: "OrderedDict[tuple, List[JobResult]]" = OrderedDict()


def clear_cache() -> None:
    """Drop every memoised cell (called between benchmark modules)."""
    _cache.clear()


def cache_size() -> int:
    return len(_cache)


def _key(spec: JobSpec, rate, sched: SchedulerConfig, seed, hadoop_mode,
         n_dedicated, network_model) -> tuple:
    return (
        spec.name, spec.n_maps, spec.n_reduces, spec.reduces_per_slot,
        round(spec.map_input_mb, 4), round(spec.map_output_mb, 4),
        spec.map_cpu_seconds, spec.intermediate_rf, spec.input_rf,
        spec.output_rf, spec.intermediate_reliable,
        rate, sched.kind, sched.tracker_expiry_interval,
        sched.suspension_interval, sched.hybrid_aware,
        sched.homestretch_threshold_pct, sched.homestretch_replicas,
        sched.speculative_cap_fraction,
        seed, hadoop_mode, n_dedicated, network_model,
    )


def run_job_once(
    cfg: SystemConfig,
    spec: JobSpec,
    hadoop_mode: bool,
    time_limit: float,
) -> Tuple[JobResult, MoonSystem]:
    """Build one batch-job world, run ``spec`` on it, stop its daemons."""
    system = hadoop_system(cfg) if hadoop_mode else moon_system(cfg)
    result = system.run_job(spec, time_limit=time_limit)
    system.jobtracker.stop()
    system.namenode.stop()
    return result, system


def run_cell(
    scale: Scale,
    spec: JobSpec,
    rate: float,
    scheduler: SchedulerConfig,
    hadoop_mode: bool = False,
    n_dedicated: Optional[int] = None,
    network_model: str = "fifo",
) -> List[JobResult]:
    """All-seeds results for one experiment cell (memoised)."""
    key = _key(spec, rate, scheduler, scale.seeds, hadoop_mode,
               n_dedicated, network_model)
    if key in _cache:
        _cache.move_to_end(key)
        return _cache[key]
    results: List[JobResult] = []
    for seed in scale.seeds:
        cfg = system_config(
            scale, rate, scheduler, seed,
            n_dedicated=n_dedicated, network_model=network_model,
        )
        result, _system = run_job_once(
            cfg, spec, hadoop_mode, scale.time_limit
        )
        results.append(result)
    _cache[key] = results
    while len(_cache) > CACHE_MAX_ENTRIES:
        _cache.popitem(last=False)
    return results


def mean_elapsed(results: List[JobResult]) -> Optional[float]:
    """Mean time of finished runs; None if nothing finished (DNF)."""
    done = [r.elapsed for r in results if r.succeeded]
    return float(np.mean(done)) if done else None


def mean_counter(results: List[JobResult], what: str) -> float:
    """Mean of one RunMetrics counter across a cell's seeds."""
    vals = [getattr(r.metrics, what) for r in results]
    return float(np.mean(vals)) if vals else 0.0


def rf(d: int, v: int) -> ReplicationFactor:
    """Shorthand for a {d, v} replication factor."""
    return ReplicationFactor(d, v)


# Paper policy constructors (Fig. 4/5 legend).
def hadoop_policy(minutes: float) -> SchedulerConfig:
    """HadoopXMin legend entry: stock policy, X-minute expiry."""
    return SchedulerConfig(
        kind="hadoop",
        tracker_expiry_interval=minutes * 60.0,
        hybrid_aware=False,
    )


def moon_policy(hybrid: bool) -> SchedulerConfig:
    """MOON / MOON-Hybrid legend entry (paper intervals)."""
    return SchedulerConfig(
        kind="moon",
        tracker_expiry_interval=1800.0,
        suspension_interval=60.0,
        hybrid_aware=hybrid,
    )


def late_policy() -> SchedulerConfig:
    """LATE baseline legend entry (XTRA-C)."""
    return SchedulerConfig(
        kind="late", tracker_expiry_interval=600.0, hybrid_aware=False
    )


SCHED_POLICIES: Dict[str, SchedulerConfig] = {
    "Hadoop10Min": hadoop_policy(10),
    "Hadoop5Min": hadoop_policy(5),
    "Hadoop1Min": hadoop_policy(1),
    "MOON": moon_policy(False),
    "MOON-Hybrid": moon_policy(True),
}

RATES: Tuple[float, ...] = (0.1, 0.3, 0.5)
