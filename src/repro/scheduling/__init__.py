"""Task scheduling policies (S7).

Owns the per-slot decision "which task of this job runs here, and is
it speculative?": the shared :class:`SchedulerPolicy` machinery
(per-tick memoised candidate lists, straggler detection, speculative
caps) and three concrete policies — stock Hadoop (paper II-C), LATE,
and MOON's frozen-task/two-phase/hybrid-aware scheduler (paper
Section V: Figs. 4 and 5 compare them).  A refusal is either
``None`` (not on this tracker) or :data:`EXHAUSTED` (not on any
tracker this tick), which lets the JobTracker stop asking.  The
service-mode ``dedicated_primary`` extension lets dedicated slots run
primary tasks, making the autoscaled tier real capacity.

See docs/ARCHITECTURE.md#scheduling-policies for the layer map.
"""

from ..config import SchedulerConfig
from .answers import EXHAUSTED
from .base import SchedulerPolicy
from .hadoop import HadoopScheduler
from .late import LateScheduler
from .moon import MoonScheduler

__all__ = [
    "EXHAUSTED",
    "SchedulerPolicy",
    "HadoopScheduler",
    "MoonScheduler",
    "LateScheduler",
    "make_scheduler",
]


def make_scheduler(cfg: SchedulerConfig) -> SchedulerPolicy:
    """Factory keyed on ``SchedulerConfig.kind``."""
    if cfg.kind == "hadoop":
        return HadoopScheduler(cfg)
    if cfg.kind == "moon":
        return MoonScheduler(cfg)
    if cfg.kind == "late":
        return LateScheduler(cfg)
    raise ValueError(f"unknown scheduler kind {cfg.kind!r}")
