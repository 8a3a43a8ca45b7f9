"""Workloads (S8): the paper's Table-I applications + extensions.

Owns the static description of jobs: :class:`JobSpec` (per-task data
volumes, compute costs, replication factors) and the factories for
the paper's Table I applications (sort, word count), the data-free
sleep jobs of Section VI-A, and a grep extension used by the service
catalog.  Durations are calibrated so contention effects emerge from
the simulated I/O system rather than from constants.

See docs/ARCHITECTURE.md#workloads for the layer map.
"""

from .base import (
    HADOOP_VO_RF,
    MOON_INTERMEDIATE_RF,
    MOON_RELIABLE_RF,
    JobSpec,
    scaled,
)
from .generator import random_spec
from .grep import grep_spec
from .sleep import sleep_like_sort, sleep_like_wordcount, sleep_spec
from .sort import sort_spec
from .wordcount import wordcount_spec

__all__ = [
    "JobSpec",
    "scaled",
    "sort_spec",
    "wordcount_spec",
    "sleep_spec",
    "sleep_like_sort",
    "sleep_like_wordcount",
    "grep_spec",
    "random_spec",
    "MOON_RELIABLE_RF",
    "MOON_INTERMEDIATE_RF",
    "HADOOP_VO_RF",
]
