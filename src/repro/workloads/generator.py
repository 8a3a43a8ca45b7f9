"""Randomised workload generation for stress/property testing."""

from __future__ import annotations

import numpy as np

from ..dfs import ReplicationFactor
from .base import JobSpec


def random_spec(rng: np.random.Generator, max_maps: int = 64) -> JobSpec:
    """A random but valid job, used by integration/property tests to
    shake out scheduler and DFS edge cases."""
    n_maps = int(rng.integers(1, max_maps + 1))
    n_reduces = int(rng.integers(0, max(1, n_maps // 2) + 1))
    spec = JobSpec(
        name=f"random-{rng.integers(1e9)}",
        n_maps=n_maps,
        n_reduces=max(1, n_reduces),
        map_input_mb=float(rng.uniform(1.0, 64.0)),
        map_output_mb=float(rng.uniform(0.1, 64.0)),
        reduce_output_mb=float(rng.uniform(0.0, 64.0)),
        map_cpu_seconds=float(rng.uniform(1.0, 60.0)),
        reduce_cpu_seconds=float(rng.uniform(1.0, 30.0)),
        sort_seconds_per_mb=float(rng.uniform(0.0, 0.05)),
        input_rf=ReplicationFactor(int(rng.integers(0, 2)), int(rng.integers(1, 4))),
        intermediate_rf=ReplicationFactor(
            int(rng.integers(0, 2)), int(rng.integers(1, 3))
        ),
        output_rf=ReplicationFactor(int(rng.integers(0, 2)), int(rng.integers(1, 4))),
    )
    spec.validate()
    return spec
