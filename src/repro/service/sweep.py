"""Parallel sweep runner: policy × scale × seed grids across processes.

One simulated run answers one question; a policy comparison answers it
on *one* stream.  The questions the service layer actually gets asked
— "does EDF still win at 3x load?", "is the SJF advantage just seed
luck?" — need a grid, and a grid is embarrassingly parallel: every
cell is an independent, seed-deterministic world.  :func:`run_sweep`
fans the cells across worker processes and merges the results into a
report that is **byte-stable**: the same grid produces the identical
JSON whether it ran on 1 process or 16, today or tomorrow — cells are
keyed by their grid coordinates, ordered by grid order, and carry no
wall-clock content.  `repro diff` (or plain ``cmp``) on two sweep
files is therefore a regression test.

The scale axis multiplies the offered load (jobs/hour), not the
cluster: the paper's serving question is how policies degrade as the
same machines get busier.  Every cell re-derives its arrival stream
from its own seed, so cells never share RNG state and any subset of
the grid can be re-run in isolation to the same numbers.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigError
from .queue import QUEUE_POLICIES

#: Bump on any incompatible change to the merged-report layout.
SWEEP_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepSpec:
    """The grid and the fixed world every cell shares."""

    policies: Tuple[str, ...] = tuple(QUEUE_POLICIES)
    #: Load multipliers applied to ``jobs_per_hour``.
    scales: Tuple[float, ...] = (1.0,)
    seeds: Tuple[int, ...] = (42,)
    jobs_per_hour: float = 12.0
    hours: float = 1.0
    n_volatile: int = 8
    n_dedicated: int = 2
    unavailability_rate: float = 0.3
    catalog: str = "sleep"
    max_in_flight: int = 4
    max_queue_depth: Optional[int] = 64
    tenants: int = 3
    block_mb: float = 4.0

    def validate(self) -> None:
        if not self.policies or not self.scales or not self.seeds:
            raise ConfigError("sweep needs >=1 policy, scale and seed")
        for p in self.policies:
            if p not in QUEUE_POLICIES:
                raise ConfigError(f"unknown queue policy: {p!r}")
        if len(set(self.policies)) != len(self.policies):
            raise ConfigError("duplicate policies in sweep grid")
        if len(set(self.scales)) != len(self.scales):
            raise ConfigError("duplicate scales in sweep grid")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("duplicate seeds in sweep grid")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("scales must be positive")
        if self.jobs_per_hour <= 0 or self.hours <= 0:
            raise ConfigError("jobs_per_hour and hours must be positive")
        if self.catalog not in ("sleep", "mixed"):
            raise ConfigError(f"unknown catalog: {self.catalog!r}")

    def cells(self) -> Iterator["SweepCell"]:
        """Grid order — the canonical order of the merged report."""
        for policy in self.policies:
            for scale in self.scales:
                for seed in self.seeds:
                    yield SweepCell(policy, scale, seed)


@dataclass(frozen=True)
class SweepCell:
    policy: str
    scale: float
    seed: int

    @property
    def key(self) -> str:
        return f"{self.policy}/x{self.scale:g}/s{self.seed}"


@dataclass
class SweepResult:
    """The merged, byte-stable sweep report."""

    spec: SweepSpec
    #: One report dict per cell, in grid order.
    cells: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema_version": SWEEP_SCHEMA_VERSION,
            "grid": {
                "policies": list(self.spec.policies),
                "scales": list(self.spec.scales),
                "seeds": list(self.spec.seeds),
                "jobs_per_hour": self.spec.jobs_per_hour,
                "hours": self.spec.hours,
                "volatile": self.spec.n_volatile,
                "dedicated": self.spec.n_dedicated,
                "unavailability_rate": self.spec.unavailability_rate,
                "catalog": self.spec.catalog,
            },
            "cells": self.cells,
        }

    def to_json(self) -> str:
        """Canonical bytes: sorted keys, fixed separators, newline."""
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        )


def run_cell(spec: SweepSpec, cell: SweepCell) -> dict:
    """One grid cell, built from scratch in whatever process runs it.

    Imports live inside the function so a spawned worker pays them
    once, and so this module stays importable without dragging the
    whole stack in for spec validation.
    """
    from ..config import (
        ClusterConfig,
        SystemConfig,
        TraceConfig,
        moon_scheduler_config,
    )
    from .service import ServiceConfig
    from .world import RunSpec, SyntheticArrivals, numbered_tenants, run

    report, _service = run(
        RunSpec(
            system=SystemConfig(
                cluster=ClusterConfig(
                    n_volatile=spec.n_volatile, n_dedicated=spec.n_dedicated
                ),
                trace=TraceConfig(
                    unavailability_rate=spec.unavailability_rate
                ),
                scheduler=moon_scheduler_config(),
                seed=cell.seed,
            ),
            service=ServiceConfig(
                policy=cell.policy,
                max_in_flight=spec.max_in_flight,
                max_queue_depth=spec.max_queue_depth,
                horizon=spec.hours * 3600.0,
            ),
            arrivals=SyntheticArrivals(
                jobs_per_hour=spec.jobs_per_hour * cell.scale,
                catalog=spec.catalog,
                block_mb=spec.block_mb,
                tenants=numbered_tenants(spec.tenants),
            ),
        )
    )
    return {
        "policy": cell.policy,
        "scale": cell.scale,
        "seed": cell.seed,
        "report": report.to_dict(),
    }


def _run_cell_worker(payload: Tuple[SweepSpec, SweepCell]) -> dict:
    spec, cell = payload
    return run_cell(spec, cell)


def run_sweep(spec: SweepSpec, procs: int = 1) -> SweepResult:
    """Run the grid on ``procs`` worker processes; merge in grid order.

    ``procs=1`` runs inline (no pool, easier debugging) and is
    guaranteed byte-identical to any ``procs>1`` run: cell results are
    reassembled by grid position, never by completion order.
    """
    spec.validate()
    if procs < 1:
        raise ConfigError("procs must be >= 1")
    cells = list(spec.cells())
    if procs == 1 or len(cells) == 1:
        results = [run_cell(spec, cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=min(procs, len(cells))) as ex:
            # Executor.map preserves input order regardless of which
            # worker finishes first — the merge is the identity.
            results = list(
                ex.map(_run_cell_worker, [(spec, c) for c in cells])
            )
    return SweepResult(spec=spec, cells=results)


def sweep_summary_rows(result: SweepResult) -> List[List]:
    """Per-cell table rows (policy, scale, seed + the summary columns)
    for the CLI; pure formatting over the canonical dicts."""
    def sec(v) -> str:
        return "-" if v is None else f"{v:.1f}"

    def pct(v) -> str:
        return "-" if v is None else f"{100.0 * v:.1f}%"

    rows: List[List] = []
    for cell in result.cells:
        overall = cell["report"]["overall"]
        rows.append(
            [
                cell["policy"],
                f"x{cell['scale']:g}",
                cell["seed"],
                overall["completed"],
                sec(overall["p50"]),
                sec(overall["p95"]),
                pct(overall["miss_rate"]),
                f"{overall['goodput_per_hour']:.2f}",
            ]
        )
    return rows
