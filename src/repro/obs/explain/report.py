"""Explanation assembly and rendering (``repro explain`` backend).

:func:`explain_events` is the one entry point: events in, a
:class:`RunExplanation` out — per-job blame, run-local aggregation by
tenant and workload class, and deterministic text tables.  Everything
rendered here uses run-local labels only (service seq / submit index),
the identities the service report and its audit tables print too, so
a job reads the same in every artifact of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...plotting import table
from .blame import BLAME_CATEGORIES, JobBlame, aggregate, attribute_run
from .model import (
    RunContext,
    build_graphs,
    events_from_tracer,
    load_chrome_trace,
)

#: Version stamp of :meth:`RunExplanation.to_dict` (mirrors
#: ``ServiceReport.to_dict`` versioning).
EXPLAIN_SCHEMA_VERSION = 1

#: Short column headers, one per category, taxonomy order.
_CAT_HEADERS = {
    "queue_wait": "queue s",
    "exec": "exec s",
    "shuffle": "shuf s",
    "straggler_wait": "stragl s",
    "reexec_failure": "re-fail s",
    "reexec_suspicion": "re-susp s",
    "pause": "pause s",
    "recovery": "recov s",
    "slot_wait": "slot s",
    "commit": "commit s",
}


def _fmt(v: float) -> str:
    return f"{v:.1f}"


@dataclass
class RunExplanation:
    """Everything the explain layer derived from one run's trace."""

    jobs: List[JobBlame]
    ctx: RunContext = field(repr=False, default=None)
    #: Admitted jobs the trace saw start but never finish (no blame —
    #: there is no response time to conserve against).
    unfinished: int = 0

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def job(self, seq: int) -> Optional[JobBlame]:
        """The job with service seq ``seq`` (or submit index for
        batch traces without a queue)."""
        for blame in self.jobs:
            if blame.graph.seq == seq:
                return blame
        for blame in self.jobs:
            if blame.graph.seq is None and blame.graph.index == seq:
                return blame
        return None

    def worst(self, k: int) -> List[JobBlame]:
        """The k slowest jobs by response time (deterministic
        tie-break on submit order)."""
        ranked = sorted(
            self.jobs,
            key=lambda b: (-b.response_time, b.graph.index),
        )
        return ranked[:k]

    def tenant_jobs(self, tenant: str) -> List[JobBlame]:
        return [b for b in self.jobs if b.graph.tenant == tenant]

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def by_tenant(self) -> Dict[str, Dict[str, float]]:
        return aggregate(self.jobs, lambda b: b.graph.tenant or "(batch)")

    def by_workload(self) -> Dict[str, Dict[str, float]]:
        return aggregate(self.jobs, lambda b: b.graph.workload or "?")

    def totals(self) -> Dict[str, float]:
        """Run-wide component sums (the ``blame/*`` metrics)."""
        return {
            c: math.fsum(b.components[c] for b in self.jobs)
            for c in BLAME_CATEGORIES
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _group_table(
        self, groups: Dict[str, Dict[str, float]], label: str, title: str
    ) -> str:
        headers = [label, "jobs", "resp s"] + [
            _CAT_HEADERS[c] for c in BLAME_CATEGORIES
        ]
        counts: Dict[str, int] = {}
        for blame in self.jobs:
            key = (
                (blame.graph.tenant or "(batch)")
                if label == "tenant"
                else (blame.graph.workload or "?")
            )
            counts[key] = counts.get(key, 0) + 1
        rows = []
        for name, comps in groups.items():
            total = math.fsum(comps.values())
            rows.append(
                [name, counts.get(name, 0), _fmt(total)]
                + [_fmt(comps[c]) for c in BLAME_CATEGORIES]
            )
        return table(headers, rows, title=title)

    def render_aggregates(self) -> str:
        """Blame-by-tenant and blame-by-workload tables."""
        parts = [
            self._group_table(
                self.by_tenant(), "tenant",
                "blame by tenant (seconds of summed response time)",
            ),
            self._group_table(
                self.by_workload(), "class",
                "blame by job class",
            ),
        ]
        if self.unfinished:
            parts.append(
                f"({self.unfinished} admitted job(s) never finished - "
                "not attributable)"
            )
        return "\n\n".join(parts)

    def render_job(self, blame: JobBlame) -> str:
        """One job's breakdown plus its critical-path segments."""
        g = blame.graph
        head = (
            f"{g.label} tenant={g.tenant or '-'} "
            f"class={g.workload or '?'} state={g.state or '?'} "
            f"response={blame.response_time:.1f}s "
            f"(arrived {g.arrival:.1f}s, finished {g.finished:.1f}s; "
            f"{g.maps} maps, {g.reduces} reduces)"
        )
        lines = [head, "  blame:"]
        for c in BLAME_CATEGORIES:
            v = blame.components[c]
            if v > 1e-9:
                share = v / blame.response_time if blame.response_time else 0.0
                lines.append(f"    {c:<17} {v:9.1f}s  {share:6.1%}")
        lines.append(
            f"    {'(sum)':<17} {blame.total:9.1f}s  "
            f"(response {blame.response_time:.1f}s)"
        )
        lines.append("  critical path:")
        for seg in blame.segments:
            anchor = f"  <- {seg.anchor}" if seg.anchor else ""
            lines.append(
                f"    {seg.start:10.1f}s .. {seg.end:10.1f}s "
                f"{seg.category:<17} {seg.seconds:8.1f}s{anchor}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Versioned summary for ``repro explain --json``."""
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "jobs": [
                {
                    "label": b.graph.label,
                    "seq": b.graph.seq,
                    "tenant": b.graph.tenant,
                    "workload": b.graph.workload,
                    "state": b.graph.state,
                    "response_time": b.response_time,
                    "blame": dict(b.components),
                }
                for b in self.jobs
            ],
            "by_tenant": self.by_tenant(),
            "by_workload": self.by_workload(),
            "totals": self.totals(),
            "unfinished": self.unfinished,
        }


def explain_events(events) -> RunExplanation:
    """Events (recording order) -> a full run explanation."""
    graphs, ctx = build_graphs(events)
    blames = attribute_run(graphs, ctx)
    unfinished = sum(1 for g in graphs if g.finished is None)
    return RunExplanation(jobs=blames, ctx=ctx, unfinished=unfinished)


def explain_tracer(tracer) -> RunExplanation:
    """Explain a live tracer (``MoonService`` calls this post-run)."""
    return explain_events(events_from_tracer(tracer))


def explain_trace_file(path: str) -> RunExplanation:
    """Explain a ``--trace-out`` Chrome-trace JSON offline."""
    return explain_events(load_chrome_trace(path))
