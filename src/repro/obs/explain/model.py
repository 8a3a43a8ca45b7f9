"""Causal reconstruction: flight-recorder events -> per-job graphs.

The tracer records *what happened*; this module rebuilds *why* — one
:class:`JobGraph` per job, linking admission (``queue.wait``), launch
causes (``sched.assign``/attempt spans carry ``cause``), preemption
pauses, suspicion requeues, node outages, NameNode recovery windows
and the commit boundary into a single per-job causal timeline that
:mod:`repro.obs.explain.blame` partitions into blame categories.

Sources are interchangeable: a live :class:`~repro.obs.trace.Tracer`
(:func:`events_from_tracer`) or a Chrome-trace JSON file written by
``--trace-out`` (:func:`load_chrome_trace`) — the explain layer is an
offline consumer of the flight recorder, never a participant in the
simulation.

Identifier discipline: job and attempt ids (``job12``, attempt 473)
are issued per world by its JobTracker, so they are unique within one
world's trace and key its graphs here.  They are bookkeeping, not what
a user reads: every label this layer *renders* is the one the rest of
the run's output uses — the service ``seq`` when the job came through
the queue, the submit-order ``index`` otherwise, and task labels with
the job prefix stripped (``m3``, ``r1``).  Raw ids stay available on
the graph for joining back to the trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..trace import TraceEvent


def events_from_tracer(tracer) -> List[TraceEvent]:
    """The tracer's recorded rows, in recording order."""
    return list(tracer.events)


def load_chrome_trace(path: str) -> List[TraceEvent]:
    """Parse a ``--trace-out`` Chrome-trace JSON back into events.

    Metadata rows (``ph == "M"``) are lane names, not events; times
    come back from microseconds to simulated seconds."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    events: List[TraceEvent] = []
    for row in doc.get("traceEvents", []):
        if row.get("ph") == "M":
            continue
        dur = row.get("dur")
        events.append(
            TraceEvent(
                row.get("name", ""),
                row.get("cat", ""),
                row.get("ts", 0.0) / 1e6,
                None if dur is None else dur / 1e6,
                row.get("tid", 0),
                dict(row.get("args", {})),
            )
        )
    return events


def _parse_phases(encoded: str) -> Dict[str, float]:
    """Decode the attempt span's ``name=ts;...`` phase-mark string."""
    phases: Dict[str, float] = {}
    if not encoded:
        return phases
    for part in encoded.split(";"):
        name, _, value = part.partition("=")
        try:
            phases[name] = float(value)
        except ValueError:  # pragma: no cover - malformed external file
            continue
    return phases


@dataclass
class AttemptNode:
    """One finished task attempt, as the trace recorded it."""

    task_label: str  #: job-local task id ("m3", "r1")
    kind: str  #: "map" | "reduce"
    start: float
    end: float
    node: int
    outcome: str  #: "succeeded" | "failed" | "killed"
    speculative: bool
    cause: str  #: "first" | "speculative" | "failure" | "suspicion" | "fetch_failure"
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def is_rework(self) -> bool:
        """Re-executed work: this launch exists because earlier work
        was lost (failure/expiry, a suspicion requeue, or a fetch
        failure) — not a first copy and not a speculative hedge."""
        return self.cause in ("failure", "suspicion", "fetch_failure")

    def alive_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def in_shuffle_at(self, t: float) -> bool:
        """Reduce-side shuffle window: from launch until the
        ``shuffle_done`` mark (an attempt killed mid-shuffle never
        marks it — its whole runtime was shuffle)."""
        if self.kind != "reduce":
            return False
        done = self.phases.get("shuffle_done")
        return done is None or t < done


@dataclass
class JobGraph:
    """The causal timeline of one job, rebuilt from the trace."""

    job_id: str
    index: int  #: submit order within the run (run-local, stable)
    admitted: float  #: JobTracker submit time
    arrival: float  #: queue arrival (== admitted for batch runs)
    seq: Optional[int] = None  #: service arrival seq (queue.wait join)
    tenant: Optional[str] = None
    workload: Optional[str] = None
    finished: Optional[float] = None
    state: Optional[str] = None  #: terminal JobState value
    maps: int = 0
    reduces: int = 0
    priority: int = 0
    attempts: List[AttemptNode] = field(default_factory=list)
    #: Preemption pause windows [(pause, resume)]; an unresumed pause
    #: is closed at job end by :func:`build_graphs`.
    pauses: List[Tuple[float, float]] = field(default_factory=list)
    #: Suspicion-requeue instants that returned this job's tasks to
    #: the scheduler (detector.requeue fan-out).
    requeues: List[float] = field(default_factory=list)
    #: COMMITTING boundary: compute done, replication wait begins.
    commit_at: Optional[float] = None

    @property
    def label(self) -> str:
        """Display label: the service seq, else the submit index."""
        return f"seq{self.seq}" if self.seq is not None else f"job#{self.index}"

    @property
    def response_time(self) -> Optional[float]:
        if self.finished is None:
            return None
        return self.finished - self.arrival


@dataclass
class RunContext:
    """Run-wide facts every job's attribution shares."""

    #: Per-node physical outage windows (from node.suspend/resume).
    node_down: Dict[int, List[Tuple[float, float]]] = field(
        default_factory=dict
    )
    #: NameNode crash-to-reconvergence windows (dfs.namenode_recovery).
    recoveries: List[Tuple[float, float]] = field(default_factory=list)
    #: Largest timestamp seen (closes still-open intervals).
    end_time: float = 0.0

    def node_down_at(self, node: int, t: float) -> bool:
        for start, end in self.node_down.get(node, ()):
            if start <= t < end:
                return True
        return False

    def in_recovery(self, t: float) -> bool:
        for start, end in self.recoveries:
            if start <= t < end:
                return True
        return False


def _task_label(task_id: str) -> str:
    """``job12-m3`` -> ``m3`` (job identity rides on the span args)."""
    _, _, local = task_id.partition("-")
    return local or task_id


def build_graphs(
    events: List[TraceEvent],
) -> Tuple[List[JobGraph], RunContext]:
    """One pass over the recorded events -> job graphs + run context.

    Events arrive in recording order, which the simulator guarantees
    is causal (a span is recorded when it *ends*, instants when they
    happen), so joins only ever look backwards."""
    jobs: Dict[str, JobGraph] = {}
    by_seq: Dict[int, JobGraph] = {}
    open_pauses: Dict[str, float] = {}
    down_since: Dict[int, float] = {}
    ctx = RunContext()

    for ev in events:
        end_ts = ev.ts if ev.dur is None else ev.ts + ev.dur
        if end_ts > ctx.end_time:
            ctx.end_time = end_ts
        cat, name, args = ev.cat, ev.name, ev.args
        if cat == "job":
            if name == "job.submit":
                job_id = args["job"]
                jobs[job_id] = JobGraph(
                    job_id=job_id,
                    index=len(jobs),
                    admitted=ev.ts,
                    arrival=ev.ts,
                    workload=args.get("workload"),
                    maps=int(args.get("maps", 0)),
                    reduces=int(args.get("reduces", 0)),
                    priority=int(args.get("priority", 0)),
                )
            elif name == "job.commit":
                graph = jobs.get(args.get("job"))
                if graph is not None:
                    graph.commit_at = ev.ts
            elif ev.dur is not None:
                # The terminal job span (name == job_id).
                graph = jobs.get(name)
                if graph is not None:
                    graph.finished = ev.ts + ev.dur
                    graph.state = args.get("state")
        elif cat == "queue" and name == "queue.wait":
            graph = jobs.get(args.get("job"))
            if graph is not None:
                graph.arrival = ev.ts
                graph.seq = args.get("seq")
                graph.tenant = args.get("tenant")
                graph.workload = args.get("workload", graph.workload)
                if graph.seq is not None:
                    by_seq[graph.seq] = graph
        elif cat == "attempt":
            graph = jobs.get(args.get("job"))
            if graph is not None:
                graph.attempts.append(
                    AttemptNode(
                        task_label=_task_label(name),
                        kind=args.get("kind", "map"),
                        start=ev.ts,
                        end=ev.ts + (ev.dur or 0.0),
                        node=int(args.get("node", -1)),
                        outcome=args.get("outcome", ""),
                        speculative=bool(args.get("speculative", False)),
                        cause=args.get("cause", "first"),
                        phases=_parse_phases(args.get("phases", "")),
                    )
                )
        elif cat == "preempt":
            graph = jobs.get(args.get("job"))
            if graph is None and args.get("seq") is not None:
                graph = by_seq.get(args["seq"])
            if graph is None:
                continue
            if name == "preempt.pause":
                open_pauses.setdefault(graph.job_id, ev.ts)
            elif name == "preempt.resume":
                started = open_pauses.pop(graph.job_id, None)
                if started is not None:
                    graph.pauses.append((started, ev.ts))
        elif cat == "detector" and name == "detector.requeue":
            for job_id in str(args.get("jobs", "")).split(","):
                graph = jobs.get(job_id)
                if graph is not None:
                    graph.requeues.append(ev.ts)
        elif cat == "node":
            node = args.get("node")
            if node is None:
                continue
            if name == "node.suspend":
                down_since.setdefault(node, ev.ts)
            elif name == "node.resume":
                started = down_since.pop(node, None)
                if started is not None:
                    ctx.node_down.setdefault(node, []).append(
                        (started, ev.ts)
                    )
        elif cat == "dfs" and name == "dfs.namenode_recovery":
            ctx.recoveries.append((ev.ts, ev.ts + (ev.dur or 0.0)))

    # Close still-open windows at the run's end: a job paused at the
    # drain limit stays paused (UNFINISHED), a node down at the end
    # stays down.
    for job_id, started in open_pauses.items():
        graph = jobs[job_id]
        graph.pauses.append(
            (started, graph.finished if graph.finished is not None
             else ctx.end_time)
        )
    for node, started in down_since.items():
        ctx.node_down.setdefault(node, []).append(
            (started, math.inf)
        )
    ordered = sorted(jobs.values(), key=lambda g: g.index)
    return ordered, ctx
