"""Flight-recorder invariants (ISSUE 6).

The observability layer must *observe* the simulation, never perturb
it:

* **obs-off is byte-identical** — a run with the default (disabled)
  recorder renders the same report and executes the same number of
  events as a run with no explicit Observability at all;
* **obs-on never perturbs the sim clock** — arming the tracer changes
  neither the rendered report nor the executed-event checksum;
* **traces are deterministic** — two seeded reruns write byte-identical
  Chrome-trace files;
* **traces are complete** — a pressured run's trace contains queue-wait
  spans, attempt-execution spans, a preemption action and an autoscale
  decision.
"""

from __future__ import annotations

import json

from repro.config import (
    ClusterConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from repro.core import moon_system
from repro.obs import Observability, ObsConfig
from repro.service import (
    AutoscaleConfig,
    MoonService,
    PreemptConfig,
    ServiceConfig,
    replay_arrivals,
)
from repro.workloads import sleep_spec

HOUR = 3600.0


def _entries():
    """Two long batch jobs hog the cluster; two tight-SLO jobs arrive
    behind them — the mix that reliably forces pause preemption and,
    with the reactive autoscaler watching the queue, a scale-up."""
    batch = sleep_spec(300.0, 120.0, n_maps=12, n_reduces=2).with_(
        name="batch"
    )
    tight = sleep_spec(20.0, 5.0, n_maps=4, n_reduces=1).with_(
        name="tight"
    )
    return [
        (0.0, "a", batch, 4 * HOUR),
        (0.0, "a", batch, 4 * HOUR),
        (60.0, "b", tight, 300.0),
        (70.0, "b", tight, 300.0),
    ]


def _run(obs=None):
    """One pressured serve run; returns (report, executed_events)."""
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(n_volatile=8, n_dedicated=2),
            trace=TraceConfig(unavailability_rate=0.0),
            scheduler=moon_scheduler_config(),
            seed=3,
        ),
        obs=obs,
    )
    service = MoonService(
        system,
        ServiceConfig(
            policy="edf",
            max_in_flight=2,
            horizon=HOUR,
            preempt=PreemptConfig(mode="pause"),
            autoscale=AutoscaleConfig(
                policy="reactive",
                min_dedicated=1,
                max_dedicated=4,
                queue_high=1,
            ),
        ),
        replay_arrivals(_entries()),
    )
    report = service.run()
    system.jobtracker.stop()
    system.namenode.stop()
    return report, system.sim.executed_events


class TestObsOffByteIdentical:
    def test_default_recorder_matches_no_recorder(self):
        plain_report, plain_events = _run(obs=None)
        off_report, off_events = _run(obs=Observability())
        assert plain_report.render() == off_report.render()
        assert plain_events == off_events


class TestObsOnNeverPerturbs:
    def test_tracing_changes_nothing_observable(self):
        off_report, off_events = _run()
        obs = Observability(ObsConfig(trace=True, profile=True))
        on_report, on_events = _run(obs=obs)
        assert off_report.render() == on_report.render()
        assert off_events == on_events
        # ... while actually recording something.
        assert len(obs.tracer.events) > 0
        assert obs.profiler.total_events == on_events


class TestTraceDeterminism:
    def test_seeded_reruns_write_identical_trace_bytes(self, tmp_path):
        blobs = []
        for i in range(2):
            obs = Observability(ObsConfig(trace=True))
            _run(obs=obs)
            path = tmp_path / f"run{i}.trace.json"
            obs.tracer.write_chrome(str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_metrics_json_is_deterministic(self, tmp_path):
        blobs = []
        for i in range(2):
            obs = Observability()
            _run(obs=obs)
            path = tmp_path / f"run{i}.metrics.json"
            obs.metrics.write_json(str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


class TestTraceCompleteness:
    def test_pressured_run_covers_all_required_span_kinds(self):
        obs = Observability(ObsConfig(trace=True))
        report, _ = _run(obs=obs)
        doc = obs.tracer.to_chrome()
        rows = doc["traceEvents"]
        names = {r["name"] for r in rows}
        cats = {r.get("cat") for r in rows}
        # Queue-wait spans: admission after a non-zero wait.
        assert "queue.wait" in names
        # Attempt-execution spans on the per-node lanes.
        assert "attempt" in cats
        # A preemption action (the pause scenario guarantees one).
        assert any(n.startswith("preempt.") for n in names)
        # An autoscale decision (reactive policy watching the queue).
        assert any(n.startswith("autoscale.") for n in names)
        # The trace is loadable Chrome-trace JSON.
        json.dumps(doc)

    def test_metrics_mirror_the_report(self):
        obs = Observability()
        report, _ = _run(obs=obs)
        d = obs.metrics.to_dict()
        assert d["counters"]["service/jobs_admitted"] == 4
        assert d["counters"]["service/preempt/pause"] >= 1
        assert d["histograms"]["service/queue_wait_seconds"]["count"] == 4
