"""Blame-conservation property suite (ISSUE 9, hypothesis).

The blame taxonomy's load-bearing promise is *conservation*: for every
finished job, the attributed components sum to its response time — no
seconds lost, none invented — and every component is non-negative.
That must hold not just on the curated scenarios but across the whole
configuration cube: random job mixes, churn rates, detector modes,
preemption modes and queue policies.  The partition-at-change-points
construction makes it true by design; this suite is the fence that
keeps future instrumentation or classifier edits honest.

Also pinned here: two identical seeded runs always diff clean through
``repro diff`` (trace and metrics artifacts alike).
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    ClusterConfig,
    DetectorConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from repro.core import moon_system
from repro.obs import Observability, ObsConfig
from repro.obs.explain import BLAME_CATEGORIES, explain_tracer
from repro.service import (
    MoonService,
    PreemptConfig,
    ServiceConfig,
    replay_arrivals,
)
from repro.workloads import sleep_spec

HOUR = 3600.0


@st.composite
def service_scenario(draw):
    """One random (arrivals, system knobs) point of the config cube."""
    n_jobs = draw(st.integers(min_value=2, max_value=5))
    entries = []
    t = 0.0
    for i in range(n_jobs):
        t += draw(st.sampled_from([0.0, 30.0, 180.0]))
        spec = sleep_spec(
            map_seconds=draw(st.sampled_from([10.0, 60.0, 240.0])),
            reduce_seconds=draw(st.sampled_from([5.0, 30.0])),
            n_maps=draw(st.integers(min_value=2, max_value=8)),
            n_reduces=draw(st.integers(min_value=0, max_value=2)),
        ).with_(name=f"mix-{i % 2}")
        deadline = draw(st.sampled_from([300.0, HOUR, 4 * HOUR]))
        tenant = draw(st.sampled_from(["a", "b"]))
        entries.append((t, tenant, spec, deadline))
    return {
        "entries": entries,
        "seed": draw(st.integers(min_value=1, max_value=50)),
        "rate": draw(st.sampled_from([0.0, 0.3, 0.6])),
        "detector": draw(
            st.sampled_from(["oracle", "timeout", "adaptive"])
        ),
        "preempt": draw(
            st.sampled_from([None, "deprioritise", "pause"])
        ),
        "policy": draw(st.sampled_from(["fifo", "edf"])),
    }


def _run_scenario(sc):
    obs = Observability(ObsConfig(trace=True))
    system = moon_system(
        SystemConfig(
            cluster=ClusterConfig(n_volatile=6, n_dedicated=2),
            trace=TraceConfig(unavailability_rate=sc["rate"]),
            scheduler=moon_scheduler_config(),
            detector=DetectorConfig(mode=sc["detector"]),
            seed=sc["seed"],
        ),
        obs=obs,
    )
    service = MoonService(
        system,
        ServiceConfig(
            policy=sc["policy"],
            max_in_flight=2,
            horizon=2 * HOUR,
            drain_limit=8 * HOUR,
            preempt=(
                PreemptConfig(mode=sc["preempt"])
                if sc["preempt"] else None
            ),
        ),
        replay_arrivals(sc["entries"]),
    )
    report = service.run()
    system.jobtracker.stop()
    system.namenode.stop()
    return report, obs


class TestBlameConservation:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(sc=service_scenario())
    def test_components_sum_to_response_time_everywhere(self, sc):
        report, obs = _run_scenario(sc)
        exp = explain_tracer(obs.tracer)
        for blame in exp.jobs:
            # Conservation: response time is fully partitioned.
            assert abs(blame.total - blame.response_time) < 1e-6, (
                sc, blame.graph.label, blame.components,
            )
            # No negative blame, no category outside the taxonomy.
            assert set(blame.components) == set(BLAME_CATEGORIES)
            for seconds in blame.components.values():
                assert seconds >= -1e-9
            # Segments are a contiguous non-overlapping chain.
            for a, b in zip(blame.segments, blame.segments[1:]):
                assert abs(a.end - b.start) < 1e-9
        # The report-level rollup conserves too.
        if exp.jobs:
            assert report.blame is not None
            total_attributed = math.fsum(report.blame.values())
            total_response = math.fsum(
                b.response_time for b in exp.jobs
            )
            assert abs(total_attributed - total_response) < 1e-6


class TestIdenticalRunsDiffClean:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=1, max_value=20),
        rate=st.sampled_from([0.0, 0.4]),
    )
    def test_seeded_rerun_reports_no_divergence(
        self, tmp_path_factory, seed, rate
    ):
        from repro.cli import main
        from repro.obs.explain import diff_files

        tmp = tmp_path_factory.mktemp("diffclean")
        sc = {
            "entries": [
                (0.0, "a", sleep_spec(60.0, 10.0, n_maps=4,
                                      n_reduces=1), HOUR),
                (30.0, "b", sleep_spec(20.0, 5.0, n_maps=3,
                                       n_reduces=0), HOUR),
            ],
            "seed": seed,
            "rate": rate,
            "detector": "timeout",
            "preempt": "pause",
            "policy": "edf",
        }
        paths = []
        for i in range(2):
            report, obs = _run_scenario(sc)
            trace_path = tmp / f"{seed}-{rate}-{i}.trace.json"
            metrics_path = tmp / f"{seed}-{rate}-{i}.metrics.json"
            obs.tracer.write_chrome(str(trace_path))
            obs.metrics.write_json(str(metrics_path))
            paths.append((trace_path, metrics_path))
        (ta, ma), (tb, mb) = paths
        kind, div, compared = diff_files(str(ta), str(tb))
        assert (kind, div) == ("trace", None), div
        assert compared > 0
        kind, div, _ = diff_files(str(ma), str(mb))
        assert (kind, div) == ("metrics", None), div
        # And the CLI agrees (exit 0 = "no divergence").
        assert main(["diff", str(ta), str(tb)]) == 0
        assert main(["diff", str(ma), str(mb)]) == 0
