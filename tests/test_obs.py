"""Unit tests for the flight recorder (repro.obs).

Covers the tracer's Chrome-trace emission and text timeline, the
metrics registry (counters, gauges, histograms, the CounterBag
facade), order-independent histogram merging, the dispatch profiler,
and the engine's profiled-run determinism.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    ATTEMPT_LANE_BASE,
    CATEGORY_LANES,
    NULL_TRACER,
    CounterBag,
    DispatchProfiler,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Observability,
    ObsConfig,
    Tracer,
)
from repro.simulation import Simulation


class TestTracer:
    def test_span_and_instant_round_trip(self):
        tr = Tracer()
        tr.instant("job.submit", "job", 1.5, job="j1", maps=4)
        tr.span("j1-m0", "attempt", 2.0, 5.0,
                tid=ATTEMPT_LANE_BASE + 3, node=3)
        doc = tr.to_chrome()
        rows = doc["traceEvents"]
        # Metadata rows lead; then the recorded events in order.
        meta = [r for r in rows if r["ph"] == "M"]
        assert any(r["name"] == "process_name" for r in meta)
        inst = next(r for r in rows if r["ph"] == "i")
        assert inst["name"] == "job.submit"
        assert inst["ts"] == pytest.approx(1.5e6)
        assert inst["tid"] == CATEGORY_LANES["job"]
        assert inst["args"] == {"job": "j1", "maps": 4}
        span = next(r for r in rows if r["ph"] == "X")
        assert span["dur"] == pytest.approx(3.0e6)
        assert span["tid"] == ATTEMPT_LANE_BASE + 3

    def test_write_chrome_is_valid_json(self, tmp_path):
        tr = Tracer()
        tr.instant("a", "queue", 0.0)
        path = tmp_path / "t.json"
        tr.write_chrome(str(path))
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_write_is_byte_deterministic(self, tmp_path):
        paths = []
        for i in range(2):
            tr = Tracer()
            tr.span("s", "job", 0.0, 2.0, workload="sort")
            tr.instant("i", "sched", 1.0, node=7)
            p = tmp_path / f"t{i}.json"
            tr.write_chrome(str(p))
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_timeline_sorted_and_stable(self):
        tr = Tracer()
        tr.instant("late", "job", 5.0)
        tr.instant("early", "job", 1.0, b=2, a=1)
        lines = tr.timeline().splitlines()
        assert "early" in lines[0] and "late" in lines[1]
        # Args render sorted by key.
        assert lines[0].index("a=1") < lines[0].index("b=2")

    def test_event_cap_counts_drops(self):
        tr = Tracer(max_events=2)
        for i in range(5):
            tr.instant("e", "job", float(i))
        assert len(tr.events) == 2
        assert tr.dropped == 3

    def test_null_tracer_is_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        NULL_TRACER.instant("x", "job", 0.0)
        NULL_TRACER.span("x", "job", 0.0, 1.0)


class TestMetrics:
    def test_counter_gauge_create_on_first_use(self):
        reg = MetricsRegistry()
        c = reg.counter("a/b")
        c.inc()
        c.inc(2)
        assert reg.counter("a/b") is c and c.value == 3
        g = reg.gauge("depth")
        g.set(7)
        assert reg.gauge("depth").value == 7

    def test_histogram_observe_and_dict(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait")
        for v in (0.05, 1.0, 30.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 3
        assert d["min"] == 0.05 and d["max"] == 30.0
        assert d["sum"] == pytest.approx(31.05)

    def test_histogram_merge_is_order_independent(self):
        values = [0.01, 0.3, 0.3, 5.0, 77.7, 1e-9, 3600.0, 0.1]
        a, b, c = Histogram("h"), Histogram("h"), Histogram("h")
        for v in values[:3]:
            a.observe(v)
        for v in values[3:6]:
            b.observe(v)
        for v in values[6:]:
            c.observe(v)
        abc = a.merge(b).merge(c)
        cba = c.merge(b).merge(a)
        assert abc.to_dict() == cba.to_dict()
        assert abc.count == len(values)
        assert abc.total == pytest.approx(sum(values))

    def test_histogram_merge_rejects_bounds_mismatch(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ReproError):
            a.merge(b)

    def test_registry_to_dict_sorted_and_json_safe(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(5)
        reg.histogram("h").observe(2.0)
        d = reg.to_dict()
        assert list(d["counters"]) == ["a", "z"]
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        assert json.loads(path.read_text()) == d


class TestCounterBag:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        bag = CounterBag(reg, "dfs/")
        # Missing-key read yields 0 and does NOT create the counter.
        assert bag["nothing"] == 0
        assert "nothing" not in bag
        bag["writes"] += 1
        bag["writes"] += 2
        assert bag["writes"] == 3
        assert dict(bag) == {"writes": 3}
        assert reg.counter("dfs/writes").value == 3

    def test_touched_keys_only(self):
        reg = MetricsRegistry()
        reg.counter("net/elsewhere").inc()
        bag = CounterBag(reg, "net/")
        bag["flows"] = 2
        assert set(bag.keys()) == {"flows"}
        assert len(bag) == 1


class TestProfiler:
    def test_rows_and_table(self):
        prof = DispatchProfiler()
        for _ in range(3):
            prof.note("Heartbeat._tick", 0.002)
        prof.note("Transfer.done", 0.010)
        rows = prof.rows(top=10)
        assert rows[0]["event"] == "Transfer.done"  # largest total first
        assert prof.total_events == 4
        text = prof.table(top=10)
        assert "Heartbeat._tick" in text and "TOTAL" in text

    def test_profiled_run_is_deterministic(self):
        def run(obs):
            sim = Simulation(seed=11, obs=obs)
            order = []
            for t in (3.0, 1.0, 2.0):
                sim.call_at(t, order.append, t)
            sim.run()
            return order, sim.executed_events

        plain = run(Observability())
        profiled = run(Observability(ObsConfig(profile=True)))
        assert plain[0] == profiled[0] == [1.0, 2.0, 3.0]
        assert plain[1] == profiled[1]


class TestObservabilityWiring:
    def test_default_off_uses_null_tracer(self):
        obs = Observability()
        assert not obs.tracer.enabled
        assert obs.profiler is None

    def test_trace_out_arms_the_tracer(self, tmp_path):
        obs = Observability(
            ObsConfig(trace_out=str(tmp_path / "t.json"),
                      metrics_out=str(tmp_path / "m.json"))
        )
        assert obs.tracer.enabled
        obs.metrics.counter("x").inc()
        written = obs.export()
        assert len(written) == 2
        for p in written:
            json.loads(open(p, encoding="utf-8").read())

    def test_simulation_without_obs_gets_its_own_bundle(self):
        # No ambient default: a bundle reaches a world only by being
        # passed in, and every other world gets a fresh all-off one.
        obs = Observability(ObsConfig(trace=True))
        assert Simulation(seed=1, obs=obs).obs is obs
        a, b = Simulation(seed=1), Simulation(seed=1)
        assert a.obs is not b.obs
        assert not a.obs.tracer.enabled and a.obs.profiler is None
