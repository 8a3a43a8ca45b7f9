"""Tests of the perf-regression harness itself.

The fast tests exercise the runner against stub scenarios (regression
detection, JSON emission, baseline update); the slow smoke runs a real
macro-scenario end to end through the CLI exactly as CI does.
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.perf import SCENARIOS, Scenario, load_baseline, run_perf
from repro.perf import runner as runner_mod
from repro.perf import scenarios as scenarios_mod


@pytest.fixture
def stub_scenarios(monkeypatch):
    """Replace the registry with two instant stub scenarios."""
    calls = {"fast": 0, "work": 0}

    def fast():
        calls["fast"] += 1
        return {"events": 100.0, "jobs_done": 1.0}

    def work():
        calls["work"] += 1
        return {"events": 500.0, "jobs_done": 2.0}

    stubs = {
        "fast": Scenario("fast", "instant stub", fast),
        "work": Scenario("work", "instant stub 2", work),
    }
    monkeypatch.setattr(scenarios_mod, "SCENARIOS", stubs)
    monkeypatch.setattr(runner_mod, "SCENARIOS", stubs)
    return calls


def _write_baseline(path, entries):
    path.write_text(json.dumps({"scenarios": entries}))


class TestRunner:
    def test_report_written_with_speedup(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {"fast": {"wall_s": 1000.0, "events": 100}})
        out = tmp_path / "BENCH.json"
        code = run_perf(
            names=["fast"], output=str(out), baseline_path=str(baseline)
        )
        assert code == 0
        report = json.loads(out.read_text())
        entry = report["scenarios"]["fast"]
        assert entry["events"] == 100
        assert entry["baseline_wall_s"] == 1000.0
        assert entry["speedup_vs_baseline"] > 1.0
        assert entry["regressed"] is False

    def test_check_fails_on_regression(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        # Baseline of ~0 seconds: any real run is a >20% regression.
        _write_baseline(baseline, {"fast": {"wall_s": 1e-9, "events": 100}})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 1

    def test_check_without_baseline_fails(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {})
        code = run_perf(
            names=["fast"],
            check=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 1

    def test_unknown_scenario_rejected(self, tmp_path, stub_scenarios):
        code = run_perf(names=["nope"], output=str(tmp_path / "B.json"))
        assert code == 2

    def test_update_baseline_pins_current(self, tmp_path, stub_scenarios):
        baseline = tmp_path / "baseline.json"
        _write_baseline(baseline, {"work": {"wall_s": 123.0, "events": 1}})
        code = run_perf(
            names=["fast"],
            update_baseline=True,
            output=str(tmp_path / "BENCH.json"),
            baseline_path=str(baseline),
        )
        assert code == 0
        pinned = load_baseline(str(baseline))
        assert "fast" in pinned and pinned["fast"]["events"] == 100
        # Entries for scenarios not re-run survive the merge.
        assert pinned["work"]["wall_s"] == 123.0

    def test_repeat_takes_fastest(self, tmp_path, stub_scenarios):
        run_perf(
            names=["fast"], repeat=3, output=str(tmp_path / "B.json"),
            baseline_path=str(tmp_path / "missing.json"),
        )
        assert stub_scenarios["fast"] == 3

    def test_gc_probe_reports_collector_work(self, tmp_path, monkeypatch):
        """``gc_s``/``gc_collections`` count the collections that ran
        during the timed run, and the probe is unregistered after."""

        def garbage():
            for _ in range(3):
                gc.collect(0)
            gc.collect(2)
            return {"events": 1.0}

        stubs = {"garbage": Scenario("garbage", "collects", garbage)}
        monkeypatch.setattr(runner_mod, "SCENARIOS", stubs)
        callbacks = list(gc.callbacks)
        out = tmp_path / "B.json"
        run_perf(names=["garbage"], output=str(out),
                 baseline_path=str(tmp_path / "missing.json"))
        assert gc.callbacks == callbacks
        entry = json.loads(out.read_text())["scenarios"]["garbage"]
        gen0, gen1, gen2 = entry["gc_collections"]
        assert gen0 >= 3 and gen2 >= 1
        assert entry["gc_s"] > 0.0


class TestRegistry:
    def test_real_registry_names(self):
        assert set(SCENARIOS) == {
            "fig6", "fig7", "service2k", "fairshare", "autoscale2k",
            "replay2k", "preempt2k", "detect2k", "recover2k",
            "scale10k",
        }

    def test_descriptions_present(self):
        for s in SCENARIOS.values():
            assert s.description


@pytest.mark.slow
def test_cli_smoke_fig6_against_committed_baseline(tmp_path, capsys):
    """The CI perf smoke: `repro perf --scenario fig6 --check`.

    ``--repeat 2`` takes the fastest of two timings: the wall-clock
    gate should trip on real regressions, not on a scheduler hiccup
    during a single run.  The event checksum is exact either way.
    """
    from repro.cli.main import main

    out = tmp_path / "BENCH_PR2.json"
    code = main(
        ["perf", "--scenario", "fig6", "--check", "--repeat", "2",
         "--output", str(out)]
    )
    assert code == 0, capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["scenarios"]["fig6"]["wall_s"] > 0
