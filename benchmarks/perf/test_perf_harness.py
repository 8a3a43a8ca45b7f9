"""Tests of the perf-regression harness itself.

The fast tests exercise the runner against stub scenarios (regression
detection, JSON emission, baseline update); the slow smoke runs a real
macro-scenario end to end through the CLI exactly as CI does.
"""

from __future__ import annotations

import gc
import json
import time

import pytest

from repro.perf import SCENARIOS, Scenario, load_baseline, run_perf
from repro.perf import runner as runner_mod
from repro.perf import scenarios as scenarios_mod


@pytest.fixture
def stub_scenarios(monkeypatch):
    """Replace the registry with two instant stub scenarios."""
    calls = {"fast": 0, "work": 0}

    def fast(_obs):
        calls["fast"] += 1
        return {"events": 100.0, "jobs_done": 1.0}

    def work(_obs):
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

        def garbage(_obs):
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


def _stub_check(monkeypatch, tmp_path, run, repeat=1):
    """``run_perf --check`` on one stub scenario; (exit code, the
    report's obs_check entry)."""
    stubs = {"stub": Scenario("stub", "obs-check stub", run)}
    monkeypatch.setattr(runner_mod, "SCENARIOS", stubs)
    baseline = tmp_path / "baseline.json"
    _write_baseline(baseline, {"stub": {"wall_s": 1000.0, "events": 100}})
    out = tmp_path / "B.json"
    code = run_perf(names=["stub"], repeat=repeat, check=True,
                    output=str(out), baseline_path=str(baseline))
    return code, json.loads(out.read_text())["scenarios"]["stub"]["obs_check"]


def _busy_wait(traced_factor, slow_traced_runs=None):
    """A stub that busy-waits 50 ms, ``traced_factor`` times as long
    when the bundle it is handed records a trace (only in the first
    ``slow_traced_runs`` traced runs, if given)."""
    traced_runs = []

    def run(obs):
        traced = obs is not None and obs.tracer.enabled
        if traced:
            traced_runs.append(obs)
        slow = traced and (slow_traced_runs is None
                           or len(traced_runs) <= slow_traced_runs)
        end = time.perf_counter() + 0.05 * (traced_factor if slow else 1)
        while time.perf_counter() < end:
            pass
        return {"events": 100.0}

    return run


class TestObsCheck:
    def test_traced_slowdown_fails(self, tmp_path, monkeypatch):
        code, check = _stub_check(monkeypatch, tmp_path, _busy_wait(1.3))
        assert code == 1
        assert check["overhead_pct"] > 10.0
        assert check["events_match"] is True
        # Every round re-read the over-threshold reading.
        assert check["pairs"] == 2 * runner_mod._OBS_CHECK_ROUNDS

    def test_slow_first_round_is_confirmed_not_failed(
        self, tmp_path, monkeypatch
    ):
        # Both traced runs of the first round land in a slow spell;
        # the confirming round shows tracing itself costs nothing.
        code, check = _stub_check(
            monkeypatch, tmp_path, _busy_wait(1.3, slow_traced_runs=2)
        )
        assert code == 0, check
        assert check["pairs"] == 4

    def test_equal_cost_passes(self, tmp_path, monkeypatch):
        code, check = _stub_check(monkeypatch, tmp_path, _busy_wait(1.0))
        assert code == 0, check
        assert check["overhead_pct"] <= 10.0
        assert check["pairs"] == 2

    def test_equal_samples_in_alternating_pairs(self, tmp_path, monkeypatch):
        bundles = []
        equal_cost = _busy_wait(1.0)

        def run(obs):
            bundles.append(obs)
            return equal_cost(obs)

        _stub_check(monkeypatch, tmp_path, run, repeat=3)
        # Three timed runs, then three pairs whose leading side flips;
        # every traced run gets a bundle of its own.
        traced = [b is not None and b.tracer.enabled for b in bundles]
        assert traced == [False] * 3 + [False, True, True, False,
                                        False, True]
        assert len({id(b) for b in bundles if b is not None}) == 3

    def test_traced_event_drift_fails(self, tmp_path, monkeypatch):
        def run(obs):
            return {"events": 101.0 if obs is not None else 100.0}

        code, check = _stub_check(monkeypatch, tmp_path, run)
        assert code == 1
        assert check["events_match"] is False


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
