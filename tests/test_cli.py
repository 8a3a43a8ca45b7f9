"""CLI tests — parser wiring and the fast commands end-to-end.

The figure commands re-run whole experiment grids, so they are
exercised by the benchmark suite; here we cover everything that runs
in milliseconds-to-seconds plus the parser surface of the rest.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.config import DETECTOR_MODES
from repro.service import AUTOSCALE_POLICIES, PREEMPT_MODES, QUEUE_POLICIES

SAMPLE = str(
    pathlib.Path(__file__).parent.parent
    / "benchmarks" / "data" / "hadoop_jobhistory_sample.json"
)


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) >= {
            "fig1", "fig4", "fig6", "fig7", "table1", "table2",
            "ablations", "run", "serve", "trace", "availability",
            "estimate",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "sort"
        assert args.scheduler == "moon"
        assert args.rate == 0.3

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "yarn"])

    def test_trace_needs_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_serve_defaults(self):
        # Mode-dependent flags parse as None; cmd_serve resolves them
        # (fifo/4 normally, edf/8 under --autoscale).
        args = build_parser().parse_args(["serve"])
        assert args.pattern == "poisson"
        assert args.policy is None
        assert args.max_in_flight is None
        assert args.autoscale is None

    def test_serve_default_resolution_by_mode(self):
        from repro.cli.commands import _resolve_serve_defaults

        args = build_parser().parse_args(["serve"])
        _resolve_serve_defaults(args)
        assert args.policy == "fifo"
        assert args.max_in_flight == 4
        assert args.volatile == 30

        args = build_parser().parse_args(["serve", "--autoscale", "all"])
        _resolve_serve_defaults(args)
        assert args.policy == "edf"
        assert args.max_in_flight == 8
        assert args.volatile == 12

        # Explicit flags always win over mode defaults.
        args = build_parser().parse_args(
            ["serve", "--autoscale", "all", "--policy", "sjf"]
        )
        _resolve_serve_defaults(args)
        assert args.policy == "sjf"

    def test_serve_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "lifo"])

    def test_replay_registered_and_requires_trace(self):
        args = build_parser().parse_args(["replay", "--trace", "t.csv"])
        assert args.policy == "fifo" and args.scale is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])


class TestFastCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "24GB" in out and "384" in out
        assert "word count" in out and "20" in out

    def test_availability_reproduces_paper_numbers(self, capsys):
        assert main(["availability"]) == 0
        out = capsys.readouterr().out
        assert "{0,11}" in out  # Section I: eleven volatile replicas
        assert "{1," in out  # Section III: hybrid anchor

    def test_availability_custom_p(self, capsys):
        assert main(["availability", "--p", "0.1", "--goal", "0.999"]) == 0
        out = capsys.readouterr().out
        assert "volatile-only" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "--rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "map" in out and "shuffle" in out and "total" in out

    def test_estimate_with_expiry(self, capsys):
        assert main(["estimate", "--rate", "0.5",
                     "--expiry-minutes", "10"]) == 0
        assert "total" in capsys.readouterr().out


class TestTraceCommands:
    def test_generate_and_stats_csv(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "trace", "generate", str(out), "--nodes", "8",
            "--rate", "0.3", "--seed", "1",
        ]) == 0
        assert out.exists()
        assert main(["trace", "stats", str(out)]) == 0
        assert "mean unavail 0.300" in capsys.readouterr().out

    def test_generate_json_correlated(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main([
            "trace", "generate", str(out), "--nodes", "8",
            "--rate", "0.4", "--correlated",
        ]) == 0
        assert main(["trace", "stats", str(out), "--histogram"]) == 0
        assert "outage lengths" in capsys.readouterr().out

    def test_generate_each_distribution(self, tmp_path):
        for dist in ("lognormal", "exponential"):
            out = tmp_path / f"{dist}.csv"
            assert main([
                "trace", "generate", str(out), "--nodes", "4",
                "--distribution", dist,
            ]) == 0


class TestServeCommand:
    def test_small_autoscaled_serve_run(self, capsys):
        rc = main([
            "serve", "--pattern", "bursty", "--autoscale", "reactive",
            "--jobs-per-hour", "18", "--hours", "0.5", "--volatile", "6",
            "--dedicated", "2", "--rate", "0.1", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service report" in out
        assert "autoscale=reactive" in out
        assert "node-hours" in out

    def test_small_serve_run(self, capsys):
        rc = main([
            "serve", "--pattern", "poisson", "--policy", "edf",
            "--catalog", "sleep", "--jobs-per-hour", "6",
            "--hours", "0.5", "--volatile", "8", "--dedicated", "2",
            "--rate", "0.1", "--max-in-flight", "2", "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "service report" in out
        assert "policy=edf" in out
        assert "(all)" in out
        assert "fairness" in out


class TestReplayCommand:
    def _sample(self):
        import pathlib

        return str(
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "data" / "hadoop_jobhistory_sample.json"
        )

    def test_serve_replay_pattern_points_at_repro_replay(self, capsys):
        rc = main(["serve", "--pattern", "replay"])
        assert rc == 2
        assert "repro replay --trace" in capsys.readouterr().err

    def test_missing_trace_file_is_a_clean_error(self, capsys):
        rc = main(["replay", "--trace", "/nonexistent/t.json"])
        assert rc == 2
        assert "replay:" in capsys.readouterr().err

    def test_scale_zero_is_rejected(self, capsys):
        rc = main(["replay", "--trace", self._sample(), "--scale", "0"])
        assert rc == 2
        assert "load_factor" in capsys.readouterr().err

    def test_preempt_flag_parses_on_both_commands(self):
        args = build_parser().parse_args(
            ["replay", "--trace", "t.csv", "--preempt", "pause"]
        )
        assert args.preempt == "pause" and not args.admission_prices
        args = build_parser().parse_args(
            ["serve", "--preempt", "deprioritise", "--admission-prices"]
        )
        assert args.preempt == "deprioritise" and args.admission_prices
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--preempt", "kill"])

    def test_determinism_smoke_same_bytes_twice(self, capsys):
        """The fast-lane smoke: replaying the bundled sample twice in
        fresh systems prints byte-identical reports."""
        argv = ["replay", "--trace", self._sample(), "--policy", "edf"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "service report" in first
        assert "pattern=replay" in first
        assert "replayed trace: hadoop_jobhistory_sample" in first
        assert first == second

    def test_journal_flags_parse_on_both_commands(self):
        args = build_parser().parse_args(
            ["serve", "--journal", "on", "--checkpoint-interval", "60",
             "--namenode-crash", "900"]
        )
        assert args.journal == "on"
        assert args.checkpoint_interval == 60.0
        assert args.namenode_crash == 900.0
        args = build_parser().parse_args(
            ["replay", "--trace", "t.csv", "--namenode-crash", "120"]
        )
        assert args.journal == "off" and args.namenode_crash == 120.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--journal", "maybe"])

    def test_namenode_crash_recovery_smoke_same_bytes_twice(self, capsys):
        """Fast-lane failover smoke: a serve run that crashes the
        NameNode mid-stream recovers (journal trailer in the report)
        and stays byte-deterministic across fresh systems."""
        argv = [
            "serve", "--pattern", "poisson", "--policy", "edf",
            "--catalog", "sleep", "--jobs-per-hour", "6",
            "--hours", "0.5", "--volatile", "8", "--dedicated", "2",
            "--rate", "0.1", "--max-in-flight", "2", "--seed", "4",
            "--namenode-crash", "600",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "journal=on: 1 crash(es)" in first
        assert "mean recovery" in first
        assert first == second

    def test_journal_off_report_is_byte_identical_to_pre_journal(
        self, capsys
    ):
        """The acceptance bar: with --journal off (the default) the
        serve report must not mention the journal at all — the layer
        adds zero events and zero report surface."""
        argv = [
            "serve", "--pattern", "poisson", "--policy", "edf",
            "--catalog", "sleep", "--jobs-per-hour", "6",
            "--hours", "0.5", "--volatile", "8", "--dedicated", "2",
            "--rate", "0.1", "--max-in-flight", "2", "--seed", "4",
        ]
        assert main(argv) == 0
        assert "journal" not in capsys.readouterr().out

    def test_preempt_determinism_smoke_same_bytes_twice(self, capsys):
        """Fast-lane preemption smoke: the same pause-mode replay on a
        pressured cluster twice — controller decisions, audit table and
        report must diff to nothing (the trace-scale twin lives in
        benchmarks/test_preempt_replay.py, marked slow)."""
        argv = [
            "replay", "--trace", self._sample(), "--policy", "edf",
            "--volatile", "6", "--dedicated", "1",
            "--max-in-flight", "2", "--preempt", "pause",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "preempt=pause" in first
        assert first == second

    def test_capture_roundtrip_through_cli(self, tmp_path, capsys):
        out = tmp_path / "captured.json"
        rc = main(["--verbose", "replay", "--trace", self._sample(),
                   "--capture", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert out.exists()
        assert "captured" in captured.err
        rc = main(["replay", "--trace", str(out)])
        assert rc == 0
        assert "service report" in capsys.readouterr().out


class TestComparisonCells:
    """serve/replay run the product of their comparison axes: every
    cell of an 'all' run is the same cell run alone, any two 'all'
    axes compose, and a sweep cell is a serve run."""

    SERVE = [
        "serve", "--pattern", "bursty", "--jobs-per-hour", "60",
        "--hours", "0.5", "--volatile", "4", "--dedicated", "1",
        "--max-in-flight", "2",
    ]
    REPLAY = [
        "replay", "--trace", SAMPLE, "--scale", "3", "--volatile", "6",
        "--dedicated", "1", "--max-in-flight", "2",
    ]

    @staticmethod
    def _out(capsys, argv) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("axis, values", [
        ("--policy", QUEUE_POLICIES),
        ("--autoscale", AUTOSCALE_POLICIES),
        ("--preempt", PREEMPT_MODES),
        ("--detector", DETECTOR_MODES),
    ])
    def test_all_run_prints_each_cell_as_run_alone(
        self, capsys, axis, values
    ):
        base = self.REPLAY if axis == "--detector" else self.SERVE
        if axis != "--policy":
            base = base + ["--policy", "edf"]
        together = self._out(capsys, base + [axis, "all"])
        alone = [self._out(capsys, base + [axis, v]) for v in values]
        # A replay opens with the trace summary; the cells follow in
        # axis order, then the comparison table.
        header = together[: together.index("service report")]
        assert all(out.startswith(header) for out in alone)
        cells = "".join(out[len(header):] for out in alone)
        assert together.startswith(header + cells)
        table = together[len(header + cells):]
        assert " comparison - " in table.splitlines()[0]
        assert table.count("\n") == len(values) + 3

    def test_two_all_axes_compose_in_canonical_order(self, tmp_path,
                                                     capsys):
        import itertools
        import json

        path = tmp_path / "cells.json"
        out = self._out(capsys, self.SERVE + [
            "--preempt", "all", "--detector", "all", "--json", str(path),
        ])
        reports = json.loads(path.read_text())["reports"]
        cells = list(itertools.product(PREEMPT_MODES, DETECTOR_MODES))
        assert len(reports) == len(cells) == 9
        lines = out.rstrip("\n").splitlines()
        title, header = lines[-len(cells) - 3], lines[-len(cells) - 2]
        assert title == (
            "preemption x detector comparison - bursty arrivals, "
            "fifo queue"
        )
        # One key column per 'all' axis, then the summary columns and
        # both features' extension columns.
        assert header.split()[:3] == ["preempt", "detector", "done"]
        assert "pauses" in header and "false+" in header
        rows = [line.split()[:2] for line in lines[-len(cells):]]
        assert rows == [list(cell) for cell in cells]

    def test_autoscale_all_composes_with_policy_all(self, capsys):
        out = self._out(capsys, self.SERVE + [
            "--autoscale", "all", "--policy", "all",
        ])
        assert out.count("service report") == 12
        assert (
            "autoscale-policy x queue-policy comparison - bursty "
            "arrivals (D1, bounds 1..2)" in out
        )

    @pytest.mark.parametrize("command", ["serve", "replay"])
    def test_autoscaled_run_prints_the_preempt_audit(self, capsys,
                                                     command):
        argv = self.SERVE if command == "serve" else self.REPLAY
        out = self._out(capsys, argv + [
            "--autoscale", "reactive", "--preempt", "pause",
        ])
        assert "autoscale=reactive" in out
        assert "preemption audit\n" in out

    def test_sweep_cell_equals_serve_json(self, tmp_path, capsys):
        import json

        from repro.service import SweepCell, SweepSpec
        from repro.service.sweep import run_cell

        spec = SweepSpec(
            policies=("edf",), jobs_per_hour=12.0, hours=0.5,
            n_volatile=8, n_dedicated=2, catalog="sleep",
        )
        cell = run_cell(spec, SweepCell("edf", 1.0, 7))
        path = tmp_path / "serve.json"
        self._out(capsys, [
            "serve", "--policy", "edf", "--jobs-per-hour", "12",
            "--hours", "0.5", "--volatile", "8", "--dedicated", "2",
            "--catalog", "sleep", "--seed", "7", "--json", str(path),
        ])
        (served,) = json.loads(path.read_text())["reports"]
        assert cell["report"] == served


class TestObsFlags:
    """--json / --trace-out / --metrics-out / repro profile wiring."""

    def _sample(self):
        import pathlib

        return str(
            pathlib.Path(__file__).parent.parent
            / "benchmarks" / "data" / "hadoop_jobhistory_sample.json"
        )

    def test_replay_json_report_roundtrip(self, tmp_path, capsys):
        import json

        path = tmp_path / "report.json"
        rc = main(["replay", "--trace", self._sample(),
                   "--policy", "edf", "--json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["reports"]) == 1
        report = payload["reports"][0]
        assert report["schema_version"] == 1
        assert report["policy"] == "edf"
        # Round-trip: the JSON is what to_dict() said.
        assert json.loads(json.dumps(report)) == report

    def test_serve_json_writes_one_report_per_cell(self, tmp_path, capsys):
        import json

        path = tmp_path / "cells.json"
        rc = main([
            "serve", "--pattern", "poisson", "--policy", "all",
            "--catalog", "sleep", "--jobs-per-hour", "6",
            "--hours", "0.25", "--volatile", "6", "--dedicated", "2",
            "--rate", "0.1", "--max-in-flight", "2", "--seed", "4",
            "--json", str(path),
        ])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        policies = [r["policy"] for r in payload["reports"]]
        assert len(policies) == len(set(policies)) >= 2

    def test_replay_trace_out_is_valid_chrome_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(["replay", "--trace", self._sample(),
                   "--policy", "edf", "--trace-out", str(trace),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases >= {"M", "X"}  # metadata + complete spans
        names = {e["name"] for e in events}
        assert "queue.wait" in names  # job queue-wait spans
        # Attempt-execution spans live on the per-node lanes.
        assert any(e.get("cat") == "attempt" for e in events)
        reg = json.loads(metrics.read_text())
        assert reg["counters"]["service/jobs_admitted"] >= 1

    def test_trace_out_does_not_change_the_report(self, tmp_path, capsys):
        argv = ["replay", "--trace", self._sample(), "--policy", "edf"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--trace-out",
                            str(tmp_path / "t.json")]) == 0
        traced = capsys.readouterr().out
        assert plain == traced

    def test_profile_prints_hot_table(self, tmp_path, capsys, monkeypatch):
        from repro.perf import SCENARIOS
        from repro.perf.scenarios import Scenario

        def fake_run():
            from repro.simulation import Simulation

            sim = Simulation(seed=1)
            for t in range(5):
                sim.call_at(float(t), lambda: None)
            sim.run()
            return {"events": 5.0}

        monkeypatch.setitem(
            SCENARIOS, "fig6",
            Scenario(name="fig6", description="tiny stub", run=fake_run),
        )
        rc = main(["profile", "--scenario", "fig6", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[profile] fig6" in out
        assert "TOTAL" in out
        assert "lambda" in out  # the stub handler shows up as a row


class TestRunCommand:
    def test_small_moon_run(self, capsys):
        rc = main([
            "run", "--workload", "sleep-sort", "--maps", "48",
            "--volatile", "12", "--dedicated", "2", "--rate", "0.2",
            "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "succeeded" in out

    def test_small_hadoop_run(self, capsys):
        rc = main([
            "run", "--workload", "sleep-sort", "--maps", "48",
            "--scheduler", "hadoop", "--expiry-minutes", "1",
            "--volatile", "12", "--dedicated", "2", "--rate", "0.2",
            "--seed", "3",
        ])
        assert rc == 0
        assert "succeeded" in capsys.readouterr().out
