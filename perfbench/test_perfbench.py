"""Self-tests of the benchmark at its tiny size (seconds in total).

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


@pytest.fixture(autouse=True)
def _no_import_probes(monkeypatch):
    """Fresh-interpreter import timing costs seconds per run; one test
    below covers it."""
    monkeypatch.setattr(bench, "IMPORT_PROBES", 0)


def test_import_is_timed_in_a_fresh_interpreter(monkeypatch):
    monkeypatch.setattr(bench, "IMPORT_PROBES", 1)
    times = bench.time_import(1e9)
    assert len(times) == 2 and 0 < times[1] < 1e9


def _main(capsys, tmp_path, *extra: str) -> tuple:
    code = bench.main(
        ["--seed", str(SEED), "--seconds", "0", "--size", "tiny",
         "--out", str(tmp_path), *extra]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def tiny_outcomes():
    return {
        name: w.run(SEED, w.tiny) for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_prints_every_end_to_end_metric(capsys, tmp_path, workload):
    code, lines, result = _main(capsys, tmp_path, "--workload", workload)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    trials = workloads.WORKLOADS[workload].tiny.trials
    assert result["attempted"] >= trials * bench.MIN_PASSES
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert want == bench.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The modelled results are printed too, each with its unit.
    printed = {line.split()[1]: line for line in lines
               if line.startswith("metric ")}
    assert set(want) <= set(printed)
    assert "jobs_failed_pct" in printed
    for name, unit in bench.MODELLED.items():
        if name in printed:
            assert printed[name].split()[4] == unit
    record = json.loads(
        (tmp_path / f"{workload}-seed{SEED}-trace0.json").read_text()
    )
    prov = record["provenance"]
    for key in ("git_rev", "src_sha256", "platform", "python", "nproc",
                "events"):
        assert prov[key] not in (None, "")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_ledger_adds_up(capsys, tmp_path, workload):
    code, lines, result = _main(
        capsys, tmp_path, "--workload", workload, "--trace", "1"
    )
    assert code == 0 and result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert want == bench.PER_LAYER
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert abs(metrics["obs.unattributed_pct"]["value"]) < 3.0
    record = json.loads(
        (tmp_path / f"{workload}-seed{SEED}-trace1.json").read_text()
    )
    rows = record["ledger"]
    assert not [r for r in rows if r["name"].startswith("PeriodicTask")]
    trials = workloads.WORKLOADS[workload].tiny.trials
    traced = record["runs"][-trials:]
    assert [r["trial"] for r in traced] == list(range(trials))
    assert [r["events"] for r in traced] == record["provenance"]["events"]
    assert metrics["simulation.events"]["value"] == sum(
        r["events"] for r in traced
    )
    self_sum = sum(r["self_s"] for r in rows)
    assert self_sum == pytest.approx(sum(r["wall_s"] for r in traced),
                                     rel=0.03)
    spans = np.load(tmp_path / f"{workload}-seed{SEED}-trace1.spans.npz")
    n = len(spans["start"])
    assert n > 0 and (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(n)).all()


def test_held_out_seed_is_recorded():
    seeds = json.loads((ROOT / "perfbench" / "interactions.json").read_text())
    assert seeds["held_out_seed"] != seeds["default_seed"]
    layers = seeds["layers"]
    named = {m for layer in layers.values() for m in layer["metrics"]}
    assert named == set(bench.PER_LAYER)
    for layer in layers.values():
        assert set(layer["on"] + layer["flat_on"]) <= set(seeds["workloads"])


def test_accounting_check_rejects_a_dropped_record(tiny_outcomes):
    o = tiny_outcomes["service"]
    assert bench.check_outcome("service", o) == []
    acc = dict(o.accounting)
    acc["records"] -= 1
    acc["completed"] -= 1
    assert bench.check_outcome("service", replace(o, accounting=acc))


def test_sort_check_rejects_a_failed_cell(tiny_outcomes):
    o = tiny_outcomes["sort"]
    assert bench.check_outcome("sort", o) == []
    acc = dict(o.accounting, completed=o.accounting["completed"] - 1,
               failed=1)
    assert bench.check_outcome("sort", replace(o, accounting=acc))


@pytest.mark.parametrize(
    "tamper",
    [
        {"digest": "0" * 64},
        {"events": -1},
        {"modelled": {"jobs_failed_pct": 50.0}},
    ],
)
def test_repeat_check_rejects_a_changed_result(tiny_outcomes, tamper):
    o = tiny_outcomes["scale"]
    assert bench.check_repeats([(0, o), (0, o)]) == []
    bad = replace(o, **tamper)
    runs = [(0, o), (1, bad), (0, o), (1, o), (0, bad)]
    assert [i for i, _ in bench.check_repeats(runs)] == [3, 4]


def test_failed_check_exits_non_zero(capsys, tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["service"]
    calls = []

    def flaky(seed, size, attach=None):
        o = wl.run(seed, size, attach)
        calls.append(o)
        return replace(o, digest="f" * 64) if len(calls) == 3 else o

    monkeypatch.setitem(workloads.WORKLOADS, "service", replace(wl, run=flaky))
    code, lines, result = _main(capsys, tmp_path, "--workload", "service")
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1
    assert any(line.startswith("CHECK FAILED") for line in lines)
