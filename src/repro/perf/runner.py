"""Timing, baseline comparison and JSON emission for `repro perf`.

The committed baseline (``benchmarks/perf/baseline.json``) records the
wall-clock each scenario took at the harness's introduction, measured
pre-optimization on the reference machine.  Every ``repro perf`` run
re-times the requested scenarios, writes ``BENCH_PR2.json`` at the
repo root and — under ``--check`` — fails when a scenario's wall-clock
regresses more than :data:`REGRESSION_THRESHOLD_PCT` percent against
the baseline.  ``--update-baseline`` re-pins the baseline file after a
deliberate change (new machine, new scenario, accepted slowdown).
Each scenario entry also reports the cyclic garbage collector's share
of the timed run (``gc_s``, ``gc_collections``); like the wall clock,
those are reported, never gated.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from .scenarios import SCENARIOS

#: A scenario slower than baseline by more than this fails ``--check``.
REGRESSION_THRESHOLD_PCT = 20.0

#: Under ``--check``, one scenario is re-run with tracing armed; the
#: traced run failing to stay within this overhead — or drifting on
#: the event checksum — fails the gate (the obs-on half of the ISSUE-6
#: invariant: tracing observes the simulation, never perturbs it).
OBS_OVERHEAD_THRESHOLD_PCT = 10.0

#: Baseline location relative to the repo root.
BASELINE_RELPATH = os.path.join("benchmarks", "perf", "baseline.json")
#: Report emitted at the repo root.
REPORT_NAME = "BENCH_PR2.json"


def find_repo_root(start: Optional[str] = None) -> Optional[str]:
    """Walk upward from ``start`` (default cwd) to the directory that
    holds the committed baseline; None when run outside the repo."""
    d = os.path.abspath(start or os.getcwd())
    while True:
        if os.path.exists(os.path.join(d, BASELINE_RELPATH)):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return None
        d = parent


def load_baseline(path: Optional[str] = None) -> Dict[str, dict]:
    """Baseline entries keyed by scenario name ({} when absent)."""
    if path is None:
        root = find_repo_root()
        if root is None:
            return {}
        path = os.path.join(root, BASELINE_RELPATH)
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return data.get("scenarios", {})


class _GcProbe:
    """Host seconds the cyclic collector ran, and its collections per
    generation, while registered in ``gc.callbacks``.

    A collection runs inside whichever callback happens to allocate
    when a generation's threshold trips, so only a probe on the
    collector itself can tell its cost apart.  It reads the collector
    and never configures it; like the wall clock, its figures sit
    outside the determinism boundary.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def _note(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "_GcProbe":
        gc.callbacks.append(self._note)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._note)


def time_scenario(name: str, repeat: int = 1) -> dict:
    """Run one scenario ``repeat`` times; report the fastest wall and
    the cyclic collector's share of that run."""
    scenario = SCENARIOS[name]
    best_wall = None
    best_gc = None
    work: Dict[str, float] = {}
    for _ in range(max(1, repeat)):
        with _GcProbe() as probe:
            t0 = time.perf_counter()
            work = scenario.run()
            wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall, best_gc = wall, probe
    entry = {
        "description": scenario.description,
        "wall_s": round(best_wall, 6),
        "gc_s": round(best_gc.seconds, 6),
        "gc_collections": best_gc.collections,
        "events": int(work.get("events", 0)),
        "events_per_s": (
            round(work.get("events", 0) / best_wall) if best_wall > 0 else 0
        ),
    }
    for key, value in sorted(work.items()):
        if key != "events":
            entry[key] = round(value, 3)
    return entry


def run_perf(
    names: Optional[List[str]] = None,
    repeat: int = 1,
    check: bool = False,
    update_baseline: bool = False,
    output: Optional[str] = None,
    baseline_path: Optional[str] = None,
    out=sys.stdout,
) -> int:
    """Drive the harness; returns a process exit code."""
    names = list(names or SCENARIOS)
    for name in names:
        if name not in SCENARIOS:
            print(f"unknown scenario: {name!r} "
                  f"(have: {', '.join(SCENARIOS)})", file=out)
            return 2
    baseline = load_baseline(baseline_path)

    results: Dict[str, dict] = {}
    regressions: List[str] = []
    for name in names:
        print(f"[perf] {name}: {SCENARIOS[name].description}", file=out)
        entry = time_scenario(name, repeat=repeat)
        base = baseline.get(name)
        if base and base.get("wall_s"):
            wall = max(entry["wall_s"], 1e-9)
            entry["baseline_wall_s"] = base["wall_s"]
            entry["speedup_vs_baseline"] = round(base["wall_s"] / wall, 2)
            slowdown_pct = 100.0 * (wall / base["wall_s"] - 1.0)
            entry["regressed"] = slowdown_pct > REGRESSION_THRESHOLD_PCT
            if entry["regressed"]:
                regressions.append(
                    f"{name}: {entry['wall_s']:.2f}s vs baseline "
                    f"{base['wall_s']:.2f}s (+{slowdown_pct:.0f}%)"
                )
        if base and "events" in base and base["events"] != entry["events"]:
            # Wall-clock aside, the event count is a behaviour
            # checksum: a drift vs the baseline means the simulation
            # itself changed (expected only when behaviour-changing
            # work re-pins the baseline, e.g. this PR's determinism
            # fixes).  Recorded + surfaced, but not a failure.
            entry["events_match_baseline"] = False
            print(
                f"[perf] note: {name} simulated {entry['events']} events "
                f"vs {base['events']} at baseline — behaviour changed "
                "since the baseline was pinned",
                file=out,
            )
        elif base and "events" in base:
            entry["events_match_baseline"] = True
        results[name] = entry
        line = (
            f"[perf] {name}: {entry['wall_s']:.2f}s wall, "
            f"{entry['events']} events ({entry['events_per_s']}/s)"
        )
        if "speedup_vs_baseline" in entry:
            line += f", {entry['speedup_vs_baseline']:.2f}x vs baseline"
        print(line, file=out)

    obs_failures: List[str] = []
    if check:
        obs_failures = _obs_check(names[0], repeat, results, out)

    root = find_repo_root()
    out_path = output or os.path.join(root or os.getcwd(), REPORT_NAME)
    # Merge over any prior report so a partial run (e.g. CI's fig6
    # smoke) refreshes its own scenarios without clobbering the rest.
    merged_scenarios: Dict[str, dict] = {}
    if os.path.exists(out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as fh:
                merged_scenarios = json.load(fh).get("scenarios", {})
        except (OSError, ValueError):
            merged_scenarios = {}
    merged_scenarios.update(results)
    report = {
        "bench": "MOON perf-regression harness (PR 2)",
        "threshold_pct": REGRESSION_THRESHOLD_PCT,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "scenarios": merged_scenarios,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[perf] wrote {out_path}", file=out)

    if update_baseline:
        base_path = baseline_path or os.path.join(
            root or os.getcwd(), BASELINE_RELPATH
        )
        merged = load_baseline(base_path)
        for name, entry in results.items():
            merged[name] = {
                "description": entry["description"],
                "wall_s": entry["wall_s"],
                "events": entry["events"],
            }
        os.makedirs(os.path.dirname(base_path), exist_ok=True)
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump({"scenarios": merged}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[perf] baseline re-pinned at {base_path}", file=out)

    if check and (regressions or obs_failures):
        for r in regressions:
            print(f"[perf] REGRESSION {r}", file=out)
        for r in obs_failures:
            print(f"[perf] OBS-CHECK FAILED {r}", file=out)
        return 1
    if check and not any("baseline_wall_s" in e for e in results.values()):
        print("[perf] --check requested but no baseline found", file=out)
        return 1
    return 0


def _obs_check(name: str, repeat: int, results: Dict[str, dict], out) -> List[str]:
    """Re-time ``name`` with tracing armed; fail on checksum drift or
    obs-on overhead beyond :data:`OBS_OVERHEAD_THRESHOLD_PCT`.

    The off-reference is the *better* of the main timing and a fresh
    untraced re-run, so warm-up effects (first-run imports, allocator
    growth) never read as tracing overhead; both sides take the
    fastest of at least two runs, because a single sample on a busy
    machine swings more than the threshold by itself.  Results land in
    the scenario's report entry under ``"obs_check"``.
    """
    from ..obs import Observability, ObsConfig, default_observability

    print(
        f"[perf] obs-check: re-timing {name} untraced, then with "
        "tracing armed",
        file=out,
    )
    reps = max(2, repeat)
    off_entry = time_scenario(name, repeat=reps)
    off_wall = min(results[name]["wall_s"], off_entry["wall_s"])
    with default_observability(Observability(ObsConfig(trace=True))):
        on_entry = time_scenario(name, repeat=reps)
    overhead_pct = 100.0 * (on_entry["wall_s"] / max(off_wall, 1e-9) - 1.0)
    events_match = (
        on_entry["events"] == results[name]["events"]
        and off_entry["events"] == results[name]["events"]
    )
    failures: List[str] = []
    if not events_match:
        failures.append(
            f"{name}: event checksum drift with tracing on — "
            f"{on_entry['events']} traced vs {results[name]['events']} "
            f"untraced (off re-run: {off_entry['events']})"
        )
    if overhead_pct > OBS_OVERHEAD_THRESHOLD_PCT:
        failures.append(
            f"{name}: obs-on overhead {overhead_pct:.1f}% exceeds "
            f"{OBS_OVERHEAD_THRESHOLD_PCT:.0f}% "
            f"({on_entry['wall_s']:.2f}s traced vs {off_wall:.2f}s off)"
        )
    results[name]["obs_check"] = {
        "events_match": events_match,
        "overhead_pct": round(overhead_pct, 1),
        "traced_wall_s": on_entry["wall_s"],
        "untraced_wall_s": off_wall,
        "threshold_pct": OBS_OVERHEAD_THRESHOLD_PCT,
    }
    print(
        f"[perf] obs-check {name}: {on_entry['wall_s']:.2f}s traced vs "
        f"{off_wall:.2f}s untraced ({overhead_pct:+.1f}%), events "
        f"{'match' if events_match else 'DRIFTED'}",
        file=out,
    )
    return failures
