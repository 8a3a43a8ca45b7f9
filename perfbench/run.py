"""Benchmark entry point: one workload, untraced or traced, checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sort --seed 42 --seconds 20 --trace 0

A workload is a fixed number of short independent trials, each seeded
from ``--seed`` (``workloads.trial_seeds``), so one run averages over
several random inputs.  The trials run round-robin with tracing off
until each has run :data:`MIN_PASSES` times and ``--seconds`` have
passed.  Every run is followed by one :func:`calibrate` sample, and
its host times are divided by that sample; each host metric is the
median of a trial's calibrated runs, summed over the trials, in
reference seconds (calibrated time x :data:`CAL_REF_S`).  The import
is not calibrated (interpreter start and file reads dominate it, and
the CPU loop does not track them): it is the best of this process and
:data:`IMPORT_PROBES` fresh interpreters, in seconds.  Raw seconds and
every calibration sample are kept in the record.

Why short trials and calibrated time: on a shared host the speed
switches between a fast and a slower phase (up to ~2x) for a few
seconds at a time, and the mix drifts over tens of minutes.  A fixed
pure-Python loop timed right after a run was, more often than not, in
the same phase as the run, so the calibrated median moved by 4-14%
between a fast and a slow spell where the raw best-of-three moved by
43-57%, and spread 1-13% over ten seeds within one spell.

``--trace 1`` makes untraced passes for half the budget, then one pass
over every trial with the ledger armed, and reports the per-layer
metrics of that traced pass (see ``ledger.py``).

Every run is checked: the arrival accounting must balance, every
``sort`` cell's job must succeed, and the event count, modelled results
and the digest of per-job finish times must repeat exactly across all
runs of one invocation, traced or not.  A failed check marks the result
``correct: false`` and the command exits 1.

The last line of standard output is the result as one JSON object.
Earlier lines are a readable report; the full record (provenance,
every run, the ledger rows) goes to ``.bench_out/`` in the checkout,
next to the traced run's spans.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fewest untraced runs of each trial one invocation makes.
MIN_PASSES = 3
#: Fresh interpreters the import is also timed in (see the module doc).
IMPORT_PROBES = 2
#: A traced run whose ledger misses more of its wall time than this
#: (percent) fails the ledger check.
LEDGER_TOLERANCE_PCT = 5.0

#: End-to-end metrics bounded in BENCHMARK.json, with units (``--trace 0``);
#: the two times are in reference seconds (see :func:`calibrate`).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
#: Reported beside them, not gated: simulated time is itself a modelled
#: outcome (a sort job's duration varies twofold between seeds), so
#: this rate moves with the seed far more than with the program.
RATE: Dict[str, str] = {"sim_s_per_wall_s": "s/s"}
#: Modelled end-to-end results, in simulated time; exact per seed.
MODELLED: Dict[str, str] = {
    "jobs_failed_pct": "%",
    "sim_response_p50_s": "s",
    "sim_response_p95_s": "s",
    "sim_deadline_miss_pct": "%",
    "sim_makespan_s": "s",
}
#: Per-layer metrics of the traced run (``--trace 1``), with units.
PER_LAYER: Dict[str, str] = {
    "simulation.events": "count",
    "simulation.self_s": "s",
    "simulation.us_per_event": "us",
    "jobtracker.ticks": "count",
    "jobtracker.tick_self_s": "s",
    "jobtracker.launches": "count",
    "jobtracker.submits": "count",
    "jobtracker.probes_per_launch": "ratio",
    "scheduling.select_calls": "count",
    "scheduling.select_s": "s",
    "scheduling.select_hit_pct": "%",
    "execution.attempts": "count",
    "execution.useful_attempt_pct": "%",
    "execution.self_s": "s",
    "net.transfers": "count",
    "net.mb": "MB",
    "net.fifo.self_s": "s",
    "net.fairshare.self_s": "s",
    "net.us_per_transfer": "us",
    "dfs.files_written": "count",
    "dfs.block_reads": "count",
    "dfs.read_targets_calls": "count",
    "dfs.self_s": "s",
    "dfs.replication_scan_s": "s",
    "service.offers": "count",
    "service.rejected": "count",
    "service.queue_select_s": "s",
    "service.self_s": "s",
    "service.queue_wait_p50_s": "s",
    "cluster.node_transitions": "count",
    "cluster.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.arrivals_s": "s",
    "obs.trace_overhead_pct": "%",
    "obs.unattributed_pct": "%",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("service", "sort", "scale"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: interactions.json)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="host seconds of untraced runs to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test size, seconds per run")
    p.add_argument("--out", type=Path, default=OUT_DIR,
                   help="directory for the full record and the spans")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be a non-negative integer")
    return args


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _git_rev() -> str:
    """HEAD of the checkout, or "none" when it is not a git work tree
    of its own (the search never climbs above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "none"
    if Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def _src_digest() -> str:
    """sha256 over every source file of the program under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


_IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import perfbench.ledger, perfbench.workloads
print(time.perf_counter() - t0)
"""


def time_import(in_process_s: float) -> List[float]:
    """Import seconds of this process and of :data:`IMPORT_PROBES`
    fresh interpreters."""
    times = [in_process_s]
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


#: Time of :func:`calibrate` on the reference host (2-vCPU Xeon VM,
#: Python 3.11) in a fast spell: reference seconds are host seconds
#: divided by the calibration sample that followed them, times this.
CAL_REF_S = 0.020


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibrate(n: int = 20000) -> float:
    """Host seconds for a fixed pure-Python loop (heap, dict, objects)
    that owes nothing to the program under test: the yardstick that
    turns measured seconds into reference seconds.  The garbage of the
    run before is collected first and the collector is off while the
    loop runs, so a world left behind is never billed to the host."""
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        heap: list = []
        table: dict = {}
        for i in range(n):
            item = _Item(i * 7919 % 10007, i)
            heapq.heappush(heap, (item.key, i, item))
            table[i & 2047] = item
            if len(heap) > 256:
                old = heapq.heappop(heap)[2]
                table.get(old.value & 2047)
        return perf_counter() - t0
    finally:
        gc.enable()


def provenance(workload: str, seed: int, size: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_outcome(workload: str, outcome) -> List[str]:
    """Problems with one run's own output (empty when it is sound)."""
    problems = []
    acc = outcome.accounting
    terminal = sum(
        acc[k] for k in ("completed", "failed", "rejected", "dropped",
                         "unserved")
    )
    if not (acc["arrived"] == acc["records"] == terminal):
        problems.append(
            f"arrival accounting does not balance: arrived={acc['arrived']} "
            f"records={acc['records']} terminal states={terminal}"
        )
    if workload == "sort" and acc["completed"] != acc["arrived"]:
        problems.append(
            f"sort: {acc['arrived'] - acc['completed']} cell job(s) did "
            "not succeed within the time limit"
        )
    if acc["arrived"] < 1 or outcome.events < 1:
        problems.append("the run did no work")
    return problems


def check_repeats(runs) -> List[Tuple[int, str]]:
    """Every run of a trial must reproduce that trial's first run
    exactly, traced or not."""
    first: Dict[int, object] = {}
    problems = []
    for i, (k, o) in enumerate(runs):
        ref = first.setdefault(k, o)
        if o.fingerprint() != ref.fingerprint():
            problems.append((i, f"trial {k} differs from its first run "
                                f"(events {o.events} vs {ref.events}, digest "
                                f"{o.digest[:12]} vs {ref.digest[:12]})"))
    return problems


def check_ledger(ledger, layer_metrics: Dict[str, float]) -> List[str]:
    problems = []
    if ledger.open_spans:
        problems.append(f"ledger: {ledger.open_spans} span(s) left open")
    if any(name.startswith("PeriodicTask.") for name in ledger.names):
        problems.append("ledger: a row is credited to PeriodicTask")
    gap = layer_metrics["obs.unattributed_pct"]
    if abs(gap) > LEDGER_TOLERANCE_PCT:
        problems.append(
            f"ledger: layer self times miss {gap:.2f}% of the traced wall "
            f"(tolerance {LEDGER_TOLERANCE_PCT}%)"
        )
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _by_trial(runs) -> List[list]:
    """Outcomes grouped by trial index, in trial order."""
    groups: Dict[int, list] = {}
    for k, o in runs:
        groups.setdefault(k, []).append(o)
    return [groups[k] for k in sorted(groups)]


def end_to_end(untraced, cal: List[float],
               imports: List[float]) -> Dict[str, float]:
    """Host metrics of the whole workload.  ``cal[i]`` is the calibration
    sample taken right after ``untraced[i]``; per trial the median of the
    calibrated runs, summed over the trials, in reference seconds."""
    wall: Dict[int, List[float]] = {}
    setup: Dict[int, List[float]] = {}
    for (k, o), c in zip(untraced, cal):
        wall.setdefault(k, []).append(o.wall_s / c)
        setup.setdefault(k, []).append((o.build_s + o.arrivals_s) / c)
    by_trial = _by_trial(untraced)
    raw_wall = sum(median(o.wall_s for o in runs) for runs in by_trial)
    return {
        "setup_s": min(imports)
        + CAL_REF_S * sum(median(v) for v in setup.values()),
        "wall_s": CAL_REF_S * sum(median(v) for v in wall.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_s_per_wall_s": sum(runs[0].sim_seconds for runs in by_trial)
        / raw_wall,
        "raw_setup_s": min(imports) + sum(
            median(o.build_s + o.arrivals_s for o in runs)
            for runs in by_trial
        ),
        "raw_wall_s": raw_wall,
        "calibration_median_s": median(cal),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(ledger, traced, by_trial, import_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced pass (one run of every trial), in
    raw host seconds; the untraced baselines are per-trial medians."""
    layer = ledger.layer_self()
    stat = ledger.stat
    events = sum(o.events for o in traced)
    traced_wall = sum(o.wall_s for o in traced)
    launches = stat("JobTracker.launch")
    selects = sum(
        stat(f"{cls}.select_task")
        for cls in ("MoonScheduler", "HadoopScheduler", "LateScheduler")
    )
    select_s = sum(
        stat(f"{cls}.select_task", "total")
        for cls in ("MoonScheduler", "HadoopScheduler", "LateScheduler")
    )
    transfers = sum(
        stat(f"{cls}.{m}")
        for cls in ("FifoNetwork", "FairShareNetwork")
        for m in ("transfer", "disk_io")
    )
    net_self = sum(v for k, v in layer.items() if k.split(".")[0] == "net")
    base_wall = sum(median(o.wall_s for o in runs) for runs in by_trial)
    out = {
        "simulation.events": float(events),
        "simulation.self_s": layer.get("simulation", 0.0),
        "simulation.us_per_event": 1e6
        * _ratio(layer.get("simulation", 0.0), events),
        "jobtracker.ticks": stat("JobTracker._tick"),
        "jobtracker.tick_self_s": stat("JobTracker._tick", "self"),
        "jobtracker.launches": launches,
        "jobtracker.submits": stat("JobTracker.submit"),
        "jobtracker.probes_per_launch": _ratio(selects, launches),
        "scheduling.select_calls": selects,
        "scheduling.select_s": select_s,
        "scheduling.select_hit_pct": 100.0
        * _ratio(ledger.counters.get("select_hits", 0.0), selects),
        "execution.attempts": launches,
        "execution.useful_attempt_pct": 100.0
        * _ratio(stat("JobTracker.attempt_succeeded"), launches),
        "execution.self_s": layer.get("execution", 0.0),
        "net.transfers": transfers,
        "net.mb": ledger.counters.get("net_mb", 0.0),
        "net.fifo.self_s": layer.get("net.fifo", 0.0),
        "net.fairshare.self_s": layer.get("net.fairshare", 0.0),
        "net.us_per_transfer": 1e6 * _ratio(net_self, transfers),
        "dfs.files_written": stat("DfsClient.write_file"),
        "dfs.block_reads": stat("DfsClient.read_block"),
        "dfs.read_targets_calls": stat("NameNode.read_targets"),
        "dfs.self_s": layer.get("dfs", 0.0),
        "dfs.replication_scan_s": stat("NameNode._replication_scan", "total"),
        "service.offers": stat("JobQueue.offer"),
        "service.rejected": sum(o.layer["service.rejected"] for o in traced),
        "service.queue_select_s": stat("JobQueue.select", "total"),
        "service.self_s": layer.get("service", 0.0),
        "service.queue_wait_p50_s": median(
            o.layer["service.queue_wait_p50_s"] for o in traced
        ),
        "cluster.node_transitions": stat("AvailabilityMonitor._suspend")
        + stat("AvailabilityMonitor._resume"),
        "cluster.self_s": layer.get("cluster", 0.0),
        "setup.import_s": import_s,
        "setup.build_s": sum(median(o.build_s for o in runs)
                             for runs in by_trial),
        "setup.arrivals_s": sum(median(o.arrivals_s for o in runs)
                                for runs in by_trial),
        "obs.trace_overhead_pct": 100.0 * (traced_wall / base_wall - 1.0),
        "obs.unattributed_pct": 100.0
        * (1.0 - sum(layer.values()) / traced_wall),
    }
    assert set(out) == set(PER_LAYER)
    return out


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def _emit(metrics: Dict[str, float], units: Dict[str, str], attempted: int,
          problems: List[Tuple[int, str]]) -> str:
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len({run for run, _ in problems}),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    })


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program under test at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    t0 = perf_counter()
    sys.path[:0] = [p for p in (str(SRC), str(ROOT)) if p not in sys.path]
    from perfbench import ledger as ledger_mod
    from perfbench import workloads
    imports = time_import(perf_counter() - t0)

    interactions = json.loads(
        (Path(__file__).parent / "interactions.json").read_text()
    )
    seed = interactions["default_seed"] if args.seed is None else args.seed
    wl = workloads.WORKLOADS[args.workload]
    size = wl.full if args.size == "full" else wl.tiny
    prov = provenance(args.workload, seed, args.size)
    print(f"# perfbench {args.workload} seed={seed} size={args.size} "
          f"trace={args.trace} rev={prov['git_rev'][:12]} "
          f"src={prov['src_sha256'][:12]} nproc={prov['nproc']} "
          f"python={prov['python']} {prov['platform']}")

    seeds = workloads.trial_seeds(seed, size.trials)
    budget = args.seconds / 2 if args.trace else args.seconds
    min_runs = 1 if args.trace else MIN_PASSES
    deadline = perf_counter() + budget
    counts = [0] * len(seeds)
    cal: List[float] = []
    runs: List[Tuple[int, object]] = []
    while min(counts) < min_runs or perf_counter() < deadline:
        k = len(runs) % len(seeds)
        gc.collect()
        o = wl.run(seeds[k], size)
        runs.append((k, o))
        counts[k] += 1
        cal.append(calibrate())
        print(f"run {len(runs) - 1} trial {k}: build {o.build_s:.4f}s "
              f"arrivals {o.arrivals_s:.4f}s wall {o.wall_s:.4f}s "
              f"events {o.events} digest {o.digest[:12]}")
    untraced = list(runs)

    ledger = None
    traced: List[object] = []
    if args.trace:
        ledger = ledger_mod.Ledger()
        with ledger_mod.instrumented(ledger):
            for k, trial_seed in enumerate(seeds):
                gc.collect()
                traced.append(wl.run(trial_seed, size, attach=ledger.attach))
                runs.append((k, traced[-1]))
        print(f"traced pass: wall {sum(o.wall_s for o in traced):.4f}s "
              f"events {sum(o.events for o in traced)} spans {ledger.spans}")

    problems: List[Tuple[int, str]] = []
    for i, (_, o) in enumerate(runs):
        problems += [(i, p) for p in check_outcome(args.workload, o)]
    problems += check_repeats(runs)

    by_trial = _by_trial(untraced)
    host = end_to_end(untraced, cal, imports)
    modelled = {
        k: sum(trial[0].modelled[k] for trial in by_trial) / len(by_trial)
        for k in by_trial[0][0].modelled
    }
    events = [trial[0].events for trial in by_trial]
    record = {
        "provenance": dict(prov, trial_seeds=seeds, events=events),
        "end_to_end": host,
        "calibration_s": cal,
        "imports": imports,
        "modelled_mean": modelled,
        "trials": [
            {"seed": seeds[k], "events": t[0].events,
             "modelled": t[0].modelled, "accounting": t[0].accounting,
             "digest": t[0].digest}
            for k, t in enumerate(by_trial)
        ],
        "runs": [
            {"trial": k, "build_s": o.build_s, "arrivals_s": o.arrivals_s,
             "wall_s": o.wall_s, "events": o.events, "digest": o.digest}
            for k, o in runs
        ],
    }
    accounting = sum((Counter(t[0].accounting) for t in by_trial), Counter())
    print(f"trials {len(by_trial)}  events {sum(events)}  "
          f"accounting {dict(accounting)}")
    for k, unit in {**END_TO_END, **RATE}.items():
        print(f"metric {k} = {host[k]:.6g} {unit}")
    print(f"raw wall {host['raw_wall_s']:.4f}s "
          f"setup {host['raw_setup_s']:.4f}s  median calibration "
          f"{1e3 * host['calibration_median_s']:.2f}ms "
          f"(reference {1e3 * CAL_REF_S:.0f}ms)")
    for k, unit in MODELLED.items():
        if k in modelled:
            print(f"metric {k} = {modelled[k]:.6g} {unit} "
                  f"(modelled, mean of {len(by_trial)} trial(s))")

    if args.trace:
        layer = per_layer(ledger, traced, by_trial, min(imports))
        problems += [(len(runs) - 1, p) for p in check_ledger(ledger, layer)]
        record["per_layer"] = layer
        record["ledger"] = ledger.rows()
        for k, unit in PER_LAYER.items():
            print(f"layer {k} = {layer[k]:.6g} {unit}")
        for row in ledger.rows()[:12]:
            print(f"ledger {row['layer']:<14} {row['name']:<40} "
                  f"{row['count']:>9d} {row['self_s']:9.4f}s self")
        metrics, units = layer, PER_LAYER
    else:
        metrics, units = host, END_TO_END

    record["problems"] = [f"run {i}: {p}" for i, p in problems]
    for p in record["problems"]:
        print(f"CHECK FAILED: {p}")
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.out / f"{args.workload}-seed{seed}-trace{args.trace}"
    if ledger is not None:
        ledger.save(str(stem) + ".spans.npz")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    print(_emit(metrics, units, len(runs), problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
