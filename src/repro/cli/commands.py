"""CLI command handlers.

Each handler takes the parsed :mod:`argparse` namespace, prints its
report to stdout, and returns an exit code.  Experiments delegate to
:mod:`repro.experiments`; utility commands assemble systems directly.

Reports go to stdout; diagnostics (usage errors, progress notes, file
confirmations) go through :mod:`logging` to stderr — errors always,
progress only under ``repro --verbose``.
"""

from __future__ import annotations

import json
import logging
from itertools import product

import numpy as np

from ..analysis import estimate_makespan, strategy_table
from ..config import (
    DETECTOR_MODES,
    ClusterConfig,
    DetectorConfig,
    DfsConfig,
    JournalConfig,
    SchedulerConfig,
    SystemConfig,
    TraceConfig,
    moon_scheduler_config,
)
from ..core import hadoop_system, moon_system
from ..experiments import ablations, fig1, fig4, fig6, fig7
from ..plotting import bar_chart, histogram
from ..service import AUTOSCALE_POLICIES, PREEMPT_MODES, QUEUE_POLICIES
from ..traces import (
    CorrelatedConfig,
    compute_stats,
    generate_correlated_traces,
    generate_trace,
    load_traces_csv,
    load_traces_json,
    save_traces_csv,
    save_traces_json,
)
from ..workloads import (
    grep_spec,
    sleep_like_sort,
    sleep_like_wordcount,
    sort_spec,
    wordcount_spec,
)

log = logging.getLogger("repro")

_APPS = {"sort": "sort", "wordcount": "word count"}


# ======================================================================
# Observability / JSON-report plumbing
# ======================================================================
def _make_obs(args, **forced):
    """An :class:`~repro.obs.Observability` when any flight-recorder
    flag was passed or a command forces ObsConfig fields on (explain's
    tracer, profile's profiler); None keeps obs entirely off (the
    default, which is byte-identical to a build without the obs
    layer)."""
    if not forced and args.trace_out is None and args.metrics_out is None:
        return None
    from ..obs import Observability, ObsConfig

    fields = dict(
        trace=args.trace_out is not None,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
        max_trace_events=args.max_trace_events,
    )
    return Observability(ObsConfig(**{**fields, **forced}))


def _export_obs(obs) -> None:
    """Write any requested trace/metrics files; log each path."""
    if obs is None:
        return
    for path in obs.export():
        log.info("wrote %s", path)


def _write_json(path, payload, what: str) -> None:
    """Write a versioned JSON artifact (``--json``); log what went where."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s to %s", what, path)


def _write_reports_json(path, reports) -> None:
    """Write serve/replay reports as versioned JSON (``--json``)."""
    from ..service import REPORT_SCHEMA_VERSION

    _write_json(
        path,
        {"schema_version": REPORT_SCHEMA_VERSION, "reports": reports},
        f"{len(reports)} report(s)",
    )


def _apps(choice: str):
    if choice == "both":
        return ["sort", "word count"]
    return [_APPS[choice]]


# ======================================================================
# Figures / tables
# ======================================================================
def cmd_fig1(args) -> int:
    """Figure 1: weekly volunteer-grid unavailability profile."""
    profiles = fig1.run()
    print(fig1.report(profiles))
    return 0


def _per_app(args, run, report) -> int:
    """Run and print one figure panel per --app application."""
    for app in _apps(args.app):
        print(report(app, run(app)))
        print()
    return 0


def cmd_fig4(args) -> int:
    """Figures 4+5: scheduling-policy comparison (and duplicates)."""
    return _per_app(args, fig4.run, fig4.report)


def cmd_fig6(args) -> int:
    """Figure 6: intermediate-data replication policies."""
    return _per_app(args, fig6.run, fig6.report)


def cmd_fig7(args) -> int:
    """Figure 7: overall MOON vs augmented Hadoop."""
    return _per_app(args, fig7.run, fig7.report)


def cmd_table1(args) -> int:
    """Table I: the two applications' configurations."""
    s, w = sort_spec(), wordcount_spec()
    print("TABLE I - application configurations")
    print(f"{'application':<14}{'input':>8}{'# maps':>8}  {'# reduces'}")
    print(f"{'sort':<14}{s.input_mb / 1024:>6.0f}GB{s.n_maps:>8}  "
          f"0.9 x AvailSlots")
    print(f"{'word count':<14}{w.input_mb / 1024:>6.0f}GB{w.n_maps:>8}  "
          f"{w.n_reduces}")
    return 0


def cmd_table2(args) -> int:
    """Table II: execution profiles at 0.5 unavailability."""
    return _per_app(args, fig6.table2, fig6.report_table2)


def cmd_ablations(args) -> int:
    """Network / two-phase / LATE ablation sweeps."""
    for which, run, report in (
        ("network", ablations.run_network_ablation, ablations.report_network),
        ("twophase", ablations.run_twophase_sweep, ablations.report_twophase),
        ("late", ablations.run_late_ablation, ablations.report_late),
    ):
        if args.which in (which, "all"):
            print(report(run()))
            print()
    return 0


# ======================================================================
# run
# ======================================================================
_WORKLOADS = {
    "sort": sort_spec,
    "wordcount": wordcount_spec,
    "sleep-sort": sleep_like_sort,
    "sleep-wordcount": sleep_like_wordcount,
    "grep": grep_spec,
}


def cmd_run(args) -> int:
    """Run one job on a configured simulated cluster."""
    spec = _WORKLOADS[args.workload]()
    if args.maps is not None:
        spec = spec.with_(n_maps=args.maps)
        spec.validate()

    expiry = (
        args.expiry_minutes * 60.0
        if args.expiry_minutes is not None
        else (1800.0 if args.scheduler == "moon" else 600.0)
    )
    sched = SchedulerConfig(
        kind=args.scheduler,
        tracker_expiry_interval=expiry,
        hybrid_aware=(args.scheduler == "moon" and not args.no_hybrid),
    )
    cfg = SystemConfig(
        cluster=ClusterConfig(
            n_volatile=args.volatile, n_dedicated=args.dedicated
        ),
        trace=TraceConfig(unavailability_rate=args.rate),
        scheduler=sched,
        seed=args.seed,
    )
    obs = _make_obs(args)
    system = (
        moon_system(cfg, obs=obs)
        if args.scheduler == "moon"
        else hadoop_system(cfg, obs=obs)
    )
    result = system.run_job(spec)
    print(result.summary())
    print(result.profile.row())
    _export_obs(obs)
    return 0 if result.succeeded else 1


# ======================================================================
# serve / replay / explain: one cell loop over RunSpecs
# ======================================================================
#: Serve-flag defaults by mode: the autoscale demonstration needs a
#: regime where tier *capacity* (not the admission bound) limits the
#: SLO — a smaller volatile pool, bigger bursts, a wider in-flight
#: window and the deadline-aware queue.  Flags a user passes always
#: win; these only fill the blanks.
_SERVE_DEFAULTS = {
    #        flag            normal   autoscale
    "policy": ("fifo", "edf"),
    "jobs_per_hour": (12.0, 24.0),
    "burst_size": (6.0, 12.0),
    "catalog": ("mixed", "sleep"),
    "volatile": (30, 12),
    "max_in_flight": (4, 8),
    "queue_depth": (64, 128),
}


def _resolve_serve_defaults(args) -> None:
    """Fill unset (None) serve flags for the active mode, in place."""
    scaled = args.autoscale is not None
    for flag, (normal, autoscale) in _SERVE_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, autoscale if scaled else normal)


#: The comparison axes in cell order (outermost first): every value an
#: 'all' expands to, and the comparison-title word.  A run's cells are
#: the product of the axes.
_AXES = {
    "autoscale": (AUTOSCALE_POLICIES, "autoscale-policy"),
    "policy": (QUEUE_POLICIES, "queue-policy"),
    "preempt": (PREEMPT_MODES, "preemption"),
    "detector": (DETECTOR_MODES, "detector"),
}


def _cells(args):
    """Each axis's values, and the cells of their product (one dict of
    axis -> value per cell, in canonical order)."""
    axes = {
        axis: list(every) if getattr(args, axis) == "all"
        else [getattr(args, axis)]
        for axis, (every, _title) in _AXES.items()
    }
    cells = [dict(zip(axes, combo)) for combo in product(*axes.values())]
    return axes, cells


def _one_cell(args, what: str):
    """The cell of a command that runs exactly one; None (after logging
    the usage error) when an axis is 'all'."""
    _, cells = _cells(args)
    if len(cells) == 1:
        return cells[0]
    log.error(
        "%s runs exactly one cell; pass one value, not 'all', for each "
        "comparison axis", what,
    )
    return None


def _max_dedicated(args) -> int:
    """The autoscale ceiling when --max-dedicated is unset."""
    return (
        args.max_dedicated
        if args.max_dedicated is not None
        else max(2 * args.dedicated, args.min_dedicated + 1)
    )


def _journal_cfg(args) -> DfsConfig:
    """DfsConfig from the --journal flags.  --namenode-crash implies
    the journal on (a crash without one is unrecoverable, and the
    flag's whole point is the failover)."""
    if args.journal != "on" and args.namenode_crash is None:
        return DfsConfig()
    return DfsConfig(
        journal=JournalConfig(
            enabled=True,
            checkpoint_interval=args.checkpoint_interval,
            crash_at=args.namenode_crash,
        )
    )


def _cell_spec(args, cell, arrivals, **service):
    """One cell's RunSpec: the world flags, the cell's axis values and
    the command's stream (``service`` adds ServiceConfig fields)."""
    from ..service import AutoscaleConfig, PreemptConfig, ServiceConfig
    from ..service.world import RunSpec

    autoscale = preempt = None
    if cell["autoscale"] is not None:
        autoscale = AutoscaleConfig(
            policy=cell["autoscale"],
            interval=args.autoscale_interval,
            min_dedicated=args.min_dedicated,
            max_dedicated=_max_dedicated(args),
        )
    if cell["preempt"] is not None:
        preempt = PreemptConfig(mode=cell["preempt"])
    return RunSpec(
        system=SystemConfig(
            cluster=ClusterConfig(
                n_volatile=args.volatile, n_dedicated=args.dedicated
            ),
            trace=TraceConfig(unavailability_rate=args.rate),
            scheduler=moon_scheduler_config(),
            detector=DetectorConfig(
                mode=cell["detector"], timeout_scale=args.detector_scale
            ),
            dfs=_journal_cfg(args),
            seed=args.seed,
        ),
        service=ServiceConfig(
            policy=cell["policy"],
            max_in_flight=args.max_in_flight,
            max_queue_depth=args.queue_depth,
            tenant_quota=args.tenant_quota,
            autoscale=autoscale,
            preempt=preempt,
            admission_prices=args.admission_prices,
            **service,
        ),
        arrivals=arrivals,
    )


def _comparison_title(args, axes, stream) -> str:
    """Names the varied axes and the stream, plus a single queue policy
    and the autoscale bounds when they hold for every cell."""
    title = " x ".join(_AXES[a][1] for a in axes if len(axes[a]) > 1)
    title += f" comparison - {stream}"
    if len(axes["policy"]) == 1:
        title += f", {axes['policy'][0]} queue"
    if axes["autoscale"] != [None]:
        title += (
            f" (D{args.dedicated}, bounds {args.min_dedicated}.."
            f"{_max_dedicated(args)})"
        )
    return title


def _serve_cells(args, arrivals, stream, capture=False, **service):
    """Serve every cell of the comparison on the same stream: print
    each report with its audits, then (for more than one cell) the
    comparison table with one key column per varied axis; write
    --json.  Returns the first cell's captured trace (None unless
    ``capture``)."""
    from ..service import render_decisions, render_preempt_events
    from ..service.world import comparison_table, run

    axes, cells = _cells(args)
    keys = [axis for axis, values in axes.items() if len(values) > 1]
    obs = _make_obs(args)
    runs = []
    captured = None
    for i, cell in enumerate(cells):
        spec = _cell_spec(
            args, cell, arrivals, capture=capture and i == 0, **service
        )
        # Like --capture, the flight recorder rides the first cell only.
        report, served = run(spec, obs=obs if i == 0 else None)
        if i == 0:
            captured = served.captured_trace
        print(report.render())
        print()
        if report.scale_events:
            print(render_decisions(report.scale_events))
            print()
        if report.preempt_events:
            print(render_preempt_events(report.preempt_events))
            print()
        runs.append(([cell[k] for k in keys], spec, report))
    if len(cells) > 1:
        title = _comparison_title(args, axes, stream)
        print(comparison_table(keys, runs, title))
    if args.json_out is not None:
        _write_reports_json(
            args.json_out, [report.to_dict() for _k, _s, report in runs]
        )
    _export_obs(obs)
    return captured


def cmd_serve(args) -> int:
    """Serve a continuous job stream and report SLO metrics."""
    from ..core import save_snapshot
    from ..service.world import (
        SyntheticArrivals,
        build_world,
        finish,
        numbered_tenants,
    )

    _resolve_serve_defaults(args)
    if args.pattern == "replay":
        # Fail fast (same check MoonService makes as a ConfigError):
        # serve synthesizes streams; a replay stream needs a trace file.
        log.error(
            "serve generates synthetic streams (poisson|bursty|diurnal) "
            "and cannot produce 'replay' entries; feed a workload trace "
            "with `repro replay --trace <file>` instead"
        )
        return 2
    arrivals = SyntheticArrivals(
        pattern=args.pattern,
        jobs_per_hour=args.jobs_per_hour,
        burst_size=args.burst_size,
        catalog=args.catalog,
        block_mb=args.block_mb,
        tenants=numbered_tenants(args.tenants),
    )
    horizon = args.hours * 3600.0
    if args.checkpoint is None and args.checkpoint_at is None:
        _serve_cells(
            args, arrivals, f"{args.pattern} arrivals", horizon=horizon
        )
        return 0
    if args.checkpoint is None or args.checkpoint_at is None:
        log.error("--checkpoint PATH and --checkpoint-at T go together")
        return 2
    cell = _one_cell(args, "--checkpoint")
    if cell is None:
        return 2
    # Advance to --checkpoint-at, persist the world, then keep serving
    # to the usual report; `repro resume` picks the snapshot up in a
    # fresh process and produces the identical report.
    obs = _make_obs(args)
    service = build_world(
        _cell_spec(args, cell, arrivals, horizon=horizon), obs
    )
    service.advance(args.checkpoint_at)
    save_snapshot(service, args.checkpoint)
    print(
        f"checkpoint written at t={service.sim.now:.1f}s -> "
        f"{args.checkpoint} (resume with `repro resume "
        f"{args.checkpoint}`)"
    )
    report = finish(service)
    print(report.render())
    if args.json_out is not None:
        _write_reports_json(args.json_out, [report.to_dict()])
    _export_obs(obs)
    return 0


def cmd_sweep(args) -> int:
    """Fan a policy x scale x seed grid across processes and merge."""
    from ..errors import ConfigError
    from ..plotting import table
    from ..service import SweepSpec, run_sweep, sweep_summary_rows

    def csv(text, cast):
        return tuple(cast(v.strip()) for v in text.split(",") if v.strip())

    try:
        spec = SweepSpec(
            policies=(
                tuple(QUEUE_POLICIES) if args.policies == "all"
                else tuple(p.strip() for p in args.policies.split(","))
            ),
            scales=csv(args.scales, float),
            seeds=csv(args.seeds, int),
            jobs_per_hour=args.jobs_per_hour,
            hours=args.hours,
            n_volatile=args.volatile,
            n_dedicated=args.dedicated,
            unavailability_rate=args.rate,
            catalog=args.catalog,
            max_in_flight=args.max_in_flight,
            max_queue_depth=args.queue_depth,
            tenants=args.tenants,
        )
        spec.validate()
    except (ConfigError, ValueError) as exc:
        log.error("bad sweep grid: %s", exc)
        return 2
    n_cells = len(spec.policies) * len(spec.scales) * len(spec.seeds)
    log.info("sweeping %d cell(s) on %d process(es)", n_cells, args.procs)
    result = run_sweep(spec, procs=args.procs)
    print(
        table(
            ["policy", "scale", "seed", "done", "p50 s", "p95 s",
             "miss", "good/h"],
            sweep_summary_rows(result),
            title=(
                f"sweep - {n_cells} cells, "
                f"{spec.jobs_per_hour:g} jobs/h base, "
                f"{spec.hours:g}h horizon"
            ),
        )
    )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json())
        log.info("wrote %s", args.json_out)
    return 0


def cmd_resume(args) -> int:
    """Continue a serve checkpoint: to drain (report), or to --until
    (re-checkpointed)."""
    from ..core import load_snapshot, save_snapshot
    from ..errors import SnapshotError
    from ..service import MoonService
    from ..service.world import finish

    if args.until is not None and args.checkpoint is None:
        log.error(
            "--until advances the world without finishing it; the "
            "progress must be persisted — add --checkpoint PATH"
        )
        return 2
    try:
        service = load_snapshot(args.snapshot)
    except (SnapshotError, OSError) as exc:
        log.error("cannot load %s: %s", args.snapshot, exc)
        return 2
    if not isinstance(service, MoonService):
        log.error(
            "cannot resume %s: its root is a %s, but resume continues "
            "a MoonService (write one with `repro serve --checkpoint`)",
            args.snapshot, type(service).__name__,
        )
        return 2
    if args.until is not None:
        if args.until < service.sim.now:
            log.error(
                "--until %.1f is behind the snapshot's clock t=%.1fs: a "
                "resumed world only moves forward",
                args.until, service.sim.now,
            )
            return 2
        drained = service.advance(args.until)
        save_snapshot(service, args.checkpoint)
        print(
            f"advanced to t={service.sim.now:.1f}s "
            f"({'drained' if drained else 'still serving'}); "
            f"checkpoint written -> {args.checkpoint}"
        )
        return 0
    report = finish(service)
    if args.checkpoint is not None:
        save_snapshot(service, args.checkpoint)
        print(f"final checkpoint written -> {args.checkpoint}")
    print(report.render())
    if args.json_out is not None:
        _write_reports_json(args.json_out, [report.to_dict()])
    return 0


def _load_trace(args):
    """``--trace`` loaded, optionally synthesized (``--scale`` /
    ``--stretch``) and calibrated once, so a bad trace fails before any
    cell runs: ``(trace, TraceArrivals, ServiceConfig fields)``, or
    None after logging."""
    from ..errors import ReproError
    from ..service.world import TraceArrivals
    from ..workload_traces import (
        CalibrationConfig,
        SynthesisConfig,
        load_workload_trace,
        synthesize,
        trace_arrivals,
    )

    try:
        trace = load_workload_trace(args.trace)
        if args.scale is not None or args.stretch is not None:
            trace = synthesize(
                trace,
                np.random.default_rng(args.seed),
                SynthesisConfig(
                    load_factor=1.0 if args.scale is None else args.scale,
                    horizon_factor=(
                        1.0 if args.stretch is None else args.stretch
                    ),
                ),
            )
        arrivals = trace_arrivals(
            trace,
            CalibrationConfig(
                max_maps=args.max_maps,
                max_reduces=args.max_reduces,
                time_scale=args.time_scale,
            ),
        )
    except (ReproError, OSError) as exc:
        log.error("%s: %s", args.command, exc)
        return None
    service = dict(horizon=trace.horizon, trace_name=trace.name,
                   drain_limit=args.drain_hours * 3600.0)
    return trace, TraceArrivals(tuple(arrivals), trace.pattern), service


# ======================================================================
# replay
# ======================================================================
def cmd_replay(args) -> int:
    """Replay a workload-trace file through the service layer."""
    from ..workload_traces import save_workload_json

    loaded = _load_trace(args)
    if loaded is None:
        return 2
    trace, arrivals, service = loaded
    print(trace.summary().render())
    print()
    captured = _serve_cells(
        args, arrivals, f"trace {trace.name}",
        capture=args.capture is not None, **service,
    )
    if captured is not None:
        try:
            save_workload_json(args.capture, captured)
        except OSError as exc:
            log.error("replay: cannot write capture: %s", exc)
            return 2
        log.info("captured %d arrivals -> %s", len(captured), args.capture)
    return 0


# ======================================================================
# explain / diff
# ======================================================================
def cmd_explain(args) -> int:
    """Causal blame attribution: why was this job slow?"""
    from ..obs.explain import explain_trace_file, explain_tracer
    from ..service.world import run

    obs = None
    if args.from_trace is not None:
        try:
            explanation = explain_trace_file(args.from_trace)
        except (OSError, ValueError) as exc:
            log.error("explain: %s", exc)
            return 2
    else:
        if args.trace is None:
            log.error(
                "explain: pass --trace <workload file> to replay, or "
                "--from <trace-out JSON> to explain a recorded run"
            )
            return 2
        cell = _one_cell(args, "explain")
        if cell is None:
            return 2
        loaded = _load_trace(args)
        if loaded is None:
            return 2
        _trace, arrivals, service = loaded
        # The recorder is the whole point here: armed unconditionally,
        # with any --trace-out/--metrics-out files riding along.
        obs = _make_obs(args, trace=True)
        run(_cell_spec(args, cell, arrivals, **service), obs=obs)
        explanation = explain_tracer(obs.tracer)
    if not explanation.jobs:
        log.error("explain: the trace contains no finished jobs")
        return 2

    print(explanation.render_aggregates())
    print()
    if args.job is not None:
        blame = explanation.job(args.job)
        if blame is None:
            log.error("explain: no finished job with seq %d", args.job)
            return 2
        selected, what = [blame], f"job seq{args.job}"
    elif args.tenant is not None:
        selected = explanation.tenant_jobs(args.tenant)
        if not selected:
            log.error(
                "explain: tenant %r finished no jobs", args.tenant
            )
            return 2
        what = f"tenant {args.tenant} ({len(selected)} job(s))"
    else:
        selected = explanation.worst(args.worst)
        what = f"{len(selected)} slowest job(s)"
    print(f"critical paths - {what}:")
    print()
    print("\n\n".join(explanation.render_job(b) for b in selected))
    if args.json_out is not None:
        _write_json(args.json_out, explanation.to_dict(), "explanation")
    _export_obs(obs)
    return 0


def cmd_diff(args) -> int:
    """First causal divergence between two run artifacts."""
    from ..obs.explain import diff_files

    try:
        kind, divergence, compared = diff_files(args.a, args.b)
    except (OSError, ValueError) as exc:
        log.error("diff: %s", exc)
        return 2
    unit = "trace event(s)" if kind == "trace" else "metric key(s)"
    if divergence is None:
        print(f"no divergence ({compared} {unit} compared)")
        return 0
    print(divergence.render())
    return 1


# ======================================================================
# trace
# ======================================================================
def cmd_trace(args) -> int:
    """Generate or summarise availability trace files."""
    if args.trace_command == "generate":
        return _trace_generate(args)
    return _trace_stats(args)


def _trace_generate(args) -> int:
    rng = np.random.default_rng(args.seed)
    base = TraceConfig(
        unavailability_rate=args.rate, distribution=args.distribution
    )
    if args.correlated:
        traces = generate_correlated_traces(
            CorrelatedConfig(base=base), args.nodes, rng
        )
    else:
        traces = [generate_trace(base, rng) for _ in range(args.nodes)]
    if str(args.output).endswith(".json"):
        save_traces_json(args.output, traces)
    else:
        save_traces_csv(args.output, traces)
    stats = compute_stats(traces)
    log.info("wrote %d traces to %s", len(traces), args.output)
    print(stats)
    return 0


def _trace_stats(args) -> int:
    if str(args.input).endswith(".json"):
        traces = load_traces_json(args.input)
    else:
        traces = load_traces_csv(args.input)
    stats = compute_stats(traces)
    print(stats)
    lengths = np.concatenate(
        [t.outage_lengths() for t in traces if len(t)] or [np.empty(0)]
    )
    if args.histogram and lengths.size:
        print()
        print(histogram(lengths.tolist(), bins=12,
                        title="outage lengths (s)"))
    if getattr(args, "fit", False) and lengths.size >= 3:
        from ..traces import fit_outages, fit_report

        print()
        print(fit_report(fit_outages(lengths)))
    return 0


# ======================================================================
# availability / estimate
# ======================================================================
def cmd_availability(args) -> int:
    """Replication-strategy arithmetic (paper Sections I/III)."""
    print(strategy_table(args.p, args.goal, p_dedicated=args.p_dedicated))
    return 0


def cmd_validate(args) -> int:
    """Cross-check the simulator against the analytical models."""
    from ..experiments import validate

    points = validate.run_validation()
    print(validate.report(points))
    return 0 if validate.within_band(points) else 1


def cmd_estimate(args) -> int:
    """Analytical makespan estimate for a workload."""
    spec = sort_spec() if args.workload == "sort" else wordcount_spec()
    kill = (
        args.expiry_minutes * 60.0
        if args.expiry_minutes is not None
        else float("inf")
    )
    est = estimate_makespan(spec, args.nodes, args.rate, kill_after=kill)
    print(
        bar_chart(
            [args.workload],
            {
                "map": [est.map_time],
                "shuffle": [est.shuffle_time],
                "reduce": [est.reduce_time],
            },
            title=(
                f"analytical makespan, {args.nodes} nodes at "
                f"p={args.rate}: {est.total:,.0f} s total"
            ),
            unit="s",
        )
    )
    return 0


# ======================================================================
# perf
# ======================================================================
def cmd_perf(args) -> int:
    """Time macro-scenarios; write BENCH_PR2.json; gate regressions."""
    from ..perf import run_perf

    return run_perf(
        names=args.scenario or None,
        repeat=args.repeat,
        check=args.check,
        update_baseline=args.update_baseline,
        output=args.output,
        baseline_path=args.baseline,
    )


# ======================================================================
# profile
# ======================================================================
def cmd_profile(args) -> int:
    """Profile the dispatch loop over perf scenarios; print the hot
    table (per-handler count, cumulative wall-clock, share)."""
    from ..obs import default_observability
    from ..obs.profile import PROFILE_SCHEMA_VERSION
    from ..perf import SCENARIOS

    names = args.scenario or ["fig6"]
    obs = _make_obs(args, profile=True)
    # Scenarios construct their systems internally; the process-wide
    # default hands every Simulation they build this recorder.
    with default_observability(obs):
        for name in names:
            log.info("profiling scenario %s", name)
            work = SCENARIOS[name].run()
            print(
                f"[profile] {name}: {SCENARIOS[name].description} "
                f"({int(work.get('events', 0))} events)"
            )
    print()
    print(obs.profiler.table(top=args.top))
    if args.json_out is not None:
        payload = {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "scenarios": names,
            "profile": obs.profiler.to_dict(),
        }
        _write_json(args.json_out, payload, "profile")
    _export_obs(obs)
    return 0
