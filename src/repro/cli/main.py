"""CLI argument parsing and dispatch (see package docstring)."""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from .. import __version__
from . import commands


def _add_json_flag(parser, help_text: str) -> None:
    parser.add_argument("--json", default=None, metavar="PATH",
                        dest="json_out", help=help_text)


def _add_obs_flags(parser) -> None:
    """The flight-recorder flags of run, profile and the world commands."""
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write a Chrome-trace-event JSON of the run (load in "
             "Perfetto / chrome://tracing; first cell when comparing "
             "policies)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (counters, gauges, "
             "histograms) as JSON",
    )
    parser.add_argument(
        "--max-trace-events", type=int, default=1_000_000, metavar="N",
        help="tracer memory cap; events beyond it are dropped, "
             "counted in obs/dropped_events and warned about at "
             "export (never silently)",
    )


def _add_comparison_flags(parser, policy_default) -> None:
    """The queue-policy and autoscale axes (each may be 'all') and the
    autoscale bounds, shared by serve and replay."""
    from ..service.autoscale import AUTOSCALE_POLICIES
    from ..service.queue import QUEUE_POLICIES

    parser.add_argument(
        "--policy", choices=list(QUEUE_POLICIES) + ["all"],
        default=policy_default,
        help="queue ordering policy ('all' compares every policy)"
             + _mode_tag("policy", policy_default),
    )
    parser.add_argument(
        "--autoscale", choices=list(AUTOSCALE_POLICIES) + ["all"],
        default=None,
        help="autoscale the dedicated tier with this provisioning "
             "policy ('all' compares the three on cost and SLO)",
    )
    parser.add_argument("--min-dedicated", type=int, default=1,
                        help="autoscale floor for the dedicated tier")
    parser.add_argument("--max-dedicated", type=int, default=None,
                        help="autoscale ceiling (default: 2x --dedicated, "
                             "at least --min-dedicated + 1)")
    parser.add_argument("--autoscale-interval", type=float, default=30.0,
                        help="seconds between autoscale control rounds")


#: Defaults of the shared world flags, one row per command.  None marks
#: a serve flag whose default depends on the mode (see
#: repro.cli.commands._SERVE_DEFAULTS); the synthetic-stream flags
#: exist only where a row sets ``hours``.
_WORLD_DEFAULTS = {
    "serve": dict(volatile=None, dedicated=3, max_in_flight=None,
                  queue_depth=None, jobs_per_hour=None, hours=2.0,
                  catalog=None),
    "replay": dict(volatile=12, dedicated=2, max_in_flight=4,
                   queue_depth=64),
    "explain": dict(volatile=12, dedicated=2, max_in_flight=4,
                    queue_depth=64),
    "sweep": dict(volatile=8, dedicated=2, max_in_flight=4,
                  queue_depth=64, jobs_per_hour=12.0, hours=1.0,
                  catalog="sleep"),
}


def _mode_tag(flag: str, default) -> str:
    """Help suffix of a serve flag whose default depends on the mode."""
    if default is not None:
        return ""
    values = commands._SERVE_DEFAULTS[flag]
    return " [mode: {} / {}]".format(
        *(f"{v:g}" if isinstance(v, float) else v for v in values)
    )


def _add_world_flags(parser, command: str) -> None:
    """The cluster, admission and stream flags shared by serve, replay,
    explain and sweep, with the command's defaults from
    :data:`_WORLD_DEFAULTS`; every command but sweep also gets the seed,
    tenant quota, preemption, detector, journal and obs flags."""
    from ..config import DETECTOR_MODES
    from ..service.preempt import PREEMPT_MODES

    d = _WORLD_DEFAULTS[command]
    parser.add_argument("--rate", type=float, default=0.3,
                        help="volatile-node unavailability rate")
    parser.add_argument("--volatile", type=int, default=d["volatile"],
                        help="volatile node count"
                             + _mode_tag("volatile", d["volatile"]))
    parser.add_argument("--dedicated", type=int, default=d["dedicated"],
                        help="dedicated node count")
    parser.add_argument("--max-in-flight", type=int,
                        default=d["max_in_flight"],
                        help="jobs concurrently admitted to the cluster"
                             + _mode_tag("max_in_flight",
                                         d["max_in_flight"]))
    parser.add_argument("--queue-depth", type=int, default=d["queue_depth"],
                        help="queue bound; arrivals beyond it are rejected"
                             + _mode_tag("queue_depth", d["queue_depth"]))
    if "hours" in d:
        parser.add_argument(
            "--jobs-per-hour", type=float, default=d["jobs_per_hour"],
            help="mean arrival rate (peak rate for diurnal; the sweep's "
                 "scale axis multiplies it)"
                 + _mode_tag("jobs_per_hour", d["jobs_per_hour"]),
        )
        parser.add_argument("--hours", type=float, default=d["hours"],
                            help="admission horizon in simulated hours")
        parser.add_argument("--tenants", type=int, default=3,
                            help="number of tenants sharing the service")
        parser.add_argument(
            "--catalog", choices=["mixed", "sleep"], default=d["catalog"],
            help="workload mix: real data jobs, or data-free sleep jobs"
                 + _mode_tag("catalog", d["catalog"]),
        )
    if command == "sweep":
        return
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tenant-quota", type=int, default=None,
                        help="max in-flight jobs per tenant")
    parser.add_argument(
        "--preempt", choices=list(PREEMPT_MODES) + ["all"], default=None,
        help="act on in-flight loose-SLO jobs when tight-SLO arrivals "
             "queue up: demote them ('deprioritise') or additionally "
             "suspend them under sustained pressure ('pause'); 'all' "
             "compares the three modes",
    )
    parser.add_argument(
        "--admission-prices", action="store_true",
        help="at queue saturation shed the cheapest-to-miss work "
             "(deadline-free, then loosest SLO) instead of the newest "
             "arrival",
    )
    parser.add_argument(
        "--detector", choices=list(DETECTOR_MODES) + ["all"],
        default="oracle",
        help="how observers learn node state: 'oracle' (trace-fed "
             "judgements, the byte-identical historical default), "
             "'timeout' (honest fixed heartbeat timeouts with "
             "observation noise), 'adaptive' (phi-accrual-style "
             "per-node thresholds); 'all' compares the three",
    )
    parser.add_argument(
        "--detector-scale", type=float, default=1.0,
        help="multiply every honest detection threshold (the "
             "detection-latency axis: 0.5 suspects twice as fast)",
    )
    parser.add_argument(
        "--journal", choices=["off", "on"], default="off",
        help="NameNode write-ahead journal: 'off' (the byte-identical "
             "historical default — an immortal NameNode, zero extra "
             "events) or 'on' (journal every namespace/block-map "
             "mutation and checkpoint periodically)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=300.0,
        help="seconds between namespace checkpoints when the journal "
             "is on (shorter -> fewer records replayed at recovery)",
    )
    parser.add_argument(
        "--namenode-crash", type=float, default=None, metavar="T",
        help="crash and fail over the NameNode at sim-time T seconds, "
             "losing unsynced journal records (implies --journal on)",
    )
    _add_obs_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (one sub-command per artifact)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MOON (HPDC 2010) reproduction: regenerate the paper's "
            "figures and tables, run jobs, inspect traces."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose",
        action="store_true",
        help="log progress diagnostics to stderr (INFO level)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # --- figures/tables -------------------------------------------------
    for name, help_text in (
        ("fig1", "Figure 1: 7-day volunteer availability trace"),
        ("fig4", "Figures 4+5: scheduling policy comparison"),
        ("fig6", "Figure 6: intermediate-data replication policies"),
        ("fig7", "Figure 7: overall MOON vs augmented Hadoop"),
        ("table1", "Table I: application configurations"),
        ("table2", "Table II: execution profile at 0.5 unavailability"),
        ("ablations", "network / two-phase / LATE ablation sweeps"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name in ("fig4", "fig6", "fig7", "table2"):
            p.add_argument(
                "--app",
                choices=["sort", "wordcount", "both"],
                default="both",
                help="which application panel to reproduce",
            )
        if name == "ablations":
            p.add_argument(
                "--which",
                choices=["network", "twophase", "late", "all"],
                default="all",
            )

    # --- run ------------------------------------------------------------
    run_p = sub.add_parser("run", help="run one job on a simulated cluster")
    run_p.add_argument(
        "--workload",
        choices=["sort", "wordcount", "sleep-sort", "sleep-wordcount", "grep"],
        default="sort",
    )
    run_p.add_argument("--scheduler", choices=["moon", "hadoop", "late"],
                       default="moon")
    run_p.add_argument("--no-hybrid", action="store_true",
                       help="disable hybrid-aware task placement")
    run_p.add_argument("--rate", type=float, default=0.3,
                       help="volatile-node unavailability rate")
    run_p.add_argument("--volatile", type=int, default=60)
    run_p.add_argument("--dedicated", type=int, default=6)
    run_p.add_argument("--maps", type=int, default=None,
                       help="override the workload's map-task count")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--expiry-minutes", type=float, default=None,
                       help="TrackerExpiryInterval override (minutes)")
    _add_obs_flags(run_p)

    # --- serve ----------------------------------------------------------
    serve_p = sub.add_parser(
        "serve",
        help="serve a continuous multi-tenant job stream (SLO report)",
        description=(
            "Run MOON as a long-lived service: jobs arrive over a "
            "simulated horizon (Poisson, bursty or diurnal), pass "
            "admission control and a queue policy, and are tracked "
            "against per-class response-time SLOs.  The report gives "
            "queue wait, p50/p95/p99 response time, deadline-miss "
            "rate, goodput and tenant fairness."
        ),
        epilog=(
            "examples:\n"
            "  compare all four queue policies under bursty traffic:\n"
            "    repro serve --pattern bursty --policy all "
            "--jobs-per-hour 18 --hours 2 \\\n"
            "        --catalog sleep --max-in-flight 2 --volatile 30 "
            "--dedicated 3 --rate 0.3\n"
            "    (EDF should post the lowest deadline-miss rate; FIFO "
            "the highest)\n"
            "  compare dedicated-tier provisioning policies on cost "
            "and SLO:\n"
            "    repro serve --autoscale all --pattern bursty\n"
            "    (reactive/predictive should beat the static tier on "
            "miss rate at\n     equal-or-fewer dedicated node-hours)\n"
            "Flags marked [mode] default differently under --autoscale "
            "— see repro.cli.commands._SERVE_DEFAULTS."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve_p.add_argument(
        "--pattern", choices=["poisson", "bursty", "diurnal", "replay"],
        default="poisson",
        help="arrival process shape ('replay' needs a trace file — "
             "use `repro replay --trace <file>` instead)",
    )
    serve_p.add_argument("--burst-size", type=float, default=None,
                         help="mean jobs per burst (bursty pattern)"
                              + _mode_tag("burst_size", None))
    serve_p.add_argument("--block-mb", type=float, default=4.0,
                         help="block size of the mixed catalog's jobs")
    serve_p.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a snapshot of the running service at sim-time "
             "--checkpoint-at, then keep serving to the usual report "
             "(resume later with `repro resume PATH`); single-cell "
             "runs only",
    )
    serve_p.add_argument(
        "--checkpoint-at", type=float, default=None, metavar="T",
        help="sim-time (seconds) at which to take the --checkpoint "
             "snapshot",
    )
    _add_comparison_flags(serve_p, policy_default=None)
    _add_world_flags(serve_p, "serve")
    _add_json_flag(serve_p, "also write the report(s) as versioned JSON")

    # --- replay ---------------------------------------------------------
    replay_p = sub.add_parser(
        "replay",
        help="replay a workload-trace file through the service layer",
        description=(
            "Serve a recorded job stream instead of a synthetic one: "
            "load a Google-cluster-style CSV, a Hadoop "
            "JobHistory-style JSON, or a canonical repro trace; "
            "calibrate its jobs onto the workload catalogue; "
            "optionally synthesize a scaled variant; then serve it "
            "under one or all queue (or autoscale) policies on "
            "identical streams.  Reports are byte-identical across "
            "processes for a given trace + seed."
        ),
        epilog=(
            "examples:\n"
            "  compare all four queue policies on the bundled sample:\n"
            "    repro replay --trace benchmarks/data/"
            "google_cluster_sample.csv --policy all\n"
            "  double the load via the fitted synthesizer:\n"
            "    repro replay --trace <file> --scale 2 --policy edf\n"
            "  compare preemption modes at 3x load (EDF+pause should "
            "post the lowest\n  tight-SLO miss rate):\n"
            "    repro replay --trace <file> --scale 3 --policy edf "
            "--preempt all\n"
            "  round-trip: capture the served run back out as a "
            "canonical trace:\n"
            "    repro replay --trace <file> --capture served.json"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    replay_p.add_argument("--trace", required=True,
                          help="trace file (.csv google-style, .json "
                               "hadoop-style or canonical)")
    replay_p.add_argument("--scale", type=float, default=None,
                          help="synthesize a variant at this load factor "
                               "(fitted inter-arrival law; default: "
                               "replay verbatim)")
    replay_p.add_argument("--stretch", type=float, default=None,
                          help="horizon multiplier for the synthesized "
                               "variant (implies synthesis)")
    replay_p.add_argument("--capture", default=None, metavar="PATH",
                          help="write the served stream back out as a "
                               "canonical trace JSON (first cell when "
                               "comparing policies)")
    replay_p.add_argument("--max-maps", type=int, default=None,
                          help="calibration cap on map tasks per job "
                               "(durations scale up to preserve work)")
    replay_p.add_argument("--max-reduces", type=int, default=None,
                          help="calibration cap on reduce tasks per job")
    replay_p.add_argument("--time-scale", type=float, default=1.0,
                          help="stretch/compress per-task durations")
    replay_p.add_argument("--drain-hours", type=float, default=4.0,
                          help="extra simulated hours to drain the "
                               "backlog after the trace horizon")
    _add_comparison_flags(replay_p, policy_default="fifo")
    _add_world_flags(replay_p, "replay")
    _add_json_flag(replay_p, "also write the report(s) as versioned JSON")

    # --- sweep ----------------------------------------------------------
    sweep_p = sub.add_parser(
        "sweep",
        help="parallel policy x scale x seed sweep with a merged report",
        description=(
            "Fan a grid of independent serve cells — queue policy x "
            "load multiplier x seed — across worker processes and "
            "merge the results into one byte-stable report: the same "
            "grid produces identical JSON at any --procs, so two "
            "sweep files can be compared with `repro diff` or plain "
            "cmp.  The scale axis multiplies --jobs-per-hour."
        ),
        epilog=(
            "examples:\n"
            "  all four policies at 1x and 2x load, three seeds, "
            "8 workers:\n"
            "    repro sweep --scales 1,2 --seeds 1,2,3 --procs 8 "
            "--json sweep.json\n"
            "  is the SJF win seed-luck? one policy pair, many seeds:\n"
            "    repro sweep --policies fifo,sjf --seeds 1,2,3,4,5,6"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sweep_p.add_argument("--policies", default="all",
                         help="comma-separated queue policies, or 'all' "
                              "(default)")
    sweep_p.add_argument("--scales", default="1.0",
                         help="comma-separated load multipliers on "
                              "--jobs-per-hour")
    sweep_p.add_argument("--seeds", default="42",
                         help="comma-separated seeds")
    sweep_p.add_argument("--procs", type=int, default=1,
                         help="worker processes (results are "
                              "byte-identical at any value)")
    _add_world_flags(sweep_p, "sweep")
    _add_json_flag(sweep_p, "write the merged sweep report (canonical bytes)")

    # --- resume ---------------------------------------------------------
    resume_p = sub.add_parser(
        "resume",
        help="resume a serve checkpoint instead of re-simulating from 0",
        description=(
            "Load a snapshot written by `repro serve --checkpoint` and "
            "continue the run from the captured instant: same events, "
            "same RNG draws, same report as the uninterrupted run.  "
            "Without --until the stream is served to drain and the SLO "
            "report printed; with --until the world advances to that "
            "sim-time and is re-checkpointed (requires --checkpoint)."
        ),
    )
    resume_p.add_argument("snapshot",
                          help="checkpoint file from `serve --checkpoint`")
    resume_p.add_argument(
        "--until", type=float, default=None, metavar="T",
        help="advance to sim-time T and stop (instead of serving to "
             "drain); the progress must be persisted with --checkpoint",
    )
    resume_p.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="write a new snapshot after advancing")
    _add_json_flag(resume_p, "also write the final report as versioned JSON")

    # --- explain --------------------------------------------------------
    explain_p = sub.add_parser(
        "explain",
        help="why was this job slow? causal blame over the flight recorder",
        description=(
            "Replay a workload trace with the flight recorder armed "
            "(or load an existing --trace-out JSON), rebuild each "
            "job's causal graph, and partition its response time into "
            "an exhaustive blame taxonomy: queue wait, useful "
            "execution, shuffle, straggler wait, re-execution after "
            "real failures vs false-positive suspicion, preemption "
            "pauses, NameNode-recovery stalls, slot wait and commit.  "
            "Components sum to the response time exactly, so nothing "
            "hides."
        ),
        epilog=(
            "examples:\n"
            "  the three slowest jobs of a replayed stream:\n"
            "    repro explain --trace benchmarks/data/"
            "hadoop_jobhistory_sample.json --worst 3\n"
            "  one job by service seq, under an honest detector:\n"
            "    repro explain --trace <file> --detector timeout --job 7\n"
            "  explain a trace file recorded earlier:\n"
            "    repro replay --trace <file> --trace-out run.json\n"
            "    repro explain --from run.json"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    explain_p.add_argument("--trace", default=None,
                           help="workload trace to replay with the "
                                "recorder armed (as `repro replay`)")
    explain_p.add_argument("--from", dest="from_trace", default=None,
                           metavar="PATH",
                           help="explain an existing --trace-out "
                                "Chrome-trace JSON instead of running")
    explain_p.add_argument("--scale", type=float, default=None,
                           help="synthesize the trace at this load "
                                "factor before replaying")
    from ..service.queue import QUEUE_POLICIES

    explain_p.add_argument("--policy", choices=list(QUEUE_POLICIES),
                           default="fifo",
                           help="queue ordering policy of the replayed "
                                "cell")
    explain_p.add_argument("--job", type=int, default=None, metavar="N",
                           help="explain the job with service seq N")
    explain_p.add_argument("--worst", type=int, default=3, metavar="K",
                           help="explain the K slowest jobs (default 3)")
    explain_p.add_argument("--tenant", default=None,
                           help="explain every job of one tenant")
    explain_p.add_argument("--drain-hours", type=float, default=4.0)
    _add_world_flags(explain_p, "explain")
    _add_json_flag(explain_p, "also write the explanation as versioned JSON")
    # Replay's trace and axis knobs that explain pins (no flags): the
    # unsynthesized horizon, identity calibration and a fixed tier.
    explain_p.set_defaults(stretch=None, max_maps=None, max_reduces=None,
                           time_scale=1.0, autoscale=None)

    # --- diff -----------------------------------------------------------
    diff_p = sub.add_parser(
        "diff",
        help="first causal divergence between two run artifacts",
        description=(
            "Align two flight-recorder files (--trace-out Chrome-trace "
            "JSON or --metrics-out registry JSON) and report the first "
            "causal divergence: event index, simulated time, layer and "
            "the differing fields.  Exit 0 when identical, 1 on "
            "divergence, 2 on unreadable or mismatched inputs."
        ),
    )
    diff_p.add_argument("a", help="first run artifact (JSON)")
    diff_p.add_argument("b", help="second run artifact (JSON)")

    # --- trace ----------------------------------------------------------
    trace_p = sub.add_parser(
        "trace", help="generate or inspect availability traces"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    gen = trace_sub.add_parser("generate", help="write a trace file")
    gen.add_argument("output", help="output path (.csv or .json)")
    gen.add_argument("--nodes", type=int, default=60)
    gen.add_argument("--rate", type=float, default=0.4)
    gen.add_argument(
        "--distribution",
        choices=["normal", "lognormal", "weibull", "exponential", "pareto"],
        default="normal",
    )
    gen.add_argument("--correlated", action="store_true",
                     help="use the lab-session correlated model")
    gen.add_argument("--seed", type=int, default=42)
    stats = trace_sub.add_parser("stats", help="summarise a trace file")
    stats.add_argument("input", help="trace file written by 'generate'")
    stats.add_argument("--histogram", action="store_true",
                       help="also print the outage-length histogram")
    stats.add_argument("--fit", action="store_true",
                       help="fit outage-length families (ranked by AIC)")

    # --- availability math -----------------------------------------------
    avail_p = sub.add_parser(
        "availability",
        help="replication-strategy arithmetic (paper Sections I/III)",
    )
    avail_p.add_argument("--p", type=float, default=0.4,
                         help="volatile-node unavailability")
    avail_p.add_argument("--p-dedicated", type=float, default=0.001)
    avail_p.add_argument("--goal", type=float, default=0.9999)

    # --- analytical estimate ---------------------------------------------
    est_p = sub.add_parser(
        "estimate", help="analytical makespan estimate for a workload"
    )
    est_p.add_argument("--workload", choices=["sort", "wordcount"],
                       default="sort")
    est_p.add_argument("--nodes", type=int, default=60)
    est_p.add_argument("--rate", type=float, default=0.3)
    est_p.add_argument("--expiry-minutes", type=float, default=None)

    # --- validation --------------------------------------------------------
    sub.add_parser(
        "validate",
        help="cross-check the simulator against the analytical models",
    )

    # --- perf -------------------------------------------------------------
    from ..perf import SCENARIOS

    perf_p = sub.add_parser(
        "perf",
        help="time macro-scenarios against the committed perf baseline",
        description=(
            "Run named end-to-end scenarios (figure-pipeline slices, "
            "the 2k-job service stream, a fair-share network stress), "
            "write BENCH_PR2.json at the repo root, and with --check "
            "fail if any scenario runs >20% slower than the baseline "
            "committed in benchmarks/perf/baseline.json."
        ),
    )
    perf_p.add_argument(
        "--scenario",
        action="append",
        choices=list(SCENARIOS),
        help="scenario to run (repeatable; default: all)",
    )
    perf_p.add_argument("--repeat", type=int, default=1,
                        help="timing repeats per scenario (fastest wins)")
    perf_p.add_argument("--check", action="store_true",
                        help="exit 1 on >20%% regression vs the baseline")
    perf_p.add_argument("--update-baseline", action="store_true",
                        help="re-pin benchmarks/perf/baseline.json")
    perf_p.add_argument("--output", default=None,
                        help="report path (default: <repo>/BENCH_PR2.json)")
    perf_p.add_argument("--baseline", default=None,
                        help="baseline path override")

    # --- profile ----------------------------------------------------------
    profile_p = sub.add_parser(
        "profile",
        help="profile the dispatch loop over a perf scenario",
        description=(
            "Run a perf scenario with the dispatch-loop profiler armed "
            "and print a per-event-type hot table: call count, "
            "cumulative wall-clock and share of dispatch time for each "
            "handler.  Wall-clock lives outside the determinism "
            "boundary — the simulated behaviour is unchanged."
        ),
    )
    profile_p.add_argument(
        "--scenario",
        action="append",
        choices=list(SCENARIOS),
        help="scenario to profile (repeatable; default: fig6)",
    )
    profile_p.add_argument("--top", type=int, default=20,
                           help="rows in the hot table")
    _add_json_flag(profile_p, "also write the profile as versioned JSON "
                              "(schema_version, scenarios, per-event "
                              "count/seconds)")
    _add_obs_flags(profile_p)

    return parser


def _configure_logging(verbose: bool) -> None:
    """Route diagnostics to stderr; INFO only under ``--verbose``.

    ``force=True`` so repeated in-process ``main()`` calls (tests,
    notebooks) reconfigure instead of silently keeping the first
    handler.
    """
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    # Every sub-command NAME is handled by commands.cmd_NAME.
    handler = getattr(commands, f"cmd_{args.command}")
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `repro fig4 | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
