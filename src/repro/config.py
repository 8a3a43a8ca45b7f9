"""Configuration dataclasses for every layer of the MOON stack.

All values default to the paper's experimental setup (Section VI):
60 volatile + 6 dedicated nodes, 1 GbE network, Hadoop 0.17-era
parameters (2 map + 2 reduce slots per node, 64 MB blocks, 10-minute
TrackerExpiryInterval) and MOON parameters (1-minute SuspensionInterval,
30-minute TrackerExpiryInterval, H=20, R=2, 20% speculative cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .errors import ConfigError

#: Seconds in one simulated hour / the paper's 8-hour trace length.
HOUR = 3600.0
TRACE_LENGTH = 8 * HOUR

#: Mean node-outage interval extracted from the Entropia trace (paper VI).
MEAN_OUTAGE_SECONDS = 409.0


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node class.

    Bandwidths are in MB/s.  The paper's testbed used 1 GbE (~115 MB/s
    raw); we default to an effective 80 MB/s NIC and 60 MB/s disk, which
    reproduces the relative I/O pressure of the testbed.
    """

    cpu_scale: float = 1.0
    disk_mbps: float = 60.0
    nic_mbps: float = 80.0
    map_slots: int = 2
    reduce_slots: int = 2
    storage_gb: float = 80.0

    def validate(self) -> None:
        if self.cpu_scale <= 0:
            raise ConfigError("cpu_scale must be positive")
        if self.disk_mbps <= 0 or self.nic_mbps <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ConfigError("slot counts must be non-negative")
        if self.storage_gb <= 0:
            raise ConfigError("storage_gb must be positive")


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster composition: volatile volunteer PCs + dedicated anchors."""

    n_volatile: int = 60
    n_dedicated: int = 6
    volatile: NodeSpec = field(default_factory=NodeSpec)
    dedicated: NodeSpec = field(default_factory=NodeSpec)
    heartbeat_interval: float = 3.0

    def validate(self) -> None:
        if self.n_volatile < 0 or self.n_dedicated < 0:
            raise ConfigError("node counts must be non-negative")
        if self.n_volatile + self.n_dedicated == 0:
            raise ConfigError("cluster must contain at least one node")
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        self.volatile.validate()
        self.dedicated.validate()

    @property
    def n_nodes(self) -> int:
        return self.n_volatile + self.n_dedicated


@dataclass(frozen=True)
class TraceConfig:
    """Synthetic availability-trace generation (paper Section VI)."""

    unavailability_rate: float = 0.4
    mean_outage: float = MEAN_OUTAGE_SECONDS
    #: The paper states only the 409 s *mean*; desktop-grid outage
    #: lengths are strongly dispersed (its refs [7], [15]), with many
    #: short keyboard-blip outages and a heavy tail.  sigma = mean
    #: (truncated below) reproduces that mix — and it is the regime
    #: where kill-fast Hadoop wastes work on outages that end a moment
    #: later, the pathology MOON's suspension handling exists for.
    outage_sigma: float = MEAN_OUTAGE_SECONDS
    min_outage: float = 10.0
    duration: float = TRACE_LENGTH
    #: Outage-length law; "normal" is the paper's model, the others
    #: (lognormal/weibull/exponential/pareto) follow the paper's ref
    #: [15] on real availability traces.  See repro.traces.distributions.
    distribution: str = "normal"

    def validate(self) -> None:
        if not 0.0 <= self.unavailability_rate < 1.0:
            raise ConfigError("unavailability_rate must be in [0, 1)")
        if self.mean_outage <= 0 or self.duration <= 0:
            raise ConfigError("durations must be positive")
        if self.min_outage < 0 or self.min_outage > self.mean_outage:
            raise ConfigError("min_outage must be in [0, mean_outage]")
        if self.outage_sigma < 0:
            raise ConfigError("outage_sigma must be non-negative")
        from .traces.distributions import DISTRIBUTIONS

        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown outage distribution: {self.distribution!r}"
            )


@dataclass(frozen=True)
class JournalConfig:
    """NameNode write-ahead journal + checkpointed failover.

    Disabled by default: the paper's figures assume an immortal
    NameNode, and with ``enabled=False`` the journal adds zero
    simulation events, so every pre-journal golden stays byte-identical.
    When enabled, namespace mutations are synchronously durable while
    replica registrations group-commit every ``fsync_interval`` records
    (the unsynced tail is what a crash loses and block reports win
    back).
    """

    enabled: bool = False
    #: Seconds between full namespace checkpoints (journal truncation).
    checkpoint_interval: float = 300.0
    #: Replica-map records per group commit; namespace records always
    #: fsync immediately.
    fsync_interval: int = 16
    #: Simulated seconds of replay work per journal record recovered.
    replay_seconds_per_record: float = 5e-5
    #: Seconds after replay before the first datanode block report.
    block_report_delay: float = 2.0
    #: Stagger between consecutive block reports (one per node).
    block_report_stagger: float = 0.5
    #: Simulated NameNode crash time (None = no fault injected).
    crash_at: Optional[float] = None

    def validate(self) -> None:
        if self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive")
        if self.fsync_interval < 1:
            raise ConfigError("fsync_interval must be >= 1")
        if self.replay_seconds_per_record < 0:
            raise ConfigError("replay_seconds_per_record must be non-negative")
        if self.block_report_delay < 0 or self.block_report_stagger < 0:
            raise ConfigError("block-report delays must be non-negative")
        if self.crash_at is not None:
            if not self.enabled:
                raise ConfigError("--namenode-crash requires the journal on")
            if self.crash_at <= 0:
                raise ConfigError("crash_at must be positive")


@dataclass(frozen=True)
class DfsConfig:
    """MOON-DFS parameters (paper Section IV)."""

    block_size_mb: float = 64.0
    #: Default replication factor {d, v} for reliable files.
    default_reliable_rf: Tuple[int, int] = (1, 3)
    #: Default replication factor {d, v} for opportunistic files.
    default_opportunistic_rf: Tuple[int, int] = (1, 1)
    #: User-defined availability goal for opportunistic files when the
    #: dedicated copy is declined (paper: e.g. 0.9).
    availability_goal: float = 0.9
    #: NameNode intervals (seconds).
    node_expiry_interval: float = 600.0
    node_hibernate_interval: float = 60.0
    replication_check_interval: float = 10.0
    #: Algorithm 1 parameters.
    throttle_window: int = 6
    throttle_threshold: float = 0.2
    #: Seconds between bandwidth samples fed to Algorithm 1 (the paper
    #: piggybacks them on DataNode heartbeats).
    throttle_sample_interval: float = 5.0
    #: Interval I over which the NameNode estimates unavailability p.
    p_estimate_interval: float = 120.0
    #: Upper bound for the adaptive volatile replication degree v'.
    max_volatile_replicas: int = 8
    #: Client-side timeout charged when an I/O attempt hits a node that
    #: is down but not yet detected as such (paper IV-C: "clients
    #: experience timeouts trying to access the nodes").
    client_read_timeout: float = 15.0
    #: Re-replication work issued per NameNode scan (anti-storm cap).
    max_replications_per_scan: int = 40
    #: Durable-metadata layer (off for the paper figures).
    journal: JournalConfig = field(default_factory=JournalConfig)

    def validate(self) -> None:
        self.journal.validate()
        if self.block_size_mb <= 0:
            raise ConfigError("block_size_mb must be positive")
        for name, (d, v) in (
            ("default_reliable_rf", self.default_reliable_rf),
            ("default_opportunistic_rf", self.default_opportunistic_rf),
        ):
            if d < 0 or v < 0 or d + v == 0:
                raise ConfigError(f"{name} must request at least one replica")
        if not 0.0 < self.availability_goal < 1.0:
            raise ConfigError("availability_goal must be in (0, 1)")
        if self.node_hibernate_interval >= self.node_expiry_interval:
            raise ConfigError(
                "NodeHibernateInterval must be much shorter than "
                "NodeExpiryInterval (paper IV-C)"
            )
        if self.throttle_window < 1:
            raise ConfigError("throttle_window must be >= 1")
        if self.throttle_threshold < 0:
            raise ConfigError("throttle_threshold must be non-negative")
        if self.throttle_sample_interval <= 0:
            raise ConfigError("throttle_sample_interval must be positive")
        if self.max_volatile_replicas < 1:
            raise ConfigError("max_volatile_replicas must be >= 1")
        if self.client_read_timeout < 0:
            raise ConfigError("client_read_timeout must be non-negative")
        if self.max_replications_per_scan < 1:
            raise ConfigError("max_replications_per_scan must be >= 1")


#: Failure-detection modes: the oracle default plus the honest ones.
DETECTOR_MODES = ("oracle", "timeout", "adaptive")


@dataclass(frozen=True)
class DetectorConfig:
    """How observers learn node state (cluster suspicion layer).

    ``oracle`` is the historical setup: the availability trace feeds
    judgements directly, heartbeats are perfect, and a node is never
    suspected while it is actually up — byte-identical to every paper
    figure.  The honest modes drive suspicion purely from (simulated)
    heartbeat arrivals: the observer's link to an *alive* node can go
    silent in bursts, so suspicion has false positives, detection of a
    real outage is delayed by the last-delivered heartbeat, and a
    requeue decision carries a grace period (SNIPPETS Snippet 3).
    """

    #: "oracle" | "timeout" | "adaptive".
    mode: str = "oracle"
    #: Multiplier applied to every observer threshold in honest modes —
    #: the detection-latency axis (0.5 = suspect twice as fast).
    timeout_scale: float = 1.0
    #: Observation noise (honest modes): per-node rate of heartbeat
    #: silence bursts while the node is up (GC pauses, lost packets,
    #: congested links), and their mean length in seconds.
    silences_per_hour: float = 1.5
    mean_silence: float = 45.0
    #: Seconds between first suspicion and task requeue (Snippet 3
    #: Policy B: a missing heartbeat must not requeue work instantly).
    grace_period: float = 60.0
    #: Adaptive (phi-accrual-style) detector: the per-node effective
    #: threshold is ``mean + phi * std`` of the node's observed silence
    #: gaps, clamped to ``[adaptive_floor * heartbeat, adaptive_cap *
    #: base threshold]`` — flappy nodes earn wide tolerances, quiet
    #: dedicated nodes tight (fast) ones.
    phi: float = 3.0
    adaptive_floor: float = 2.0
    adaptive_cap: float = 2.0
    #: Below this many observed gaps the adaptive detector falls back
    #: to the configured (fixed-timeout) threshold — phi-accrual
    #: bootstraps conservatively, never from a guess.
    adaptive_min_samples: int = 3

    @property
    def honest(self) -> bool:
        return self.mode != "oracle"

    def validate(self) -> None:
        if self.mode not in DETECTOR_MODES:
            raise ConfigError(f"unknown detector mode: {self.mode!r}")
        if self.timeout_scale <= 0:
            raise ConfigError("timeout_scale must be positive")
        if self.silences_per_hour < 0:
            raise ConfigError("silences_per_hour must be non-negative")
        if self.mean_silence <= 0:
            raise ConfigError("mean_silence must be positive")
        if self.grace_period < 0:
            raise ConfigError("grace_period must be non-negative")
        if self.phi < 0:
            raise ConfigError("phi must be non-negative")
        if self.adaptive_floor <= 0 or self.adaptive_cap <= 0:
            raise ConfigError("adaptive clamps must be positive")
        if self.adaptive_min_samples < 1:
            raise ConfigError("adaptive_min_samples must be >= 1")


@dataclass(frozen=True)
class SchedulerConfig:
    """Task-scheduling parameters (paper Sections II-C and V)."""

    #: "hadoop" | "moon" | "late".
    kind: str = "moon"
    #: Hadoop's TrackerExpiryInterval (default 10 min; MOON uses 30 min).
    tracker_expiry_interval: float = 1800.0
    #: MOON's SuspensionInterval (ignored by the Hadoop scheduler).
    suspension_interval: float = 60.0
    #: Master switch for backup copies (every policy gates its
    #: speculative paths on it).  Off, the assignment walk is pure
    #: pending-task placement, and jobs whose tasks are all running
    #: drop out of the walk in O(1) — what lets a 10k-node cluster
    #: place a one-task job without probing every tracker against
    #: every in-flight job.  Default True keeps the paper runs intact.
    speculative_enabled: bool = True
    #: Straggler rule: running longer than this (seconds)...
    speculative_min_runtime: float = 60.0
    #: ... and progress below the type average minus this gap.
    speculative_progress_gap: float = 0.2
    #: Hadoop cap of speculative copies per task (excluding original).
    max_speculative_per_task: int = 1
    #: MOON job-level cap: concurrent speculative instances as a fraction
    #: of currently available execution slots (paper: 20%).
    speculative_cap_fraction: float = 0.20
    #: Two-phase scheduling: homestretch begins when remaining tasks fall
    #: below H% of available slots; keep >= R active copies then.
    homestretch_threshold_pct: float = 20.0
    homestretch_replicas: int = 2
    #: Whether the scheduler may place tasks on dedicated nodes
    #: (MOON-Hybrid of the paper's Section V-C).
    hybrid_aware: bool = True
    #: Service-mode extension beyond the paper: dedicated nodes also run
    #: *primary* (non-speculative) tasks once every volatile slot has
    #: been offered work.  The paper's V-C reserves dedicated CPUs for
    #: speculative copies; a served job stream wants the whole tier's
    #: capacity, and the autoscaler sizes that tier.  Default False
    #: keeps every paper experiment byte-identical.
    dedicated_primary: bool = False
    #: A map attempt is retried at most this many times before the job
    #: fails (Hadoop footnote 1).
    max_task_attempts: int = 4
    #: Reduces become schedulable once this fraction of maps completed
    #: (Hadoop's mapred.reduce.slowstart.completed.maps).
    reduce_slowstart_fraction: float = 0.05
    #: Stock Hadoop re-executes *completed* maps on a dead TaskTracker
    #: because their outputs lived on its local disk.  In this
    #: substrate — as in every experiment of the paper, which runs all
    #: scheduling policies over the MOON file system — intermediate
    #: data lives in the DFS, so lost map output is detected and
    #: re-executed through the fetch-failure path (VI-B) instead.
    #: ``None`` resolves to False; set True to model stock node-local
    #: intermediate storage.
    reexecute_completed_maps_on_death: Optional[bool] = None

    def reexec_completed_maps(self) -> bool:
        if self.reexecute_completed_maps_on_death is None:
            return False
        return self.reexecute_completed_maps_on_death

    def validate(self) -> None:
        if self.kind not in ("hadoop", "moon", "late"):
            raise ConfigError(f"unknown scheduler kind: {self.kind!r}")
        if self.tracker_expiry_interval <= 0:
            raise ConfigError("tracker_expiry_interval must be positive")
        if self.suspension_interval <= 0:
            raise ConfigError("suspension_interval must be positive")
        if self.kind == "moon" and (
            self.suspension_interval >= self.tracker_expiry_interval
        ):
            raise ConfigError(
                "SuspensionInterval must be smaller than TrackerExpiryInterval"
            )
        if not 0 <= self.speculative_progress_gap <= 1:
            raise ConfigError("speculative_progress_gap must be in [0, 1]")
        if not 0 < self.speculative_cap_fraction <= 1:
            raise ConfigError("speculative_cap_fraction must be in (0, 1]")
        if self.homestretch_threshold_pct < 0:
            raise ConfigError("homestretch_threshold_pct must be >= 0")
        if self.homestretch_replicas < 1:
            raise ConfigError("homestretch_replicas must be >= 1")
        if self.max_task_attempts < 1:
            raise ConfigError("max_task_attempts must be >= 1")
        if not 0.0 <= self.reduce_slowstart_fraction <= 1.0:
            raise ConfigError("reduce_slowstart_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ShuffleConfig:
    """Shuffle/fetch behaviour (paper Section VI-B)."""

    #: Parallel fetch streams per reduce task (Hadoop parallel copies).
    parallel_copies: int = 5
    #: Hadoop rule: re-run a map when more than this fraction of running
    #: reduces report fetch failures for it.
    hadoop_failure_fraction: float = 0.5
    #: MOON remedy: after this many fetch failures for one map output,
    #: query the file system and re-issue the map if no live replica.
    moon_fetch_failures: int = 3
    #: Seconds a reducer waits before retrying a failed fetch.
    fetch_retry_interval: float = 10.0

    def validate(self) -> None:
        if self.parallel_copies < 1:
            raise ConfigError("parallel_copies must be >= 1")
        if not 0 < self.hadoop_failure_fraction <= 1:
            raise ConfigError("hadoop_failure_fraction must be in (0, 1]")
        if self.moon_fetch_failures < 1:
            raise ConfigError("moon_fetch_failures must be >= 1")
        if self.fetch_retry_interval <= 0:
            raise ConfigError("fetch_retry_interval must be positive")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level bundle used by :mod:`repro.core` to assemble a system."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    trace: TraceConfig = field(default_factory=TraceConfig)
    dfs: DfsConfig = field(default_factory=DfsConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    shuffle: ShuffleConfig = field(default_factory=ShuffleConfig)
    #: How observers learn node state ("oracle" keeps the historical,
    #: trace-fed judgements; honest modes drive suspicion from
    #: heartbeats only).
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    #: Root seed; every random stream in a run derives from it.
    seed: int = 42
    #: "fifo" (default, fast) or "fairshare" (ablation).
    network_model: str = "fifo"

    def validate(self) -> None:
        self.cluster.validate()
        self.trace.validate()
        self.dfs.validate()
        self.scheduler.validate()
        self.shuffle.validate()
        self.detector.validate()
        if self.network_model not in ("fifo", "fairshare"):
            raise ConfigError(f"unknown network model: {self.network_model!r}")

    def with_(self, **kwargs) -> "SystemConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)


def hadoop_scheduler_config(tracker_expiry_interval: float = 600.0) -> SchedulerConfig:
    """The paper's Hadoop baselines: HadoopXMin = default speculative
    scheduling with an X-minute TrackerExpiryInterval."""
    return SchedulerConfig(
        kind="hadoop",
        tracker_expiry_interval=tracker_expiry_interval,
        hybrid_aware=False,
    )


def moon_scheduler_config(hybrid_aware: bool = True) -> SchedulerConfig:
    """The paper's MOON scheduler (1-min SuspensionInterval, 30-min
    TrackerExpiryInterval); ``hybrid_aware=False`` gives plain "MOON"."""
    return SchedulerConfig(
        kind="moon",
        tracker_expiry_interval=1800.0,
        suspension_interval=60.0,
        hybrid_aware=hybrid_aware,
    )
