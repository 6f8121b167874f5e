//! Serving-side configuration: which NB-SMT design point a session runs at,
//! and how the micro-batching scheduler coalesces requests.

use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::ThreadCount;
use nbsmt_tensor::validate::{ExecConfigError, Validate};

use crate::control::ControlConfig;
use crate::faults::FaultPlan;
use crate::sim::ServiceModel;

/// The NB-SMT design point a [`crate::session::Session`] executes at.
///
/// `Dense` is the conventional error-free 8-bit systolic array; `NbSmt`
/// emulates a 1T/2T/4T SySMT with a sharing policy, exactly as the offline
/// experiments do. Per-request configurations are expressed by compiling one
/// session per design point and routing each request to the session it asked
/// for — sessions are immutable and shareable, so this costs one compile per
/// distinct configuration, not per request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmtConfig {
    /// Error-free 8-bit baseline (the conventional array).
    Dense,
    /// NB-SMT emulation at a thread count and sharing policy.
    NbSmt {
        /// Threads sharing each PE (1T/2T/4T).
        threads: ThreadCount,
        /// Sharing policy (which sparsity/width paths are tried first).
        policy: SharingPolicy,
        /// Whether the statistical column reordering of §IV-B is applied.
        reorder: bool,
        /// Keep the first compute layer at one thread, as the paper does.
        first_layer_1t: bool,
    },
}

impl SmtConfig {
    /// The paper's 2T operating point: S+A policy, first layer at 1T.
    pub fn sysmt_2t() -> Self {
        SmtConfig::NbSmt {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
            first_layer_1t: true,
        }
    }

    /// The paper's 4T operating point: S+A policy, first layer at 1T.
    pub fn sysmt_4t() -> Self {
        SmtConfig::NbSmt {
            threads: ThreadCount::Four,
            policy: SharingPolicy::S_A,
            reorder: false,
            first_layer_1t: true,
        }
    }

    /// Short label used in tables and record names (`dense`, `1t`, `2t`,
    /// `4t`).
    pub fn label(&self) -> &'static str {
        match self {
            SmtConfig::Dense => "dense",
            SmtConfig::NbSmt { threads, .. } => match threads {
                ThreadCount::One => "1t",
                ThreadCount::Two => "2t",
                ThreadCount::Four => "4t",
            },
        }
    }

    /// The modeled hardware speedup of this design point over the dense
    /// array: a T-threaded SySMT retires a layer in 1/T of the baseline
    /// cycles (§IV), so service time in the virtual-clock model divides by
    /// this factor.
    pub fn speedup(&self) -> u64 {
        match self {
            SmtConfig::Dense => 1,
            SmtConfig::NbSmt { threads, .. } => threads.count() as u64,
        }
    }

    /// A stable cache key distinguishing every field combination (used by
    /// the registry's session cache).
    pub fn cache_key(&self) -> String {
        match self {
            SmtConfig::Dense => "dense".to_string(),
            SmtConfig::NbSmt {
                threads,
                policy,
                reorder,
                first_layer_1t,
            } => format!(
                "{}t-{}-r{}-f{}",
                threads.count(),
                policy.label(),
                u8::from(*reorder),
                u8::from(*first_layer_1t)
            ),
        }
    }
}

/// How the scheduler coalesces queued requests into one execution batch.
///
/// A batch launches as soon as `max_batch` requests are waiting, or when the
/// oldest queued request has waited `max_wait_ns`, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Largest batch the scheduler will form (`>= 1`).
    pub max_batch: usize,
    /// Longest the oldest request may wait before its batch launches
    /// anyway, in nanoseconds.
    pub max_wait_ns: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait_ns: 2_000_000, // 2 ms
        }
    }
}

/// Why a serving-side configuration is invalid.
///
/// Both scheduler entry points — [`crate::pool::ReplicaPool::new`] and
/// [`crate::sim::simulate_pool`] — validate the one [`PoolOptions`] value
/// they share through [`Validate`] and reject bad values with one of these
/// variants, so the threaded pool and the virtual-clock simulator refuse
/// exactly the same options (there is no clamping path a bad value can
/// sneak through on one driver but not the other).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `BatchPolicy::max_batch` is zero — a batch must hold a request.
    ZeroBatch,
    /// `SchedulerConfig::queue_capacity` is zero — admission control needs
    /// room for at least one request.
    ZeroQueueCapacity,
    /// The queue cannot hold one full batch.
    QueueSmallerThanBatch {
        /// The configured queue capacity.
        capacity: usize,
        /// The configured maximum batch size.
        max_batch: usize,
    },
    /// `AdaptivePolicy::depth_low` exceeds `depth_high` — the hysteresis
    /// band is inverted and the mode would thrash every evaluation.
    InvertedDepthThresholds {
        /// The configured de-escalation threshold.
        low: usize,
        /// The configured escalation threshold.
        high: usize,
    },
    /// `AdaptivePolicy::eval_every_batches` is zero — the policy would never
    /// be evaluated.
    ZeroEvalCadence,
    /// `PoolConfig::replicas` is zero — a pool needs at least one worker.
    ZeroReplicas,
    /// The pool's host-execution configuration is invalid.
    Exec(ExecConfigError),
    /// A `FaultConfig` per-mille rate exceeds 1000.
    FaultRateOutOfRange {
        /// The offending per-mille rate.
        rate: u64,
    },
    /// `ControlConfig::window_ns` is zero — the rate estimator needs a
    /// window to count arrivals over.
    ZeroControlWindow,
    /// A pool controller on a free-running pool: the controller prices
    /// rungs in [`crate::sim::ServiceModel`] time, and a wall-clock pool
    /// does not run on that time.
    ControllerNeedsLockstep,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroBatch => {
                write!(f, "batch policy: max_batch must be at least 1")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "scheduler config: queue_capacity must be at least 1")
            }
            ConfigError::QueueSmallerThanBatch {
                capacity,
                max_batch,
            } => write!(
                f,
                "scheduler config: queue_capacity {capacity} cannot hold one \
                 full batch of max_batch {max_batch}"
            ),
            ConfigError::InvertedDepthThresholds { low, high } => write!(
                f,
                "adaptive policy: depth_low {low} exceeds depth_high {high} \
                 (inverted hysteresis thresholds)"
            ),
            ConfigError::ZeroEvalCadence => {
                write!(f, "adaptive policy: eval_every_batches must be at least 1")
            }
            ConfigError::ZeroReplicas => {
                write!(f, "pool config: replicas must be at least 1")
            }
            ConfigError::Exec(e) => write!(f, "pool config: {e}"),
            ConfigError::FaultRateOutOfRange { rate } => {
                write!(f, "fault config: per-mille rate {rate} exceeds 1000")
            }
            ConfigError::ZeroControlWindow => {
                write!(f, "control config: window_ns must be at least 1")
            }
            ConfigError::ControllerNeedsLockstep => write!(
                f,
                "control config: a pool controller needs the lockstep driver \
                 (it prices rungs in service-model time, not wall-clock time)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ExecConfigError> for ConfigError {
    fn from(e: ExecConfigError) -> Self {
        ConfigError::Exec(e)
    }
}

impl Validate for BatchPolicy {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        Ok(())
    }
}

/// Full scheduler configuration: the batching policy plus the admission
/// bound of the request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Batch coalescing policy.
    pub batch: BatchPolicy,
    /// Bounded-queue capacity. Submissions beyond it are rejected with
    /// [`SubmitError::QueueFull`] so overload degrades by shedding load,
    /// never by unbounded memory growth.
    pub queue_capacity: usize,
}

impl Validate for SchedulerConfig {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        self.batch.validate()?;
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.queue_capacity < self.batch.max_batch {
            return Err(ConfigError::QueueSmallerThanBatch {
                capacity: self.queue_capacity,
                max_batch: self.batch.max_batch,
            });
        }
        Ok(())
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            batch: BatchPolicy::default(),
            queue_capacity: 64,
        }
    }
}

/// How the router in front of a replica pool picks a replica for each
/// submission.
///
/// All three policies are pure functions of the submission sequence and the
/// queue depths at submission time, so a single-threaded submitter drives
/// them deterministically — the property the sharded determinism contract
/// builds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Strict rotation in submission order.
    RoundRobin,
    /// The replica with the shallowest queue at submission time; ties break
    /// to the lowest replica index.
    LeastOutstanding,
    /// A stable integer hash of the request key — the affinity policy: the
    /// same key always lands on the same replica.
    Hashed,
}

impl RoutePolicy {
    /// Short label used in record names (`rr`, `lo`, `hash`).
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::LeastOutstanding => "lo",
            RoutePolicy::Hashed => "hash",
        }
    }
}

/// The stable 64-bit mixer behind [`RoutePolicy::Hashed`] (the splitmix64
/// finalizer): platform-independent, so hashed routing replays identically
/// everywhere.
pub fn route_hash(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SLO-aware mode selection: when a replica falls behind, step **up** the
/// configured [`SmtConfig`] ladder (dense → 2T → 4T), trading bounded
/// accuracy for T× virtual throughput — the paper's trade made operational:
/// under overload the system sheds *accuracy* instead of *requests*. When
/// the pressure clears, step back down toward the error-free baseline.
///
/// Two triggers escalate: the queue depth left behind a launched batch
/// reaching `depth_high`, or (optionally) the replica's observed p95 latency
/// reaching `p95_high_ns`. Both triggers are part of the lockstep
/// determinism contract: the latency feeding the p95 trigger goes through a
/// clock abstraction — the virtual [`crate::sim::ServiceModel`] clock in the
/// simulator *and* in the threaded pool's lockstep mode
/// ([`crate::pool::PoolDriver::Lockstep`]), where the shared scheduling core
/// records virtual latencies into the same fixed-bucket histogram. Only the
/// free-running threaded pool measures p95 on the wall clock, so only that
/// driver's p95 trigger timing is outside the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptivePolicy {
    /// Escalate one rung when the queue depth left behind a launched batch
    /// reaches this value.
    pub depth_high: usize,
    /// De-escalate one rung when that depth falls to this value or below.
    pub depth_low: usize,
    /// Optional escalation trigger on the replica's observed p95 latency in
    /// nanoseconds; 0 disables it.
    pub p95_high_ns: u64,
    /// Evaluate the policy only every this many batches (≥ 1) — a cooldown
    /// against mode thrash.
    pub eval_every_batches: u64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            depth_high: 8,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        }
    }
}

impl Validate for AdaptivePolicy {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.depth_low > self.depth_high {
            return Err(ConfigError::InvertedDepthThresholds {
                low: self.depth_low,
                high: self.depth_high,
            });
        }
        if self.eval_every_batches == 0 {
            return Err(ConfigError::ZeroEvalCadence);
        }
        Ok(())
    }
}

impl AdaptivePolicy {
    /// A policy that never leaves rung 0 — the "dense-only" baseline every
    /// adaptive sweep is compared against.
    pub fn pinned() -> Self {
        AdaptivePolicy {
            depth_high: usize::MAX,
            depth_low: 0,
            p95_high_ns: 0,
            eval_every_batches: 1,
        }
    }

    /// The pure decision function both scheduler drivers share: given the
    /// current rung, the ladder length, the queue depth left behind the
    /// batch, and the observed p95, returns the rung the *next* batch runs
    /// at.
    pub fn decide(&self, mode: usize, rungs: usize, depth: usize, p95_ns: u64) -> usize {
        let hot = depth >= self.depth_high || (self.p95_high_ns > 0 && p95_ns >= self.p95_high_ns);
        if hot {
            (mode + 1).min(rungs.saturating_sub(1))
        } else if mode > 0 && depth <= self.depth_low {
            mode - 1
        } else {
            mode
        }
    }
}

/// Capacity cap on every per-run batch log (`PoolBatchLog` in the pool,
/// `PoolBatchRecord` in the simulator). Entries past the cap are counted in
/// an explicit `dropped` counter instead of growing the log, keeping
/// million-request sweeps strictly constant-memory.
pub const BATCH_LOG_CAP: usize = 65_536;

/// Capacity cap on the per-replica [`ModeTransition`] log kept by
/// [`AdaptiveState`]. Transitions past the cap still *apply* (the mode
/// changes and the caller is notified) — only the retained history is
/// bounded, with the overflow counted in
/// [`AdaptiveState::dropped_transitions`].
pub const TRANSITION_LOG_CAP: usize = 16_384;

/// Capacity cap on the per-run response log kept by the simulator
/// (`PoolSimOutcome::responses`). Completions past the cap still feed
/// metrics and traces — only the retained `(id, logits)` pairs are bounded,
/// with the overflow counted in a `dropped_responses` counter, so
/// 10^6–10^7-request sweeps stay constant-memory.
pub const RESPONSE_LOG_CAP: usize = 65_536;

/// Capacity cap on the per-run rejected-id log kept by the simulator.
/// Rejections past the cap still count in [`crate::metrics::ServeMetrics`];
/// only the retained id list is bounded, with the overflow counted in a
/// `dropped_rejections` counter.
pub const REJECTION_LOG_CAP: usize = 65_536;

/// Capacity cap on the controller's [`crate::control::ControlEvent`] log.
/// Decisions past the cap still *apply* (the live set, predictive floor, and
/// queues all change) — only the retained event history is bounded, with the
/// overflow counted in a `dropped_control_events` counter.
pub const CONTROL_LOG_CAP: usize = 16_384;

/// One adaptive mode switch, recorded identically by the threaded pool and
/// the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeTransition {
    /// Replica that switched.
    pub replica: usize,
    /// Replica-local batch count at the moment of evaluation (1-based: the
    /// first launched batch is 1).
    pub batch_index: u64,
    /// Ladder rung before the switch.
    pub from: usize,
    /// Ladder rung after the switch.
    pub to: usize,
    /// Queue depth that triggered the evaluation.
    pub queue_depth: usize,
}

/// Per-replica adaptive-policy state machine: wraps [`AdaptivePolicy`] with
/// the current rung, the evaluation cadence, and the transition log. The
/// threaded pool and the virtual-clock simulator both drive this exact type,
/// which is what makes their mode transitions comparable bit-for-bit.
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    policy: AdaptivePolicy,
    replica: usize,
    rungs: usize,
    mode: usize,
    batches_seen: u64,
    transitions: Vec<ModeTransition>,
    dropped_transitions: u64,
}

impl AdaptiveState {
    /// Fresh state for `replica` over a ladder of `rungs` design points
    /// (clamped to at least 1), starting at rung 0.
    pub fn new(policy: AdaptivePolicy, replica: usize, rungs: usize) -> Self {
        AdaptiveState {
            policy,
            replica,
            rungs: rungs.max(1),
            mode: 0,
            batches_seen: 0,
            transitions: Vec::new(),
            dropped_transitions: 0,
        }
    }

    /// The rung the next batch executes at.
    pub fn mode(&self) -> usize {
        self.mode
    }

    /// Mode switches so far, in order.
    pub fn transitions(&self) -> &[ModeTransition] {
        &self.transitions
    }

    /// Consumes the state, yielding the transition log.
    pub fn into_transitions(self) -> Vec<ModeTransition> {
        self.transitions
    }

    /// Transitions that applied but were not retained because the log hit
    /// [`TRANSITION_LOG_CAP`].
    pub fn dropped_transitions(&self) -> u64 {
        self.dropped_transitions
    }

    /// Observes one launched batch (called *after* its latencies were
    /// recorded): every `eval_every_batches` batches the policy is
    /// re-evaluated, and the switch — if any — applies from the next batch
    /// on. Returns the transition when the mode changed.
    pub fn observe_batch(
        &mut self,
        queue_depth_after: usize,
        p95_ns: u64,
    ) -> Option<ModeTransition> {
        self.batches_seen += 1;
        if !self
            .batches_seen
            .is_multiple_of(self.policy.eval_every_batches.max(1))
        {
            return None;
        }
        let next = self
            .policy
            .decide(self.mode, self.rungs, queue_depth_after, p95_ns);
        if next == self.mode {
            return None;
        }
        let transition = ModeTransition {
            replica: self.replica,
            batch_index: self.batches_seen,
            from: self.mode,
            to: next,
            queue_depth: queue_depth_after,
        };
        self.mode = next;
        if self.transitions.len() < TRANSITION_LOG_CAP {
            self.transitions.push(transition.clone());
        } else {
            self.dropped_transitions += 1;
        }
        Some(transition)
    }
}

/// Configuration of a replica pool: how many workers, how the router spreads
/// submissions across them, the per-replica scheduler, and the adaptive
/// mode-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of replica workers (clamped to at least 1).
    pub replicas: usize,
    /// Router policy in front of the per-replica queues.
    pub route: RoutePolicy,
    /// Per-replica batching and admission configuration.
    pub scheduler: SchedulerConfig,
    /// SLO-aware mode-selection policy (use [`AdaptivePolicy::pinned`] for a
    /// fixed design point).
    pub adaptive: AdaptivePolicy,
}

impl Validate for PoolConfig {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        self.scheduler.validate()?;
        self.adaptive.validate()
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            replicas: 1,
            route: RoutePolicy::RoundRobin,
            scheduler: SchedulerConfig::default(),
            adaptive: AdaptivePolicy::default(),
        }
    }
}

/// Everything both pool drivers read: the pool shape, the virtual-clock
/// service model, the fault schedule, and the optional pool controller.
/// [`crate::sim::simulate_pool`] and [`crate::pool::ReplicaPool::new`] take
/// the same value, so a lockstep comparison hands both drivers the same
/// inputs by construction. The default is a fault-free, uncontrolled
/// [`PoolConfig::default`] pool on [`ServiceModel::default`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolOptions {
    /// Replica count, routing, batching, and the adaptive ladder policy.
    pub config: PoolConfig,
    /// Virtual cost of a batch: the clock of the simulator and of the
    /// lockstep pool, and the free-running pool's straggle padding.
    pub service: ServiceModel,
    /// Fault schedule; the empty default injects nothing.
    pub faults: FaultPlan,
    /// Pool controller (predictive floor, autoscaling, stealing). It prices
    /// rungs in service-model time, so a free-running pool, which runs on
    /// the wall clock, refuses one with
    /// [`ConfigError::ControllerNeedsLockstep`].
    pub control: Option<ControlConfig>,
}

/// Typed admission-control rejection returned by `submit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity; the request was shed.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    Closed,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "request rejected: queue at capacity {capacity}")
            }
            SubmitError::Closed => write!(f, "request rejected: server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Errors raised while building or executing sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The registry has no model under the requested id.
    UnknownModel(String),
    /// A request's input does not match the session's expected shape.
    BadRequest(String),
    /// Model calibration or execution failed.
    Model(String),
    /// A scheduler, pool, or execution configuration failed validation.
    Config(ConfigError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownModel(id) => write!(f, "unknown model '{id}'"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Model(msg) => write!(f, "model execution failed: {msg}"),
            ServeError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ConfigError> for ServeError {
    fn from(e: ConfigError) -> Self {
        ServeError::Config(e)
    }
}

impl From<nbsmt_nn::NnError> for ServeError {
    fn from(e: nbsmt_nn::NnError) -> Self {
        ServeError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_speedups() {
        assert_eq!(SmtConfig::Dense.label(), "dense");
        assert_eq!(SmtConfig::Dense.speedup(), 1);
        assert_eq!(SmtConfig::sysmt_2t().label(), "2t");
        assert_eq!(SmtConfig::sysmt_2t().speedup(), 2);
        assert_eq!(SmtConfig::sysmt_4t().label(), "4t");
        assert_eq!(SmtConfig::sysmt_4t().speedup(), 4);
    }

    #[test]
    fn cache_keys_distinguish_configs() {
        let keys = [
            SmtConfig::Dense.cache_key(),
            SmtConfig::sysmt_2t().cache_key(),
            SmtConfig::sysmt_4t().cache_key(),
            SmtConfig::NbSmt {
                threads: ThreadCount::Two,
                policy: SharingPolicy::S_A,
                reorder: true,
                first_layer_1t: true,
            }
            .cache_key(),
        ];
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if i != j {
                    assert_ne!(keys[i], keys[j]);
                }
            }
        }
    }

    #[test]
    fn scheduler_config_rejects_invalid_values() {
        assert_eq!(SchedulerConfig::default().validate(), Ok(()));
        let zero_batch = SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 0,
                max_wait_ns: 0,
            },
            queue_capacity: 8,
        };
        assert_eq!(zero_batch.validate(), Err(ConfigError::ZeroBatch));
        let zero_capacity = SchedulerConfig {
            batch: BatchPolicy::default(),
            queue_capacity: 0,
        };
        assert_eq!(
            zero_capacity.validate(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        let tight = SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 32,
                max_wait_ns: 1,
            },
            queue_capacity: 4,
        };
        assert_eq!(
            tight.validate(),
            Err(ConfigError::QueueSmallerThanBatch {
                capacity: 4,
                max_batch: 32
            })
        );
    }

    #[test]
    fn adaptive_policy_rejects_invalid_values() {
        assert_eq!(AdaptivePolicy::default().validate(), Ok(()));
        assert_eq!(AdaptivePolicy::pinned().validate(), Ok(()));
        let inverted = AdaptivePolicy {
            depth_high: 2,
            depth_low: 5,
            p95_high_ns: 0,
            eval_every_batches: 1,
        };
        assert_eq!(
            inverted.validate(),
            Err(ConfigError::InvertedDepthThresholds { low: 5, high: 2 })
        );
        let no_cadence = AdaptivePolicy {
            eval_every_batches: 0,
            ..AdaptivePolicy::default()
        };
        assert_eq!(no_cadence.validate(), Err(ConfigError::ZeroEvalCadence));
    }

    #[test]
    fn route_policy_labels_round_trip_and_hash_is_stable() {
        // The labels are the record-name tokens of the shard sweep.
        let labels = [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastOutstanding,
            RoutePolicy::Hashed,
        ]
        .map(|policy| policy.label());
        assert_eq!(labels, ["rr", "lo", "hash"]);
        // splitmix64 reference values — the hash must never drift, or hashed
        // routing stops replaying across versions.
        assert_eq!(route_hash(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(route_hash(1), 0x910a_2dec_8902_5cc1);
        assert_ne!(route_hash(2) % 4, route_hash(3) % 4);
    }

    #[test]
    fn adaptive_policy_escalates_and_recovers() {
        let policy = AdaptivePolicy {
            depth_high: 4,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        };
        // Deep queue walks up the ladder one rung at a time, clamped at the
        // top; shallow queue walks back down, clamped at 0.
        assert_eq!(policy.decide(0, 3, 4, 0), 1);
        assert_eq!(policy.decide(1, 3, 9, 0), 2);
        assert_eq!(policy.decide(2, 3, 9, 0), 2);
        assert_eq!(policy.decide(2, 3, 1, 0), 1);
        assert_eq!(policy.decide(0, 3, 0, 0), 0);
        // In-between depths hold the current mode.
        assert_eq!(policy.decide(1, 3, 2, 0), 1);
        // p95 trigger escalates independently of depth.
        let slo = AdaptivePolicy {
            p95_high_ns: 1_000,
            ..policy
        };
        assert_eq!(slo.decide(0, 3, 0, 2_000), 1);
        assert_eq!(slo.decide(0, 3, 0, 500), 0);
        // Pinned never moves.
        let pinned = AdaptivePolicy::pinned();
        assert_eq!(pinned.decide(0, 3, usize::MAX - 1, u64::MAX), 0);
    }

    #[test]
    fn adaptive_state_records_transitions_with_cooldown() {
        let policy = AdaptivePolicy {
            depth_high: 4,
            depth_low: 0,
            p95_high_ns: 0,
            eval_every_batches: 2,
        };
        let mut state = AdaptiveState::new(policy, 1, 3);
        assert_eq!(state.mode(), 0);
        // Batch 1: cooldown, no evaluation even though the queue is deep.
        assert_eq!(state.observe_batch(10, 0), None);
        // Batch 2: evaluated, escalates.
        let t = state.observe_batch(10, 0).expect("escalates");
        assert_eq!((t.replica, t.batch_index, t.from, t.to), (1, 2, 0, 1));
        assert_eq!(state.mode(), 1);
        // Batches 3–4: second escalation at the next evaluation point.
        assert_eq!(state.observe_batch(10, 0), None);
        assert!(state.observe_batch(10, 0).is_some());
        assert_eq!(state.mode(), 2);
        // Pressure clears: walks back down.
        assert_eq!(state.observe_batch(0, 0), None);
        let down = state.observe_batch(0, 0).expect("recovers");
        assert_eq!((down.from, down.to), (2, 1));
        assert_eq!(state.transitions().len(), 3);
        assert_eq!(state.dropped_transitions(), 0);
        assert_eq!(state.into_transitions().len(), 3);
    }

    #[test]
    fn transition_log_caps_retention_but_not_behavior() {
        // depth_high 1 / depth_low 0 with 2 rungs flips the mode on every
        // batch when the depth alternates 1, 0, 1, 0, ...
        let policy = AdaptivePolicy {
            depth_high: 1,
            depth_low: 0,
            p95_high_ns: 0,
            eval_every_batches: 1,
        };
        let mut state = AdaptiveState::new(policy, 0, 2);
        let total = TRANSITION_LOG_CAP as u64 + 100;
        for i in 0..total {
            let depth = if i % 2 == 0 { 1 } else { 0 };
            // Every observation still reports its transition even past the
            // retention cap.
            assert!(state.observe_batch(depth, 0).is_some());
        }
        assert_eq!(state.transitions().len(), TRANSITION_LOG_CAP);
        assert_eq!(state.dropped_transitions(), 100);
    }

    #[test]
    fn pool_config_rejects_invalid_values() {
        assert_eq!(PoolConfig::default().validate(), Ok(()));
        let no_replicas = PoolConfig {
            replicas: 0,
            ..PoolConfig::default()
        };
        assert_eq!(no_replicas.validate(), Err(ConfigError::ZeroReplicas));
        // Nested scheduler and adaptive errors surface through the pool.
        let bad_scheduler = PoolConfig {
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 0,
                    max_wait_ns: 0,
                },
                queue_capacity: 8,
            },
            ..PoolConfig::default()
        };
        assert_eq!(bad_scheduler.validate(), Err(ConfigError::ZeroBatch));
        let bad_adaptive = PoolConfig {
            adaptive: AdaptivePolicy {
                eval_every_batches: 0,
                ..AdaptivePolicy::default()
            },
            ..PoolConfig::default()
        };
        assert_eq!(bad_adaptive.validate(), Err(ConfigError::ZeroEvalCadence));
    }

    #[test]
    fn error_displays() {
        assert!(SubmitError::QueueFull { capacity: 8 }
            .to_string()
            .contains("capacity 8"));
        assert!(SubmitError::Closed.to_string().contains("shut down"));
        assert!(ServeError::UnknownModel("x".into())
            .to_string()
            .contains("'x'"));
        assert!(ServeError::Config(ConfigError::ZeroReplicas)
            .to_string()
            .contains("replicas"));
        assert!(ConfigError::Exec(ExecConfigError::ZeroThreads)
            .to_string()
            .contains("threads"));
    }
}
