//! Deterministic fault injection for the replica pool.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic schedule of
//! [`FaultEvent`]s — replica crashes, stalls, straggler windows, and
//! mid-flight queue closes — generated from a [`FaultConfig`] (validated
//! through the workspace `Validate` trait; crashes, stalls and straggles
//! only) or hand-authored via [`FaultPlan::from_events`]. The *same* plan,
//! as the `faults` field of one [`crate::config::PoolOptions`], is
//! injected into both scheduler drivers: the threaded
//! [`crate::pool::ReplicaPool`] (lockstep or free-running) and the
//! discrete-event [`crate::sim::simulate_pool`].
//! Because every fault fires at a replica-local *batch index* rather than
//! at a wall-clock instant, the schedule replays bit-identically under the
//! lockstep determinism contract — every incident is a seed, and every seed
//! is a permanent regression test ([`chaos_corpus`]).
//!
//! The client-side countermeasures live here too: [`FaultClient`] wraps a
//! [`PoolClient`] with retry-with-exponential-backoff on
//! [`SubmitError`](crate::config::SubmitError) or replica-death
//! cancellation, and optional request hedging — a duplicate submit after a
//! latency-derived delay, first response wins, the loser cancelled through
//! the existing drop-safe response handles.

use std::time::{Duration, Instant};

use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{ConfigError, RoutePolicy};
use crate::pool::{PoolClient, RequestResult};
use crate::queue::{Cancelled, TryWait};

/// What goes wrong when a [`FaultEvent`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The replica dies after completing the batch: its queue is drained and
    /// handed off to the surviving replicas (or shed when none can take it),
    /// and it never launches again.
    Crash,
    /// The replica freezes for a fixed duration after the batch (virtual
    /// nanoseconds in the simulator and the lockstep pool, wall-clock
    /// nanoseconds in the free-running pool).
    Stall {
        /// How long the replica is frozen in ns.
        duration_ns: u64,
    },
    /// The replica serves slowly for a window of batches: service time is
    /// multiplied by `factor_x1024 / 1024` for batches
    /// `at_batch .. at_batch + window_batches`.
    Straggle {
        /// Service-time multiplier, scaled by 1024 (1024 = 1×, ≥ 1024).
        factor_x1024: u64,
        /// Number of consecutive batches the slowdown covers (≥ 1).
        window_batches: u64,
    },
    /// The replica's queue stops admitting new work after the batch; queued
    /// requests still drain and the worker stays alive.
    CloseQueue,
}

/// One scheduled fault: `kind` fires on `replica` relative to its 1-based
/// `at_batch`-th launched batch (a [`FaultKind::Straggle`] covers the window
/// *starting at* that batch; every other kind fires *after* it completes).
/// A replica that never reaches `at_batch` never experiences the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Replica the fault targets.
    pub replica: usize,
    /// 1-based replica-local batch index the fault is anchored to.
    pub at_batch: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Batch horizon of a generated plan: events are drawn for each replica's
/// batch indices `1..=HORIZON_BATCHES`.
pub const HORIZON_BATCHES: u64 = 64;

/// How long a generated [`FaultKind::Stall`] freezes its replica, in ns.
pub const STALL_NS: u64 = 200_000;

/// Service-time multiplier of a generated [`FaultKind::Straggle`], ×1024
/// (4096 = 4× slower).
pub const STRAGGLE_FACTOR_X1024: u64 = 4096;

/// Batches a generated [`FaultKind::Straggle`] window covers.
pub const STRAGGLE_WINDOW_BATCHES: u64 = 4;

/// Seeded fault-schedule generator configuration, validated through the
/// workspace [`Validate`] trait — both scheduler drivers and the bench
/// spec layer reject the same bad values with the same typed
/// [`ConfigError`]s.
///
/// Rates are per-mille probabilities (0–1000) drawn independently per
/// `(replica, batch)` coordinate from a splitmix64 stream of `seed`; at most
/// one event is generated per coordinate, and a crash ends generation for
/// its replica. The horizon ([`HORIZON_BATCHES`]) and the shape of each
/// stall ([`STALL_NS`]) and straggle ([`STRAGGLE_FACTOR_X1024`],
/// [`STRAGGLE_WINDOW_BATCHES`]) are constants. Generated plans never close
/// a queue: a [`FaultKind::CloseQueue`] comes only from a hand-authored
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed of the deterministic event stream.
    pub seed: u64,
    /// Per-mille crash probability per (replica, batch) coordinate (≤ 1000).
    pub crash_per_mille: u64,
    /// Per-mille stall probability per coordinate (≤ 1000).
    pub stall_per_mille: u64,
    /// Per-mille straggle-window probability per coordinate (≤ 1000).
    pub straggle_per_mille: u64,
}

impl Validate for FaultConfig {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        for rate in [
            self.crash_per_mille,
            self.stall_per_mille,
            self.straggle_per_mille,
        ] {
            if rate > 1000 {
                return Err(ConfigError::FaultRateOutOfRange { rate });
            }
        }
        Ok(())
    }
}

/// A deterministic, replayable schedule of [`FaultEvent`]s for a pool.
///
/// Generated from a seed ([`FaultPlan::generate`]) or hand-authored
/// ([`FaultPlan::from_events`]); the same plan drives the threaded pool and
/// the virtual-clock simulator to bit-identical failure behaviour under the
/// lockstep contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// The per-mille draw for a `(seed, replica, batch)` coordinate — one
/// splitmix64 finalizer application, platform-independent.
fn fault_draw(seed: u64, replica: usize, batch: u64) -> u64 {
    let coord = (replica as u64).wrapping_shl(32) ^ batch;
    crate::config::route_hash(seed ^ crate::config::route_hash(coord)) % 1000
}

impl FaultPlan {
    /// Generates the deterministic schedule for `replicas` replicas: the same
    /// `(config, replicas)` always yields the same plan, on any platform.
    ///
    /// # Errors
    ///
    /// Rejects an invalid `config` with its typed [`ConfigError`].
    pub fn generate(config: &FaultConfig, replicas: usize) -> Result<FaultPlan, ConfigError> {
        config.validate()?;
        let crash_lt = config.crash_per_mille;
        let stall_lt = crash_lt + config.stall_per_mille;
        let straggle_lt = stall_lt + config.straggle_per_mille;
        let mut events = Vec::new();
        for replica in 0..replicas {
            for at_batch in 1..=HORIZON_BATCHES {
                let draw = fault_draw(config.seed, replica, at_batch);
                let kind = if draw < crash_lt {
                    Some(FaultKind::Crash)
                } else if draw < stall_lt {
                    Some(FaultKind::Stall {
                        duration_ns: STALL_NS,
                    })
                } else if draw < straggle_lt {
                    Some(FaultKind::Straggle {
                        factor_x1024: STRAGGLE_FACTOR_X1024,
                        window_batches: STRAGGLE_WINDOW_BATCHES,
                    })
                } else {
                    None
                };
                if let Some(kind) = kind {
                    events.push(FaultEvent {
                        replica,
                        at_batch,
                        kind,
                    });
                    if kind == FaultKind::Crash {
                        break; // a dead replica generates nothing further
                    }
                }
            }
        }
        Ok(FaultPlan { events })
    }

    /// A hand-authored plan (the chaos-corpus path). Events may be given in
    /// any order; they are sorted by `(replica, at_batch)`.
    pub fn from_events(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| (e.replica, e.at_batch));
        FaultPlan { events }
    }

    /// A plan with no events — both drivers behave exactly as if no fault
    /// machinery were present.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The scheduled events, sorted by `(replica, at_batch)` for generated
    /// and hand-authored plans alike.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The per-replica event cursor a scheduler driver consumes.
    pub fn for_replica(&self, replica: usize) -> ReplicaFaults {
        ReplicaFaults {
            events: self
                .events
                .iter()
                .filter(|e| e.replica == replica)
                .copied()
                .collect(),
        }
    }
}

/// What a replica must apply after completing a batch: the aggregate of
/// every [`FaultEvent`] anchored at that batch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PostBatch {
    /// The replica dies now: drain the queue, hand off, never launch again.
    pub crashed: bool,
    /// Total stall time to insert before the next launch in ns.
    pub stall_ns: u64,
    /// Admissions close now; queued work still drains.
    pub close_queue: bool,
}

impl PostBatch {
    /// Whether anything fires at this batch.
    pub fn is_noop(&self) -> bool {
        !self.crashed && self.stall_ns == 0 && !self.close_queue
    }
}

/// One replica's view of a [`FaultPlan`]: the pure lookups both scheduler
/// drivers call at the same points of the batch lifecycle — service-time
/// factor at launch, post-batch effects after completion.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplicaFaults {
    events: Vec<FaultEvent>,
}

impl ReplicaFaults {
    /// Service-time multiplier (×1024) for the replica's 1-based
    /// `batch_index`-th batch: the maximum factor over every straggle window
    /// covering it, or 1024 (1×) when none does.
    pub fn service_factor_x1024(&self, batch_index: u64) -> u64 {
        let mut factor = 1024u64;
        for event in &self.events {
            if let FaultKind::Straggle {
                factor_x1024,
                window_batches,
            } = event.kind
            {
                if event.at_batch <= batch_index
                    && batch_index < event.at_batch.saturating_add(window_batches)
                {
                    factor = factor.max(factor_x1024);
                }
            }
        }
        factor
    }

    /// The aggregate post-batch effect after the replica's 1-based
    /// `batch_index`-th batch completes.
    pub fn after_batch(&self, batch_index: u64) -> PostBatch {
        let mut post = PostBatch::default();
        for event in &self.events {
            if event.at_batch != batch_index {
                continue;
            }
            match event.kind {
                FaultKind::Crash => post.crashed = true,
                FaultKind::Stall { duration_ns } => {
                    post.stall_ns = post.stall_ns.saturating_add(duration_ns);
                }
                FaultKind::CloseQueue => post.close_queue = true,
                FaultKind::Straggle { .. } => {} // applied at launch, not after
            }
        }
        post
    }

    /// Whether this replica has any scheduled events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One in-queue request re-routed (or shed) when its replica crashed —
/// recorded identically by the threaded pool and the simulator, so handoff
/// decisions are part of the extended lockstep contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandoffRecord {
    /// The replica that crashed.
    pub from_replica: usize,
    /// The crashed replica's 1-based batch count at the moment of death.
    pub at_batch: u64,
    /// The request's router key.
    pub key: u64,
    /// The surviving replica that took the request, or `None` when every
    /// survivor was dead, closed, or full and the request was shed.
    pub to_replica: Option<usize>,
}

/// The pure routing decision of the scheduling core that the simulator and
/// both [`crate::pool::ReplicaPool`] drivers run: picks among the
/// `eligible` replicas — `(index, queue length)` pairs in ascending index
/// order, restricted to live, uncrashed, open replicas — or returns `None`
/// when none is eligible. With every replica eligible this reproduces the
/// original fault-free router arithmetic exactly (round-robin `tick % n`,
/// `route_hash(key) % n`, least-outstanding min by `(len, index)`).
pub fn pick_replica(
    policy: RoutePolicy,
    key: u64,
    rr_tick: u64,
    eligible: &[(usize, usize)],
) -> Option<usize> {
    if eligible.is_empty() {
        return None;
    }
    let n = eligible.len() as u64;
    let slot = match policy {
        RoutePolicy::RoundRobin => (rr_tick % n) as usize,
        RoutePolicy::Hashed => (crate::config::route_hash(key) % n) as usize,
        RoutePolicy::LeastOutstanding => eligible
            .iter()
            .enumerate()
            .min_by_key(|(_, &(index, len))| (len, index))
            .map(|(slot, _)| slot)
            .expect("eligible is non-empty"),
    };
    Some(eligible[slot].0)
}

/// The pure handoff rule of the scheduling core, behind every crash and
/// scale-down in the simulator and both pool drivers: starting from the
/// rotating `cursor`, the first replica that is not the drained one, is
/// eligible (live, uncrashed and admitting), and has room takes the
/// request; the cursor advances past the pick so consecutive orphans spread
/// out. `states[i]` is `(eligible, queue length)` for replica `i`. Returns
/// `None` — shed — when no replica qualifies.
pub fn pick_handoff_target(
    from: usize,
    cursor: &mut usize,
    states: &[(bool, usize)],
    capacity: usize,
) -> Option<usize> {
    let n = states.len();
    for k in 0..n {
        let idx = (*cursor + k) % n;
        if idx == from {
            continue;
        }
        let (eligible, len) = states[idx];
        if eligible && len < capacity {
            *cursor = (idx + 1) % n;
            return Some(idx);
        }
    }
    None
}

/// The committed chaos-regression corpus: seed-named schedules, each
/// encoding one incident class as a permanent, replayable regression test.
/// All schedules target a 2-replica pool (the `fault_schedules.rs` and
/// `serve_determinism.rs` fixtures).
pub fn chaos_corpus() -> Vec<(&'static str, FaultPlan)> {
    vec![
        // Incident: a replica dies while its queue still holds most of a
        // burst — the drain/handoff path must re-route every orphan to the
        // survivor with permits reconciled exactly.
        (
            "crash-during-drain",
            FaultPlan::from_events(vec![FaultEvent {
                replica: 1,
                at_batch: 1,
                kind: FaultKind::Crash,
            }]),
        ),
        // Incident: a replica freezes right as queue pressure is driving the
        // adaptive ladder up — escalation must resume, not wedge, after the
        // stall. The 50ms freeze dominates real host execution time, so a
        // live pool's hedging client sees it as an unambiguous straggler.
        (
            "stall-at-escalation",
            FaultPlan::from_events(vec![FaultEvent {
                replica: 0,
                at_batch: 2,
                kind: FaultKind::Stall {
                    duration_ns: 50_000_000,
                },
            }]),
        ),
        // Incident: fleet-wide slowdown (thermal throttling) — every replica
        // serves 4× slow for a window; nothing crashes, nothing sheds, p95
        // balloons and the adaptive pool escalates on it.
        (
            "all-replicas-straggle",
            FaultPlan::from_events(vec![
                FaultEvent {
                    replica: 0,
                    at_batch: 1,
                    kind: FaultKind::Straggle {
                        factor_x1024: 4096,
                        window_batches: 8,
                    },
                },
                FaultEvent {
                    replica: 1,
                    at_batch: 1,
                    kind: FaultKind::Straggle {
                        factor_x1024: 4096,
                        window_batches: 8,
                    },
                },
            ]),
        ),
        // Incident: a replica dies while hedged duplicates are in flight —
        // the hedge must win on the survivor and the loser's cancellation
        // must not leak a permit.
        (
            "crash-with-hedge-in-flight",
            FaultPlan::from_events(vec![FaultEvent {
                replica: 0,
                at_batch: 2,
                kind: FaultKind::Crash,
            }]),
        ),
        // Incident: cascading failure — the second crash finds no survivor,
        // so its whole queue sheds; every shed must surface as a typed
        // cancellation, never a hang.
        (
            "double-crash-cascade",
            FaultPlan::from_events(vec![
                FaultEvent {
                    replica: 1,
                    at_batch: 1,
                    kind: FaultKind::Crash,
                },
                FaultEvent {
                    replica: 0,
                    at_batch: 4,
                    kind: FaultKind::Crash,
                },
            ]),
        ),
        // Incident: the only survivor has closed admissions when a crash
        // tries to hand off — handoff must respect the close and shed
        // rather than sneak past admission control.
        (
            "closed-survivor-sheds",
            FaultPlan::from_events(vec![
                FaultEvent {
                    replica: 1,
                    at_batch: 1,
                    kind: FaultKind::CloseQueue,
                },
                FaultEvent {
                    replica: 0,
                    at_batch: 2,
                    kind: FaultKind::Crash,
                },
            ]),
        ),
    ]
}

/// Retry policy of the [`FaultClient`]: up to `max_retries` re-submissions
/// with exponential backoff starting at `backoff_base_ns` and doubling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-submissions after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// First backoff sleep in ns; doubles each retry.
    pub backoff_base_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff_base_ns: 50_000,
        }
    }
}

/// Hedging policy of the [`FaultClient`]: when the primary response has not
/// arrived `delay_ns` after submission, a duplicate is submitted under a
/// derived key and the first response wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgePolicy {
    /// How long to wait on the primary before hedging in ns — typically
    /// derived from an observed or simulated p95.
    pub delay_ns: u64,
}

/// Client-side countermeasure counters (separate from the pool's
/// [`crate::metrics::ServeMetrics`] — these are the *client's* view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultClientStats {
    /// Submission attempts (first tries + retries).
    pub attempts: u64,
    /// Re-submissions after a typed rejection or a cancellation.
    pub retries: u64,
    /// Hedge duplicates submitted.
    pub hedges: u64,
    /// Calls won by the hedge (it responded before the primary).
    pub hedge_wins: u64,
    /// Calls that received a response.
    pub completed: u64,
    /// Calls abandoned after the retry budget.
    pub failed: u64,
}

/// A fault-tolerant client over a [`PoolClient`]: retry with exponential
/// backoff on typed submit errors and replica-death cancellations, plus
/// optional straggler hedging. The hedge's loser is cancelled simply by
/// dropping its drop-safe [`crate::queue::ResponseHandle`].
pub struct FaultClient {
    client: PoolClient,
    retry: RetryPolicy,
    hedge: Option<HedgePolicy>,
    stats: FaultClientStats,
}

impl FaultClient {
    /// Wraps `client` with the given countermeasures.
    pub fn new(client: PoolClient, retry: RetryPolicy, hedge: Option<HedgePolicy>) -> Self {
        FaultClient {
            client,
            retry,
            hedge,
            stats: FaultClientStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> FaultClientStats {
        self.stats
    }

    /// Submits `key`/`input` and blocks for the response, applying retry and
    /// hedging. Returns `None` when the retry budget is exhausted (every
    /// attempt was rejected or cancelled).
    pub fn call(&mut self, key: u64, input: &Tensor<f32>) -> Option<RequestResult> {
        let mut backoff = self.retry.backoff_base_ns.max(1);
        for attempt in 0..=self.retry.max_retries {
            if attempt > 0 {
                self.stats.retries += 1;
                std::thread::sleep(Duration::from_nanos(backoff));
                backoff = backoff.saturating_mul(2);
            }
            self.stats.attempts += 1;
            let handle = match self.client.submit(key, input.clone()) {
                Ok(handle) => handle,
                // QueueFull or Closed: back off and retry — a crashed
                // replica's close resolves to a survivor on the next pick.
                Err(_) => continue,
            };
            match self.wait_hedged(key, input, handle) {
                Ok(result) => {
                    self.stats.completed += 1;
                    return Some(result);
                }
                // Cancelled mid-flight (replica death shed the request):
                // retry the whole call.
                Err(Cancelled) => continue,
            }
        }
        self.stats.failed += 1;
        None
    }

    /// Waits for `primary`, hedging after the configured delay: the
    /// duplicate goes out under `key | 1 << 63` (a distinct routing key),
    /// the first response wins, and the losing handle is dropped —
    /// cancellation-safe by construction.
    fn wait_hedged(
        &mut self,
        key: u64,
        input: &Tensor<f32>,
        primary: crate::queue::ResponseHandle<RequestResult>,
    ) -> Result<RequestResult, Cancelled> {
        let Some(hedge) = self.hedge else {
            return primary.wait();
        };
        // Poll at ~1/20 of the hedge delay (bounded to 20µs..1ms): the poll
        // only has to resolve *whether to hedge*, and many clients spinning
        // on a fine interval contend with the replica workers for CPU —
        // slowing down the very responses being waited on.
        let poll = Duration::from_nanos((hedge.delay_ns / 20).clamp(20_000, 1_000_000));
        let deadline = Instant::now() + Duration::from_nanos(hedge.delay_ns);
        let mut primary = primary;
        while Instant::now() < deadline {
            match primary.try_wait() {
                TryWait::Ready(result) => return Ok(result),
                TryWait::Cancelled => return Err(Cancelled),
                TryWait::Pending(handle) => primary = handle,
            }
            std::thread::sleep(poll);
        }
        // Past the hedge delay: duplicate the request. A rejected hedge
        // submit degrades to plain waiting on the primary.
        let Ok(hedged) = self.client.submit(key | 1 << 63, input.clone()) else {
            return primary.wait();
        };
        self.stats.hedges += 1;
        let mut primary = Some(primary);
        let mut hedged = Some(hedged);
        loop {
            if let Some(handle) = primary.take() {
                match handle.try_wait() {
                    TryWait::Ready(result) => return Ok(result), // hedge dropped
                    TryWait::Cancelled => {}
                    TryWait::Pending(handle) => primary = Some(handle),
                }
            }
            if let Some(handle) = hedged.take() {
                match handle.try_wait() {
                    TryWait::Ready(result) => {
                        self.stats.hedge_wins += 1;
                        return Ok(result); // primary dropped
                    }
                    TryWait::Cancelled => {}
                    TryWait::Pending(handle) => hedged = Some(handle),
                }
            }
            if primary.is_none() && hedged.is_none() {
                return Err(Cancelled); // both legs died with the replica
            }
            std::thread::sleep(poll);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(crash: u64, stall: u64, straggle: u64) -> FaultConfig {
        FaultConfig {
            seed: 7,
            crash_per_mille: crash,
            stall_per_mille: stall,
            straggle_per_mille: straggle,
        }
    }

    #[test]
    fn same_seed_generates_the_identical_plan() {
        let config = rates(40, 80, 120);
        let a = FaultPlan::generate(&config, 4).unwrap();
        let b = FaultPlan::generate(&config, 4).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "these rates over a 64-batch horizon fire");
        // A different seed changes the schedule.
        let other = FaultPlan::generate(&FaultConfig { seed: 8, ..config }, 4).unwrap();
        assert_ne!(a, other);
        // Zero rates generate nothing.
        let quiet = FaultPlan::generate(&rates(0, 0, 0), 4).unwrap();
        assert!(quiet.is_empty());
    }

    #[test]
    fn generation_stops_at_a_crash_per_replica() {
        let config = FaultConfig {
            seed: 3,
            ..rates(1000, 0, 0) // every coordinate crashes
        };
        let plan = FaultPlan::generate(&config, 3).unwrap();
        // Exactly one event per replica: the batch-1 crash ends its stream.
        assert_eq!(plan.events().len(), 3);
        for (replica, event) in plan.events().iter().enumerate() {
            assert_eq!(event.replica, replica);
            assert_eq!(event.at_batch, 1);
            assert_eq!(event.kind, FaultKind::Crash);
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        assert_eq!(rates(1000, 1000, 1000).validate(), Ok(()));
        assert_eq!(
            rates(1001, 0, 0).validate(),
            Err(ConfigError::FaultRateOutOfRange { rate: 1001 })
        );
        // generate() is an entry point too: it must refuse the same values.
        assert!(FaultPlan::generate(&rates(0, 2000, 0), 2).is_err());
    }

    #[test]
    fn replica_cursor_answers_factor_windows_and_post_batch_effects() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent {
                replica: 0,
                at_batch: 3,
                kind: FaultKind::Straggle {
                    factor_x1024: 2048,
                    window_batches: 2,
                },
            },
            FaultEvent {
                replica: 0,
                at_batch: 4,
                kind: FaultKind::Stall { duration_ns: 1_000 },
            },
            FaultEvent {
                replica: 0,
                at_batch: 5,
                kind: FaultKind::Crash,
            },
            FaultEvent {
                replica: 1,
                at_batch: 1,
                kind: FaultKind::CloseQueue,
            },
        ]);
        let r0 = plan.for_replica(0);
        assert_eq!(r0.service_factor_x1024(2), 1024);
        assert_eq!(r0.service_factor_x1024(3), 2048);
        assert_eq!(r0.service_factor_x1024(4), 2048);
        assert_eq!(r0.service_factor_x1024(5), 1024, "window closed");
        assert!(r0.after_batch(3).is_noop(), "straggle has no post effect");
        assert_eq!(r0.after_batch(4).stall_ns, 1_000);
        assert!(r0.after_batch(5).crashed);
        let r1 = plan.for_replica(1);
        assert!(r1.after_batch(1).close_queue);
        assert!(plan.for_replica(2).is_empty());
    }

    #[test]
    fn pick_replica_matches_the_fault_free_router_arithmetic() {
        let all: Vec<(usize, usize)> = vec![(0, 5), (1, 2), (2, 2), (3, 9)];
        // Round-robin: tick % n over the full set.
        for tick in 0..8u64 {
            assert_eq!(
                pick_replica(RoutePolicy::RoundRobin, 0, tick, &all),
                Some((tick % 4) as usize)
            );
        }
        // Hashed: route_hash(key) % n.
        for key in 0..16u64 {
            assert_eq!(
                pick_replica(RoutePolicy::Hashed, key, 0, &all),
                Some((crate::config::route_hash(key) % 4) as usize)
            );
        }
        // Least outstanding: min by (len, index) — ties to the lower index.
        assert_eq!(
            pick_replica(RoutePolicy::LeastOutstanding, 0, 0, &all),
            Some(1)
        );
        // Restricting eligibility re-indexes the slot arithmetic.
        let survivors = vec![(1, 2), (3, 9)];
        assert_eq!(
            pick_replica(RoutePolicy::RoundRobin, 0, 3, &survivors),
            Some(3)
        );
        assert_eq!(pick_replica(RoutePolicy::RoundRobin, 0, 0, &[]), None);
    }

    #[test]
    fn handoff_rotates_skips_ineligible_and_sheds_when_full() {
        // 4 replicas; replica 1 crashed (from). Replica 2 dead, replica 3
        // full: only replica 0 can take work.
        let states = vec![(true, 0), (true, 0), (false, 0), (true, 4)];
        let mut cursor = 2; // (from + 1) % 4
        assert_eq!(pick_handoff_target(1, &mut cursor, &states, 4), Some(0));
        assert_eq!(cursor, 1, "cursor advances past the pick");
        // Nobody eligible: shed.
        let dead = vec![(false, 0), (true, 0), (false, 0), (false, 0)];
        let mut cursor = 2;
        assert_eq!(pick_handoff_target(1, &mut cursor, &dead, 4), None);
        // Rotation spreads consecutive orphans over survivors.
        let spread = vec![(true, 0), (true, 0), (true, 0), (true, 0)];
        let mut cursor = 2;
        assert_eq!(pick_handoff_target(1, &mut cursor, &spread, 4), Some(2));
        assert_eq!(pick_handoff_target(1, &mut cursor, &spread, 4), Some(3));
        assert_eq!(pick_handoff_target(1, &mut cursor, &spread, 4), Some(0));
        assert_eq!(pick_handoff_target(1, &mut cursor, &spread, 4), Some(2));
    }

    #[test]
    fn chaos_corpus_schedules_are_named_and_two_replica_scoped() {
        let corpus = chaos_corpus();
        assert_eq!(corpus.len(), 6);
        let mut names: Vec<&str> = corpus.iter().map(|(name, _)| *name).collect();
        names.dedup();
        assert_eq!(names.len(), 6, "schedule names must be unique");
        for (name, plan) in &corpus {
            assert!(!plan.is_empty(), "{name} must schedule something");
            for event in plan.events() {
                assert!(event.replica < 2, "{name} targets a 2-replica pool");
                assert!(event.at_batch >= 1, "{name}: batch indices are 1-based");
            }
        }
    }
}
