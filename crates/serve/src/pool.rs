//! Multi-replica sharded serving: a deterministic router in front of N
//! scheduler workers, each owning its own [`BoundedQueue`], its own
//! [`ExecContext`], and an SLO-aware [`AdaptiveState`] that walks the
//! session ladder (dense → 2T → 4T) under pressure. A one-replica pool with
//! [`crate::config::AdaptivePolicy::pinned`] is the single-session server.
//!
//! The pool is the threaded half of the sharded serving layer; the
//! discrete-event half is [`crate::sim::simulate_pool`]. Both take the same
//! [`PoolOptions`] value and use the same router arithmetic
//! ([`RoutePolicy`], [`crate::config::route_hash`]) and the same adaptive
//! state machine, which yields the **lockstep determinism contract**: when
//! every request is submitted before the workers start (a paused pool
//! resumed after a burst, or equivalently a virtual trace whose arrivals
//! all precede the first launch), batch compositions, executed modes, mode
//! transitions, and logits are bit-identical between the threaded pool and
//! the simulator — for every host thread count and GEMM backend.
//! Wall-clock quantities (latencies, throughput) are the only fields
//! allowed to differ.
//!
//! Routing is decided at submission time from the submission sequence and
//! the per-replica queue depths alone, so a single-threaded submitter drives
//! all four policies deterministically. A request whose shape does not fit
//! the ladder is answered with its own [`ServeError::BadRequest`] at submit
//! and never reaches a queue, so it cannot fail the batch it would have
//! joined.
//!
//! [`ReplicaPool::new`] builds the pool paused; [`ReplicaPool::resume`]
//! starts the workers in one of two modes, chosen by [`PoolDriver`]:
//!
//! - **Free-running** ([`PoolDriver::FreeRunning`]): each worker drains its
//!   own queue on the wall clock. The p95 adaptive trigger observes real
//!   tail latency here, so its *timing* is outside the lockstep contract
//!   (batch composition and routing still replay). A [`FaultPlan`] applies
//!   for real: crashes kill workers (queues drain through the shared
//!   handoff rule), stalls sleep, and stragglers pad service time. This is
//!   the mode the availability bench drives with retrying/hedging clients.
//! - **Lockstep** ([`PoolDriver::Lockstep`]): the workers share the
//!   simulator's `sched` scheduling core behind a mutex. It owns a virtual
//!   clock ([`ServiceModel`]) and grants batch launches in the simulator's
//!   event order, while the granted GEMMs still execute on real threads in
//!   parallel. Latencies are recorded in virtual time, so **both** adaptive
//!   triggers — depth *and* p95 — replay bit-identically against
//!   [`crate::sim::simulate_pool`] with the same options, as do fault
//!   schedules, crash handoffs, controller decisions, and every quantile of
//!   the latency histogram. Only this mode runs a pool controller.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{
    AdaptiveState, ConfigError, ModeTransition, PoolConfig, PoolOptions, RoutePolicy, ServeError,
    SubmitError, BATCH_LOG_CAP,
};
use crate::control::ControlEvent;
use crate::faults::{pick_handoff_target, pick_replica, FaultPlan, HandoffRecord, ReplicaFaults};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::{response_channel, BoundedQueue, ResponseHandle, ResponseSlot};
use crate::sched::{check_ladder, Launch, Queued, SchedCore};
use crate::session::{Inference, Session};
use crate::sim::ServiceModel;
use crate::trace::{BatchTraceCtx, TraceEvent, TraceRecorder, TraceStage};

/// Result delivered to each request's [`ResponseHandle`].
pub type RequestResult = Result<Inference, ServeError>;

struct PooledRequest {
    key: u64,
    input: Tensor<f32>,
    submitted: Instant,
    slot: ResponseSlot<RequestResult>,
}

/// One launched batch as the threaded pool recorded it (no timestamps —
/// wall-clock times are outside the determinism contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBatchLog {
    /// Replica that executed the batch.
    pub replica: usize,
    /// Ladder rung the batch executed at.
    pub mode: usize,
    /// Request keys coalesced into the batch, in queue order.
    pub keys: Vec<u64>,
    /// Queue depth left behind after the batch was drained.
    pub queue_depth_after: usize,
}

/// Final state of a drained replica pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSnapshot {
    /// Pool-level aggregate (per-replica metrics merged).
    pub total: MetricsSnapshot,
    /// Per-replica metrics over the same window. Admission-control
    /// rejections are attributed to the replica the router picked, matching
    /// the simulator's accounting.
    pub per_replica: Vec<MetricsSnapshot>,
    /// Every adaptive mode switch, grouped by replica in replica order.
    pub transitions: Vec<ModeTransition>,
    /// Per-batch log (replica order, launch order within a replica, for
    /// free-running pools; launch order in lockstep mode); only recorded
    /// when the pool was started with recording enabled.
    pub batch_log: Vec<PoolBatchLog>,
    /// Every crash handoff decision, in crash order then queue order —
    /// empty without fault injection. Part of the extended lockstep
    /// contract (mirrors [`crate::sim::PoolSimOutcome::handoffs`]).
    pub handoffs: Vec<HandoffRecord>,
    /// Batches executed but *not* retained in `batch_log` because the log
    /// hit [`BATCH_LOG_CAP`] — the log is constant-memory, this counter
    /// closes the accounting (mirrors
    /// [`crate::sim::PoolSimOutcome::dropped_batches`]).
    pub dropped_batches: u64,
    /// Mode transitions applied but not retained past
    /// [`crate::config::TRANSITION_LOG_CAP`], summed over replicas.
    pub dropped_transitions: u64,
    /// Every pool-controller decision in decision order — empty unless the
    /// pool runs a controller ([`PoolOptions::control`], lockstep only).
    /// Part of the extended lockstep contract (mirrors
    /// [`crate::sim::PoolSimOutcome::control_events`]).
    pub control_events: Vec<ControlEvent>,
    /// Controller decisions applied but not retained past
    /// [`crate::config::CONTROL_LOG_CAP`].
    pub dropped_control_events: u64,
    /// Total live-replica nanoseconds: `replicas × wall elapsed` for
    /// free-running pools, virtual (`replicas × makespan`, or the
    /// controller's event-log integral) in lockstep mode — mirrors
    /// [`crate::sim::PoolSimOutcome::replica_ns`].
    pub replica_ns: u64,
}

struct RouterCore {
    policy: RoutePolicy,
    queues: Vec<Arc<BoundedQueue<PooledRequest>>>,
    rr: AtomicU64,
    /// Admission-control rejections per replica, attributed to the replica
    /// the router picked — the same accounting as the simulator's.
    rejected: Vec<AtomicU64>,
    /// Liveness per replica: cleared by a crashed worker *before* it closes
    /// and drains its queue, so the router never routes into a dying
    /// replica. Always true without fault injection.
    alive: Vec<AtomicBool>,
    /// Ladder rung 0, whose [`Session::validate_input`] checks every
    /// submission: the constructor made every rung take its input shape.
    rung0: Arc<Session>,
}

impl RouterCore {
    /// A handle already answered with the shape error when `input` does not
    /// fit the ladder, so a malformed request never enters a queue (nor
    /// fails the batch it would have joined).
    fn malformed(&self, input: &Tensor<f32>) -> Option<ResponseHandle<RequestResult>> {
        let error = self.rung0.validate_input(input).err()?;
        let (slot, handle) = response_channel();
        slot.complete(Err(error));
        Some(handle)
    }

    /// Whether replica `i` is alive and admitting.
    fn eligible(&self, i: usize) -> bool {
        self.alive[i].load(Ordering::Acquire) && !self.queues[i].is_admissions_closed()
    }

    /// Routes a key among the alive, admitting replicas through the shared
    /// [`pick_replica`] arithmetic (with every replica eligible this is
    /// exactly the fault-free router), or `None` when none is eligible.
    fn pick(&self, key: u64) -> Option<usize> {
        let eligible: Vec<(usize, usize)> = (0..self.queues.len())
            .filter(|&i| self.eligible(i))
            .map(|i| (i, self.queues[i].len()))
            .collect();
        // The round-robin counter ticks per routed submission regardless of
        // the eligible-set size — the same clock the simulator advances.
        let tick = if self.policy == RoutePolicy::RoundRobin {
            self.rr.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        pick_replica(self.policy, key, tick, &eligible)
    }
}

/// Cheap cloneable submission handle onto a [`ReplicaPool`].
#[derive(Clone)]
pub struct PoolClient {
    router: Arc<RouterCore>,
}

impl PoolClient {
    /// Routes and submits one request. `key` identifies the request: it is
    /// the hash input for [`RoutePolicy::Hashed`], and the identity under
    /// which the batch log reports the request. An `input` whose shape the
    /// ladder does not take is not routed: its handle comes back already
    /// answered with [`ServeError::BadRequest`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the routed replica's queue is at
    /// capacity (the router does not fail over — a deterministic router
    /// must not let load silently leak across replicas), and
    /// [`SubmitError::Closed`] after shutdown began or when every replica
    /// is crashed or has closed admissions (only possible under fault
    /// injection; not counted as an admission-control rejection).
    pub fn submit(
        &self,
        key: u64,
        input: Tensor<f32>,
    ) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        if let Some(handle) = self.router.malformed(&input) {
            return Ok(handle);
        }
        let Some(replica) = self.router.pick(key) else {
            return Err(SubmitError::Closed);
        };
        let (slot, handle) = response_channel();
        let queued = PooledRequest {
            key,
            input,
            submitted: Instant::now(),
            slot,
        };
        match self.router.queues[replica].try_push(queued) {
            Ok(()) => Ok(handle),
            Err(e) => {
                if matches!(e, SubmitError::QueueFull { .. }) {
                    self.router.rejected[replica].fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }
}

/// What a free-running worker hands back at shutdown (lockstep workers
/// return it empty: their state lives in the scheduling core).
#[derive(Default)]
struct ReplicaOutcome {
    metrics: ServeMetrics,
    transitions: Vec<ModeTransition>,
    dropped_transitions: u64,
    log: Vec<PoolBatchLog>,
    dropped_batches: u64,
    handoffs: Vec<HandoffRecord>,
}

struct Replica {
    queue: Arc<BoundedQueue<PooledRequest>>,
    worker: Option<JoinHandle<ReplicaOutcome>>,
}

/// How a [`ReplicaPool`]'s workers take their batches (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDriver {
    /// Wall-clock workers, each draining its own queue and applying its
    /// slice of the fault plan for real.
    FreeRunning,
    /// Workers granted batches by the scheduling core the simulator drives,
    /// in the simulator's event order on its virtual clock.
    Lockstep,
}

/// A [`PoolDriver`] with its state.
enum Driver {
    /// Wall-clock workers, each applying its slice of the plan for real
    /// (an empty plan injects nothing).
    FreeRunning {
        plan: FaultPlan,
        service: ServiceModel,
    },
    /// Workers granted batches by the shared scheduling core.
    Lockstep(Arc<LockstepGate>),
}

/// A running sharded serving instance: router → N replica workers, each
/// executing batches against the shared session ladder at its own adaptive
/// mode.
pub struct ReplicaPool {
    replicas: Vec<Replica>,
    router: Arc<RouterCore>,
    sessions: Arc<Vec<Arc<Session>>>,
    config: PoolConfig,
    exec: ExecConfig,
    record_log: bool,
    driver: Driver,
    recorder: Option<Arc<TraceRecorder>>,
    started: Instant,
    running: bool,
}

impl ReplicaPool {
    /// Builds a pool over `sessions` (the adaptive ladder, rung 0 first —
    /// typically dense → 2T → 4T; a single-session ladder never switches)
    /// with every queue live but **no workers running**: submissions
    /// accumulate in the per-replica queues until [`Self::resume`] spawns
    /// the workers. Each replica builds its own [`ExecContext`] from `exec`.
    ///
    /// `options` is the value [`crate::sim::simulate_pool`] takes, and
    /// `driver` picks how the workers consume it (see the module docs):
    /// [`PoolDriver::FreeRunning`] injects the fault plan for real and pads
    /// stragglers with the service model's cost, while
    /// [`PoolDriver::Lockstep`] hands the whole plan, the service model, and
    /// the controller to the shared scheduling core. `record_log` captures
    /// the per-batch composition log, capped at [`BATCH_LOG_CAP`] entries
    /// with the overflow counted in [`PoolSnapshot::dropped_batches`].
    ///
    /// # Errors
    ///
    /// Rejects an empty ladder or rungs with different input shapes as
    /// [`ServeError::BadRequest`]; an invalid pool, controller, or execution
    /// configuration as [`ServeError::Config`], and so does a controller on
    /// a free-running pool ([`ConfigError::ControllerNeedsLockstep`]).
    pub fn new(
        sessions: Vec<Arc<Session>>,
        options: &PoolOptions,
        exec: ExecConfig,
        driver: PoolDriver,
        record_log: bool,
    ) -> Result<ReplicaPool, ServeError> {
        check_ladder(&sessions)?;
        let config = options.config;
        config.validate()?;
        exec.validate().map_err(ConfigError::from)?;
        let driver = match driver {
            PoolDriver::FreeRunning if options.control.is_some() => {
                return Err(ConfigError::ControllerNeedsLockstep.into());
            }
            PoolDriver::FreeRunning => Driver::FreeRunning {
                plan: options.faults.clone(),
                service: options.service,
            },
            PoolDriver::Lockstep => {
                let capacity = config.scheduler.queue_capacity;
                let core = SchedCore::new(&sessions, options, capacity, record_log)?;
                Driver::Lockstep(Arc::new(LockstepGate {
                    state: Mutex::new(GateState {
                        core,
                        pending: VecDeque::new(),
                        recorder: None,
                    }),
                    cv: Condvar::new(),
                }))
            }
        };
        let replicas: Vec<Replica> = (0..config.replicas)
            .map(|_| Replica {
                queue: Arc::new(BoundedQueue::new(config.scheduler.queue_capacity)),
                worker: None,
            })
            .collect();
        let router = Arc::new(RouterCore {
            policy: config.route,
            queues: replicas.iter().map(|r| Arc::clone(&r.queue)).collect(),
            rr: AtomicU64::new(0),
            rejected: (0..config.replicas).map(|_| AtomicU64::new(0)).collect(),
            alive: (0..config.replicas)
                .map(|_| AtomicBool::new(true))
                .collect(),
            rung0: Arc::clone(&sessions[0]),
        });
        Ok(ReplicaPool {
            replicas,
            router,
            sessions: Arc::new(sessions),
            config,
            exec,
            record_log,
            driver,
            recorder: None,
            started: Instant::now(),
            running: false,
        })
    }

    /// A paused, fault-free, free-running pool over `config`: [`Self::new`]
    /// in the argument form the repo benchmark (`perfbench/`) calls.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn start_paused(
        sessions: Vec<Arc<Session>>,
        config: PoolConfig,
        exec: ExecConfig,
        record_log: bool,
    ) -> Result<ReplicaPool, ServeError> {
        let options = PoolOptions {
            config,
            ..PoolOptions::default()
        };
        Self::new(
            sessions,
            &options,
            exec,
            PoolDriver::FreeRunning,
            record_log,
        )
    }

    /// Attaches a shared [`TraceRecorder`] — call between [`Self::new`] and
    /// [`Self::resume`]. Every executed batch then leaves the full span
    /// chain (submit, queue-wait, batch, per-layer kernels, service,
    /// respond). In lockstep mode the recorder must hold a virtual
    /// [`crate::trace::Clock`] and the emitted trace is byte-identical to
    /// [`crate::sim::simulate_pool`]'s on the same burst; free-running
    /// pools emit the same schema on the recorder's wall clock.
    pub fn set_recorder(&mut self, recorder: Arc<TraceRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Spawns the replica workers (idempotent). In lockstep mode this is
    /// the burst boundary: every queued submission is handed to the
    /// scheduling core (submission order preserved, virtual arrival time 0)
    /// and the real queues close, so late submissions get
    /// [`SubmitError::Closed`] — exactly the "all requests precede the
    /// first launch" precondition of the determinism contract.
    pub fn resume(&mut self) {
        if self.running {
            return;
        }
        self.running = true;
        if let Driver::Lockstep(gate) = &self.driver {
            let mut state = gate.state.lock().expect("gate lock");
            state.recorder = self.recorder.clone();
            for (index, replica) in self.replicas.iter().enumerate() {
                for req in replica.queue.drain_up_to(usize::MAX) {
                    // The burst arrives at virtual t = 0 on the replica the
                    // router already picked — the simulator's submit instant
                    // for an all-at-zero arrival trace.
                    let item = Queued {
                        id: req.key,
                        key: req.key,
                        submit_ns: 0,
                        ready_ns: 0,
                        payload: req,
                    };
                    state.core.enqueue(index, item, self.recorder.as_deref());
                }
                replica.queue.close();
            }
        }
        for (index, replica) in self.replicas.iter_mut().enumerate() {
            let sessions = Arc::clone(&self.sessions);
            let exec = self.exec;
            let recorder = self.recorder.clone();
            let thread = std::thread::Builder::new().name(format!("nbsmt-pool-{index}"));
            let worker = match &self.driver {
                Driver::FreeRunning { plan, service } => {
                    let worker = ReplicaWorker {
                        index,
                        queue: Arc::clone(&replica.queue),
                        router: Arc::clone(&self.router),
                        sessions,
                        config: self.config,
                        record_log: self.record_log,
                        faults: plan.for_replica(index),
                        service: *service,
                        recorder,
                    };
                    thread.spawn(move || worker.run(&ExecContext::new(exec)))
                }
                Driver::Lockstep(gate) => {
                    let gate = Arc::clone(gate);
                    thread.spawn(move || {
                        let ctx = ExecContext::new(exec);
                        lockstep_loop(index, &gate, &sessions, &ctx, recorder.as_deref())
                    })
                }
            }
            .expect("spawning a replica worker succeeds");
            replica.worker = Some(worker);
        }
    }

    /// Number of replica workers.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// A new submission handle.
    pub fn client(&self) -> PoolClient {
        PoolClient {
            router: Arc::clone(&self.router),
        }
    }

    /// Queues a **virtual-time** submission on a paused lockstep pool: the
    /// request arrives at virtual `at_ns` and is routed *inside* the
    /// scheduling core at that instant — admission interleaves with
    /// launches exactly as in the simulator, so a timed trace (e.g. a
    /// seeded MMPP burst from [`crate::traffic::TrafficModel`]) replays
    /// bit-identically against [`crate::sim::simulate_pool`] with the
    /// matching [`crate::sim::ArrivalProcess`]. `key` is the router/affinity
    /// key and the [`crate::traffic::SizeModel`] input, so per-request
    /// sizes are recomputed identically on both sides.
    ///
    /// Submissions must be issued in non-decreasing `at_ns` order, before
    /// [`Self::resume`]. A request shed by admission control cancels its
    /// handle (the wait returns `Err(Cancelled)`), mirroring the simulator's
    /// rejected-id accounting; one whose shape the ladder does not take is
    /// answered with [`ServeError::BadRequest`] and never queued.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] when the pool is not a paused lockstep pool
    /// or `at_ns` goes backwards — timed replay is strictly a pre-resume,
    /// ascending-order protocol.
    pub fn submit_virtual(
        &self,
        at_ns: u64,
        key: u64,
        input: Tensor<f32>,
    ) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        let Driver::Lockstep(gate) = &self.driver else {
            return Err(SubmitError::Closed);
        };
        if self.running {
            return Err(SubmitError::Closed);
        }
        let mut state = gate.state.lock().expect("gate lock");
        if state.pending.back().is_some_and(|p| p.at_ns > at_ns) {
            return Err(SubmitError::Closed);
        }
        if let Some(handle) = self.router.malformed(&input) {
            return Ok(handle);
        }
        let (slot, handle) = response_channel();
        state.pending.push_back(PendingSubmission {
            at_ns,
            req: PooledRequest {
                key,
                input,
                submitted: Instant::now(),
                slot,
            },
        });
        Ok(handle)
    }

    /// Current per-replica queue depths (approximate under concurrency).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.replicas.iter().map(|r| r.queue.len()).collect()
    }

    /// Stops accepting work, drains every queue, joins the workers, and
    /// returns the final pool snapshot. A pool shut down while paused
    /// resumes first so queued work still completes.
    pub fn shutdown(mut self) -> PoolSnapshot {
        self.resume();
        for replica in &self.replicas {
            replica.queue.close();
        }
        let elapsed = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let outcomes: Vec<ReplicaOutcome> = self
            .replicas
            .iter_mut()
            .map(|replica| {
                replica
                    .worker
                    .take()
                    .expect("worker present until shutdown")
                    .join()
                    .expect("replica worker exits cleanly")
            })
            .collect();
        let mut snapshot = PoolSnapshot {
            total: ServeMetrics::new().snapshot(elapsed),
            per_replica: Vec::new(),
            transitions: Vec::new(),
            batch_log: Vec::new(),
            handoffs: Vec::new(),
            dropped_batches: 0,
            dropped_transitions: 0,
            control_events: Vec::new(),
            dropped_control_events: 0,
            replica_ns: (self.replicas.len() as u64).saturating_mul(elapsed),
        };
        let mut metrics = Vec::new();
        match &self.driver {
            Driver::Lockstep(gate) => {
                // Lockstep workers only ran GEMMs: every deterministic
                // count, and the virtual replica-ns, come from the core.
                let out = gate.state.lock().expect("gate lock").core.finish();
                metrics = out.metrics;
                snapshot.transitions = out.transitions;
                snapshot.dropped_transitions = out.dropped_transitions;
                snapshot.batch_log = out
                    .batches
                    .into_iter()
                    .map(|b| PoolBatchLog {
                        replica: b.replica,
                        mode: b.mode,
                        keys: b.request_ids,
                        queue_depth_after: b.queue_depth_after,
                    })
                    .collect();
                snapshot.dropped_batches = out.dropped_batches;
                snapshot.handoffs = out.handoffs;
                snapshot.control_events = out.control_events;
                snapshot.dropped_control_events = out.dropped_control_events;
                snapshot.replica_ns = out.replica_ns;
            }
            Driver::FreeRunning { .. } => {
                for outcome in outcomes {
                    metrics.push(outcome.metrics);
                    snapshot.transitions.extend(outcome.transitions);
                    snapshot.dropped_transitions += outcome.dropped_transitions;
                    snapshot.batch_log.extend(outcome.log);
                    snapshot.dropped_batches += outcome.dropped_batches;
                    snapshot.handoffs.extend(outcome.handoffs);
                }
            }
        }
        let mut total = ServeMetrics::new();
        for (replica, rejected) in metrics.iter_mut().zip(&self.router.rejected) {
            replica.rejected += rejected.load(Ordering::Relaxed);
            total.merge(replica);
        }
        snapshot.total = total.snapshot(elapsed);
        snapshot.per_replica = metrics.iter().map(|m| m.snapshot(elapsed)).collect();
        snapshot
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        for replica in &self.replicas {
            replica.queue.close();
        }
        for replica in &mut self.replicas {
            if let Some(worker) = replica.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// One free-running replica worker: drains its queue on the wall clock and
/// applies its slice of the fault plan for real.
struct ReplicaWorker {
    index: usize,
    queue: Arc<BoundedQueue<PooledRequest>>,
    router: Arc<RouterCore>,
    sessions: Arc<Vec<Arc<Session>>>,
    config: PoolConfig,
    record_log: bool,
    faults: ReplicaFaults,
    service: ServiceModel,
    recorder: Option<Arc<TraceRecorder>>,
}

impl ReplicaWorker {
    /// The worker loop. A batch opens at the first queued request and
    /// closes when it fills or that request's wait budget is spent; the
    /// 1-based batch count is the fault plan's clock. A straggle window
    /// sleeps out the extra service time its factor implies, a stall
    /// sleeps, a queue close half-closes admissions (queued work still
    /// drains), and a crash ends the loop after handing the queue off.
    fn run(self, ctx: &ExecContext) -> ReplicaOutcome {
        let mut out = ReplicaOutcome::default();
        let mut adaptive =
            AdaptiveState::new(self.config.adaptive, self.index, self.sessions.len());
        let max_batch = self.config.scheduler.batch.max_batch;
        let max_wait = Duration::from_nanos(self.config.scheduler.batch.max_wait_ns);
        let mut batch_index = 0u64;
        while let Some(first) = self.queue.pop_blocking() {
            batch_index += 1;
            let deadline = first.submitted + max_wait;
            let batch = self.queue.collect_batch(first, max_batch, deadline);
            let depth_after = self.queue.len();
            let mode = adaptive.mode();
            out.metrics.record_batch(batch.len(), depth_after);
            out.metrics.record_mode_batch(mode);
            if self.record_log {
                if out.log.len() < BATCH_LOG_CAP {
                    out.log.push(PoolBatchLog {
                        replica: self.index,
                        mode,
                        keys: batch.iter().map(|r| r.key).collect(),
                        queue_depth_after: depth_after,
                    });
                } else {
                    out.dropped_batches += 1;
                }
            }
            // The straggler pads the batch with the *extra* time its factor
            // implies over the service model's size-aware nominal cost.
            let factor = self.faults.service_factor_x1024(batch_index);
            let straggle_ns = if factor > 1024 {
                let nominal = self
                    .service
                    .batch_ns(&self.sessions[mode], batch.iter().map(|r| r.key));
                (nominal as u128 * (factor - 1024) as u128 / 1024).min(u128::from(u64::MAX)) as u64
            } else {
                0
            };
            self.execute(ctx, batch, batch_index, mode, &mut out.metrics);
            if straggle_ns > 0 {
                std::thread::sleep(Duration::from_nanos(straggle_ns));
            }
            // Policy evaluation runs after the batch's latencies landed in
            // the histogram; a switch applies from the next batch on.
            let p95 = out.metrics.latency.quantile(0.95);
            if adaptive.observe_batch(depth_after, p95).is_some() {
                out.metrics.record_transition();
            }
            let post = self.faults.after_batch(batch_index);
            if post.stall_ns > 0 {
                out.metrics.record_stall();
                std::thread::sleep(Duration::from_nanos(post.stall_ns));
            }
            if post.close_queue {
                self.queue.close_admissions();
            }
            if post.crashed {
                self.crash(batch_index, &mut out);
                break;
            }
        }
        out.dropped_transitions = adaptive.dropped_transitions();
        out.transitions = adaptive.into_transitions();
        out
    }

    /// Executes one batch, records its wall-clock latencies (and, with a
    /// recorder, its span chain), and answers every request. A failing
    /// batch answers each of its requests with the error; the worker keeps
    /// serving.
    fn execute(
        &self,
        ctx: &ExecContext,
        batch: Vec<PooledRequest>,
        batch_index: u64,
        mode: usize,
        metrics: &mut ServeMetrics,
    ) {
        let inputs: Vec<&Tensor<f32>> = batch.iter().map(|r| &r.input).collect();
        let mut kernels = Vec::new();
        let exec_start = Instant::now();
        let result = self.sessions[mode].infer_batch_inner(
            ctx,
            &inputs,
            self.recorder.as_ref().map(|_| &mut kernels),
        );
        let responses = match result {
            Ok(responses) => responses,
            Err(e) => {
                for request in batch {
                    request.slot.complete(Err(e.clone()));
                }
                return;
            }
        };
        let done = Instant::now();
        if let Some(rec) = &self.recorder {
            let clock = rec.clock();
            let start_ns = clock.instant_ns(exec_start);
            let dur_ns = clock.instant_ns(done).saturating_sub(start_ns);
            let submits = || batch.iter().map(|r| (r.key, clock.instant_ns(r.submitted)));
            for (key, submit_ns) in submits() {
                rec.record(
                    TraceEvent::new(TraceStage::Submit, self.index, submit_ns, 0).request(key),
                );
            }
            let trace = BatchTraceCtx {
                recorder: rec,
                replica: self.index,
                batch_index,
                mode,
            };
            trace.record_batch(start_ns, dur_ns, submits());
            trace.record_kernels(start_ns, dur_ns, &kernels);
        }
        let nanos = |d: Duration| d.as_nanos().min(u128::from(u64::MAX)) as u64;
        let service_ns = nanos(done.saturating_duration_since(exec_start));
        for (request, response) in batch.into_iter().zip(responses) {
            let wait_ns = nanos(exec_start.saturating_duration_since(request.submitted));
            metrics.record_stage_split(wait_ns, service_ns);
            metrics.record_latency(nanos(done.saturating_duration_since(request.submitted)));
            request.slot.complete(Ok(response));
        }
    }

    /// A crash kills the worker: it leaves the routing set *first*, so no
    /// submission races into a queue about to drain, closes admissions,
    /// then hands every orphan to a survivor through the shared
    /// [`pick_handoff_target`] rule — or sheds it (dropping the slot cancels
    /// the request, so no client ever hangs on a dead replica).
    fn crash(&self, batch_index: u64, out: &mut ReplicaOutcome) {
        let router = &self.router;
        router.alive[self.index].store(false, Ordering::Release);
        self.queue.close_admissions();
        out.metrics.record_crash();
        let mut cursor = (self.index + 1) % router.queues.len();
        for orphan in self.queue.drain_up_to(usize::MAX) {
            let states: Vec<(bool, usize)> = (0..router.queues.len())
                .map(|i| (router.eligible(i), router.queues[i].len()))
                .collect();
            let key = orphan.key;
            // A push that raced to a full or closed queue sheds too.
            let to_replica =
                pick_handoff_target(self.index, &mut cursor, &states, self.queue.capacity())
                    .filter(|&t| router.queues[t].try_push(orphan).is_ok());
            match to_replica {
                Some(_) => out.metrics.record_handoff(),
                None => out.metrics.record_handoff_shed(),
            }
            out.handoffs.push(HandoffRecord {
                from_replica: self.index,
                at_batch: batch_index,
                key,
                to_replica,
            });
        }
    }
}

/// A virtual-time submission the lockstep core has not admitted yet.
struct PendingSubmission {
    at_ns: u64,
    req: PooledRequest,
}

/// The lockstep pool's shared state: the scheduling core plus the timed
/// submissions it has not reached yet, under one mutex so each grant
/// commits atomically in virtual-time order.
struct GateState {
    core: SchedCore<PooledRequest>,
    /// Timed arrivals from [`ReplicaPool::submit_virtual`], ascending by
    /// `at_ns`; each is admitted once no launch precedes it.
    pending: VecDeque<PendingSubmission>,
    recorder: Option<Arc<TraceRecorder>>,
}

/// The coordinator of a [`PoolDriver::Lockstep`] pool. A worker asks for
/// its next batch and blocks until its replica owns the earliest launch
/// pool-wide; the core commits the launch under the lock and the worker
/// runs the GEMM outside it — so determinism costs no parallelism.
struct LockstepGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl LockstepGate {
    /// Blocks until replica `r` owns the earliest launch (ties break to the
    /// lowest replica index, as in the simulator), commits it, and returns
    /// the batch — or `None` when `r` has crashed or the pool has fully
    /// drained.
    fn acquire(&self, r: usize) -> Option<(Vec<Queued<PooledRequest>>, Launch)> {
        let mut guard = self.state.lock().expect("gate lock");
        loop {
            let state = &mut *guard;
            if state.core.is_crashed(r) {
                return None;
            }
            let rec = state.recorder.as_deref();
            let next = state.core.next_launch();
            // Timed arrivals at or before the next launch are admitted
            // first — the simulator's event interleaving.
            if state
                .pending
                .front()
                .is_some_and(|p| next.is_none_or(|(at, _)| p.at_ns <= at))
            {
                let sub = state.pending.pop_front().expect("front checked");
                let key = sub.req.key;
                // A shed request's dropped slot cancels its handle.
                let _ = state.core.admit(key, key, sub.at_ns, sub.req, rec);
                // Admission may change which replica owns the earliest
                // launch: wake everyone to recompute.
                self.cv.notify_all();
                continue;
            }
            match next {
                // Fully drained: release every parked worker so the pool
                // shuts down instead of deadlocking on the last notify.
                None => {
                    self.cv.notify_all();
                    return None;
                }
                Some((at, winner)) if winner == r => {
                    let mut batch = Vec::new();
                    let launch = state.core.launch(r, at, &mut batch, rec);
                    self.cv.notify_all();
                    return Some((batch, launch));
                }
                Some(_) => guard = self.cv.wait(guard).expect("gate lock"),
            }
        }
    }
}

/// The lockstep worker loop: the core already made every scheduling
/// decision; the worker only executes the granted batch and completes the
/// response slots. Logits are computed for real, so they are comparable to
/// the simulator's bit for bit; kernel spans are recorded outside the lock,
/// and the snapshot's canonical order makes their interleaving invisible.
fn lockstep_loop(
    index: usize,
    gate: &LockstepGate,
    sessions: &[Arc<Session>],
    ctx: &ExecContext,
    recorder: Option<&TraceRecorder>,
) -> ReplicaOutcome {
    while let Some((batch, launch)) = gate.acquire(index) {
        let inputs: Vec<&Tensor<f32>> = batch.iter().map(|q| &q.payload.input).collect();
        let mut kernels = Vec::new();
        let result =
            sessions[launch.mode].infer_batch_inner(ctx, &inputs, recorder.map(|_| &mut kernels));
        match result {
            Ok(responses) => {
                if let Some(rec) = recorder {
                    launch
                        .trace(rec)
                        .record_kernels(launch.launch_ns, launch.service_ns, &kernels);
                }
                for (q, response) in batch.into_iter().zip(responses) {
                    q.payload.slot.complete(Ok(response));
                }
            }
            Err(e) => {
                for q in batch {
                    q.payload.slot.complete(Err(e.clone()));
                }
            }
        }
    }
    ReplicaOutcome::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptivePolicy, BatchPolicy, SchedulerConfig, SmtConfig};
    use crate::control::{AutoscaleConfig, ControlConfig};
    use crate::faults::{FaultEvent, FaultKind};
    use crate::registry::ModelRegistry;
    use crate::sim::{simulate_pool, ArrivalProcess};
    use nbsmt_workloads::synthnet::quick_synthnet;

    fn ladder_fixture() -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(29).expect("training succeeds");
        let mut registry = ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 600)
            .unwrap();
        let ladder = registry
            .compile_ladder(
                "synthnet",
                &[
                    SmtConfig::Dense,
                    SmtConfig::sysmt_2t(),
                    SmtConfig::sysmt_4t(),
                ],
            )
            .unwrap();
        let (inputs, _) = trained.sample_requests(24, 601);
        (ladder, inputs)
    }

    fn scheduler(max_batch: usize, max_wait_ns: u64, queue_capacity: usize) -> SchedulerConfig {
        SchedulerConfig {
            batch: BatchPolicy {
                max_batch,
                max_wait_ns,
            },
            queue_capacity,
        }
    }

    fn pool_config(replicas: usize, route: RoutePolicy) -> PoolConfig {
        PoolConfig {
            replicas,
            route,
            scheduler: scheduler(4, 500_000, 64),
            adaptive: AdaptivePolicy::default(),
        }
    }

    /// `config` on the default service model, without faults or control.
    fn options(config: PoolConfig) -> PoolOptions {
        PoolOptions {
            config,
            ..PoolOptions::default()
        }
    }

    /// A paused pool over `options` that logs its batches.
    fn build(
        ladder: &[Arc<Session>],
        options: &PoolOptions,
        driver: PoolDriver,
    ) -> Result<ReplicaPool, ServeError> {
        ReplicaPool::new(
            ladder.to_vec(),
            options,
            ExecConfig::default(),
            driver,
            true,
        )
    }

    /// A paused, fault-free, free-running pool over `config`.
    fn paused(ladder: &[Arc<Session>], config: PoolConfig) -> ReplicaPool {
        build(ladder, &options(config), PoolDriver::FreeRunning).expect("config is valid")
    }

    #[test]
    fn pool_serves_across_replicas_end_to_end() {
        let (ladder, inputs) = ladder_fixture();
        let mut pool = paused(&ladder, pool_config(2, RoutePolicy::RoundRobin));
        pool.resume();
        assert_eq!(pool.replicas(), 2);
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        for handle in handles {
            let inference = handle.wait().expect("not cancelled").expect("no error");
            assert!(!inference.logits.is_empty());
        }
        let snapshot = pool.shutdown();
        assert_eq!(snapshot.total.completed, inputs.len() as u64);
        assert_eq!(snapshot.per_replica.len(), 2);
        let per_replica_total: u64 = snapshot.per_replica.iter().map(|m| m.completed).sum();
        assert_eq!(per_replica_total, snapshot.total.completed);
        // Round-robin splits 24 single-threaded submissions 12/12.
        assert!(snapshot.per_replica.iter().all(|m| m.completed == 12));
    }

    #[test]
    fn paused_pool_replays_batches_deterministically() {
        let (ladder, inputs) = ladder_fixture();
        let run = || {
            let mut pool = paused(&ladder, pool_config(2, RoutePolicy::Hashed));
            let client = pool.client();
            let handles: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
                .collect();
            pool.resume();
            for handle in handles {
                let _ = handle.wait().expect("completes");
            }
            pool.shutdown()
        };
        let a = run();
        let b = run();
        let key = |s: &PoolSnapshot| {
            (
                s.batch_log.clone(),
                s.transitions.clone(),
                s.total.completed,
                s.total.batches_per_mode.clone(),
            )
        };
        assert_eq!(key(&a), key(&b));
        assert!(!a.batch_log.is_empty());
        // Every batch ran at 4 or fewer requests and modes stay on-ladder.
        for batch in &a.batch_log {
            assert!(batch.keys.len() <= 4);
            assert!(batch.mode < 3);
        }
    }

    #[test]
    fn least_outstanding_balances_and_full_queue_sheds() {
        let (ladder, inputs) = ladder_fixture();
        let config = PoolConfig {
            scheduler: scheduler(2, 0, 2),
            ..pool_config(2, RoutePolicy::LeastOutstanding)
        };
        let mut pool = paused(&ladder, config);
        let client = pool.client();
        let mut accepted = Vec::new();
        let mut rejected = 0u64;
        // Paused pool: 2 replicas × capacity 2 admit exactly 4; the rest
        // shed with the typed error.
        for (i, input) in inputs.iter().enumerate() {
            match client.submit(i as u64, input.clone()) {
                Ok(h) => accepted.push(h),
                Err(SubmitError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(SubmitError::Closed) => unreachable!("pool is open"),
            }
        }
        assert_eq!(accepted.len(), 4);
        assert_eq!(pool.queue_depths(), vec![2, 2], "LO must balance exactly");
        pool.resume();
        for handle in accepted {
            let _ = handle.wait().expect("accepted requests complete");
        }
        let snapshot = pool.shutdown();
        assert_eq!(snapshot.total.completed, 4);
        assert_eq!(snapshot.total.rejected, rejected);
    }

    #[test]
    fn adaptive_pool_escalates_under_burst() {
        let (ladder, inputs) = ladder_fixture();
        let config = PoolConfig {
            replicas: 1,
            route: RoutePolicy::RoundRobin,
            scheduler: scheduler(2, 0, 64),
            adaptive: AdaptivePolicy {
                depth_high: 4,
                depth_low: 0,
                p95_high_ns: 0,
                eval_every_batches: 1,
            },
        };
        let mut pool = paused(&ladder, config);
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        pool.resume();
        for handle in handles {
            let _ = handle.wait().expect("completes");
        }
        let snapshot = pool.shutdown();
        // 24 queued requests drain in 12 batches of 2; depth stays ≥ 4 for
        // the early batches, so the ladder must have been climbed.
        assert!(
            snapshot.total.mode_transitions > 0,
            "burst must trigger escalation"
        );
        assert!(snapshot.transitions[0].to > snapshot.transitions[0].from);
        assert!(
            snapshot.total.batches_per_mode.len() > 1,
            "batches must have run at more than one rung: {:?}",
            snapshot.total.batches_per_mode
        );
    }

    #[test]
    fn empty_ladder_is_rejected() {
        assert!(matches!(
            build(&[], &PoolOptions::default(), PoolDriver::FreeRunning),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn ladder_rungs_must_share_one_input_shape() {
        let trained = quick_synthnet(29).expect("training succeeds");
        let (s, calib) = (trained.task.image_size, trained.calibration_inputs(8, 600));
        let mut registry = ModelRegistry::new();
        for (name, side) in [("narrow", s), ("wide", s + 4)] {
            let calib = std::slice::from_ref(&calib);
            registry
                .register(name, &trained.model, calib, [1, side, side])
                .unwrap();
        }
        let ladder =
            ["narrow", "wide"].map(|name| registry.compile(name, SmtConfig::Dense).unwrap());
        let (inputs, _) = trained.sample_requests(1, 601);
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0],
        };
        let options = PoolOptions::default();
        for refused in [
            build(&ladder, &options, PoolDriver::FreeRunning).map(|_| ()),
            build(&ladder, &options, PoolDriver::Lockstep).map(|_| ()),
            simulate_pool(&ladder, None, &inputs, &arrivals, &options, None).map(|_| ()),
        ] {
            assert!(
                matches!(&refused, Err(ServeError::BadRequest(m)) if m.contains("input shapes")),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_spawning() {
        let (ladder, inputs) = ladder_fixture();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0],
        };
        // One options value through the simulator and the lockstep pool:
        // both refuse it with the same typed error.
        let both_refuse = |options: &PoolOptions, expected: ConfigError| {
            let sim = simulate_pool(&ladder, None, &inputs, &arrivals, options, None);
            assert_eq!(sim.map(|_| ()), Err(ServeError::Config(expected)));
            let pool = build(&ladder, options, PoolDriver::Lockstep).map(|_| ());
            assert_eq!(pool, Err(ServeError::Config(expected)));
        };
        let zero_batch = options(PoolConfig {
            scheduler: scheduler(0, 0, 8),
            ..pool_config(1, RoutePolicy::RoundRobin)
        });
        both_refuse(&zero_batch, ConfigError::ZeroBatch);
        // An autoscale floor above the pool's replica count.
        let floor_too_high = PoolOptions {
            control: Some(ControlConfig {
                autoscale: Some(AutoscaleConfig {
                    min_replicas: 3,
                    max_replicas: 3,
                    util_high_x1024: 700,
                    util_low_x1024: 200,
                }),
                ..ControlConfig::default()
            }),
            ..options(pool_config(2, RoutePolicy::RoundRobin))
        };
        let inverted = ConfigError::InvertedReplicaBounds { min: 3, max: 2 };
        both_refuse(&floor_too_high, inverted);
        // A valid controller on a free-running pool: refused by the
        // constructor, which spawns no worker (only `resume` does).
        let controlled = PoolOptions {
            control: Some(ControlConfig::default()),
            ..floor_too_high
        };
        let pool = build(&ladder, &controlled, PoolDriver::FreeRunning).map(|_| ());
        let refused = ConfigError::ControllerNeedsLockstep;
        assert_eq!(pool, Err(ServeError::Config(refused)));
    }

    #[test]
    fn malformed_request_fails_alone() {
        let (ladder, inputs) = ladder_fixture();
        let bad = Tensor::<f32>::zeros(&[5]);
        let options = options(PoolConfig {
            scheduler: scheduler(4, 1_000_000, 8),
            adaptive: AdaptivePolicy::pinned(),
            ..pool_config(1, RoutePolicy::RoundRobin)
        });
        // Four good requests, with or without a malformed one submitted
        // among them, on both drivers and both submit paths.
        let run = |driver: PoolDriver, virtual_time: bool, with_bad: bool| {
            let mut pool = build(&ladder, &options, driver).expect("config is valid");
            let client = pool.client();
            let submit = |key: u64, input: &Tensor<f32>| {
                if virtual_time {
                    pool.submit_virtual(0, key, input.clone())
                } else {
                    client.submit(key, input.clone())
                }
                .expect("room")
            };
            let mut handles: Vec<_> = (0..3).map(|i| submit(i, &inputs[i as usize])).collect();
            let malformed = with_bad.then(|| submit(99, &bad));
            // Submitted after the malformed one: still routed as usual.
            handles.push(submit(3, &inputs[3]));
            pool.resume();
            if let Some(handle) = malformed {
                match handle.wait().expect("answered, not cancelled") {
                    Err(ServeError::BadRequest(m)) => assert!(m.contains("[5]"), "{m}"),
                    other => panic!("a malformed request must fail: {other:?}"),
                }
            }
            let logit_bits = |r: Inference| r.logits.iter().map(|v| v.to_bits()).collect();
            let results: Vec<Result<Vec<u32>, ServeError>> = handles
                .into_iter()
                .map(|h| h.wait().expect("not cancelled").map(logit_bits))
                .collect();
            let snapshot = pool.shutdown();
            let counts = (snapshot.total.completed, snapshot.total.batches);
            (results, counts, snapshot.batch_log)
        };
        for (driver, virtual_time) in [
            (PoolDriver::FreeRunning, false),
            (PoolDriver::Lockstep, false),
            (PoolDriver::Lockstep, true),
        ] {
            let label = format!("{driver:?}, virtual {virtual_time}");
            let clean = run(driver, virtual_time, false);
            assert!(clean.0.iter().all(Result::is_ok), "{label}");
            assert_eq!(clean.1, (4, 1), "{label}: one full batch");
            assert_eq!(run(driver, virtual_time, true), clean, "{label}");
        }
    }

    #[test]
    fn crash_plan_sheds_orphans_and_cancels_handles() {
        let (ladder, inputs) = ladder_fixture();
        // The only replica dies after its second batch; with no survivor,
        // everything still queued must shed by cancelling its handle — no
        // caller hangs.
        let plan = FaultPlan::from_events(vec![FaultEvent {
            replica: 0,
            at_batch: 2,
            kind: FaultKind::Crash,
        }]);
        let options = PoolOptions {
            faults: plan,
            ..options(PoolConfig {
                scheduler: scheduler(2, 1_000_000, 32),
                adaptive: AdaptivePolicy::pinned(),
                ..pool_config(1, RoutePolicy::RoundRobin)
            })
        };
        let mut pool = build(&ladder, &options, PoolDriver::FreeRunning).expect("config is valid");
        pool.resume();
        let client = pool.client();
        let handles: Vec<_> = inputs[..16]
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for handle in handles {
            match handle.wait() {
                Ok(result) => {
                    result.expect("no model error");
                    completed += 1;
                }
                Err(_) => cancelled += 1,
            }
        }
        let snapshot = pool.shutdown();
        assert_eq!(snapshot.total.crashes, 1, "the planned crash fires once");
        assert_eq!(snapshot.total.completed, completed);
        assert_eq!(snapshot.total.handoff_shed, cancelled, "every orphan sheds");
        assert_eq!(completed + cancelled, 16, "no request is lost track of");
        assert!(
            completed >= 2,
            "both pre-crash batches complete (got {completed})"
        );
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let (ladder, inputs) = ladder_fixture();
        let mut pool = paused(&ladder, pool_config(1, RoutePolicy::RoundRobin));
        pool.resume();
        let client = pool.client();
        let _ = pool.shutdown();
        assert_eq!(
            client.submit(0, inputs[0].clone()).map(|_| ()),
            Err(SubmitError::Closed)
        );
    }
}
