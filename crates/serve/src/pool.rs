//! Multi-replica sharded serving: a deterministic router in front of N
//! replica workers, each with its own [`ExecContext`] and an SLO-aware
//! [`crate::config::AdaptiveState`] that walks the session ladder (dense →
//! 2T → 4T) under pressure. A one-replica pool with
//! [`crate::config::AdaptivePolicy::pinned`] is the single-session server.
//!
//! The pool is the threaded driver of the scheduling core (`sched`) that
//! [`crate::sim::simulate_pool`] drives on a virtual clock, and both take
//! the same [`PoolOptions`] value. The core, behind one mutex, holds every
//! queue, routes every submission, forms every batch, walks every ladder,
//! applies every fault and keeps every counter; a worker only executes the
//! batches it is granted, outside the lock, and answers their requests.
//!
//! [`ReplicaPool::new`] builds the pool paused; [`ReplicaPool::resume`]
//! starts one worker per replica. [`PoolDriver`] picks the clock the core
//! runs on:
//!
//! - **Free-running** ([`PoolDriver::FreeRunning`]): the wall clock. Each
//!   replica launches on its own schedule — a full batch at once, a partial
//!   batch once its oldest request has waited `max_wait`, nothing before
//!   the replica is free — and completes the batch with the times its
//!   worker measured. Latencies, the stage split and the p95 adaptive
//!   trigger are wall-clock, so their *timing* is outside the lockstep
//!   contract; a [`crate::faults::FaultPlan`] applies for real: stalls and
//!   straggle padding delay the replica in real time, and a crash hands its
//!   queue to the survivors. This is the pool live clients and the
//!   availability bench drive.
//! - **Lockstep** ([`PoolDriver::Lockstep`]): the simulator's virtual clock
//!   ([`crate::sim::ServiceModel`]). Workers are granted launches in the
//!   simulator's event order, each completed at its virtual finish time as
//!   it is granted, while the GEMMs still execute on real threads in
//!   parallel.
//!   Batch compositions, modes, transitions, fault schedules, crash
//!   handoffs, controller decisions, every quantile of the latency
//!   histogram, traces and logits replay bit-identically against
//!   [`crate::sim::simulate_pool`] with the same options — for every host
//!   thread count and GEMM backend. Only this driver runs a pool
//!   controller.
//!
//! Routing is decided at submission time from the submission sequence and
//! the per-replica queue depths alone, so a single-threaded submitter drives
//! all four policies deterministically: a burst submitted to a paused pool
//! forms the simulator's batches under either driver. A request whose shape
//! does not fit the ladder is answered with its own [`ServeError::BadRequest`]
//! at submit and never reaches a queue, so it cannot fail the batch it
//! would have joined.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{
    ConfigError, ModeTransition, PoolConfig, PoolOptions, ServeError, SubmitError,
};
use crate::control::ControlEvent;
use crate::faults::HandoffRecord;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::queue::{response_channel, ResponseHandle, ResponseSlot};
use crate::sched::{check_ladder, Launch, Queued, SchedCore};
use crate::session::{Inference, Session};
use crate::trace::{Clock, TraceRecorder};

/// Result delivered to each request's [`ResponseHandle`].
pub type RequestResult = Result<Inference, ServeError>;

/// What a queued request carries to the worker that executes it.
struct PooledRequest {
    input: Tensor<f32>,
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
    /// hit [`crate::config::BATCH_LOG_CAP`] — the log is constant-memory,
    /// this counter closes the accounting (mirrors
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
    /// Total live-replica nanoseconds: `replicas × wall elapsed` (from the
    /// first resume to the last worker's exit) for free-running pools,
    /// virtual (`replicas × makespan`, or the controller's event-log
    /// integral) in lockstep mode — mirrors
    /// [`crate::sim::PoolSimOutcome::replica_ns`].
    pub replica_ns: u64,
}

/// Cheap cloneable submission handle onto a [`ReplicaPool`].
#[derive(Clone)]
pub struct PoolClient {
    gate: Arc<Gate>,
}

impl PoolClient {
    /// Routes and submits one request. `key` identifies the request: it is
    /// the hash input for [`crate::config::RoutePolicy::Hashed`], and the
    /// identity under which the batch log reports the request. An `input`
    /// whose shape the ladder does not take is not routed: its handle comes
    /// back already answered with [`ServeError::BadRequest`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the routed replica's queue is at
    /// capacity (the router does not fail over — a deterministic router
    /// must not let load silently leak across replicas), and
    /// [`SubmitError::Closed`] once admissions closed (shutdown for a
    /// free-running pool, resume for a lockstep one) or when every replica
    /// is crashed or has closed admissions (only possible under fault
    /// injection; not counted as an admission-control rejection).
    pub fn submit(
        &self,
        key: u64,
        input: Tensor<f32>,
    ) -> Result<ResponseHandle<RequestResult>, SubmitError> {
        if let Some(handle) = self.gate.malformed(&input) {
            return Ok(handle);
        }
        let (slot, handle) = response_channel();
        let mut guard = self.gate.lock();
        let state = &mut *guard;
        if !state.open {
            return Err(SubmitError::Closed);
        }
        let at_ns = state.clock.now_ns();
        let request = PooledRequest { input, slot };
        let rec = state.recorder.as_deref();
        let replica = state.core.admit(key, key, at_ns, request, rec)?;
        drop(guard);
        self.gate.wake[replica].notify_one();
        Ok(handle)
    }
}

/// How a [`ReplicaPool`]'s scheduling core keeps time (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolDriver {
    /// The wall clock: each replica launches on its own schedule and
    /// applies its slice of the fault plan for real.
    FreeRunning,
    /// The simulator's virtual clock: launches are granted in the
    /// simulator's event order.
    Lockstep,
}

/// A running sharded serving instance: router → N replica workers, each
/// executing batches against the shared session ladder at its own adaptive
/// mode.
pub struct ReplicaPool {
    gate: Arc<Gate>,
    sessions: Arc<Vec<Arc<Session>>>,
    exec: ExecConfig,
    workers: Vec<JoinHandle<()>>,
    /// When [`Self::resume`] spawned the workers: the start of the
    /// wall-clock window [`Self::shutdown`] reports.
    started: Option<Instant>,
}

impl ReplicaPool {
    /// Builds a pool over `sessions` (the adaptive ladder, rung 0 first —
    /// typically dense → 2T → 4T; a single-session ladder never switches)
    /// that admits submissions but has **no workers running**: submissions
    /// queue until [`Self::resume`] spawns the workers. Each replica builds
    /// its own [`ExecContext`] from `exec`.
    ///
    /// `options` is the value [`crate::sim::simulate_pool`] takes, and
    /// `driver` picks the clock the scheduling core runs it on (see the
    /// module docs): [`PoolDriver::FreeRunning`] applies the fault plan in
    /// real time and pads stragglers with the service model's cost, while
    /// [`PoolDriver::Lockstep`] runs the service model as the clock.
    /// `record_log` captures the per-batch composition log, capped at
    /// [`crate::config::BATCH_LOG_CAP`] entries with the overflow counted in
    /// [`PoolSnapshot::dropped_batches`].
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
        let clock = match driver {
            PoolDriver::FreeRunning if options.control.is_some() => {
                return Err(ConfigError::ControllerNeedsLockstep.into());
            }
            PoolDriver::FreeRunning => Clock::wall(),
            PoolDriver::Lockstep => Clock::virtual_clock(),
        };
        let capacity = config.scheduler.queue_capacity;
        let core = SchedCore::new(&sessions, options, capacity, record_log)?;
        let gate = Gate {
            state: Mutex::new(GateState {
                core,
                clock,
                open: true,
                pending: VecDeque::new(),
                recorder: None,
            }),
            wake: (0..config.replicas).map(|_| Condvar::new()).collect(),
            rung0: Arc::clone(&sessions[0]),
        };
        Ok(ReplicaPool {
            gate: Arc::new(gate),
            sessions: Arc::new(sessions),
            exec,
            workers: Vec::new(),
            started: None,
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

    /// Attaches a shared [`TraceRecorder`] — call after [`Self::new`] and
    /// before the first submission. Every executed batch then leaves the
    /// full span chain (submit, queue-wait, batch, per-layer kernels,
    /// service, respond). In lockstep mode the recorder must hold a virtual
    /// [`crate::trace::Clock`] and the emitted trace is byte-identical to
    /// [`crate::sim::simulate_pool`]'s on the same burst; a free-running
    /// pool adopts the recorder's wall clock and emits the same schema on
    /// it.
    pub fn set_recorder(&mut self, recorder: Arc<TraceRecorder>) {
        let mut state = self.gate.lock();
        if !state.clock.is_virtual() && !recorder.clock().is_virtual() {
            state.clock = *recorder.clock();
        }
        state.recorder = Some(recorder);
    }

    /// Spawns the replica workers (idempotent). In lockstep mode this is
    /// the burst boundary: admissions close, so late submissions get
    /// [`SubmitError::Closed`] — exactly the "all requests precede the
    /// first launch" precondition of the determinism contract.
    pub fn resume(&mut self) {
        if self.started.is_some() {
            return;
        }
        self.started = Some(Instant::now());
        let recorder = {
            let mut state = self.gate.lock();
            if state.clock.is_virtual() {
                state.open = false;
            }
            state.recorder.clone()
        };
        self.workers = (0..self.replicas())
            .map(|index| {
                let gate = Arc::clone(&self.gate);
                let sessions = Arc::clone(&self.sessions);
                let recorder = recorder.clone();
                let exec = self.exec;
                std::thread::Builder::new()
                    .name(format!("nbsmt-pool-{index}"))
                    .spawn(move || {
                        let ctx = ExecContext::new(exec);
                        serve(index, &gate, &sessions, &ctx, recorder.as_deref());
                    })
                    .expect("spawning a replica worker succeeds")
            })
            .collect();
    }

    /// Number of replica workers.
    pub fn replicas(&self) -> usize {
        self.gate.wake.len()
    }

    /// A new submission handle.
    pub fn client(&self) -> PoolClient {
        PoolClient {
            gate: Arc::clone(&self.gate),
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
        let mut state = self.gate.lock();
        if !state.clock.is_virtual()
            || !state.open
            || state.pending.back().is_some_and(|p| p.at_ns > at_ns)
        {
            return Err(SubmitError::Closed);
        }
        if let Some(handle) = self.gate.malformed(&input) {
            return Ok(handle);
        }
        let (slot, handle) = response_channel();
        state.pending.push_back(PendingSubmission {
            at_ns,
            key,
            request: PooledRequest { input, slot },
        });
        Ok(handle)
    }

    /// Current per-replica queue depths (approximate under concurrency).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.gate.lock().core.queue_depths()
    }

    /// Stops accepting work, drains every queue, joins the workers, and
    /// returns the final pool snapshot. A pool shut down while paused
    /// resumes first so queued work still completes. The wall-clock window
    /// (`elapsed_ns`, and a free-running pool's `replica_ns`) runs from the
    /// first [`Self::resume`] until the last worker has exited, so it holds
    /// no paused time and the whole drain.
    pub fn shutdown(mut self) -> PoolSnapshot {
        self.resume();
        self.gate.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("replica worker exits cleanly");
        }
        let elapsed = self
            .started
            .expect("resume() started the clock")
            .elapsed()
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        let (out, wall) = {
            let mut state = self.gate.lock();
            (state.core.finish(), !state.clock.is_virtual())
        };
        let mut total = ServeMetrics::new();
        for replica in &out.metrics {
            total.merge(replica);
        }
        let mut batch_log: Vec<PoolBatchLog> = out
            .batches
            .into_iter()
            .map(|b| PoolBatchLog {
                replica: b.replica,
                mode: b.mode,
                keys: b.request_ids,
                queue_depth_after: b.queue_depth_after,
            })
            .collect();
        let mut replica_ns = out.replica_ns;
        if wall {
            // Free-running replicas launch independently, so the log reads
            // per replica, and the cost is the wall-clock window's.
            batch_log.sort_by_key(|b| b.replica);
            replica_ns = (out.metrics.len() as u64).saturating_mul(elapsed);
        }
        PoolSnapshot {
            total: total.snapshot(elapsed),
            per_replica: out.metrics.iter().map(|m| m.snapshot(elapsed)).collect(),
            transitions: out.transitions,
            batch_log,
            handoffs: out.handoffs,
            dropped_batches: out.dropped_batches,
            dropped_transitions: out.dropped_transitions,
            control_events: out.control_events,
            dropped_control_events: out.dropped_control_events,
            replica_ns,
        }
    }
}

impl Drop for ReplicaPool {
    fn drop(&mut self) {
        self.gate.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A virtual-time submission the lockstep core has not admitted yet.
struct PendingSubmission {
    at_ns: u64,
    key: u64,
    request: PooledRequest,
}

/// The pool's shared state, under one mutex so every scheduling decision
/// commits atomically.
struct GateState {
    core: SchedCore<PooledRequest>,
    /// The core's clock: virtual for a lockstep pool; the wall clock — the
    /// recorder's, once one is attached — for a free-running pool.
    clock: Clock,
    /// Whether submissions are admitted: a lockstep pool closes at
    /// [`ReplicaPool::resume`], a free-running one at shutdown.
    open: bool,
    /// Timed arrivals from [`ReplicaPool::submit_virtual`], ascending by
    /// `at_ns`; each is admitted once no launch precedes it.
    pending: VecDeque<PendingSubmission>,
    recorder: Option<Arc<TraceRecorder>>,
}

/// Where every worker takes its next batch. The core commits each launch
/// under the lock and the worker runs the GEMM outside it, so one lock
/// costs no parallelism.
struct Gate {
    state: Mutex<GateState>,
    /// One condvar per replica, so a submission wakes only the worker it
    /// was routed to.
    wake: Vec<Condvar>,
    /// Ladder rung 0, whose [`Session::validate_input`] checks every
    /// submission: the constructor made every rung take its input shape.
    rung0: Arc<Session>,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().expect("gate lock")
    }

    fn wake_all(&self) {
        for wake in &self.wake {
            wake.notify_all();
        }
    }

    /// A handle already answered with the shape error when `input` does not
    /// fit the ladder, so a malformed request never enters a queue (nor
    /// fails the batch it would have joined).
    fn malformed(&self, input: &Tensor<f32>) -> Option<ResponseHandle<RequestResult>> {
        let error = self.rung0.validate_input(input).err()?;
        let (slot, handle) = response_channel();
        slot.complete(Err(error));
        Some(handle)
    }

    /// Closes admissions and wakes every worker to drain and exit. On the
    /// wall clock no request can join a partial batch any more, so none
    /// waits out its budget.
    fn close(&self) {
        let mut state = self.lock();
        state.open = false;
        if !state.clock.is_virtual() {
            state.core.flush();
        }
        drop(state);
        self.wake_all();
    }

    /// Blocks until replica `r` may launch, commits the launch and returns
    /// the batch — or `None` once `r` has crashed, or admissions closed and
    /// every queue drained. On a virtual clock `r` waits until it owns the
    /// earliest launch pool-wide (ties break to the lowest replica, as in
    /// the simulator), timed arrivals before that launch are admitted first,
    /// and the launch completes at its virtual finish time right here. On
    /// the wall clock `r` waits for its own [`SchedCore::launch_at`] and
    /// [`Self::release`] completes the batch after its GEMM.
    fn acquire(&self, r: usize) -> Option<(Vec<Queued<PooledRequest>>, Launch)> {
        let mut guard = self.lock();
        loop {
            let state = &mut *guard;
            if state.core.is_crashed(r) {
                return None;
            }
            let rec = state.recorder.as_deref();
            let next = state.core.next_launch();
            if state
                .pending
                .front()
                .is_some_and(|p| next.is_none_or(|(at, _)| p.at_ns <= at))
            {
                let sub = state.pending.pop_front().expect("front checked");
                // A shed request's dropped slot cancels its handle.
                let admitted = state
                    .core
                    .admit(sub.key, sub.key, sub.at_ns, sub.request, rec);
                if admitted == Err(SubmitError::Closed) {
                    state.core.reject_unrouted();
                }
                // Admission may change which replica owns the earliest
                // launch: wake everyone to recompute.
                self.wake_all();
                continue;
            }
            if next.is_none() && !state.open {
                self.wake_all();
                return None;
            }
            let mut batch = Vec::new();
            let timeout = if state.clock.is_virtual() {
                match next {
                    Some((at, winner)) if winner == r => {
                        let launch = state.core.launch(r, at, &mut batch);
                        state.core.complete(&launch, &batch, rec);
                        self.wake_all();
                        return Some((batch, launch));
                    }
                    _ => None,
                }
            } else {
                let now = state.clock.now_ns();
                match state.core.launch_at(r) {
                    Some(at) if at <= now => {
                        let launch = state.core.launch(r, now, &mut batch);
                        return Some((batch, launch));
                    }
                    at => at.map(|at| Duration::from_nanos(at - now)),
                }
            };
            guard = match timeout {
                None => self.wake[r].wait(guard).expect("gate lock"),
                Some(timeout) => {
                    self.wake[r]
                        .wait_timeout(guard, timeout)
                        .expect("gate lock")
                        .0
                }
            };
        }
    }

    /// Completes a wall-clock batch with the times its worker measured and
    /// returns the launch as measured; a virtual-clock launch completed when
    /// it was granted.
    fn release(
        &self,
        launch: Launch,
        batch: &[Queued<PooledRequest>],
        started: Instant,
        done: Instant,
    ) -> Launch {
        let mut guard = self.lock();
        let state = &mut *guard;
        if state.clock.is_virtual() {
            return launch;
        }
        let launch = launch.measured(
            state.clock.instant_ns(started),
            state.clock.instant_ns(done),
        );
        state
            .core
            .complete(&launch, batch, state.recorder.as_deref());
        // A crash hands the queue to the survivors; after close, the last
        // batch releases every parked worker.
        let wake_all = !state.open || state.core.is_crashed(launch.replica);
        drop(guard);
        if wake_all {
            self.wake_all();
        }
        launch
    }
}

/// Replica `r`'s worker: executes every batch the gate grants it, outside
/// the lock, and answers its requests. Logits are computed for real, so
/// they are comparable to the simulator's bit for bit; kernel spans are
/// recorded outside the lock, and the snapshot's canonical order makes
/// their interleaving invisible. A failing batch answers each of its
/// requests with the error.
fn serve(
    r: usize,
    gate: &Gate,
    sessions: &[Arc<Session>],
    ctx: &ExecContext,
    recorder: Option<&TraceRecorder>,
) {
    while let Some((batch, launch)) = gate.acquire(r) {
        let inputs: Vec<&Tensor<f32>> = batch.iter().map(|q| &q.payload.input).collect();
        let mut kernels = Vec::new();
        let started = Instant::now();
        let result =
            sessions[launch.mode].infer_batch_inner(ctx, &inputs, recorder.map(|_| &mut kernels));
        let launch = gate.release(launch, &batch, started, Instant::now());
        match result {
            Ok(responses) => {
                if let Some(rec) = recorder {
                    launch.record_kernels(rec, &kernels);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AdaptivePolicy, BatchPolicy, RoutePolicy, SchedulerConfig, SmtConfig};
    use crate::control::ControlConfig;
    use crate::faults::{FaultEvent, FaultKind, FaultPlan};
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
        for driver in [PoolDriver::FreeRunning, PoolDriver::Lockstep] {
            let mut pool = build(&ladder, &options(config), driver).expect("config is valid");
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
    }

    #[test]
    fn wall_clock_partial_batch_waits_out_max_wait_and_full_batch_launches_at_once() {
        let (ladder, inputs) = ladder_fixture();
        let max_wait = Duration::from_millis(50);
        let config = PoolConfig {
            scheduler: scheduler(4, max_wait.as_nanos() as u64, 8),
            adaptive: AdaptivePolicy::pinned(),
            ..pool_config(1, RoutePolicy::RoundRobin)
        };
        // A lone request on a running pool launches only once its wait
        // budget is spent.
        let mut pool = paused(&ladder, config);
        pool.resume();
        let submitted = Instant::now();
        let handle = pool.client().submit(0, inputs[0].clone()).expect("room");
        handle.wait().expect("not cancelled").expect("no error");
        assert!(
            submitted.elapsed() >= max_wait,
            "answered after {:?}, before the {max_wait:?} budget",
            submitted.elapsed()
        );
        let lone = pool.shutdown();
        assert_eq!(lone.batch_log.len(), 1);
        assert_eq!(lone.batch_log[0].keys, vec![0]);
        assert!(lone.total.p50_ns >= max_wait.as_nanos() as u64);

        // Four requests queued while paused fill one batch, which launches
        // on resume together.
        let mut pool = paused(&ladder, config);
        let client = pool.client();
        let handles: Vec<_> = (0..4)
            .map(|i| client.submit(i, inputs[i as usize].clone()).expect("room"))
            .collect();
        pool.resume();
        for handle in handles {
            handle.wait().expect("not cancelled").expect("no error");
        }
        let full = pool.shutdown();
        assert_eq!(full.batch_log.len(), 1);
        assert_eq!(full.batch_log[0].keys, vec![0, 1, 2, 3]);
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
        // A controller whose rate estimator has no window.
        let control = ControlConfig {
            window_ns: 0,
            autoscale: true,
            steal: true,
        };
        let no_window = PoolOptions {
            control: Some(control),
            ..options(pool_config(2, RoutePolicy::RoundRobin))
        };
        both_refuse(&no_window, ConfigError::ZeroControlWindow);
        // A valid controller on a free-running pool: refused by the
        // constructor, which spawns no worker (only `resume` does).
        let controlled = PoolOptions {
            control: Some(ControlConfig {
                window_ns: 4_000_000,
                ..control
            }),
            ..no_window
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

    #[test]
    fn wall_clock_window_skips_the_pause_and_covers_the_drain() {
        let (ladder, inputs) = ladder_fixture();
        let config = PoolConfig {
            adaptive: AdaptivePolicy::pinned(),
            ..pool_config(1, RoutePolicy::RoundRobin)
        };
        let pool = paused(&ladder[..1], config);
        std::thread::sleep(Duration::from_millis(300));
        let client = pool.client();
        let handles: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| client.submit(i as u64, input.clone()).expect("room"))
            .collect();
        // The whole burst is still queued: shutdown resumes, drains and
        // joins, and the reported window is that span alone.
        let called = Instant::now();
        let snapshot = pool.shutdown();
        let wall = called.elapsed().as_nanos() as u64;
        for handle in handles {
            handle.wait().expect("not cancelled").expect("no error");
        }
        assert_eq!(snapshot.total.completed, inputs.len() as u64);
        let elapsed = snapshot.total.elapsed_ns;
        assert!(
            elapsed <= wall,
            "window {elapsed} ns counts more than the {wall} ns shutdown took"
        );
        assert!(
            2 * elapsed >= wall,
            "window {elapsed} ns misses most of the {wall} ns drain"
        );
        assert_eq!(snapshot.replica_ns, elapsed, "one replica for the window");
    }
}
