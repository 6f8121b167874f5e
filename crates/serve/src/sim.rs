//! Deterministic virtual-clock pool simulator.
//!
//! Drives the `sched` scheduling core — routing, bounded-queue
//! admission, `max_batch`/`max_wait` coalescing, the adaptive ladder,
//! faults, and the pool controller — as a discrete-event simulation over
//! integer nanoseconds. The model outputs are computed for real on an
//! [`ExecContext`] (bit-identical across host thread counts by the
//! execution layer's contract), while *time* comes from a [`ServiceModel`]
//! instead of the wall clock, so two runs of the same seeded trace produce
//! identical batch compositions, latencies, and metrics — on any machine,
//! at any host thread count. The lockstep [`crate::pool::ReplicaPool`]
//! drives the same core, which is what makes the two agree.
//!
//! Three arrival models are supported, matching the `nbsmt-bench` load
//! generator: **open loop** (a pre-generated arrival trace, e.g. Poisson),
//! **closed loop** (N clients that submit, wait for the response, think,
//! and submit again — arrivals emerge from completions), and **generated**
//! (a lazy, seeded [`TrafficModel`] stream — bursty MMPP, diurnal
//! envelopes, per-user sessions — that never materializes the trace, so
//! 10^6–10^7-request runs stay constant-memory; [`simulate_pool`] without
//! an [`ExecContext`] is the matching constant-memory outcome path).

use std::borrow::Borrow;
use std::collections::VecDeque;

use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;
use nbsmt_tensor::validate::Validate;

use crate::config::{
    ModeTransition, PoolConfig, PoolOptions, ServeError, REJECTION_LOG_CAP, RESPONSE_LOG_CAP,
};
use crate::control::ControlEvent;
use crate::faults::{FaultPlan, HandoffRecord};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::sched::{check_ladder, SchedCore};
use crate::session::{Inference, Session};
use crate::trace::TraceRecorder;
use crate::traffic::{GeneratedArrivals, SizeModel, TrafficModel};

/// Deterministic service-time model for the virtual clock.
///
/// A batch of `B` requests costs
/// `batch_overhead_ns + B * macs_per_sample * ns_per_mac_x1024 / 1024 /
/// speedup` nanoseconds, where `speedup` is the session's SMT design-point
/// speedup (1 for dense, T for a T-threaded SySMT). All integer arithmetic —
/// no floats, no platform-dependent rounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Nanoseconds per dense MAC, scaled by 1024 (1024 = 1 ns/MAC).
    pub ns_per_mac_x1024: u64,
    /// Fixed per-batch launch cost in nanoseconds.
    pub batch_overhead_ns: u64,
    /// Per-request work multiplier keyed by router key. [`SizeModel::Unit`]
    /// (the default) reproduces the historical uniform-size arithmetic
    /// bit-exactly; a bounded-Pareto model makes service time scale with
    /// heterogeneous request MACs.
    pub size: SizeModel,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            // 2 ns per dense MAC (0.5 GMAC/s): a deliberately modest host
            // so quick-scale sweeps show real queueing behaviour.
            ns_per_mac_x1024: 2048,
            batch_overhead_ns: 20_000,
            size: SizeModel::Unit,
        }
    }
}

/// What the service model needs to know about one ladder rung.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RungCost {
    macs_per_sample: u64,
    speedup: u64,
}

impl RungCost {
    pub(crate) fn of(session: &Session) -> RungCost {
        RungCost {
            macs_per_sample: session.macs_per_sample(),
            speedup: session.smt().speedup(),
        }
    }
}

impl ServiceModel {
    /// Virtual service time of a batch of `batch` unit-size requests on
    /// `session` (the historical model; ignores [`ServiceModel::size`]).
    pub fn service_ns(&self, session: &Session, batch: usize) -> u64 {
        let macs = session.macs_per_sample() as u128 * batch as u128;
        let work = macs * self.ns_per_mac_x1024 as u128 / 1024 / session.smt().speedup() as u128;
        self.batch_overhead_ns + work.min(u128::from(u64::MAX)) as u64
    }

    /// Virtual service time of a batch whose requests carry the given
    /// router keys, with each request's MACs scaled by
    /// [`ServiceModel::size`]. For [`SizeModel::Unit`] every key weighs
    /// 1024/1024 and the result is bit-identical to
    /// [`ServiceModel::service_ns`] of the same batch length — the first
    /// `/ 1024` is exact — so unit-size runs are unchanged by construction.
    /// The scheduling core prices every launch with it, and the live pool
    /// sizes straggler padding with it.
    pub fn batch_ns<I: IntoIterator<Item = u64>>(&self, session: &Session, keys: I) -> u64 {
        self.rung_batch_ns(RungCost::of(session), keys)
    }

    /// [`Self::batch_ns`] for a rung whose session is already reduced to
    /// its cost inputs.
    pub(crate) fn rung_batch_ns<I: IntoIterator<Item = u64>>(
        &self,
        rung: RungCost,
        keys: I,
    ) -> u64 {
        let total_x1024: u128 = keys
            .into_iter()
            .map(|k| self.size.size_x1024(k) as u128)
            .sum();
        let work = rung.macs_per_sample as u128 * total_x1024 * self.ns_per_mac_x1024 as u128
            / 1024
            / 1024
            / rung.speedup as u128;
        self.batch_overhead_ns + work.min(u128::from(u64::MAX)) as u64
    }

    /// Service time of a single request (the natural unit for choosing
    /// offered loads relative to capacity).
    pub fn single_ns(&self, session: &Session) -> u64 {
        self.service_ns(session, 1)
    }
}

/// How requests arrive at the simulated pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Open loop: a fixed trace of arrival times (ns, ascending). Request
    /// `i` uses input `i % inputs.len()`.
    Open {
        /// Ascending arrival timestamps in virtual nanoseconds.
        arrivals_ns: Vec<u64>,
    },
    /// Closed loop: `clients` clients each submit at `t = 0`, wait for
    /// their response, think, and submit again until `total_requests` have
    /// been issued overall. The queue bound is raised to at least `clients`
    /// for the run — each client holds at most one slot, so a smaller bound
    /// would permanently orphan the shed clients.
    Closed {
        /// Number of concurrent clients.
        clients: usize,
        /// Think time between receiving a response and the next submit.
        think_ns: u64,
        /// Total requests to issue across all clients.
        total_requests: usize,
    },
    /// Generated open loop: a seeded [`TrafficModel`] streamed lazily, one
    /// arrival at a time — the trace never materializes, so 10^7-request
    /// runs cost O(1) arrival memory. Request `i` uses input
    /// `i % inputs.len()` exactly like [`ArrivalProcess::Open`]; the
    /// stream's key (the user id under [`TrafficModel::Sessions`], the
    /// request index otherwise) feeds the router and the
    /// [`SizeModel`].
    Generated {
        /// The traffic model to stream.
        model: TrafficModel,
        /// Stream seed: same seed, same arrivals, on every platform.
        seed: u64,
        /// Number of arrivals to generate.
        n: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    id: u64,
    /// Router/affinity key: equal to `id` for open and closed loops, the
    /// stream key (e.g. the session's user id) for generated arrivals.
    key: u64,
    time_ns: u64,
    item: SimItem,
}

/// The simulator's request payload inside the scheduling core.
#[derive(Debug, Clone, Copy)]
struct SimItem {
    input_index: usize,
    /// The closed-loop client that issued the request (0 for open loops).
    client: usize,
}

/// The arrival stream of one run, in `(time, id)` order: the open loop
/// prefills the whole trace, the closed loop seeds one submission per
/// client and grows on completions, and the generated loop pulls from a
/// lazy stream one arrival at a time.
struct Arrivals {
    /// Pending arrivals, always sorted by `(time, id)`.
    pending: VecDeque<Arrival>,
    generator: Option<GeneratedArrivals>,
    next_id: u64,
    remaining_closed: usize,
    think_ns: u64,
    inputs_len: usize,
}

impl Arrivals {
    fn new(arrivals: &ArrivalProcess, inputs_len: usize) -> Result<Arrivals, ServeError> {
        let mut stream = Arrivals {
            pending: VecDeque::new(),
            generator: None,
            next_id: 0,
            remaining_closed: 0,
            think_ns: 0,
            inputs_len,
        };
        match arrivals {
            ArrivalProcess::Open { arrivals_ns } => {
                if arrivals_ns.windows(2).any(|w| w[0] > w[1]) {
                    return Err(ServeError::BadRequest(
                        "open-loop arrival trace must be ascending".into(),
                    ));
                }
                for &t in arrivals_ns {
                    stream.push_new(None, t, 0);
                }
            }
            ArrivalProcess::Closed {
                clients,
                think_ns,
                total_requests,
            } => {
                let clients = (*clients).max(1).min(*total_requests);
                stream.remaining_closed = total_requests.saturating_sub(clients);
                stream.think_ns = *think_ns;
                for c in 0..clients {
                    stream.push_new(None, 0, c);
                }
            }
            ArrivalProcess::Generated { model, seed, n } => {
                model.check().map_err(ServeError::BadRequest)?;
                stream.generator = Some(model.generate(*seed, *n));
            }
        }
        Ok(stream)
    }

    /// A fresh arrival with the next id, keyed by `key` (or its id), kept
    /// in `(time, id)` order. Closed-loop respawns share one finish time,
    /// so a linear scan from the back is cheap.
    fn push_new(&mut self, key: Option<u64>, time_ns: u64, client: usize) {
        let id = self.next_id;
        self.next_id += 1;
        let arrival = Arrival {
            id,
            key: key.unwrap_or(id),
            time_ns,
            item: SimItem {
                input_index: id as usize % self.inputs_len,
                client,
            },
        };
        let pos = self
            .pending
            .iter()
            .rposition(|p| (p.time_ns, p.id) <= (time_ns, id))
            .map_or(0, |p| p + 1);
        self.pending.insert(pos, arrival);
    }

    /// The next arrival, without consuming it. Generated arrivals stream in
    /// one at a time: the stream is monotone, so a one-element prefix is
    /// equivalent to the materialized trace (admission only ever peeks the
    /// front), while 10^7 arrivals never exist at once.
    fn peek(&mut self) -> Option<Arrival> {
        if self.pending.is_empty() {
            if let Some(arrival) = self.generator.as_mut().and_then(Iterator::next) {
                self.push_new(Some(arrival.key), arrival.time_ns, 0);
            }
        }
        self.pending.front().copied()
    }

    /// Closed loop: each client whose request finished at `finish_ns`
    /// thinks for `think_ns` and submits again — a fresh arrival routed
    /// like any other — until `remaining_closed` runs out. A respawn is
    /// strictly later than the launch, so it never joins the batch that
    /// produced it, and it touches nothing in the scheduling core.
    fn respawn(&mut self, clients: impl Iterator<Item = usize>, finish_ns: u64) {
        for client in clients {
            if self.remaining_closed == 0 {
                break;
            }
            self.remaining_closed -= 1;
            self.push_new(None, finish_ns.saturating_add(self.think_ns), client);
        }
    }
}

/// The client population a closed loop needs admitted (0 for open loops) —
/// the per-queue capacity floor.
fn closed_population(arrivals: &ArrivalProcess) -> usize {
    match arrivals {
        ArrivalProcess::Open { .. } | ArrivalProcess::Generated { .. } => 0,
        ArrivalProcess::Closed { clients, .. } => *clients,
    }
}

/// One launched batch in a simulated replica pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolBatchRecord {
    /// Replica that executed the batch.
    pub replica: usize,
    /// Ladder rung the batch executed at.
    pub mode: usize,
    /// Virtual launch time in ns.
    pub launch_ns: u64,
    /// Virtual completion time in ns.
    pub finish_ns: u64,
    /// Request ids coalesced into this batch, in queue order.
    pub request_ids: Vec<u64>,
    /// Queue depth left behind after the batch was drained.
    pub queue_depth_after: usize,
}

/// The full, deterministic outcome of a simulated replica pool run.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSimOutcome {
    /// `(request id, inference)` for every completed request, in
    /// event-processing order (chronological; ties break arrival-first,
    /// then lowest replica index).
    pub responses: Vec<(u64, Inference)>,
    /// Ids shed by per-replica admission control, in arrival order.
    pub rejected_ids: Vec<u64>,
    /// Every launched batch, in event-processing order.
    pub batches: Vec<PoolBatchRecord>,
    /// Every adaptive mode switch, grouped by replica in replica order
    /// (matching [`crate::pool::PoolSnapshot::transitions`]).
    pub transitions: Vec<ModeTransition>,
    /// Per-replica metrics over the virtual makespan. Rejections are
    /// attributed to the replica the router picked.
    pub per_replica: Vec<MetricsSnapshot>,
    /// Pool-level aggregate metrics over the virtual makespan.
    pub metrics: MetricsSnapshot,
    /// Every crash handoff decision, in crash order then queue order —
    /// empty without fault injection. Part of the extended lockstep
    /// contract (mirrors [`crate::pool::PoolSnapshot::handoffs`]).
    pub handoffs: Vec<HandoffRecord>,
    /// Batches launched but *not* retained in `batches` because the log hit
    /// [`crate::config::BATCH_LOG_CAP`] — the log is constant-memory, this counter closes
    /// the accounting.
    pub dropped_batches: u64,
    /// Mode transitions applied but not retained in `transitions` past
    /// [`crate::config::TRANSITION_LOG_CAP`], summed over replicas.
    pub dropped_transitions: u64,
    /// Completions not retained in `responses` past [`RESPONSE_LOG_CAP`]
    /// (or whose outputs were never computed, on [`simulate_pool`]'s
    /// statistics path) — `metrics.completed` still counts
    /// every one, closing the accounting at any request count.
    pub dropped_responses: u64,
    /// Sheds not retained in `rejected_ids` past [`REJECTION_LOG_CAP`] —
    /// `metrics.rejected` still counts every one.
    pub dropped_rejections: u64,
    /// Every pool-controller decision (predictive shift, scale, steal) in
    /// decision order — empty without a controller. Part of the extended
    /// lockstep contract (mirrors
    /// [`crate::pool::PoolSnapshot::control_events`]).
    pub control_events: Vec<ControlEvent>,
    /// Controller decisions applied but not retained past
    /// [`crate::config::CONTROL_LOG_CAP`].
    pub dropped_control_events: u64,
    /// Total live-replica nanoseconds over the run: `replicas × makespan`
    /// without autoscaling, the exact event-log integral with it — the cost
    /// axis autoscaling trades against sheds.
    pub replica_ns: u64,
    /// Virtual time at which the last batch finished in ns.
    pub makespan_ns: u64,
}

/// Simulates a sharded replica pool: N virtual-clock replicas behind a
/// deterministic router, each switching between the `sessions` ladder rungs
/// under the pool's [`crate::config::AdaptivePolicy`]. The virtual-clock
/// driver of the scheduling core the lockstep [`crate::pool::ReplicaPool`]
/// also drives — same router arithmetic, same adaptive state machine,
/// virtual time instead of the wall clock. A one-replica pool with
/// [`crate::config::AdaptivePolicy::pinned`] is the single-session
/// simulator.
///
/// Events are processed chronologically; an arrival that coincides with a
/// launch is admitted (and routed) first, and simultaneous launches resolve
/// lowest-replica-first. Request ids double as the router keys, matching a
/// threaded pool driven with `submit(id, …)`.
///
/// Everything else comes from `options`, the value the lockstep pool takes
/// too:
///
/// * **Faults.** Each replica consumes its slice of the [`FaultPlan`] at the
///   lockstep pool's batch-lifecycle points: straggle factors scale the
///   service time at launch; stalls, queue closes, and crashes apply after
///   the batch's latencies and adaptive evaluation. A crash drains the
///   replica's queue through the shared handoff rule
///   ([`crate::faults::pick_handoff_target`]): each orphan re-enqueues on
///   the first eligible survivor with its `ready` time at the crash instant
///   (latency still anchored at arrival), or is shed when none qualifies.
///   The router skips crashed and closed replicas via
///   [`crate::faults::pick_replica`]; with every replica eligible the
///   arithmetic is exactly the fault-free router's.
/// * **Control.** A [`crate::control::PoolController`] observes every
///   admitted arrival (rolling its EWMA windows and emitting predictive-shift
///   and autoscale events at window boundaries) and evaluates work stealing
///   after every launch. Scale-down drains the deactivated replica's queue
///   through the crash-handoff rule, the router only considers live
///   replicas, and every batch executes at `max(reactive mode, predictive
///   floor)`.
///
/// With a `recorder`, every request leaves a submit → queue-wait → service →
/// respond span chain and every launched batch a batch span plus per-layer
/// kernel spans (service time split by each layer's
/// [`nbsmt_core::pe::PeStats`] cycles via [`crate::trace::layer_intervals`],
/// with the stats attached). All timestamps are virtual nanoseconds, so the
/// trace is byte-identical to the lockstep pool's on the same seeded burst.
///
/// `ctx = None` is the constant-memory **statistics path** for
/// million-request sweeps: the same batches, virtual latencies, metrics,
/// handoffs, and control events bit for bit, but model outputs are not
/// computed, `responses` stays empty, and every completion is counted in
/// [`PoolSimOutcome::dropped_responses`]. Every retained collection is
/// capped, so peak memory is flat in request count; a recorder then gets
/// every span kind except the per-layer kernels, which need real execution.
///
/// # Errors
///
/// Rejects an empty ladder, rungs with different input shapes, an empty
/// input pool, or an unsorted open-loop trace as [`ServeError::BadRequest`],
/// and an invalid pool or controller configuration as
/// [`ServeError::Config`]; propagates session-execution failures.
pub fn simulate_pool<S: Borrow<Session>>(
    sessions: &[S],
    ctx: Option<&ExecContext>,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    options: &PoolOptions,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    check_ladder(sessions)?;
    if inputs.is_empty() {
        return Err(ServeError::BadRequest("empty request-input pool".into()));
    }
    options.config.validate()?;
    // Hashed routing can land an entire closed-loop client population on
    // one queue, so every queue holds at least the population.
    let capacity = options
        .config
        .scheduler
        .queue_capacity
        .max(closed_population(arrivals));
    let mut core = SchedCore::new(sessions, options, capacity, true)?;
    let mut stream = Arrivals::new(arrivals, inputs.len())?;
    let mut responses = Vec::new();
    let mut rejected_ids = Vec::new();
    let mut dropped_responses = 0u64;
    let mut dropped_rejections = 0u64;
    let mut batch = Vec::new();
    loop {
        let next = core.next_launch();
        // Arrivals at or before the next launch are routed and admitted
        // first: submission precedes the drain.
        if let Some(arrival) = stream.peek() {
            if next.is_none_or(|(at, _)| arrival.time_ns <= at) {
                stream.pending.pop_front();
                let (id, key, at_ns) = (arrival.id, arrival.key, arrival.time_ns);
                if core.admit(id, key, at_ns, arrival.item, recorder).is_err() {
                    if rejected_ids.len() < REJECTION_LOG_CAP {
                        rejected_ids.push(id);
                    } else {
                        dropped_rejections += 1;
                    }
                }
                continue;
            }
        }
        let Some((at, r)) = next else {
            break; // no queued work and no pending arrivals
        };
        batch.clear();
        let launch = core.launch(r, at, &mut batch, recorder);
        match ctx {
            Some(ctx) => {
                let batch_inputs: Vec<&Tensor<f32>> = batch
                    .iter()
                    .map(|q| &inputs[q.payload.input_index])
                    .collect();
                let mut kernels = Vec::new();
                let outputs = sessions[launch.mode].borrow().infer_batch_inner(
                    ctx,
                    &batch_inputs,
                    recorder.map(|_| &mut kernels),
                )?;
                if let Some(rec) = recorder {
                    launch
                        .trace(rec)
                        .record_kernels(launch.launch_ns, launch.service_ns, &kernels);
                }
                for (q, inference) in batch.iter().zip(outputs) {
                    if responses.len() < RESPONSE_LOG_CAP {
                        responses.push((q.id, inference));
                    } else {
                        dropped_responses += 1;
                    }
                }
            }
            None => dropped_responses += batch.len() as u64,
        }
        stream.respawn(batch.iter().map(|q| q.payload.client), launch.finish_ns);
    }

    let out = core.finish();
    let mut total = ServeMetrics::new();
    for metrics in &out.metrics {
        total.merge(metrics);
    }
    Ok(PoolSimOutcome {
        responses,
        rejected_ids,
        batches: out.batches,
        transitions: out.transitions,
        per_replica: out
            .metrics
            .iter()
            .map(|m| m.snapshot(out.makespan_ns))
            .collect(),
        metrics: total.snapshot(out.makespan_ns),
        handoffs: out.handoffs,
        dropped_batches: out.dropped_batches,
        dropped_transitions: out.dropped_transitions,
        dropped_responses,
        dropped_rejections,
        control_events: out.control_events,
        dropped_control_events: out.dropped_control_events,
        replica_ns: out.replica_ns,
        makespan_ns: out.makespan_ns,
    })
}

/// [`simulate_pool`]'s statistics path (`ctx = None`) without a controller,
/// in the argument form the repo benchmark (`perfbench/`) calls.
///
/// # Errors
///
/// Same as [`simulate_pool`].
pub fn simulate_pool_stats<S: Borrow<Session>>(
    sessions: &[S],
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    pool: PoolConfig,
    service: ServiceModel,
    faults: Option<&FaultPlan>,
    recorder: Option<&TraceRecorder>,
) -> Result<PoolSimOutcome, ServeError> {
    let options = PoolOptions {
        config: pool,
        service,
        faults: faults.cloned().unwrap_or_default(),
        control: None,
    };
    simulate_pool(sessions, None, inputs, arrivals, &options, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        route_hash, AdaptivePolicy, BatchPolicy, RoutePolicy, SchedulerConfig, SmtConfig,
    };
    use crate::session::compile_session;
    use nbsmt_workloads::synthnet::quick_synthnet;
    use std::sync::Arc;

    fn test_setup() -> (Session, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(23).expect("training succeeds");
        let calib = trained.calibration_inputs(8, 301);
        let s = trained.task.image_size;
        let session = compile_session(
            "synthnet",
            &trained.model,
            &[calib],
            SmtConfig::sysmt_2t(),
            [1, s, s],
        )
        .unwrap();
        let (inputs, _) = trained.sample_requests(8, 302);
        (session, inputs)
    }

    fn policy(max_batch: usize, max_wait_ns: u64, capacity: usize) -> SchedulerConfig {
        SchedulerConfig {
            batch: BatchPolicy {
                max_batch,
                max_wait_ns,
            },
            queue_capacity: capacity,
        }
    }

    /// A pool of `replicas` pinned to rung 0, on the default service model.
    fn pinned(replicas: usize, route: RoutePolicy, scheduler: SchedulerConfig) -> PoolOptions {
        PoolOptions {
            config: PoolConfig {
                replicas,
                route,
                scheduler,
                adaptive: AdaptivePolicy::pinned(),
            },
            ..PoolOptions::default()
        }
    }

    /// The single-session simulator: a one-replica pinned pool.
    fn one(scheduler: SchedulerConfig) -> PoolOptions {
        pinned(1, RoutePolicy::RoundRobin, scheduler)
    }

    /// One full-path run on a single host thread.
    fn run<S: Borrow<Session>>(
        ladder: &[S],
        inputs: &[Tensor<f32>],
        arrivals: &ArrivalProcess,
        options: &PoolOptions,
    ) -> PoolSimOutcome {
        let ctx = ExecContext::sequential();
        simulate_pool(ladder, Some(&ctx), inputs, arrivals, options, None).unwrap()
    }

    #[test]
    fn widely_spaced_arrivals_run_unbatched() {
        let (session, inputs) = test_setup();
        let service = ServiceModel::default();
        let gap = service.single_ns(&session) * 4;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..6).map(|i| i * gap).collect(),
        };
        let out = run(&[&session], &inputs, &arrivals, &one(policy(8, 1_000, 64)));
        assert_eq!(out.metrics.completed, 6);
        assert_eq!(out.metrics.batches, 6, "spaced arrivals must not coalesce");
        assert!(out.rejected_ids.is_empty());
    }

    #[test]
    fn simultaneous_arrivals_coalesce_to_max_batch() {
        let (session, inputs) = test_setup();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0; 8],
        };
        let out = run(
            &[&session],
            &inputs,
            &arrivals,
            &one(policy(4, 1_000_000, 64)),
        );
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].request_ids, vec![0, 1, 2, 3]);
        assert_eq!(out.batches[1].request_ids, vec![4, 5, 6, 7]);
    }

    #[test]
    fn max_wait_closes_a_partial_batch() {
        let (session, inputs) = test_setup();
        let options = PoolOptions {
            service: ServiceModel {
                ns_per_mac_x1024: 0,
                batch_overhead_ns: 10,
                size: SizeModel::Unit,
            },
            ..one(policy(8, 1_000, 1_000))
        };
        // Second arrival lands after the first's wait budget: two batches.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0, 2_000],
        };
        let out = run(&[&session], &inputs, &arrivals, &options);
        assert_eq!(out.batches.len(), 2);
        assert_eq!(out.batches[0].launch_ns, 1_000);
        // And within the budget: one batch.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0, 500],
        };
        let out = run(&[&session], &inputs, &arrivals, &options);
        assert_eq!(out.batches.len(), 1);
        assert_eq!(out.batches[0].request_ids, vec![0, 1]);
    }

    #[test]
    fn overload_sheds_and_accounts_every_request() {
        let (session, inputs) = test_setup();
        let n = 40u64;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..n).map(|i| i * 10).collect(),
        };
        // The default service model is far slower than the arrivals.
        let out = run(&[&session], &inputs, &arrivals, &one(policy(2, 1_000, 4)));
        assert!(out.metrics.rejected > 0, "overload must shed load");
        assert_eq!(out.metrics.completed + out.metrics.rejected, n);
        assert_eq!(
            out.responses.len() + out.rejected_ids.len(),
            n as usize,
            "every request is either answered or rejected"
        );
        assert!(out.metrics.max_queue_depth <= 4 + 2);
    }

    #[test]
    fn closed_loop_population_survives_a_small_queue_bound() {
        // 16 clients against a capacity-4 scheduler: the bound is raised to
        // the population so no client is shed at t=0 and orphaned — every
        // request completes.
        let (session, inputs) = test_setup();
        let arrivals = ArrivalProcess::Closed {
            clients: 16,
            think_ns: 1_000,
            total_requests: 48,
        };
        let out = run(&[&session], &inputs, &arrivals, &one(policy(4, 10_000, 4)));
        assert_eq!(out.metrics.completed, 48);
        assert!(out.rejected_ids.is_empty());
    }

    #[test]
    fn closed_loop_issues_exactly_total_requests() {
        let (session, inputs) = test_setup();
        let arrivals = ArrivalProcess::Closed {
            clients: 3,
            think_ns: 1_000,
            total_requests: 12,
        };
        let out = run(&[&session], &inputs, &arrivals, &one(policy(4, 10_000, 16)));
        assert_eq!(out.metrics.completed, 12);
        assert!(out.rejected_ids.is_empty(), "closed loop cannot overflow");
        // No client ever has two requests in flight: at most `clients`
        // requests per batch.
        for batch in &out.batches {
            assert!(batch.request_ids.len() <= 3);
        }
    }

    fn ladder_setup() -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(23).expect("training succeeds");
        let mut registry = crate::registry::ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 301)
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
        let (inputs, _) = trained.sample_requests(8, 302);
        (ladder, inputs)
    }

    #[test]
    fn round_robin_pool_splits_a_burst_across_replicas() {
        let (ladder, inputs) = ladder_setup();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: vec![0; 8],
        };
        let options = pinned(2, RoutePolicy::RoundRobin, policy(4, 1_000_000, 64));
        let out = run(&ladder, &inputs, &arrivals, &options);
        assert_eq!(out.metrics.completed, 8);
        assert_eq!(out.batches.len(), 2, "each replica coalesces its half");
        // Round-robin interleaves ids: evens on replica 0, odds on 1.
        let by_replica: Vec<Vec<u64>> = (0..2)
            .map(|r| {
                out.batches
                    .iter()
                    .filter(|b| b.replica == r)
                    .flat_map(|b| b.request_ids.clone())
                    .collect()
            })
            .collect();
        assert_eq!(by_replica[0], vec![0, 2, 4, 6]);
        assert_eq!(by_replica[1], vec![1, 3, 5, 7]);
        // And both replicas report their own metrics.
        assert_eq!(out.per_replica.len(), 2);
        assert!(out.per_replica.iter().all(|m| m.completed == 4));
    }

    #[test]
    fn hashed_routing_is_sticky_per_key() {
        let (ladder, inputs) = ladder_setup();
        // The same id set twice: each id must land on the same replica both
        // times (affinity), regardless of interleaving.
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..16).map(|i| i * 200_000).collect(),
        };
        let options = pinned(4, RoutePolicy::Hashed, policy(2, 1_000, 64));
        let out = run(&ladder, &inputs, &arrivals, &options);
        for batch in &out.batches {
            for &id in &batch.request_ids {
                assert_eq!(
                    batch.replica,
                    (route_hash(id) % 4) as usize,
                    "id {id} must follow its hash"
                );
            }
        }
    }

    #[test]
    fn adaptive_pool_sheds_less_than_pinned_dense_under_overload() {
        let (ladder, inputs) = ladder_setup();
        // Offered far beyond one dense replica's service rate.
        let gap = ServiceModel::default().single_ns(&ladder[0]) / 4;
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..64).map(|i| i * gap).collect(),
        };
        let options = one(policy(4, 100_000, 8));
        let pinned = run(&ladder[..1], &inputs, &arrivals, &options);
        let mut options = options;
        options.config.adaptive = AdaptivePolicy {
            depth_high: 4,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        };
        let adaptive = run(&ladder, &inputs, &arrivals, &options);
        assert!(
            pinned.metrics.rejected > 0,
            "dense-only must shed at 4x load"
        );
        assert!(
            adaptive.metrics.rejected < pinned.metrics.rejected,
            "adaptive ({} shed) must shed less than pinned dense ({} shed)",
            adaptive.metrics.rejected,
            pinned.metrics.rejected
        );
        assert!(
            adaptive.metrics.mode_transitions > 0,
            "overload must drive the ladder"
        );
        // The trade is visible in the mode histogram: some batches ran
        // above rung 0.
        let above: u64 = adaptive.metrics.batches_per_mode.iter().skip(1).sum();
        assert!(above > 0);
        // Accounting closes for both runs.
        assert_eq!(pinned.metrics.completed + pinned.metrics.rejected, 64);
        assert_eq!(adaptive.metrics.completed + adaptive.metrics.rejected, 64);
    }

    #[test]
    fn closed_loop_pool_completes_every_request() {
        let (ladder, inputs) = ladder_setup();
        let arrivals = ArrivalProcess::Closed {
            clients: 6,
            think_ns: 1_000,
            total_requests: 30,
        };
        // Capacity 4 is below the 6-client population: the closed-loop
        // capacity floor must still absorb every in-flight request.
        let options = pinned(3, RoutePolicy::LeastOutstanding, policy(4, 10_000, 4));
        let out = run(&ladder, &inputs, &arrivals, &options);
        assert_eq!(out.metrics.completed, 30);
        assert!(out.rejected_ids.is_empty(), "closed loop cannot overflow");
        let per_replica_total: u64 = out.per_replica.iter().map(|m| m.completed).sum();
        assert_eq!(per_replica_total, 30);
    }

    #[test]
    fn simulation_is_bit_deterministic_across_runs() {
        let (session, inputs) = test_setup();
        let arrivals = ArrivalProcess::Open {
            arrivals_ns: (0..16).map(|i| i * 50_000).collect(),
        };
        let options = one(policy(4, 100_000, 16));
        let a = run(&[&session], &inputs, &arrivals, &options);
        let b = run(&[&session], &inputs, &arrivals, &options);
        assert_eq!(a, b);
    }
}
