//! The sans-IO scheduling core behind the simulator and the lockstep pool.
//!
//! [`SchedCore`] holds all deterministic pool state — per-replica queues,
//! virtual free times, batch counters, crash and close flags, adaptive
//! ladders, fault cursors, metrics, the optional [`PoolController`], the
//! round-robin tick, and the handoff and batch logs — and makes every
//! scheduling decision: which replica launches next and when, where an
//! arrival is routed or whether it is shed, what a launch commits, where a
//! crashed or deactivated replica's queue goes, and what a steal moves. It
//! reads no clock, takes no lock, starts no thread and runs no inference:
//! time is an argument, and the request payload `P` is opaque to it.
//!
//! Two drivers feed it. [`crate::sim`] pulls arrivals from an
//! [`crate::sim::ArrivalProcess`] and runs each launched batch inline; the
//! lockstep [`crate::pool::ReplicaPool`] keeps the core behind a mutex and
//! runs each granted batch on the replica's worker thread, outside the
//! lock. Both call the same code in the same event order, so the lockstep
//! contract — identical batches, modes, transitions, handoffs, control
//! events, virtual latencies and traces — holds by construction.

use std::borrow::Borrow;
use std::collections::VecDeque;

use crate::config::{
    AdaptiveState, ConfigError, ModeTransition, PoolOptions, RoutePolicy, ServeError, BATCH_LOG_CAP,
};
use crate::control::{ControlEvent, ControlEventKind, PoolController};
use crate::faults::{pick_handoff_target, pick_replica, HandoffRecord, ReplicaFaults};
use crate::metrics::ServeMetrics;
use crate::session::Session;
use crate::sim::{PoolBatchRecord, RungCost, ServiceModel};
use crate::trace::{BatchTraceCtx, TraceEvent, TraceRecorder, TraceStage};

/// Checks the ladder both drivers serve: at least one rung, and every rung
/// taking rung 0's input shape, so one [`Session::validate_input`] call
/// decides whether a request fits whichever rung runs it.
///
/// # Errors
///
/// [`ServeError::BadRequest`] naming the problem.
pub(crate) fn check_ladder<S: Borrow<Session>>(sessions: &[S]) -> Result<(), ServeError> {
    let dims: Vec<[usize; 3]> = sessions.iter().map(|s| s.borrow().input_dims()).collect();
    match dims.first() {
        None => Err(ServeError::BadRequest(
            "replica pool needs at least one session in the ladder".into(),
        )),
        Some(first) if dims.iter().any(|d| d != first) => Err(ServeError::BadRequest(format!(
            "ladder rungs take different input shapes: {dims:?}"
        ))),
        Some(_) => Ok(()),
    }
}

/// One request waiting in a replica queue.
pub(crate) struct Queued<P> {
    /// Names the request in traces and in the batch log.
    pub(crate) id: u64,
    /// Router/affinity key: feeds routing, the size model and handoff
    /// records.
    pub(crate) key: u64,
    /// Virtual submission time in ns; latency is measured from here.
    pub(crate) submit_ns: u64,
    /// Earliest virtual time the request may launch: its submission time,
    /// raised by a handoff or a steal to when it reached its new queue.
    pub(crate) ready_ns: u64,
    /// What the driver needs to execute and answer the request.
    pub(crate) payload: P,
}

/// One committed launch: what a driver needs to execute the batch and to
/// place its kernel spans.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Launch {
    pub(crate) replica: usize,
    /// Ladder rung the batch executes at.
    pub(crate) mode: usize,
    /// The replica's 1-based batch count, this batch included.
    pub(crate) batch_index: u64,
    pub(crate) launch_ns: u64,
    pub(crate) service_ns: u64,
    pub(crate) finish_ns: u64,
}

impl Launch {
    /// The batch's identity on `recorder`.
    pub(crate) fn trace<'a>(&self, recorder: &'a TraceRecorder) -> BatchTraceCtx<'a> {
        BatchTraceCtx {
            recorder,
            replica: self.replica,
            batch_index: self.batch_index,
            mode: self.mode,
        }
    }
}

/// Everything a finished core hands back to its driver.
pub(crate) struct SchedOutcome {
    /// Per-replica metrics, in replica order.
    pub(crate) metrics: Vec<ServeMetrics>,
    /// Every mode switch, grouped by replica in replica order.
    pub(crate) transitions: Vec<ModeTransition>,
    pub(crate) dropped_transitions: u64,
    /// Launched batches in launch order (empty unless logging was on).
    pub(crate) batches: Vec<PoolBatchRecord>,
    pub(crate) dropped_batches: u64,
    pub(crate) handoffs: Vec<HandoffRecord>,
    pub(crate) control_events: Vec<ControlEvent>,
    pub(crate) dropped_control_events: u64,
    pub(crate) replica_ns: u64,
    pub(crate) makespan_ns: u64,
}

struct Replica<P> {
    queue: VecDeque<Queued<P>>,
    t_free: u64,
    /// Batches launched so far: the fault plan's 1-based batch clock.
    batches: u64,
    crashed: bool,
    /// Admissions closed by a queue-close fault (a crash closes them too).
    closed: bool,
    adaptive: AdaptiveState,
    faults: ReplicaFaults,
    metrics: ServeMetrics,
}

/// The deterministic scheduler of a replica pool (see the module docs).
pub(crate) struct SchedCore<P> {
    replicas: Vec<Replica<P>>,
    rungs: Vec<RungCost>,
    service: ServiceModel,
    route: RoutePolicy,
    max_batch: usize,
    max_wait_ns: u64,
    capacity: usize,
    controller: Option<PoolController>,
    /// Round-robin tick: advances once per routed arrival.
    rr: u64,
    handoffs: Vec<HandoffRecord>,
    /// `None` when the driver does not log batches.
    batch_log: Option<Vec<PoolBatchRecord>>,
    dropped_batches: u64,
    /// Reused `(replica, queue length)` buffer for eligible sets and steal
    /// depths, so admissions and launches allocate nothing.
    depths: Vec<(usize, usize)>,
    /// Reused `(eligible, queue length)` buffer for handoff decisions.
    states: Vec<(bool, usize)>,
}

impl<P> SchedCore<P> {
    /// A core for `options` over the ladder `sessions` (rung 0 first), with
    /// per-replica queues of `capacity`: virtual time from the service
    /// model, the fault plan's per-replica cursors, and a controller when
    /// one is configured. `log_batches` keeps the capped batch log. The
    /// pool configuration must already be validated.
    ///
    /// # Errors
    ///
    /// Any [`PoolController::new`] error.
    pub(crate) fn new<S: Borrow<Session>>(
        sessions: &[S],
        options: &PoolOptions,
        capacity: usize,
        log_batches: bool,
    ) -> Result<SchedCore<P>, ConfigError> {
        let (pool, service) = (&options.config, options.service);
        // The controller's utilization forecast is denominated in the same
        // virtual per-rung request cost the clock runs on.
        let controller = options
            .control
            .map(|cfg| {
                let rung_work_ns = sessions
                    .iter()
                    .map(|s| service.single_ns(s.borrow()))
                    .collect();
                PoolController::new(cfg, rung_work_ns, pool.replicas)
            })
            .transpose()?;
        let replicas = (0..pool.replicas)
            .map(|r| Replica {
                queue: VecDeque::new(),
                t_free: 0,
                batches: 0,
                crashed: false,
                closed: false,
                adaptive: AdaptiveState::new(pool.adaptive, r, sessions.len()),
                faults: options.faults.for_replica(r),
                metrics: ServeMetrics::new(),
            })
            .collect();
        Ok(SchedCore {
            replicas,
            rungs: sessions.iter().map(|s| RungCost::of(s.borrow())).collect(),
            service,
            route: pool.route,
            max_batch: pool.scheduler.batch.max_batch,
            max_wait_ns: pool.scheduler.batch.max_wait_ns,
            capacity,
            controller,
            rr: 0,
            handoffs: Vec::new(),
            batch_log: log_batches.then(Vec::new),
            dropped_batches: 0,
            depths: Vec::new(),
            states: Vec::new(),
        })
    }

    /// Replicas currently live: the controller's count, or all of them.
    fn live(&self) -> usize {
        self.controller
            .as_ref()
            .map_or(self.replicas.len(), PoolController::live)
    }

    /// Refills `depths` with `(replica, queue length)` for every live,
    /// uncrashed, admitting replica in index order: the router's eligible
    /// set and the steal check's candidates.
    fn refresh_depths(&mut self) {
        let live = self.live();
        self.depths.clear();
        self.depths.extend(
            self.replicas
                .iter()
                .enumerate()
                .take(live)
                .filter(|(_, rep)| !rep.crashed && !rep.closed)
                .map(|(i, rep)| (i, rep.queue.len())),
        );
    }

    /// Whether replica `r` has crashed.
    pub(crate) fn is_crashed(&self, r: usize) -> bool {
        self.replicas[r].crashed
    }

    /// The earliest launch any live replica could perform from its current
    /// queue, as `(virtual time, replica)`; ties go to the lowest replica.
    /// A full batch launches once the replica is free and its
    /// `max_batch`-th request is ready; a partial batch waits out the
    /// oldest request's budget. `None` when every queue is empty.
    pub(crate) fn next_launch(&self) -> Option<(u64, usize)> {
        let mut next: Option<(u64, usize)> = None;
        for (r, replica) in self.replicas.iter().enumerate() {
            if replica.crashed {
                continue;
            }
            let Some(oldest) = replica.queue.front() else {
                continue;
            };
            let at = if replica.queue.len() >= self.max_batch {
                replica
                    .t_free
                    .max(replica.queue[self.max_batch - 1].ready_ns)
            } else {
                replica
                    .t_free
                    .max(oldest.ready_ns.saturating_add(self.max_wait_ns))
            };
            if next.is_none_or(|(best, _)| at < best) {
                next = Some((at, r));
            }
        }
        next
    }

    /// Admits one arrival at virtual `at_ns` (non-decreasing across calls).
    /// The controller observes it first and its decisions apply; then the
    /// router picks among the live, open replicas, and the pick takes the
    /// request if its queue has room. A shed request comes back as `Err`
    /// with its payload, counted on the picked replica, or on replica 0
    /// when no replica is eligible.
    pub(crate) fn admit(
        &mut self,
        id: u64,
        key: u64,
        at_ns: u64,
        payload: P,
        rec: Option<&TraceRecorder>,
    ) -> Result<(), P> {
        if let Some(events) = self.controller.as_mut().map(|c| c.on_arrival(at_ns)) {
            for event in events {
                self.apply_control(event, rec);
            }
        }
        self.refresh_depths();
        let tick = self.rr;
        if self.route == RoutePolicy::RoundRobin {
            self.rr += 1;
        }
        match pick_replica(self.route, key, tick, &self.depths) {
            Some(target) if self.replicas[target].queue.len() < self.capacity => {
                let item = Queued {
                    id,
                    key,
                    submit_ns: at_ns,
                    ready_ns: at_ns,
                    payload,
                };
                self.enqueue(target, item, rec);
                Ok(())
            }
            Some(target) => {
                self.replicas[target].metrics.record_rejected();
                Err(payload)
            }
            None => {
                self.replicas[0].metrics.record_rejected();
                Err(payload)
            }
        }
    }

    /// Queues one already-routed request on `replica` and records its
    /// submit span.
    pub(crate) fn enqueue(&mut self, replica: usize, item: Queued<P>, rec: Option<&TraceRecorder>) {
        if let Some(rec) = rec {
            rec.record(
                TraceEvent::new(TraceStage::Submit, replica, item.submit_ns, 0).request(item.id),
            );
        }
        self.replicas[replica].queue.push_back(item);
    }

    /// Commits replica `r`'s launch at virtual `at_ns`, the time
    /// [`Self::next_launch`] named: drains up to `max_batch` requests into
    /// the empty `batch`, picks the rung (the reactive mode raised to the
    /// predictive floor), scales the size-aware service time by any
    /// straggle window, records latencies and spans, logs the batch, then
    /// runs the adaptive evaluation, the post-batch faults (a crash hands
    /// the queue off) and the steal check, in that order.
    pub(crate) fn launch(
        &mut self,
        r: usize,
        at_ns: u64,
        batch: &mut Vec<Queued<P>>,
        rec: Option<&TraceRecorder>,
    ) -> Launch {
        let replica = &mut self.replicas[r];
        let batch_index = replica.batches + 1;
        let take = replica.queue.len().min(self.max_batch);
        batch.extend(replica.queue.drain(..take));
        let reactive = replica.adaptive.mode();
        let mode = self
            .controller
            .as_ref()
            .map_or(reactive, |c| c.effective_mode(reactive));
        let factor = replica.faults.service_factor_x1024(batch_index);
        let base_ns = self
            .service
            .rung_batch_ns(self.rungs[mode], batch.iter().map(|q| q.key));
        let service_ns = (base_ns as u128 * factor as u128 / 1024).min(u128::from(u64::MAX)) as u64;
        let finish_ns = at_ns.saturating_add(service_ns);
        let depth_after = replica.queue.len();
        replica.metrics.record_batch(batch.len(), depth_after);
        replica.metrics.record_mode_batch(mode);
        for q in batch.iter() {
            replica
                .metrics
                .record_stage_split(at_ns.saturating_sub(q.submit_ns), service_ns);
            replica
                .metrics
                .record_latency(finish_ns.saturating_sub(q.submit_ns));
        }
        let launch = Launch {
            replica: r,
            mode,
            batch_index,
            launch_ns: at_ns,
            service_ns,
            finish_ns,
        };
        if let Some(rec) = rec {
            launch.trace(rec).record_batch(
                at_ns,
                service_ns,
                batch.iter().map(|q| (q.id, q.submit_ns)),
            );
        }
        if let Some(log) = &mut self.batch_log {
            if log.len() < BATCH_LOG_CAP {
                log.push(PoolBatchRecord {
                    replica: r,
                    mode,
                    launch_ns: at_ns,
                    finish_ns,
                    request_ids: batch.iter().map(|q| q.id).collect(),
                    queue_depth_after: depth_after,
                });
            } else {
                self.dropped_batches += 1;
            }
        }
        replica.t_free = finish_ns;
        // Both adaptive triggers read virtual state: depth from the drain,
        // p95 from the virtual-latency histogram. A switch applies from the
        // replica's next batch on.
        let p95 = replica.metrics.latency.quantile(0.95);
        if replica.adaptive.observe_batch(depth_after, p95).is_some() {
            replica.metrics.record_transition();
        }
        replica.batches = batch_index;
        let post = replica.faults.after_batch(batch_index);
        if post.stall_ns > 0 {
            replica.t_free = replica.t_free.saturating_add(post.stall_ns);
            replica.metrics.record_stall();
        }
        if post.close_queue {
            replica.closed = true;
        }
        if post.crashed {
            replica.crashed = true;
            replica.closed = true;
            replica.metrics.record_crash();
            // Orphans cannot launch on a survivor before the crash instant.
            let crash_ns = replica.t_free;
            self.hand_off(r, batch_index, |_| crash_ns);
        }
        self.steal(at_ns, rec);
        launch
    }

    /// Drains replica `from`'s queue onto the live survivors — the one
    /// routine behind crashes and scale-downs. Each orphan goes to the
    /// first eligible replica with room after `from` in rotation
    /// ([`pick_handoff_target`]) with its ready time mapped by `ready`, or
    /// is shed (its payload dropped). Every decision is logged as a
    /// [`HandoffRecord`] and counted on `from`.
    fn hand_off(&mut self, from: usize, at_batch: u64, ready: impl Fn(u64) -> u64) {
        let orphans = std::mem::take(&mut self.replicas[from].queue);
        let live = self.live();
        let mut cursor = (from + 1) % self.replicas.len();
        for orphan in orphans {
            self.states.clear();
            self.states.extend(
                self.replicas
                    .iter()
                    .enumerate()
                    .map(|(i, rep)| (i < live && !rep.crashed && !rep.closed, rep.queue.len())),
            );
            let target = pick_handoff_target(from, &mut cursor, &self.states, self.capacity);
            self.handoffs.push(HandoffRecord {
                from_replica: from,
                at_batch,
                key: orphan.key,
                to_replica: target,
            });
            match target {
                Some(t) => {
                    let ready_ns = ready(orphan.ready_ns);
                    self.replicas[t]
                        .queue
                        .push_back(Queued { ready_ns, ..orphan });
                    self.replicas[from].metrics.record_handoff();
                }
                None => self.replicas[from].metrics.record_handoff_shed(),
            }
        }
    }

    /// Applies one decision of the arrival hook: an instant control span,
    /// the pool-level counter on replica 0, and for a scale-down the
    /// deactivated replica's queue handed off, ready no earlier than the
    /// decision.
    fn apply_control(&mut self, event: ControlEvent, rec: Option<&TraceRecorder>) {
        if let Some(rec) = rec {
            rec.record(TraceEvent::new(TraceStage::Control, 0, event.at_ns, 0));
        }
        let pool = &mut self.replicas[0].metrics;
        match event.kind {
            ControlEventKind::PredictiveShift { .. } => pool.record_predictive_shift(),
            ControlEventKind::ScaleUp { .. } => pool.record_scale_up(),
            ControlEventKind::ScaleDown { to: deact, .. } => {
                pool.record_scale_down();
                let at_batch = self.replicas[deact].batches;
                self.hand_off(deact, at_batch, |ready| ready.max(event.at_ns));
            }
            // Only the post-launch check emits steals.
            ControlEventKind::Steal { .. } => {}
        }
    }

    /// The controller's post-launch steal check: up to `max_steal`
    /// not-yet-batched requests move from the tail of the deepest live queue
    /// to the shallowest, ready no earlier than the steal instant (latency
    /// stays anchored at submission).
    fn steal(&mut self, at_ns: u64, rec: Option<&TraceRecorder>) {
        if self.controller.is_none() {
            return;
        }
        self.refresh_depths();
        let Some(event) = self
            .controller
            .as_mut()
            .and_then(|c| c.steal_check(at_ns, &self.depths, self.capacity))
        else {
            return;
        };
        let ControlEventKind::Steal { from, to, moved } = event.kind else {
            return;
        };
        let split = self.replicas[from].queue.len() - moved;
        for _ in 0..moved {
            let item = self.replicas[from]
                .queue
                .remove(split)
                .expect("a steal moves queued requests");
            let ready_ns = item.ready_ns.max(event.at_ns);
            self.replicas[to]
                .queue
                .push_back(Queued { ready_ns, ..item });
        }
        self.replicas[0].metrics.record_steal(moved);
        if let Some(rec) = rec {
            rec.record(TraceEvent::new(TraceStage::Control, 0, event.at_ns, 0));
        }
    }

    /// Ends the run and moves every log out. The makespan is the latest
    /// replica free time; replica-nanoseconds integrate over it, through
    /// the controller's scale-event log when there is one.
    pub(crate) fn finish(&mut self) -> SchedOutcome {
        let makespan_ns = self.replicas.iter().map(|r| r.t_free).max().unwrap_or(0);
        let (control_events, dropped_control_events, replica_ns) = match self.controller.take() {
            Some(mut ctrl) => {
                let replica_ns = ctrl.finalize_replica_ns(makespan_ns);
                let (events, dropped) = ctrl.into_events();
                (events, dropped, replica_ns)
            }
            None => (
                Vec::new(),
                0,
                (self.replicas.len() as u64).saturating_mul(makespan_ns),
            ),
        };
        let mut metrics = Vec::new();
        let mut transitions = Vec::new();
        let mut dropped_transitions = 0u64;
        for replica in std::mem::take(&mut self.replicas) {
            dropped_transitions += replica.adaptive.dropped_transitions();
            transitions.extend(replica.adaptive.into_transitions());
            metrics.push(replica.metrics);
        }
        SchedOutcome {
            metrics,
            transitions,
            dropped_transitions,
            batches: self.batch_log.take().unwrap_or_default(),
            dropped_batches: self.dropped_batches,
            handoffs: std::mem::take(&mut self.handoffs),
            control_events,
            dropped_control_events,
            replica_ns,
            makespan_ns,
        }
    }
}
