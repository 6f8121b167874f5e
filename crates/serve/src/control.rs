//! Pool-level control plane: replica autoscaling, bounded work stealing,
//! and predictive NB-SMT mode switching above [`crate::pool::ReplicaPool`]
//! and [`crate::sim::simulate_pool`].
//!
//! The per-replica [`crate::config::AdaptiveState`] ladder is purely
//! *reactive*: a replica waits for its own queue to back up (or its p95 to
//! blow past the SLO) before trading accuracy for throughput. The
//! [`PoolController`] adds the *proactive* half:
//!
//! * **Rate estimation** — [`RateEstimator`] maintains an integer
//!   fixed-point (×1024) EWMA of arrivals per window. Pure integer
//!   arithmetic, no `libm`, no floats: the estimate is bit-stable across
//!   platforms and thread counts, like [`crate::traffic`].
//! * **Predictive mode switching** — from the forecast arrival rate the
//!   controller computes the pool's utilization at each NB-SMT rung and
//!   raises a *floor* under every replica's reactive mode before the queues
//!   back up. The reactive ladder stays active as the fallback: the executed
//!   rung is `max(reactive mode, predictive floor)`. Every controller runs
//!   the floor.
//! * **Autoscaling** (optional) — the live replica count scales up/down
//!   within `max(1, pool/4)..=pool` against a target utilization band.
//!   Scale-down drains the victim's queue through the crash-handoff rule
//!   ([`crate::faults::pick_handoff_target`]), so permits reconcile exactly
//!   as they do for crashes.
//! * **Work stealing** (optional) — after each batch launch the controller
//!   may move a bounded number of not-yet-batched requests from the deepest
//!   to the shallowest live queue, taming routing skew that
//!   [`crate::config::RoutePolicy::Hashed`] affinity can produce.
//!
//! The smoothing weight, both utilization bands and the steal bounds are
//! constants of this module; a [`ControlConfig`] picks only the estimator
//! window and which optional mechanisms run.
//!
//! **Determinism.** Every decision is a pure function of (arrival trace,
//! configuration): windows roll on arrival timestamps, utilization is
//! integer arithmetic over the [`crate::sim::ServiceModel`]'s per-rung
//! service costs, and steal targets derive from queue depths with explicit
//! tie-breaks. The controller lives inside the scheduling core that both
//! the discrete-event simulator and the threaded lockstep pool drive, so
//! autoscale events, steal events, and predictive transitions are part of
//! the extended lockstep bit-identical contract (`serve_determinism.rs`).

use crate::config::{ConfigError, CONTROL_LOG_CAP};
use nbsmt_tensor::validate::Validate;

/// EWMA smoothing weight of the controller's [`RateEstimator`], ×1024: each
/// closed window's count weighs one half.
pub const ALPHA_X1024: u64 = 512;

/// Predictive floor band, ×1024 utilization (1024 = every live replica
/// busy): the floor rises to the lowest rung whose forecast utilization is
/// at most [`FLOOR_HIGH_X1024`], and falls one rung per window once the
/// rung below would sit at or under [`FLOOR_LOW_X1024`] (hysteresis, like
/// the reactive depth band).
pub const FLOOR_HIGH_X1024: u64 = 600;

/// Lower edge of the predictive floor band; see [`FLOOR_HIGH_X1024`].
pub const FLOOR_LOW_X1024: u64 = 200;

/// Autoscale band, ×1024 utilization: the live replica count steps up while
/// forecast utilization at the floor exceeds [`SCALE_HIGH_X1024`] (at most
/// one replica per window) and steps down when one fewer replica would sit
/// at or under [`SCALE_LOW_X1024`], within `max(1, pool/4)..=pool`.
pub const SCALE_HIGH_X1024: u64 = 700;

/// Lower edge of the autoscale band; see [`SCALE_HIGH_X1024`].
pub const SCALE_LOW_X1024: u64 = 350;

/// Work stealing triggers when the deepest live queue exceeds the
/// shallowest by at least this many requests.
pub const STEAL_THRESHOLD: usize = 4;

/// Most requests one steal moves.
pub const STEAL_MAX: usize = 4;

/// Controller configuration: the estimator window plus the two optional
/// mechanisms. The predictive floor always runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlConfig {
    /// Estimator window length in nanoseconds (≥ 1). Windows roll on
    /// arrival timestamps, so the estimator — like everything else in the
    /// contract — is clocked by the trace, not the host.
    pub window_ns: u64,
    /// Scale the live replica count within `max(1, pool/4)..=pool`, or keep
    /// every replica live.
    pub autoscale: bool,
    /// Rebalance queues by bounded work stealing after each batch launch.
    pub steal: bool,
}

impl Validate for ControlConfig {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.window_ns == 0 {
            return Err(ConfigError::ZeroControlWindow);
        }
        Ok(())
    }
}

/// Integer fixed-point EWMA of arrivals per window — the forecast the
/// controller acts on.
///
/// The estimator is clocked by arrival timestamps: `observe_arrival(t)`
/// first folds every window boundary at or before `t` into the estimate
/// (`rate ← α·count + (1−α)·rate`, all ×1024 integer arithmetic), then
/// counts the arrival into the open window. Long idle gaps fast-forward in
/// O(1) once the estimate has decayed to zero, so a sparse trace cannot
/// make observation cost unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateEstimator {
    alpha_x1024: u64,
    window_ns: u64,
    window_start_ns: u64,
    in_window: u64,
    rate_x1024: u64,
}

impl RateEstimator {
    /// A fresh estimator (rate 0) with the given smoothing weight (×1024,
    /// clamped to `1..=1024`) and window (at least 1 ns).
    pub fn new(alpha_x1024: u64, window_ns: u64) -> RateEstimator {
        RateEstimator {
            alpha_x1024: alpha_x1024.clamp(1, 1024),
            window_ns: window_ns.max(1),
            window_start_ns: 0,
            in_window: 0,
            rate_x1024: 0,
        }
    }

    /// Current smoothed arrivals-per-window estimate, ×1024.
    pub fn rate_x1024(&self) -> u64 {
        self.rate_x1024
    }

    /// The open window's start timestamp in ns.
    pub fn window_start_ns(&self) -> u64 {
        self.window_start_ns
    }

    /// The configured window length in ns.
    pub fn window_ns(&self) -> u64 {
        self.window_ns
    }

    /// Folds the closed window into the estimate and opens the next one.
    fn roll_once(&mut self) {
        let alpha = u128::from(self.alpha_x1024);
        let blended = alpha * u128::from(self.in_window) * 1024
            + (1024 - alpha) * u128::from(self.rate_x1024);
        self.rate_x1024 = (blended / 1024).min(u128::from(u64::MAX)) as u64;
        self.in_window = 0;
        self.window_start_ns = self.window_start_ns.saturating_add(self.window_ns);
    }

    /// True when the window holding `t_ns` is past the open one.
    fn needs_roll(&self, t_ns: u64) -> bool {
        t_ns >= self.window_start_ns.saturating_add(self.window_ns)
    }

    /// Jumps the open window forward to the one holding `t_ns` — only
    /// correct once the estimate has decayed to zero (every skipped roll
    /// would be a no-op).
    fn fast_forward(&mut self, t_ns: u64) {
        debug_assert_eq!(self.rate_x1024, 0);
        debug_assert_eq!(self.in_window, 0);
        let skip = (t_ns - self.window_start_ns) / self.window_ns;
        self.window_start_ns = self
            .window_start_ns
            .saturating_add(skip.saturating_mul(self.window_ns));
    }

    /// Observes one arrival at `t_ns` (non-decreasing across calls): rolls
    /// every window boundary at or before `t_ns`, then counts the arrival.
    pub fn observe_arrival(&mut self, t_ns: u64) {
        while self.needs_roll(t_ns) {
            self.roll_once();
            if self.rate_x1024 == 0 && self.in_window == 0 {
                self.fast_forward(t_ns);
                break;
            }
        }
        self.in_window += 1;
    }
}

/// One controller decision, timestamped at the estimator-window boundary
/// (scale/shift) or batch-launch instant (steal) that produced it — part of
/// the extended lockstep contract: the threaded pool and the simulator
/// record bit-identical event streams on the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEvent {
    /// Virtual timestamp of the decision in ns.
    pub at_ns: u64,
    /// What the controller decided.
    pub kind: ControlEventKind,
}

/// The decision a [`ControlEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEventKind {
    /// The predictive floor moved (up under forecast load, down one rung
    /// with hysteresis when load clears).
    PredictiveShift {
        /// Floor rung before the shift.
        from: usize,
        /// Floor rung after the shift.
        to: usize,
    },
    /// The live replica count grew by one.
    ScaleUp {
        /// Live count before.
        from: usize,
        /// Live count after.
        to: usize,
    },
    /// The live replica count shrank by one; replica index `to` was
    /// deactivated and its queue drained through the handoff rule.
    ScaleDown {
        /// Live count before.
        from: usize,
        /// Live count after (also the deactivated replica's index).
        to: usize,
    },
    /// `moved` queued requests moved from the tail of replica `from`'s
    /// queue to replica `to`'s.
    Steal {
        /// The deepest (victim) replica.
        from: usize,
        /// The shallowest (thief) replica.
        to: usize,
        /// Requests moved.
        moved: usize,
    },
}

/// The deterministic pool-level controller of the scheduling core.
///
/// Construction derives per-rung request cost from the same
/// [`crate::sim::ServiceModel`] the virtual clock runs on; thereafter the
/// core calls [`Self::on_arrival`] at every admission (before routing) and
/// [`Self::steal_check`] after every batch launch, and applies the returned
/// events mechanically. All state transitions happen inside the controller.
#[derive(Debug, Clone)]
pub struct PoolController {
    cfg: ControlConfig,
    /// Virtual cost of one single-request batch at each ladder rung in ns —
    /// the unit the utilization forecast is denominated in.
    rung_work_ns: Vec<u64>,
    pool_replicas: usize,
    estimator: RateEstimator,
    floor: usize,
    live: usize,
    events: Vec<ControlEvent>,
    dropped_events: u64,
    replica_ns: u128,
    last_live_change_ns: u64,
}

impl PoolController {
    /// Builds a controller for a pool of `pool_replicas` workers over a
    /// ladder whose rung `m` serves one request in `rung_work_ns[m]` virtual
    /// nanoseconds (must be non-empty; derive it from
    /// [`crate::sim::ServiceModel::single_ns`] per session).
    ///
    /// The live count starts at the full pool — the controller scales
    /// *down* into lulls rather than starting cold.
    ///
    /// # Errors
    ///
    /// Any [`ControlConfig`] validation error.
    pub fn new(
        cfg: ControlConfig,
        rung_work_ns: Vec<u64>,
        pool_replicas: usize,
    ) -> Result<PoolController, ConfigError> {
        cfg.validate()?;
        assert!(
            !rung_work_ns.is_empty(),
            "controller needs at least one ladder rung"
        );
        Ok(PoolController {
            estimator: RateEstimator::new(ALPHA_X1024, cfg.window_ns),
            cfg,
            rung_work_ns,
            pool_replicas,
            floor: 0,
            live: pool_replicas,
            events: Vec::new(),
            dropped_events: 0,
            replica_ns: 0,
            last_live_change_ns: 0,
        })
    }

    /// Replicas currently live (routed to and stolen among). Indices at or
    /// past this count are deactivated.
    pub fn live(&self) -> usize {
        self.live
    }

    /// The predictive ladder floor under every replica's reactive mode.
    pub fn floor(&self) -> usize {
        self.floor
    }

    /// The rung a batch executes at: the reactive mode raised to the
    /// predictive floor, clamped to the ladder.
    pub fn effective_mode(&self, reactive_mode: usize) -> usize {
        reactive_mode
            .max(self.floor)
            .min(self.rung_work_ns.len() - 1)
    }

    /// Read access to the shared estimator.
    pub fn estimator(&self) -> &RateEstimator {
        &self.estimator
    }

    /// Events recorded so far (capped at
    /// [`crate::config::CONTROL_LOG_CAP`]).
    pub fn events(&self) -> &[ControlEvent] {
        &self.events
    }

    /// Events that applied but were not retained past the cap.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Consumes the controller, yielding the event log and the overflow
    /// count.
    pub fn into_events(self) -> (Vec<ControlEvent>, u64) {
        (self.events, self.dropped_events)
    }

    /// Forecast utilization ×1024 (1024 = every live replica busy): the
    /// expected service demand per window at rung `rung` over `live`
    /// replicas' capacity.
    fn util_x1024(&self, rate_x1024: u64, live: usize, rung: usize) -> u64 {
        let demand = u128::from(rate_x1024) * u128::from(self.rung_work_ns[rung]);
        let capacity = live.max(1) as u128 * u128::from(self.cfg.window_ns);
        (demand / capacity).min(u128::from(u64::MAX)) as u64
    }

    fn push_event(&mut self, at_ns: u64, kind: ControlEventKind) -> ControlEvent {
        let event = ControlEvent { at_ns, kind };
        if self.events.len() < CONTROL_LOG_CAP {
            self.events.push(event);
        } else {
            self.dropped_events += 1;
        }
        event
    }

    /// Accumulates replica-seconds up to `at_ns` and moves the live count.
    fn set_live(&mut self, at_ns: u64, to: usize) {
        self.replica_ns +=
            self.live as u128 * u128::from(at_ns.saturating_sub(self.last_live_change_ns));
        self.last_live_change_ns = self.last_live_change_ns.max(at_ns);
        self.live = to;
    }

    /// One controller evaluation at window boundary `at_ns`: predictive
    /// floor first (it changes the rung the utilization forecast runs at),
    /// then at most one autoscale step.
    fn evaluate(&mut self, at_ns: u64, out: &mut Vec<ControlEvent>) {
        let rate = self.estimator.rate_x1024;
        let rungs = self.rung_work_ns.len();
        let target = (0..rungs)
            .find(|&m| self.util_x1024(rate, self.live, m) <= FLOOR_HIGH_X1024)
            .unwrap_or(rungs - 1);
        if target > self.floor {
            let ev = self.push_event(
                at_ns,
                ControlEventKind::PredictiveShift {
                    from: self.floor,
                    to: target,
                },
            );
            out.push(ev);
            self.floor = target;
        } else if target < self.floor
            && self.util_x1024(rate, self.live, self.floor - 1) <= FLOOR_LOW_X1024
        {
            let ev = self.push_event(
                at_ns,
                ControlEventKind::PredictiveShift {
                    from: self.floor,
                    to: self.floor - 1,
                },
            );
            out.push(ev);
            self.floor -= 1;
        }
        if self.cfg.autoscale {
            if self.live < self.pool_replicas
                && self.util_x1024(rate, self.live, self.floor) > SCALE_HIGH_X1024
            {
                let ev = self.push_event(
                    at_ns,
                    ControlEventKind::ScaleUp {
                        from: self.live,
                        to: self.live + 1,
                    },
                );
                out.push(ev);
                self.set_live(at_ns, self.live + 1);
            } else if self.live > (self.pool_replicas / 4).max(1)
                && self.util_x1024(rate, self.live - 1, self.floor) <= SCALE_LOW_X1024
            {
                let ev = self.push_event(
                    at_ns,
                    ControlEventKind::ScaleDown {
                        from: self.live,
                        to: self.live - 1,
                    },
                );
                out.push(ev);
                self.set_live(at_ns, self.live - 1);
            }
        }
    }

    /// Observes one arrival at `t_ns` (non-decreasing): rolls the estimator
    /// over every window boundary at or before `t_ns`, re-evaluating the
    /// controller at each boundary, and returns the events produced — the
    /// driver applies [`ControlEventKind::ScaleDown`] by draining the
    /// deactivated replica's queue through the handoff rule, and gates
    /// routing eligibility on [`Self::live`]. Idle gaps fast-forward once
    /// the estimate has decayed and the controller reached its fixed point.
    pub fn on_arrival(&mut self, t_ns: u64) -> Vec<ControlEvent> {
        let mut out = Vec::new();
        while self.estimator.needs_roll(t_ns) {
            let boundary = self
                .estimator
                .window_start_ns
                .saturating_add(self.estimator.window_ns);
            self.estimator.roll_once();
            let before = out.len();
            self.evaluate(boundary, &mut out);
            if self.estimator.rate_x1024 == 0
                && self.estimator.in_window == 0
                && out.len() == before
            {
                self.estimator.fast_forward(t_ns);
                break;
            }
        }
        self.estimator.in_window += 1;
        out
    }

    /// Steal evaluation after a batch launch at `at_ns`: `depths` holds
    /// `(replica index, queue length)` for every live, non-crashed,
    /// admitting replica in ascending index order; `capacity` bounds the
    /// thief's queue. Returns the steal event to apply — move `moved`
    /// requests from the tail of `from`'s queue to the tail of `to`'s — or
    /// `None` when balanced or when stealing is off. Deepest and shallowest
    /// tie-break to the lowest index; a steal needs an imbalance of at least
    /// [`STEAL_THRESHOLD`], and moves half of it, clamped to [`STEAL_MAX`]
    /// and the thief's free capacity.
    pub fn steal_check(
        &mut self,
        at_ns: u64,
        depths: &[(usize, usize)],
        capacity: usize,
    ) -> Option<ControlEvent> {
        if !self.cfg.steal || depths.len() < 2 {
            return None;
        }
        let mut deep = depths[0];
        let mut shallow = depths[0];
        for &d in &depths[1..] {
            if d.1 > deep.1 {
                deep = d;
            }
            if d.1 < shallow.1 {
                shallow = d;
            }
        }
        let diff = deep.1 - shallow.1;
        if diff < STEAL_THRESHOLD {
            return None;
        }
        let moved = (diff / 2)
            .clamp(1, STEAL_MAX)
            .min(capacity.saturating_sub(shallow.1));
        if moved == 0 {
            return None;
        }
        Some(self.push_event(
            at_ns,
            ControlEventKind::Steal {
                from: deep.0,
                to: shallow.0,
                moved,
            },
        ))
    }

    /// Closes the replica-seconds account at the run's makespan and returns
    /// total live-replica nanoseconds — the cost axis autoscaling trades
    /// against sheds. Call once, after the last event.
    pub fn finalize_replica_ns(&mut self, makespan_ns: u64) -> u64 {
        self.replica_ns +=
            self.live as u128 * u128::from(makespan_ns.saturating_sub(self.last_live_change_ns));
        self.last_live_change_ns = self.last_live_change_ns.max(makespan_ns);
        self.replica_ns.min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1000 ns estimator window with the given optional mechanisms.
    fn cfg(autoscale: bool, steal: bool) -> ControlConfig {
        ControlConfig {
            window_ns: 1_000,
            autoscale,
            steal,
        }
    }

    #[test]
    fn config_validation_catches_every_bad_field() {
        assert_eq!(cfg(true, true).validate(), Ok(()));
        let zero_window = ControlConfig {
            window_ns: 0,
            ..cfg(true, true)
        };
        assert_eq!(zero_window.validate(), Err(ConfigError::ZeroControlWindow));
        assert_eq!(
            PoolController::new(zero_window, vec![100], 2).err(),
            Some(ConfigError::ZeroControlWindow)
        );
    }

    #[test]
    fn estimator_converges_to_a_constant_rate() {
        let mut est = RateEstimator::new(256, 1_000);
        // 5 arrivals per 1000 ns window, 200 windows: the EWMA must settle
        // on exactly 5 × 1024 (integer arithmetic converges to the fixed
        // point from below and stays).
        for w in 0..200u64 {
            for k in 0..5u64 {
                est.observe_arrival(w * 1_000 + k * 100);
            }
        }
        est.observe_arrival(200 * 1_000); // roll the last window
        let settled = est.rate_x1024();
        assert!(
            (5 * 1024 - 8..=5 * 1024).contains(&settled),
            "settled at {settled}"
        );
    }

    #[test]
    fn estimator_responds_monotonically_to_a_step() {
        // Step from 2/window up to 10/window: the estimate must rise
        // monotonically toward the new level, never overshooting it.
        let mut est = RateEstimator::new(256, 1_000);
        for w in 0..50u64 {
            est.observe_arrival(w * 1_000);
            est.observe_arrival(w * 1_000 + 500);
        }
        let before = est.rate_x1024();
        let mut prev = before;
        for w in 50..120u64 {
            for k in 0..10u64 {
                est.observe_arrival(w * 1_000 + k * 100);
            }
            let now = est.rate_x1024();
            assert!(now >= prev, "window {w}: {now} < {prev}");
            assert!(now <= 10 * 1024, "window {w}: overshoot to {now}");
            prev = now;
        }
        assert!(prev > before * 3, "step must move the estimate: {prev}");
    }

    #[test]
    fn estimator_fast_forwards_long_idle_gaps() {
        let mut est = RateEstimator::new(1024, 1_000);
        est.observe_arrival(100);
        // A gap of ~10^15 windows must terminate (decay to zero, then O(1)
        // fast-forward) and land the open window on the arrival.
        est.observe_arrival(1_000_000_000_000_000_000);
        assert_eq!(est.rate_x1024(), 0);
        assert!(est.window_start_ns() <= 1_000_000_000_000_000_000);
        assert!(!est.needs_roll(1_000_000_000_000_000_000));
    }

    #[test]
    fn predictive_floor_rises_before_queues_and_falls_with_hysteresis() {
        // Rung costs 1000/500/250 ns vs a 1000 ns window: one replica
        // saturates at 1 req/window dense, 2 at 2T, 4 at 4T.
        let mut ctrl = PoolController::new(cfg(false, false), vec![1_000, 500, 250], 1).unwrap();
        assert_eq!(ctrl.effective_mode(0), 0);
        // 3 arrivals/window sustained: dense util 3.0, 2T util 1.5, 4T 0.75,
        // all above the 600/1024 high mark — the floor must climb to the top
        // rung from the forecast alone.
        let mut t = 0u64;
        for w in 0..40u64 {
            for k in 0..3u64 {
                t = w * 1_000 + k * 300;
                ctrl.on_arrival(t);
            }
        }
        assert_eq!(ctrl.floor(), 2, "events: {:?}", ctrl.events());
        assert_eq!(ctrl.effective_mode(0), 2, "floor overrides reactive");
        assert_eq!(ctrl.effective_mode(1), 2);
        // Load vanishes: the floor steps down one rung per window only once
        // the rung below clears the 200/1024 low mark (hysteresis), ending
        // at 0.
        ctrl.on_arrival(t + 200_000);
        assert_eq!(ctrl.floor(), 0, "events: {:?}", ctrl.events());
        let shifts: Vec<_> = ctrl
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::PredictiveShift { .. }))
            .collect();
        assert!(shifts.len() >= 3, "up shift plus two down shifts");
        // Down shifts are single-rung; boundaries are window-aligned.
        for e in ctrl.events() {
            assert_eq!(e.at_ns % 1_000, 0);
            if let ControlEventKind::PredictiveShift { from, to } = e.kind {
                assert!(to > from || from - to == 1);
            }
        }
    }

    #[test]
    fn autoscale_steps_within_bounds_and_accounts_replica_seconds() {
        // One rung, so the floor never moves and only autoscaling acts. A
        // pool of 8 scales within max(1, 8/4) = 2 ..= 8.
        let mut ctrl = PoolController::new(cfg(true, false), vec![1_000], 8).unwrap();
        assert_eq!(ctrl.live(), 8, "starts at the ceiling");
        // One arrival per window: the forecast climbs toward 1 request per
        // window, and the pool steps down one replica per window while
        // `live - 1` replicas would sit under the 350/1024 low mark. It
        // settles at 3, where two replicas would run at ~0.5.
        for w in 0..20u64 {
            ctrl.on_arrival(w * 1_000);
        }
        assert_eq!(ctrl.live(), 3, "events: {:?}", ctrl.events());
        let downs = ctrl
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::ScaleDown { .. }))
            .count();
        assert_eq!(downs, 5);
        // Burst of 8/window: utilization stays above the 700/1024 high mark
        // all the way up, so the pool scales up one per window back to the
        // ceiling of 8.
        for w in 20..40u64 {
            for k in 0..8u64 {
                ctrl.on_arrival(w * 1_000 + k * 100);
            }
        }
        assert_eq!(ctrl.live(), 8, "events: {:?}", ctrl.events());
        // A long lull: the forecast decays and the pool scales down one per
        // window, stopping at the floor of 2.
        ctrl.on_arrival(60_000);
        assert_eq!(ctrl.live(), 2, "events: {:?}", ctrl.events());
        // Replica-seconds: strictly fewer than always-8, more than
        // always-2, and exact at the event boundaries.
        let makespan = 60_000;
        let total = ctrl.finalize_replica_ns(makespan);
        assert!(total < 8 * makespan, "scaling down must save capacity");
        assert!(total > 2 * makespan);
        // Recompute from the event log — the account must reconcile.
        let mut expect = 0u64;
        let mut live = 8u64;
        let mut last = 0u64;
        for e in ctrl.events() {
            if let ControlEventKind::ScaleUp { to, .. } | ControlEventKind::ScaleDown { to, .. } =
                e.kind
            {
                expect += live * (e.at_ns - last);
                live = to as u64;
                last = e.at_ns;
            }
        }
        expect += live * (makespan - last);
        assert_eq!(total, expect);
    }

    #[test]
    fn steal_targets_deepest_to_shallowest_with_bounds() {
        let mut ctrl = PoolController::new(cfg(false, true), vec![1_000], 4).unwrap();
        // Balanced: no steal.
        assert_eq!(
            ctrl.steal_check(10, &[(0, 3), (1, 2), (2, 3), (3, 1)], 64),
            None
        );
        // Imbalanced: half the diff, capped at STEAL_MAX.
        let ev = ctrl
            .steal_check(20, &[(0, 12), (1, 2), (2, 3), (3, 9)], 64)
            .expect("imbalance 10 triggers");
        assert_eq!(
            ev.kind,
            ControlEventKind::Steal {
                from: 0,
                to: 1,
                moved: STEAL_MAX
            }
        );
        assert_eq!(ev.at_ns, 20);
        // Ties break to the lowest index on both ends.
        let ev = ctrl
            .steal_check(30, &[(0, 7), (1, 1), (2, 7), (3, 1)], 64)
            .expect("triggers");
        assert_eq!(
            ev.kind,
            ControlEventKind::Steal {
                from: 0,
                to: 1,
                moved: 3
            }
        );
        // The thief's free capacity clamps the transfer; zero room → no
        // steal at all.
        let ev = ctrl
            .steal_check(40, &[(0, 61), (1, 70)], 64)
            .expect("imbalance 9 triggers");
        assert_eq!(
            ev.kind,
            ControlEventKind::Steal {
                from: 1,
                to: 0,
                moved: 3
            }
        );
        assert_eq!(ctrl.steal_check(50, &[(0, 64), (1, 70)], 64), None);
        // A single live replica can never steal.
        assert_eq!(ctrl.steal_check(60, &[(0, 99)], 64), None);
        // With stealing off the check is inert.
        let mut off = PoolController::new(cfg(true, false), vec![1_000], 4).unwrap();
        assert_eq!(off.steal_check(70, &[(0, 99), (1, 0)], 64), None);
    }

    #[test]
    fn event_log_caps_retention_but_not_behavior() {
        // Every fourth window holds 2 arrivals and the three after it none:
        // the forecast jumps to ~1 request per window (dense utilization
        // above the 600/1024 high mark, so the floor rises) and halves
        // through the quiet windows until dense fits under the 200/1024 low
        // mark (so the floor falls) — two shifts per period, far past the
        // cap.
        let mut ctrl = PoolController::new(cfg(false, false), vec![1_000, 500], 1).unwrap();
        let periods = CONTROL_LOG_CAP as u64 / 2 + 64;
        let mut flips = 0u64;
        for p in 0..periods {
            for k in 0..2u64 {
                flips += ctrl
                    .on_arrival(p * 4_000 + k * 100)
                    .iter()
                    .filter(|e| matches!(e.kind, ControlEventKind::PredictiveShift { .. }))
                    .count() as u64;
            }
        }
        assert_eq!(ctrl.events().len(), CONTROL_LOG_CAP);
        assert!(ctrl.dropped_events() > 0, "flips observed: {flips}");
        assert!(
            flips > CONTROL_LOG_CAP as u64,
            "the floor kept flipping past the cap: {flips}"
        );
        let (events, dropped) = ctrl.into_events();
        assert_eq!(events.len(), CONTROL_LOG_CAP);
        assert!(dropped > 0);
    }
}
