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
//!   rung is `max(reactive mode, predictive floor)`.
//! * **Autoscaling** — the live replica count scales up/down within
//!   `[min_replicas, max_replicas]` against a target utilization band.
//!   Scale-down drains the victim's queue through the crash-handoff rule
//!   ([`crate::faults::pick_handoff_target`]), so permits reconcile exactly
//!   as they do for crashes.
//! * **Work stealing** — after each batch launch the controller may move a
//!   bounded number of not-yet-batched requests from the deepest to the
//!   shallowest live queue ([`StealConfig`]), taming routing skew that
//!   [`crate::config::RoutePolicy::Hashed`] affinity can produce.
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

/// Predictive mode-switching band: the controller raises the ladder floor
/// while forecast utilization at the current floor exceeds `util_high_x1024`
/// and lowers it one rung when the rung below would sit at or under
/// `util_low_x1024` (hysteresis, exactly like the reactive depth band).
///
/// Utilization is ×1024 fixed point: 1024 = 100% of the live replicas busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictiveConfig {
    /// Escalate the floor while forecast utilization exceeds this (×1024).
    pub util_high_x1024: u64,
    /// De-escalate one rung when the rung below fits under this (×1024).
    pub util_low_x1024: u64,
}

/// Autoscaling band: the live replica count steps up while forecast
/// utilization exceeds `util_high_x1024` (at most one replica per estimator
/// window) and steps down when one fewer replica would still sit at or
/// under `util_low_x1024`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Fewest live replicas the controller may scale down to (≥ 1).
    pub min_replicas: usize,
    /// Most live replicas the controller may scale up to (capped at the
    /// pool's allocated replica count).
    pub max_replicas: usize,
    /// Scale up while forecast utilization exceeds this (×1024).
    pub util_high_x1024: u64,
    /// Scale down when `live - 1` replicas would fit under this (×1024).
    pub util_low_x1024: u64,
}

/// Bounded work stealing: after each batch launch, if the deepest live
/// queue exceeds the shallowest by at least `imbalance_threshold`, up to
/// `max_steal` not-yet-batched requests move from the deep queue's tail to
/// the shallow one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealConfig {
    /// Minimum depth difference (deepest − shallowest) that triggers a
    /// steal (≥ 1).
    pub imbalance_threshold: usize,
    /// Most requests one steal may move (≥ 1).
    pub max_steal: usize,
}

/// Full controller configuration: the shared EWMA estimator plus the three
/// independently optional mechanisms. With all three `None` the controller
/// is a pure observer (it still estimates the rate and accounts
/// replica-seconds, but never intervenes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlConfig {
    /// EWMA smoothing weight ×1024, in `1..=1024` (1024 = no smoothing:
    /// each window replaces the estimate).
    pub alpha_x1024: u64,
    /// Estimator window length in nanoseconds (≥ 1). Windows roll on
    /// arrival timestamps, so the estimator — like everything else in the
    /// contract — is clocked by the trace, not the host.
    pub window_ns: u64,
    /// Predictive mode switching, or `None` to leave the ladder fully
    /// reactive.
    pub predictive: Option<PredictiveConfig>,
    /// Replica autoscaling, or `None` to keep every replica live.
    pub autoscale: Option<AutoscaleConfig>,
    /// Bounded work stealing, or `None` to never rebalance queues.
    pub steal: Option<StealConfig>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            alpha_x1024: 256,
            window_ns: 4_000_000, // 4 ms
            predictive: None,
            autoscale: None,
            steal: None,
        }
    }
}

impl Validate for ControlConfig {
    type Error = ConfigError;

    fn validate(&self) -> Result<(), ConfigError> {
        if self.window_ns == 0 {
            return Err(ConfigError::ZeroControlWindow);
        }
        if self.alpha_x1024 == 0 || self.alpha_x1024 > 1024 {
            return Err(ConfigError::ControlAlphaOutOfRange {
                alpha_x1024: self.alpha_x1024,
            });
        }
        for band in [
            self.predictive
                .map(|p| (p.util_low_x1024, p.util_high_x1024)),
            self.autoscale
                .map(|a| (a.util_low_x1024, a.util_high_x1024)),
        ]
        .into_iter()
        .flatten()
        {
            if band.0 > band.1 {
                return Err(ConfigError::InvertedUtilBand {
                    low_x1024: band.0,
                    high_x1024: band.1,
                });
            }
        }
        if let Some(a) = self.autoscale {
            if a.min_replicas == 0 {
                return Err(ConfigError::ZeroMinReplicas);
            }
            if a.min_replicas > a.max_replicas {
                return Err(ConfigError::InvertedReplicaBounds {
                    min: a.min_replicas,
                    max: a.max_replicas,
                });
            }
        }
        if let Some(s) = self.steal {
            if s.imbalance_threshold == 0 {
                return Err(ConfigError::ZeroStealThreshold);
            }
            if s.max_steal == 0 {
                return Err(ConfigError::ZeroStealMax);
            }
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
    /// A fresh estimator (rate 0) with the given smoothing weight and
    /// window, both as validated by [`ControlConfig`].
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
    /// The live count starts at `min(max_replicas, pool_replicas)` (or the
    /// full pool without autoscaling) — the controller scales *down* into
    /// lulls rather than starting cold.
    ///
    /// # Errors
    ///
    /// Any [`ControlConfig`] validation error, plus
    /// [`ConfigError::InvertedReplicaBounds`] when `min_replicas` exceeds
    /// the pool's allocated replica count (the effective ceiling).
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
        let live = match cfg.autoscale {
            Some(a) => {
                if a.min_replicas > pool_replicas {
                    return Err(ConfigError::InvertedReplicaBounds {
                        min: a.min_replicas,
                        max: pool_replicas,
                    });
                }
                a.max_replicas.min(pool_replicas)
            }
            None => pool_replicas,
        };
        Ok(PoolController {
            estimator: RateEstimator::new(cfg.alpha_x1024, cfg.window_ns),
            cfg,
            rung_work_ns,
            pool_replicas,
            floor: 0,
            live,
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
        if let Some(p) = self.cfg.predictive {
            let rungs = self.rung_work_ns.len();
            let target = (0..rungs)
                .find(|&m| self.util_x1024(rate, self.live, m) <= p.util_high_x1024)
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
                && self.util_x1024(rate, self.live, self.floor - 1) <= p.util_low_x1024
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
        }
        if let Some(a) = self.cfg.autoscale {
            let ceiling = a.max_replicas.min(self.pool_replicas);
            if self.live < ceiling
                && self.util_x1024(rate, self.live, self.floor) > a.util_high_x1024
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
            } else if self.live > a.min_replicas
                && self.util_x1024(rate, self.live - 1, self.floor) <= a.util_low_x1024
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
    /// `None` when balanced. Deepest and shallowest tie-break to the lowest
    /// index; the transfer size is half the imbalance, clamped to
    /// `max_steal` and the thief's free capacity.
    pub fn steal_check(
        &mut self,
        at_ns: u64,
        depths: &[(usize, usize)],
        capacity: usize,
    ) -> Option<ControlEvent> {
        let s = self.cfg.steal?;
        if depths.len() < 2 {
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
        if diff < s.imbalance_threshold {
            return None;
        }
        let moved = (diff / 2)
            .max(1)
            .min(s.max_steal)
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

    fn predictive_cfg() -> ControlConfig {
        ControlConfig {
            alpha_x1024: 512,
            window_ns: 1_000,
            predictive: Some(PredictiveConfig {
                util_high_x1024: 900,
                util_low_x1024: 500,
            }),
            autoscale: None,
            steal: None,
        }
    }

    #[test]
    fn config_validation_catches_every_bad_field() {
        assert_eq!(ControlConfig::default().validate(), Ok(()));
        let zero_window = ControlConfig {
            window_ns: 0,
            ..ControlConfig::default()
        };
        assert_eq!(zero_window.validate(), Err(ConfigError::ZeroControlWindow));
        for alpha in [0u64, 1025] {
            let bad = ControlConfig {
                alpha_x1024: alpha,
                ..ControlConfig::default()
            };
            assert_eq!(
                bad.validate(),
                Err(ConfigError::ControlAlphaOutOfRange { alpha_x1024: alpha })
            );
        }
        let inverted = ControlConfig {
            predictive: Some(PredictiveConfig {
                util_high_x1024: 100,
                util_low_x1024: 200,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(
            inverted.validate(),
            Err(ConfigError::InvertedUtilBand {
                low_x1024: 200,
                high_x1024: 100
            })
        );
        let zero_min = ControlConfig {
            autoscale: Some(AutoscaleConfig {
                min_replicas: 0,
                max_replicas: 4,
                util_high_x1024: 900,
                util_low_x1024: 400,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(zero_min.validate(), Err(ConfigError::ZeroMinReplicas));
        let inverted_bounds = ControlConfig {
            autoscale: Some(AutoscaleConfig {
                min_replicas: 8,
                max_replicas: 4,
                util_high_x1024: 900,
                util_low_x1024: 400,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(
            inverted_bounds.validate(),
            Err(ConfigError::InvertedReplicaBounds { min: 8, max: 4 })
        );
        let zero_threshold = ControlConfig {
            steal: Some(StealConfig {
                imbalance_threshold: 0,
                max_steal: 2,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(
            zero_threshold.validate(),
            Err(ConfigError::ZeroStealThreshold)
        );
        let zero_steal = ControlConfig {
            steal: Some(StealConfig {
                imbalance_threshold: 4,
                max_steal: 0,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(zero_steal.validate(), Err(ConfigError::ZeroStealMax));
        // min_replicas above the pool's allocation is rejected at
        // construction, where the effective ceiling is known.
        let cfg = ControlConfig {
            autoscale: Some(AutoscaleConfig {
                min_replicas: 4,
                max_replicas: 8,
                util_high_x1024: 900,
                util_low_x1024: 400,
            }),
            ..ControlConfig::default()
        };
        assert_eq!(
            PoolController::new(cfg, vec![100], 2).err(),
            Some(ConfigError::InvertedReplicaBounds { min: 4, max: 2 })
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
        let mut ctrl = PoolController::new(predictive_cfg(), vec![1_000, 500, 250], 1).unwrap();
        assert_eq!(ctrl.effective_mode(0), 0);
        // 3 arrivals/window sustained: dense util 3.0, 2T util 1.5, 4T 0.75
        // — the floor must climb to rung 2 from the forecast alone.
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
        // the rung below clears util_low (hysteresis), ending at 0.
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
        let cfg = ControlConfig {
            alpha_x1024: 1024, // no smoothing: each window replaces the rate
            window_ns: 1_000,
            predictive: None,
            autoscale: Some(AutoscaleConfig {
                min_replicas: 1,
                max_replicas: 4,
                util_high_x1024: 900,
                util_low_x1024: 600,
            }),
            steal: None,
        };
        let mut ctrl = PoolController::new(cfg, vec![1_000], 4).unwrap();
        assert_eq!(ctrl.live(), 4, "starts at the ceiling");
        // One arrival per window: util at 3 replicas is ~0.33 ≤ 0.586 —
        // scale down one step per window until... util at live-1 replicas
        // must fit under util_low: at live=2, util(1) = 1.0 > 0.586, so the
        // controller settles at 2, never at min.
        for w in 0..20u64 {
            ctrl.on_arrival(w * 1_000);
        }
        assert_eq!(ctrl.live(), 2, "events: {:?}", ctrl.events());
        let downs = ctrl
            .events()
            .iter()
            .filter(|e| matches!(e.kind, ControlEventKind::ScaleDown { .. }))
            .count();
        assert_eq!(downs, 2);
        // Burst of 8/window: util at 2 replicas is 4.0 > 0.879 — scale up
        // one per window back to the ceiling of 4.
        for w in 20..40u64 {
            for k in 0..8u64 {
                ctrl.on_arrival(w * 1_000 + k * 100);
            }
        }
        assert_eq!(ctrl.live(), 4, "events: {:?}", ctrl.events());
        // Replica-seconds: strictly fewer than always-4, more than
        // always-2, and exact at the event boundaries.
        let makespan = 40_000;
        let total = ctrl.finalize_replica_ns(makespan);
        assert!(total < 4 * makespan, "scaling down must save capacity");
        assert!(total > 2 * makespan);
        // Recompute from the event log — the account must reconcile.
        let mut expect = 0u64;
        let mut live = 4u64;
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
        let cfg = ControlConfig {
            steal: Some(StealConfig {
                imbalance_threshold: 4,
                max_steal: 3,
            }),
            ..ControlConfig::default()
        };
        let mut ctrl = PoolController::new(cfg, vec![1_000], 4).unwrap();
        // Balanced: no steal.
        assert_eq!(
            ctrl.steal_check(10, &[(0, 3), (1, 2), (2, 3), (3, 1)], 64),
            None
        );
        // Imbalanced: half the diff, capped at max_steal.
        let ev = ctrl
            .steal_check(20, &[(0, 12), (1, 2), (2, 3), (3, 9)], 64)
            .expect("imbalance 10 triggers");
        assert_eq!(
            ev.kind,
            ControlEventKind::Steal {
                from: 0,
                to: 1,
                moved: 3
            }
        );
        assert_eq!(ev.at_ns, 20);
        // Ties break to the lowest index on both ends.
        let ev = ctrl
            .steal_check(30, &[(0, 9), (1, 1), (2, 9), (3, 1)], 64)
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
            .steal_check(40, &[(0, 12), (1, 62)], 64)
            .expect("imbalance 50 triggers");
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
        // Without a steal config the check is inert.
        let mut off = PoolController::new(ControlConfig::default(), vec![1_000], 4).unwrap();
        assert_eq!(off.steal_check(70, &[(0, 99), (1, 0)], 64), None);
    }

    #[test]
    fn event_log_caps_retention_but_not_behavior() {
        // Alternate one window hot, one cold with no smoothing: the floor
        // flips every window, two events per flip cycle, far past the cap.
        let cfg = ControlConfig {
            alpha_x1024: 1024,
            window_ns: 1_000,
            predictive: Some(PredictiveConfig {
                util_high_x1024: 1024,
                util_low_x1024: 1024,
            }),
            autoscale: None,
            steal: None,
        };
        let mut ctrl = PoolController::new(cfg, vec![1_000, 500], 1).unwrap();
        let windows = CONTROL_LOG_CAP as u64 * 2 + 64;
        let mut flips = 0u64;
        for w in 0..windows {
            if w % 2 == 0 {
                // Hot window: 3 arrivals → dense util 3.0 > 1.0.
                for k in 0..3u64 {
                    ctrl.on_arrival(w * 1_000 + k * 100);
                }
            } else {
                // Cold window: 1 arrival → dense util ≤ 1.0 at next roll.
                flips += ctrl
                    .on_arrival(w * 1_000)
                    .iter()
                    .filter(|e| matches!(e.kind, ControlEventKind::PredictiveShift { .. }))
                    .count() as u64;
            }
        }
        assert_eq!(ctrl.events().len(), CONTROL_LOG_CAP);
        assert!(ctrl.dropped_events() > 0, "flips observed: {flips}");
        assert!(flips > 0, "floor kept flipping past the cap");
        let (events, dropped) = ctrl.into_events();
        assert_eq!(events.len(), CONTROL_LOG_CAP);
        assert!(dropped > 0);
    }

    #[test]
    fn observer_controller_never_intervenes() {
        let mut ctrl = PoolController::new(ControlConfig::default(), vec![1_000, 500], 8).unwrap();
        for w in 0..100u64 {
            for k in 0..50u64 {
                assert!(ctrl.on_arrival(w * 4_000_000 + k).is_empty());
            }
        }
        assert_eq!(ctrl.live(), 8);
        assert_eq!(ctrl.floor(), 0);
        assert_eq!(ctrl.effective_mode(1), 1);
        assert!(ctrl.events().is_empty());
        // Replica-seconds still account: full fleet for the whole run.
        assert_eq!(ctrl.finalize_replica_ns(1_000_000), 8_000_000);
    }
}
