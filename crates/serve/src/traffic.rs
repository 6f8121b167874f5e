//! Seeded, deterministic traffic models for million-request load generation.
//!
//! The simulator's original arrival models — a pre-materialized open-loop
//! trace and the closed loop — stop scaling at the ROADMAP's "millions of
//! users" regime: a 10^7-arrival `Vec<u64>` is 80 MB before the first batch
//! launches. This module provides the lazy alternative: a [`TrafficModel`]
//! is a small integer-parameter description of an arrival process, and
//! [`GeneratedArrivals`] streams its `(time, key)` pairs one at a time in
//! O(1) memory. The key is the request's index in the stream.
//!
//! Determinism is the whole point, so nothing here touches the platform's
//! `libm`: exponential and power draws go through pure-Rust `ln`/`exp`
//! implementations built from IEEE-754 arithmetic only ([`det_ln`],
//! [`det_exp`]), and the stream RNG is splitmix64 — the same finalizer the
//! router's [`crate::config::route_hash`] uses. The same seed therefore
//! yields the same stream on every machine, backend, and thread count.
//!
//! Rates are integer milli-requests-per-second (`mrps`; 1000 mrps = 1
//! request/s) so every model is `Copy + Eq` and round-trips bit-exactly
//! through the bench layer's JSON specs.
//!
//! [`SizeModel`] adds heavy-tailed request *sizes*: a bounded-Pareto
//! multiplier (x1024 fixed point) that is a pure function of `(seed, key)` —
//! structurally independent of the arrival stream, so reseeding arrivals
//! never perturbs sizes and vice versa, and the threaded pool can recompute
//! the identical size from a submitted key in lockstep with the simulator.

/// Splitmix64: the stream RNG behind every generator in this module. Small,
/// seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }
}

/// Deterministic natural log for finite `x > 0`, built from IEEE-754
/// `+ - * /` only (no `libm`): mantissa/exponent split by bit twiddling,
/// then the atanh series `ln(m) = 2z(1 + z²/3 + z⁴/5 + …)` with
/// `z = (m-1)/(m+1)`, which converges past f64 precision in 16 terms for
/// `m ∈ [1/√2, √2)`.
pub fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let mut term = 1.0;
    let mut sum = 0.0;
    for k in 0..16u32 {
        sum += term / (2 * k + 1) as f64;
        term *= z2;
    }
    2.0 * z * sum + e as f64 * std::f64::consts::LN_2
}

/// Deterministic `exp(x)` companion to [`det_ln`]: argument reduction
/// `x = k·ln2 + r` with `|r| ≤ ln2/2`, a 20-term Taylor series for
/// `exp(r)`, and an exact power-of-two scale by exponent-bit construction.
pub fn det_exp(x: f64) -> f64 {
    if x > 700.0 {
        return f64::MAX;
    }
    if x < -700.0 {
        return 0.0;
    }
    let k = (x / std::f64::consts::LN_2).round();
    let r = x - k * std::f64::consts::LN_2;
    let mut term = 1.0;
    let mut sum = 1.0;
    for i in 1..=20u32 {
        term *= r / i as f64;
        sum += term;
    }
    sum * f64::from_bits(((k as i64 + 1023) as u64) << 52)
}

/// Deterministic `x^y` for `x > 0` via `exp(y·ln(x))`.
pub fn det_pow(x: f64, y: f64) -> f64 {
    det_exp(y * det_ln(x))
}

/// One exponential draw with the given mean, via inverse CDF on a
/// [`SplitMix64`] uniform. `1 - u ∈ (0, 1]` so the log argument is never 0.
fn exp_draw(rng: &mut SplitMix64, mean: f64) -> f64 {
    -det_ln(1.0 - rng.next_f64()) * mean
}

/// Nanoseconds of mean inter-arrival gap for an integer
/// milli-requests-per-second rate (1000 mrps = 1 rps = 1e9 ns gap).
fn mean_gap_ns(rate_mrps: u64) -> f64 {
    1e12 / rate_mrps.max(1) as f64
}

/// A seeded, deterministic arrival-process family. All parameters are
/// integers (`Copy + Eq`) so a model embeds directly in
/// [`crate::sim::ArrivalProcess`] and round-trips bit-exactly through JSON
/// run specs. Rates are milli-requests per second of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficModel {
    /// Homogeneous Poisson arrivals at `rate_mrps`.
    Poisson {
        /// Arrival rate [milli-requests/s].
        rate_mrps: u64,
    },
    /// Markov-modulated Poisson: a two-state (calm/burst) continuous-time
    /// Markov chain with exponential sojourns; arrivals are Poisson at the
    /// current state's rate. The classic bursty-traffic model — bursts are
    /// what push replicas up the dense→2T→4T ladder.
    Mmpp {
        /// Arrival rate in the calm state [milli-requests/s].
        calm_mrps: u64,
        /// Arrival rate in the burst state [milli-requests/s].
        burst_mrps: u64,
        /// Mean calm-state sojourn in ns.
        mean_calm_ns: u64,
        /// Mean burst-state sojourn in ns.
        mean_burst_ns: u64,
    },
    /// A diurnal rate envelope: non-homogeneous Poisson whose rate sweeps a
    /// piecewise-linear triangle wave from `trough_mrps` (phase 0) up to
    /// `peak_mrps` (phase ½) and back, with period `period_ns` — one
    /// "day" of virtual time. Generated by thinning at the peak rate.
    Diurnal {
        /// Rate at the envelope's trough [milli-requests/s].
        trough_mrps: u64,
        /// Rate at the envelope's peak [milli-requests/s].
        peak_mrps: u64,
        /// Envelope period in ns.
        period_ns: u64,
    },
}

impl TrafficModel {
    /// Rejects zero rates and periods that would stall the generator
    /// forever, as a human-readable message (the sim layer wraps
    /// it in [`crate::config::ServeError::BadRequest`]).
    pub fn check(&self) -> Result<(), String> {
        match *self {
            TrafficModel::Poisson { rate_mrps: 0 } => Err("poisson rate must be positive".into()),
            TrafficModel::Mmpp {
                calm_mrps,
                burst_mrps,
                mean_calm_ns,
                mean_burst_ns,
            } if calm_mrps == 0 || burst_mrps == 0 || mean_calm_ns == 0 || mean_burst_ns == 0 => {
                Err("mmpp rates and sojourns must be positive".into())
            }
            TrafficModel::Diurnal {
                trough_mrps,
                peak_mrps,
                period_ns,
            } if trough_mrps == 0 || peak_mrps < trough_mrps || period_ns == 0 => {
                Err("diurnal needs 0 < trough <= peak and a positive period".into())
            }
            _ => Ok(()),
        }
    }

    /// A lazy stream of the first `n` arrivals under this model with the
    /// given seed. O(1) memory — 10^7 arrivals never materialize.
    pub fn generate(self, seed: u64, n: u64) -> GeneratedArrivals {
        let mut rng = SplitMix64::new(seed);
        let state_end = match self {
            TrafficModel::Mmpp { mean_calm_ns, .. } => exp_draw(&mut rng, mean_calm_ns as f64),
            _ => 0.0,
        };
        GeneratedArrivals {
            model: self,
            rng,
            remaining: n,
            next_key: 0,
            t: 0.0,
            state: 0,
            state_end,
            occupancy: [0.0; 2],
        }
    }
}

/// One generated arrival: a virtual timestamp and the routing key the
/// request should carry, which is its index in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratedArrival {
    /// Arrival time [virtual ns], non-decreasing across the stream.
    pub time_ns: u64,
    /// Router key: feeds [`crate::config::route_hash`] under hashed routing.
    pub key: u64,
}

/// The lazy iterator over a [`TrafficModel`]'s arrival stream. Yields
/// exactly the `n` arrivals requested from [`TrafficModel::generate`], in
/// non-decreasing time order, deterministically per seed.
#[derive(Debug, Clone)]
pub struct GeneratedArrivals {
    model: TrafficModel,
    rng: SplitMix64,
    remaining: u64,
    next_key: u64,
    /// Virtual now, accumulated in f64 (emitted timestamps truncate).
    t: f64,
    /// MMPP state: 0 = calm, 1 = burst.
    state: usize,
    state_end: f64,
    occupancy: [f64; 2],
}

impl GeneratedArrivals {
    /// Virtual nanoseconds spent in each MMPP state (calm, burst) up to the
    /// last emitted arrival — the basis of the stationary-distribution
    /// property test. Zero for non-MMPP models.
    pub fn state_occupancy_ns(&self) -> [u64; 2] {
        [self.occupancy[0] as u64, self.occupancy[1] as u64]
    }

    /// The arrival at the current virtual time, keyed by its index in the
    /// stream.
    fn emit(&mut self) -> GeneratedArrival {
        let key = self.next_key;
        self.next_key += 1;
        GeneratedArrival {
            time_ns: self.t as u64,
            key,
        }
    }

    fn next_poisson(&mut self, rate_mrps: u64) -> GeneratedArrival {
        self.t += exp_draw(&mut self.rng, mean_gap_ns(rate_mrps));
        self.emit()
    }

    fn next_mmpp(
        &mut self,
        calm_mrps: u64,
        burst_mrps: u64,
        mean_calm_ns: u64,
        mean_burst_ns: u64,
    ) -> GeneratedArrival {
        loop {
            let rate = if self.state == 0 {
                calm_mrps
            } else {
                burst_mrps
            };
            let gap = exp_draw(&mut self.rng, mean_gap_ns(rate));
            if self.t + gap <= self.state_end {
                self.occupancy[self.state] += gap;
                self.t += gap;
                return self.emit();
            }
            // Crossed the sojourn boundary: advance to it, flip state, draw
            // the next sojourn, and redraw the gap — exponential arrivals
            // are memoryless, so restarting at the boundary is exact.
            self.occupancy[self.state] += self.state_end - self.t;
            self.t = self.state_end;
            self.state ^= 1;
            let mean = if self.state == 0 {
                mean_calm_ns
            } else {
                mean_burst_ns
            };
            self.state_end = self.t + exp_draw(&mut self.rng, mean as f64);
        }
    }

    fn next_diurnal(
        &mut self,
        trough_mrps: u64,
        peak_mrps: u64,
        period_ns: u64,
    ) -> GeneratedArrival {
        let peak = peak_mrps as f64;
        let trough = trough_mrps as f64;
        let period = period_ns as f64;
        loop {
            // Thinning: candidate arrivals at the peak rate, accepted with
            // probability rate(t)/peak under the triangle envelope.
            self.t += exp_draw(&mut self.rng, mean_gap_ns(peak_mrps));
            let phase = (self.t % period) / period;
            let weight = 1.0 - (2.0 * phase - 1.0).abs();
            let rate = trough + (peak - trough) * weight;
            if self.rng.next_f64() * peak <= rate {
                return self.emit();
            }
        }
    }
}

impl Iterator for GeneratedArrivals {
    type Item = GeneratedArrival;

    fn next(&mut self) -> Option<GeneratedArrival> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(match self.model {
            TrafficModel::Poisson { rate_mrps } => self.next_poisson(rate_mrps),
            TrafficModel::Mmpp {
                calm_mrps,
                burst_mrps,
                mean_calm_ns,
                mean_burst_ns,
            } => self.next_mmpp(calm_mrps, burst_mrps, mean_calm_ns, mean_burst_ns),
            TrafficModel::Diurnal {
                trough_mrps,
                peak_mrps,
                period_ns,
            } => self.next_diurnal(trough_mrps, peak_mrps, period_ns),
        })
    }
}

/// Heavy-tailed request sizes as an x1024 fixed-point work multiplier. The
/// size is a **pure function of `(seed, key)`** — no stream state — which
/// buys two properties at once: the size stream is structurally independent
/// of the arrival stream (reseeding one never perturbs the other), and the
/// threaded pool recomputes the exact same size from a submitted key, so
/// heterogeneous sizes stay inside the lockstep determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeModel {
    /// Every request is one unit of work (the historical behaviour;
    /// [`crate::sim::ServiceModel`] arithmetic is bit-identical to the
    /// pre-size model).
    Unit,
    /// Bounded Pareto on `[min_x1024, max_x1024]` with shape
    /// `alpha_x1024/1024`, via inverse CDF on a splitmix64 mix of
    /// `(seed, key)`. 1024 = 1.0× the per-request MAC cost.
    BoundedPareto {
        /// Seed of the size stream (independent of the arrival seed).
        seed: u64,
        /// Pareto shape α, x1024 (e.g. 1536 = α 1.5; smaller = heavier tail).
        alpha_x1024: u64,
        /// Smallest multiplier, x1024 (e.g. 1024 = 1.0×), ≥ 1.
        min_x1024: u64,
        /// Largest multiplier, x1024, ≥ `min_x1024`.
        max_x1024: u64,
    },
}

impl SizeModel {
    /// The work multiplier (x1024) for the request with router key `key`.
    pub fn size_x1024(&self, key: u64) -> u64 {
        match *self {
            SizeModel::Unit => 1024,
            SizeModel::BoundedPareto {
                seed,
                alpha_x1024,
                min_x1024,
                max_x1024,
            } => {
                let lo = min_x1024.max(1);
                let hi = max_x1024.max(lo);
                if lo == hi {
                    return lo;
                }
                let mut rng = SplitMix64::new(seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let u = rng.next_f64();
                let alpha = alpha_x1024.max(1) as f64 / 1024.0;
                let (l, h) = (lo as f64, hi as f64);
                // Bounded-Pareto inverse CDF:
                // x = (L^-α − u·(L^-α − H^-α))^(−1/α), clamped to [L, H].
                let la = det_pow(l, -alpha);
                let ha = det_pow(h, -alpha);
                let x = det_pow(la - u * (la - ha), -1.0 / alpha);
                (x as u64).clamp(lo, hi)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_math_matches_std_libm_closely() {
        // The pure-Rust ln/exp/pow are not required to be bit-identical to
        // the platform libm — only self-consistent and accurate. Check a
        // relative error well past what traffic generation needs.
        for &x in &[1e-9, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0, 1e6, 1e12] {
            assert!(
                (det_ln(x) - x.ln()).abs() <= 1e-12 * x.ln().abs().max(1.0),
                "ln({x})"
            );
        }
        for &x in &[-20.0f64, -1.0, -0.1, 0.0, 0.1, 1.0, 5.0, 40.0] {
            let want: f64 = x.exp();
            assert!((det_exp(x) - want).abs() <= 1e-12 * want, "exp({x})");
        }
        for &(x, y) in &[
            (2.0f64, 10.0f64),
            (1536.0, -1.5),
            (3.0, 0.5),
            (1024.0, -0.25),
        ] {
            let want: f64 = x.powf(y);
            assert!(
                (det_pow(x, y) - want).abs() <= 1e-11 * want.abs(),
                "pow({x},{y})"
            );
        }
    }

    #[test]
    fn streams_are_monotone_deterministic_and_exact_length() {
        let models = [
            TrafficModel::Poisson {
                rate_mrps: 5_000_000,
            },
            TrafficModel::Mmpp {
                calm_mrps: 1_000_000,
                burst_mrps: 20_000_000,
                mean_calm_ns: 4_000_000,
                mean_burst_ns: 1_000_000,
            },
            TrafficModel::Diurnal {
                trough_mrps: 500_000,
                peak_mrps: 8_000_000,
                period_ns: 50_000_000,
            },
        ];
        for model in models {
            assert_eq!(model.check(), Ok(()));
            let a: Vec<GeneratedArrival> = model.generate(42, 500).collect();
            let b: Vec<GeneratedArrival> = model.generate(42, 500).collect();
            assert_eq!(a, b, "{model:?} must be deterministic per seed");
            assert_eq!(a.len(), 500);
            assert!(
                a.iter().enumerate().all(|(i, x)| x.key == i as u64),
                "{model:?} keys every arrival by its index"
            );
            assert!(
                a.windows(2).all(|w| w[0].time_ns <= w[1].time_ns),
                "{model:?} stream must be monotone non-decreasing"
            );
            let c: Vec<GeneratedArrival> = model.generate(43, 500).collect();
            assert_ne!(a, c, "{model:?} must vary with the seed");
        }
    }

    #[test]
    fn zero_parameters_are_rejected() {
        assert!(TrafficModel::Poisson { rate_mrps: 0 }.check().is_err());
        assert!(TrafficModel::Mmpp {
            calm_mrps: 0,
            burst_mrps: 1,
            mean_calm_ns: 1,
            mean_burst_ns: 1
        }
        .check()
        .is_err());
        assert!(TrafficModel::Diurnal {
            trough_mrps: 5,
            peak_mrps: 4,
            period_ns: 1
        }
        .check()
        .is_err());
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_is_pure() {
        let model = SizeModel::BoundedPareto {
            seed: 99,
            alpha_x1024: 1536,
            min_x1024: 1024,
            max_x1024: 16_384,
        };
        let mut seen_above_min = false;
        for key in 0..4096u64 {
            let s = model.size_x1024(key);
            assert!((1024..=16_384).contains(&s), "size {s} out of bounds");
            assert_eq!(s, model.size_x1024(key), "pure function of (seed, key)");
            seen_above_min |= s > 1024;
        }
        assert!(seen_above_min, "the tail must actually spread");
        assert_eq!(SizeModel::Unit.size_x1024(123), 1024);
    }
}
