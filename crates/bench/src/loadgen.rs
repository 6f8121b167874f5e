//! Seeded load generation for the serving experiments.
//!
//! Arrival models, matching standard serving-benchmark methodology
//! (e.g. MLPerf Inference's server / multi-stream scenarios):
//!
//! * **Open loop** — requests arrive by a Poisson process at a fixed offered
//!   rate, independent of the server's progress. Models anonymous internet
//!   traffic; overload shows up as queueing and shed load.
//! * **Closed loop** — N clients submit, wait for the response, think, and
//!   submit again. Models a fixed client population; load self-regulates to
//!   the server's throughput.
//! * **Generated** — a lazy, seeded [`TrafficModel`] stream (Poisson, bursty
//!   MMPP, or a diurnal rate envelope): the million-request regime, where
//!   materializing a trace `Vec` is exactly what we must not do. Built by
//!   [`lazy_poisson`], [`mmpp`] and [`diurnal`].
//!
//! Everything is fully determined by its seed. The materializing Poisson
//! sampler draws from the workspace's seeded `StdRng` shim; the lazy
//! builders delegate to `nbsmt_serve::traffic`, whose generators avoid
//! `libm` entirely so streams are bit-stable across platforms. The two
//! disciplines share one **seed-independence rule**: arrival times and
//! request sizes never share an RNG stream — sizes are a pure function of
//! `(size seed, request key)` via [`pareto_sizes`], so regenerating
//! arrivals with a new seed leaves every request's size untouched, and vice
//! versa.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nbsmt_serve::sim::ArrivalProcess;
use nbsmt_serve::traffic::{SizeModel, TrafficModel};

/// Generates an ascending open-loop Poisson arrival trace: `n` arrival
/// timestamps (nanoseconds from t=0) with exponential inter-arrival times at
/// `rate_rps` requests per second. Deterministic per `(seed, rate_rps, n)`.
pub fn poisson_arrivals(seed: u64, rate_rps: f64, n: usize) -> Vec<u64> {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mean_gap_ns = 1e9 / rate_rps;
    let mut t = 0.0f64;
    let mut arrivals = Vec::with_capacity(n);
    for _ in 0..n {
        // Inverse-CDF exponential sample; u is in [0, 1) so 1-u is in
        // (0, 1] and the log is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() * mean_gap_ns;
        arrivals.push(t.min(u64::MAX as f64) as u64);
    }
    arrivals
}

/// Builds the open-loop Poisson [`ArrivalProcess`] for the simulator.
pub fn open_poisson(seed: u64, rate_rps: f64, n: usize) -> ArrivalProcess {
    ArrivalProcess::Open {
        arrivals_ns: poisson_arrivals(seed, rate_rps, n),
    }
}

/// Builds the all-at-once burst [`ArrivalProcess`]: `n` requests arriving
/// at t=0. This is the lockstep trace of the sharded determinism contract —
/// with every arrival preceding the first launch, a paused-then-resumed
/// threaded [`nbsmt_serve::pool::ReplicaPool`] and the virtual-clock
/// simulator form bit-identical batches.
pub fn burst(n: usize) -> ArrivalProcess {
    ArrivalProcess::Open {
        arrivals_ns: vec![0; n],
    }
}

/// Builds the closed-loop [`ArrivalProcess`]: `clients` concurrent clients
/// with `think_ns` between response and next submit, issuing
/// `total_requests` overall.
pub fn closed_loop(clients: usize, think_ns: u64, total_requests: usize) -> ArrivalProcess {
    ArrivalProcess::Closed {
        clients,
        think_ns,
        total_requests,
    }
}

/// Converts a requests-per-second rate to the integer milli-rps encoding the
/// [`TrafficModel`] family uses (1000 mrps = 1 rps), clamped to ≥ 1 so a
/// positive offered rate never rounds to a stalled generator.
fn to_mrps(rate_rps: f64) -> u64 {
    assert!(rate_rps > 0.0, "offered rate must be positive");
    ((rate_rps * 1000.0).round() as u64).max(1)
}

/// Builds a **lazy** open-loop Poisson [`ArrivalProcess`] at `rate_rps`:
/// the `n` arrivals stream one at a time inside the simulator, so traces of
/// 10^6–10^7 requests never materialize as a `Vec` (contrast
/// [`open_poisson`], which is fine at bench scale but not beyond).
pub fn lazy_poisson(seed: u64, rate_rps: f64, n: u64) -> ArrivalProcess {
    ArrivalProcess::Generated {
        model: TrafficModel::Poisson {
            rate_mrps: to_mrps(rate_rps),
        },
        seed,
        n,
    }
}

/// Builds a bursty Markov-modulated Poisson [`ArrivalProcess`]: a two-state
/// calm/burst chain with exponential sojourns of the given means, arriving
/// Poisson at `calm_rps` or `burst_rps` according to the current state.
/// Bursts are what push the adaptive pool up the dense→2T→4T ladder.
pub fn mmpp(
    seed: u64,
    calm_rps: f64,
    burst_rps: f64,
    mean_calm_ns: u64,
    mean_burst_ns: u64,
    n: u64,
) -> ArrivalProcess {
    ArrivalProcess::Generated {
        model: TrafficModel::Mmpp {
            calm_mrps: to_mrps(calm_rps),
            burst_mrps: to_mrps(burst_rps),
            mean_calm_ns,
            mean_burst_ns,
        },
        seed,
        n,
    }
}

/// Builds a diurnal-envelope [`ArrivalProcess`]: a non-homogeneous Poisson
/// process whose rate sweeps a triangle wave from `trough_rps` to `peak_rps`
/// and back over `period_ns` of virtual time (one "day").
pub fn diurnal(
    seed: u64,
    trough_rps: f64,
    peak_rps: f64,
    period_ns: u64,
    n: u64,
) -> ArrivalProcess {
    ArrivalProcess::Generated {
        model: TrafficModel::Diurnal {
            trough_mrps: to_mrps(trough_rps),
            peak_mrps: to_mrps(peak_rps),
            period_ns,
        },
        seed,
        n,
    }
}

/// Builds the heavy-tailed request-size model: bounded Pareto on
/// `[min_x1024, max_x1024]` (x1024 fixed point; 1024 = 1.0× the model's
/// per-request MACs) with shape `alpha_x1024 / 1024`. Sizes are a pure
/// function of `(seed, key)` — independent of every arrival stream by
/// construction, which is the seed-independence rule the loadgen pins in
/// its tests.
pub fn pareto_sizes(seed: u64, alpha_x1024: u64, min_x1024: u64, max_x1024: u64) -> SizeModel {
    SizeModel::BoundedPareto {
        seed,
        alpha_x1024,
        min_x1024,
        max_x1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_seed_deterministic_and_ascending() {
        let a = poisson_arrivals(7, 1000.0, 256);
        let b = poisson_arrivals(7, 1000.0, 256);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let c = poisson_arrivals(8, 1000.0, 256);
        assert_ne!(a, c, "different seeds must give different traces");
    }

    #[test]
    fn poisson_mean_rate_is_close_to_offered() {
        let rate = 2000.0;
        let n = 4096;
        let arrivals = poisson_arrivals(42, rate, n);
        let span_s = *arrivals.last().unwrap() as f64 / 1e9;
        let measured = n as f64 / span_s;
        assert!(
            (measured / rate - 1.0).abs() < 0.1,
            "measured {measured:.0} rps vs offered {rate:.0} rps"
        );
    }

    #[test]
    fn arrival_process_builders() {
        match open_poisson(1, 100.0, 8) {
            ArrivalProcess::Open { arrivals_ns } => assert_eq!(arrivals_ns.len(), 8),
            other => panic!("expected open loop, got {other:?}"),
        }
        match closed_loop(4, 100, 32) {
            ArrivalProcess::Closed {
                clients,
                think_ns,
                total_requests,
            } => {
                assert_eq!((clients, think_ns, total_requests), (4, 100, 32));
            }
            other => panic!("expected closed loop, got {other:?}"),
        }
    }

    #[test]
    fn burst_arrives_all_at_once() {
        match burst(5) {
            ArrivalProcess::Open { arrivals_ns } => assert_eq!(arrivals_ns, vec![0; 5]),
            other => panic!("expected open loop, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "offered rate must be positive")]
    fn zero_rate_panics() {
        let _ = poisson_arrivals(1, 0.0, 4);
    }

    #[test]
    fn lazy_builders_produce_generated_processes() {
        let cases = [
            lazy_poisson(3, 2500.0, 100),
            mmpp(3, 500.0, 8000.0, 4_000_000, 1_000_000, 100),
            diurnal(3, 200.0, 4000.0, 60_000_000, 100),
        ];
        for case in cases {
            let ArrivalProcess::Generated { model, seed, n } = case else {
                panic!("lazy builders must build Generated processes");
            };
            assert_eq!((seed, n), (3, 100));
            assert_eq!(model.check(), Ok(()));
            let stream: Vec<_> = model.generate(seed, n).collect();
            assert_eq!(stream.len(), 100);
            assert!(stream.windows(2).all(|w| w[0].time_ns <= w[1].time_ns));
        }
    }

    #[test]
    fn sub_rps_rates_round_up_to_a_live_generator() {
        let ArrivalProcess::Generated { model, .. } = lazy_poisson(1, 0.0001, 4) else {
            panic!("expected generated");
        };
        assert_eq!(model.check(), Ok(()), "tiny rates must not stall");
    }

    #[test]
    fn pareto_sizes_are_independent_of_the_arrival_seed() {
        // The seed-independence rule: regenerate arrivals under a different
        // seed, and every request key's size is untouched — sizes are a
        // pure function of (size seed, key), never of the arrival stream.
        let sizes = pareto_sizes(77, 1536, 1024, 8192);
        let before: Vec<u64> = (0..64).map(|k| sizes.size_x1024(k)).collect();
        let a = match mmpp(10, 500.0, 8000.0, 4_000_000, 1_000_000, 64) {
            ArrivalProcess::Generated { model, seed, n } => model.generate(seed, n).count(),
            _ => unreachable!(),
        };
        let b = match mmpp(11, 500.0, 8000.0, 4_000_000, 1_000_000, 64) {
            ArrivalProcess::Generated { model, seed, n } => model.generate(seed, n).count(),
            _ => unreachable!(),
        };
        assert_eq!((a, b), (64, 64));
        let after: Vec<u64> = (0..64).map(|k| sizes.size_x1024(k)).collect();
        assert_eq!(before, after);
        // And the symmetric direction: a different size seed leaves the
        // arrival stream bit-identical.
        let arrivals = |s| match mmpp(10, 500.0, 8000.0, 4_000_000, 1_000_000, 64) {
            ArrivalProcess::Generated { model, seed, n } => {
                let _ = pareto_sizes(s, 1536, 1024, 8192).size_x1024(0);
                model.generate(seed, n).collect::<Vec<_>>()
            }
            _ => unreachable!(),
        };
        assert_eq!(arrivals(1), arrivals(2));
    }
}
