//! Property tests for the seeded traffic-model family behind the
//! million-request load generator (`nbsmt_bench::loadgen` over
//! `nbsmt_serve::traffic`).
//!
//! The generators are lazy streams, so the properties are checked by
//! folding over the iterator — never by materializing a trace. Three
//! families of properties:
//!
//! 1. **Stream shape** — every model yields exactly `n` arrivals in
//!    monotone non-decreasing time order, bit-identically per seed, and
//!    differently across seeds.
//! 2. **Stationarity** — the MMPP's measured state-occupancy fractions
//!    converge to the stationary distribution of its two-state chain,
//!    `π_calm = mean_calm / (mean_calm + mean_burst)`.
//! 3. **Size-model soundness** — bounded-Pareto sizes respect their
//!    `[min, max]` bounds for every key, are a pure function of
//!    `(seed, key)`, and move when the size seed moves.

use nbsmt_bench::loadgen::{diurnal, lazy_poisson, mmpp, pareto_sizes};
use nbsmt_serve::sim::ArrivalProcess;
use nbsmt_serve::traffic::{GeneratedArrival, TrafficModel};

/// Unpacks a loadgen builder's output into its model/seed/n triple.
fn generated(process: ArrivalProcess) -> (TrafficModel, u64, u64) {
    match process {
        ArrivalProcess::Generated { model, seed, n } => (model, seed, n),
        other => panic!("loadgen lazy builders must build Generated, got {other:?}"),
    }
}

/// Folds a stream into `(count, last_time, monotone, fingerprint)` without
/// materializing it — the constant-memory discipline under test applies to
/// the tests too.
fn fold_stream(model: TrafficModel, seed: u64, n: u64) -> (u64, u64, bool, u64) {
    let mut count = 0u64;
    let mut last = 0u64;
    let mut monotone = true;
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for GeneratedArrival { time_ns, key } in model.generate(seed, n) {
        monotone &= time_ns >= last;
        last = time_ns;
        count += 1;
        for word in [time_ns, key] {
            fingerprint = (fingerprint ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (count, last, monotone, fingerprint)
}

#[test]
fn every_model_streams_monotone_exact_length_per_seed() {
    let cases = [
        generated(lazy_poisson(0, 4_000.0, 0)),
        generated(lazy_poisson(0, 4_000.0, 2_000)),
        generated(mmpp(0, 800.0, 12_000.0, 3_000_000, 1_000_000, 2_000)),
        generated(diurnal(0, 500.0, 6_000.0, 40_000_000, 2_000)),
    ];
    for (model, _, n) in cases {
        for seed in [1u64, 7, 0xdead_beef, u64::MAX] {
            let (count, _, monotone, print_a) = fold_stream(model, seed, n);
            assert_eq!(count, n, "{model:?} seed {seed}: stream length");
            assert!(monotone, "{model:?} seed {seed}: non-decreasing times");
            let (_, _, _, print_b) = fold_stream(model, seed, n);
            assert_eq!(
                print_a, print_b,
                "{model:?} seed {seed}: same seed, same stream"
            );
        }
        if n > 0 {
            let (_, _, _, a) = fold_stream(model, 1, n);
            let (_, _, _, b) = fold_stream(model, 2, n);
            assert_ne!(a, b, "{model:?}: different seeds, different streams");
        }
    }
}

#[test]
fn mmpp_burst_state_actually_accelerates_arrivals() {
    // Same seed, same sojourn structure: cranking only the burst rate must
    // finish the same number of arrivals no later (more arrivals per burst
    // sojourn, identical calm behaviour is not guaranteed draw-by-draw, but
    // the end-to-end span must shrink for a 10× hotter burst state).
    let (mild, seed, n) = generated(mmpp(0, 1_000.0, 2_000.0, 2_000_000, 2_000_000, 4_000));
    let (hot, _, _) = generated(mmpp(0, 1_000.0, 20_000.0, 2_000_000, 2_000_000, 4_000));
    let (_, mild_end, _, _) = fold_stream(mild, seed, n);
    let (_, hot_end, _, _) = fold_stream(hot, seed, n);
    assert!(
        hot_end < mild_end,
        "hot bursts must compress the stream: {hot_end} !< {mild_end}"
    );
}

#[test]
fn mmpp_occupancy_converges_to_the_stationary_distribution() {
    // A two-state chain with exponential sojourns spends
    // mean_calm / (mean_calm + mean_burst) of its time calm in the long
    // run. 3 ms calm / 1 ms burst → π_calm = 3/4. The stream is long
    // enough (≈ 10^4 sojourn cycles) that the sample fraction should land
    // within a few percent for any seed.
    let mean_calm_ns = 3_000_000u64;
    let mean_burst_ns = 1_000_000u64;
    let expected = mean_calm_ns as f64 / (mean_calm_ns + mean_burst_ns) as f64;
    let (model, _, n) = generated(mmpp(
        0,
        2_000.0,
        20_000.0,
        mean_calm_ns,
        mean_burst_ns,
        200_000,
    ));
    for seed in [3u64, 17, 4_242] {
        let mut stream = model.generate(seed, n);
        let mut count = 0u64;
        for _ in stream.by_ref() {
            count += 1;
        }
        assert_eq!(count, n);
        let [calm_ns, burst_ns] = stream.state_occupancy_ns();
        assert!(calm_ns > 0 && burst_ns > 0, "both states must be visited");
        let fraction = calm_ns as f64 / (calm_ns + burst_ns) as f64;
        assert!(
            (fraction - expected).abs() < 0.05,
            "seed {seed}: calm occupancy {fraction:.4} vs stationary {expected:.4}"
        );
    }
}

#[test]
fn non_mmpp_models_report_zero_occupancy() {
    let (model, seed, n) = generated(lazy_poisson(9, 3_000.0, 512));
    let mut stream = model.generate(seed, n);
    for _ in stream.by_ref() {}
    assert_eq!(stream.state_occupancy_ns(), [0, 0]);
}

#[test]
fn bounded_pareto_sizes_stay_in_bounds_and_follow_their_seed() {
    let (lo, hi) = (1024u64, 8_192u64);
    let model = pareto_sizes(11, 1_536, lo, hi);
    let other_seed = pareto_sizes(12, 1_536, lo, hi);
    let mut diverged = false;
    let mut spread = false;
    for key in 0..8_192u64 {
        let size = model.size_x1024(key);
        assert!(
            (lo..=hi).contains(&size),
            "key {key}: size {size} outside [{lo}, {hi}]"
        );
        assert_eq!(
            size,
            model.size_x1024(key),
            "key {key}: size must be a pure function of (seed, key)"
        );
        diverged |= other_seed.size_x1024(key) != size;
        spread |= size > lo;
    }
    assert!(diverged, "a different size seed must move some sizes");
    assert!(
        spread,
        "the Pareto tail must produce sizes above the minimum"
    );
}

#[test]
fn heavier_tails_mean_larger_average_sizes() {
    // Shape α controls the tail: a smaller α (heavier tail) must raise the
    // empirical mean over a fixed key population, with both means strictly
    // inside the bounds.
    let keys = 0..16_384u64;
    let mean = |alpha_x1024: u64| {
        let model = pareto_sizes(21, alpha_x1024, 1_024, 32_768);
        let total: u64 = keys.clone().map(|k| model.size_x1024(k)).sum();
        total as f64 / 16_384.0
    };
    let heavy = mean(1_100); // α ≈ 1.07
    let light = mean(3_072); // α = 3
    assert!(
        heavy > light,
        "heavier tail must raise the mean: {heavy:.1} !> {light:.1}"
    );
    assert!(light > 1_024.0 && heavy < 32_768.0);
}
