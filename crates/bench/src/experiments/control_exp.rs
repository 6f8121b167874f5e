//! The `repro control` experiment: shed-rate, tail-latency, and
//! replica-second curves for the pool-level controller variants.
//!
//! Where `scale` sweeps *what the pool is given* (traffic model × replicas ×
//! offered load), `control` sweeps *what sits above it*: the
//! [`nbsmt_serve::control::PoolController`] in four configurations —
//!
//! * `reactive` — no controller; every replica walks the ladder on its own
//!   queue-depth pressure (the `scale` baseline).
//! * `predictive` — the EWMA arrival-rate estimator forecasts utilization
//!   and raises the ladder floor *before* queues build.
//! * `predictive-autoscale` — predictive plus live-replica scaling: calm
//!   phases drain replicas down (reusing the crash-handoff machinery) and
//!   bursts bring them back, trading replica-seconds against shed rate.
//! * `predictive-steal` — predictive plus bounded deepest→shallowest work
//!   stealing, rebalancing hash-skewed queues.
//!
//! Every variant replays the *identical* seeded MMPP / diurnal trace through
//! the statistics-only virtual-clock path of [`simulate_pool`] (no
//! [`nbsmt_tensor::exec::ExecContext`]), so each cell is bit-reproducible
//! and the four variants differ only in controller policy. Cells land in
//! `BENCH_control.json` (merge-by-name), and the committed file is held to
//! the dominance criterion
//! [`ControlRecord::dominates_on_one_axis`]: `predictive-autoscale` must
//! beat `reactive` on at least one of {shed rate, p99, replica-seconds} on
//! every traffic model at 1.5× load.

use nbsmt_serve::control::ControlConfig;
use nbsmt_serve::sim::simulate_pool;

use crate::experiments::scale_exp::{arrivals_for, selected, RegimePool};
use crate::experiments::serve_exp::POOL_ESCALATION;
use crate::scale::Scale;
use crate::summary::ControlRecord;

/// The offered-load grid every (arrival × variant × replicas) curve samples.
/// The 1.5× overload point is where the dominance criterion is judged.
pub const LOAD_GRID: [f64; 2] = [1.0, 1.5];

/// The traffic models the controller sweep covers, in presentation order.
/// (Poisson is deliberately absent: a memoryless constant-rate stream gives
/// the estimator nothing to forecast; the bursty models are the regime the
/// controller exists for.)
pub const ARRIVALS: [&str; 2] = ["mmpp", "diurnal"];

/// The controller variants, in presentation order.
pub const VARIANTS: [&str; 4] = [
    "reactive",
    "predictive",
    "predictive-autoscale",
    "predictive-steal",
];

/// The [`ControlConfig`] for one (variant, rate) cell, or `None` for the
/// uncontrolled reactive baseline. The estimator window spans ~32 mean
/// inter-arrivals so an MMPP burst (≈64 requests) moves the forecast within
/// a burst, not one burst late.
fn control_for(variant: &str, rate_rps: f64) -> Option<ControlConfig> {
    if variant == "reactive" {
        return None;
    }
    Some(ControlConfig {
        window_ns: (((32.0 / rate_rps) * 1e9).max(1.0) as u64).max(1),
        autoscale: variant == "predictive-autoscale",
        steal: variant == "predictive-steal",
    })
}

/// The controller sweep: traffic model × [`VARIANTS`] × replicas ×
/// [`LOAD_GRID`], every variant over the *identical* seeded trace per
/// (arrival, replicas, load) group, on the scale sweep's pool (its
/// request-size model, rate anchor and scheduler). `arrival` is one of
/// [`ARRIVALS`] or `all`. Deterministic per
/// `(scale, requests, replica_counts, seed, arrival)`.
pub fn control_sweep_with(
    scale: Scale,
    requests: usize,
    replica_counts: &[usize],
    seed: u64,
    arrival: &str,
) -> Vec<ControlRecord> {
    let pool = RegimePool::prepare(scale, requests, seed);
    let mut rows = Vec::new();
    for arrival in selected(&ARRIVALS, arrival) {
        for &replicas in replica_counts {
            let replicas = replicas.max(1);
            for load_x in LOAD_GRID {
                let rate = pool.base_rate * replicas as f64 * load_x;
                let cell_seed = seed
                    .wrapping_add((load_x * 10.0) as u64)
                    .wrapping_add(requests as u64)
                    .wrapping_mul(replicas as u64 | 1);
                for variant in VARIANTS {
                    // The same seeded trace for every variant of the cell:
                    // the four rows differ in controller policy only.
                    let arrivals = arrivals_for(arrival, cell_seed, rate, requests as u64);
                    let options =
                        pool.options(replicas, POOL_ESCALATION, control_for(variant, rate));
                    let outcome = simulate_pool(
                        &pool.ladder,
                        None,
                        &pool.fixture.inputs,
                        &arrivals,
                        &options,
                        None,
                    )
                    .expect("pool simulation succeeds");
                    let m = &outcome.metrics;
                    // The record id is the merge key across runs. It
                    // includes the trace length so a CI smoke run merges in
                    // beside the tracked full-length curves instead of
                    // replacing them.
                    rows.push(ControlRecord {
                        name: format!(
                            "control_synthnet_{arrival}_{variant}_r{replicas}_x{load_x:.1}_n{requests}"
                        ),
                        controller: variant.to_string(),
                        arrival: arrival.to_string(),
                        offered: load_x,
                        requests: requests as u64,
                        completed: m.completed,
                        rejected: m.rejected,
                        throughput_rps: m.throughput_rps,
                        p50_ms: m.p50_ns as f64 / 1e6,
                        p95_ms: m.p95_ns as f64 / 1e6,
                        p99_ms: m.p99_ns as f64 / 1e6,
                        replicas: replicas as u64,
                        replica_seconds: outcome.replica_ns as f64 / 1e9,
                        scale_ups: m.scale_ups,
                        scale_downs: m.scale_downs,
                        predictive_shifts: m.predictive_shifts,
                        steals: m.steals,
                        stolen_requests: m.stolen_requests,
                        mode_transitions: m.mode_transitions,
                    });
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    fn cell<'a>(
        rows: &'a [ControlRecord],
        arrival: &str,
        controller: &str,
        offered: f64,
    ) -> &'a ControlRecord {
        rows.iter()
            .find(|r| r.arrival == arrival && r.controller == controller && r.offered == offered)
            .expect("cell exists")
    }

    #[test]
    fn sweep_covers_the_grid_and_is_deterministic() {
        let rows = control_sweep_with(Scale::Quick, 96, &[2], 2024, "all");
        // 2 arrivals × 2 loads × 4 variants × 1 replica count.
        assert_eq!(rows.len(), 16);
        for row in &rows {
            assert_eq!(row.completed + row.rejected, row.requests);
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
            assert!(row.replica_seconds > 0.0);
        }
        // Record names are unique (the merge key must not collide).
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        let again = control_sweep_with(Scale::Quick, 96, &[2], 2024, "all");
        assert_eq!(rows, again);
    }

    #[test]
    fn arrival_filter_restricts_the_grid() {
        let rows = control_sweep_with(Scale::Quick, 64, &[2], 7, "diurnal");
        // 1 arrival × 2 loads × 4 variants.
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|r| r.arrival == "diurnal"));
    }

    #[test]
    fn controllers_intervene_and_autoscale_dominates_reactive() {
        let rows = control_sweep_with(Scale::Quick, 2_000, &[4], 2024, "all");
        for arrival in ARRIVALS {
            // The predictive floor moves on bursty traffic…
            assert!(
                cell(&rows, arrival, "predictive", 1.5).predictive_shifts > 0,
                "{arrival}: predictive floor never moved"
            );
            // …autoscaling actually scales…
            let auto = cell(&rows, arrival, "predictive-autoscale", 1.5);
            assert!(
                auto.scale_ups + auto.scale_downs > 0,
                "{arrival}: autoscaler never intervened"
            );
            // …and the uncontrolled baseline charges every allocated
            // replica for the whole makespan, so the autoscaled cell can
            // only match or undercut it on replica-seconds.
            let reactive = cell(&rows, arrival, "reactive", 1.5);
            assert!(auto.replica_seconds <= reactive.replica_seconds * 1.001);
            // The acceptance criterion on the committed curves.
            assert!(
                auto.dominates_on_one_axis(reactive),
                "{arrival}: predictive-autoscale must beat reactive on one \
                 of shed/p99/replica-seconds (auto: shed {:.4} p99 {:.3} rs {:.3}; \
                 reactive: shed {:.4} p99 {:.3} rs {:.3})",
                auto.shed_rate(),
                auto.p99_ms,
                auto.replica_seconds,
                reactive.shed_rate(),
                reactive.p99_ms,
                reactive.replica_seconds,
            );
        }
        // The steal variant moves work when hashing skews queues.
        let stole: u64 = rows
            .iter()
            .filter(|r| r.controller == "predictive-steal")
            .map(|r| r.stolen_requests)
            .sum();
        assert!(stole > 0, "stealing never rebalanced a queue");
    }

    #[test]
    fn control_summary_round_trips_records() {
        let summary = Summary {
            records: control_sweep_with(Scale::Quick, 48, &[2], 13, "mmpp"),
        };
        let parsed = Summary::<ControlRecord>::parse(&summary.to_json()).expect("summary parses");
        assert_eq!(parsed.to_json(), summary.to_json());
        assert_eq!(parsed.records.len(), summary.records.len());
        assert!(parsed
            .records
            .iter()
            .all(|r| r.name.starts_with("control_synthnet_mmpp_")));
    }
}
