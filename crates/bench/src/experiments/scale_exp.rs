//! The `repro scale` experiment: shed-rate and latency curves vs offered
//! load across traffic models, replica counts, and mode policies.
//!
//! Where `serve`/`shard` measure a few hundred real-inference requests,
//! `scale` is the *regime* sweep: lazily generated traffic (Poisson, bursty
//! MMPP, a diurnal envelope) with heavy-tailed bounded-Pareto request sizes,
//! replayed through [`simulate_pool`] without an execution context — the
//! statistics-only simulator path that skips model execution, so a cell of
//! 10^6 requests runs in
//! seconds under strictly constant memory (every unbounded collection in
//! the outcome is capped; see `nbsmt_serve::config`). Offered load is
//! expressed relative to the pool's *size-adjusted* aggregate dense rate:
//! the dense single-request rate divided by the mean Pareto request size,
//! times the replica count — so `1.0×` saturates every grid point at the
//! same relative operating point regardless of replica count or tail shape.
//!
//! Every cell lands in `BENCH_scale.json` (merge-by-name, like every other
//! summary file), forming shed/p50/p95/p99-vs-load curves per (traffic
//! model × policy × replicas) group, plus one million-request anchor cell
//! (MMPP × adaptive × the largest replica count) that pins the
//! constant-memory regime in the committed baseline.

use std::sync::Arc;

use nbsmt_serve::config::{AdaptivePolicy, PoolConfig, PoolOptions, RoutePolicy};
use nbsmt_serve::control::ControlConfig;
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::{simulate_pool, ArrivalProcess, ServiceModel};

use crate::experiments::serve_exp::{SweepFixture, POOL_ESCALATION, POOL_SCHEDULER};
use crate::loadgen::{diurnal, lazy_poisson, mmpp, pareto_sizes};
use crate::scale::Scale;
use crate::summary::ServeRecord;

/// Requests in the million-request anchor cell.
pub const ANCHOR_REQUESTS: u64 = 1_000_000;

/// The offered-load grid every (arrival × policy × replicas) curve samples.
pub const LOAD_GRID: [f64; 3] = [0.6, 1.0, 1.5];

/// The traffic models the sweep covers, in presentation order.
pub const ARRIVALS: [&str; 3] = ["poisson", "mmpp", "diurnal"];

/// The bounded-Pareto request-size model of the scale and control sweeps,
/// in x1024 fixed point: shape 1.5, sizes from 1× to 8× the model's
/// per-request MACs.
const SIZE_ALPHA_X1024: u64 = 1536;
const SIZE_MIN_X1024: u64 = 1024;
const SIZE_MAX_X1024: u64 = 8192;

/// Knobs of the scale sweep beyond the universal scale/seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleKnobs {
    /// Traffic-model filter: `poisson`, `mmpp`, `diurnal`, or `all`.
    pub arrival: String,
    /// Length of the anchor cell ([`ANCHOR_REQUESTS`] in the registry;
    /// tests shrink it so the quick suites stay quick).
    pub anchor_requests: u64,
}

/// The pool both regime sweeps (`scale` and `control`) run on: the serving
/// fixture and its dense/2T/4T ladder, a service model with heavy-tailed
/// request sizes, and the offered-load anchor, so that a 1.5× cell of
/// either sweep saturates the pool at the same operating point.
pub(crate) struct RegimePool {
    pub(crate) fixture: SweepFixture,
    pub(crate) ladder: Vec<Arc<Session>>,
    service: ServiceModel,
    /// One dense replica's single-request rate, deflated by the mean request
    /// size, in requests/s.
    pub(crate) base_rate: f64,
}

impl RegimePool {
    pub(crate) fn prepare(scale: Scale, requests: usize, seed: u64) -> RegimePool {
        let fixture = SweepFixture::prepare(scale, requests, seed);
        let ladder = fixture.ladder();
        let size = pareto_sizes(
            seed.wrapping_add(1000),
            SIZE_ALPHA_X1024,
            SIZE_MIN_X1024,
            SIZE_MAX_X1024,
        );
        // The offered-load anchor: one dense session's single-request rate,
        // deflated by the mean Pareto request size (estimated over a fixed
        // key range — sizes are a pure function of (seed, key), so this is
        // exact for the keys the trace actually uses and deterministic
        // everywhere).
        let mean_size_x1024 = ((0..4096u64)
            .map(|k| size.size_x1024(k) as u128)
            .sum::<u128>()
            / 4096)
            .max(1) as f64;
        RegimePool {
            base_rate: fixture.dense_rate_rps() * 1024.0 / mean_size_x1024,
            service: ServiceModel {
                size,
                ..fixture.service
            },
            fixture,
            ladder,
        }
    }

    /// The options of one cell: `replicas` hash-routed replicas on the
    /// replica-pool scheduler under `adaptive`, with an optional controller.
    pub(crate) fn options(
        &self,
        replicas: usize,
        adaptive: AdaptivePolicy,
        control: Option<ControlConfig>,
    ) -> PoolOptions {
        PoolOptions {
            config: PoolConfig {
                replicas,
                route: RoutePolicy::Hashed,
                scheduler: POOL_SCHEDULER,
                adaptive,
            },
            service: self.service,
            control,
            ..PoolOptions::default()
        }
    }
}

/// The traffic models of `models` an `arrival` value selects: the one it
/// names, or every one for `all`.
pub(crate) fn selected(models: &[&'static str], arrival: &str) -> Vec<&'static str> {
    models
        .iter()
        .copied()
        .filter(|model| arrival == "all" || arrival == *model)
        .collect()
}

/// Builds the lazily generated [`ArrivalProcess`] for one cell: `n`
/// arrivals at a long-run mean of `rate_rps`, shaped by `arrival`.
///
/// * `mmpp` — calm at 0.5× / burst at 2.5× the target, with the calm
///   sojourn 3× the burst sojourn, so the long-run mean is exactly 1.0×
///   and a mean burst spans ~64 requests.
/// * `diurnal` — triangle envelope from 0.5× to 1.5× the target (mean
///   1.0×), with four "days" per trace.
///
/// The control sweep builds its MMPP and diurnal traces here too, so the
/// two summaries stress comparable regimes.
pub(crate) fn arrivals_for(arrival: &str, seed: u64, rate_rps: f64, n: u64) -> ArrivalProcess {
    match arrival {
        "poisson" => lazy_poisson(seed, rate_rps, n),
        "mmpp" => {
            let burst_rps = rate_rps * 2.5;
            let mean_burst_ns = ((64.0 / burst_rps) * 1e9).max(1.0) as u64;
            mmpp(
                seed,
                rate_rps * 0.5,
                burst_rps,
                mean_burst_ns.saturating_mul(3),
                mean_burst_ns,
                n,
            )
        }
        "diurnal" => {
            let period_ns = ((n as f64 / rate_rps) * 1e9 / 4.0).max(1.0) as u64;
            diurnal(seed, rate_rps * 0.5, rate_rps * 1.5, period_ns, n)
        }
        other => panic!("unknown traffic model '{other}'"),
    }
}

/// The scale-regime sweep: traffic model × {dense, adaptive} × replicas ×
/// [`LOAD_GRID`], all through the statistics-only pool simulator, plus a
/// `knobs.anchor_requests`-long anchor cell ([`ANCHOR_REQUESTS`] from the
/// registry) when `mmpp` is selected. Deterministic per
/// `(scale, requests, replicas, seed, knobs)`.
///
/// The records share `BENCH_serve.json`'s schema, in their own file so the
/// regime curves never crowd the real-inference records: `smt` holds the
/// mode policy, `arrival` the traffic model, and every cell routes by key
/// hash.
pub fn scale_sweep_with(
    scale: Scale,
    requests: usize,
    replica_counts: &[usize],
    seed: u64,
    knobs: &ScaleKnobs,
) -> Vec<ServeRecord> {
    // The same replica-pool scheduler and escalation policy as the shard
    // sweep, so the two summaries describe the same pool at different
    // scales.
    let pool = RegimePool::prepare(scale, requests, seed);
    let models = selected(&ARRIVALS, &knobs.arrival);

    let mut rows = Vec::new();
    let mut run_cell =
        |arrival: &'static str, policy_label, replicas: usize, load_x: f64, n: u64| {
            let (ladder_slice, policy) = match policy_label {
                "dense" => (&pool.ladder[..1], AdaptivePolicy::pinned()),
                _ => (&pool.ladder[..], POOL_ESCALATION),
            };
            let rate = pool.base_rate * replicas as f64 * load_x;
            let cell_seed = seed
                .wrapping_add((load_x * 10.0) as u64)
                .wrapping_add(n)
                .wrapping_mul(replicas as u64 | 1);
            let arrivals = arrivals_for(arrival, cell_seed, rate, n);
            let outcome = simulate_pool(
                ladder_slice,
                None,
                &pool.fixture.inputs,
                &arrivals,
                &pool.options(replicas, policy, None),
                None,
            )
            .expect("pool simulation succeeds");
            // The record id is the merge key across runs. It includes the
            // trace length so a CI smoke run at a few thousand requests
            // merges in beside the tracked full-length curves instead of
            // replacing them.
            rows.push(ServeRecord {
                name: format!(
                    "scale_synthnet_{arrival}_{policy_label}_r{replicas}_x{load_x:.1}_n{n}"
                ),
                smt: policy_label.to_string(),
                arrival: arrival.to_string(),
                offered: load_x,
                requests: n,
                replicas: replicas as u64,
                route: "hash".to_string(),
                ..ServeRecord::from_metrics(&outcome.metrics)
            });
        };

    for &arrival in &models {
        for &replicas in replica_counts {
            let replicas = replicas.max(1);
            for policy_label in ["dense", "adaptive"] {
                for load_x in LOAD_GRID {
                    run_cell(arrival, policy_label, replicas, load_x, requests as u64);
                }
            }
        }
    }
    // The million-request anchor: the burstiest model on the adaptive
    // ladder at the largest replica count, at the knee of the load grid.
    if models.contains(&"mmpp") && knobs.anchor_requests > 0 {
        let replicas = replica_counts.iter().copied().max().unwrap_or(1).max(1);
        run_cell("mmpp", "adaptive", replicas, 1.0, knobs.anchor_requests);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    fn knobs() -> ScaleKnobs {
        ScaleKnobs {
            arrival: "all".to_string(),
            anchor_requests: 2_000,
        }
    }

    #[test]
    fn sweep_covers_the_grid_and_is_deterministic() {
        let rows = scale_sweep_with(Scale::Quick, 96, &[2], 2024, &knobs());
        // 3 arrivals × 2 policies × 1 replica count × 3 loads + the anchor.
        assert_eq!(rows.len(), 19);
        for row in &rows {
            assert_eq!(row.completed + row.rejected, row.requests);
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        }
        let anchor = rows.last().expect("anchor is last");
        assert_eq!(
            (
                anchor.arrival.as_str(),
                anchor.smt.as_str(),
                anchor.requests
            ),
            ("mmpp", "adaptive", 2_000)
        );
        // Record names are unique (the merge key must not collide).
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        let again = scale_sweep_with(Scale::Quick, 96, &[2], 2024, &knobs());
        assert_eq!(rows, again);
    }

    #[test]
    fn arrival_filter_restricts_the_grid() {
        let mut only = knobs();
        only.arrival = "diurnal".to_string();
        let rows = scale_sweep_with(Scale::Quick, 64, &[2], 7, &only);
        // 1 arrival × 2 policies × 3 loads, and no mmpp anchor.
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.arrival == "diurnal"));
    }

    #[test]
    fn shed_rate_grows_with_offered_load() {
        let rows = scale_sweep_with(Scale::Quick, 512, &[2], 11, &knobs());
        for arrival in ARRIVALS {
            for policy in ["dense", "adaptive"] {
                let shed = |load: f64| {
                    rows.iter()
                        .find(|r| {
                            r.arrival == arrival
                                && r.smt == policy
                                && r.offered == load
                                && r.requests == 512
                        })
                        .expect("cell exists")
                        .rejected
                };
                assert!(
                    shed(0.6) <= shed(1.5),
                    "{arrival}/{policy}: shed must not fall as load grows"
                );
            }
        }
        // At the overload point the adaptive ladder sheds no more than the
        // pinned-dense pool on every traffic model.
        for arrival in ARRIVALS {
            let cell = |policy: &str| {
                rows.iter()
                    .find(|r| {
                        r.arrival == arrival
                            && r.smt == policy
                            && r.offered == 1.5
                            && r.requests == 512
                    })
                    .expect("cell exists")
            };
            assert!(
                cell("adaptive").rejected <= cell("dense").rejected,
                "{arrival}: adaptive must not shed more than dense"
            );
        }
    }

    #[test]
    fn scale_summary_round_trips_records() {
        let mut only = knobs();
        only.arrival = "poisson".to_string();
        let summary = Summary {
            records: scale_sweep_with(Scale::Quick, 48, &[2], 13, &only),
        };
        let parsed = Summary::<ServeRecord>::parse(&summary.to_json()).expect("summary parses");
        assert_eq!(parsed.to_json(), summary.to_json());
        assert_eq!(parsed.records.len(), summary.records.len());
        assert!(parsed.records.iter().all(|r| r.route == "hash"));
        assert!(parsed
            .records
            .iter()
            .all(|r| r.name.starts_with("scale_synthnet_poisson_")));
    }
}
