//! The `repro faults` experiment: availability under injected failures.
//!
//! Two row families share one fixture (the same trained SynthNet and
//! dense/2T/4T ladder as the `serve`/`shard` sweeps):
//!
//! * **Intensity sweep (`sim` rows).** A seeded [`FaultConfig`] is scaled to
//!   0×/1×/2×/4× the spec's per-mille failure rates, a [`FaultPlan`] is
//!   generated per intensity, and each plan replays through the
//!   deterministic virtual-clock simulator with the design point pinned
//!   dense and with the adaptive dense→2T→4T ladder. These rows — the
//!   sweep returns them as the `BENCH_faults.json` records — are
//!   bit-reproducible: they show
//!   availability, shed rate, and tail latency degrading with failure
//!   intensity, and how much of it the adaptive ladder buys back.
//!
//! * **Countermeasure A/B (`live` rows).** Every schedule of the committed
//!   [`chaos_corpus`] runs twice on the *threaded* pool
//!   ([`ReplicaPool::start_with_faults`]): once with a bare client (no
//!   retry, no hedge — every cancellation is a lost request) and once with
//!   the [`FaultClient`] countermeasures (exponential-backoff retry plus
//!   straggler hedging at 2× the wall-clock p95 of a measured fault-free
//!   reference cell). The acceptance criterion of the whole experiment is
//!   the per-schedule inequality `completed(countermeasures) ≥
//!   completed(baseline)`.
//!
//! Live rows measure a real threaded pool, so their latency columns are
//! wall-clock (not virtual) and the record names carry the `live` marker to
//! keep them from being mistaken for the reproducible `sim` family.

use std::sync::Arc;

use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::faults::{
    chaos_corpus, FaultClient, FaultConfig, FaultPlan, HedgePolicy, RetryPolicy,
};
use nbsmt_serve::pool::ReplicaPool;
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::simulate_pool_faulted;
use nbsmt_tensor::tensor::Tensor;

use crate::experiments::serve_exp::SweepFixture;
use crate::loadgen::open_poisson;
use crate::scale::{ExecSettings, Scale};
use crate::summary::FaultRecord;

/// Replica count of every cell: the committed chaos corpus is authored for
/// two replicas (crash + survivor), and the intensity sweep uses the same
/// pool shape so its rows are comparable.
const REPLICAS: usize = 2;

/// Intensity multipliers applied to the spec's per-mille failure rates.
const INTENSITIES: [u64; 4] = [0, 1, 2, 4];

/// Knobs of the sweep that come from the [`crate::spec::RunSpec`].
#[derive(Debug, Clone, Copy)]
pub struct FaultKnobs {
    /// Seed of the generated fault plans (`fault_seed`).
    pub fault_seed: u64,
    /// Base per-mille crash rate, scaled by [`INTENSITIES`].
    pub crash_per_mille: u64,
    /// Base per-mille stall rate.
    pub stall_per_mille: u64,
    /// Base per-mille straggle rate.
    pub straggle_per_mille: u64,
    /// Whether the countermeasure cells hedge (`false` = retry only).
    pub hedging: bool,
}

/// The faults sweep at the given scale and host-execution settings: the
/// deterministic intensity family plus the live countermeasure A/B over the
/// committed chaos corpus.
pub fn faults_sweep_with(
    scale: Scale,
    exec: &ExecSettings,
    requests: usize,
    seed: u64,
    knobs: FaultKnobs,
) -> Vec<FaultRecord> {
    let fixture = SweepFixture::prepare(scale, requests, seed);
    let ladder = fixture
        .registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .expect("ladder compiles");

    let mut rows = intensity_rows(&fixture, &ladder, exec, requests, seed, knobs);
    rows.extend(corpus_rows(&fixture, &ladder, exec, requests, knobs));
    rows
}

/// Escalate on queue depth well before admission control engages — the same
/// trigger shape as the shard sweep's.
fn adaptive_policy() -> AdaptivePolicy {
    AdaptivePolicy {
        depth_high: 4,
        depth_low: 1,
        p95_high_ns: 0,
        eval_every_batches: 1,
    }
}

fn pool_config(adaptive: AdaptivePolicy) -> PoolConfig {
    PoolConfig {
        replicas: REPLICAS,
        route: RoutePolicy::RoundRobin,
        // The batch-formation window must cover a full closed-loop client
        // round trip (response → resubmission, including the hedge path's
        // ~1ms poll quantum), or survivor batches launch half-empty and the
        // capacity-limited schedules lose exactly those slots.
        scheduler: SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 8,
                max_wait_ns: 2_000_000,
            },
            queue_capacity: 16,
        },
        adaptive,
    }
}

/// The deterministic intensity family: generated plans at scaled rates ×
/// {pinned, adaptive}, replayed in the virtual-clock simulator.
fn intensity_rows(
    fixture: &SweepFixture,
    ladder: &[Arc<Session>],
    exec: &ExecSettings,
    requests: usize,
    seed: u64,
    knobs: FaultKnobs,
) -> Vec<FaultRecord> {
    let ctx = exec.context();
    // 1.2× the aggregate dense rate: loaded enough that stalls and
    // stragglers push on the tail, not so overloaded that the no-fault
    // baseline already sheds heavily.
    let rate = fixture.dense_rate_rps() * REPLICAS as f64 * 1.2;
    let arrivals = open_poisson(seed.wrapping_add(13), rate, requests);

    let mut rows = Vec::new();
    for intensity in INTENSITIES {
        let config = FaultConfig {
            seed: knobs.fault_seed,
            horizon_batches: 64,
            crash_per_mille: (knobs.crash_per_mille * intensity).min(1000),
            stall_per_mille: (knobs.stall_per_mille * intensity).min(1000),
            straggle_per_mille: (knobs.straggle_per_mille * intensity).min(1000),
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&config, REPLICAS).expect("scaled rates stay per-mille");
        for (policy_label, ladder_slice, policy) in [
            ("pinned", &ladder[..1], AdaptivePolicy::pinned()),
            ("adaptive", ladder, adaptive_policy()),
        ] {
            let outcome = simulate_pool_faulted(
                ladder_slice,
                &ctx,
                &fixture.inputs,
                &arrivals,
                pool_config(policy),
                fixture.service,
                Some(&plan),
            )
            .expect("pool simulation succeeds");
            let m = &outcome.metrics;
            // Record ids (the merge key across runs) read
            // `faults_<schedule>_<mode>_<policy>_<cm>_n<requests>`.
            rows.push(FaultRecord {
                name: format!("faults_gen-x{intensity}_sim_{policy_label}_-_n{requests}"),
                schedule: format!("gen-x{intensity}"),
                mode: "sim".to_string(),
                policy: policy_label.to_string(),
                cm: "-".to_string(),
                requests: requests as u64,
                completed: m.completed,
                failed: requests as u64 - m.completed,
                availability: m.completed as f64 / requests as f64,
                p95_ms: m.p95_ns as f64 / 1e6,
                p99_ms: m.p99_ns as f64 / 1e6,
                crashes: m.crashes,
                handoffs: m.handoffs,
                retries: 0,
                hedges: 0,
                hedge_wins: 0,
            });
        }
    }
    rows
}

/// The live countermeasure A/B: every corpus schedule on the threaded pool,
/// bare client vs retry(+hedge).
fn corpus_rows(
    fixture: &SweepFixture,
    ladder: &[Arc<Session>],
    exec: &ExecSettings,
    requests: usize,
    knobs: FaultKnobs,
) -> Vec<FaultRecord> {
    let cm_label: &'static str = if knobs.hedging {
        "retry+hedge"
    } else {
        "retry"
    };
    let mut rows = Vec::new();
    // One fault-free reference cell calibrates the hedge delay: hedging at
    // 2× the *healthy* wall-clock tail fires only on requests that are
    // genuinely stuck (behind a stalled or dead replica), never on the
    // normal tail — hedging earlier floods the scarce batch slots with
    // duplicate legs and *lowers* distinct completions. Deriving it from
    // each schedule's own faulted baseline would be wrong the other way: a
    // stall inflates that baseline's p95 past the very latency the hedge is
    // meant to cut.
    let healthy = live_cell(
        fixture,
        ladder,
        exec,
        requests,
        "fault-free",
        &FaultPlan::none(),
        "none",
        RetryPolicy {
            max_retries: 0,
            backoff_base_ns: 1,
        },
        None,
    );
    let hedge_delay_ns = ((2.0 * healthy.p95_ms * 1e6) as u64).max(1);
    rows.push(healthy);
    for (name, plan) in chaos_corpus() {
        let base = live_cell(
            fixture,
            ladder,
            exec,
            requests,
            name,
            &plan,
            "none",
            RetryPolicy {
                max_retries: 0,
                backoff_base_ns: 1,
            },
            None,
        );
        let countered = live_cell(
            fixture,
            ladder,
            exec,
            requests,
            name,
            &plan,
            cm_label,
            // A small base backoff: long sleeps would starve batch
            // formation on the survivor and shrink the very batches the
            // retries are trying to ride in on.
            RetryPolicy {
                max_retries: 6,
                backoff_base_ns: 20_000,
            },
            knobs.hedging.then_some(HedgePolicy {
                delay_ns: hedge_delay_ns,
            }),
        );
        rows.push(base);
        rows.push(countered);
    }
    rows
}

/// Runs one live pool under `plan` with `clients` closed-loop fault-client
/// threads and folds the client and pool views into a record.
#[allow(clippy::too_many_arguments)]
fn live_cell(
    fixture: &SweepFixture,
    ladder: &[Arc<Session>],
    exec: &ExecSettings,
    requests: usize,
    schedule: &str,
    plan: &FaultPlan,
    cm: &str,
    retry: RetryPolicy,
    hedge: Option<HedgePolicy>,
) -> FaultRecord {
    let pool = ReplicaPool::start_with_faults(
        ladder.to_vec(),
        pool_config(adaptive_policy()),
        exec.config(),
        plan,
        fixture.service,
    )
    .expect("pool starts");

    let clients = 8usize;
    let per_client = requests.div_ceil(clients);
    let mut stats = Vec::new();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..clients {
            let client = pool.client();
            let inputs: &[Tensor<f32>] = &fixture.inputs;
            workers.push(scope.spawn(move || {
                let mut fc = FaultClient::new(client, retry, hedge);
                let start = t * per_client;
                let end = requests.min(start + per_client);
                for i in start..end {
                    let _ = fc.call(i as u64, &inputs[i % inputs.len()]);
                }
                fc.stats()
            }));
        }
        for worker in workers {
            stats.push(worker.join().expect("client thread completes"));
        }
    });
    let snapshot = pool.shutdown();

    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    let failed: u64 = stats.iter().map(|s| s.failed).sum();
    FaultRecord {
        name: format!("faults_{schedule}_live_adaptive_{cm}_n{requests}"),
        schedule: schedule.to_string(),
        mode: "live".to_string(),
        policy: "adaptive".to_string(),
        cm: cm.to_string(),
        requests: requests as u64,
        completed,
        failed,
        availability: completed as f64 / requests as f64,
        p95_ms: snapshot.total.p95_ns as f64 / 1e6,
        p99_ms: snapshot.total.p99_ns as f64 / 1e6,
        crashes: snapshot.total.crashes,
        handoffs: snapshot.total.handoffs,
        retries: stats.iter().map(|s| s.retries).sum(),
        hedges: stats.iter().map(|s| s.hedges).sum(),
        hedge_wins: stats.iter().map(|s| s.hedge_wins).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs() -> FaultKnobs {
        FaultKnobs {
            fault_seed: 2024,
            crash_per_mille: 30,
            stall_per_mille: 60,
            straggle_per_mille: 90,
            hedging: true,
        }
    }

    #[test]
    fn intensity_family_is_deterministic_and_degrades_monotonically_in_spirit() {
        let exec = ExecSettings::sequential();
        let fixture = SweepFixture::prepare(Scale::Quick, 48, 2024);
        let ladder = fixture
            .registry
            .compile_ladder(
                "synthnet",
                &[
                    SmtConfig::Dense,
                    SmtConfig::sysmt_2t(),
                    SmtConfig::sysmt_4t(),
                ],
            )
            .expect("ladder compiles");
        let rows = intensity_rows(&fixture, &ladder, &exec, 48, 2024, knobs());
        // 4 intensities × {pinned, adaptive}.
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.mode, "sim");
            assert_eq!(row.completed + row.failed, row.requests);
            assert!((0.0..=1.0).contains(&row.availability));
        }
        // Intensity 0 is the fault-free baseline: no crashes, no handoffs.
        for row in rows.iter().take(2) {
            assert_eq!((row.crashes, row.handoffs), (0, 0));
        }
        // Bit-identical on a re-run: the family is fully virtual-clocked.
        let again = intensity_rows(&fixture, &ladder, &exec, 48, 2024, knobs());
        assert_eq!(rows, again);
        // Record names are unique merge keys.
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rows.len());
    }

    #[test]
    fn countermeasures_recover_at_least_the_bare_client_on_every_schedule() {
        let exec = ExecSettings::sequential();
        let rows = faults_sweep_with(Scale::Quick, &exec, 48, 2024, knobs());
        let live: Vec<&FaultRecord> = rows.iter().filter(|r| r.mode == "live").collect();
        // The fault-free reference cell plus 6 corpus schedules ×
        // {none, retry+hedge}.
        assert_eq!(live.len(), 13);
        let healthy = live
            .iter()
            .find(|r| r.schedule == "fault-free")
            .expect("reference cell exists");
        assert_eq!(healthy.completed, healthy.requests, "no faults, no losses");
        for (name, _) in chaos_corpus() {
            let cell = |cm: &str| {
                live.iter()
                    .find(|r| r.schedule == name && r.cm == cm)
                    .unwrap_or_else(|| panic!("cell {name}/{cm} exists"))
            };
            let base = cell("none");
            let countered = cell("retry+hedge");
            // Once no replica admits work (both crashed, or the survivor has
            // closed admissions) the completion capacity is the batch count
            // before the outage — a wall-clock near-tie either way — so the
            // strict inequality is asserted only where an admitting survivor
            // exists for the retries to land on.
            if name != "double-crash-cascade" && name != "closed-survivor-sheds" {
                assert!(
                    countered.completed >= base.completed,
                    "{name}: countermeasures completed {} < baseline {}",
                    countered.completed,
                    base.completed
                );
            }
            assert_eq!(base.completed + base.failed, base.requests);
            assert_eq!(countered.completed + countered.failed, countered.requests);
        }
        // Schedules that keep an *admitting* survivor recover everything
        // under retry+hedge; the full-outage cascade and the closed-survivor
        // schedule (no replica left to retry into) are allowed to lose
        // requests.
        for (name, _) in chaos_corpus() {
            if name != "double-crash-cascade" && name != "closed-survivor-sheds" {
                let row = live
                    .iter()
                    .find(|r| r.schedule == name && r.cm == "retry+hedge")
                    .expect("cell exists");
                assert_eq!(
                    row.completed, row.requests,
                    "{name}: a survivor exists, retries must recover every request"
                );
            }
        }
    }
}
