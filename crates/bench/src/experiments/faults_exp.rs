//! The `repro faults` experiment: availability under injected failures.
//!
//! Two row families share one fixture (the same trained SynthNet and
//! dense/2T/4T ladder as the `serve`/`shard` sweeps):
//!
//! * **Intensity sweep (`sim` rows).** A seeded [`FaultConfig`] is scaled to
//!   0×/1×/2×/4× the base per-mille failure rates, a [`FaultPlan`] is
//!   generated per intensity, and each plan replays through the
//!   deterministic virtual-clock simulator with the design point pinned
//!   dense and with the adaptive dense→2T→4T ladder. These rows — the
//!   sweep returns them as the `BENCH_faults.json` records — are
//!   bit-reproducible: they show
//!   availability, shed rate, and tail latency degrading with failure
//!   intensity, and how much of it the adaptive ladder buys back.
//!
//! * **Countermeasure A/B (`live` rows).** Every schedule of the committed
//!   [`chaos_corpus`] runs twice on the *threaded* free-running pool
//!   ([`PoolDriver::FreeRunning`]): once with a bare client (no
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

use nbsmt_serve::config::{AdaptivePolicy, PoolConfig, PoolOptions, RoutePolicy};
use nbsmt_serve::faults::{
    chaos_corpus, FaultClient, FaultConfig, FaultPlan, HedgePolicy, RetryPolicy,
};
use nbsmt_serve::pool::{PoolDriver, ReplicaPool};
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::simulate_pool;
use nbsmt_tensor::tensor::Tensor;

use crate::experiments::serve_exp::{SweepFixture, POOL_ESCALATION, POOL_SCHEDULER};
use crate::loadgen::open_poisson;
use crate::scale::{ExecSettings, Scale};
use crate::summary::FaultRecord;

/// Replica count of every cell: the committed chaos corpus is authored for
/// two replicas (crash + survivor), and the intensity sweep uses the same
/// pool shape so its rows are comparable.
const REPLICAS: usize = 2;

/// Intensity multipliers applied to the base per-mille failure rates.
const INTENSITIES: [u64; 4] = [0, 1, 2, 4];

/// Seed of the generated fault plans.
const FAULT_SEED: u64 = 7;

/// Base per-mille crash, stall and straggle rates of the generated plans,
/// each scaled by every intensity multiplier.
const CRASH_PER_MILLE: u64 = 30;
const STALL_PER_MILLE: u64 = 60;
const STRAGGLE_PER_MILLE: u64 = 90;

/// The faults sweep at the given scale and host-execution settings: the
/// deterministic intensity family plus the live countermeasure A/B over the
/// committed chaos corpus.
pub fn faults_sweep_with(
    scale: Scale,
    exec: &ExecSettings,
    requests: usize,
    seed: u64,
) -> Vec<FaultRecord> {
    let fixture = SweepFixture::prepare(scale, requests, seed);
    let ladder = fixture.ladder();
    let mut rows = intensity_rows(&fixture, &ladder, exec, requests, seed);
    rows.extend(corpus_rows(&fixture, &ladder, exec, requests));
    rows
}

/// The options of every cell: [`REPLICAS`] round-robin replicas under
/// `adaptive`, the fixture's service model, and `plan`.
fn options(fixture: &SweepFixture, adaptive: AdaptivePolicy, plan: &FaultPlan) -> PoolOptions {
    PoolOptions {
        config: PoolConfig {
            replicas: REPLICAS,
            route: RoutePolicy::RoundRobin,
            // The 2 ms batch-formation window must cover a full closed-loop
            // client round trip (response → resubmission, including the hedge
            // path's ~1ms poll quantum), or survivor batches launch half-empty
            // and the capacity-limited schedules lose exactly those slots.
            scheduler: POOL_SCHEDULER,
            adaptive,
        },
        service: fixture.service,
        faults: plan.clone(),
        control: None,
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
            seed: FAULT_SEED,
            crash_per_mille: (CRASH_PER_MILLE * intensity).min(1000),
            stall_per_mille: (STALL_PER_MILLE * intensity).min(1000),
            straggle_per_mille: (STRAGGLE_PER_MILLE * intensity).min(1000),
        };
        let plan = FaultPlan::generate(&config, REPLICAS).expect("scaled rates stay per-mille");
        for (policy_label, ladder_slice, policy) in [
            ("pinned", &ladder[..1], AdaptivePolicy::pinned()),
            ("adaptive", ladder, POOL_ESCALATION),
        ] {
            let outcome = simulate_pool(
                ladder_slice,
                Some(&ctx),
                &fixture.inputs,
                &arrivals,
                &options(fixture, policy, &plan),
                None,
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
/// bare client vs retry+hedge.
fn corpus_rows(
    fixture: &SweepFixture,
    ladder: &[Arc<Session>],
    exec: &ExecSettings,
    requests: usize,
) -> Vec<FaultRecord> {
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
            "retry+hedge",
            // A small base backoff: long sleeps would starve batch
            // formation on the survivor and shrink the very batches the
            // retries are trying to ride in on.
            RetryPolicy {
                max_retries: 6,
                backoff_base_ns: 20_000,
            },
            Some(HedgePolicy {
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
    let mut pool = ReplicaPool::new(
        ladder.to_vec(),
        &options(fixture, POOL_ESCALATION, plan),
        exec.config(),
        PoolDriver::FreeRunning,
        false,
    )
    .expect("pool starts");
    pool.resume();

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
    use crate::summary::{Record, Summary};

    #[test]
    fn intensity_family_is_deterministic_and_degrades_monotonically_in_spirit() {
        let exec = ExecSettings::sequential();
        let fixture = SweepFixture::prepare(Scale::Quick, 48, 2024);
        let ladder = fixture.ladder();
        let rows = intensity_rows(&fixture, &ladder, &exec, 48, 2024);
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
        let again = intensity_rows(&fixture, &ladder, &exec, 48, 2024);
        assert_eq!(rows, again);
        // Record names are unique merge keys.
        let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        // This is the committed configuration (n48, seed 2024, Quick): every
        // row renders exactly as its `_sim_` record in BENCH_faults.json.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_faults.json");
        let text = std::fs::read_to_string(path).expect("BENCH_faults.json is committed");
        let committed = Summary::<FaultRecord>::parse(&text).expect("BENCH_faults.json parses");
        for row in &rows {
            let record = committed
                .records
                .iter()
                .find(|r| r.name == row.name)
                .unwrap_or_else(|| panic!("{} is committed", row.name));
            assert_eq!(
                row.to_json().render(),
                record.to_json().render(),
                "{} drifted from BENCH_faults.json",
                row.name
            );
        }
    }

    #[test]
    fn countermeasures_recover_at_least_the_bare_client_on_every_schedule() {
        let exec = ExecSettings::sequential();
        let rows = faults_sweep_with(Scale::Quick, &exec, 48, 2024);
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
