//! The committed chaos-regression corpus: every schedule in
//! [`chaos_corpus`] is one incident class, replayed here as a permanent
//! regression test with exact accounting.
//!
//! The properties under test extend `queue_stress.rs`'s permit invariants
//! across replica death:
//!
//! * **Permits reconcile exactly**: submitted = completed + cancelled +
//!   rejected, for every schedule — a crash may move or shed a request,
//!   never lose or duplicate it.
//! * **No deadlock**: every response handle resolves (`wait` returns), even
//!   when the replica holding the request died, closed admissions, or shed
//!   its whole queue with no survivor.
//! * **Bit-identical replay**: the lockstep pool agrees with itself across
//!   runs and with [`simulate_pool`] on batch compositions, modes,
//!   transitions, handoff decisions, fault counters, latency quantiles, and
//!   logits.
//! * **Countermeasures help**: a retrying/hedging [`FaultClient`] completes
//!   at least as many requests as a fail-fast baseline under the same
//!   schedule.

use std::sync::Arc;

use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, PoolOptions, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::faults::{chaos_corpus, FaultClient, FaultPlan, HedgePolicy, RetryPolicy};
use nbsmt_serve::pool::{PoolDriver, PoolSnapshot, ReplicaPool};
use nbsmt_serve::queue::Cancelled;
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::{simulate_pool, ArrivalProcess, PoolSimOutcome};
use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::quick_synthnet;

const REQUESTS: usize = 32;

fn ladder_fixture() -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
    let trained = quick_synthnet(29).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, 600)
        .unwrap();
    let ladder = registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .unwrap();
    let (inputs, _) = trained.sample_requests(REQUESTS, 601);
    (ladder, inputs)
}

/// The options every driver in this file runs: two replicas, the default
/// service model, and `plan`.
fn options(plan: &FaultPlan) -> PoolOptions {
    PoolOptions {
        config: PoolConfig {
            replicas: 2,
            route: RoutePolicy::RoundRobin,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 4,
                    max_wait_ns: 500_000,
                },
                queue_capacity: 64,
            },
            adaptive: AdaptivePolicy::default(),
        },
        faults: plan.clone(),
        ..PoolOptions::default()
    }
}

/// Outcome of one request's response handle after the pool drained.
enum Fate {
    Completed(Vec<f32>),
    Cancelled,
    Rejected,
}

/// Runs the burst through a lockstep pool under `options`, resolving every
/// handle — the test's no-deadlock assertion is that this returns at all.
fn run_lockstep(
    ladder: &[Arc<Session>],
    inputs: &[Tensor<f32>],
    options: &PoolOptions,
) -> (PoolSnapshot, Vec<(u64, Fate)>) {
    let mut pool = ReplicaPool::new(
        ladder.to_vec(),
        options,
        ExecConfig::default(),
        PoolDriver::Lockstep,
        true,
    )
    .unwrap();
    let client = pool.client();
    let mut handles = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match client.submit(i as u64, input.clone()) {
            Ok(handle) => handles.push((i as u64, Some(handle))),
            Err(_) => handles.push((i as u64, None)),
        }
    }
    pool.resume();
    let fates: Vec<(u64, Fate)> = handles
        .into_iter()
        .map(|(key, handle)| {
            let fate = match handle {
                None => Fate::Rejected,
                Some(handle) => match handle.wait() {
                    Ok(result) => Fate::Completed(result.expect("no execution error").logits),
                    Err(Cancelled) => Fate::Cancelled,
                },
            };
            (key, fate)
        })
        .collect();
    (pool.shutdown(), fates)
}

/// The same burst through the discrete-event simulator under `options`.
fn run_sim(
    ladder: &[Arc<Session>],
    inputs: &[Tensor<f32>],
    options: &PoolOptions,
) -> PoolSimOutcome {
    simulate_pool(
        ladder,
        Some(&ExecContext::new(ExecConfig::default())),
        inputs,
        &ArrivalProcess::Open {
            arrivals_ns: vec![0; inputs.len()],
        },
        options,
        None,
    )
    .unwrap()
}

fn count(fates: &[(u64, Fate)]) -> (u64, u64, u64) {
    let mut completed = 0;
    let mut cancelled = 0;
    let mut rejected = 0;
    for (_, fate) in fates {
        match fate {
            Fate::Completed(_) => completed += 1,
            Fate::Cancelled => cancelled += 1,
            Fate::Rejected => rejected += 1,
        }
    }
    (completed, cancelled, rejected)
}

/// The accounting invariant every schedule must satisfy: a fault may move
/// or shed a request, never lose or duplicate it.
fn assert_permits_reconcile(name: &str, snapshot: &PoolSnapshot, fates: &[(u64, Fate)]) {
    let (completed, cancelled, rejected) = count(fates);
    assert_eq!(
        completed + cancelled + rejected,
        fates.len() as u64,
        "{name}: every submission resolves exactly once"
    );
    assert_eq!(
        snapshot.total.completed, completed,
        "{name}: pool counters agree with the clients' view"
    );
    assert_eq!(
        snapshot.total.rejected, rejected,
        "{name}: rejection counters agree"
    );
    assert_eq!(
        snapshot.total.handoff_shed, cancelled,
        "{name}: every cancellation is a recorded handoff shed"
    );
    let shed_records = snapshot
        .handoffs
        .iter()
        .filter(|h| h.to_replica.is_none())
        .count() as u64;
    assert_eq!(
        shed_records, cancelled,
        "{name}: handoff records agree with cancellations"
    );
}

/// Every corpus schedule replays bit-identically — against a second lockstep
/// run and against the virtual-clock simulator — and reconciles its permits.
#[test]
fn corpus_replays_bit_identically_and_matches_the_simulator() {
    let (ladder, inputs) = ladder_fixture();
    for (name, plan) in chaos_corpus() {
        let options = options(&plan);
        let (snap_a, fates_a) = run_lockstep(&ladder, &inputs, &options);
        let (snap_b, _) = run_lockstep(&ladder, &inputs, &options);
        assert_permits_reconcile(name, &snap_a, &fates_a);

        // Lockstep self-agreement: the wall clock is the only divergence.
        assert_eq!(snap_a.batch_log, snap_b.batch_log, "{name}: batch log");
        assert_eq!(
            snap_a.transitions, snap_b.transitions,
            "{name}: transitions"
        );
        assert_eq!(snap_a.handoffs, snap_b.handoffs, "{name}: handoffs");

        // Simulator agreement: compositions, modes, handoffs, counters, and
        // the *virtual* latency quantiles all match bit for bit.
        let sim = run_sim(&ladder, &inputs, &options);
        let sim_log: Vec<(usize, usize, Vec<u64>, usize)> = sim
            .batches
            .iter()
            .map(|b| {
                (
                    b.replica,
                    b.mode,
                    b.request_ids.clone(),
                    b.queue_depth_after,
                )
            })
            .collect();
        let pool_log: Vec<(usize, usize, Vec<u64>, usize)> = snap_a
            .batch_log
            .iter()
            .map(|b| (b.replica, b.mode, b.keys.clone(), b.queue_depth_after))
            .collect();
        assert_eq!(pool_log, sim_log, "{name}: batch schedule");
        assert_eq!(snap_a.transitions, sim.transitions, "{name}: transitions");
        assert_eq!(snap_a.handoffs, sim.handoffs, "{name}: handoff decisions");
        for (pool_m, sim_m) in snap_a.per_replica.iter().zip(&sim.per_replica) {
            assert_eq!(pool_m.completed, sim_m.completed, "{name}: completed");
            assert_eq!(pool_m.crashes, sim_m.crashes, "{name}: crashes");
            assert_eq!(pool_m.handoffs, sim_m.handoffs, "{name}: handoffs");
            assert_eq!(pool_m.handoff_shed, sim_m.handoff_shed, "{name}: shed");
            assert_eq!(pool_m.stalls, sim_m.stalls, "{name}: stalls");
            assert_eq!(pool_m.p50_ns, sim_m.p50_ns, "{name}: virtual p50");
            assert_eq!(pool_m.p95_ns, sim_m.p95_ns, "{name}: virtual p95");
            assert_eq!(pool_m.p99_ns, sim_m.p99_ns, "{name}: virtual p99");
        }

        // Logits are computed for real in both drivers — compare per key.
        let sim_logits: std::collections::HashMap<u64, &Vec<f32>> = sim
            .responses
            .iter()
            .map(|(id, inf)| (*id, &inf.logits))
            .collect();
        for (key, fate) in &fates_a {
            if let Fate::Completed(logits) = fate {
                assert_eq!(
                    Some(&logits),
                    sim_logits.get(key).as_ref().copied(),
                    "{name}: logits for request {key}"
                );
            }
        }
    }
}

/// Incident: a replica dies while its queue still holds most of a burst.
/// The drain/handoff path must re-route every orphan to the survivor, which
/// then completes them — nothing sheds, nothing hangs.
#[test]
fn crash_during_drain_hands_every_orphan_to_the_survivor() {
    let (ladder, inputs) = ladder_fixture();
    let plan = &chaos_corpus()[0];
    assert_eq!(plan.0, "crash-during-drain");
    let (snapshot, fates) = run_lockstep(&ladder, &inputs, &options(&plan.1));
    assert_permits_reconcile(plan.0, &snapshot, &fates);
    assert_eq!(snapshot.total.crashes, 1);
    assert!(
        snapshot.total.handoffs > 0,
        "the crashed replica's queue must hand off"
    );
    assert_eq!(snapshot.total.handoff_shed, 0, "the survivor has room");
    // Every handed-off request completed on the survivor.
    for handoff in &snapshot.handoffs {
        assert_eq!(handoff.from_replica, 1);
        assert_eq!(handoff.to_replica, Some(0));
        let fate = &fates[handoff.key as usize].1;
        assert!(
            matches!(fate, Fate::Completed(_)),
            "handed-off request {} must complete",
            handoff.key
        );
    }
    assert_eq!(snapshot.total.completed, REQUESTS as u64);
}

/// Incident: cascading failure — the second crash finds no survivor, so its
/// whole queue sheds. Every shed must surface as a typed cancellation on the
/// client's handle, never a hang.
#[test]
fn double_crash_cascade_sheds_the_second_queue_as_cancellations() {
    let (ladder, inputs) = ladder_fixture();
    let corpus = chaos_corpus();
    let (name, plan) = corpus
        .iter()
        .find(|(n, _)| *n == "double-crash-cascade")
        .unwrap();
    let (snapshot, fates) = run_lockstep(&ladder, &inputs, &options(plan));
    assert_permits_reconcile(name, &snapshot, &fates);
    assert_eq!(snapshot.total.crashes, 2, "both replicas must die");
    let (_, cancelled, _) = count(&fates);
    assert!(
        cancelled > 0,
        "the second crash has no survivor: its queue must shed"
    );
    // The first crash still handed off (replica 0 was alive then).
    assert!(snapshot
        .handoffs
        .iter()
        .any(|h| h.from_replica == 1 && h.to_replica == Some(0)));
    // The second crash shed everything (replica 1 was already dead).
    assert!(snapshot
        .handoffs
        .iter()
        .filter(|h| h.from_replica == 0)
        .all(|h| h.to_replica.is_none()));
}

/// Incident: the only survivor has closed admissions when a crash tries to
/// hand off — the handoff must respect the close and shed rather than sneak
/// past admission control.
#[test]
fn closed_survivor_sheds_rather_than_bypassing_admission_control() {
    let (ladder, inputs) = ladder_fixture();
    let corpus = chaos_corpus();
    let (name, plan) = corpus
        .iter()
        .find(|(n, _)| *n == "closed-survivor-sheds")
        .unwrap();
    let (snapshot, fates) = run_lockstep(&ladder, &inputs, &options(plan));
    assert_permits_reconcile(name, &snapshot, &fates);
    assert!(
        snapshot.handoffs.iter().all(|h| h.to_replica.is_none()),
        "no orphan may land on a closed queue"
    );
    assert!(snapshot.total.handoff_shed > 0);
    // The closed replica still drained its own queue.
    assert!(snapshot.per_replica[1].completed > 0);
}

/// Incidents: a stall right as queue pressure drives escalation, and a
/// fleet-wide straggle window. Neither loses a request; the stall is
/// counted; the straggle inflates the virtual tail latency.
#[test]
fn stall_and_straggle_schedules_keep_every_request() {
    let (ladder, inputs) = ladder_fixture();
    let corpus = chaos_corpus();
    let quiet = run_sim(&ladder, &inputs, &options(&FaultPlan::none()));
    for name in ["stall-at-escalation", "all-replicas-straggle"] {
        let (_, plan) = corpus.iter().find(|(n, _)| *n == name).unwrap();
        let (snapshot, fates) = run_lockstep(&ladder, &inputs, &options(plan));
        assert_permits_reconcile(name, &snapshot, &fates);
        assert_eq!(
            snapshot.total.completed, REQUESTS as u64,
            "{name}: nothing crashes, nothing sheds"
        );
        assert_eq!(snapshot.total.crashes, 0, "{name}");
        if name == "stall-at-escalation" {
            assert_eq!(snapshot.total.stalls, 1, "{name}");
        } else {
            // 4× service over the whole run must move the virtual p95.
            assert!(
                snapshot.total.p95_ns > quiet.metrics.p95_ns,
                "{name}: straggle must inflate the virtual tail \
                 ({} vs quiet {})",
                snapshot.total.p95_ns,
                quiet.metrics.p95_ns
            );
        }
    }
}

/// Incident: a replica dies with hedged duplicates in flight, on a *live*
/// (wall-clock) pool. The retrying/hedging client must complete at least as
/// many requests as a fail-fast baseline under the same schedule — the
/// availability bench's headline inequality, asserted here at test scale.
#[test]
fn live_pool_countermeasures_recover_at_least_the_baseline() {
    let (ladder, inputs) = ladder_fixture();
    let corpus = chaos_corpus();
    let (_, plan) = corpus
        .iter()
        .find(|(n, _)| *n == "crash-with-hedge-in-flight")
        .unwrap();
    let run = |retry: RetryPolicy, hedge: Option<HedgePolicy>| -> (u64, u64) {
        let mut pool = ReplicaPool::new(
            ladder.clone(),
            &options(plan),
            ExecConfig::default(),
            PoolDriver::FreeRunning,
            false,
        )
        .unwrap();
        pool.resume();
        let mut client = FaultClient::new(pool.client(), retry, hedge);
        let mut completed = 0u64;
        for (i, input) in inputs.iter().enumerate() {
            if client.call(i as u64, input).is_some() {
                completed += 1;
            }
        }
        let stats = client.stats();
        assert_eq!(stats.completed, completed);
        assert_eq!(stats.completed + stats.failed, inputs.len() as u64);
        drop(pool.shutdown());
        (completed, stats.hedges)
    };
    let (baseline, _) = run(
        RetryPolicy {
            max_retries: 0,
            backoff_base_ns: 1,
        },
        None,
    );
    let (countered, hedges) = run(
        RetryPolicy {
            max_retries: 6,
            backoff_base_ns: 100_000,
        },
        // Hedge aggressively so the crash window overlaps in-flight hedges.
        Some(HedgePolicy { delay_ns: 50_000 }),
    );
    assert!(
        countered >= baseline,
        "countermeasures must not lose ground: {countered} < {baseline}"
    );
    assert!(hedges > 0, "the aggressive hedge delay must fire");
    assert_eq!(
        countered,
        inputs.len() as u64,
        "a surviving replica plus retries completes the whole burst"
    );
}
