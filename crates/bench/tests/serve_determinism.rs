//! Determinism contract of the serving path, extending the
//! `tests/exec_equivalence.rs` approach (bit-exactness across backends and
//! host thread counts) from single GEMMs to the full queue → batcher →
//! session pipeline.
//!
//! A seeded load generator plus the virtual-clock scheduler must produce
//! **identical batch compositions** and **bit-identical model outputs** —
//! across repeated runs, across host thread counts 1/2/8, and across GEMM
//! backends. This is the property that makes `repro serve` reproducible on
//! any machine and is enforced by CI on every push.

use std::sync::Arc;

use nbsmt_bench::loadgen::{burst, closed_loop, open_poisson};
use nbsmt_bench::render_chrome_trace;
use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, PoolOptions, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::control::{AutoscaleConfig, ControlConfig, PredictiveConfig, StealConfig};
use nbsmt_serve::faults::{FaultConfig, FaultEvent, FaultKind, FaultPlan};
use nbsmt_serve::pool::{PoolDriver, PoolSnapshot, ReplicaPool};
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::{simulate_pool, ArrivalProcess, PoolSimOutcome, ServiceModel};
use nbsmt_serve::traffic::{SizeModel, TrafficModel};
use nbsmt_serve::TraceRecorder;
use nbsmt_tensor::exec::{ExecConfig, ExecContext, GemmBackendKind};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::quick_synthnet;

struct Fixture {
    registry: ModelRegistry,
    inputs: Vec<Tensor<f32>>,
}

fn fixture(seed: u64) -> Fixture {
    let trained = quick_synthnet(seed).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, seed.wrapping_add(1))
        .expect("calibration succeeds");
    let (inputs, _) = trained.sample_requests(24, seed.wrapping_add(2));
    Fixture { registry, inputs }
}

fn scheduler() -> SchedulerConfig {
    SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 4,
            max_wait_ns: 500_000,
        },
        queue_capacity: 16,
    }
}

fn run(
    fixture: &Fixture,
    smt: SmtConfig,
    ctx: &ExecContext,
    arrivals: &ArrivalProcess,
) -> PoolSimOutcome {
    let session = fixture
        .registry
        .compile("synthnet", smt)
        .expect("session compiles");
    // The single-session simulator: a one-replica pool pinned to `session`.
    let pool = PoolConfig {
        replicas: 1,
        route: RoutePolicy::RoundRobin,
        scheduler: scheduler(),
        adaptive: AdaptivePolicy::pinned(),
    };
    simulate_pool(
        &[session],
        Some(ctx),
        &fixture.inputs,
        arrivals,
        &options(pool),
        None,
    )
    .expect("simulation succeeds")
}

/// Logits as raw bit patterns: `f32` equality is too weak a check for the
/// contract — the serving path promises *bit*-identical outputs.
fn logit_bits(outcome: &PoolSimOutcome) -> Vec<(u64, Vec<u32>)> {
    outcome
        .responses
        .iter()
        .map(|(id, inf)| (*id, inf.logits.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn open_loop_is_identical_across_host_thread_counts() {
    let fixture = fixture(31);
    // Offered rate high enough that batches actually coalesce.
    let arrivals = open_poisson(1234, 5_000.0, 64);
    for smt in [
        SmtConfig::Dense,
        SmtConfig::sysmt_2t(),
        SmtConfig::sysmt_4t(),
    ] {
        let reference = run(&fixture, smt, &ExecContext::sequential(), &arrivals);
        assert!(reference.metrics.completed > 0);
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::with_threads(threads);
            let outcome = run(&fixture, smt, &ctx, &arrivals);
            // Batch compositions: same ids in the same batches at the same
            // virtual times.
            assert_eq!(
                outcome.batches,
                reference.batches,
                "batch schedule must not depend on host threads ({threads}t, {:?})",
                smt.label()
            );
            // Outputs: bit-identical logits per request.
            assert_eq!(
                logit_bits(&outcome),
                logit_bits(&reference),
                "logits must be bit-identical ({threads}t, {:?})",
                smt.label()
            );
            // And the derived metrics agree exactly.
            assert_eq!(outcome.metrics, reference.metrics);
        }
    }
}

#[test]
fn open_loop_is_identical_across_gemm_backends() {
    let fixture = fixture(37);
    let arrivals = open_poisson(99, 3_000.0, 48);
    let reference = run(
        &fixture,
        SmtConfig::sysmt_2t(),
        &ExecContext::sequential(),
        &arrivals,
    );
    for backend in [
        GemmBackendKind::Naive,
        GemmBackendKind::Blocked,
        GemmBackendKind::Parallel,
    ] {
        let ctx = ExecContext::new(ExecConfig {
            threads: 4,
            backend,
            ..ExecConfig::default()
        });
        let outcome = run(&fixture, SmtConfig::sysmt_2t(), &ctx, &arrivals);
        assert_eq!(outcome, reference, "backend {backend} diverged");
    }
}

#[test]
fn closed_loop_is_identical_across_host_thread_counts() {
    let fixture = fixture(41);
    let arrivals = closed_loop(3, 200_000, 30);
    let reference = run(
        &fixture,
        SmtConfig::sysmt_4t(),
        &ExecContext::sequential(),
        &arrivals,
    );
    assert_eq!(reference.metrics.completed, 30);
    for threads in [2usize, 8] {
        let outcome = run(
            &fixture,
            SmtConfig::sysmt_4t(),
            &ExecContext::with_threads(threads),
            &arrivals,
        );
        assert_eq!(outcome, reference);
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    let fixture = fixture(43);
    let arrivals = open_poisson(7, 4_000.0, 40);
    let ctx = ExecContext::with_threads(8);
    let a = run(&fixture, SmtConfig::sysmt_2t(), &ctx, &arrivals);
    let b = run(&fixture, SmtConfig::sysmt_2t(), &ctx, &arrivals);
    assert_eq!(a, b);
}

#[test]
fn seeded_traces_differ_but_each_is_self_consistent() {
    let fixture = fixture(47);
    let ctx = ExecContext::sequential();
    let a = run(
        &fixture,
        SmtConfig::Dense,
        &ctx,
        &open_poisson(1, 4_000.0, 32),
    );
    let b = run(
        &fixture,
        SmtConfig::Dense,
        &ctx,
        &open_poisson(2, 4_000.0, 32),
    );
    assert_ne!(
        a.batches, b.batches,
        "different seeds must give different schedules"
    );
    assert_eq!(a.metrics.completed + a.metrics.rejected, 32);
    assert_eq!(b.metrics.completed + b.metrics.rejected, 32);
}

fn ladder(fixture: &Fixture) -> Vec<Arc<Session>> {
    fixture
        .registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .expect("ladder compiles")
}

fn pool_config(replicas: usize, route: RoutePolicy) -> PoolConfig {
    PoolConfig {
        replicas,
        route,
        scheduler: SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ns: 500_000,
            },
            queue_capacity: 32,
        },
        adaptive: AdaptivePolicy {
            depth_high: 3,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        },
    }
}

/// `config` on the default service model, without faults or a controller.
fn options(config: PoolConfig) -> PoolOptions {
    PoolOptions {
        config,
        ..PoolOptions::default()
    }
}

fn run_pool(fixture: &Fixture, ctx: &ExecContext, config: PoolConfig) -> PoolSimOutcome {
    // Offered rate high enough that queues build, batches coalesce, and the
    // adaptive ladder gets exercised.
    let arrivals = open_poisson(4242, 20_000.0, 72);
    simulate_pool(
        &ladder(fixture),
        Some(ctx),
        &fixture.inputs,
        &arrivals,
        &options(config),
        None,
    )
    .expect("pool simulation succeeds")
}

fn pool_logit_bits(outcome: &PoolSimOutcome) -> Vec<(u64, Vec<u32>)> {
    outcome
        .responses
        .iter()
        .map(|(id, inf)| (*id, inf.logits.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

#[test]
fn sharded_sim_is_identical_across_host_thread_counts_and_replicas() {
    let fixture = fixture(61);
    for replicas in [1usize, 2, 4] {
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastOutstanding,
            RoutePolicy::Hashed,
            RoutePolicy::PowerOfTwo,
        ] {
            let config = pool_config(replicas, route);
            let reference = run_pool(&fixture, &ExecContext::sequential(), config);
            assert!(reference.metrics.completed > 0);
            for threads in [2usize, 8] {
                let outcome = run_pool(&fixture, &ExecContext::with_threads(threads), config);
                assert_eq!(
                    outcome.batches, reference.batches,
                    "batch schedule must not depend on host threads \
                     ({replicas} replicas, {route:?}, {threads}t)"
                );
                assert_eq!(
                    outcome.transitions, reference.transitions,
                    "mode transitions must not depend on host threads \
                     ({replicas} replicas, {route:?}, {threads}t)"
                );
                assert_eq!(pool_logit_bits(&outcome), pool_logit_bits(&reference));
                assert_eq!(outcome.metrics, reference.metrics);
                assert_eq!(outcome.per_replica, reference.per_replica);
            }
        }
    }
}

#[test]
fn sharded_sim_is_identical_across_gemm_backends() {
    let fixture = fixture(67);
    let config = pool_config(2, RoutePolicy::RoundRobin);
    let reference = run_pool(&fixture, &ExecContext::sequential(), config);
    assert!(
        reference.metrics.mode_transitions > 0,
        "the trace must exercise adaptive switching"
    );
    for backend in [
        GemmBackendKind::Naive,
        GemmBackendKind::Blocked,
        GemmBackendKind::Parallel,
    ] {
        let ctx = ExecContext::new(ExecConfig {
            threads: 4,
            backend,
            ..ExecConfig::default()
        });
        let outcome = run_pool(&fixture, &ctx, config);
        assert_eq!(outcome, reference, "backend {backend} diverged");
    }
}

#[test]
fn sharded_sim_repeated_runs_are_bit_identical() {
    let fixture = fixture(71);
    let ctx = ExecContext::with_threads(8);
    let a = run_pool(&fixture, &ctx, pool_config(4, RoutePolicy::Hashed));
    let b = run_pool(&fixture, &ctx, pool_config(4, RoutePolicy::Hashed));
    assert_eq!(a, b);
}

/// The lockstep half of the sharded determinism contract: with the whole
/// trace submitted before any worker runs (paused pool + burst trace), the
/// threaded [`ReplicaPool`] and the virtual-clock [`simulate_pool`] must
/// produce **identical batch compositions**, **identical mode transitions**,
/// and **bit-identical logits** — per replica, for every route policy and
/// replica count. Wall-clock quantities are the only divergence allowed.
#[test]
fn threaded_pool_and_simulator_agree_in_lockstep() {
    let fixture = fixture(73);
    let n = fixture.inputs.len(); // 24 requests, ids 0..24
    for replicas in [1usize, 2, 4] {
        for route in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastOutstanding,
            RoutePolicy::Hashed,
            RoutePolicy::PowerOfTwo,
        ] {
            let options = options(pool_config(replicas, route));

            // Virtual-clock run over the burst trace.
            let sim = simulate_pool(
                &ladder(&fixture),
                Some(&ExecContext::sequential()),
                &fixture.inputs,
                &burst(n),
                &options,
                None,
            )
            .expect("pool simulation succeeds");

            // Threaded run: start paused, submit the same burst
            // single-threaded (id i → input i), then resume.
            let mut pool = ReplicaPool::new(
                ladder(&fixture),
                &options,
                ExecConfig::default(),
                PoolDriver::FreeRunning,
                true,
            )
            .expect("pool starts");
            let client = pool.client();
            let handles: Vec<_> = fixture
                .inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    client
                        .submit(i as u64, input.clone())
                        .expect("burst fits the queues")
                })
                .collect();
            pool.resume();
            let mut threaded_logits: Vec<(u64, Vec<u32>)> = handles
                .into_iter()
                .enumerate()
                .map(|(i, handle)| {
                    let inference = handle
                        .wait()
                        .expect("not cancelled")
                        .expect("no model error");
                    (
                        i as u64,
                        inference.logits.iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect();
            let snapshot = pool.shutdown();

            // Batch compositions and modes, per replica in launch order.
            let sim_log: Vec<(usize, usize, Vec<u64>)> = (0..replicas)
                .flat_map(|r| {
                    sim.batches
                        .iter()
                        .filter(move |b| b.replica == r)
                        .map(|b| (b.replica, b.mode, b.request_ids.clone()))
                })
                .collect();
            let threaded_log: Vec<(usize, usize, Vec<u64>)> = snapshot
                .batch_log
                .iter()
                .map(|b| (b.replica, b.mode, b.keys.clone()))
                .collect();
            assert_eq!(
                threaded_log, sim_log,
                "batch compositions diverged ({replicas} replicas, {route:?})"
            );

            // Mode transitions, bit for bit.
            assert_eq!(
                snapshot.transitions, sim.transitions,
                "mode transitions diverged ({replicas} replicas, {route:?})"
            );

            // Logits, bit for bit (order-normalized: the threaded pool
            // completes in wall-clock order).
            let mut sim_logits = pool_logit_bits(&sim);
            sim_logits.sort_by_key(|(id, _)| *id);
            threaded_logits.sort_by_key(|(id, _)| *id);
            assert_eq!(
                threaded_logits, sim_logits,
                "logits diverged ({replicas} replicas, {route:?})"
            );

            // Both drivers agree on the aggregate counters that are not
            // wall-clock derived.
            assert_eq!(snapshot.total.completed, sim.metrics.completed);
            assert_eq!(snapshot.total.rejected, sim.metrics.rejected);
            assert_eq!(snapshot.total.batches, sim.metrics.batches);
            assert_eq!(
                snapshot.total.batches_per_mode,
                sim.metrics.batches_per_mode
            );
            assert_eq!(
                snapshot.total.mode_transitions,
                sim.metrics.mode_transitions
            );
        }
    }
}

/// The trace half of the lockstep contract: with a virtual-clock recorder
/// attached, the lockstep [`ReplicaPool`] and [`simulate_pool`] must
/// export **byte-identical** Chrome traces for the same burst — every span's
/// stage, timing, batch/mode/layer identity, and per-layer `PeStats` — for
/// every replica count, host thread count, and GEMM backend. The canonical
/// snapshot order is what makes worker interleaving invisible here.
#[test]
fn lockstep_pool_and_simulator_emit_byte_identical_traces() {
    let fixture = fixture(97);
    let n = fixture.inputs.len();
    for replicas in [1usize, 2] {
        let options = options(pool_config(replicas, RoutePolicy::RoundRobin));

        let sim_recorder = TraceRecorder::virtual_clock();
        let sim = simulate_pool(
            &ladder(&fixture),
            Some(&ExecContext::sequential()),
            &fixture.inputs,
            &burst(n),
            &options,
            Some(&sim_recorder),
        )
        .expect("traced pool simulation succeeds");
        assert_eq!(sim.metrics.completed, n as u64, "the burst fits the queues");
        let sim_snapshot = sim_recorder.snapshot();
        assert!(
            sim_snapshot.events.iter().any(|e| e.stats.is_some()),
            "kernel spans must surface PE stats"
        );
        let sim_trace = render_chrome_trace(&sim_snapshot);

        for exec in [
            ExecConfig {
                threads: 1,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 8,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 4,
                backend: GemmBackendKind::Blocked,
                ..ExecConfig::default()
            },
        ] {
            let mut pool =
                ReplicaPool::new(ladder(&fixture), &options, exec, PoolDriver::Lockstep, true)
                    .expect("lockstep pool starts");
            let recorder = Arc::new(TraceRecorder::virtual_clock());
            pool.set_recorder(recorder.clone());
            let client = pool.client();
            let handles: Vec<_> = fixture
                .inputs
                .iter()
                .enumerate()
                .map(|(i, input)| {
                    client
                        .submit(i as u64, input.clone())
                        .expect("burst fits the queues")
                })
                .collect();
            pool.resume();
            for handle in handles {
                let _ = handle
                    .wait()
                    .expect("not cancelled")
                    .expect("no model error");
            }
            // Shutdown joins the workers, so every kernel span recorded
            // outside the gate lock is in the ring before we snapshot.
            let _ = pool.shutdown();
            let pool_trace = render_chrome_trace(&recorder.snapshot());
            assert_eq!(
                pool_trace, sim_trace,
                "exported traces diverged ({replicas} replicas, {} {}t)",
                exec.backend, exec.threads
            );
        }
    }
}

/// Shedding under lockstep: when the burst overflows the per-replica
/// queues, the threaded pool and the simulator agree on *how many* requests
/// each replica shed (rejections are attributed to the replica the router
/// picked, in both drivers), not just on what was served.
#[test]
fn lockstep_shedding_attribution_matches() {
    let fixture = fixture(79);
    let n = fixture.inputs.len(); // 24 requests into 2×capacity-4 queues
    let options = options(PoolConfig {
        scheduler: SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ns: 0,
            },
            queue_capacity: 4,
        },
        ..pool_config(2, RoutePolicy::RoundRobin)
    });
    let sim = simulate_pool(
        &ladder(&fixture),
        Some(&ExecContext::sequential()),
        &fixture.inputs,
        &burst(n),
        &options,
        None,
    )
    .expect("pool simulation succeeds");
    assert!(sim.metrics.rejected > 0, "the burst must overflow");

    let mut pool = ReplicaPool::new(
        ladder(&fixture),
        &options,
        ExecConfig::default(),
        PoolDriver::FreeRunning,
        true,
    )
    .expect("pool starts");
    let client = pool.client();
    let mut handles = Vec::new();
    for (i, input) in fixture.inputs.iter().enumerate() {
        if let Ok(handle) = client.submit(i as u64, input.clone()) {
            handles.push(handle);
        }
    }
    pool.resume();
    for handle in handles {
        let _ = handle.wait().expect("accepted requests complete");
    }
    let snapshot = pool.shutdown();

    assert_eq!(snapshot.total.completed, sim.metrics.completed);
    assert_eq!(snapshot.total.rejected, sim.metrics.rejected);
    for (r, (threaded, simulated)) in snapshot
        .per_replica
        .iter()
        .zip(sim.per_replica.iter())
        .enumerate()
    {
        assert_eq!(
            threaded.rejected, simulated.rejected,
            "replica {r} shed counts diverged"
        );
        assert_eq!(
            threaded.completed, simulated.completed,
            "replica {r} completion counts diverged"
        );
    }
}

// ---- fault-injected lockstep determinism --------------------------------
//
// The same contract, with a seeded `FaultPlan` in the loop: crashes,
// stalls, straggle windows, and queue closes must replay bit-identically
// between the threaded lockstep pool and the virtual-clock simulator — on
// any host thread count, on any GEMM backend, for any replica count.

/// `config` under `plan`, on the default service model.
fn faulted(config: PoolConfig, plan: FaultPlan) -> PoolOptions {
    PoolOptions {
        config,
        faults: plan,
        ..PoolOptions::default()
    }
}

/// The whole burst through the discrete-event simulator under `options`.
fn faulted_sim(fixture: &Fixture, options: &PoolOptions) -> PoolSimOutcome {
    simulate_pool(
        &ladder(fixture),
        Some(&ExecContext::sequential()),
        &fixture.inputs,
        &burst(fixture.inputs.len()),
        options,
        None,
    )
    .expect("faulted pool simulation succeeds")
}

/// The same burst through a lockstep [`ReplicaPool`] under `options`,
/// resolving every handle (completions keep their logit bits; cancellations
/// and rejections drop out). Returning at all is the no-deadlock half of
/// the contract.
fn faulted_lockstep(
    fixture: &Fixture,
    exec: ExecConfig,
    options: &PoolOptions,
) -> (PoolSnapshot, Vec<(u64, Vec<u32>)>) {
    let mut pool = ReplicaPool::new(ladder(fixture), options, exec, PoolDriver::Lockstep, true)
        .expect("lockstep pool starts");
    let client = pool.client();
    let handles: Vec<_> = fixture
        .inputs
        .iter()
        .enumerate()
        .map(|(i, input)| (i as u64, client.submit(i as u64, input.clone()).ok()))
        .collect();
    pool.resume();
    let mut completed = Vec::new();
    for (key, handle) in handles {
        // Rejected (None) and cancelled handles drop out of the logit set.
        if let Some(Ok(result)) = handle.map(|h| h.wait()) {
            let inference = result.expect("no model error");
            let bits = inference.logits.iter().map(|v| v.to_bits()).collect();
            completed.push((key, bits));
        }
    }
    (pool.shutdown(), completed)
}

/// Every observable the contract covers: batch compositions and modes,
/// transitions, handoff decisions, per-replica fault counters, the
/// *virtual* latency quantiles, and the completed requests' logit bits.
fn assert_lockstep_matches_sim(
    label: &str,
    snapshot: &PoolSnapshot,
    completed: &[(u64, Vec<u32>)],
    sim: &PoolSimOutcome,
) {
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
    let pool_log: Vec<(usize, usize, Vec<u64>, usize)> = snapshot
        .batch_log
        .iter()
        .map(|b| (b.replica, b.mode, b.keys.clone(), b.queue_depth_after))
        .collect();
    assert_eq!(pool_log, sim_log, "{label}: batch schedule");
    assert_eq!(
        snapshot.transitions, sim.transitions,
        "{label}: transitions"
    );
    assert_eq!(snapshot.handoffs, sim.handoffs, "{label}: handoffs");
    for (r, (pool_m, sim_m)) in snapshot
        .per_replica
        .iter()
        .zip(&sim.per_replica)
        .enumerate()
    {
        assert_eq!(pool_m.completed, sim_m.completed, "{label} r{r}: completed");
        assert_eq!(pool_m.rejected, sim_m.rejected, "{label} r{r}: rejected");
        assert_eq!(pool_m.crashes, sim_m.crashes, "{label} r{r}: crashes");
        assert_eq!(pool_m.handoffs, sim_m.handoffs, "{label} r{r}: handoffs");
        assert_eq!(
            pool_m.handoff_shed, sim_m.handoff_shed,
            "{label} r{r}: shed"
        );
        assert_eq!(pool_m.stalls, sim_m.stalls, "{label} r{r}: stalls");
        assert_eq!(pool_m.p50_ns, sim_m.p50_ns, "{label} r{r}: virtual p50");
        assert_eq!(pool_m.p95_ns, sim_m.p95_ns, "{label} r{r}: virtual p95");
        assert_eq!(pool_m.p99_ns, sim_m.p99_ns, "{label} r{r}: virtual p99");
    }
    let mut sim_bits = pool_logit_bits(sim);
    sim_bits.sort_by_key(|(id, _)| *id);
    assert_eq!(completed, sim_bits, "{label}: completed logits");
}

/// The tentpole determinism matrix: one seeded mixed-fault schedule per
/// replica count, replayed on every host shape. The generated plan scales
/// with the replica count (per-(replica, batch) coordinate draws), so each
/// pool size sees its own crashes, stalls, straggles, and closes.
#[test]
fn faulted_lockstep_is_identical_across_replicas_threads_and_backends() {
    let fixture = fixture(83);
    let faults = FaultConfig {
        seed: 9,
        horizon_batches: 12,
        crash_per_mille: 40,
        stall_per_mille: 60,
        stall_ns: 2_000_000,
        straggle_per_mille: 80,
        straggle_factor_x1024: 4096,
        straggle_window_batches: 3,
        close_per_mille: 20,
    };
    for replicas in [1usize, 2, 4] {
        let plan = FaultPlan::generate(&faults, replicas).expect("valid config");
        assert!(!plan.is_empty(), "the seeded schedule must fire faults");
        let options = faulted(pool_config(replicas, RoutePolicy::RoundRobin), plan);
        let sim = faulted_sim(&fixture, &options);
        assert!(sim.metrics.completed > 0);
        for exec in [
            ExecConfig {
                threads: 1,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 8,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 4,
                backend: GemmBackendKind::Blocked,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 4,
                backend: GemmBackendKind::Parallel,
                ..ExecConfig::default()
            },
        ] {
            let label = format!("{replicas} replicas, {} {}t", exec.backend, exec.threads);
            let (snapshot, completed) = faulted_lockstep(&fixture, exec, &options);
            assert_lockstep_matches_sim(&label, &snapshot, &completed, &sim);
        }
    }
}

/// The p95 escalation trigger reads the clock abstraction, not the wall
/// clock, so it is *inside* the lockstep contract: with the depth trigger
/// parked out of reach, a fleet-wide straggle must escalate the ladder via
/// virtual p95 alone — identically in the simulator and the threaded pool.
#[test]
fn p95_escalation_is_part_of_the_lockstep_contract() {
    let fixture = fixture(89);
    // Measure the quiet virtual p95 with every trigger disarmed.
    let frozen = PoolConfig {
        adaptive: AdaptivePolicy {
            depth_high: usize::MAX,
            depth_low: 0,
            p95_high_ns: 0,
            eval_every_batches: 1,
        },
        ..pool_config(2, RoutePolicy::RoundRobin)
    };
    let quiet = faulted_sim(&fixture, &options(frozen));
    assert!(quiet.transitions.is_empty(), "no trigger is armed");
    let threshold = quiet.metrics.p95_ns * 2;

    // Arm only the p95 trigger, at double the quiet tail.
    let config = PoolConfig {
        adaptive: AdaptivePolicy {
            p95_high_ns: threshold,
            ..frozen.adaptive
        },
        ..frozen
    };

    // A fleet-wide 4× straggle pushes the virtual p95 past the threshold…
    let plan = FaultPlan::from_events(
        (0..2)
            .map(|replica| FaultEvent {
                replica,
                at_batch: 1,
                kind: FaultKind::Straggle {
                    factor_x1024: 4096,
                    window_batches: 16,
                },
            })
            .collect(),
    );
    let straggled = faulted(config, plan);
    let sim = faulted_sim(&fixture, &straggled);
    assert!(
        sim.transitions.iter().any(|t| t.to > t.from),
        "the straggle-inflated virtual p95 must escalate the ladder"
    );
    // …while the fault-free trace stays below it: the trigger reads the
    // same virtual clock in both runs, so this split is deterministic.
    let still = faulted_sim(&fixture, &options(config));
    assert!(still.transitions.is_empty(), "quiet p95 stays under 2×");

    // The threaded lockstep pool replays the p95-triggered escalations bit
    // for bit, on any host thread count.
    for threads in [1usize, 8] {
        let exec = ExecConfig {
            threads,
            ..ExecConfig::default()
        };
        let label = format!("p95 escalation, {threads}t");
        let (snapshot, completed) = faulted_lockstep(&fixture, exec, &straggled);
        assert_lockstep_matches_sim(&label, &snapshot, &completed, &sim);
    }
}

/// The traffic-model extension of the lockstep contract: a seeded **MMPP
/// burst trace with heterogeneous bounded-Pareto request sizes** replayed
/// through [`ReplicaPool::submit_virtual`] timed admission must match
/// [`simulate_pool`] over the equivalent [`ArrivalProcess::Generated`]
/// stream bit for bit — batch compositions, mode transitions, per-replica
/// counters, *virtual* latency quantiles, and the completed requests'
/// logits — for every replica count, host thread count, and GEMM backend.
/// The size model is a pure function of the router key, so both drivers
/// recompute identical per-request service times from the submitted keys.
#[test]
fn mmpp_sized_lockstep_is_identical_across_replicas_threads_and_backends() {
    let fixture = fixture(101);
    let n = 72u64;
    let model = TrafficModel::Mmpp {
        calm_mrps: 8_000_000,   // 8k rps calm
        burst_mrps: 60_000_000, // 60k rps bursts
        mean_calm_ns: 600_000,
        mean_burst_ns: 300_000,
    };
    let arrival_seed = 404;
    let service = ServiceModel {
        size: SizeModel::BoundedPareto {
            seed: 606,
            alpha_x1024: 1_536,
            min_x1024: 1_024,
            max_x1024: 8_192,
        },
        ..ServiceModel::default()
    };
    let arrivals = ArrivalProcess::Generated {
        model,
        seed: arrival_seed,
        n,
    };
    for replicas in [1usize, 2, 4] {
        let options = PoolOptions {
            config: pool_config(replicas, RoutePolicy::Hashed),
            service,
            ..PoolOptions::default()
        };

        // Virtual-clock reference over the generated stream.
        let sim = simulate_pool(
            &ladder(&fixture),
            Some(&ExecContext::sequential()),
            &fixture.inputs,
            &arrivals,
            &options,
            None,
        )
        .expect("pool simulation succeeds");
        assert!(sim.metrics.completed > 0);
        assert!(
            sim.metrics.mode_transitions > 0,
            "the bursts must exercise the adaptive ladder"
        );

        for exec in [
            ExecConfig {
                threads: 1,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 8,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 4,
                backend: GemmBackendKind::Blocked,
                ..ExecConfig::default()
            },
        ] {
            // Threaded run: the identical stream (same model, same seed)
            // replayed as timed submissions on a paused lockstep pool. The
            // MMPP key is the stream index, so request i carries input
            // i % inputs.len() exactly like the simulator's id mapping.
            let mut pool =
                ReplicaPool::new(ladder(&fixture), &options, exec, PoolDriver::Lockstep, true)
                    .expect("lockstep pool starts");
            let handles: Vec<_> = model
                .generate(arrival_seed, n)
                .enumerate()
                .map(|(i, arrival)| {
                    let input = fixture.inputs[i % fixture.inputs.len()].clone();
                    (
                        arrival.key,
                        pool.submit_virtual(arrival.time_ns, arrival.key, input)
                            .expect("timed submissions are monotone pre-resume"),
                    )
                })
                .collect();
            pool.resume();
            let mut completed = Vec::new();
            for (key, handle) in handles {
                // Gate-shed requests cancel their handles and drop out,
                // mirroring the simulator's rejected-id accounting.
                if let Ok(result) = handle.wait() {
                    let inference = result.expect("no model error");
                    let bits = inference.logits.iter().map(|v| v.to_bits()).collect();
                    completed.push((key, bits));
                }
            }
            let snapshot = pool.shutdown();
            let label = format!(
                "mmpp sized lockstep, {replicas} replicas, {} {}t",
                exec.backend, exec.threads
            );
            assert_lockstep_matches_sim(&label, &snapshot, &completed, &sim);
        }
    }
}

/// The control-plane extension of the lockstep contract: with a
/// [`PoolController`] in the loop (predictive mode floor + autoscaling +
/// work stealing), the threaded lockstep pool and
/// [`simulate_pool`] must agree **bit for bit** on every
/// controller decision — the control-event log (autoscale steps, steal
/// events, predictive shifts with their timestamps), the replica-seconds
/// integral, the control counters, and everything the base contract already
/// covers (batch schedule, transitions, handoffs, quantiles, logits) — for
/// every replica count, host thread count, and GEMM backend.
#[test]
fn controlled_lockstep_is_identical_across_replicas_threads_and_backends() {
    let fixture = fixture(103);
    let n = 72u64;
    let model = TrafficModel::Mmpp {
        calm_mrps: 8_000_000,
        burst_mrps: 60_000_000,
        mean_calm_ns: 600_000,
        mean_burst_ns: 300_000,
    };
    let arrival_seed = 404;
    let service = ServiceModel {
        size: SizeModel::BoundedPareto {
            seed: 606,
            alpha_x1024: 1_536,
            min_x1024: 1_024,
            max_x1024: 8_192,
        },
        ..ServiceModel::default()
    };
    let arrivals = ArrivalProcess::Generated {
        model,
        seed: arrival_seed,
        n,
    };
    for replicas in [1usize, 2, 4] {
        let control = ControlConfig {
            alpha_x1024: 512,
            window_ns: 100_000,
            predictive: Some(PredictiveConfig {
                util_high_x1024: 900,
                util_low_x1024: 300,
            }),
            autoscale: Some(AutoscaleConfig {
                min_replicas: 1,
                max_replicas: replicas,
                util_high_x1024: 700,
                util_low_x1024: 200,
            }),
            steal: Some(StealConfig {
                imbalance_threshold: 2,
                max_steal: 2,
            }),
        };

        let options = PoolOptions {
            config: pool_config(replicas, RoutePolicy::Hashed),
            service,
            control: Some(control),
            ..PoolOptions::default()
        };

        // Virtual-clock reference with the controller in the loop.
        let sim = simulate_pool(
            &ladder(&fixture),
            Some(&ExecContext::sequential()),
            &fixture.inputs,
            &arrivals,
            &options,
            None,
        )
        .expect("controlled pool simulation succeeds");
        assert!(sim.metrics.completed > 0);
        assert!(
            !sim.control_events.is_empty(),
            "the burst trace must exercise the controller ({replicas} replicas)"
        );

        for exec in [
            ExecConfig {
                threads: 1,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 8,
                backend: GemmBackendKind::Naive,
                ..ExecConfig::default()
            },
            ExecConfig {
                threads: 4,
                backend: GemmBackendKind::Blocked,
                ..ExecConfig::default()
            },
        ] {
            let mut pool =
                ReplicaPool::new(ladder(&fixture), &options, exec, PoolDriver::Lockstep, true)
                    .expect("controlled lockstep pool starts");
            let handles: Vec<_> = model
                .generate(arrival_seed, n)
                .enumerate()
                .map(|(i, arrival)| {
                    let input = fixture.inputs[i % fixture.inputs.len()].clone();
                    (
                        arrival.key,
                        pool.submit_virtual(arrival.time_ns, arrival.key, input)
                            .expect("timed submissions are monotone pre-resume"),
                    )
                })
                .collect();
            pool.resume();
            let mut completed = Vec::new();
            for (key, handle) in handles {
                if let Ok(result) = handle.wait() {
                    let inference = result.expect("no model error");
                    let bits = inference.logits.iter().map(|v| v.to_bits()).collect();
                    completed.push((key, bits));
                }
            }
            let snapshot = pool.shutdown();
            let label = format!(
                "controlled lockstep, {replicas} replicas, {} {}t",
                exec.backend, exec.threads
            );
            assert_lockstep_matches_sim(&label, &snapshot, &completed, &sim);
            // The controller-specific observables: every decision, bit for
            // bit, in decision order, plus the replica-seconds integral and
            // the pool-level control counters.
            assert_eq!(
                snapshot.control_events, sim.control_events,
                "{label}: control events"
            );
            assert_eq!(
                snapshot.dropped_control_events, sim.dropped_control_events,
                "{label}: dropped control events"
            );
            assert_eq!(snapshot.replica_ns, sim.replica_ns, "{label}: replica-ns");
            assert_eq!(
                (
                    snapshot.total.predictive_shifts,
                    snapshot.total.scale_ups,
                    snapshot.total.scale_downs,
                    snapshot.total.steals,
                    snapshot.total.stolen_requests,
                ),
                (
                    sim.metrics.predictive_shifts,
                    sim.metrics.scale_ups,
                    sim.metrics.scale_downs,
                    sim.metrics.steals,
                    sim.metrics.stolen_requests,
                ),
                "{label}: control counters"
            );
        }
    }
}

/// The statistics paths promise the full path's batches, virtual latencies,
/// and metrics bit for bit, with model outputs left uncomputed. One seeded
/// MMPP trace with bounded-Pareto sizes and a generated fault plan runs
/// through both paths, with and without a controller that autoscales and
/// steals.
#[test]
fn stats_path_matches_the_full_path() {
    let fixture = fixture(107);
    let replicas = 4;
    let config = pool_config(replicas, RoutePolicy::Hashed);
    let arrivals = ArrivalProcess::Generated {
        model: TrafficModel::Mmpp {
            calm_mrps: 8_000_000,
            burst_mrps: 60_000_000,
            mean_calm_ns: 600_000,
            mean_burst_ns: 300_000,
        },
        seed: 505,
        n: 240,
    };
    let service = ServiceModel {
        size: SizeModel::BoundedPareto {
            seed: 707,
            alpha_x1024: 1_536,
            min_x1024: 1_024,
            max_x1024: 8_192,
        },
        ..ServiceModel::default()
    };
    let faults = FaultConfig {
        seed: 13,
        horizon_batches: 24,
        crash_per_mille: 20,
        stall_per_mille: 60,
        stall_ns: 500_000,
        straggle_per_mille: 60,
        straggle_factor_x1024: 3072,
        straggle_window_batches: 3,
        close_per_mille: 10,
    };
    let plan = FaultPlan::generate(&faults, replicas).expect("valid fault config");
    let control = ControlConfig {
        alpha_x1024: 512,
        window_ns: 100_000,
        predictive: None,
        autoscale: Some(AutoscaleConfig {
            min_replicas: 1,
            max_replicas: replicas,
            util_high_x1024: 700,
            util_low_x1024: 200,
        }),
        steal: Some(StealConfig {
            imbalance_threshold: 2,
            max_steal: 2,
        }),
    };
    let ladder = ladder(&fixture);
    let ctx = ExecContext::sequential();
    let faulted = PoolOptions {
        config,
        service,
        faults: plan,
        control: None,
    };
    let controlled = PoolOptions {
        control: Some(control),
        ..faulted.clone()
    };
    let run = |ctx: Option<&ExecContext>, options: &PoolOptions| {
        simulate_pool(&ladder, ctx, &fixture.inputs, &arrivals, options, None)
    };
    let runs = [
        (
            "controlled",
            run(Some(&ctx), &controlled),
            run(None, &controlled),
        ),
        ("faulted", run(Some(&ctx), &faulted), run(None, &faulted)),
    ];
    for (label, full, stats) in runs {
        let full = full.expect("full-path simulation succeeds");
        let stats = stats.expect("stats-path simulation succeeds");
        assert!(full.metrics.completed > 0, "{label}: nothing completed");
        assert!(
            full.metrics.crashes + full.metrics.stalls > 0,
            "{label}: the fault plan must fire"
        );
        assert_eq!(stats.batches, full.batches, "{label}: batches");
        assert_eq!(stats.transitions, full.transitions, "{label}: transitions");
        assert_eq!(stats.handoffs, full.handoffs, "{label}: handoffs");
        assert_eq!(
            stats.control_events, full.control_events,
            "{label}: control events"
        );
        assert_eq!(stats.per_replica, full.per_replica, "{label}: per replica");
        assert_eq!(stats.metrics, full.metrics, "{label}: metrics");
        assert_eq!(stats.makespan_ns, full.makespan_ns, "{label}: makespan");
        assert_eq!(stats.replica_ns, full.replica_ns, "{label}: replica-ns");
        assert!(
            stats.responses.is_empty(),
            "{label}: stats computes nothing"
        );
        assert_eq!(
            stats.dropped_responses, stats.metrics.completed,
            "{label}: every completion is accounted for"
        );
        if label == "controlled" {
            let steals = full.metrics.steals;
            let scales = full.metrics.scale_ups + full.metrics.scale_downs;
            assert!(
                steals > 0 && scales > 0,
                "the trace must steal and scale ({steals} steals, {scales} scale events)"
            );
        }
    }
}

#[test]
fn overload_backpressure_is_deterministic_too() {
    let fixture = fixture(53);
    // Far past the virtual service rate: admission control must shed, and
    // must shed the *same* requests every time, on every host config.
    let arrivals = open_poisson(11, 1_000_000.0, 96);
    let reference = run(
        &fixture,
        SmtConfig::Dense,
        &ExecContext::sequential(),
        &arrivals,
    );
    assert!(reference.metrics.rejected > 0, "overload must shed load");
    assert_eq!(reference.metrics.completed + reference.metrics.rejected, 96);
    for threads in [2usize, 8] {
        let outcome = run(
            &fixture,
            SmtConfig::Dense,
            &ExecContext::with_threads(threads),
            &arrivals,
        );
        assert_eq!(outcome.rejected_ids, reference.rejected_ids);
        assert_eq!(outcome, reference);
    }
}
