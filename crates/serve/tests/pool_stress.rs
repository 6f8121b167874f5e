//! Sustained stress test for the threaded [`ReplicaPool`]: ≥100k requests
//! drawn from a seeded MMPP stream, pushed through real worker threads at
//! full throttle (no pacing — the harshest contention profile the router
//! and per-replica queues can see).
//!
//! The properties under test:
//!
//! * **Zero permit leaks**: every submission either completes (its handle
//!   resolves with a result and the pool counts it) or comes back as a
//!   typed [`SubmitError`]; attempts = completed + `QueueFull` + `Closed`,
//!   and the pool's own `total.completed` / `total.rejected` counters
//!   reconcile exactly with what the client threads observed.
//! * **Constant memory via log caps**: a free-running pool records no
//!   per-batch composition log, and the snapshot's retained logs respect
//!   [`BATCH_LOG_CAP`] / [`TRANSITION_LOG_CAP`] / [`CONTROL_LOG_CAP`] no
//!   matter how many requests flowed — the dropped-* counters, not
//!   unbounded vectors, close the accounting.
//!
//! The big run is `#[ignore]`d (it executes 100k real inferences); CI runs
//! it explicitly in the `pool-stress` job:
//!
//! ```text
//! cargo test -p nbsmt-serve --release --test pool_stress -- --ignored
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use nbsmt_serve::{
    AdaptivePolicy, BatchPolicy, ModelRegistry, PoolConfig, PoolDriver, PoolOptions, ReplicaPool,
    RoutePolicy, SchedulerConfig, Session, SmtConfig, SubmitError, TrafficModel, BATCH_LOG_CAP,
    CONTROL_LOG_CAP, TRANSITION_LOG_CAP,
};
use nbsmt_tensor::exec::ExecConfig;
use nbsmt_tensor::Tensor;
use nbsmt_workloads::synthnet::quick_synthnet;

struct StressCounters {
    /// Every `submit` call made, including retries of a full queue.
    submit_calls: AtomicU64,
    /// Every `QueueFull` error received (one per failed `submit` call).
    queue_full: AtomicU64,
    /// Requests abandoned after exhausting the retry budget.
    shed: AtomicU64,
    closed: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
}

fn ladder_fixture(seed: u64) -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
    let trained = quick_synthnet(seed).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, 600)
        .expect("registration succeeds");
    let ladder = registry
        .compile_ladder(
            "synthnet",
            &[
                SmtConfig::Dense,
                SmtConfig::sysmt_2t(),
                SmtConfig::sysmt_4t(),
            ],
        )
        .expect("ladder compiles");
    let (inputs, _) = trained.sample_requests(64, seed.wrapping_add(1));
    (ladder, inputs)
}

/// Drives `total_requests` MMPP-keyed submissions through a fresh pool with
/// `producers` client threads and returns the pool snapshot plus the
/// client-side accounting. Handles are waited on a dedicated drain thread so
/// the harness itself holds only a bounded window of in-flight responses.
fn run_stress(
    total_requests: u64,
    producers: u64,
    replicas: usize,
    seed: u64,
) -> (nbsmt_serve::PoolSnapshot, u64, StressCounters) {
    let (ladder, inputs) = ladder_fixture(seed);
    let options = PoolOptions {
        config: PoolConfig {
            replicas,
            route: RoutePolicy::Hashed,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait_ns: 200_000,
                },
                queue_capacity: 32,
            },
            adaptive: AdaptivePolicy::default(),
        },
        ..PoolOptions::default()
    };
    let mut pool = ReplicaPool::new(
        ladder,
        &options,
        ExecConfig::default(),
        PoolDriver::FreeRunning,
        false,
    )
    .expect("pool starts");
    pool.resume();

    let counters = Arc::new(StressCounters {
        submit_calls: AtomicU64::new(0),
        queue_full: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        closed: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        cancelled: AtomicU64::new(0),
    });
    let (handle_tx, handle_rx) =
        mpsc::channel::<nbsmt_serve::queue::ResponseHandle<nbsmt_serve::RequestResult>>();

    // Drain thread: waits every accepted handle to completion so producers
    // never accumulate an unbounded backlog of response slots.
    let drain = {
        let counters = Arc::clone(&counters);
        thread::spawn(move || {
            for handle in handle_rx {
                match handle.wait() {
                    Ok(result) => {
                        result.expect("inference succeeds");
                        counters.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        })
    };

    let per_producer = total_requests / producers;
    let attempts = per_producer * producers;
    let workers: Vec<_> = (0..producers)
        .map(|p| {
            let client = pool.client();
            let counters = Arc::clone(&counters);
            let inputs = inputs.clone();
            let handle_tx = handle_tx.clone();
            // Each producer replays its own seeded MMPP key stream — bursty
            // key locality is exactly what hashed routing turns into deep,
            // imbalanced queues.
            let arrivals = TrafficModel::Mmpp {
                calm_mrps: 500_000,
                burst_mrps: 2_500_000,
                mean_calm_ns: 3_000_000,
                mean_burst_ns: 1_000_000,
            }
            .generate(seed.wrapping_add(100).wrapping_add(p), per_producer);
            thread::spawn(move || {
                // Bounded backpressure: retry a full queue with a yield so
                // the producers stress the pool at its own sustained
                // throughput instead of shedding the whole stream, but cap
                // the retries so a wedged pool fails the test instead of
                // hanging it.
                const MAX_RETRIES: u64 = 200_000;
                for arrival in arrivals {
                    let key = arrival.key.wrapping_mul(producers).wrapping_add(p);
                    let input = &inputs[(key % inputs.len() as u64) as usize];
                    let mut tries = 0;
                    loop {
                        counters.submit_calls.fetch_add(1, Ordering::Relaxed);
                        match client.submit(key, input.clone()) {
                            Ok(handle) => {
                                handle_tx.send(handle).expect("drain thread alive");
                                break;
                            }
                            Err(SubmitError::QueueFull { .. }) => {
                                counters.queue_full.fetch_add(1, Ordering::Relaxed);
                                tries += 1;
                                if tries >= MAX_RETRIES {
                                    counters.shed.fetch_add(1, Ordering::Relaxed);
                                    break;
                                }
                                thread::yield_now();
                            }
                            Err(SubmitError::Closed) => {
                                counters.closed.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    drop(handle_tx);

    for worker in workers {
        worker.join().expect("producer thread exits cleanly");
    }
    drain.join().expect("drain thread exits cleanly");
    let snapshot = pool.shutdown();
    let counters = Arc::try_unwrap(counters)
        .map_err(|_| "all clones joined")
        .expect("counters unshared after join");
    (snapshot, attempts, counters)
}

fn assert_invariants(
    snapshot: &nbsmt_serve::PoolSnapshot,
    attempts: u64,
    counters: &StressCounters,
    replicas: usize,
) {
    let submit_calls = counters.submit_calls.load(Ordering::Relaxed);
    let completed = counters.completed.load(Ordering::Relaxed);
    let queue_full = counters.queue_full.load(Ordering::Relaxed);
    let shed = counters.shed.load(Ordering::Relaxed);
    let closed = counters.closed.load(Ordering::Relaxed);
    let cancelled = counters.cancelled.load(Ordering::Relaxed);

    // Zero permit leaks: every submit call is accounted for exactly once at
    // the queue boundary, and every logical request either completed or was
    // shed after its retry budget — on both sides of the queue.
    assert_eq!(cancelled, 0, "no accepted request may be dropped");
    assert_eq!(closed, 0, "admissions stay open until shutdown");
    assert_eq!(submit_calls, completed + queue_full + closed);
    assert_eq!(attempts, completed + shed + closed);
    assert_eq!(snapshot.total.completed, completed);
    assert_eq!(snapshot.total.rejected, queue_full);
    let per_replica_completed: u64 = snapshot.per_replica.iter().map(|m| m.completed).sum();
    assert_eq!(per_replica_completed, snapshot.total.completed);

    // Constant memory: retained logs are capped regardless of volume; the
    // free-running pool records no batch composition log at all.
    assert!(snapshot.batch_log.is_empty());
    assert!(snapshot.batch_log.len() <= BATCH_LOG_CAP);
    assert!(snapshot.transitions.len() <= TRANSITION_LOG_CAP * replicas);
    assert!(snapshot.control_events.len() <= CONTROL_LOG_CAP);
    assert!(snapshot.handoffs.is_empty(), "no faults were injected");
}

/// Quick smoke variant that always runs in CI's default test pass: same
/// invariants, 4k requests.
#[test]
fn pool_survives_mmpp_burst_smoke() {
    const REPLICAS: usize = 2;
    let (snapshot, attempts, counters) = run_stress(4_000, 2, REPLICAS, 71);
    assert_eq!(attempts, 4_000);
    assert_invariants(&snapshot, attempts, &counters, REPLICAS);
}

/// The sustained run: 100k MMPP requests through 4 replicas. `#[ignore]`d
/// because it executes real inferences for every accepted request — CI's
/// `pool-stress` job runs it in release mode.
#[test]
#[ignore = "sustained 100k-request stress run; exercised by the pool-stress CI job"]
fn pool_sustains_100k_mmpp_requests_without_leaks() {
    const REPLICAS: usize = 4;
    let (snapshot, attempts, counters) = run_stress(100_000, 4, REPLICAS, 2024);
    assert_eq!(attempts, 100_000);
    assert_invariants(&snapshot, attempts, &counters, REPLICAS);
    // A sustained full-throttle run must actually exercise the pool: work
    // completes on every replica and admission control sheds under burst.
    assert!(snapshot.per_replica.iter().all(|m| m.completed > 0));
    assert!(
        counters.completed.load(Ordering::Relaxed) >= 90_000,
        "with bounded backpressure, at least 90% of the offered load completes"
    );
    assert!(
        counters.queue_full.load(Ordering::Relaxed) > 0,
        "full-throttle producers must hit admission control at least once"
    );
}
