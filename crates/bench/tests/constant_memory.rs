//! Constant-memory regression test for the million-request regime.
//!
//! `simulate_pool`'s statistics path (no execution context) promises O(1)
//! memory in the request count: the arrival stream is a lazy generator
//! (never a `Vec`), and every snapshot collection is hard-capped — batch log
//! at `BATCH_LOG_CAP`, transition log at `TRANSITION_LOG_CAP`, rejection log
//! at `REJECTION_LOG_CAP`, responses skipped entirely on the stats path
//! (counted in `dropped_responses`), and the trace ring at its build
//! capacity. This test drives 10^6 requests of
//! bursty MMPP traffic with heavy-tailed sizes through the simulator and
//! asserts that **every one of those collections sits exactly at its
//! documented cap with a non-zero dropped counter** — the observable
//! signature of flat peak memory. If someone removes a cap (or starts
//! materializing arrivals), a dropped counter goes to zero or a length
//! leaves its cap, and this test fails.

use nbsmt_bench::loadgen::{mmpp, pareto_sizes};
use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, PoolOptions, RoutePolicy, SchedulerConfig, SmtConfig,
    BATCH_LOG_CAP, REJECTION_LOG_CAP, TRANSITION_LOG_CAP,
};
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::sim::{simulate_pool, ServiceModel};
use nbsmt_serve::TraceRecorder;
use nbsmt_workloads::synthnet::quick_synthnet;

const REQUESTS: u64 = 1_000_000;

#[test]
fn million_request_sim_keeps_every_collection_at_its_cap() {
    let trained = quick_synthnet(13).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, 14)
        .expect("calibration succeeds");
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
    let (inputs, _) = trained.sample_requests(8, 15);

    // Heavy-tailed sizes; the offered load is anchored to the *size-mean*
    // dense service rate so the calm/burst split below lands where
    // intended regardless of the tail draw.
    let size = pareto_sizes(501, 1_536, 1_024, 8_192);
    let service = ServiceModel {
        size,
        ..ServiceModel::default()
    };
    let mean_size_x1024: u64 = (0..4_096).map(|k| size.size_x1024(k)).sum::<u64>() / 4_096;
    let dense_single_ns = service.single_ns(&ladder[0]);
    let dense_rate_rps = 1e9 / dense_single_ns as f64 * 1_024.0 / mean_size_x1024 as f64;

    // MMPP dimensioned to stress every cap at once: calm at 0.5× dense
    // capacity (queues drain, the ladder steps down), bursts at 6× (past
    // even the 4T ceiling, so admission sheds), ~64 arrivals per burst
    // sojourn → ~10^4 calm/burst cycles across 10^6 requests, each cycle
    // walking the dense→2T→4T ladder up and back down.
    let burst_rps = 6.0 * dense_rate_rps;
    let mean_burst_ns = ((64.0 / burst_rps) * 1e9).max(1.0) as u64;
    let arrivals = mmpp(
        777,
        0.5 * dense_rate_rps,
        burst_rps,
        mean_burst_ns * 4,
        mean_burst_ns,
        REQUESTS,
    );

    let config = PoolConfig {
        replicas: 1,
        route: RoutePolicy::Hashed,
        scheduler: SchedulerConfig {
            batch: BatchPolicy {
                max_batch: 4,
                max_wait_ns: 2_000_000,
            },
            queue_capacity: 8,
        },
        adaptive: AdaptivePolicy {
            depth_high: 2,
            depth_low: 1,
            p95_high_ns: 0,
            eval_every_batches: 1,
        },
    };

    let recorder = TraceRecorder::virtual_clock();
    let options = PoolOptions {
        config,
        service,
        ..PoolOptions::default()
    };
    let outcome = simulate_pool(&ladder, None, &inputs, &arrivals, &options, Some(&recorder))
        .expect("stats simulation succeeds");

    // Every request is accounted for, none is lost to the caps.
    assert_eq!(
        outcome.metrics.completed + outcome.metrics.rejected,
        REQUESTS,
        "admission accounting must cover the whole stream"
    );
    assert!(outcome.metrics.completed > 0 && outcome.metrics.rejected > 0);

    // Batch log: capped, with overflow counted.
    assert_eq!(outcome.batches.len(), BATCH_LOG_CAP, "batch log cap");
    assert!(outcome.dropped_batches > 0, "batch log must overflow");
    assert_eq!(
        outcome.batches.len() as u64 + outcome.dropped_batches,
        outcome.metrics.batches,
        "batch log + dropped = batches launched"
    );

    // Transition log: the twitchy adaptive policy crosses the ladder tens
    // of thousands of times; the log stays at its cap.
    assert_eq!(
        outcome.transitions.len(),
        TRANSITION_LOG_CAP,
        "transition log cap"
    );
    assert!(
        outcome.dropped_transitions > 0,
        "transition log must overflow"
    );
    assert_eq!(
        outcome.transitions.len() as u64 + outcome.dropped_transitions,
        outcome.metrics.mode_transitions,
        "transition log + dropped = transitions taken"
    );

    // Rejection log: 6× bursts past the 4T ceiling shed far more than the
    // cap; the ids list stays bounded.
    assert_eq!(
        outcome.rejected_ids.len(),
        REJECTION_LOG_CAP,
        "rejection log cap"
    );
    assert!(
        outcome.dropped_rejections > 0,
        "rejection log must overflow"
    );
    assert_eq!(
        outcome.rejected_ids.len() as u64 + outcome.dropped_rejections,
        outcome.metrics.rejected,
        "rejection log + dropped = requests shed"
    );

    // Stats path: no logits are ever held; every completion is counted as
    // a dropped response instead.
    assert!(
        outcome.responses.is_empty(),
        "stats path holds no responses"
    );
    assert_eq!(
        outcome.dropped_responses, outcome.metrics.completed,
        "every completion must be accounted as a dropped response"
    );

    // Trace ring: millions of events through a 64Ki ring — full, at
    // capacity, with the overwrite counter running.
    let snapshot = recorder.snapshot();
    assert_eq!(snapshot.events.len(), snapshot.capacity, "trace ring full");
    assert!(snapshot.dropped > 0, "trace ring must have overwritten");

    // The virtual clock actually advanced through the whole stream.
    assert!(outcome.makespan_ns > 0);
}
