//! The `repro serve` experiment: a serving sweep of offered load × NB-SMT
//! configuration over the `nbsmt-serve` subsystem.
//!
//! A SynthNet model is trained and registered once; sessions are compiled
//! for the dense baseline and the 2T / 4T SySMT design points. Each cell of
//! the sweep replays a seeded arrival trace through the deterministic
//! virtual-clock scheduler ([`nbsmt_serve::sim`]): model outputs are
//! computed for real on the host execution layer, while service *time*
//! comes from the integer [`ServiceModel`] in which a T-threaded SySMT
//! session retires work T× faster (§IV). The table this prints — and the
//! `BENCH_serve.json` it feeds — is therefore bit-reproducible on any
//! machine at any `--threads` setting.

use nbsmt_serve::config::{
    AdaptivePolicy, BatchPolicy, PoolConfig, RoutePolicy, SchedulerConfig, SmtConfig,
};
use nbsmt_serve::metrics::MetricsSnapshot;
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_serve::sim::{simulate_pool, ArrivalProcess, PoolSimOutcome, ServiceModel};
use nbsmt_tensor::tensor::Tensor;
use nbsmt_workloads::synthnet::{train_synthnet, SynthTaskConfig};

use crate::loadgen::{closed_loop, open_poisson};
use crate::scale::{ExecSettings, Scale};
use crate::summary::ServeRecord;

impl ServeRecord {
    /// The metric columns of a serving cell's record. The caller names the
    /// cell and fills the label fields (`name`, `smt`, `arrival`,
    /// `offered`, `requests`, `replicas`, `route`).
    pub(crate) fn from_metrics(m: &MetricsSnapshot) -> ServeRecord {
        ServeRecord {
            name: String::new(),
            smt: String::new(),
            arrival: String::new(),
            offered: 0.0,
            requests: 0,
            completed: m.completed,
            rejected: m.rejected,
            throughput_rps: m.throughput_rps,
            p50_ms: m.p50_ns as f64 / 1e6,
            p95_ms: m.p95_ns as f64 / 1e6,
            p99_ms: m.p99_ns as f64 / 1e6,
            mean_batch: m.mean_batch_size,
            max_queue_depth: m.max_queue_depth as u64,
            replicas: 0,
            route: String::new(),
            mode_transitions: m.mode_transitions,
        }
    }
}

/// The shared substrate of both serving sweeps: one trained, calibrated
/// SynthNet, the request-input pool, the virtual-clock service model, and
/// the dense session's single-request service time — the anchor every
/// offered load is expressed against. Keeping this in one place is what
/// makes the `serve` and `shard` rows of `BENCH_serve.json` comparable:
/// both sweeps stress the same model at loads relative to the same rate.
pub(crate) struct SweepFixture {
    pub(crate) registry: ModelRegistry,
    pub(crate) inputs: Vec<Tensor<f32>>,
    pub(crate) service: ServiceModel,
    /// One dense single-request service time [ns].
    pub(crate) dense_single_ns: u64,
}

impl SweepFixture {
    pub(crate) fn prepare(scale: Scale, requests: usize, seed: u64) -> SweepFixture {
        let task = SynthTaskConfig {
            classes: 4,
            image_size: 12,
            noise: 0.2,
        };
        let trained = train_synthnet(
            &task,
            scale.train_per_class(),
            scale.test_per_class(),
            scale.epochs(),
            seed,
        )
        .expect("SynthNet training succeeds");
        let mut registry = ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, seed.wrapping_add(77))
            .expect("calibration succeeds");
        let pool_size = 32.min(requests.max(1));
        let (inputs, _) = trained.sample_requests(pool_size, seed.wrapping_add(100));
        let service = ServiceModel::default();
        let dense_single_ns = {
            let dense = registry
                .compile("synthnet", SmtConfig::Dense)
                .expect("session compiles");
            service.single_ns(&dense)
        };
        SweepFixture {
            registry,
            inputs,
            service,
            dense_single_ns,
        }
    }

    /// One dense session's single-request service rate [requests/s].
    pub(crate) fn dense_rate_rps(&self) -> f64 {
        1e9 / self.dense_single_ns as f64
    }
}

/// The serving sweep at the given scale and host-execution settings.
///
/// `requests` is the open-loop trace length (closed-loop cells issue the
/// same total). Returns one record per cell; offered open-loop load is
/// expressed as a multiple of one dense session's single-request service
/// rate, so the sweep stresses the same relative operating points at every
/// scale.
pub fn serve_sweep_with(
    scale: Scale,
    exec: &ExecSettings,
    requests: usize,
    seed: u64,
) -> Vec<ServeRecord> {
    let SweepFixture {
        registry,
        inputs,
        service,
        dense_single_ns,
    } = SweepFixture::prepare(scale, requests, seed);

    let ctx = exec.context();
    let scheduler = SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ns: 2_000_000,
        },
        queue_capacity: 64,
    };

    let configs: [(&'static str, SmtConfig); 3] = [
        ("dense", SmtConfig::Dense),
        ("2t", SmtConfig::sysmt_2t()),
        ("4t", SmtConfig::sysmt_4t()),
    ];

    // Offered load is expressed relative to the dense session's
    // single-request service rate: 0.5× is comfortable, 2.0× only survives
    // through batching (and the faster SMT design points). Anchoring every
    // cell to the same dense rate is what makes the 2T/4T columns
    // comparable against the baseline.
    let base_rate = 1e9 / dense_single_ns as f64;
    // The record id is the merge key across runs. It includes the trace
    // length so a short smoke run (e.g. CI's `--requests 64`) merges in as
    // its own records instead of replacing the tracked full-length
    // baseline under the same names.
    let record = |smt: &str, arrival: &str, offered: f64, outcome: &PoolSimOutcome| {
        let name = if arrival == "closed_loop" {
            format!(
                "serve_synthnet_{smt}_closed_{}c_n{requests}",
                offered as u64
            )
        } else {
            format!("serve_synthnet_{smt}_open_x{offered:.1}_n{requests}")
        };
        ServeRecord {
            name,
            smt: smt.to_string(),
            arrival: arrival.to_string(),
            offered,
            requests: requests as u64,
            replicas: 1,
            route: "-".to_string(),
            ..ServeRecord::from_metrics(&outcome.metrics)
        }
    };

    let mut rows = Vec::new();
    for (label, smt) in configs {
        let session = registry.compile("synthnet", smt).expect("session compiles");
        for load_x in [0.5f64, 2.0] {
            let rate = base_rate * load_x;
            let arrivals = open_poisson(seed.wrapping_add((load_x * 10.0) as u64), rate, requests);
            let outcome = run_cell(&session, &ctx, &inputs, &arrivals, scheduler, service);
            rows.push(record(label, "open_poisson", load_x, &outcome));
        }
    }

    // Closed loop on the 2T session: a fixed client population with think
    // time equal to one dense single-request service time.
    let session = registry
        .compile("synthnet", SmtConfig::sysmt_2t())
        .expect("session compiles");
    let think_ns = dense_single_ns;
    for clients in [4usize, 16] {
        let arrivals = closed_loop(clients, think_ns, requests);
        let outcome = run_cell(&session, &ctx, &inputs, &arrivals, scheduler, service);
        rows.push(record("2t", "closed_loop", clients as f64, &outcome));
    }
    rows
}

/// One single-session cell: a one-replica pool pinned to `session`.
fn run_cell(
    session: &nbsmt_serve::session::Session,
    ctx: &nbsmt_tensor::exec::ExecContext,
    inputs: &[Tensor<f32>],
    arrivals: &ArrivalProcess,
    scheduler: SchedulerConfig,
    service: ServiceModel,
) -> PoolSimOutcome {
    let pool = PoolConfig {
        replicas: 1,
        route: RoutePolicy::RoundRobin,
        scheduler,
        adaptive: AdaptivePolicy::pinned(),
    };
    simulate_pool(&[session], ctx, inputs, arrivals, pool, service).expect("simulation succeeds")
}

/// One cell of the sharded serving sweep (`repro shard`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRow {
    /// The cell's `BENCH_serve.json` record: `smt` holds the mode policy,
    /// `dense` (pinned rung 0) or `adaptive` (dense → 2T → 4T ladder under
    /// the depth policy), and `offered` is a multiple of the pool's
    /// *aggregate* dense service rate.
    pub record: ServeRecord,
    /// Batches executed per ladder rung.
    pub batches_per_mode: Vec<u64>,
}

/// The sharded serving sweep: replicas × route policy × {pinned dense,
/// adaptive dense→2T→4T}, each cell replaying a seeded open-loop Poisson
/// trace through [`simulate_pool`]. Offered load is expressed relative to
/// the pool's aggregate dense service rate, so "2.0×" stresses every
/// replica count at the same relative operating point — the sweep that
/// demonstrates the paper's trade operationally: under overload the
/// adaptive pool walks up the SMT ladder and sheds (bounded) accuracy
/// instead of requests.
pub fn shard_sweep_with(
    scale: Scale,
    exec: &ExecSettings,
    requests: usize,
    replica_counts: &[usize],
    seed: u64,
) -> Vec<ShardRow> {
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
    let (inputs, service) = (&fixture.inputs, fixture.service);

    let ctx = exec.context();
    // Tighter per-replica queue than the unsharded sweep: the shard cells
    // are about *shedding* behaviour under overload, and a deep queue would
    // need a very long trace before admission control engages at all.
    let scheduler = SchedulerConfig {
        batch: BatchPolicy {
            max_batch: 8,
            max_wait_ns: 2_000_000,
        },
        queue_capacity: 16,
    };
    let base_rate = fixture.dense_rate_rps();

    // Trigger well before the queue is full: with max_batch 8 draining a
    // 16-deep queue, a post-drain depth of 4 means the queue was at 12 of
    // 16 — escalate *before* admission control starts shedding, not after.
    let adaptive = AdaptivePolicy {
        depth_high: 4,
        depth_low: 1,
        p95_high_ns: 0,
        eval_every_batches: 1,
    };
    let routes = [
        RoutePolicy::RoundRobin,
        RoutePolicy::LeastOutstanding,
        RoutePolicy::Hashed,
    ];

    let mut rows = Vec::new();
    for &replicas in replica_counts {
        let replicas = replicas.max(1);
        for route in routes {
            for (policy_label, ladder_slice, policy) in [
                ("dense", &ladder[..1], AdaptivePolicy::pinned()),
                ("adaptive", &ladder[..], adaptive),
            ] {
                // 2.0× the aggregate dense rate everywhere (the overload
                // point); the comfortable 0.5× point only on round-robin —
                // it adds nothing per route policy.
                let loads: &[f64] = if route == RoutePolicy::RoundRobin {
                    &[0.5, 2.0]
                } else {
                    &[2.0]
                };
                for &load_x in loads {
                    let rate = base_rate * replicas as f64 * load_x;
                    let arrivals =
                        open_poisson(seed.wrapping_add((load_x * 10.0) as u64), rate, requests);
                    let outcome = simulate_pool(
                        ladder_slice,
                        &ctx,
                        inputs,
                        &arrivals,
                        PoolConfig {
                            replicas,
                            route,
                            scheduler,
                            adaptive: policy,
                        },
                        service,
                    )
                    .expect("pool simulation succeeds");
                    let record = ServeRecord {
                        name: format!(
                            "shard_synthnet_r{replicas}_{}_{policy_label}_x{load_x:.1}_n{requests}",
                            route.label()
                        ),
                        smt: policy_label.to_string(),
                        arrival: "open_poisson".to_string(),
                        offered: load_x,
                        requests: requests as u64,
                        replicas: replicas as u64,
                        route: route.label().to_string(),
                        ..ServeRecord::from_metrics(&outcome.metrics)
                    };
                    rows.push(ShardRow {
                        record,
                        batches_per_mode: outcome.metrics.batches_per_mode,
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

    #[test]
    fn sweep_covers_the_full_grid_and_is_deterministic() {
        let exec = ExecSettings::sequential();
        let rows = serve_sweep_with(Scale::Quick, &exec, 48, 2024);
        // 3 configs × 2 open-loop loads + 2 closed-loop cells.
        assert_eq!(rows.len(), 8);
        for smt in ["dense", "2t", "4t"] {
            assert!(
                rows.iter()
                    .filter(|r| r.smt == smt && r.arrival == "open_poisson")
                    .count()
                    == 2
            );
        }
        // Every open-loop request is accounted for.
        for row in &rows {
            if row.arrival == "open_poisson" {
                assert_eq!(row.completed + row.rejected, row.requests);
            } else {
                assert_eq!(row.completed, row.requests);
            }
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
        }
        // Identical on a re-run — the whole sweep is virtual-clocked.
        let again = serve_sweep_with(Scale::Quick, &exec, 48, 2024);
        assert_eq!(rows, again);
    }

    #[test]
    fn shard_sweep_covers_the_grid_and_is_deterministic() {
        let exec = ExecSettings::sequential();
        let rows = shard_sweep_with(Scale::Quick, &exec, 48, &[1, 2], 2024);
        // Per replica count: rr × {dense, adaptive} × {0.5, 2.0} + (lo,
        // hash) × {dense, adaptive} × {2.0} = 8 cells.
        assert_eq!(rows.len(), 16);
        for ShardRow { record: row, .. } in &rows {
            assert_eq!(row.completed + row.rejected, row.requests);
            assert!(row.p50_ms <= row.p95_ms && row.p95_ms <= row.p99_ms);
            assert!(!row.name.is_empty());
        }
        // Record names are unique (the merge key must not collide).
        let mut names: Vec<&str> = rows.iter().map(|r| r.record.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        let again = shard_sweep_with(Scale::Quick, &exec, 48, &[1, 2], 2024);
        assert_eq!(rows, again);
    }

    #[test]
    fn adaptive_pool_absorbs_overload_with_fewer_sheds_than_dense() {
        // The acceptance criterion of the sharded sweep: at 2.0× the
        // aggregate dense service rate, the adaptive ladder sheds fewer
        // requests than the dense-only pool — it trades accuracy (higher
        // rungs) for requests, on every route policy and replica count.
        let exec = ExecSettings::sequential();
        let rows = shard_sweep_with(Scale::Quick, &exec, 192, &[1, 2], 7);
        let cell = |replicas: u64, route: &str, policy: &str, load: f64| {
            rows.iter()
                .find(|r| {
                    r.record.replicas == replicas
                        && r.record.route == route
                        && r.record.smt == policy
                        && r.record.offered == load
                })
                .expect("cell exists")
        };
        for replicas in [1u64, 2] {
            for route in ["rr", "lo", "hash"] {
                let dense = &cell(replicas, route, "dense", 2.0).record;
                let adaptive_row = cell(replicas, route, "adaptive", 2.0);
                let adaptive = &adaptive_row.record;
                assert!(
                    dense.rejected > 0,
                    "dense-only must shed at 2x ({replicas} replicas, {route})"
                );
                assert!(
                    adaptive.rejected < dense.rejected,
                    "adaptive must shed less ({replicas} replicas, {route}): {} vs {}",
                    adaptive.rejected,
                    dense.rejected
                );
                assert!(
                    adaptive.mode_transitions > 0,
                    "overload must drive mode switches ({replicas} replicas, {route})"
                );
                assert!(adaptive_row.batches_per_mode.iter().skip(1).sum::<u64>() > 0);
            }
        }
        // At the comfortable 0.5x point the adaptive pool stays (almost)
        // dense: no sheds either way.
        let easy = cell(2, "rr", "adaptive", 0.5);
        assert_eq!(easy.record.rejected, 0);
    }

    #[test]
    fn shard_summary_round_trips_records() {
        let exec = ExecSettings::sequential();
        let rows = shard_sweep_with(Scale::Quick, &exec, 32, &[2], 11);
        let summary = Summary {
            records: rows.into_iter().map(|r| r.record).collect(),
        };
        // The writer rounds floats to 3 decimals, so one render→parse pass
        // is lossy by design; after that, the round trip must be exact.
        let parsed = Summary::<ServeRecord>::parse(&summary.to_json()).expect("summary parses");
        assert_eq!(parsed.to_json(), summary.to_json());
        for (a, b) in parsed.records.iter().zip(&summary.records) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                (a.completed, a.rejected, a.mode_transitions),
                (b.completed, b.rejected, b.mode_transitions)
            );
        }
        assert!(parsed.records.iter().all(|r| r.replicas == 2));
        assert!(parsed
            .records
            .iter()
            .any(|r| r.smt == "adaptive" && r.route == "rr"));
    }

    #[test]
    fn faster_design_points_serve_overload_better() {
        let exec = ExecSettings::sequential();
        let rows = serve_sweep_with(Scale::Quick, &exec, 64, 7);
        let cell = |smt: &str, load: f64| {
            rows.iter()
                .find(|r| r.smt == smt && r.arrival == "open_poisson" && r.offered == load)
                .expect("cell exists")
        };
        // At 2× the dense service rate, the 4T session sheds no more than
        // the dense one (it has 4× the virtual throughput).
        assert!(cell("4t", 2.0).rejected <= cell("dense", 2.0).rejected);
        // And its p99 latency is no worse.
        assert!(cell("4t", 2.0).p99_ms <= cell("dense", 2.0).p99_ms + 1e-9);
    }
}
