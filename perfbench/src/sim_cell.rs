//! The `sim-mmpp` workload: the million-request anchor cell of the `scale`
//! experiment, replayed through `simulate_pool_stats` and repeated within
//! a run. All host time goes to the virtual-clock scheduler and arrival
//! generation; no model code runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use nbsmt_serve::{
    AdaptivePolicy, ArrivalProcess, BatchPolicy, MetricsSnapshot, PoolConfig, PoolSimOutcome,
    RoutePolicy, SchedulerConfig, ServeError, ServiceModel, Session, SizeModel, SmtConfig,
    TrafficModel,
};
use nbsmt_tensor::tensor::Tensor;

use crate::fixture::Fixture;
use crate::host::{self, CpuTicks};
use crate::report::{Better, Report};
use crate::stats::slow_cost;

/// The adaptive dense → 2T → 4T ladder the cell walks.
pub fn ladder() -> [SmtConfig; 3] {
    [
        SmtConfig::Dense,
        SmtConfig::sysmt_2t(),
        SmtConfig::sysmt_4t(),
    ]
}
/// Requests per simulator call.
const REQUESTS: u64 = 1_000_000;
const REPLICAS: usize = 64;
/// Offered load relative to the pool's size-adjusted dense rate.
const LOAD_X: f64 = 1.0;
/// The counts of `BENCH_scale.json`'s record
/// `scale_synthnet_mmpp_adaptive_r64_x1.0_n1000000`, produced at seed 2024:
/// (completed, rejected, batches, mode transitions).
const ANCHOR_SEED: u64 = 2024;
const ANCHOR_COUNTS: (u64, u64, u64, u64) = (991_966, 8_034, 163_830, 28_910);

/// One fully specified simulator call.
pub struct Cell {
    ladder: Vec<Arc<Session>>,
    inputs: Vec<Tensor<f32>>,
    pub arrivals: ArrivalProcess,
    pool: PoolConfig,
    pub service: ServiceModel,
}

impl Cell {
    /// Builds the anchor cell for workload seed `seed`, deriving the
    /// arrival, size and input seeds exactly as the `scale` experiment does.
    pub fn new(fixture: &Fixture, seed: u64) -> Result<Cell, ServeError> {
        let ladder = ladder()
            .into_iter()
            .map(|smt| fixture.session(smt))
            .collect::<Result<Vec<_>, _>>()?;
        let (inputs, _) = fixture.trained.sample_requests(32, seed.wrapping_add(100));
        let size = SizeModel::BoundedPareto {
            seed: seed.wrapping_add(1000),
            alpha_x1024: 1536,
            min_x1024: 1024,
            max_x1024: 8192,
        };
        let service = ServiceModel {
            size,
            ..ServiceModel::default()
        };
        let mean_size_x1024 = ((0..4096u64)
            .map(|k| u128::from(size.size_x1024(k)))
            .sum::<u128>()
            / 4096)
            .max(1) as f64;
        let dense_rate = 1e9 / service.single_ns(&ladder[0]) as f64;
        let rate = dense_rate * 1024.0 / mean_size_x1024 * REPLICAS as f64 * LOAD_X;
        let burst = rate * 2.5;
        let mean_burst_ns = ((64.0 / burst) * 1e9).max(1.0) as u64;
        let mrps = |rps: f64| ((rps * 1000.0).round() as u64).max(1);
        let arrivals = ArrivalProcess::Generated {
            model: TrafficModel::Mmpp {
                calm_mrps: mrps(rate * 0.5),
                burst_mrps: mrps(burst),
                mean_calm_ns: mean_burst_ns.saturating_mul(3),
                mean_burst_ns,
            },
            seed: seed
                .wrapping_add((LOAD_X * 10.0) as u64)
                .wrapping_add(REQUESTS)
                .wrapping_mul(REPLICAS as u64 | 1),
            n: REQUESTS,
        };
        let pool = PoolConfig {
            replicas: REPLICAS,
            route: RoutePolicy::Hashed,
            scheduler: SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 8,
                    max_wait_ns: 2_000_000,
                },
                queue_capacity: 16,
            },
            adaptive: AdaptivePolicy {
                depth_high: 4,
                depth_low: 1,
                p95_high_ns: 0,
                eval_every_batches: 1,
            },
        };
        Ok(Cell {
            ladder,
            inputs,
            arrivals,
            pool,
            service,
        })
    }

    /// One `simulate_pool_stats` call.
    pub fn run(&self) -> Result<PoolSimOutcome, ServeError> {
        nbsmt_serve::sim::simulate_pool_stats(
            &self.ladder,
            &self.inputs,
            &self.arrivals,
            self.pool,
            self.service,
            None,
            None,
        )
    }
}

/// Checks one call's accounting, and at the anchor seed its counts against
/// the committed record.
pub fn check(metrics: &MetricsSnapshot, seed: u64, report: &mut Report) {
    if metrics.completed + metrics.rejected != REQUESTS {
        report.fail_check("completed + rejected differs from the requests offered");
    }
    let counts = (
        metrics.completed,
        metrics.rejected,
        metrics.batches,
        metrics.mode_transitions,
    );
    if seed == ANCHOR_SEED && counts != ANCHOR_COUNTS {
        report.fail_check(&format!(
            "seed {ANCHOR_SEED} gave {counts:?}, the anchor record has {ANCHOR_COUNTS:?}"
        ));
    }
}

/// The timed run: one discarded warm-up call, then calls until `seconds`
/// have passed (at least three), each checked against the warm-up call.
/// Throughput and CPU per request come from the slow end
/// ([`crate::stats::SLOW_END`]) of the calls' times. A call's time is its
/// wall time less the CPU-seconds the hypervisor stole from the VM
/// meanwhile: the simulator runs on one thread, so the steal falls on its
/// CPU, and it varies between runs without the program changing.
pub fn timed(
    fixture: &Fixture,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) -> Result<(), ServeError> {
    let cell = Cell::new(fixture, seed)?;
    let reference = cell.run()?.metrics;
    check(&reference, seed, report);
    let budget = Duration::from_secs(seconds);
    let first_ticks = CpuTicks::now();
    let start = Instant::now();
    let mut call_s = Vec::new();
    let mut cpu_us = Vec::new();
    while call_s.len() < 3 || start.elapsed() < budget {
        let ticks = CpuTicks::now();
        let cpu = host::process_cpu_ns();
        let call = Instant::now();
        let outcome = cell.run()?;
        let wall_s = call.elapsed().as_secs_f64();
        cpu_us.push((host::process_cpu_ns() - cpu) as f64 / 1e3);
        call_s.push(wall_s - CpuTicks::now().stolen_s_since(&ticks, wall_s));
        report.attempted += 1;
        if outcome.metrics != reference {
            report.failed += 1;
            report.fail_check("a repeated call returned a different MetricsSnapshot");
        }
    }
    let total_calls = call_s.len();
    report.metric(
        "throughput_rps",
        REQUESTS as f64 / slow_cost(&mut call_s),
        "1/s",
        Better::Higher,
    );
    report.metric("p50_ms", reference.p50_ns as f64 / 1e6, "ms", Better::Lower);
    report.metric(
        "cpu_us_per_req",
        slow_cost(&mut cpu_us) / REQUESTS as f64,
        "us",
        Better::Lower,
    );
    report.metric(
        "served_frac",
        reference.completed as f64 / REQUESTS as f64,
        "fraction",
        Better::Higher,
    );
    report.note(
        "host.steal_frac",
        CpuTicks::now().steal_frac_since(&first_ticks),
        "fraction",
    );
    report.note("sim.model_p99_ms", reference.p99_ns as f64 / 1e6, "ms");
    report.note("sim.calls", total_calls as f64, "count");
    Ok(())
}
