//! The `repro obs` experiment: an end-to-end check of the trace pipeline.
//!
//! One seeded arrival trace is replayed through the virtual-clock pool
//! simulator with a recorder capturing every submit → queue-wait → batch →
//! kernel → service → respond event; the model executes for real on the
//! host execution layer. The snapshot is exported through
//! [`crate::trace_export::render_chrome_trace`], the replay runs again, and
//! the two exports must be byte-identical — the same determinism contract
//! the serve tests hold the lockstep pool to. The recorder's host cost is
//! measured by the repository benchmark (`perfbench --trace 1`,
//! `trace.overhead_frac.*`), not here.

use nbsmt_serve::config::{PoolConfig, PoolOptions, RoutePolicy};
use nbsmt_serve::session::Session;
use nbsmt_serve::sim::{simulate_pool, ArrivalProcess, PoolSimOutcome};
use nbsmt_serve::{TraceRecorder, TraceSnapshot};
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Tensor;
use std::sync::Arc;

use crate::experiments::serve_exp::{SweepFixture, POOL_ESCALATION, POOL_SCHEDULER};
use crate::loadgen::open_poisson;
use crate::scale::{ExecSettings, Scale};

/// A prepared trace-export cell: one trained model ladder, one seeded
/// arrival trace, one pool configuration. Every [`ObsBench::run_traced`]
/// replays the *identical* workload.
pub struct ObsBench {
    ladder: Vec<Arc<Session>>,
    ctx: ExecContext,
    inputs: Vec<Tensor<f32>>,
    arrivals: ArrivalProcess,
    options: PoolOptions,
}

impl ObsBench {
    /// Trains and calibrates the SynthNet fixture, compiles the dense→2T→4T
    /// ladder, and generates an open-loop Poisson trace at 2.0× the pool's
    /// aggregate dense service rate — overloaded enough that the adaptive
    /// ladder climbs and the trace contains mode transitions worth seeing.
    pub fn prepare(scale: Scale, exec: &ExecSettings, requests: usize, seed: u64) -> ObsBench {
        let fixture = SweepFixture::prepare(scale, requests, seed);
        let ladder = fixture.ladder();
        let replicas = 2usize;
        let rate = fixture.dense_rate_rps() * replicas as f64 * 2.0;
        let arrivals = open_poisson(seed.wrapping_add(20), rate, requests);
        let config = PoolConfig {
            replicas,
            route: RoutePolicy::RoundRobin,
            scheduler: POOL_SCHEDULER,
            adaptive: POOL_ESCALATION,
        };
        ObsBench {
            ladder,
            ctx: exec.context(),
            inputs: fixture.inputs,
            arrivals,
            options: PoolOptions {
                config,
                service: fixture.service,
                ..PoolOptions::default()
            },
        }
    }

    /// One full simulation recording every pipeline event.
    pub fn run_traced(&self) -> (PoolSimOutcome, TraceSnapshot) {
        let recorder = TraceRecorder::virtual_clock();
        let outcome = simulate_pool(
            &self.ladder,
            Some(&self.ctx),
            &self.inputs,
            &self.arrivals,
            &self.options,
            Some(&recorder),
        )
        .expect("pool simulation succeeds");
        (outcome, recorder.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_export::render_chrome_trace;
    use nbsmt_serve::TraceStage;

    #[test]
    fn traced_run_is_byte_deterministic_and_complete() {
        let exec = ExecSettings::sequential();
        let bench = ObsBench::prepare(Scale::Quick, &exec, 48, 2024);
        let (outcome, snapshot) = bench.run_traced();
        let (again_outcome, again_snapshot) = bench.run_traced();
        assert_eq!(outcome.metrics, again_outcome.metrics);
        assert_eq!(
            render_chrome_trace(&snapshot),
            render_chrome_trace(&again_snapshot),
            "identical seeded runs must export byte-identical traces"
        );
        // Tracing never changes what the simulation computes.
        let off = simulate_pool(
            &bench.ladder,
            Some(&bench.ctx),
            &bench.inputs,
            &bench.arrivals,
            &bench.options,
            None,
        )
        .expect("pool simulation succeeds");
        assert_eq!(off.metrics, outcome.metrics);
        assert_eq!(off.responses, outcome.responses);
        // Every completed request has its full submit → respond chain.
        let responds: Vec<u64> = snapshot
            .events
            .iter()
            .filter(|e| e.stage == TraceStage::Respond)
            .map(|e| e.request.expect("respond carries a request"))
            .collect();
        assert_eq!(responds.len() as u64, outcome.metrics.completed);
        for stage in [
            TraceStage::Submit,
            TraceStage::QueueWait,
            TraceStage::Service,
        ] {
            for &request in &responds {
                assert!(
                    snapshot
                        .events
                        .iter()
                        .any(|e| e.stage == stage && e.request == Some(request)),
                    "request {request} is missing its {} event",
                    stage.name()
                );
            }
        }
        // The overloaded adaptive pool produces kernel spans with PE stats.
        assert!(snapshot
            .events
            .iter()
            .any(|e| e.stage == TraceStage::Kernel && e.stats.is_some()));
        assert_eq!(snapshot.dropped, 0);
    }
}
