//! The traced run: per-layer metrics, each taken around the calls into one
//! layer from the benchmark's own code. Every traced run measures every
//! layer, whichever workload it is started for.
//!
//! The pool's kernel spans are split by PE cycle weights rather than
//! measured, so none is reported; the `nn.*` and `exec.*` times come from
//! the timing `GemmEngine` below instead.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nbsmt_core::pe::PeStats;
use nbsmt_core::{NbSmtMatmul, NbSmtMatmulConfig, SharingPolicy, ThreadCount};
use nbsmt_nn::model::Layer;
use nbsmt_nn::quantized::{GemmEngine, QuantizedModel, ReferenceEngine};
use nbsmt_nn::NnError;
use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::quantized_matmul_with;
use nbsmt_serve::{
    ArrivalProcess, Clock, ServeError, SmtConfig, TraceEvent, TraceRecorder, TraceStage,
};
use nbsmt_tensor::exec::{ExecConfig, ExecContext, GemmBackendKind};
use nbsmt_tensor::ops;
use nbsmt_tensor::tensor::{Matrix, Tensor};

use crate::fixture::{exec_config, Fixture, RequestPool, CALIB_SEED};
use crate::host::CpuTicks;
use crate::report::{Better, Report};
use crate::sim_cell::{self, Cell};
use crate::stats::{median, median_ns};
use crate::wall::{run_phase, windows_in, Phase, Wall, POOL_INPUTS, WARMUP};

/// Timed repetitions of each single-layer call; each metric is a median.
const REPS: usize = 200;
/// Untimed calls before each timed series.
const WARM_REPS: usize = 20;
/// The traced pool phase: a short warm-up, then measured windows.
const TRACED_WARMUP: Duration = Duration::from_secs(1);
const TRACED_SECONDS: u64 = 2;
/// Ring size for a traced phase: about four events per request plus five
/// per batch, for at most 3 s at well above the closed loop's rate, so
/// nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 18;
const BACKENDS: [GemmBackendKind; 5] = [
    GemmBackendKind::Naive,
    GemmBackendKind::Blocked,
    GemmBackendKind::Parallel,
    GemmBackendKind::Simd,
    GemmBackendKind::Packed,
];

/// Runs every per-layer measurement once.
pub fn traced_run(seed: u64, seconds: u64) -> Result<Report, ServeError> {
    let ticks = CpuTicks::now();
    let mut report = Report::new();
    let fixture = Fixture::measure(&sim_cell::ladder())?;
    report.metric("setup.train_s", fixture.times.train_s, "s", Better::Lower);
    report.metric(
        "setup.calibrate_s",
        fixture.times.calibrate_s,
        "s",
        Better::Lower,
    );
    report.metric(
        "setup.compile_s",
        fixture.times.compile_s,
        "s",
        Better::Lower,
    );

    let mut dropped = 0;
    for workload in [Wall::DenseClosed, Wall::Sysmt2Open] {
        dropped += pool_layers(&fixture, workload, seed, seconds, &mut report)?;
    }
    report.metric("trace.dropped", dropped as f64, "count", Better::Lower);

    let (inputs, _) = fixture.trained.sample_requests(POOL_INPUTS, seed);
    session_layers(&fixture, &inputs, &mut report)?;
    nn_layers(&fixture, &inputs, &mut report)?;
    sim_layers(&fixture, seed, &mut report)?;
    report.metric(
        "host.steal_frac",
        CpuTicks::now().steal_frac_since(&ticks),
        "fraction",
        Better::Lower,
    );
    Ok(report)
}

/// `serve::pool`, `serve::queue`, `serve::trace` and the load generator on
/// one wall-clock workload: an untraced phase as long as a timed run, then
/// a short phase with the wall-clock recorder attached. Returns the events
/// the recorder dropped.
fn pool_layers(
    fixture: &Fixture,
    workload: Wall,
    seed: u64,
    seconds: u64,
    report: &mut Report,
) -> Result<u64, ServeError> {
    let session = fixture.session(workload.smt())?;
    let requests = RequestPool::new(&fixture.trained, &session, POOL_INPUTS, seed)?;
    let untraced = Phase {
        warmup: WARMUP,
        windows: windows_in(seconds),
        recorder: None,
    };
    let plain = run_phase(workload, Arc::clone(&session), &requests, seed, &untraced)?;
    let recorder = Arc::new(TraceRecorder::new(Clock::wall(), TRACE_CAPACITY));
    let traced_phase = Phase {
        warmup: TRACED_WARMUP,
        windows: windows_in(TRACED_SECONDS),
        recorder: Some(Arc::clone(&recorder)),
    };
    let traced = run_phase(workload, session, &requests, seed, &traced_phase)?;
    for phase in [&plain, &traced] {
        report.attempted += phase.attempted();
        report.failed += phase.failed();
        if !phase.all_correct() {
            report.fail_check("a served response differs from its reference");
        }
    }

    let trace = recorder.snapshot();
    let (from, to) = traced.measured_span();
    let (from_ns, to_ns) = (
        recorder.clock().instant_ns(from),
        recorder.clock().instant_ns(to),
    );
    let spans = |stage: TraceStage| -> Vec<&TraceEvent> {
        trace
            .events
            .iter()
            .filter(|e| e.stage == stage && e.start_ns >= from_ns && e.start_ns < to_ns)
            .collect()
    };
    let durations = |stage| spans(stage).iter().map(|e| e.dur_ns).collect::<Vec<u64>>();
    let batches = spans(TraceStage::Batch);
    let batched: usize = batches.iter().filter_map(|e| e.batch_size).sum();
    let busy_ns: u64 = batches.iter().map(|e| e.dur_ns).sum();

    let n = workload.name();
    let m = |name: &str| format!("{name}.{n}");
    report.metric(
        m("pool.submit_us_p50"),
        plain.submit_us_p50(),
        "us",
        Better::Lower,
    );
    report.metric(
        m("pool.queue_wait_ms_p50"),
        median_ns(&durations(TraceStage::QueueWait), 1e-6),
        "ms",
        Better::Lower,
    );
    report.metric(
        m("pool.service_ms_p50"),
        median_ns(&durations(TraceStage::Service), 1e-6),
        "ms",
        Better::Lower,
    );
    report.metric(
        m("pool.batch_mean"),
        batched as f64 / batches.len().max(1) as f64,
        "requests",
        Better::Higher,
    );
    report.metric(
        m("pool.rejected"),
        plain.snapshot.total.rejected as f64,
        "count",
        Better::Lower,
    );
    report.metric(
        m("pool.worker_busy_frac"),
        busy_ns as f64 / to_ns.saturating_sub(from_ns).max(1) as f64,
        "fraction",
        Better::Lower,
    );
    report.metric(
        m("pool.worker_cpu_us_per_req"),
        plain.worker_cpu_us_per_req(),
        "us",
        Better::Lower,
    );
    report.metric(
        m("pool.latency_p99_ms"),
        plain.latency_ms(0.99),
        "ms",
        Better::Lower,
    );
    report.metric(
        m("pool.latency_p999_ms"),
        plain.latency_ms(0.999),
        "ms",
        Better::Lower,
    );
    report.metric(
        m("pool.latency_samples"),
        plain.latency_samples() as f64,
        "count",
        Better::Higher,
    );
    report.metric(
        m("loadgen.cpu_us_per_req"),
        plain.loadgen_cpu_us_per_req(),
        "us",
        Better::Lower,
    );
    if workload == Wall::Sysmt2Open {
        report.metric(
            "loadgen.late_ms_p99",
            plain.late_ms_p99(),
            "ms",
            Better::Lower,
        );
    }
    report.metric(
        m("trace.overhead_frac"),
        traced.cpu_us_per_req() / plain.cpu_us_per_req() - 1.0,
        "fraction",
        Better::Lower,
    );
    Ok(trace.dropped)
}

/// Median wall time of `REPS` calls of `f` after `WARM_REPS` untimed ones
/// [µs]. `f` receives the repetition index.
fn time_us<T>(mut f: impl FnMut(usize) -> T) -> f64 {
    for rep in 0..WARM_REPS {
        black_box(f(rep));
    }
    let mut us: Vec<f64> = (0..REPS)
        .map(|rep| {
            let start = Instant::now();
            black_box(f(rep));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut us)
}

/// The pool's inputs stacked into consecutive batches of `size`.
fn batches(inputs: &[Tensor<f32>], size: usize) -> Vec<Tensor<f32>> {
    inputs
        .chunks_exact(size)
        .map(|chunk| {
            let mut dims = vec![size];
            dims.extend_from_slice(&chunk[0].shape().dims()[1..]);
            let data: Vec<f32> = chunk
                .iter()
                .flat_map(|t| t.as_slice().iter().copied())
                .collect();
            Tensor::from_vec(data, &dims).expect("stacked inputs match their shape")
        })
        .collect()
}

/// `serve::session`: `Session::infer_batch_refs` on each rung and batch.
fn session_layers(
    fixture: &Fixture,
    inputs: &[Tensor<f32>],
    report: &mut Report,
) -> Result<(), ServeError> {
    let ctx = ExecContext::new(exec_config());
    for (label, smt, size) in [
        ("dense-b8", SmtConfig::Dense, 8),
        ("2t-b4", SmtConfig::sysmt_2t(), 4),
        ("2t-b8", SmtConfig::sysmt_2t(), 8),
    ] {
        let session = fixture.session(smt)?;
        let groups: Vec<Vec<&Tensor<f32>>> = inputs
            .chunks_exact(size)
            .map(|c| c.iter().collect())
            .collect();
        let us = time_us(|rep| {
            session
                .infer_batch_refs(&ctx, &groups[rep % groups.len()])
                .expect("a pool input is a valid request")
        });
        report.metric(format!("session.infer_us.{label}"), us, "us", Better::Lower);
    }
    Ok(())
}

/// The NB-SMT GEMM exactly as the serving session runs it, collecting the
/// PE statistics of each layer.
struct NbSmtEngine {
    threads: ThreadCount,
    policy: SharingPolicy,
    reorder: bool,
    first_layer_1t: bool,
    stats: Vec<PeStats>,
}

impl NbSmtEngine {
    fn for_session(smt: SmtConfig, layers: usize) -> NbSmtEngine {
        let SmtConfig::NbSmt {
            threads,
            policy,
            reorder,
            first_layer_1t,
        } = smt
        else {
            panic!("an NB-SMT engine needs an NB-SMT design point");
        };
        NbSmtEngine {
            threads,
            policy,
            reorder,
            first_layer_1t,
            stats: vec![PeStats::default(); layers],
        }
    }
}

impl GemmEngine for NbSmtEngine {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        let threads = if layer_index == 0 && self.first_layer_1t {
            ThreadCount::One
        } else {
            self.threads
        };
        let out = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads,
            policy: self.policy,
            reorder: self.reorder && threads.count() > 1,
        })
        .execute_with(ctx, x, w)?;
        self.stats[layer_index].merge(&out.stats);
        Ok(out.output)
    }
}

/// Times each layer's GEMM inside a forward pass.
struct Timed<E> {
    inner: E,
    gemm_ns: Vec<u64>,
}

impl<E: GemmEngine> GemmEngine for Timed<E> {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        let start = Instant::now();
        let out = self.inner.gemm(ctx, layer_index, x, w);
        self.gemm_ns[layer_index] = start.elapsed().as_nanos() as u64;
        out
    }
}

/// Median forward time and median per-layer GEMM times of `engine` over
/// `batches` [µs]. Fails the report when a forward's logits differ from
/// the serving session's.
fn time_forward<E: GemmEngine>(
    quantized: &QuantizedModel,
    engine: &mut Timed<E>,
    batches: &[Tensor<f32>],
    served: &[Vec<f32>],
    report: &mut Report,
) -> Result<(f64, Vec<f64>), NnError> {
    let ctx = ExecContext::new(exec_config());
    for batch in batches.iter().cycle().take(WARM_REPS) {
        quantized.forward_with_ctx(&ctx, batch, engine)?;
    }
    let mut forward_us = Vec::with_capacity(REPS);
    let mut gemm_us = vec![Vec::with_capacity(REPS); engine.gemm_ns.len()];
    let mut logits_match = true;
    for rep in 0..REPS {
        let i = rep % batches.len();
        let start = Instant::now();
        let logits = quantized.forward_with_ctx(&ctx, &batches[i], engine)?;
        forward_us.push(start.elapsed().as_secs_f64() * 1e6);
        for (layer, &ns) in engine.gemm_ns.iter().enumerate() {
            gemm_us[layer].push(ns as f64 / 1e3);
        }
        logits_match &= bits_equal(logits.as_slice(), &served[i]);
    }
    if !logits_match {
        report.fail_check("the nn wrapper's logits differ from the session's");
    }
    Ok((
        median(&mut forward_us),
        gemm_us.iter_mut().map(|us| median(us)).collect(),
    ))
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `nn::quantized`, `tensor::exec` and `core::fastpath`: the forward pass
/// split into GEMM, weight prep, im2col and the rest; each GEMM backend on
/// each layer's real operands; the share of 2T thread slots squeezed.
fn nn_layers(
    fixture: &Fixture,
    inputs: &[Tensor<f32>],
    report: &mut Report,
) -> Result<(), ServeError> {
    let trained = &fixture.trained;
    let calibration = trained.calibration_inputs(8, CALIB_SEED);
    let quantized = QuantizedModel::calibrate(&trained.model, &[calibration])?;
    let layers = quantized.compute_layer_count();
    let ctx = ExecContext::new(exec_config());

    let weight_prep_us: Vec<f64> = (0..layers)
        .map(|i| {
            time_us(|_| {
                quantized
                    .quantized_weights(i)
                    .expect("layer index in range")
            })
        })
        .collect();
    for (i, us) in weight_prep_us.iter().enumerate() {
        report.metric(format!("nn.weight_prep_us.L{i}"), *us, "us", Better::Lower);
    }

    let im2col_us = |size: usize| -> Result<Vec<f64>, NnError> {
        let batch = &batches(inputs, size)[0];
        let (layer_inputs, _) = quantized.model().forward_collect(batch)?;
        Ok(quantized
            .model()
            .layers()
            .iter()
            .zip(&layer_inputs)
            .filter_map(|(layer, input)| match layer {
                Layer::Conv2d(conv) => Some(time_us(|_| {
                    ops::im2col(input, &conv.params, 0).expect("conv input matches its layer")
                })),
                _ => None,
            })
            .collect())
    };
    let im2col_b8 = im2col_us(8)?;
    for (i, us) in im2col_b8.iter().enumerate() {
        report.metric(format!("nn.im2col_us.b8.L{i}"), *us, "us", Better::Lower);
    }
    let im2col_b4 = im2col_us(4)?;

    for (label, smt, size, im2col) in [
        ("dense-b8", SmtConfig::Dense, 8, &im2col_b8),
        ("2t-b4", SmtConfig::sysmt_2t(), 4, &im2col_b4),
    ] {
        let session = fixture.session(smt)?;
        let stacked = batches(inputs, size);
        let served = inputs
            .chunks_exact(size)
            .map(|chunk| {
                let refs: Vec<&Tensor<f32>> = chunk.iter().collect();
                let out = session.infer_batch_refs(&ctx, &refs)?;
                Ok(out
                    .into_iter()
                    .flat_map(|inference| inference.logits)
                    .collect())
            })
            .collect::<Result<Vec<Vec<f32>>, ServeError>>()?;
        let (forward, gemm) = match smt {
            SmtConfig::Dense => {
                let mut engine = Timed {
                    inner: ReferenceEngine,
                    gemm_ns: vec![0; layers],
                };
                time_forward(&quantized, &mut engine, &stacked, &served, report)?
            }
            SmtConfig::NbSmt { .. } => {
                let mut engine = Timed {
                    inner: NbSmtEngine::for_session(smt, layers),
                    gemm_ns: vec![0; layers],
                };
                time_forward(&quantized, &mut engine, &stacked, &served, report)?
            }
        };
        report.metric(
            format!("nn.forward_us.{label}"),
            forward,
            "us",
            Better::Lower,
        );
        for (i, us) in gemm.iter().enumerate() {
            report.metric(format!("nn.gemm_us.{label}.L{i}"), *us, "us", Better::Lower);
        }
        let parts: f64 = gemm.iter().sum::<f64>()
            + weight_prep_us.iter().sum::<f64>()
            + im2col.iter().sum::<f64>();
        report.metric(
            format!("nn.other_us.{label}"),
            forward - parts,
            "us",
            Better::Lower,
        );
    }

    // Every GEMM backend on each layer's batch-8 operands, checked against
    // the sequential kernel bit for bit.
    let operands = quantized.layer_traces(&batches(inputs, 8)[0])?;
    let reference_ctx = ExecContext::sequential();
    for backend in BACKENDS {
        let backend_ctx = ExecContext::new(ExecConfig {
            threads: 1,
            backend,
            ..ExecConfig::default()
        });
        for (i, (x, w)) in operands.iter().enumerate() {
            let expected = quantized_matmul_with(&reference_ctx, x, w).map_err(NnError::from)?;
            let got = quantized_matmul_with(&backend_ctx, x, w).map_err(NnError::from)?;
            if !bits_equal(got.as_slice(), expected.as_slice()) {
                report.fail_check(&format!("backend {} differs on layer {i}", backend.name()));
            }
            let us = time_us(|_| {
                quantized_matmul_with(&backend_ctx, x, w).expect("operands from one layer agree")
            });
            report.metric(
                format!("exec.gemm_us.{}.L{i}", backend.name()),
                us,
                "us",
                Better::Lower,
            );
        }
    }

    // The 2T rung's squeezed thread slots over the whole request pool.
    let mut engine = NbSmtEngine::for_session(SmtConfig::sysmt_2t(), layers);
    for batch in batches(inputs, 8) {
        quantized.forward_with_ctx(&ctx, &batch, &mut engine)?;
    }
    for (i, stats) in engine.stats.iter().enumerate().skip(1) {
        report.metric(
            format!("fastpath.squeezed_frac.2t.L{i}"),
            stats.reduced_thread_slots as f64 / stats.active_thread_slots.max(1) as f64,
            "fraction",
            Better::Lower,
        );
    }
    Ok(())
}

/// `serve::sim` and `serve::traffic`: one call of the `sim-mmpp` cell, and
/// its arrival and size generation timed alone.
fn sim_layers(fixture: &Fixture, seed: u64, report: &mut Report) -> Result<(), ServeError> {
    let cell = Cell::new(fixture, seed)?;
    let outcome = cell.run()?;
    let m = &outcome.metrics;
    report.attempted += 1;
    sim_cell::check(m, seed, report);
    let ArrivalProcess::Generated {
        model,
        seed: arrival_seed,
        n,
    } = cell.arrivals
    else {
        unreachable!("the sim-mmpp cell streams generated arrivals");
    };
    let size = cell.service.size;
    let start = Instant::now();
    let mut acc = 0u64;
    for arrival in model.generate(arrival_seed, n) {
        acc = acc.wrapping_add(arrival.time_ns ^ size.size_x1024(arrival.key));
    }
    black_box(acc);
    let ns = start.elapsed().as_nanos() as f64 / n as f64;
    report.metric("traffic.ns_per_arrival", ns, "ns", Better::Lower);
    report.metric("sim.batches", m.batches as f64, "count", Better::Lower);
    report.metric(
        "sim.mode_transitions",
        m.mode_transitions as f64,
        "count",
        Better::Lower,
    );
    report.metric("sim.completed", m.completed as f64, "count", Better::Higher);
    report.metric("sim.rejected", m.rejected as f64, "count", Better::Lower);
    report.metric(
        "sim.model_p50_ms",
        m.p50_ns as f64 / 1e6,
        "ms",
        Better::Lower,
    );
    report.metric(
        "sim.model_p99_ms",
        m.p99_ns as f64 / 1e6,
        "ms",
        Better::Lower,
    );
    Ok(())
}
