//! Criterion benches: one benchmark per table / figure of the paper, timing
//! the experiment kernel that regenerates it (at quick scale), plus
//! micro-benchmarks and ablations of the core NB-SMT datapath.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Duration;

use nbsmt_bench::experiments::accuracy::{
    fig7_robustness, mlperf_mobilenet, table3_policies, table4_comparison, table5_slowdown,
    AccuracyBench,
};
use nbsmt_bench::experiments::hw_exp::{power_testbench, table2_rows};
use nbsmt_bench::experiments::zoo_exp::{
    energy_savings, fig1_utilization, fig8_mse_vs_sparsity, fig9_utilization_gain, table1_inventory,
};
use nbsmt_bench::Scale;
use nbsmt_core::fmul::{DualLane, FlexMultiplier, FlexMultiplier4};
use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::ThreadCount;
use nbsmt_quant::quantize::{quantize_activations, quantize_weights};
use nbsmt_quant::scheme::QuantScheme;
use nbsmt_serve::config::SmtConfig;
use nbsmt_serve::registry::ModelRegistry;
use nbsmt_systolic::array::{OutputStationaryArray, SystolicConfig};
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer};
use nbsmt_tensor::tensor::Matrix;
use nbsmt_workloads::synthnet::quick_synthnet;

fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500))
}

/// Builds one representative quantized layer for the datapath benches.
fn sample_layer(
    m: usize,
    k: usize,
    n: usize,
) -> (
    nbsmt_quant::qtensor::QuantMatrix,
    nbsmt_quant::qtensor::QuantWeightMatrix,
) {
    let mut synth = TensorSynthesizer::new(99);
    let x = synth.tensor(&SynthesisConfig::activation(0.4, 0.5), &[m, k]);
    let w = synth.tensor(&SynthesisConfig::weight(0.12, 0.0), &[k, n]);
    let qx = quantize_activations(
        &Matrix::from_vec(x.into_vec(), m, k).unwrap(),
        &QuantScheme::activation_a8(),
        Some((0.0, 1.0)),
    );
    let qw = quantize_weights(
        &Matrix::from_vec(w.into_vec(), k, n).unwrap(),
        &QuantScheme::weight_w8(),
    );
    (qx, qw)
}

/// Micro-benchmark and correctness ablation of the flexible multiplier
/// decompositions (Eq. 4 / Eq. 5) versus a plain wide multiply.
fn bench_fmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("fmul");
    let fm2 = FlexMultiplier::new();
    let fm4 = FlexMultiplier4::new();
    group.bench_function("eq4_single_8b8b", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for x in (0..=255u8).step_by(3) {
                for w in (-128i8..=127).step_by(5) {
                    acc += fm2.mul_single(std::hint::black_box(x), std::hint::black_box(w)) as i64;
                }
            }
            acc
        })
    });
    group.bench_function("eq5_single_8b8b", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for x in (0..=255u8).step_by(3) {
                for w in (-128i8..=127).step_by(5) {
                    acc += fm4.mul_single(std::hint::black_box(x), std::hint::black_box(w)) as i64;
                }
            }
            acc
        })
    });
    group.bench_function("naive_wide_multiply", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for x in (0..=255u8).step_by(3) {
                for w in (-128i8..=127).step_by(5) {
                    acc += std::hint::black_box(x) as i64 * std::hint::black_box(w) as i64;
                }
            }
            acc
        })
    });
    group.bench_function("eq4_dual_lane", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for x in (0..=15u8).step_by(1) {
                for w in (-128i8..=127).step_by(7) {
                    let out = fm2.mul_dual([
                        DualLane {
                            x_nibble: x,
                            w,
                            shift: true,
                        },
                        DualLane {
                            x_nibble: 15 - x,
                            w,
                            shift: false,
                        },
                    ]);
                    acc += (out[0] + out[1]) as i64;
                }
            }
            acc
        })
    });
    group.finish();
}

/// Benchmarks the NB-SMT layer emulation (2T and 4T) on the parallel
/// execution layer at 1 vs 8 host worker threads — the path the accuracy
/// sweeps are wall-clock-bound by.
fn bench_nbsmt_parallel_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbsmt_parallel_layer");
    group.sample_size(10);
    let (qx, qw) = sample_layer(128, 256, 64);
    for (name, smt_threads, host_threads) in [
        ("nbsmt_2t_layer_1t", ThreadCount::Two, 1usize),
        ("nbsmt_2t_layer_8t", ThreadCount::Two, 8),
        ("nbsmt_4t_layer_1t", ThreadCount::Four, 1),
        ("nbsmt_4t_layer_8t", ThreadCount::Four, 8),
    ] {
        let ctx = ExecContext::with_threads(host_threads);
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: smt_threads,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        group.bench_function(name, |bch| {
            bch.iter(|| emu.execute_with(&ctx, &qx, &qw).unwrap())
        });
    }
    group.finish();
}

/// Benchmarks the algorithmic fast NB-SMT path (the default `execute_with`)
/// against the event-walking oracle (`execute_event_with`) on the same
/// 128×256×64 layer the parallel-layer group uses — the speedup the fast
/// path exists to deliver, at 2T and 4T.
fn bench_nbsmt_fast_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("nbsmt_fast_path");
    group.sample_size(10);
    let (qx, qw) = sample_layer(128, 256, 64);
    let ctx = ExecContext::sequential();
    for (label, threads) in [("2t", ThreadCount::Two), ("4t", ThreadCount::Four)] {
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        group.bench_function(&format!("event_{label}_128x256x64"), |bch| {
            bch.iter(|| emu.execute_event_with(&ctx, &qx, &qw).unwrap())
        });
        group.bench_function(&format!("fast_{label}_128x256x64"), |bch| {
            bch.iter(|| emu.execute_with(&ctx, &qx, &qw).unwrap())
        });
    }
    group.finish();
}

/// Benchmarks the cycle-level baseline systolic array and the NB-SMT matmul
/// emulation at 1, 2, and 4 threads (the datapaths behind every experiment).
fn bench_datapaths(c: &mut Criterion) {
    let mut group = c.benchmark_group("datapaths");
    let (qx, qw) = sample_layer(64, 128, 32);
    group.bench_function("systolic_baseline_cycle_level", |b| {
        b.iter_batched(
            || OutputStationaryArray::new(SystolicConfig::new(16, 16)),
            |array| array.matmul(qx.values(), qw.values()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    for (name, threads) in [
        ("nbsmt_1t", ThreadCount::One),
        ("nbsmt_2t", ThreadCount::Two),
        ("nbsmt_4t", ThreadCount::Four),
    ] {
        group.bench_function(name, |b| {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: SharingPolicy::S_A,
                reorder: false,
            });
            b.iter(|| emu.execute(&qx, &qw).unwrap())
        });
    }
    // Ablation: output-sharing policies (reorder on/off).
    group.bench_function("nbsmt_2t_with_reorder", |b| {
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: true,
        });
        b.iter(|| emu.execute(&qx, &qw).unwrap())
    });
    group.finish();
}

/// One bench per zoo-model table/figure (Fig. 1, Table I, Table II, Fig. 8,
/// Fig. 9, energy).
fn bench_zoo_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("zoo_experiments");
    group.bench_function("table1_inventory", |b| b.iter(table1_inventory));
    group.bench_function("table2_hw", |b| {
        b.iter(|| {
            let rows = table2_rows();
            let sweep = power_testbench(10);
            (rows, sweep)
        })
    });
    group.bench_function("fig1_utilization", |b| {
        b.iter(|| fig1_utilization(Scale::Quick))
    });
    group.bench_function("fig8_mse_vs_sparsity", |b| {
        b.iter(|| fig8_mse_vs_sparsity(Scale::Quick))
    });
    group.bench_function("fig9_utilization_gain", |b| {
        b.iter(|| fig9_utilization_gain(Scale::Quick))
    });
    group.bench_function("energy_savings", |b| {
        b.iter(|| energy_savings(Scale::Quick))
    });
    group.bench_function("mlperf_mobilenet", |b| b.iter(mlperf_mobilenet));
    group.finish();
}

/// One bench per accuracy table/figure (Fig. 7, Tables III–V). The trained
/// SynthNet is prepared once outside the timing loop; the benches time the
/// NB-SMT evaluation itself.
fn bench_accuracy_experiments(c: &mut Criterion) {
    let bench = AccuracyBench::prepare(Scale::Quick, 2024);
    let mut group = c.benchmark_group("accuracy_experiments");
    group.sample_size(10);
    group.bench_function("fig7_robustness", |b| b.iter(|| fig7_robustness(&bench)));
    group.bench_function("table3_policies", |b| b.iter(|| table3_policies(&bench)));
    group.bench_function("table4_comparison", |b| {
        b.iter(|| table4_comparison(&bench))
    });
    group.bench_function("table5_slowdown", |b| b.iter(|| table5_slowdown(&bench)));
    group.finish();
}

/// Serving-layer throughput: batched vs unbatched session execution on a
/// SynthNet 2T session at batch sizes 1 / 8 / 32 — the amortization the
/// micro-batching scheduler exists to capture. `unbatched_32` runs the same
/// 32 requests one at a time for the direct comparison.
fn bench_serve_throughput(c: &mut Criterion) {
    let trained = quick_synthnet(77).expect("training succeeds");
    let mut registry = ModelRegistry::new();
    registry
        .register_synthnet("synthnet", &trained, 78)
        .expect("calibration succeeds");
    let session = registry
        .compile("synthnet", SmtConfig::sysmt_2t())
        .expect("session compiles");
    let (inputs, _) = trained.sample_requests(32, 79);
    let ctx = ExecContext::parallel();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for batch in [1usize, 8, 32] {
        group.bench_function(&format!("batched_{batch}"), |b| {
            b.iter(|| session.infer_batch(&ctx, &inputs[..batch]).unwrap())
        });
    }
    group.bench_function("unbatched_32", |b| {
        b.iter(|| {
            for input in &inputs {
                session
                    .infer_batch(&ctx, std::slice::from_ref(input))
                    .unwrap();
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_fmul, bench_nbsmt_parallel_layer, bench_nbsmt_fast_path, bench_datapaths,
        bench_zoo_experiments, bench_accuracy_experiments, bench_serve_throughput
}
criterion_main!(benches);
