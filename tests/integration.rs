//! Cross-crate integration tests: exercise the whole pipeline — synthetic
//! workloads → quantization → systolic array / NB-SMT emulation → metrics and
//! hardware model — through the umbrella crate's public API.

use nbsmt_repro::core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_repro::core::metrics::layer_error;
use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::core::sysmt::{SySmtArray, SySmtConfig};
use nbsmt_repro::core::ThreadCount;
use nbsmt_repro::hw::energy::{compare_energy, LayerEnergyInput};
use nbsmt_repro::hw::table2::DesignPoint;
use nbsmt_repro::nn::quantized::{QuantizedModel, ReferenceEngine};
use nbsmt_repro::quant::quantize::{quantize_activations, quantize_weights, quantized_matmul_with};
use nbsmt_repro::quant::scheme::QuantScheme;
use nbsmt_repro::sparsity::stats::layer_utilization;
use nbsmt_repro::systolic::array::{OutputStationaryArray, SystolicConfig};
use nbsmt_repro::tensor::exec::ExecContext;
use nbsmt_repro::tensor::random::{SynthesisConfig, TensorSynthesizer};
use nbsmt_repro::tensor::tensor::Matrix;
use nbsmt_repro::workloads::calib::{synthesize_model, SynthesisOptions};
use nbsmt_repro::workloads::synthnet::{generate_dataset, quick_synthnet};
use nbsmt_repro::workloads::zoo::{googlenet, resnet18, table1_models};

/// Quantizes a random layer for the pipeline tests.
fn random_quant_layer(
    seed: u64,
    m: usize,
    k: usize,
    n: usize,
) -> (
    nbsmt_repro::quant::qtensor::QuantMatrix,
    nbsmt_repro::quant::qtensor::QuantWeightMatrix,
) {
    let mut synth = TensorSynthesizer::new(seed);
    let x = synth.tensor(&SynthesisConfig::activation(0.3, 0.4), &[m, k]);
    let w = synth.tensor(&SynthesisConfig::weight(0.1, 0.0), &[k, n]);
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

#[test]
fn systolic_array_and_quantized_matmul_agree() {
    // The cycle-level systolic array, the fast estimator, and the integer
    // reference matmul must all agree on the numbers.
    let ctx = ExecContext::sequential();
    let (qx, qw) = random_quant_layer(1, 24, 48, 16);
    let array = OutputStationaryArray::new(SystolicConfig::new(8, 8));
    let sim = array.matmul_with(&ctx, qx.values(), qw.values()).unwrap();
    let reference = quantized_matmul_with(&ctx, &qx, &qw).unwrap();
    for i in 0..qx.rows() {
        for j in 0..qw.cols() {
            let dequant = *sim.output.at(i, j) as f32 * qx.scale() * qw.scale(j);
            assert!((dequant - reference.at(i, j)).abs() < 1e-3);
        }
    }
    let est = array.estimate(qx.values(), qw.values()).unwrap();
    assert_eq!(est.pe_busy_cycles, sim.stats.pe_busy_cycles);
}

#[test]
fn sysmt_layer_execution_reproduces_headline_claims() {
    // 2T SySMT: ~2x cycle speedup with small error; 4T: larger speedup and
    // larger (but bounded) error.
    let ctx = ExecContext::sequential();
    let (qx, qw) = random_quant_layer(2, 64, 256, 32);
    let two = SySmtArray::new(SySmtConfig {
        grid: SystolicConfig::new(16, 16),
        threads: ThreadCount::Two,
        policy: SharingPolicy::S_A,
        reorder: true,
    });
    let four = SySmtArray::new(SySmtConfig {
        threads: ThreadCount::Four,
        ..*two.config()
    });
    let r2 = two.execute_layer_with(&ctx, &qx, &qw).unwrap();
    let r4 = four.execute_layer_with(&ctx, &qx, &qw).unwrap();
    assert!(r2.speedup() > 1.7, "2T speedup {}", r2.speedup());
    assert!(r4.speedup() > r2.speedup(), "4T must be faster than 2T");
    assert!(
        r2.error.relative_mse < 0.02,
        "2T error {}",
        r2.error.relative_mse
    );
    assert!(
        r4.error.relative_mse >= r2.error.relative_mse,
        "4T error should not be smaller than 2T error"
    );
    assert!(r2.utilization_gain() > 1.0);
}

#[test]
fn policy_ordering_holds_on_calibrated_zoo_layers() {
    // On GoogLeNet-proxy layers, S+A produces no more error than S alone,
    // which produces no more error than the naive always-reduce policy.
    let ctx = ExecContext::sequential();
    let model = googlenet();
    let layers = synthesize_model(
        &model,
        &SynthesisOptions {
            max_rows: 48,
            max_cols: 24,
            ..SynthesisOptions::default()
        },
    );
    let mut totals = [0.0f64; 3];
    for layer in layers.iter().step_by(8) {
        let reference = quantized_matmul_with(&ctx, &layer.activations, &layer.weights).unwrap();
        for (slot, policy) in [SharingPolicy::NAIVE, SharingPolicy::S, SharingPolicy::S_A]
            .iter()
            .enumerate()
        {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Two,
                policy: *policy,
                reorder: false,
            });
            let out = emu
                .execute_with(&ctx, &layer.activations, &layer.weights)
                .unwrap();
            totals[slot] += layer_error(&out.output, &reference).mse;
        }
    }
    assert!(
        totals[1] <= totals[0],
        "S ({}) vs naive ({})",
        totals[1],
        totals[0]
    );
    assert!(
        totals[2] <= totals[1],
        "S+A ({}) vs S ({})",
        totals[2],
        totals[1]
    );
}

#[test]
fn end_to_end_quantized_model_under_nbsmt_keeps_accuracy() {
    // Train SynthNet quickly, calibrate, and check that 2T NB-SMT execution
    // stays close to the 8-bit baseline end to end.
    let ctx = ExecContext::sequential();
    let trained = quick_synthnet(31).expect("training succeeds");
    let calib = generate_dataset(&trained.task, 4, 123);
    let (calib_images, _) = calib.batch(0, calib.len());
    let quantized = QuantizedModel::calibrate(&trained.model, &[calib_images]).unwrap();
    let (images, labels) = trained.test.batch(0, trained.test.len());
    let baseline = quantized
        .accuracy_with_ctx(&ctx, &images, &labels, &mut ReferenceEngine)
        .unwrap();

    struct TwoThreadEngine;
    impl nbsmt_repro::nn::quantized::GemmEngine for TwoThreadEngine {
        fn gemm(
            &mut self,
            ctx: &ExecContext,
            layer_index: usize,
            x: &nbsmt_repro::quant::qtensor::QuantMatrix,
            w: &nbsmt_repro::quant::qtensor::QuantWeightMatrix,
        ) -> Result<Matrix<f32>, nbsmt_repro::nn::NnError> {
            let threads = if layer_index == 0 {
                ThreadCount::One
            } else {
                ThreadCount::Two
            };
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: SharingPolicy::S_A,
                reorder: true,
            });
            Ok(emu
                .execute_with(ctx, x, w)
                .map_err(nbsmt_repro::nn::NnError::from)?
                .output)
        }
    }
    let nbsmt = quantized
        .accuracy_with_ctx(&ctx, &images, &labels, &mut TwoThreadEngine)
        .unwrap();
    assert!(
        baseline - nbsmt <= 0.12,
        "2T NB-SMT accuracy {nbsmt} dropped too far from baseline {baseline}"
    );
}

#[test]
fn zoo_models_feed_energy_model_with_sane_savings() {
    // The smallest zoo model end to end through utilization and Eq. 6.
    let ctx = ExecContext::sequential();
    let model = resnet18();
    let layers = synthesize_model(
        &model,
        &SynthesisOptions {
            max_rows: 32,
            max_cols: 16,
            ..SynthesisOptions::default()
        },
    );
    let mut baseline = Vec::new();
    let mut sysmt2 = Vec::new();
    for layer in layers.iter().step_by(3) {
        let base_util = layer_utilization(&layer.activations, &layer.weights, 4).busy_fraction();
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: true,
        });
        let util2 = emu
            .execute_with(&ctx, &layer.activations, &layer.weights)
            .unwrap()
            .stats
            .utilization();
        baseline.push(LayerEnergyInput {
            mac_ops: layer.mac_ops,
            utilization: base_util,
            threads: 1,
        });
        sysmt2.push(LayerEnergyInput {
            mac_ops: layer.mac_ops,
            utilization: util2,
            threads: 2,
        });
        // NB-SMT utilization never exceeds 1 and never falls below baseline.
        assert!(util2 <= 1.0 + 1e-9);
        assert!(util2 + 1e-9 >= base_util);
    }
    let cmp = compare_energy(DesignPoint::Sysmt2T, &baseline, &sysmt2);
    assert!(
        cmp.saving() > 0.1 && cmp.saving() < 0.6,
        "saving {}",
        cmp.saving()
    );
}

#[test]
fn table1_models_have_increasing_compute_with_depth_class() {
    // Sanity over the whole zoo: ResNet-50 is the largest, AlexNet the
    // smallest conv workload, as in Table I.
    let models = table1_models();
    let macs: Vec<(String, u64)> = models
        .iter()
        .map(|m| (m.name.clone(), m.conv_mac_ops()))
        .collect();
    let alexnet = macs.iter().find(|(n, _)| n == "AlexNet").unwrap().1;
    let resnet50 = macs.iter().find(|(n, _)| n == "ResNet-50").unwrap().1;
    assert!(resnet50 > 5 * alexnet);
    for (_, m) in &macs {
        assert!(*m > 100_000_000, "every model is at least 0.1 GMAC");
    }
}
