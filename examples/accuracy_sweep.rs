//! Accuracy sweep: trains SynthNet, quantizes it, and evaluates it under the
//! conventional array, a 2-threaded SySMT with several sharing policies, and
//! a 4-threaded SySMT — the end-to-end pipeline behind Tables III–V.
//!
//! ```text
//! cargo run --release --example accuracy_sweep
//! ```

use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::core::ThreadCount;
use nbsmt_repro::nn::quantized::{QuantizedModel, ReferenceEngine};
use nbsmt_repro::workloads::synthnet::{generate_dataset, train_synthnet, SynthTaskConfig};

// The NB-SMT GEMM engine lives in the bench crate; this example reimplements
// the minimal version inline to show how the pieces compose from the public
// API alone.
use nbsmt_repro::core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_repro::nn::quantized::GemmEngine;
use nbsmt_repro::nn::NnError;
use nbsmt_repro::quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_repro::tensor::exec::ExecContext;
use nbsmt_repro::tensor::tensor::Matrix;

struct SimpleNbSmtEngine {
    threads: ThreadCount,
    policy: SharingPolicy,
    /// Index of the last compute layer: the fully connected classifier.
    fc_layer: usize,
}

impl GemmEngine for SimpleNbSmtEngine {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        // The paper leaves the first convolution and the FC layer at one
        // thread.
        let threads = if layer_index == 0 || layer_index == self.fc_layer {
            ThreadCount::One
        } else {
            self.threads
        };
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads,
            policy: self.policy,
            reorder: true,
        });
        Ok(emu.execute_with(ctx, x, w).map_err(NnError::from)?.output)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task = SynthTaskConfig {
        classes: 6,
        image_size: 16,
        noise: 0.25,
    };
    println!("Training SynthNet on the procedural dataset…");
    let trained = train_synthnet(&task, 40, 20, 8, 7)?;
    println!(
        "FP32 test accuracy: {:.2}%",
        trained.test_accuracy()? * 100.0
    );

    let calib = generate_dataset(&task, 8, 99);
    let (calib_images, _) = calib.batch(0, calib.len());
    let quantized = QuantizedModel::calibrate(&trained.model, &[calib_images])?;
    let (test_images, test_labels) = trained.test.batch(0, trained.test.len());
    let fc_layer = quantized.compute_layer_count() - 1;

    let ctx = ExecContext::sequential();
    let baseline =
        quantized.accuracy_with_ctx(&ctx, &test_images, &test_labels, &mut ReferenceEngine)?;
    println!("A8W8 (conventional SA) accuracy: {:.2}%", baseline * 100.0);

    for (label, threads, policy) in [
        ("2T, S only ", ThreadCount::Two, SharingPolicy::S),
        ("2T, S+A    ", ThreadCount::Two, SharingPolicy::S_A),
        ("2T, S+Aw   ", ThreadCount::Two, SharingPolicy::S_AW),
        ("4T, S+A    ", ThreadCount::Four, SharingPolicy::S_A),
    ] {
        let mut engine = SimpleNbSmtEngine {
            threads,
            policy,
            fc_layer,
        };
        let acc = quantized.accuracy_with_ctx(&ctx, &test_images, &test_labels, &mut engine)?;
        println!(
            "{label} accuracy: {:.2}%  (drop {:+.2} pts)",
            acc * 100.0,
            (acc - baseline) * 100.0
        );
    }
    Ok(())
}
