//! Quickstart: run one quantized layer on the conventional systolic array and
//! on a 2-threaded SySMT, and compare cycles, utilization, and error.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use nbsmt_repro::prelude::*;
use nbsmt_repro::quant::quantize::{quantize_activations, quantize_weights};
use nbsmt_repro::tensor::random::{SynthesisConfig, TensorSynthesizer};
use nbsmt_repro::tensor::tensor::Matrix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExecContext::sequential();

    // 1. Synthesize one realistic layer: post-ReLU activations with ~60%
    //    zeros, bell-shaped weights.
    let (m, k, n) = (96, 192, 48);
    let mut synth = TensorSynthesizer::new(42);
    let x = synth.tensor(&SynthesisConfig::activation(0.3, 0.25), &[m, k]);
    let w = synth.tensor(&SynthesisConfig::weight(0.08, 0.0), &[k, n]);

    // 2. Quantize exactly as the paper does: unsigned per-layer activations,
    //    signed per-kernel weights.
    let qx = quantize_activations(
        &Matrix::from_vec(x.into_vec(), m, k)?,
        &QuantScheme::activation_a8(),
        Some((0.0, 1.0)),
    );
    let qw = quantize_weights(
        &Matrix::from_vec(w.into_vec(), k, n)?,
        &QuantScheme::weight_w8(),
    );
    println!(
        "Layer {}x{}x{} | activation sparsity {:.1}%",
        m,
        k,
        n,
        qx.sparsity() * 100.0
    );

    // 3. Baseline: the conventional 16x16 output-stationary systolic array.
    let baseline = OutputStationaryArray::new(SystolicConfig::paper_16x16());
    let base = baseline.matmul_with(&ctx, qx.values(), qw.values())?;
    println!(
        "Conventional SA : {} cycles, {:.1}% MAC utilization",
        base.stats.cycles,
        base.stats.utilization() * 100.0
    );

    // 4. SySMT: the same layer with 2 threads sharing each PE.
    let sysmt = SySmtArray::new(SySmtConfig::paper_2t());
    let result = sysmt.execute_layer_with(&ctx, &qx, &qw)?;
    println!(
        "2T SySMT        : {} cycles ({:.2}x speedup), {:.1}% utilization ({:.2}x gain)",
        result.cycles,
        result.speedup(),
        result.utilization * 100.0,
        result.utilization_gain()
    );
    println!(
        "Precision-reduction error: relative MSE {:.3e}, max abs error {:.3}",
        result.error.relative_mse, result.error.max_abs_error
    );

    // 5. The same emulation through the functional API.
    let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
        threads: nbsmt_repro::core::ThreadCount::Four,
        policy: SharingPolicy::S_A,
        reorder: true,
    });
    let four = emu.execute_with(&ctx, &qx, &qw)?;
    println!(
        "4T NB-SMT       : {:.1}% of active thread slots were precision-reduced",
        four.stats.reduction_rate() * 100.0
    );
    Ok(())
}
