//! Pruning versus speedup: magnitude-prunes the weights of a synthetic
//! ResNet-18-style layer set at several sparsity levels and reports how the
//! 4-threaded SySMT's precision-reduction rate and per-layer MSE respond —
//! the mechanism behind Fig. 10 (pruned inputs collide less often).
//!
//! ```text
//! cargo run --release --example pruning_speedup
//! ```

use nbsmt_repro::core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_repro::core::metrics::{layer_error, model_speedup, LayerSchedule};
use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::core::ThreadCount;
use nbsmt_repro::quant::quantize::quantized_matmul_with;
use nbsmt_repro::tensor::exec::ExecContext;
use nbsmt_repro::workloads::calib::{synthesize_model, SynthesisOptions};
use nbsmt_repro::workloads::zoo::resnet18;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExecContext::sequential();
    let model = resnet18();
    println!(
        "ResNet-18 proxy: {} NB-SMT layers, {:.2} GMAC/image",
        model.nbsmt_layers().len(),
        model.conv_mac_ops() as f64 / 1e9
    );

    for pruned in [0.0, 0.2, 0.4, 0.6] {
        let options = SynthesisOptions {
            max_rows: 96,
            max_cols: 48,
            weight_sparsity_override: Some(pruned),
            ..SynthesisOptions::default()
        };
        let layers = synthesize_model(&model, &options);
        // Sample every fourth layer to keep the example fast.
        let mut total_mse = 0.0;
        let mut total_reduction_rate = 0.0;
        let mut sampled = 0usize;
        for layer in layers.iter().step_by(4) {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Four,
                policy: SharingPolicy::S_A,
                reorder: true,
            });
            let out = emu.execute_with(&ctx, &layer.activations, &layer.weights)?;
            let reference = quantized_matmul_with(&ctx, &layer.activations, &layer.weights)?;
            total_mse += layer_error(&out.output, &reference).relative_mse;
            total_reduction_rate += out.stats.reduction_rate();
            sampled += 1;
        }
        // Architectural speedup when every NB-SMT layer runs at 4 threads.
        let speedup = model_speedup(
            &layers
                .iter()
                .map(|l| LayerSchedule {
                    mac_ops: l.mac_ops,
                    threads: 4,
                })
                .collect::<Vec<_>>(),
        );
        println!(
            "{:>3.0}% pruned | speedup {:.1}x | mean relative MSE {:.3e} | {:.1}% of active threads reduced",
            pruned * 100.0,
            speedup,
            total_mse / sampled as f64,
            total_reduction_rate / sampled as f64 * 100.0
        );
    }
    println!("\nMore pruning -> fewer collisions -> fewer precision reductions and lower error,");
    println!("which is exactly the trend Fig. 10 exploits.");
    Ok(())
}
