//! Energy report: estimates per-model energy of the conventional array and
//! the 2T/4T SySMT cores using the Eq. 6 model and the calibrated synthetic
//! layer utilizations (the §V-A energy analysis).
//!
//! ```text
//! cargo run --release --example energy_report
//! ```

use nbsmt_repro::core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::core::ThreadCount;
use nbsmt_repro::hw::energy::{compare_energy, EnergyModel, LayerEnergyInput};
use nbsmt_repro::hw::table2::DesignPoint;
use nbsmt_repro::sparsity::stats::layer_utilization;
use nbsmt_repro::tensor::exec::ExecContext;
use nbsmt_repro::workloads::calib::{synthesize_model, SynthesisOptions};
use nbsmt_repro::workloads::zoo::table1_models;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = ExecContext::sequential();
    let options = SynthesisOptions {
        max_rows: 64,
        max_cols: 32,
        ..SynthesisOptions::default()
    };
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12}",
        "Model", "SA energy", "2T energy", "2T saving", "4T saving"
    );
    for model in table1_models() {
        let layers = synthesize_model(&model, &options);
        let mut baseline = Vec::new();
        let mut sysmt2 = Vec::new();
        let mut sysmt4 = Vec::new();
        for layer in &layers {
            let base_util =
                layer_utilization(&layer.activations, &layer.weights, 4).busy_fraction();
            let util = |threads: ThreadCount| -> f64 {
                NbSmtMatmul::new(NbSmtMatmulConfig {
                    threads,
                    policy: SharingPolicy::S_A,
                    reorder: true,
                })
                .execute_with(&ctx, &layer.activations, &layer.weights)
                .map(|o| o.stats.utilization())
                .unwrap_or(base_util)
            };
            baseline.push(LayerEnergyInput {
                mac_ops: layer.mac_ops,
                utilization: base_util,
                threads: 1,
            });
            sysmt2.push(LayerEnergyInput {
                mac_ops: layer.mac_ops,
                utilization: util(ThreadCount::Two),
                threads: 2,
            });
            sysmt4.push(LayerEnergyInput {
                mac_ops: layer.mac_ops,
                utilization: util(ThreadCount::Four),
                threads: 4,
            });
        }
        let cmp2 = compare_energy(DesignPoint::Sysmt2T, &baseline, &sysmt2);
        let cmp4 = compare_energy(DesignPoint::Sysmt4T, &baseline, &sysmt4);
        let sa_energy = EnergyModel::new(DesignPoint::Baseline).model_energy_mj(&baseline);
        println!(
            "{:<14} {:>11.2} mJ {:>11.2} mJ {:>11.1}% {:>11.1}%",
            model.name,
            sa_energy,
            cmp2.sysmt_mj,
            cmp2.saving() * 100.0,
            cmp4.saving() * 100.0
        );
    }
    println!("\nThe paper reports average savings of roughly 33% (2T) and 35-39% (4T).");
    Ok(())
}
