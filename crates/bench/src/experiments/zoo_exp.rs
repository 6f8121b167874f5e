//! Zoo-model experiments: Fig. 1 (MAC utilization breakdown), Table I (model
//! inventory), Fig. 8 (per-layer MSE vs sparsity), Fig. 9 (utilization gain
//! vs sparsity), and the §V-A energy estimate.

use serde::{Deserialize, Serialize};

use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_core::metrics::{analytic_utilization_gain_2t, layer_error};
use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::ThreadCount;
use nbsmt_hw::energy::{compare_energy, LayerEnergyInput};
use nbsmt_hw::table2::DesignPoint;
use nbsmt_quant::quantize::quantized_matmul_with;
use nbsmt_sparsity::stats::{layer_utilization, UtilizationBreakdown};
use nbsmt_tensor::exec::ExecContext;
use nbsmt_workloads::calib::{synthesize_model, SynthesisOptions};
use nbsmt_workloads::zoo::{table1_models, ModelSpec};

use crate::scale::Scale;

/// One bar of Fig. 1: the utilization breakdown of one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig1Row {
    /// Model name.
    pub model: String,
    /// Fraction of MAC operations that fully utilize the 8b-8b unit.
    pub fully_utilized: f64,
    /// Fraction that only partially utilize it (an operand fits in 4 bits).
    pub partially_utilized: f64,
    /// Fraction that leave it idle (a zero operand).
    pub idle: f64,
}

/// Runs the Fig. 1 experiment: per-model MAC utilization breakdown, weighted
/// by each layer's true MAC count.
pub fn fig1_utilization(scale: Scale) -> Vec<Fig1Row> {
    let options = SynthesisOptions {
        max_rows: scale.max_rows(),
        max_cols: scale.max_cols(),
        ..SynthesisOptions::default()
    };
    table1_models()
        .iter()
        .map(|model| fig1_for_model(model, &options, scale))
        .collect()
}

fn fig1_for_model(model: &ModelSpec, options: &SynthesisOptions, scale: Scale) -> Fig1Row {
    let layers = synthesize_model(model, options);
    // Weight each layer's breakdown by its true MAC share.
    let mut idle = 0.0;
    let mut partial = 0.0;
    let mut full = 0.0;
    let mut weight_sum = 0.0;
    for layer in &layers {
        let b: UtilizationBreakdown =
            layer_utilization(&layer.activations, &layer.weights, scale.col_stride());
        let w = layer.mac_ops as f64;
        idle += b.idle_fraction() * w;
        partial += b.partial_fraction() * w;
        full += b.full_fraction() * w;
        weight_sum += w;
    }
    Fig1Row {
        model: model.name.clone(),
        fully_utilized: full / weight_sum,
        partially_utilized: partial / weight_sum,
        idle: idle / weight_sum,
    }
}

/// One row of Table I: model name and MAC counts (accuracy columns are
/// covered by the SynthNet experiments; the pretrained ImageNet accuracies
/// cannot be measured offline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Model name.
    pub model: String,
    /// Convolution MACs per image (G).
    pub conv_gmacs: f64,
    /// Fully connected MACs per image (M).
    pub fc_mmacs: f64,
}

/// Runs the Table I inventory.
pub fn table1_inventory() -> Vec<Table1Row> {
    table1_models()
        .iter()
        .map(|m| Table1Row {
            model: m.name.clone(),
            conv_gmacs: m.conv_mac_ops() as f64 / 1e9,
            fc_mmacs: m.fc_mac_ops() as f64 / 1e6,
        })
        .collect()
}

/// One point of Fig. 8: a layer's activation sparsity and its MSE under a 2T
/// SySMT, with and without reordering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Point {
    /// Layer name.
    pub layer: String,
    /// Activation sparsity of the layer.
    pub sparsity: f64,
    /// MSE without data reordering.
    pub mse_without_reorder: f64,
    /// MSE with data reordering.
    pub mse_with_reorder: f64,
}

/// Runs the Fig. 8 experiment on the GoogLeNet-proxy layers, on `ctx` (the
/// numbers are identical for every context; only wall-clock time changes).
pub fn fig8_mse_vs_sparsity(scale: Scale, ctx: &ExecContext) -> Vec<Fig8Point> {
    let model = nbsmt_workloads::zoo::googlenet();
    let options = SynthesisOptions {
        max_rows: scale.max_rows(),
        max_cols: scale.max_cols(),
        ..SynthesisOptions::default()
    };
    let layers = synthesize_model(&model, &options);
    let mut points = Vec::new();
    for layer in layers
        .iter()
        .step_by(if scale == Scale::Quick { 6 } else { 1 })
    {
        let reference = match quantized_matmul_with(ctx, &layer.activations, &layer.weights) {
            Ok(r) => r,
            Err(_) => continue,
        };
        let run = |reorder: bool| {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Two,
                policy: SharingPolicy::S_A,
                reorder,
            });
            let out = emu
                .execute_with(ctx, &layer.activations, &layer.weights)
                .expect("dimensions match by construction");
            layer_error(&out.output, &reference).mse
        };
        points.push(Fig8Point {
            layer: layer.name.clone(),
            sparsity: layer.activations.sparsity(),
            mse_without_reorder: run(false),
            mse_with_reorder: run(true),
        });
    }
    points
}

/// One point of Fig. 9: a layer's activation sparsity, its measured 2T
/// utilization gain (with and without reordering), and the Eq. 8 analytic
/// value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Point {
    /// Layer name.
    pub layer: String,
    /// Activation sparsity of the layer.
    pub sparsity: f64,
    /// Measured utilization gain without reordering.
    pub gain_without_reorder: f64,
    /// Measured utilization gain with reordering.
    pub gain_with_reorder: f64,
    /// The analytic `1 + s` curve of Eq. 8.
    pub analytic_gain: f64,
}

/// Runs the Fig. 9 experiment on the GoogLeNet-proxy layers, on `ctx`.
pub fn fig9_utilization_gain(scale: Scale, ctx: &ExecContext) -> Vec<Fig9Point> {
    let model = nbsmt_workloads::zoo::googlenet();
    let options = SynthesisOptions {
        max_rows: scale.max_rows(),
        max_cols: scale.max_cols(),
        ..SynthesisOptions::default()
    };
    let layers = synthesize_model(&model, &options);
    let mut points = Vec::new();
    for layer in layers
        .iter()
        .step_by(if scale == Scale::Quick { 6 } else { 1 })
    {
        let baseline_util = {
            let b = layer_utilization(&layer.activations, &layer.weights, scale.col_stride());
            b.busy_fraction()
        };
        if baseline_util == 0.0 {
            continue;
        }
        let run = |reorder: bool| {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Two,
                policy: SharingPolicy::S_A,
                reorder,
            });
            let out = emu
                .execute_with(ctx, &layer.activations, &layer.weights)
                .expect("dimensions match by construction");
            out.stats.utilization() / baseline_util
        };
        let sparsity = layer.activations.sparsity();
        points.push(Fig9Point {
            layer: layer.name.clone(),
            sparsity,
            gain_without_reorder: run(false),
            gain_with_reorder: run(true),
            analytic_gain: analytic_utilization_gain_2t(sparsity),
        });
    }
    points
}

/// Energy result for one model and one SySMT design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyRow {
    /// Model name.
    pub model: String,
    /// Energy saving of the 2T SySMT over the baseline array.
    pub saving_2t: f64,
    /// Energy saving of the 4T SySMT over the baseline array.
    pub saving_4t: f64,
}

/// Runs the §V-A energy estimate for every Table I model, on `ctx`.
pub fn energy_savings(scale: Scale, ctx: &ExecContext) -> Vec<EnergyRow> {
    let options = SynthesisOptions {
        max_rows: scale.max_rows(),
        max_cols: scale.max_cols(),
        ..SynthesisOptions::default()
    };
    table1_models()
        .iter()
        .map(|model| {
            let layers = synthesize_model(model, &options);
            let mut baseline = Vec::new();
            let mut sysmt2 = Vec::new();
            let mut sysmt4 = Vec::new();
            for layer in &layers {
                let base_util =
                    layer_utilization(&layer.activations, &layer.weights, scale.col_stride())
                        .busy_fraction();
                let util = |threads: ThreadCount| {
                    let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                        threads,
                        policy: SharingPolicy::S_A,
                        reorder: true,
                    });
                    emu.execute_with(ctx, &layer.activations, &layer.weights)
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
            EnergyRow {
                model: model.name.clone(),
                saving_2t: compare_energy(DesignPoint::Sysmt2T, &baseline, &sysmt2).saving(),
                saving_4t: compare_energy(DesignPoint::Sysmt4T, &baseline, &sysmt4).saving(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_breakdown_sums_to_one_and_matches_paper_shape() {
        let rows = fig1_utilization(Scale::Quick);
        assert_eq!(rows.len(), 5);
        let mut idle_sum = 0.0;
        let mut full_sum = 0.0;
        for r in &rows {
            let total = r.fully_utilized + r.partially_utilized + r.idle;
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", r.model);
            idle_sum += r.idle;
            full_sum += r.fully_utilized;
        }
        // Paper: on average ~60% idle, ~20% partial, ~10-20% full.
        let avg_idle = idle_sum / rows.len() as f64;
        let avg_full = full_sum / rows.len() as f64;
        assert!(avg_idle > 0.45 && avg_idle < 0.8, "avg idle {avg_idle}");
        assert!(avg_full < 0.4, "avg full {avg_full}");
    }

    #[test]
    fn table1_counts_are_in_paper_ballpark() {
        let rows = table1_inventory();
        assert_eq!(rows.len(), 5);
        let resnet50 = rows.iter().find(|r| r.model == "ResNet-50").unwrap();
        assert!(resnet50.conv_gmacs > 3.0 && resnet50.conv_gmacs < 5.0);
    }

    #[test]
    fn fig8_reordering_reduces_mse() {
        let points = fig8_mse_vs_sparsity(Scale::Quick, &ExecContext::sequential());
        assert!(!points.is_empty());
        let without: f64 = points.iter().map(|p| p.mse_without_reorder).sum();
        let with: f64 = points.iter().map(|p| p.mse_with_reorder).sum();
        assert!(
            with <= without,
            "reordering should not increase total MSE: {with} vs {without}"
        );
    }

    #[test]
    fn fig9_gain_is_between_one_and_two_and_tracks_eq8() {
        let points = fig9_utilization_gain(Scale::Quick, &ExecContext::sequential());
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.gain_without_reorder >= 0.95, "{p:?}");
            assert!(p.gain_without_reorder <= 2.05, "{p:?}");
            assert!((p.analytic_gain - (1.0 + p.sparsity)).abs() < 1e-9);
        }
        // Reordering does not hurt utilization on aggregate (individual
        // subsampled layers can fluctuate slightly).
        let mean_plain: f64 =
            points.iter().map(|p| p.gain_without_reorder).sum::<f64>() / points.len() as f64;
        let mean_reorder: f64 =
            points.iter().map(|p| p.gain_with_reorder).sum::<f64>() / points.len() as f64;
        assert!(
            mean_reorder + 0.02 >= mean_plain,
            "mean gain with reorder {mean_reorder} vs without {mean_plain}"
        );
    }

    #[test]
    fn energy_savings_are_positive_and_in_band() {
        let rows = energy_savings(Scale::Quick, &ExecContext::sequential());
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(
                r.saving_2t > 0.1 && r.saving_2t < 0.6,
                "{}: 2T saving {}",
                r.model,
                r.saving_2t
            );
            assert!(
                r.saving_4t > 0.1 && r.saving_4t < 0.7,
                "{}: 4T saving {}",
                r.model,
                r.saving_4t
            );
        }
    }
}
