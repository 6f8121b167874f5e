//! The SySMT array: an NB-SMT-enabled output-stationary systolic array.
//!
//! SySMT keeps the conventional OS-SA grid and dataflow but scales the PE
//! connectivity with the number of threads: each PE receives `T`
//! activation/weight pairs per cycle (the K dimension is split into `T`
//! segments) and accumulates all contributions into its shared partial-sum
//! register. Because no thread ever stalls, a layer running with `T` threads
//! finishes in exactly `1/T` of the baseline streaming cycles.
//!
//! This module provides both the array-level simulation (cycle counts,
//! utilization improvement over the baseline array — Fig. 9) and whole-layer
//! execution that reports error metrics (Fig. 8).

use serde::{Deserialize, Serialize};

use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::quantized_matmul_with;
use nbsmt_systolic::array::{OutputStationaryArray, SystolicConfig};
use nbsmt_systolic::schedule::TilingPlan;
use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Matrix;

use crate::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use crate::metrics::{layer_error, LayerError};
use crate::pe::PeStats;
use crate::policy::SharingPolicy;
use crate::ThreadCount;

/// Configuration of a SySMT array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SySmtConfig {
    /// PE grid dimensions.
    pub grid: SystolicConfig,
    /// Number of threads per PE.
    pub threads: ThreadCount,
    /// Sharing policy.
    pub policy: SharingPolicy,
    /// Whether the statistical column reordering of §IV-B is applied.
    pub reorder: bool,
}

impl SySmtConfig {
    /// The paper's 16×16, 2-threaded configuration with S+A and reordering.
    pub fn paper_2t() -> Self {
        SySmtConfig {
            grid: SystolicConfig::paper_16x16(),
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: true,
        }
    }

    /// The paper's 16×16, 4-threaded configuration.
    pub fn paper_4t() -> Self {
        SySmtConfig {
            threads: ThreadCount::Four,
            ..Self::paper_2t()
        }
    }
}

impl Default for SySmtConfig {
    fn default() -> Self {
        Self::paper_2t()
    }
}

/// Result of executing one layer on the SySMT array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SySmtLayerResult {
    /// Dequantized layer output as produced under NB-SMT.
    pub output: Matrix<f32>,
    /// Error metrics against the error-free quantized output.
    pub error: LayerError,
    /// Streaming cycles of the SySMT execution (tiled onto the grid).
    pub cycles: u64,
    /// Streaming cycles of the conventional single-threaded array for the
    /// same layer.
    pub baseline_cycles: u64,
    /// Utilization of the SySMT array (fraction of PE cycles with at least
    /// one active thread).
    pub utilization: f64,
    /// Utilization of the conventional array on the same layer.
    pub baseline_utilization: f64,
    /// Aggregated PE statistics of the NB-SMT emulation.
    pub pe_stats: PeStats,
}

impl SySmtLayerResult {
    /// Speedup in streaming cycles over the conventional array.
    pub fn speedup(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.baseline_cycles as f64 / self.cycles as f64
        }
    }

    /// Utilization improvement over the conventional array (the y-axis of
    /// Fig. 9).
    pub fn utilization_gain(&self) -> f64 {
        if self.baseline_utilization == 0.0 {
            1.0
        } else {
            self.utilization / self.baseline_utilization
        }
    }
}

/// An NB-SMT-enabled output-stationary systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SySmtArray {
    config: SySmtConfig,
}

impl SySmtArray {
    /// Creates a SySMT array.
    pub fn new(config: SySmtConfig) -> Self {
        SySmtArray { config }
    }

    /// The array configuration.
    pub fn config(&self) -> &SySmtConfig {
        &self.config
    }

    /// Streaming cycles for a layer of the given GEMM dimensions when run on
    /// this array: the K dimension is divided by the thread count, and the
    /// result is tiled onto the grid exactly like the baseline array.
    pub fn layer_cycles(&self, m: usize, k: usize, n: usize) -> u64 {
        let k_per_thread = k.div_ceil(self.config.threads.count());
        TilingPlan::new(
            m,
            k_per_thread,
            n,
            self.config.grid.rows,
            self.config.grid.cols,
        )
        .total_cycles()
    }

    /// Streaming cycles of the conventional 1-threaded array for the same
    /// layer dimensions.
    pub fn baseline_cycles(&self, m: usize, k: usize, n: usize) -> u64 {
        TilingPlan::new(m, k, n, self.config.grid.rows, self.config.grid.cols).total_cycles()
    }

    /// Executes one layer (`X (M×K) · W (K×N)`) on the array: the numeric
    /// output is produced by the NB-SMT emulation, cycle counts come from the
    /// tiling plan, and utilization is compared against the conventional
    /// array on the same inputs. Both the NB-SMT emulation and the error-free
    /// reference run on `ctx`'s worker pool, with identical results for every
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the reduction
    /// dimensions differ.
    pub fn execute_layer_with(
        &self,
        ctx: &ExecContext,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<SySmtLayerResult, TensorError> {
        let (m, k, n) = (x.rows(), x.cols(), w.cols());

        // Numeric output and per-PE statistics via the functional emulation.
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: self.config.threads,
            policy: self.config.policy,
            reorder: self.config.reorder,
        });
        let nbsmt = emu.execute_with(ctx, x, w)?;
        let reference = quantized_matmul_with(ctx, x, w)?;
        let error = layer_error(&nbsmt.output, &reference);

        // Baseline utilization from the conventional array estimator.
        let baseline_array = OutputStationaryArray::new(self.config.grid);
        let baseline = baseline_array.estimate(x.values(), w.values())?;

        Ok(SySmtLayerResult {
            output: nbsmt.output,
            error,
            cycles: self.layer_cycles(m, k, n),
            baseline_cycles: self.baseline_cycles(m, k, n),
            utilization: nbsmt.stats.utilization(),
            baseline_utilization: baseline.utilization(),
            pe_stats: nbsmt.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_quant::quantize::{quantize_activations, quantize_weights};
    use nbsmt_quant::scheme::QuantScheme;
    use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer};

    fn random_layer(
        seed: u64,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> (QuantMatrix, QuantWeightMatrix) {
        let mut synth = TensorSynthesizer::new(seed);
        let x_f = synth.tensor(&SynthesisConfig::activation(1.0, sparsity), &[m, k]);
        let w_f = synth.tensor(&SynthesisConfig::weight(0.3, 0.0), &[k, n]);
        let x = quantize_activations(
            &Matrix::from_vec(x_f.into_vec(), m, k).unwrap(),
            &QuantScheme::activation_a8(),
            None,
        );
        let w = quantize_weights(
            &Matrix::from_vec(w_f.into_vec(), k, n).unwrap(),
            &QuantScheme::weight_w8(),
        );
        (x, w)
    }

    #[test]
    fn config_presets() {
        let c2 = SySmtConfig::paper_2t();
        assert_eq!(c2.threads, ThreadCount::Two);
        assert_eq!(c2.grid.pe_count(), 256);
        let c4 = SySmtConfig::paper_4t();
        assert_eq!(c4.threads, ThreadCount::Four);
        assert_eq!(SySmtConfig::default(), c2);
    }

    #[test]
    fn cycle_counts_scale_with_threads() {
        let cfg2 = SySmtConfig {
            grid: SystolicConfig::new(8, 8),
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        };
        let array2 = SySmtArray::new(cfg2);
        let (m, k, n) = (32, 128, 32);
        let baseline = array2.baseline_cycles(m, k, n);
        let two = array2.layer_cycles(m, k, n);
        // K shrinks by 2x; the skew overhead stays, so speedup is slightly
        // below 2x per tile but the streaming portion halves exactly.
        assert!(two < baseline);
        assert!(baseline as f64 / two as f64 > 1.7);

        let array4 = SySmtArray::new(SySmtConfig {
            threads: ThreadCount::Four,
            ..cfg2
        });
        let four = array4.layer_cycles(m, k, n);
        assert!(four < two);
    }

    #[test]
    fn execute_layer_reports_speedup_and_low_error() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(11, 24, 96, 16, 0.55);
        let array = SySmtArray::new(SySmtConfig {
            grid: SystolicConfig::new(8, 8),
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: true,
        });
        let r = array.execute_layer_with(&ctx, &x, &w).unwrap();
        assert!(r.speedup() > 1.5, "speedup {}", r.speedup());
        assert!(
            r.error.relative_mse < 0.02,
            "rel mse {}",
            r.error.relative_mse
        );
        assert!(r.utilization_gain() >= 1.0);
        assert!(r.utilization <= 1.0 && r.baseline_utilization <= 1.0);
    }

    #[test]
    fn utilization_gain_tracks_sparsity() {
        // Sparser activations leave more idle baseline slots, so the gain of
        // 2 threads is larger (Fig. 9's upward trend).
        let ctx = ExecContext::sequential();
        let array = SySmtArray::new(SySmtConfig {
            grid: SystolicConfig::new(8, 8),
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        let (x_dense, w_dense) = random_layer(21, 16, 64, 8, 0.05);
        let (x_sparse, w_sparse) = random_layer(22, 16, 64, 8, 0.7);
        let dense = array.execute_layer_with(&ctx, &x_dense, &w_dense).unwrap();
        let sparse = array
            .execute_layer_with(&ctx, &x_sparse, &w_sparse)
            .unwrap();
        assert!(
            sparse.utilization_gain() > dense.utilization_gain(),
            "sparse gain {} should exceed dense gain {}",
            sparse.utilization_gain(),
            dense.utilization_gain()
        );
    }

    #[test]
    fn execute_layer_rejects_mismatched_dimensions() {
        let ctx = ExecContext::sequential();
        let x = QuantMatrix::zeros(4, 6, 1.0);
        let w = QuantWeightMatrix::with_uniform_scale(Matrix::zeros(5, 3), 1.0);
        let array = SySmtArray::new(SySmtConfig::paper_2t());
        assert!(array.execute_layer_with(&ctx, &x, &w).is_err());
    }
}
