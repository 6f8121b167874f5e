//! Bridges the NB-SMT emulation from `nbsmt-core` into the quantized model
//! executor of `nbsmt-nn`.
//!
//! The quantized executor delegates every conv/linear GEMM to a
//! [`GemmEngine`]; [`NbSmtEngine`] implements that trait with the functional
//! NB-SMT matmul, applying a per-layer thread assignment so experiments can
//! slow selected layers down (Table V, Fig. 10) and leave the first
//! convolution / fully connected layers at one thread as the paper does
//! ([`paper_assignment`]).

use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_core::pe::PeStats;
use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::tuning::ThreadAssignment;
use nbsmt_core::ThreadCount;
use nbsmt_nn::model::{Layer, Model};
use nbsmt_nn::quantized::GemmEngine;
use nbsmt_nn::NnError;
use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::quantized_matmul_with;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Matrix;

/// Per-layer NB-SMT execution settings used by [`NbSmtEngine`].
#[derive(Debug, Clone)]
pub struct NbSmtEngineConfig {
    /// Thread count of every compute layer, indexed by compute-layer index.
    pub threads: ThreadAssignment,
    /// Sharing policy.
    pub policy: SharingPolicy,
    /// Whether the statistical reordering of §IV-B is applied.
    pub reorder: bool,
}

/// The paper's per-layer threads for `model` (§V): the first convolution and
/// the fully connected (linear) layers run at one thread, every other compute
/// layer at `threads`. Every accuracy experiment starts from this assignment.
pub fn paper_assignment(model: &Model, threads: ThreadCount) -> ThreadAssignment {
    let mut assignment = ThreadAssignment::uniform(model.compute_layer_count(), threads);
    let compute_layers = model.layers().iter().filter(|l| l.is_compute_layer());
    for (i, layer) in compute_layers.enumerate() {
        if i == 0 || matches!(layer, Layer::Linear(_)) {
            assignment.set(i, ThreadCount::One);
        }
    }
    assignment
}

/// A [`GemmEngine`] that executes every layer under NB-SMT and records
/// per-layer statistics and error metrics.
#[derive(Debug, Clone)]
pub struct NbSmtEngine {
    config: NbSmtEngineConfig,
    /// Accumulated PE statistics per compute layer.
    pub layer_stats: Vec<PeStats>,
    /// Accumulated squared error and element count per compute layer against
    /// the error-free reference, used to derive the per-layer MSE the tuning
    /// pass ranks layers by.
    pub layer_sq_error: Vec<(f64, u64)>,
}

impl NbSmtEngine {
    /// Creates an engine.
    pub fn new(config: NbSmtEngineConfig) -> Self {
        NbSmtEngine {
            config,
            layer_stats: Vec::new(),
            layer_sq_error: Vec::new(),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &NbSmtEngineConfig {
        &self.config
    }

    /// Mean squared error recorded for compute layer `layer`.
    pub fn layer_mse(&self, layer: usize) -> f64 {
        match self.layer_sq_error.get(layer) {
            Some(&(sq, n)) if n > 0 => sq / n as f64,
            _ => 0.0,
        }
    }

    /// Clears the recorded statistics (between runs).
    pub fn reset_stats(&mut self) {
        self.layer_stats.clear();
        self.layer_sq_error.clear();
    }

    fn ensure_layer(&mut self, layer: usize) {
        if self.layer_stats.len() <= layer {
            self.layer_stats.resize(layer + 1, PeStats::default());
            self.layer_sq_error.resize(layer + 1, (0.0, 0));
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
        self.ensure_layer(layer_index);
        let threads = ThreadCount::from_count(self.config.threads.threads_for(layer_index))
            .expect("a ThreadAssignment holds 1, 2 or 4 threads per layer");
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads,
            policy: self.config.policy,
            reorder: self.config.reorder && threads.count() > 1,
        });
        let out = emu
            .execute_with(ctx, x, w)
            .map_err(nbsmt_nn::NnError::from)?;
        self.layer_stats[layer_index].merge(&out.stats);
        // Record the squared error against the error-free reference so the
        // tuning experiments can rank layers by MSE.
        let reference = quantized_matmul_with(ctx, x, w).map_err(NnError::from)?;
        let mut sq = 0.0f64;
        for (a, b) in out.output.as_slice().iter().zip(reference.as_slice()) {
            let d = (*a - *b) as f64;
            sq += d * d;
        }
        let entry = &mut self.layer_sq_error[layer_index];
        entry.0 += sq;
        entry.1 += reference.as_slice().len() as u64;
        Ok(out.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_nn::quantized::{QuantizedModel, ReferenceEngine};
    use nbsmt_workloads::synthnet::{generate_dataset, quick_synthnet};

    #[test]
    fn nbsmt_engine_runs_synthnet_with_small_accuracy_loss() {
        let ctx = ExecContext::sequential();
        let trained = quick_synthnet(7).expect("training succeeds");
        let calib = generate_dataset(&trained.task, 4, 999);
        let (calib_images, _) = calib.batch(0, calib.len());
        let q = QuantizedModel::calibrate(&trained.model, &[calib_images]).unwrap();
        let (test_images, test_labels) = trained.test.batch(0, trained.test.len());

        let baseline_acc = q
            .accuracy_with_ctx(&ctx, &test_images, &test_labels, &mut ReferenceEngine)
            .unwrap();

        // The paper leaves the first convolution and the FC layer at one
        // thread.
        let threads = paper_assignment(&trained.model, ThreadCount::Two);
        assert_eq!(threads.iter().collect::<Vec<_>>(), vec![1, 2, 2, 1]);
        let mut engine = NbSmtEngine::new(NbSmtEngineConfig {
            threads,
            policy: SharingPolicy::S_A,
            reorder: true,
        });
        let nbsmt_acc = q
            .accuracy_with_ctx(&ctx, &test_images, &test_labels, &mut engine)
            .unwrap();
        assert!(
            baseline_acc - nbsmt_acc <= 0.1,
            "2T accuracy {nbsmt_acc} dropped too far from baseline {baseline_acc}"
        );
        // Statistics were recorded for every compute layer.
        assert_eq!(engine.layer_stats.len(), q.compute_layer_count());
        assert!(engine.layer_stats.iter().all(|s| s.cycles > 0));
        // Layer MSE is available and finite.
        for l in 0..q.compute_layer_count() {
            assert!(engine.layer_mse(l).is_finite());
        }
        engine.reset_stats();
        assert!(engine.layer_stats.is_empty());
    }
}
