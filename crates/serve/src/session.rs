//! Immutable, shareable inference sessions.
//!
//! A [`Session`] is a calibrated quantized model frozen together with one
//! NB-SMT design point ([`SmtConfig`]): the unit the scheduler executes
//! batches against. Sessions hold no mutable state and are wrapped in `Arc`
//! by the registry, so any number of scheduler workers and clients can share
//! one compiled session.
//!
//! Batch execution stacks the per-request inputs along the leading dimension,
//! runs the quantized executor once through the supplied [`ExecContext`], and
//! splits the logits back into per-request responses. By the execution
//! layer's determinism contract the logits are bit-identical for every host
//! thread count and GEMM backend, which is what makes the serving path
//! replayable.

use std::sync::{Arc, OnceLock};

use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_core::pe::PeStats;
use nbsmt_core::policy::SharingPolicy;
use nbsmt_core::ThreadCount;
use nbsmt_nn::model::Model;
use nbsmt_nn::quantized::{GemmEngine, QuantizedModel, ReferenceEngine};
use nbsmt_nn::NnError;
use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::quantized_matmul_prepacked;
use nbsmt_tensor::exec::{ExecContext, GemmBackendKind, PackedRhs};
use nbsmt_tensor::tensor::{Matrix, Tensor};

use crate::config::{ServeError, SmtConfig};
use crate::trace::LayerKernel;

/// One completed inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Inference {
    /// Raw output logits for this request.
    pub logits: Vec<f32>,
    /// Index of the largest logit (the predicted class).
    pub predicted: usize,
}

/// A compiled, immutable serving session: calibrated quantized weights plus
/// one NB-SMT design point.
#[derive(Debug, Clone)]
pub struct Session {
    name: String,
    smt: SmtConfig,
    quantized: QuantizedModel,
    /// Expected per-sample input dimensions (channels, height, width).
    input_dims: [usize; 3],
    /// MAC operations one sample costs on the dense array (service-model
    /// input for the virtual clock).
    macs_per_sample: u64,
    /// Lazily packed per-layer weight panels for the [`Packed`] GEMM
    /// backend (see [`PackedRhs`]). Shared by all clones of the session, so
    /// each layer's weights are packed once per session lifetime no matter
    /// how many `infer_batch` calls or scheduler workers touch it.
    ///
    /// [`Packed`]: GemmBackendKind::Packed
    packs: PackCache,
}

/// One `OnceLock` slot per compute layer, behind an `Arc` so session clones
/// share the cache. Each layer's weights are quantized once, when the model
/// is calibrated, and never change, so a pack built on any batch stays
/// valid for the session's lifetime.
#[derive(Debug, Clone)]
struct PackCache {
    layers: Arc<Vec<OnceLock<PackedRhs<i8>>>>,
}

impl PackCache {
    fn new(layer_count: usize) -> Self {
        PackCache {
            layers: Arc::new((0..layer_count).map(|_| OnceLock::new()).collect()),
        }
    }

    /// The cached pack for `layer_index`, packing `w` on first use. Returns
    /// `None` for out-of-range indices (grouped-conv layers bypass the
    /// engine and are never packed).
    fn get_or_pack(&self, layer_index: usize, w: &QuantWeightMatrix) -> Option<&PackedRhs<i8>> {
        self.layers.get(layer_index).map(|slot| {
            slot.get_or_init(|| PackedRhs::pack(w.rows(), w.cols(), w.values().as_slice()))
        })
    }
}

impl Session {
    /// Compiles a session from a calibrated model.
    ///
    /// `input_dims` is the per-sample `(channels, height, width)` shape every
    /// request must match.
    ///
    /// # Errors
    ///
    /// Propagates MAC-counting failures (malformed model geometry).
    pub fn new(
        name: impl Into<String>,
        quantized: QuantizedModel,
        smt: SmtConfig,
        input_dims: [usize; 3],
    ) -> Result<Self, ServeError> {
        let [c, h, w] = input_dims;
        let macs_per_sample = quantized.model().mac_ops(c, h, w)?;
        let packs = PackCache::new(quantized.compute_layer_count());
        Ok(Session {
            name: name.into(),
            smt,
            quantized,
            input_dims,
            macs_per_sample,
            packs,
        })
    }

    /// The session's model id.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The NB-SMT design point this session executes at.
    pub fn smt(&self) -> &SmtConfig {
        &self.smt
    }

    /// Expected per-sample input dimensions (channels, height, width).
    pub fn input_dims(&self) -> [usize; 3] {
        self.input_dims
    }

    /// Dense-array MAC operations per sample (the virtual-clock service
    /// model scales this by the batch size and divides by the SMT speedup).
    pub fn macs_per_sample(&self) -> u64 {
        self.macs_per_sample
    }

    /// Checks a request input against the session's expected shape.
    ///
    /// Accepts `[C, H, W]` or `[1, C, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] on any other shape.
    pub fn validate_input(&self, input: &Tensor<f32>) -> Result<(), ServeError> {
        let dims = input.shape().dims();
        let [c, h, w] = self.input_dims;
        let ok = dims == [c, h, w] || dims == [1, c, h, w];
        if ok {
            Ok(())
        } else {
            Err(ServeError::BadRequest(format!(
                "input shape {dims:?} does not match session shape [1, {c}, {h}, {w}]"
            )))
        }
    }

    /// Executes one coalesced batch: stacks `inputs` along the leading
    /// dimension, runs the quantized model once on `ctx`, and returns one
    /// [`Inference`] per input, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when any input's shape mismatches
    /// and propagates model-execution failures.
    pub fn infer_batch(
        &self,
        ctx: &ExecContext,
        inputs: &[Tensor<f32>],
    ) -> Result<Vec<Inference>, ServeError> {
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        self.infer_batch_refs(ctx, &refs)
    }

    /// [`Self::infer_batch`] over borrowed inputs — the hot serving path:
    /// the scheduler and the simulator hand in references so each request
    /// tensor is copied exactly once, into the stacked batch.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] when any input's shape mismatches
    /// and propagates model-execution failures.
    pub fn infer_batch_refs(
        &self,
        ctx: &ExecContext,
        inputs: &[&Tensor<f32>],
    ) -> Result<Vec<Inference>, ServeError> {
        self.infer_batch_inner(ctx, inputs, None)
    }

    /// The serving drivers' entry point: [`Self::infer_batch_refs`], plus
    /// per-layer kernel records when `kernels` is given. Each
    /// [`LayerKernel`] carries an engine-dispatched layer's GEMM shape and
    /// NB-SMT [`PeStats`] (zeroed for dense sessions, whose layers never
    /// enter the PE array). The inferences are bit-identical either way —
    /// recording only *reads* the stats the kernels already compute.
    pub(crate) fn infer_batch_inner(
        &self,
        ctx: &ExecContext,
        inputs: &[&Tensor<f32>],
        mut kernels: Option<&mut Vec<LayerKernel>>,
    ) -> Result<Vec<Inference>, ServeError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let [c, h, w] = self.input_dims;
        let per_sample = c * h * w;
        let mut data = Vec::with_capacity(inputs.len() * per_sample);
        for input in inputs {
            self.validate_input(input)?;
            data.extend_from_slice(input.as_slice());
        }
        let batch = Tensor::from_vec(data, &[inputs.len(), c, h, w])
            .map_err(|e| ServeError::Model(e.to_string()))?;
        let logits = match self.smt {
            SmtConfig::Dense => {
                let mut engine = ServeDenseEngine {
                    packs: &self.packs,
                    kernels: kernels.as_deref_mut(),
                };
                self.quantized.forward_with_ctx(ctx, &batch, &mut engine)?
            }
            SmtConfig::NbSmt {
                threads,
                policy,
                reorder,
                first_layer_1t,
            } => {
                let mut engine = ServeNbSmtEngine {
                    threads,
                    policy,
                    reorder,
                    first_layer_1t,
                    packs: &self.packs,
                    kernels,
                };
                self.quantized.forward_with_ctx(ctx, &batch, &mut engine)?
            }
        };
        let dims = logits.shape().dims();
        let classes = dims[dims.len() - 1];
        let rows = logits.numel() / classes;
        if rows != inputs.len() {
            return Err(ServeError::Model(format!(
                "model produced {rows} logit rows for a batch of {}",
                inputs.len()
            )));
        }
        let slice = logits.as_slice();
        Ok((0..rows)
            .map(|r| {
                let row = &slice[r * classes..(r + 1) * classes];
                let predicted = row
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                Inference {
                    logits: row.to_vec(),
                    predicted,
                }
            })
            .collect())
    }
}

/// The dense serving engine: [`ReferenceEngine`] arithmetic, plus the
/// session's weight-pack cache when the context selects the `Packed` GEMM
/// backend. Integer kernels are bit-exact across backends, so the logits are
/// identical either way — the pack only removes the per-call packing cost.
struct ServeDenseEngine<'s> {
    packs: &'s PackCache,
    /// Per-layer kernel records collected by the traced inference path
    /// (dense layers never enter the PE array, so their stats are zeroed).
    kernels: Option<&'s mut Vec<LayerKernel>>,
}

impl GemmEngine for ServeDenseEngine<'_> {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        if let Some(kernels) = self.kernels.as_deref_mut() {
            kernels.push(LayerKernel {
                layer: layer_index,
                rows: x.rows(),
                cols: w.cols(),
                stats: PeStats::default(),
            });
        }
        if ctx.config().backend == GemmBackendKind::Packed {
            if let Some(pack) = self.packs.get_or_pack(layer_index, w) {
                return Ok(quantized_matmul_prepacked(ctx, x, w, pack)?);
            }
        }
        ReferenceEngine.gemm(ctx, layer_index, x, w)
    }
}

/// The serving-side NB-SMT [`GemmEngine`]: identical arithmetic to the
/// offline `nbsmt-bench` engine but without its error-metric bookkeeping —
/// serving never re-runs the error-free reference alongside each layer, so a
/// batch costs one NB-SMT pass, not two. Under the `Packed` backend the
/// session's cached weight panels feed the fast path's base GEMM, except
/// when similarity reordering is active (reordering permutes the weight rows
/// per batch, which would invalidate a cached pack).
struct ServeNbSmtEngine<'s> {
    threads: ThreadCount,
    policy: SharingPolicy,
    reorder: bool,
    first_layer_1t: bool,
    packs: &'s PackCache,
    /// Per-layer kernel records collected by the traced inference path —
    /// the squeeze/collision counters the NB-SMT kernels already compute,
    /// surfaced instead of discarded.
    kernels: Option<&'s mut Vec<LayerKernel>>,
}

impl GemmEngine for ServeNbSmtEngine<'_> {
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
        let reorder = self.reorder && threads.count() > 1;
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads,
            policy: self.policy,
            reorder,
        });
        let pack = if !reorder && ctx.config().backend == GemmBackendKind::Packed {
            self.packs.get_or_pack(layer_index, w)
        } else {
            None
        };
        let out = emu
            .execute_with_prepacked(ctx, x, w, pack)
            .map_err(NnError::from)?;
        if let Some(kernels) = self.kernels.as_deref_mut() {
            kernels.push(LayerKernel {
                layer: layer_index,
                rows: x.rows(),
                cols: w.cols(),
                stats: out.stats,
            });
        }
        Ok(out.output)
    }
}

/// Builds a calibrated session directly from a trained float model —
/// convenience used by tests and the registry.
///
/// # Errors
///
/// Propagates calibration failures.
pub fn compile_session(
    name: impl Into<String>,
    model: &Model,
    calibration_inputs: &[Tensor<f32>],
    smt: SmtConfig,
    input_dims: [usize; 3],
) -> Result<Session, ServeError> {
    let quantized = QuantizedModel::calibrate(model, calibration_inputs)?;
    Session::new(name, quantized, smt, input_dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_workloads::synthnet::quick_synthnet;

    fn session_pair() -> (Session, Session, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(11).expect("training succeeds");
        let calib = trained.calibration_inputs(8, 501);
        let s = trained.task.image_size;
        let dense = compile_session(
            "synthnet",
            &trained.model,
            std::slice::from_ref(&calib),
            SmtConfig::Dense,
            [1, s, s],
        )
        .unwrap();
        let smt2 = compile_session(
            "synthnet",
            &trained.model,
            &[calib],
            SmtConfig::sysmt_2t(),
            [1, s, s],
        )
        .unwrap();
        let (inputs, _) = trained.sample_requests(6, 777);
        (dense, smt2, inputs)
    }

    #[test]
    fn batch_matches_singles_bitwise() {
        let (dense, _, inputs) = session_pair();
        let ctx = ExecContext::sequential();
        let batched = dense.infer_batch(&ctx, &inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let single = dense
                .infer_batch(&ctx, std::slice::from_ref(input))
                .unwrap();
            assert_eq!(single.len(), 1);
            assert_eq!(single[0].predicted, batched[i].predicted);
        }
    }

    #[test]
    fn outputs_invariant_across_host_threads() {
        let (_, smt2, inputs) = session_pair();
        let reference = smt2
            .infer_batch(&ExecContext::sequential(), &inputs)
            .unwrap();
        for threads in [2usize, 8] {
            let out = smt2
                .infer_batch(&ExecContext::with_threads(threads), &inputs)
                .unwrap();
            for (a, b) in out.iter().zip(reference.iter()) {
                let ab: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ab, bb, "logits must be bit-identical across host threads");
            }
        }
    }

    #[test]
    fn packed_backend_reuses_cache_and_matches_sequential_bitwise() {
        use nbsmt_tensor::exec::ExecConfig;
        let (dense, smt2, inputs) = session_pair();
        let seq = ExecContext::sequential();
        let packed_ctx = ExecContext::new(ExecConfig {
            backend: GemmBackendKind::Packed,
            ..*seq.config()
        });
        for session in [&dense, &smt2] {
            let reference = session.infer_batch(&seq, &inputs).unwrap();
            // Two rounds: the first populates the session's pack cache, the
            // second must reuse it and still match bit-for-bit.
            for round in 0..2 {
                let packed = session.infer_batch(&packed_ctx, &inputs).unwrap();
                for (a, b) in packed.iter().zip(reference.iter()) {
                    let ab: Vec<u32> = a.logits.iter().map(|v| v.to_bits()).collect();
                    let bb: Vec<u32> = b.logits.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        ab, bb,
                        "packed-backend logits must be bit-identical (round {round})"
                    );
                }
            }
            assert!(session.packs.layers.iter().any(|slot| slot.get().is_some()));
        }
    }

    #[test]
    fn smt_session_differs_from_dense_but_mostly_agrees() {
        let (dense, smt2, inputs) = session_pair();
        let ctx = ExecContext::sequential();
        let d = dense.infer_batch(&ctx, &inputs).unwrap();
        let s = smt2.infer_batch(&ctx, &inputs).unwrap();
        let agree = d
            .iter()
            .zip(s.iter())
            .filter(|(a, b)| a.predicted == b.predicted)
            .count();
        assert!(
            agree * 2 >= inputs.len(),
            "2T SySMT should agree with dense on most requests ({agree}/{})",
            inputs.len()
        );
    }

    #[test]
    fn traced_inference_matches_untraced_and_surfaces_pe_stats() {
        let (dense, smt2, inputs) = session_pair();
        let ctx = ExecContext::sequential();
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        for (session, smt_layers) in [(&dense, false), (&smt2, true)] {
            let plain = session.infer_batch_refs(&ctx, &refs).unwrap();
            let mut kernels = Vec::new();
            let traced = session
                .infer_batch_inner(&ctx, &refs, Some(&mut kernels))
                .unwrap();
            assert_eq!(traced, plain, "tracing must not perturb inference");
            assert!(!kernels.is_empty(), "engine layers must be recorded");
            for (i, kernel) in kernels.iter().enumerate() {
                // Conv layers lower to im2col GEMMs, so rows is a multiple
                // of the batch (batch × output positions), never less.
                assert!(kernel.rows >= inputs.len());
                assert_eq!(kernel.rows % inputs.len(), 0);
                assert!(kernel.cols > 0);
                if i > 0 {
                    assert!(kernel.layer > kernels[i - 1].layer, "layers in order");
                }
                if smt_layers {
                    assert!(kernel.stats.cycles > 0, "NB-SMT layers carry PE stats");
                } else {
                    assert_eq!(kernel.stats, Default::default(), "dense stats are zero");
                }
            }
        }
    }

    #[test]
    fn rejects_bad_shapes_and_empty_batch_is_empty() {
        let (dense, _, _) = session_pair();
        let ctx = ExecContext::sequential();
        assert!(dense.infer_batch(&ctx, &[]).unwrap().is_empty());
        let bad = Tensor::<f32>::zeros(&[1, 1, 3, 3]);
        assert!(matches!(
            dense.infer_batch(&ctx, &[bad]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(dense.macs_per_sample() > 0);
    }
}
