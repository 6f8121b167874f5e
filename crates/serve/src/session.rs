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

use nbsmt_core::matmul::{NbSmtMatmulConfig, PreparedWeights};
use nbsmt_core::pe::PeStats;
use nbsmt_core::ThreadCount;
use nbsmt_nn::model::Model;
use nbsmt_nn::quantized::{GemmEngine, QuantizedModel, ReferenceEngine};
use nbsmt_nn::NnError;
use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_tensor::exec::ExecContext;
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
    /// The NB-SMT fast path's weight-only tables, one per compute layer in
    /// model order, built at compile time for the thread count that layer
    /// runs at. Empty for a dense session.
    layers: Vec<PreparedWeights>,
    /// Expected per-sample input dimensions (channels, height, width).
    input_dims: [usize; 3],
    /// MAC operations one sample costs on the dense array (service-model
    /// input for the virtual clock).
    macs_per_sample: u64,
}

impl Session {
    /// Compiles a session from a calibrated model. An NB-SMT session also
    /// prepares each compute layer's weight-only tables here, once
    /// ([`PreparedWeights`]), so no served batch rebuilds them.
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
        let layers = (0..quantized.compute_layer_count())
            .filter_map(|index| {
                let config = layer_config(&smt, index)?;
                Some(
                    quantized
                        .quantized_weights(index)
                        .map(|(weights, _)| PreparedWeights::new(config, &weights)),
                )
            })
            .collect::<Result<_, NnError>>()?;
        Ok(Session {
            name: name.into(),
            smt,
            quantized,
            layers,
            input_dims,
            macs_per_sample,
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
    /// [`Inference`] per input, in input order. The inputs are borrowed — the
    /// scheduler and the simulator hand in references so each request tensor
    /// is copied exactly once, into the stacked batch.
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
        kernels: Option<&mut Vec<LayerKernel>>,
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
        let mut engine = ServeEngine {
            layers: &self.layers,
            kernels,
        };
        let logits = self.quantized.forward_with_ctx(ctx, &batch, &mut engine)?;
        let dims = logits.shape().dims();
        let classes = dims[dims.len() - 1];
        let rows = logits.numel() / classes;
        if rows != inputs.len() {
            return Err(ServeError::Model(format!(
                "model produced {rows} logit rows for a batch of {}",
                inputs.len()
            )));
        }
        Ok(logits
            .as_slice()
            .chunks_exact(classes)
            .zip(Model::argmax(&logits))
            .map(|(row, predicted)| Inference {
                logits: row.to_vec(),
                predicted,
            })
            .collect())
    }
}

/// The serving [`GemmEngine`]: each compute layer runs on the weight-only
/// tables the session prepared for it. A dense session prepares none, so its
/// layers run [`ReferenceEngine`] arithmetic and record zeroed [`PeStats`]
/// (they never enter the PE array). Unlike the offline `nbsmt-bench` engine
/// it keeps no error metrics — serving never re-runs the error-free reference
/// alongside an NB-SMT layer, so a batch costs one pass, not two.
struct ServeEngine<'s> {
    /// The session's prepared layers, indexed by compute layer; empty for a
    /// dense session.
    layers: &'s [PreparedWeights],
    /// Per-layer kernel records collected by the traced inference path —
    /// the squeeze/collision counters the NB-SMT kernels already compute,
    /// surfaced instead of discarded.
    kernels: Option<&'s mut Vec<LayerKernel>>,
}

impl GemmEngine for ServeEngine<'_> {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        let (output, stats) = match self.layers.get(layer_index) {
            Some(layer) => {
                let out = layer.run(ctx, x, w)?;
                (out.output, out.stats)
            }
            None => (
                ReferenceEngine.gemm(ctx, layer_index, x, w)?,
                PeStats::default(),
            ),
        };
        if let Some(kernels) = self.kernels.as_deref_mut() {
            kernels.push(LayerKernel {
                layer: layer_index,
                rows: x.rows(),
                cols: w.cols(),
                stats,
            });
        }
        Ok(output)
    }
}

/// The NB-SMT configuration compute layer `index` runs at under `smt`, or
/// `None` for a dense session: the design point's thread count, except
/// layer 0 at one thread under `first_layer_1t`, as the paper runs it.
fn layer_config(smt: &SmtConfig, index: usize) -> Option<NbSmtMatmulConfig> {
    let SmtConfig::NbSmt {
        threads,
        policy,
        reorder,
        first_layer_1t,
    } = *smt
    else {
        return None;
    };
    let threads = if index == 0 && first_layer_1t {
        ThreadCount::One
    } else {
        threads
    };
    Some(NbSmtMatmulConfig {
        threads,
        policy,
        reorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use nbsmt_workloads::synthnet::quick_synthnet;
    use std::sync::Arc;

    /// SynthNet (training seed 11, calibration seed 501) compiled at each
    /// design point of `ladder`, and six requests.
    fn synthnet_sessions(ladder: &[SmtConfig]) -> (Vec<Arc<Session>>, Vec<Tensor<f32>>) {
        let trained = quick_synthnet(11).expect("training succeeds");
        let mut registry = ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 501)
            .unwrap();
        let (inputs, _) = trained.sample_requests(6, 777);
        (registry.compile_ladder("synthnet", ladder).unwrap(), inputs)
    }

    /// The bit patterns of every logit of `inferences`, in order.
    fn logit_bits(inferences: &[Inference]) -> Vec<u32> {
        inferences
            .iter()
            .flat_map(|inference| inference.logits.iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn batch_matches_singles_bitwise() {
        let ctx = ExecContext::sequential();
        let (sessions, inputs) = synthnet_sessions(&[
            SmtConfig::Dense,
            SmtConfig::sysmt_2t(),
            SmtConfig::sysmt_4t(),
        ]);
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        for session in &sessions {
            let label = session.smt().label();
            let batched = session.infer_batch_refs(&ctx, &refs).unwrap();
            assert_eq!(batched.len(), inputs.len());
            for (input, batched) in inputs.iter().zip(&batched) {
                let single = session.infer_batch_refs(&ctx, &[input]).unwrap();
                assert_eq!(single.len(), 1);
                assert_eq!(single[0].predicted, batched.predicted, "{label}");
                assert_eq!(
                    logit_bits(&single),
                    logit_bits(std::slice::from_ref(batched)),
                    "{label}: a request's logits must not depend on its batch"
                );
            }
        }
    }

    #[test]
    fn outputs_invariant_across_host_threads() {
        let (sessions, inputs) = synthnet_sessions(&[SmtConfig::sysmt_2t()]);
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        let smt2 = &sessions[0];
        let reference = smt2
            .infer_batch_refs(&ExecContext::sequential(), &refs)
            .unwrap();
        for threads in [2usize, 8] {
            let out = smt2
                .infer_batch_refs(&ExecContext::with_threads(threads), &refs)
                .unwrap();
            assert_eq!(
                logit_bits(&out),
                logit_bits(&reference),
                "logits must be bit-identical across host threads"
            );
        }
    }

    #[test]
    fn smt_session_differs_from_dense_but_mostly_agrees() {
        let ctx = ExecContext::sequential();
        let (sessions, inputs) = synthnet_sessions(&[SmtConfig::Dense, SmtConfig::sysmt_2t()]);
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        let d = sessions[0].infer_batch_refs(&ctx, &refs).unwrap();
        let s = sessions[1].infer_batch_refs(&ctx, &refs).unwrap();
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
        let ctx = ExecContext::sequential();
        let (sessions, inputs) = synthnet_sessions(&[SmtConfig::Dense, SmtConfig::sysmt_2t()]);
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        for (session, smt_layers) in sessions.iter().zip([false, true]) {
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

    /// The event-walking oracle as a forward-pass engine: layer 0 at one
    /// thread, every other layer at `threads`, S+A without reordering (the
    /// `sysmt_2t`/`sysmt_4t` design points), recording each layer's stats.
    struct OracleEngine {
        threads: ThreadCount,
        stats: Vec<PeStats>,
    }

    impl GemmEngine for OracleEngine {
        fn gemm(
            &mut self,
            ctx: &ExecContext,
            layer_index: usize,
            x: &QuantMatrix,
            w: &QuantWeightMatrix,
        ) -> Result<Matrix<f32>, NnError> {
            let threads = if layer_index == 0 {
                ThreadCount::One
            } else {
                self.threads
            };
            let out = nbsmt_core::matmul::NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: nbsmt_core::policy::SharingPolicy::S_A,
                reorder: false,
            })
            .execute_event_with(ctx, x, w)?;
            self.stats.push(out.stats);
            Ok(out.output)
        }
    }

    #[test]
    fn served_logits_and_layer_stats_equal_the_event_oracle() {
        let trained = quick_synthnet(11).expect("training succeeds");
        let mut registry = ModelRegistry::new();
        registry
            .register_synthnet("synthnet", &trained, 501)
            .unwrap();
        let s = trained.task.image_size;
        let (inputs, _) = trained.sample_requests(5, 778);
        let refs: Vec<&Tensor<f32>> = inputs.iter().collect();
        let batch = Tensor::from_vec(
            inputs.iter().flat_map(|t| t.as_slice().to_vec()).collect(),
            &[inputs.len(), 1, s, s],
        )
        .unwrap();
        for (smt, threads) in [
            (SmtConfig::sysmt_2t(), ThreadCount::Two),
            (SmtConfig::sysmt_4t(), ThreadCount::Four),
        ] {
            let session = registry.compile("synthnet", smt).unwrap();
            let mut kernels = Vec::new();
            let served = session
                .infer_batch_inner(&ExecContext::with_threads(2), &refs, Some(&mut kernels))
                .unwrap();
            let mut oracle = OracleEngine {
                threads,
                stats: Vec::new(),
            };
            let logits = session
                .quantized
                .forward_with_ctx(&ExecContext::sequential(), &batch, &mut oracle)
                .unwrap();
            let oracle_bits: Vec<u32> = logits.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(logit_bits(&served), oracle_bits, "{threads:?}: logits");
            let served_stats: Vec<PeStats> = kernels.iter().map(|k| k.stats).collect();
            assert_eq!(served_stats, oracle.stats, "{threads:?}: per-layer PeStats");
        }
    }

    #[test]
    fn rejects_bad_shapes_and_empty_batch_is_empty() {
        let ctx = ExecContext::sequential();
        let (sessions, _) = synthnet_sessions(&[SmtConfig::Dense]);
        let dense = &sessions[0];
        assert!(dense.infer_batch_refs(&ctx, &[]).unwrap().is_empty());
        let bad = Tensor::<f32>::zeros(&[1, 1, 3, 3]);
        assert!(matches!(
            dense.infer_batch_refs(&ctx, &[&bad]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(dense.macs_per_sample() > 0);
    }
}
