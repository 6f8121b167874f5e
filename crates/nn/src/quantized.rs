//! Quantized model execution with a pluggable GEMM engine.
//!
//! The paper simulates SySMT by mapping every convolution to a matrix
//! multiplication and replacing that multiplication with the NB-SMT
//! emulation. This module mirrors that flow: a trained floating-point
//! [`Model`] is calibrated (per-layer activation ranges, per-kernel weight
//! scales) and then executed layer by layer with the conv/linear GEMMs
//! delegated to a [`GemmEngine`]. The engine is the
//! integration point for `nbsmt-core`: the reference engine reproduces the
//! error-free 8-bit baseline, while an NB-SMT engine injects exactly the
//! error the hardware would.
//!
//! Between two quantized layers the activations stay in bytes, as in the
//! output pipeline of gemmlowp and TFLite (Jacob et al., CVPR 2018). Each
//! GEMM's epilogue adds the bias, applies the ReLU and 2×2 max-pool the
//! model places before the next layer, and quantizes at that layer's frozen
//! scale straight into its zero-padded NCHW u8 input, which
//! [`ops::im2col_padded`] lowers with one fixed-length copy per kernel row.
//! The logits are the float layers' bit for bit: the bias addition runs per
//! element as before, a ReLU before a u8 consumer is the quantizer's lower
//! clamp, the quantizer never decreases as its input grows (so pooling
//! commutes with it), and zero padding quantizes to 0.

use std::borrow::Cow;

use nbsmt_quant::observer::MinMaxObserver;
use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::{
    quantize_activation, quantize_weights, quantized_matmul_with, reduce_activation_matrix,
    reduce_weight_matrix,
};
use nbsmt_quant::scheme::{OperatingPoint, QuantScheme};
use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::ops::{self, Conv2dParams};
use nbsmt_tensor::tensor::{Matrix, Tensor};

use crate::error::NnError;
use crate::model::{forward_layer, Layer, Model};

/// A matrix-multiplication engine used to execute quantized compute layers.
///
/// Implementations receive the execution context of the run (worker pool +
/// GEMM backend — engines no longer own their loop nests), the quantized
/// activation matrix, and the quantized weight matrix of one layer, and
/// return the dequantized output matrix. The `layer_index` identifies the
/// compute layer (0-based over compute layers only), which lets engines
/// apply per-layer thread counts.
pub trait GemmEngine {
    /// Executes one layer's GEMM on the given execution context.
    ///
    /// # Errors
    ///
    /// Returns an error when dimensions mismatch or the engine fails.
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError>;
}

/// The error-free 8-bit reference engine (the conventional systolic array).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEngine;

impl GemmEngine for ReferenceEngine {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        _layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        Ok(quantized_matmul_with(ctx, x, w)?)
    }
}

/// An engine that statically reduces activations and/or weights to 4 bits
/// before the error-free multiplication — the whole-model robustness points
/// of Fig. 7 (A4W8, A8W4, A4W4).
#[derive(Debug, Clone, Copy)]
pub struct ReducedPrecisionEngine {
    /// The operating point to emulate.
    pub point: OperatingPoint,
}

impl GemmEngine for ReducedPrecisionEngine {
    fn gemm(
        &mut self,
        ctx: &ExecContext,
        _layer_index: usize,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<Matrix<f32>, NnError> {
        let x = reduce_activation_matrix(x, self.point.activation_bits);
        let w = reduce_weight_matrix(w, self.point.weight_bits);
        Ok(quantized_matmul_with(ctx, &x, &w)?)
    }
}

/// Where a quantized compute layer's GEMM output goes, fixed at
/// calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Epilogue {
    /// Bias added, out as f32 NCHW (`[N, F]` for a linear layer), and the
    /// layers after it run in float: the run of float layers ends at a
    /// grouped conv or at the logits.
    Float,
    /// Bias added, 2×2 max-pooled when `pool`, and quantized into the next
    /// compute layer's u8 input frame; the `folded` ReLU / MaxPool2 /
    /// Flatten layers in between never run.
    Fused { pool: bool, folded: usize },
}

/// The frozen operands of one compute layer, fixed at calibration: the
/// weights are static (SySMT preloads them, §III–IV) and so is the
/// calibrated activation range, so neither is re-derived per forward pass.
#[derive(Debug, Clone)]
struct LayerPlan {
    /// Activation scale: `scale_for_range` of the averaged (min, max) of
    /// the layer's calibration inputs.
    input_scale: f32,
    /// The weights quantized once, in the GEMM layout (`filters_to_matrix`
    /// of group 0 for a conv layer, the weight matrix for a linear one).
    weights: QuantWeightMatrix,
    /// The conv geometry, `None` for a linear layer.
    conv: Option<Conv2dParams>,
    epilogue: Epilogue,
}

impl LayerPlan {
    /// The layer kind, for errors.
    fn kind(&self) -> &'static str {
        if self.conv.is_some() {
            "conv2d"
        } else {
            "linear"
        }
    }

    /// Quantizes a float input (`[N, C, H, W]` for a conv, `[N, F]` for a
    /// linear layer) element by element into this layer's frame: a conv's
    /// zero frame ([`ops::frame_map`]), the input's shape for a linear layer.
    fn quantize_input(&self, x: &Tensor<f32>, q_max: f32) -> Result<Tensor<u8>, NnError> {
        let quantize = |v| quantize_activation(v, self.input_scale, q_max);
        match (&self.conv, x.rank()) {
            (Some(p), _) => Ok(ops::frame_map(x, p, 0, quantize)?),
            (None, 2) => Ok(x.map(|&v| quantize(v))),
            (None, rank) => Err(NnError::ShapeMismatch {
                layer: self.kind().into(),
                detail: format!("expected a rank-2 input, got rank {rank}"),
            }),
        }
    }

    /// The epilogue that feeds this layer from the one before it: one pass
    /// over the producer's GEMM rows that adds the bias, takes the max over
    /// each 2×2 window when `pool` (the windows and order of
    /// [`crate::layers::MaxPool2`]), quantizes at this layer's scale and
    /// writes the byte into this layer's frame.
    fn quantize_rows(&self, out: &GemmRows<'_>, pool: bool, q_max: f32) -> Tensor<u8> {
        let [n, oc, oh, ow] = out.dims;
        let side = if pool { 2 } else { 1 };
        let (ph, pw) = (oh / side, ow / side);
        // A conv's zero frame, its input `padding` in; a linear layer reads
        // the unpadded bytes as `[N, OC·PH·PW]`.
        let (dims, pad) = match &self.conv {
            Some(p) => (p.frame_dims([n, oc, ph, pw]), p.padding),
            None => ([n, oc, ph, pw], 0),
        };
        let [_, _, fh, fw] = dims;
        let mut frame = vec![0u8; dims.iter().product()];
        let mut max = vec![0.0_f32; oc];
        let mut bytes = vec![0u8; oc];
        for img in 0..n {
            for py in 0..ph {
                for px in 0..pw {
                    max.fill(f32::NEG_INFINITY);
                    for dy in 0..side {
                        for dx in 0..side {
                            let pixel = (img * oh + py * side + dy) * ow + px * side + dx;
                            let row = &out.rows[pixel * oc..][..oc];
                            for ((m, &v), &b) in max.iter_mut().zip(row).zip(out.bias) {
                                let y = v + b;
                                // A select, not a conditional store, so the
                                // loop vectorizes.
                                *m = if y > *m { y } else { *m };
                            }
                        }
                    }
                    for (q, &m) in bytes.iter_mut().zip(&max) {
                        *q = quantize_activation(m, self.input_scale, q_max);
                    }
                    let at = (img * oc * fh + py + pad) * fw + px + pad;
                    for (o, &q) in bytes.iter().enumerate() {
                        frame[at + o * fh * fw] = q;
                    }
                }
            }
        }
        Tensor::from_vec(frame, &dims).expect("the frame holds N·C·FH·FW bytes")
    }

    /// The layer's GEMM activations, lowered from its frame: a conv's
    /// through [`ops::im2col_padded`], a linear layer's read as `[N, F]`.
    /// Also returns the output's `[N, OH, OW]` (`[N, 1, 1]` for a linear
    /// layer).
    fn lower(&self, frame: Tensor<u8>) -> Result<(QuantMatrix, [usize; 3]), NnError> {
        let dims = frame.shape().dims();
        let n = dims[0];
        let (cols, out) = match &self.conv {
            Some(p) => {
                let cols = ops::im2col_padded(&frame, p)?;
                let side = |f: usize| (f - p.kernel) / p.stride + 1;
                (cols, [n, side(dims[2]), side(dims[3])])
            }
            None => {
                let features = dims[1..].iter().product();
                (frame.reshape(&[n, features])?, [n, 1, 1])
            }
        };
        let cols: Matrix<u8> = cols.try_into()?;
        if cols.cols() != self.weights.rows() {
            return Err(NnError::ShapeMismatch {
                layer: self.kind().into(),
                detail: format!(
                    "{} input features for {} weight rows",
                    cols.cols(),
                    self.weights.rows()
                ),
            });
        }
        Ok((QuantMatrix::new(cols, self.input_scale), out))
    }
}

/// A layer's dequantized GEMM rows `[N·OH·OW, OC]` and its bias: what both
/// epilogues read.
struct GemmRows<'a> {
    rows: &'a [f32],
    bias: &'a [f32],
    /// The output's `[N, OC, OH, OW]` (`OH = OW = 1` for a linear layer).
    dims: [usize; 4],
}

impl GemmRows<'_> {
    /// The float epilogue: each output channel's bias added while the rows
    /// scatter into NCHW (the same float additions as a bias pass followed
    /// by `ops::col2im`).
    fn to_float(&self) -> Vec<f32> {
        let [n, oc, oh, ow] = self.dims;
        let plane = oh * ow;
        let mut out = vec![0.0_f32; self.rows.len()];
        for img in 0..n {
            for pix in 0..plane {
                let row = &self.rows[(img * plane + pix) * oc..][..oc];
                for (o, (&v, &b)) in row.iter().zip(self.bias).enumerate() {
                    out[(img * oc + o) * plane + pix] = v + b;
                }
            }
        }
        out
    }
}

/// Whether a layer's GEMM runs on quantized operands: a linear layer or a
/// dense conv (grouped convs run in float).
fn runs_quantized(layer: &Layer) -> bool {
    match layer {
        Layer::Conv2d(conv) => conv.params.groups == 1,
        Layer::Linear(_) => true,
        _ => false,
    }
}

/// The epilogue of compute layer `run[0]`: fused when it runs quantized and
/// the ReLU / MaxPool2 / Flatten layers after it, with at most one MaxPool2
/// (on a 4-D map), end at another layer that runs quantized and takes the
/// run's output rank.
fn epilogue(run: &[Layer]) -> Epilogue {
    if !runs_quantized(&run[0]) {
        return Epilogue::Float;
    }
    let mut four_d = matches!(run[0], Layer::Conv2d(_));
    let mut pool = false;
    for (folded, layer) in run[1..].iter().enumerate() {
        match layer {
            Layer::Relu(_) => {}
            Layer::MaxPool2(_) if four_d && !pool => pool = true,
            Layer::Flatten(_) => four_d = false,
            Layer::Conv2d(conv) if four_d && conv.params.groups == 1 => {
                return Epilogue::Fused { pool, folded }
            }
            Layer::Linear(_) if !four_d => return Epilogue::Fused { pool, folded },
            _ => break,
        }
    }
    Epilogue::Float
}

/// A quantized view of a trained model, ready to execute with any
/// [`GemmEngine`]: the model's frozen execution plan.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    model: Model,
    /// One plan per compute layer, in model order.
    plans: Vec<LayerPlan>,
    activation_scheme: QuantScheme,
}

impl QuantizedModel {
    /// Calibrates a trained model on a batch of representative inputs: the
    /// paper's "quick statistics gathering run" (averaged min/max per layer).
    /// Each compute layer's weights and activation scale are quantized and
    /// fixed here, once, and so is which float layers its epilogue absorbs.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors; fails on models without compute
    /// layers.
    pub fn calibrate(model: &Model, calibration_inputs: &[Tensor<f32>]) -> Result<Self, NnError> {
        if model.compute_layer_count() == 0 {
            return Err(NnError::InvalidConfig(
                "model has no conv/linear layers to quantize".into(),
            ));
        }
        if calibration_inputs.is_empty() {
            return Err(NnError::InvalidConfig("no calibration inputs".into()));
        }
        let mut observers: Vec<MinMaxObserver> =
            vec![MinMaxObserver::new(); model.compute_layer_count()];
        for input in calibration_inputs {
            let (layer_inputs, _) = model.forward_collect(input)?;
            let mut compute_idx = 0usize;
            for (layer, layer_input) in model.layers().iter().zip(layer_inputs.iter()) {
                if layer.is_compute_layer() {
                    observers[compute_idx].observe(layer_input.as_slice());
                    compute_idx += 1;
                }
            }
        }
        let activation_scheme = QuantScheme::activation_a8();
        let weight_scheme = QuantScheme::weight_w8();
        let layers = model.layers();
        let compute_layers = (0..layers.len()).filter(|&i| layers[i].is_compute_layer());
        let plans = observers
            .iter()
            .zip(compute_layers)
            .map(|(observer, i)| {
                let (lo, hi) = observer.averaged_range();
                let (wmat, conv) = match &layers[i] {
                    Layer::Conv2d(conv) => (
                        ops::filters_to_matrix(&conv.weight, &conv.params, 0)?,
                        Some(conv.params),
                    ),
                    Layer::Linear(lin) => (lin.weight.clone(), None),
                    _ => unreachable!("is_compute_layer guarantees conv or linear"),
                };
                Ok(LayerPlan {
                    input_scale: activation_scheme.scale_for_range(lo, hi),
                    weights: quantize_weights(&wmat.try_into()?, &weight_scheme),
                    conv,
                    epilogue: epilogue(&layers[i..]),
                })
            })
            .collect::<Result<_, NnError>>()?;
        Ok(QuantizedModel {
            model: model.clone(),
            plans,
            activation_scheme,
        })
    }

    /// The underlying floating-point model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Number of quantized compute layers.
    pub fn compute_layer_count(&self) -> usize {
        self.plans.len()
    }

    /// The weights of compute layer `index` (0-based over compute layers) in
    /// the GEMM layout, as quantized at calibration, returned as
    /// `(weights, conv_geometry)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the index is out of range.
    pub fn quantized_weights(
        &self,
        index: usize,
    ) -> Result<(QuantWeightMatrix, Option<Conv2dParams>), NnError> {
        let plan = self.plans.get(index).ok_or_else(|| {
            NnError::InvalidConfig(format!("compute layer index {index} out of range"))
        })?;
        Ok((plan.weights.clone(), plan.conv))
    }

    /// Executes the quantized model on a batch of inputs with the given GEMM
    /// engine, returning the output logits.
    ///
    /// The request batch is quantized once, into the first layer's
    /// zero-padded u8 input. From there each quantized layer lowers its u8
    /// input, hands the GEMM to the engine together with `ctx` (so the
    /// backend and worker pool are decided once per run rather than per
    /// engine), and runs its epilogue on the engine's dequantized rows:
    /// when only ReLU, one 2×2 max-pool and flattening stand between it and
    /// the next quantized layer, the epilogue adds the bias, pools and
    /// quantizes at the next layer's frozen scale straight into that layer's
    /// u8 input. Otherwise (a grouped conv or the logits come next, or two
    /// pools stand in between) it writes f32 with the bias added, and the
    /// layers that follow run in floating point, as the paper's PyTorch
    /// simulation runs them. The logits are bit-identical to running every ReLU, pool
    /// and flatten in float between quantizing GEMMs (see the module
    /// documentation), and identical for every context configuration.
    ///
    /// # Errors
    ///
    /// Propagates layer and engine errors.
    pub fn forward_with_ctx<E: GemmEngine>(
        &self,
        ctx: &ExecContext,
        input: &Tensor<f32>,
        engine: &mut E,
    ) -> Result<Tensor<f32>, NnError> {
        let q_max = self.activation_scheme.q_max();
        let layers = self.model.layers();
        let mut x = Cow::Borrowed(input);
        // The next compute layer's u8 input, when an epilogue wrote it.
        let mut frame = None;
        let mut compute_idx = 0usize;
        let mut next = 0usize;
        while let Some(layer) = layers.get(next) {
            next += 1;
            let bias = match layer {
                Layer::Conv2d(conv) if conv.params.groups == 1 => &conv.bias,
                Layer::Linear(lin) => &lin.bias,
                // Depthwise/grouped convolutions are executed in float; the
                // paper likewise runs MobileNet's depthwise convolutions at
                // one thread.
                Layer::Conv2d(conv) => {
                    x = Cow::Owned(conv.forward(&x)?);
                    compute_idx += 1;
                    continue;
                }
                other => {
                    x = Cow::Owned(forward_layer(other, &x)?);
                    continue;
                }
            };
            let plan = &self.plans[compute_idx];
            let input = match frame.take() {
                Some(frame) => frame,
                None => plan.quantize_input(&x, q_max)?,
            };
            let (qx, [n, oh, ow]) = plan.lower(input)?;
            let gemm = engine.gemm(ctx, compute_idx, &qx, &plan.weights)?;
            let oc = plan.weights.cols();
            let expected = n * oh * ow * oc;
            if gemm.as_slice().len() != expected {
                return Err(TensorError::ShapeDataMismatch {
                    expected,
                    actual: gemm.as_slice().len(),
                }
                .into());
            }
            let out = GemmRows {
                rows: gemm.as_slice(),
                bias,
                dims: [n, oc, oh, ow],
            };
            compute_idx += 1;
            match plan.epilogue {
                Epilogue::Fused { pool, folded } => {
                    frame = Some(self.plans[compute_idx].quantize_rows(&out, pool, q_max));
                    next += folded;
                }
                Epilogue::Float => {
                    let dims: &[usize] = match plan.conv {
                        Some(_) => &out.dims,
                        None => &out.dims[..2],
                    };
                    x = Cow::Owned(Tensor::from_vec(out.to_float(), dims)?);
                }
            }
        }
        Ok(x.into_owned())
    }

    /// Classification accuracy of the quantized model under the given engine,
    /// on an explicit execution context.
    ///
    /// # Errors
    ///
    /// Propagates layer and engine errors.
    pub fn accuracy_with_ctx<E: GemmEngine>(
        &self,
        ctx: &ExecContext,
        images: &Tensor<f32>,
        labels: &[usize],
        engine: &mut E,
    ) -> Result<f64, NnError> {
        let logits = self.forward_with_ctx(ctx, images, engine)?;
        let preds = Model::argmax(&logits);
        if labels.is_empty() {
            return Ok(0.0);
        }
        Ok(preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count() as f64
            / labels.len() as f64)
    }

    /// Collects the quantized `(X, W)` GEMM operands of every compute layer
    /// for one input batch. This is the layer-trace interface used by the
    /// per-layer MSE and utilization experiments (Figs. 8 and 9). Each
    /// layer's float input is quantized into its u8 frame and lowered
    /// exactly as the forward pass lowers it (group 0 of a grouped conv),
    /// and the weights are the ones fixed at calibration.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn layer_traces(
        &self,
        input: &Tensor<f32>,
    ) -> Result<Vec<(QuantMatrix, QuantWeightMatrix)>, NnError> {
        let q_max = self.activation_scheme.q_max();
        let mut traces = Vec::with_capacity(self.plans.len());
        let mut x = input.clone();
        let mut plans = self.plans.iter();
        for layer in self.model.layers() {
            if layer.is_compute_layer() {
                let plan = plans.next().expect("one plan per compute layer");
                let (qx, _) = plan.lower(plan.quantize_input(&x, q_max)?)?;
                traces.push((qx, plan.weights.clone()));
            }
            x = forward_layer(layer, &x)?;
        }
        Ok(traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Flatten, Linear, MaxPool2, Relu};
    use nbsmt_quant::quantize::quantize_activations;
    use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer};

    fn small_model(seed: u64) -> Model {
        let mut synth = TensorSynthesizer::new(seed);
        let mut m = Model::new("quant-test");
        m.push(Layer::Conv2d(Conv2d::new(
            Conv2dParams::new(1, 4, 3, 1, 1),
            &mut synth,
        )))
        .push(Layer::Relu(Relu))
        .push(Layer::MaxPool2(MaxPool2))
        .push(Layer::Flatten(Flatten))
        .push(Layer::Linear(Linear::new(4 * 4 * 4, 3, &mut synth)));
        m
    }

    fn inputs(seed: u64, n: usize) -> Tensor<f32> {
        let mut synth = TensorSynthesizer::new(seed);
        synth.tensor(&SynthesisConfig::activation(1.0, 0.3), &[n, 1, 8, 8])
    }

    #[test]
    fn calibration_requires_compute_layers_and_inputs() {
        let m = small_model(1);
        assert!(QuantizedModel::calibrate(&m, &[]).is_err());
        let empty = Model::new("empty");
        assert!(QuantizedModel::calibrate(&empty, &[inputs(2, 1)]).is_err());
        let q = QuantizedModel::calibrate(&m, &[inputs(2, 4)]).unwrap();
        assert_eq!(q.compute_layer_count(), 2);
    }

    #[test]
    fn reference_engine_tracks_float_model_closely() {
        let ctx = ExecContext::sequential();
        let m = small_model(3);
        let calib = inputs(4, 8);
        let q = QuantizedModel::calibrate(&m, &[calib]).unwrap();
        let test = inputs(5, 6);
        let float_out = m.forward(&test).unwrap();
        let quant_out = q
            .forward_with_ctx(&ctx, &test, &mut ReferenceEngine)
            .unwrap();
        assert_eq!(float_out.shape().dims(), quant_out.shape().dims());
        // 8-bit quantization error should be small relative to the logits:
        // bounded worst case, and small on average.
        let mut max_rel = 0.0_f32;
        let mut mean_rel = 0.0_f32;
        for (a, b) in quant_out.as_slice().iter().zip(float_out.as_slice()) {
            let rel = (a - b).abs() / (b.abs() + 1.0);
            max_rel = max_rel.max(rel);
            mean_rel += rel;
        }
        mean_rel /= quant_out.numel() as f32;
        assert!(max_rel < 0.5, "max relative deviation {max_rel}");
        assert!(mean_rel < 0.1, "mean relative deviation {mean_rel}");
    }

    #[test]
    fn argmax_agreement_between_float_and_quantized() {
        let ctx = ExecContext::sequential();
        let m = small_model(7);
        let q = QuantizedModel::calibrate(&m, &[inputs(8, 8)]).unwrap();
        let test = inputs(9, 16);
        let float_preds = Model::argmax(&m.forward(&test).unwrap());
        let quant_preds = Model::argmax(
            &q.forward_with_ctx(&ctx, &test, &mut ReferenceEngine)
                .unwrap(),
        );
        let agree = float_preds
            .iter()
            .zip(quant_preds.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            agree as f64 / float_preds.len() as f64 >= 0.8,
            "only {agree}/{} predictions agree",
            float_preds.len()
        );
    }

    #[test]
    fn reduced_precision_engine_degrades_gracefully() {
        let ctx = ExecContext::sequential();
        let m = small_model(11);
        let q = QuantizedModel::calibrate(&m, &[inputs(12, 8)]).unwrap();
        let test = inputs(13, 8);
        let baseline = q
            .forward_with_ctx(&ctx, &test, &mut ReferenceEngine)
            .unwrap();
        let mut a4 = ReducedPrecisionEngine {
            point: OperatingPoint::A4W8,
        };
        let reduced = q.forward_with_ctx(&ctx, &test, &mut a4).unwrap();
        // Outputs differ (precision was reduced) but stay in the same ballpark.
        let mut total_dev = 0.0_f64;
        for (a, b) in reduced.as_slice().iter().zip(baseline.as_slice()) {
            total_dev += (a - b).abs() as f64;
        }
        assert!(total_dev > 0.0, "A4W8 must differ from A8W8");
        let mean_dev = total_dev / baseline.numel() as f64;
        let mean_mag = baseline
            .as_slice()
            .iter()
            .map(|v| v.abs() as f64)
            .sum::<f64>()
            / baseline.numel() as f64;
        assert!(mean_dev < mean_mag, "A4W8 deviation should stay bounded");
    }

    #[test]
    fn a4w4_is_noisier_than_a4w8() {
        let ctx = ExecContext::sequential();
        let m = small_model(17);
        let q = QuantizedModel::calibrate(&m, &[inputs(18, 8)]).unwrap();
        let test = inputs(19, 8);
        let baseline = q
            .forward_with_ctx(&ctx, &test, &mut ReferenceEngine)
            .unwrap();
        let dev = |point: OperatingPoint| {
            let mut engine = ReducedPrecisionEngine { point };
            let out = q.forward_with_ctx(&ctx, &test, &mut engine).unwrap();
            out.as_slice()
                .iter()
                .zip(baseline.as_slice())
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
        };
        let a4w8 = dev(OperatingPoint::A4W8);
        let a4w4 = dev(OperatingPoint::A4W4);
        assert!(
            a4w4 >= a4w8,
            "A4W4 ({a4w4}) should be at least as noisy as A4W8 ({a4w8})"
        );
    }

    #[test]
    fn layer_traces_expose_every_compute_layer() {
        let m = small_model(23);
        let q = QuantizedModel::calibrate(&m, &[inputs(24, 4)]).unwrap();
        let traces = q.layer_traces(&inputs(25, 2)).unwrap();
        assert_eq!(traces.len(), 2);
        // Conv trace: rows = N*OH*OW = 2*8*8, cols = C*K*K = 9.
        assert_eq!(traces[0].0.rows(), 2 * 8 * 8);
        assert_eq!(traces[0].0.cols(), 9);
        assert_eq!(traces[0].1.rows(), 9);
        assert_eq!(traces[0].1.cols(), 4);
        // Linear trace: rows = N, cols = 64.
        assert_eq!(traces[1].0.rows(), 2);
        assert_eq!(traces[1].0.cols(), 64);
    }

    #[test]
    fn quantized_weights_accessor() {
        let m = small_model(29);
        let q = QuantizedModel::calibrate(&m, &[inputs(30, 4)]).unwrap();
        let (w0, conv_params) = q.quantized_weights(0).unwrap();
        assert_eq!(w0.cols(), 4);
        assert!(conv_params.is_some());
        let (w1, none) = q.quantized_weights(1).unwrap();
        assert_eq!(w1.cols(), 3);
        assert!(none.is_none());
        assert!(q.quantized_weights(2).is_err());
        // The weights stored at calibration are the ones a fresh
        // quantization of the float model gives.
        let scheme = QuantScheme::weight_w8();
        let Layer::Conv2d(conv) = &m.layers()[0] else {
            panic!("layer 0 is the conv layer");
        };
        let wmat = ops::filters_to_matrix(&conv.weight, &conv.params, 0).unwrap();
        assert_eq!(w0, quantize_weights(&wmat.try_into().unwrap(), &scheme));
        let Layer::Linear(lin) = &m.layers()[4] else {
            panic!("layer 4 is the linear layer");
        };
        assert_eq!(
            w1,
            quantize_weights(&lin.weight.clone().try_into().unwrap(), &scheme)
        );
    }

    /// Models spanning kernels 1/3/5, strides 1/2, padding 0/1/2 and input
    /// channels 1/2/3/8, each ending in a linear layer; the second keeps a
    /// grouped (depthwise) conv, which runs in float. The last three pool:
    /// SynthNet's shape, a pool before its ReLU, and odd pre-pool maps
    /// (11×11 and 5×5, so the pool drops the last row and column), the last
    /// pooled twice in a row, which its epilogue does not absorb. Every
    /// bias is nonzero and differs per channel. Returns each model with its
    /// per-sample input dims.
    fn lowering_models() -> Vec<(Model, [usize; 3])> {
        let mut synth = TensorSynthesizer::new(41);
        let mut conv = |params: Conv2dParams| Layer::Conv2d(Conv2d::new(params, &mut synth));
        let mut a = Model::new("k3-k5");
        a.push(conv(Conv2dParams::new(1, 8, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::new(8, 6, 5, 2, 2)))
            .push(Layer::Relu(Relu))
            .push(Layer::Flatten(Flatten));
        let mut b = Model::new("k1-k3-depthwise");
        b.push(conv(Conv2dParams::new(3, 8, 1, 1, 0)))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::new(8, 4, 3, 2, 0)))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::depthwise(4, 3, 1, 1)))
            .push(Layer::Flatten(Flatten));
        let mut c = Model::new("k5-k1-k3");
        c.push(conv(Conv2dParams::new(8, 4, 5, 1, 0)))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::new(4, 3, 1, 2, 1)))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::new(3, 2, 3, 2, 2)))
            .push(Layer::Flatten(Flatten));
        // Flattened feature counts: 6·5·5, 4·3·3 and 2·3·3.
        a.push(Layer::Linear(Linear::new(150, 3, &mut synth)));
        b.push(Layer::Linear(Linear::new(36, 5, &mut synth)));
        c.push(Layer::Linear(Linear::new(18, 2, &mut synth)));
        let mut conv = |params: Conv2dParams| Layer::Conv2d(Conv2d::new(params, &mut synth));
        let mut d = Model::new("synthnet-shape");
        d.push(conv(Conv2dParams::new(1, 4, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::MaxPool2(MaxPool2))
            .push(conv(Conv2dParams::new(4, 6, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::MaxPool2(MaxPool2))
            .push(conv(Conv2dParams::new(6, 5, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::Flatten(Flatten));
        let mut e = Model::new("pool-before-relu");
        e.push(conv(Conv2dParams::new(3, 5, 3, 1, 1)))
            .push(Layer::MaxPool2(MaxPool2))
            .push(Layer::Relu(Relu))
            .push(conv(Conv2dParams::new(5, 4, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::Flatten(Flatten));
        let mut f = Model::new("odd-pool");
        f.push(conv(Conv2dParams::new(2, 4, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::MaxPool2(MaxPool2))
            .push(conv(Conv2dParams::new(4, 3, 3, 1, 1)))
            .push(Layer::Relu(Relu))
            .push(Layer::MaxPool2(MaxPool2))
            .push(Layer::MaxPool2(MaxPool2))
            .push(Layer::Flatten(Flatten));
        // Flattened feature counts: 5·2·2, 4·3·3 and 3·1·1.
        d.push(Layer::Linear(Linear::new(20, 3, &mut synth)));
        e.push(Layer::Linear(Linear::new(36, 4, &mut synth)));
        f.push(Layer::Linear(Linear::new(3, 2, &mut synth)));
        let mut models = vec![
            (a, [1, 9, 9]),
            (b, [3, 8, 8]),
            (c, [8, 7, 7]),
            (d, [1, 8, 8]),
            (e, [3, 6, 6]),
            (f, [2, 11, 11]),
        ];
        for (m, _) in &mut models {
            for layer in m.layers_mut() {
                let bias = match layer {
                    Layer::Conv2d(conv) => &mut conv.bias,
                    Layer::Linear(lin) => &mut lin.bias,
                    _ => continue,
                };
                for (i, b) in bias.iter_mut().enumerate() {
                    *b = 0.07 * i as f32 - 0.1;
                }
            }
        }
        models
    }

    /// The calibrated activation range of every compute layer, gathered as
    /// `calibrate` gathers it.
    fn calibrated_ranges(m: &Model, calib: &Tensor<f32>) -> Vec<(f32, f32)> {
        let (layer_inputs, _) = m.forward_collect(calib).unwrap();
        m.layers()
            .iter()
            .zip(&layer_inputs)
            .filter(|(layer, _)| layer.is_compute_layer())
            .map(|(_, input)| {
                let mut observer = MinMaxObserver::new();
                observer.observe(input.as_slice());
                observer.averaged_range()
            })
            .collect()
    }

    /// One compute layer's operands built straight from the float model:
    /// lower in f32, quantize the im2col matrix, and quantize freshly
    /// derived weights.
    fn oracle_operands(
        layer: &Layer,
        x: &Tensor<f32>,
        range: (f32, f32),
    ) -> (QuantMatrix, QuantWeightMatrix) {
        let (cols, wmat) = match layer {
            Layer::Conv2d(conv) => (
                ops::im2col(x, &conv.params, 0).unwrap(),
                ops::filters_to_matrix(&conv.weight, &conv.params, 0).unwrap(),
            ),
            Layer::Linear(lin) => (x.clone(), lin.weight.clone()),
            _ => unreachable!("compute layers only"),
        };
        let a8 = QuantScheme::activation_a8();
        (
            quantize_activations(&cols.try_into().unwrap(), &a8, Some(range)),
            quantize_weights(&wmat.try_into().unwrap(), &QuantScheme::weight_w8()),
        )
    }

    /// The quantized forward pass built from the oracle operands: `engine`'s
    /// GEMM ([`SeedKernel`] for the error-free one), a bias pass, then
    /// `ops::col2im` for conv layers; grouped convs, ReLU, pooling and
    /// flattening in float.
    fn oracle_forward(
        m: &Model,
        ranges: &[(f32, f32)],
        input: &Tensor<f32>,
        engine: &mut dyn GemmEngine,
    ) -> Tensor<f32> {
        let mut x = input.clone();
        let mut compute_idx = 0usize;
        for layer in m.layers() {
            x = match layer {
                Layer::Conv2d(conv) if conv.params.groups != 1 => {
                    compute_idx += 1;
                    conv.forward(&x).unwrap()
                }
                Layer::Conv2d(_) | Layer::Linear(_) => {
                    let (qx, qw) = oracle_operands(layer, &x, ranges[compute_idx]);
                    let ctx = ExecContext::sequential();
                    let y = engine.gemm(&ctx, compute_idx, &qx, &qw).unwrap();
                    compute_idx += 1;
                    let (rows, oc) = (qx.rows(), qw.cols());
                    let bias = match layer {
                        Layer::Conv2d(conv) => &conv.bias,
                        Layer::Linear(lin) => &lin.bias,
                        _ => unreachable!(),
                    };
                    let biased = y
                        .as_slice()
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| v + bias[i % oc])
                        .collect();
                    let y = Tensor::from_vec(biased, &[rows, oc]).unwrap();
                    match layer {
                        Layer::Conv2d(conv) => {
                            let dims = x.shape().dims();
                            let (oh, ow) = (
                                conv.params.output_size(dims[2]),
                                conv.params.output_size(dims[3]),
                            );
                            ops::col2im(&y, dims[0], oc, oh, ow).unwrap()
                        }
                        _ => y,
                    }
                }
                other => forward_layer(other, &x).unwrap(),
            };
        }
        x
    }

    fn bits(t: &Tensor<f32>) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn frozen_plan_matches_the_float_lowering_oracle() {
        for (seed, (m, [c, h, w])) in (50u64..).zip(lowering_models()) {
            let mut synth = TensorSynthesizer::new(seed);
            let config = SynthesisConfig::activation(1.0, 0.3);
            let calib = synth.tensor(&config, &[6, c, h, w]);
            let test = synth.tensor(&config, &[3, c, h, w]);
            let q = QuantizedModel::calibrate(&m, std::slice::from_ref(&calib)).unwrap();
            let ranges = calibrated_ranges(&m, &calib);

            // Operands: layer_traces walks the float model, so the oracle
            // lowers each compute layer's float input.
            let (layer_inputs, _) = m.forward_collect(&test).unwrap();
            let expected: Vec<_> = m
                .layers()
                .iter()
                .zip(&layer_inputs)
                .filter(|(layer, _)| layer.is_compute_layer())
                .zip(&ranges)
                .map(|((layer, x), &range)| oracle_operands(layer, x, range))
                .collect();
            let traces = q.layer_traces(&test).unwrap();
            assert_eq!(traces.len(), expected.len(), "{}", m.name);
            for (i, (got, want)) in traces.iter().zip(&expected).enumerate() {
                assert_eq!(got.0, want.0, "{} layer {i} activations", m.name);
                assert_eq!(got.1, want.1, "{} layer {i} weights", m.name);
                assert_eq!(got.1, q.quantized_weights(i).unwrap().0);
            }

            // Logits: the error-free engine against the seed kernel, and a
            // lossy engine against itself.
            let want = oracle_forward(&m, &ranges, &test, &mut SeedKernel);
            assert_logits_match(&q, &test, &mut ReferenceEngine, &want, &m.name);
            let mut a4w4 = ReducedPrecisionEngine {
                point: OperatingPoint::A4W4,
            };
            let want = oracle_forward(&m, &ranges, &test, &mut a4w4);
            assert_logits_match(&q, &test, &mut a4w4, &want, &m.name);
        }
    }

    /// The seed integer kernel and an element-wise dequantization: the
    /// oracle's error-free GEMM, independent of `quantized_matmul_with`.
    struct SeedKernel;

    impl GemmEngine for SeedKernel {
        fn gemm(
            &mut self,
            _ctx: &ExecContext,
            _layer_index: usize,
            x: &QuantMatrix,
            w: &QuantWeightMatrix,
        ) -> Result<Matrix<f32>, NnError> {
            let (rows, k, oc) = (x.rows(), x.cols(), w.cols());
            let mut acc = vec![0_i64; rows * oc];
            let (a, b) = (x.values().as_slice(), w.values().as_slice());
            ExecContext::sequential().gemm_u8i8(rows, k, oc, a, b, &mut acc);
            let dequantized = acc
                .iter()
                .enumerate()
                .map(|(i, &v)| v as f32 * x.scale() * w.scale(i % oc))
                .collect();
            Ok(Matrix::from_vec(dequantized, rows, oc)?)
        }
    }

    /// Asserts that `q`'s logits under `engine`, on the sequential context
    /// and the default one, equal `want` bit for bit.
    fn assert_logits_match<E: GemmEngine>(
        q: &QuantizedModel,
        test: &Tensor<f32>,
        engine: &mut E,
        want: &Tensor<f32>,
        name: &str,
    ) {
        for ctx in [ExecContext::sequential(), ExecContext::default()] {
            let got = q.forward_with_ctx(&ctx, test, engine).unwrap();
            assert_eq!(
                bits(&got),
                bits(want),
                "{name} logits on {:?}",
                ctx.config()
            );
        }
    }

    #[test]
    fn epilogues_absorb_the_float_layers_between_quantized_layers() {
        let fused = |pool, folded| Epilogue::Fused { pool, folded };
        let want = [
            vec![fused(false, 1), fused(false, 2), Epilogue::Float],
            // The run into the depthwise conv stays in float.
            vec![
                fused(false, 1),
                Epilogue::Float,
                Epilogue::Float,
                Epilogue::Float,
            ],
            vec![
                fused(false, 1),
                fused(false, 1),
                fused(false, 1),
                Epilogue::Float,
            ],
            vec![
                fused(true, 2),
                fused(true, 2),
                fused(false, 2),
                Epilogue::Float,
            ],
            vec![fused(true, 2), fused(false, 2), Epilogue::Float],
            // Two pools in one run: the second run stays in float.
            vec![fused(true, 2), Epilogue::Float, Epilogue::Float],
        ];
        for ((m, _), want) in lowering_models().iter().zip(want) {
            let layers = m.layers();
            let got: Vec<_> = (0..layers.len())
                .filter(|&i| layers[i].is_compute_layer())
                .map(|i| epilogue(&layers[i..]))
                .collect();
            assert_eq!(got, want, "{}", m.name);
        }
    }

    #[test]
    fn accuracy_with_engine_runs() {
        let ctx = ExecContext::sequential();
        let m = small_model(31);
        let q = QuantizedModel::calibrate(&m, &[inputs(32, 4)]).unwrap();
        let test = inputs(33, 5);
        let acc = q
            .accuracy_with_ctx(&ctx, &test, &[0, 1, 2, 0, 1], &mut ReferenceEngine)
            .unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(
            q.accuracy_with_ctx(&ctx, &test, &[], &mut ReferenceEngine)
                .unwrap(),
            0.0
        );
    }
}
