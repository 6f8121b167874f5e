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
use crate::layers::{Conv2d, Linear};
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
    /// fixed here, once.
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
        let compute_layers = model.layers().iter().filter(|l| l.is_compute_layer());
        let plans = observers
            .iter()
            .zip(compute_layers)
            .map(|(observer, layer)| {
                let (lo, hi) = observer.averaged_range();
                let (wmat, conv) = match layer {
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
    /// Non-compute layers (ReLU, pooling, flatten) run in floating
    /// point between the quantized GEMMs, exactly as the paper's PyTorch
    /// simulation does. Every layer's GEMM is handed to the engine together
    /// with `ctx`, so the backend and worker pool are decided once per run
    /// rather than per engine. Results are identical for every context
    /// configuration.
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
        let mut x = input.clone();
        let mut compute_idx = 0usize;
        for layer in self.model.layers() {
            match layer {
                Layer::Conv2d(conv) => {
                    x = self.run_conv(ctx, conv, &x, compute_idx, engine)?;
                    compute_idx += 1;
                }
                Layer::Linear(lin) => {
                    x = self.run_linear(ctx, lin, &x, compute_idx, engine)?;
                    compute_idx += 1;
                }
                other => {
                    x = forward_layer(other, &x)?;
                }
            }
        }
        Ok(x)
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
    /// per-layer MSE and utilization experiments (Figs. 8 and 9). The
    /// activations are lowered exactly as the forward pass lowers them, and
    /// the weights are the ones fixed at calibration.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn layer_traces(
        &self,
        input: &Tensor<f32>,
    ) -> Result<Vec<(QuantMatrix, QuantWeightMatrix)>, NnError> {
        let mut traces = Vec::new();
        let mut x = input.clone();
        let mut compute_idx = 0usize;
        for layer in self.model.layers() {
            match layer {
                Layer::Conv2d(conv) => {
                    let plan = &self.plans[compute_idx];
                    let qx = self.conv_activations(conv, plan.input_scale, &x)?;
                    traces.push((qx, plan.weights.clone()));
                    x = conv.forward(&x)?;
                    compute_idx += 1;
                }
                Layer::Linear(lin) => {
                    let plan = &self.plans[compute_idx];
                    let qx = self.linear_activations(plan.input_scale, &x)?;
                    traces.push((qx, plan.weights.clone()));
                    x = lin.forward(&x)?;
                    compute_idx += 1;
                }
                other => {
                    x = forward_layer(other, &x)?;
                }
            }
        }
        Ok(traces)
    }

    /// Quantizes every element of `input` at `scale` with the shared
    /// per-element rule.
    fn quantize_input(&self, input: &Tensor<f32>, scale: f32) -> Tensor<u8> {
        let q_max = self.activation_scheme.q_max();
        input.map(|&v| quantize_activation(v, scale, q_max))
    }

    /// A conv layer's GEMM activations: the NCHW input quantized once, then
    /// lowered (group 0) as bytes. Quantization is element-wise and maps the
    /// padding value 0.0 to 0, so this equals lowering in f32 and then
    /// quantizing the im2col matrix, with each input element quantized once
    /// instead of once per kernel window that covers it.
    fn conv_activations(
        &self,
        conv: &Conv2d,
        scale: f32,
        input: &Tensor<f32>,
    ) -> Result<QuantMatrix, NnError> {
        let cols = ops::im2col(&self.quantize_input(input, scale), &conv.params, 0)?;
        Ok(QuantMatrix::new(cols.try_into()?, scale))
    }

    /// A linear layer's GEMM activations: the `[N, F]` input quantized
    /// directly.
    fn linear_activations(&self, scale: f32, input: &Tensor<f32>) -> Result<QuantMatrix, NnError> {
        Ok(QuantMatrix::new(
            self.quantize_input(input, scale).try_into()?,
            scale,
        ))
    }

    fn run_conv<E: GemmEngine>(
        &self,
        ctx: &ExecContext,
        conv: &Conv2d,
        input: &Tensor<f32>,
        compute_idx: usize,
        engine: &mut E,
    ) -> Result<Tensor<f32>, NnError> {
        if conv.params.groups != 1 {
            // Depthwise/grouped convolutions are executed in float; the paper
            // likewise runs MobileNet's depthwise convolutions at one thread.
            return conv.forward(input);
        }
        let plan = &self.plans[compute_idx];
        let qx = self.conv_activations(conv, plan.input_scale, input)?;
        let gemm = engine.gemm(ctx, compute_idx, &qx, &plan.weights)?;
        let dims = input.shape().dims();
        let (n, h, w) = (dims[0], dims[2], dims[3]);
        let (oc, oh, ow) = (
            conv.params.out_channels,
            conv.params.output_size(h),
            conv.params.output_size(w),
        );
        let plane = oh * ow;
        let expected = n * plane * oc;
        if gemm.as_slice().len() != expected {
            return Err(TensorError::ShapeDataMismatch {
                expected,
                actual: gemm.as_slice().len(),
            }
            .into());
        }
        // One pass: add each output channel's bias while scattering the
        // `[N*OH*OW, OC]` GEMM rows into NCHW (the same float additions as
        // a bias pass followed by `ops::col2im`).
        let src = gemm.as_slice();
        let mut out = vec![0.0_f32; expected];
        for img in 0..n {
            for pix in 0..plane {
                let row = &src[(img * plane + pix) * oc..][..oc];
                for (o, (&v, &b)) in row.iter().zip(&conv.bias).enumerate() {
                    out[(img * oc + o) * plane + pix] = v + b;
                }
            }
        }
        Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
    }

    fn run_linear<E: GemmEngine>(
        &self,
        ctx: &ExecContext,
        lin: &Linear,
        input: &Tensor<f32>,
        compute_idx: usize,
        engine: &mut E,
    ) -> Result<Tensor<f32>, NnError> {
        let plan = &self.plans[compute_idx];
        let qx = self.linear_activations(plan.input_scale, input)?;
        let gemm = engine.gemm(ctx, compute_idx, &qx, &plan.weights)?;
        let mut out: Tensor<f32> = gemm.into();
        let s = out.as_mut_slice();
        let n = input.shape().dim(0);
        for r in 0..n {
            for c in 0..lin.out_features {
                s[r * lin.out_features + c] += lin.bias[c];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, MaxPool2, Relu};
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
    /// channels 1/3/8, each ending in a linear layer; the second keeps a
    /// grouped (depthwise) conv, which runs in float. Every bias is nonzero
    /// and differs per channel. Returns each model with its per-sample
    /// input dims.
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
        let mut models = vec![(a, [1, 9, 9]), (b, [3, 8, 8]), (c, [8, 7, 7])];
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

    /// The quantized forward pass built from the oracle operands: the seed
    /// integer kernel, an element-wise dequantization, a bias pass, then
    /// `ops::col2im` for conv layers; grouped convs in float.
    fn oracle_forward(m: &Model, ranges: &[(f32, f32)], input: &Tensor<f32>) -> Tensor<f32> {
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
                    compute_idx += 1;
                    let (rows, k, oc) = (qx.rows(), qx.cols(), qw.cols());
                    let mut acc = vec![0_i64; rows * oc];
                    let (a, b) = (qx.values().as_slice(), qw.values().as_slice());
                    ExecContext::sequential().gemm_u8i8(rows, k, oc, a, b, &mut acc);
                    let bias = match layer {
                        Layer::Conv2d(conv) => &conv.bias,
                        Layer::Linear(lin) => &lin.bias,
                        _ => unreachable!(),
                    };
                    let dequantized = acc
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| v as f32 * qx.scale() * qw.scale(i % oc) + bias[i % oc])
                        .collect();
                    let y = Tensor::from_vec(dequantized, &[rows, oc]).unwrap();
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

            // Logits, on the sequential context and the default one.
            let want = bits(&oracle_forward(&m, &ranges, &test));
            for ctx in [ExecContext::sequential(), ExecContext::default()] {
                let got = q
                    .forward_with_ctx(&ctx, &test, &mut ReferenceEngine)
                    .unwrap();
                assert_eq!(bits(&got), want, "{} logits on {:?}", m.name, ctx.config());
            }
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
