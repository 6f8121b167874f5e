//! Layers: convolution, linear, activation, max pooling, flattening.
//!
//! Every layer provides a forward pass on 4-D activation tensors
//! (`[N, C, H, W]`) or flattened feature tensors (`[N, F]`), and the layers
//! with parameters also provide a backward pass so the small synthetic models
//! can be trained from scratch (the paper's pruning experiments retrain the
//! model after every pruning increment).

use serde::{Deserialize, Serialize};

use nbsmt_tensor::ops::{self, Conv2dParams};
use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer, ValueDistribution};
use nbsmt_tensor::tensor::Tensor;

use crate::error::NnError;

/// A 2-D convolution layer (dense or depthwise via groups).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    /// Convolution geometry.
    pub params: Conv2dParams,
    /// Filter weights `[OC, C/groups, K, K]`.
    pub weight: Tensor<f32>,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-style random initialization.
    pub fn new(params: Conv2dParams, synth: &mut TensorSynthesizer) -> Self {
        let fan_in = (params.in_channels / params.groups * params.kernel * params.kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = synth.tensor(
            &SynthesisConfig {
                distribution: ValueDistribution::Gaussian { mean: 0.0, std },
                sparsity: 0.0,
                relu: false,
            },
            &[
                params.out_channels,
                params.in_channels / params.groups,
                params.kernel,
                params.kernel,
            ],
        );
        Conv2d {
            params,
            weight,
            bias: vec![0.0; params.out_channels],
        }
    }

    /// Number of MAC operations for an input of spatial size `h × w`.
    pub fn mac_ops(&self, h: usize, w: usize) -> u64 {
        self.params.mac_ops(h, w)
    }

    /// Forward pass over a `[N, C, H, W]` input.
    ///
    /// # Errors
    ///
    /// Returns an error when the input rank or channel count does not match.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::ShapeMismatch {
                layer: "conv2d".into(),
                detail: format!("expected rank-4 input, got {dims:?}"),
            });
        }
        let (n, _c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let oh = self.params.output_size(h);
        let ow = self.params.output_size(w);
        let groups = self.params.groups;
        let ocg = self.params.out_channels / groups;
        let mut out = Tensor::<f32>::zeros(&[n, self.params.out_channels, oh, ow]);
        for g in 0..groups {
            let cols = ops::im2col(input, &self.params, g)?;
            let wmat = ops::filters_to_matrix(&self.weight, &self.params, g)?;
            let gemm = ops::matmul(&cols, &wmat)?;
            let folded = ops::col2im(&gemm, n, ocg, oh, ow)?;
            // Copy the group's output channels into place and add bias.
            let src = folded.as_slice();
            let dst = out.as_mut_slice();
            for img in 0..n {
                for o in 0..ocg {
                    let oc = g * ocg + o;
                    let b = self.bias[oc];
                    for p in 0..oh * ow {
                        dst[((img * self.params.out_channels + oc) * oh * ow) + p] =
                            src[((img * ocg + o) * oh * ow) + p] + b;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Backward pass (dense, groups = 1 only): given the upstream gradient
    /// `[N, OC, OH, OW]` and the saved input, computes the input gradient and
    /// accumulates weight/bias gradients.
    ///
    /// # Errors
    ///
    /// Returns an error for grouped convolutions (the trainable synthetic
    /// models only use dense convolutions) or mismatched shapes.
    pub fn backward(
        &self,
        input: &Tensor<f32>,
        grad_out: &Tensor<f32>,
        grad_weight: &mut Tensor<f32>,
        grad_bias: &mut [f32],
    ) -> Result<Tensor<f32>, NnError> {
        if self.params.groups != 1 {
            return Err(NnError::InvalidConfig(
                "backward pass supports dense convolutions only".into(),
            ));
        }
        let in_dims = input.shape().dims();
        let (n, c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
        let oh = self.params.output_size(h);
        let ow = self.params.output_size(w);
        let oc = self.params.out_channels;
        let k = self.params.kernel;

        // grad_out reshaped to the GEMM layout [N*OH*OW, OC].
        let go = grad_out.as_slice();
        let mut go_mat = vec![0.0_f32; n * oh * ow * oc];
        for img in 0..n {
            for o in 0..oc {
                for p in 0..oh * ow {
                    go_mat[(img * oh * ow + p) * oc + o] = go[(img * oc + o) * oh * ow + p];
                }
            }
        }
        let go_mat = Tensor::from_vec(go_mat, &[n * oh * ow, oc])?;

        // Weight gradient: cols^T (K_cols × rows) x go_mat (rows × OC).
        let cols = ops::im2col(input, &self.params, 0)?;
        let cols_t = ops::transpose(&cols)?;
        let gw = ops::matmul(&cols_t, &go_mat)?; // [C*K*K, OC]
        {
            let gw_s = gw.as_slice();
            let gwt = grad_weight.as_mut_slice();
            for o in 0..oc {
                for ci in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let row = (ci * k + ky) * k + kx;
                            gwt[((o * c + ci) * k + ky) * k + kx] += gw_s[row * oc + o];
                        }
                    }
                }
            }
        }
        // Bias gradient: sum of grad_out over N, OH, OW per channel.
        for img in 0..n {
            for o in 0..oc {
                for p in 0..oh * ow {
                    grad_bias[o] += go[(img * oc + o) * oh * ow + p];
                }
            }
        }

        // Input gradient: go_mat (rows × OC) x Wmat^T (OC × C*K*K), scattered
        // back through the im2col mapping.
        let wmat = ops::filters_to_matrix(&self.weight, &self.params, 0)?;
        let wmat_t = ops::transpose(&wmat)?;
        let gcols = ops::matmul(&go_mat, &wmat_t)?; // [N*OH*OW, C*K*K]
        let gcols_s = gcols.as_slice();
        let mut gin = Tensor::<f32>::zeros(&[n, c, h, w]);
        let gin_s = gin.as_mut_slice();
        let pad = self.params.padding;
        let stride = self.params.stride;
        let cols_per_row = c * k * k;
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (img * oh + oy) * ow + ox;
                    for ci in 0..c {
                        for ky in 0..k {
                            let iy = oy * stride + ky;
                            if iy < pad || iy - pad >= h {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox * stride + kx;
                                if ix < pad || ix - pad >= w {
                                    continue;
                                }
                                let col = (ci * k + ky) * k + kx;
                                gin_s[((img * c + ci) * h + (iy - pad)) * w + (ix - pad)] +=
                                    gcols_s[row * cols_per_row + col];
                            }
                        }
                    }
                }
            }
        }
        Ok(gin)
    }
}

/// A fully connected layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Weights `[in_features, out_features]` (GEMM layout).
    pub weight: Tensor<f32>,
    /// Per-output bias.
    pub bias: Vec<f32>,
}

impl Linear {
    /// Creates a linear layer with random initialization.
    pub fn new(in_features: usize, out_features: usize, synth: &mut TensorSynthesizer) -> Self {
        let std = (2.0 / in_features as f32).sqrt();
        let weight = synth.tensor(
            &SynthesisConfig {
                distribution: ValueDistribution::Gaussian { mean: 0.0, std },
                sparsity: 0.0,
                relu: false,
            },
            &[in_features, out_features],
        );
        Linear {
            in_features,
            out_features,
            weight,
            bias: vec![0.0; out_features],
        }
    }

    /// MAC operations per input sample.
    pub fn mac_ops(&self) -> u64 {
        (self.in_features * self.out_features) as u64
    }

    /// Forward pass over a `[N, in_features]` input.
    ///
    /// # Errors
    ///
    /// Returns an error when the feature dimension does not match.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 2 || dims[1] != self.in_features {
            return Err(NnError::ShapeMismatch {
                layer: "linear".into(),
                detail: format!("expected [N, {}], got {dims:?}", self.in_features),
            });
        }
        let mut out = ops::matmul(input, &self.weight)?;
        let o = out.as_mut_slice();
        for r in 0..dims[0] {
            for c in 0..self.out_features {
                o[r * self.out_features + c] += self.bias[c];
            }
        }
        Ok(out)
    }

    /// Backward pass: returns the input gradient and accumulates parameter
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes do not match.
    pub fn backward(
        &self,
        input: &Tensor<f32>,
        grad_out: &Tensor<f32>,
        grad_weight: &mut Tensor<f32>,
        grad_bias: &mut [f32],
    ) -> Result<Tensor<f32>, NnError> {
        let input_t = ops::transpose(input)?;
        let gw = ops::matmul(&input_t, grad_out)?;
        for (acc, g) in grad_weight.as_mut_slice().iter_mut().zip(gw.as_slice()) {
            *acc += *g;
        }
        let go = grad_out.as_slice();
        let n = grad_out.shape().dim(0);
        for r in 0..n {
            for c in 0..self.out_features {
                grad_bias[c] += go[r * self.out_features + c];
            }
        }
        let weight_t = ops::transpose(&self.weight)?;
        Ok(ops::matmul(grad_out, &weight_t)?)
    }
}

/// ReLU activation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relu;

impl Relu {
    /// Forward pass: clamps negative values to zero.
    pub fn forward(&self, input: &Tensor<f32>) -> Tensor<f32> {
        input.map(|&v| if v > 0.0 { v } else { 0.0 })
    }

    /// Backward pass: passes gradients where the input was positive.
    pub fn backward(&self, input: &Tensor<f32>, grad_out: &Tensor<f32>) -> Tensor<f32> {
        let mut g = grad_out.clone();
        for (gv, iv) in g.as_mut_slice().iter_mut().zip(input.as_slice()) {
            if *iv <= 0.0 {
                *gv = 0.0;
            }
        }
        g
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MaxPool2;

impl MaxPool2 {
    /// Forward pass, returning the pooled tensor and the argmax indices used
    /// by the backward pass.
    ///
    /// # Errors
    ///
    /// Returns an error for non-rank-4 inputs.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<(Tensor<f32>, Vec<usize>), NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::ShapeMismatch {
                layer: "maxpool2".into(),
                detail: format!("expected rank-4 input, got {dims:?}"),
            });
        }
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let (oh, ow) = (h / 2, w / 2);
        let src = input.as_slice();
        let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
        let mut argmax = vec![0usize; n * c * oh * ow];
        for img in 0..n {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let oidx = ((img * c + ch) * oh + oy) * ow + ox;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let iidx = ((img * c + ch) * h + iy) * w + ix;
                                if src[iidx] > out[oidx] {
                                    out[oidx] = src[iidx];
                                    argmax[oidx] = iidx;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok((Tensor::from_vec(out, &[n, c, oh, ow])?, argmax))
    }

    /// Backward pass: routes each gradient to the position that won the max.
    pub fn backward(
        &self,
        input_shape: &[usize],
        argmax: &[usize],
        grad_out: &Tensor<f32>,
    ) -> Tensor<f32> {
        let mut gin = Tensor::<f32>::zeros(input_shape);
        let g = gin.as_mut_slice();
        for (go, &idx) in grad_out.as_slice().iter().zip(argmax.iter()) {
            g[idx] += *go;
        }
        gin
    }
}

/// Flattens a `[N, C, H, W]` tensor into `[N, C*H*W]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Flatten;

impl Flatten {
    /// Forward pass.
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of rank < 2.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let dims = input.shape().dims();
        if dims.len() < 2 {
            return Err(NnError::ShapeMismatch {
                layer: "flatten".into(),
                detail: format!("expected rank >= 2, got {dims:?}"),
            });
        }
        let n = dims[0];
        let rest: usize = dims[1..].iter().product();
        Ok(input.clone().reshape(&[n, rest])?)
    }

    /// Backward pass: reshapes the gradient back to the saved input shape.
    ///
    /// # Errors
    ///
    /// Returns an error when the element counts differ.
    pub fn backward(
        &self,
        input_shape: &[usize],
        grad_out: &Tensor<f32>,
    ) -> Result<Tensor<f32>, NnError> {
        Ok(grad_out.clone().reshape(input_shape)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth() -> TensorSynthesizer {
        TensorSynthesizer::new(1234)
    }

    #[test]
    fn conv_forward_shape_and_bias() {
        let mut s = synth();
        let mut conv = Conv2d::new(Conv2dParams::new(2, 4, 3, 1, 1), &mut s);
        conv.bias = vec![1.0, 2.0, 3.0, 4.0];
        let input = Tensor::<f32>::zeros(&[2, 2, 8, 8]);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 4, 8, 8]);
        // Zero input: output equals the bias per channel.
        assert!((out.get(&[0, 2, 3, 3]).unwrap() - 3.0).abs() < 1e-6);
        assert!((out.get(&[1, 0, 0, 0]).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn conv_rejects_bad_input_rank() {
        let mut s = synth();
        let conv = Conv2d::new(Conv2dParams::new(2, 4, 3, 1, 1), &mut s);
        let input = Tensor::<f32>::zeros(&[2, 8, 8]);
        assert!(conv.forward(&input).is_err());
    }

    #[test]
    fn conv_gradients_match_numerical_estimate() {
        let mut s = synth();
        let mut conv = Conv2d::new(Conv2dParams::new(1, 2, 3, 1, 1), &mut s);
        conv.bias = vec![0.1, -0.2];
        let input = s.tensor(
            &SynthesisConfig {
                distribution: ValueDistribution::Gaussian {
                    mean: 0.0,
                    std: 1.0,
                },
                sparsity: 0.0,
                relu: false,
            },
            &[1, 1, 4, 4],
        );
        // Loss = sum(output); grad_out = ones.
        let out = conv.forward(&input).unwrap();
        let grad_out = Tensor::full(out.shape().dims(), 1.0f32);
        let mut gw = Tensor::<f32>::zeros(conv.weight.shape().dims());
        let mut gb = vec![0.0f32; 2];
        let gin = conv.backward(&input, &grad_out, &mut gw, &mut gb).unwrap();

        // Numerical gradient for a few weight entries.
        let eps = 1e-3;
        for &idx in &[0usize, 5, 10, 17] {
            let mut plus = conv.clone();
            plus.weight.as_mut_slice()[idx] += eps;
            let mut minus = conv.clone();
            minus.weight.as_mut_slice()[idx] -= eps;
            let lp = plus.forward(&input).unwrap().sum();
            let lm = minus.forward(&input).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = gw.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "weight grad mismatch at {idx}: numerical {num} vs analytic {ana}"
            );
        }
        // Numerical gradient for a few input entries.
        for &idx in &[0usize, 7, 15] {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let lp = conv.forward(&plus).unwrap().sum();
            let lm = conv.forward(&minus).unwrap().sum();
            let num = (lp - lm) / (2.0 * eps);
            let ana = gin.as_slice()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "input grad mismatch at {idx}: numerical {num} vs analytic {ana}"
            );
        }
        // Bias gradient equals the number of output positions.
        assert!((gb[0] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn linear_forward_and_gradients() {
        let mut s = synth();
        let mut lin = Linear::new(3, 2, &mut s);
        lin.bias = vec![0.5, -0.5];
        let input = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let out = lin.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2]);

        let grad_out = Tensor::full(&[2, 2], 1.0f32);
        let mut gw = Tensor::<f32>::zeros(&[3, 2]);
        let mut gb = vec![0.0f32; 2];
        let gin = lin.backward(&input, &grad_out, &mut gw, &mut gb).unwrap();
        assert_eq!(gin.shape().dims(), &[2, 3]);
        // dL/db = sum over batch of ones = 2 per output.
        assert!((gb[0] - 2.0).abs() < 1e-6);
        // dL/dW[i][j] = sum over batch of input[:, i].
        assert!((gw.as_slice()[0] - (1.0 + -1.0)).abs() < 1e-6);
        assert!((gw.as_slice()[2] - (2.0 + 0.0)).abs() < 1e-6);
        // dL/dx = W * ones = row sums of W.
        let w = lin.weight.as_slice();
        assert!((gin.as_slice()[0] - (w[0] + w[1])).abs() < 1e-5);
        // Shape mismatch is rejected.
        assert!(lin.forward(&Tensor::<f32>::zeros(&[2, 4])).is_err());
    }

    #[test]
    fn relu_forward_backward() {
        let r = Relu;
        let input = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        let out = r.forward(&input);
        assert_eq!(out.as_slice(), &[0.0, 0.0, 2.0]);
        let grad = r.backward(&input, &Tensor::full(&[3], 1.0f32));
        assert_eq!(grad.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_forward_and_backward_route_gradients() {
        let p = MaxPool2;
        let input = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        )
        .unwrap();
        let (out, argmax) = p.forward(&input).unwrap();
        assert_eq!(out.as_slice(), &[4.0, 8.0, 12.0, 16.0]);
        let grad = p.backward(&[1, 1, 4, 4], &argmax, &Tensor::full(&[1, 1, 2, 2], 1.0f32));
        // Gradient lands only on the max positions.
        assert_eq!(grad.as_slice().iter().filter(|&&v| v == 1.0).count(), 4);
        assert_eq!(grad.get(&[0, 0, 1, 1]).unwrap(), &1.0);
        assert!(p.forward(&Tensor::<f32>::zeros(&[2, 2])).is_err());
    }

    #[test]
    fn flatten_round_trip() {
        let f = Flatten;
        let input = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[2, 3, 1, 2]).unwrap();
        let out = f.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2, 6]);
        let back = f.backward(&[2, 3, 1, 2], &out).unwrap();
        assert_eq!(back.as_slice(), input.as_slice());
        assert!(f.forward(&Tensor::<f32>::zeros(&[3])).is_err());
    }

    #[test]
    fn depthwise_conv_forward() {
        let mut s = synth();
        let conv = Conv2d::new(Conv2dParams::depthwise(3, 3, 1, 1), &mut s);
        let input = s.tensor(&SynthesisConfig::activation(1.0, 0.0), &[1, 3, 6, 6]);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), &[1, 3, 6, 6]);
        // Backward is unsupported for grouped convolutions.
        let mut gw = Tensor::<f32>::zeros(conv.weight.shape().dims());
        let mut gb = vec![0.0; 3];
        assert!(conv.backward(&input, &out, &mut gw, &mut gb).is_err());
    }
}
