//! Matrix multiplication, transposition, element-wise helpers, and the
//! im2col lowering used to express convolutions as GEMMs.

use crate::error::TensorError;
use crate::tensor::Tensor;

/// Parameters of a 2-D convolution lowered with im2col.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Conv2dParams {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Square kernel size (kernel_h == kernel_w).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub padding: usize,
    /// Number of groups (1 for dense convolutions, `in_channels` for
    /// depthwise convolutions).
    pub groups: usize,
}

impl Conv2dParams {
    /// Creates dense (groups = 1) convolution parameters.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dParams {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            groups: 1,
        }
    }

    /// Creates depthwise convolution parameters (`groups == in_channels`).
    pub fn depthwise(channels: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dParams {
            in_channels: channels,
            out_channels: channels,
            kernel,
            stride,
            padding,
            groups: channels,
        }
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        (input + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1
    }

    /// The zero frame `[N, C, FH, FW]` that [`im2col_padded`] lowers an
    /// `[N, C, H, W]` input (one group's channels) from: `padding` zeros on
    /// every edge, each side widened to one kernel when that is smaller (the
    /// one window [`Self::output_size`] then counts reads zeros past the
    /// input's far edge). Input pixel `(y, x)` sits at
    /// `(y + padding, x + padding)`.
    pub fn frame_dims(&self, [n, c, h, w]: [usize; 4]) -> [usize; 4] {
        let side = |input: usize| (input + 2 * self.padding).max(self.kernel);
        [n, c, side(h), side(w)]
    }

    /// Number of multiply-accumulate operations for an input of spatial size
    /// `h × w` (per image).
    pub fn mac_ops(&self, h: usize, w: usize) -> u64 {
        let oh = self.output_size(h) as u64;
        let ow = self.output_size(w) as u64;
        let k = (self.kernel * self.kernel) as u64;
        let cin_per_group = (self.in_channels / self.groups) as u64;
        oh * ow * self.out_channels as u64 * k * cin_per_group
    }
}

/// Multiplies two f32 matrices stored as rank-2 tensors: `C = A × B`.
///
/// Runs the seed loop on the calling thread: row by row of `A`, each
/// nonzero `A[i, p]` in ascending `p` adds `A[i, p] · B[p, :]` into row `i`
/// of `C`. Training, calibration and every float layer multiply through
/// here, so this accumulation order fixes every trained weight.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either tensor is not rank 2 and
/// [`TensorError::DimensionMismatch`] if the inner dimensions differ.
pub fn matmul(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    check_rank2("matmul", a)?;
    check_rank2("matmul", b)?;
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    if k != k2 {
        return Err(TensorError::DimensionMismatch {
            op: "matmul",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0_f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
pub fn transpose(t: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    check_rank2("transpose", t)?;
    let (r, c) = (t.shape().dim(0), t.shape().dim(1));
    let src = t.as_slice();
    let mut out = vec![0.0_f32; r * c];
    for i in 0..r {
        for j in 0..c {
            out[j * r + i] = src[i * c + j];
        }
    }
    Tensor::from_vec(out, &[c, r])
}

/// Element-wise addition of two tensors with identical shapes.
///
/// # Errors
///
/// Returns [`TensorError::DimensionMismatch`] when shapes differ.
pub fn add(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>, TensorError> {
    if !a.shape().same_dims(b.shape()) {
        return Err(TensorError::DimensionMismatch {
            op: "add",
            lhs: a.shape().dims().to_vec(),
            rhs: b.shape().dims().to_vec(),
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(x, y)| x + y)
        .collect();
    Tensor::from_vec(data, a.shape().dims())
}

/// Element-wise scaling of a tensor by a scalar.
pub fn scale(a: &Tensor<f32>, s: f32) -> Tensor<f32> {
    a.map(|&v| v * s)
}

/// Lowers a 4-D activation tensor `[N, C, H, W]` into the im2col matrix of
/// shape `[N * OH * OW, C/groups * K * K]` for the given convolution
/// parameters and group index.
///
/// Each row of the result corresponds to one sliding window of one image;
/// multiplying it by the reshaped filter matrix yields the convolution
/// output, exactly the mapping the paper uses to feed convolutions to the
/// output-stationary systolic array.
///
/// The lowering only copies elements, so it works for any element type:
/// padded positions are filled with `T::default()` (`0.0` for `f32`, `0`
/// for already-quantized `u8` activations). It copies the group's channels
/// into their zero frame ([`frame_map`]) and lowers that with
/// [`im2col_padded`].
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `input` is not rank 4, or
/// [`TensorError::InvalidArgument`] for inconsistent channel/group settings.
pub fn im2col<T: Copy + Default>(
    input: &Tensor<T>,
    params: &Conv2dParams,
    group: usize,
) -> Result<Tensor<T>, TensorError> {
    im2col_padded(&frame_map(input, params, group, |v| v)?, params)
}

/// Copies group `group`'s channels of an NCHW tensor `[N, C, H, W]` into
/// their zero frame ([`Conv2dParams::frame_dims`]), mapping each element
/// through `f`; the padding holds `U::default()`. [`im2col`] frames with the
/// identity, the quantized forward with its activation quantizer.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `input` is not rank 4, or
/// [`TensorError::InvalidArgument`] for inconsistent channel/group settings.
pub fn frame_map<T: Copy, U: Copy + Default>(
    input: &Tensor<T>,
    params: &Conv2dParams,
    group: usize,
    f: impl Fn(T) -> U,
) -> Result<Tensor<U>, TensorError> {
    let [n, c, h, w] = check_lowering(input, params, group)?;
    if c != params.in_channels {
        return Err(TensorError::InvalidArgument(format!(
            "input channels {} do not match conv params {}",
            c, params.in_channels
        )));
    }
    let dims @ [_, cg, fh, fw] = params.frame_dims([n, c / params.groups, h, w]);
    let (src, pad) = (input.as_slice(), params.padding);
    let mut frame = vec![U::default(); dims.iter().product()];
    for img in 0..n {
        for ci in 0..cg {
            let plane = img * c + group * cg + ci;
            for y in 0..h {
                let dst = &mut frame[((img * cg + ci) * fh + y + pad) * fw + pad..][..w];
                for (d, &v) in dst.iter_mut().zip(&src[(plane * h + y) * w..][..w]) {
                    *d = f(v);
                }
            }
        }
    }
    Tensor::from_vec(frame, &dims)
}

/// Lowers one group's zero frame `[N, C/groups, FH, FW]` (the group's
/// channels already inside their `padding`, [`Conv2dParams::frame_dims`])
/// into the im2col matrix `[N * OH * OW, C/groups * K * K]`, the matrix
/// [`im2col`] gives for the unframed input.
///
/// Every window lies inside the frame, so each kernel row is one `K`-element
/// copy with no padding test.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `frame` is not rank 4, or
/// [`TensorError::InvalidArgument`] for inconsistent channel/group settings
/// or a frame side narrower than the kernel.
pub fn im2col_padded<T: Copy + Default>(
    frame: &Tensor<T>,
    params: &Conv2dParams,
) -> Result<Tensor<T>, TensorError> {
    let [n, cg, fh, fw] = check_lowering(frame, params, 0)?;
    let k = params.kernel;
    if cg != params.in_channels / params.groups {
        return Err(TensorError::InvalidArgument(format!(
            "frame channels {cg} do not match the {} of one conv group",
            params.in_channels / params.groups
        )));
    }
    if fh < k || fw < k {
        return Err(TensorError::InvalidArgument(format!(
            "frame {fh}x{fw} is narrower than the {k}x{k} kernel"
        )));
    }
    let out = [(fh - k) / params.stride + 1, (fw - k) / params.stride + 1];
    let (src, dims, s) = (frame.as_slice(), [n, cg, fh, fw], params.stride);
    // SynthNet's convs are all 3×3. A literal kernel size lets each
    // `copy_from_slice` compile to fixed moves instead of a `memcpy` call
    // per kernel row.
    let cols = match k {
        3 => lower_windows(src, dims, s, out, 3),
        _ => lower_windows(src, dims, s, out, k),
    };
    Tensor::from_vec(cols, &[n * out[0] * out[1], cg * k * k])
}

/// Copies each `k`×`k` window of the frame `src` (`[N, CG, FH, FW]`;
/// windows `stride` apart, `[OH, OW]` of them) into its row of the
/// `[N * OH * OW, CG * k * k]` output, one kernel row at a time.
#[inline(always)]
fn lower_windows<T: Copy + Default>(
    src: &[T],
    [n, cg, fh, fw]: [usize; 4],
    stride: usize,
    [oh, ow]: [usize; 2],
    k: usize,
) -> Vec<T> {
    let mut out = vec![T::default(); n * oh * ow * cg * k * k];
    // The output rows, cut into their kernel rows in write order.
    let mut kernel_rows = out.chunks_exact_mut(k);
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let corner = oy * stride * fw + ox * stride;
                for ci in 0..cg {
                    let first = (img * cg + ci) * fh * fw + corner;
                    let window = &src[first..first + (k - 1) * fw + k];
                    for ky in 0..k {
                        kernel_rows
                            .next()
                            .expect("the output holds cg * k kernel rows per window")
                            .copy_from_slice(&window[ky * fw..ky * fw + k]);
                    }
                }
            }
        }
    }
    out
}

/// Checks `params` and `group` for a lowering from `input` and returns the
/// input's `[N, C, H, W]`.
fn check_lowering<T>(
    input: &Tensor<T>,
    params: &Conv2dParams,
    group: usize,
) -> Result<[usize; 4], TensorError> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 4,
            actual: input.rank(),
        });
    }
    if params.groups == 0 || !params.in_channels.is_multiple_of(params.groups) {
        return Err(TensorError::InvalidArgument(format!(
            "groups ({}) must divide in_channels ({})",
            params.groups, params.in_channels
        )));
    }
    if group >= params.groups {
        return Err(TensorError::InvalidArgument(format!(
            "group index {} out of range for {} groups",
            group, params.groups
        )));
    }
    if params.stride == 0 || params.kernel == 0 {
        return Err(TensorError::InvalidArgument(
            "kernel size and stride must be non-zero".to_string(),
        ));
    }
    let dims = input.shape().dims();
    Ok([dims[0], dims[1], dims[2], dims[3]])
}

/// Reshapes a filter tensor `[OC, C/groups, K, K]` into the GEMM weight
/// matrix `[C/groups * K * K, OC/groups]` for the given group.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `weights` is not rank 4, or
/// [`TensorError::InvalidArgument`] for inconsistent group settings.
pub fn filters_to_matrix(
    weights: &Tensor<f32>,
    params: &Conv2dParams,
    group: usize,
) -> Result<Tensor<f32>, TensorError> {
    if weights.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "filters_to_matrix",
            expected: 4,
            actual: weights.rank(),
        });
    }
    if params.groups == 0
        || !params.out_channels.is_multiple_of(params.groups)
        || !params.in_channels.is_multiple_of(params.groups)
    {
        return Err(TensorError::InvalidArgument(
            "groups must divide both in_channels and out_channels".to_string(),
        ));
    }
    if group >= params.groups {
        return Err(TensorError::InvalidArgument(format!(
            "group index {} out of range for {} groups",
            group, params.groups
        )));
    }
    let dims = weights.shape().dims();
    let (oc, cg, kh, kw) = (dims[0], dims[1], dims[2], dims[3]);
    if kh != params.kernel || kw != params.kernel || oc != params.out_channels {
        return Err(TensorError::InvalidArgument(format!(
            "weight shape {dims:?} does not match conv params"
        )));
    }
    let ocg = oc / params.groups;
    let o0 = group * ocg;
    let rows = cg * kh * kw;
    let src = weights.as_slice();
    let mut out = vec![0.0_f32; rows * ocg];
    for o in 0..ocg {
        let filt = o0 + o;
        for ci in 0..cg {
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = (ci * kh + ky) * kw + kx;
                    out[row * ocg + o] = src[((filt * cg + ci) * kh + ky) * kw + kx];
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, ocg])
}

/// Folds an im2col GEMM output of shape `[N*OH*OW, OC_group]` back into a
/// 4-D activation tensor slice `[N, OC_group, OH, OW]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeDataMismatch`] when the matrix does not hold
/// `n * oh * ow * oc` elements.
pub fn col2im(
    gemm_out: &Tensor<f32>,
    n: usize,
    oc: usize,
    oh: usize,
    ow: usize,
) -> Result<Tensor<f32>, TensorError> {
    let expected = n * oh * ow * oc;
    if gemm_out.numel() != expected {
        return Err(TensorError::ShapeDataMismatch {
            expected,
            actual: gemm_out.numel(),
        });
    }
    let src = gemm_out.as_slice();
    let mut out = vec![0.0_f32; expected];
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row = (img * oh + oy) * ow + ox;
                for o in 0..oc {
                    out[((img * oc + o) * oh + oy) * ow + ox] = src[row * oc + o];
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, oc, oh, ow])
}

fn check_rank2(op: &'static str, t: &Tensor<f32>) -> Result<(), TensorError> {
    if t.rank() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: t.rank(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_small() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let id = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let c = matmul(&a, &id).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[1.0, 2.0, 3.0], &[3, 1]);
        assert!(matmul(&a, &b).is_err());
        let v = t(&[1.0, 2.0], &[2]);
        assert!(matmul(&v, &a).is_err());
    }

    #[test]
    fn matmul_degenerate_shapes() {
        // k = 0: every output element is an empty sum.
        let c = matmul(&t(&[], &[2, 0]), &t(&[], &[0, 3])).unwrap();
        assert_eq!(c.shape().dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[0.0; 6]);
        // m = 0 or n = 0: an empty result of the right shape.
        let c = matmul(&t(&[], &[0, 3]), &t(&[1.0; 6], &[3, 2])).unwrap();
        assert_eq!(c.shape().dims(), &[0, 2]);
        assert!(c.as_slice().is_empty());
        let c = matmul(&t(&[1.0; 6], &[2, 3]), &t(&[], &[3, 0])).unwrap();
        assert_eq!(c.shape().dims(), &[2, 0]);
        assert!(c.as_slice().is_empty());
        // The rank and inner-dimension errors name the operation and shapes.
        assert_eq!(
            matmul(&t(&[1.0, 2.0], &[2]), &t(&[1.0; 4], &[2, 2])),
            Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: 1,
            })
        );
        assert_eq!(
            matmul(&t(&[1.0; 4], &[2, 2]), &t(&[1.0; 8], &[2, 2, 2])),
            Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: 3,
            })
        );
        assert_eq!(
            matmul(&t(&[1.0; 6], &[2, 3]), &t(&[1.0; 4], &[2, 2])),
            Err(TensorError::DimensionMismatch {
                op: "matmul",
                lhs: vec![2, 3],
                rhs: vec![2, 2],
            })
        );
    }

    #[test]
    fn transpose_round_trip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = transpose(&transpose(&a).unwrap()).unwrap();
        assert_eq!(tt.as_slice(), a.as_slice());
    }

    #[test]
    fn add_and_scale() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[4.0, 6.0]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[2.0, 4.0]);
        let c = t(&[1.0], &[1]);
        assert!(add(&a, &c).is_err());
    }

    #[test]
    fn conv_params_output_and_macs() {
        let p = Conv2dParams::new(3, 64, 3, 1, 1);
        assert_eq!(p.output_size(224), 224);
        assert_eq!(p.mac_ops(4, 4), 16 * 64 * 9 * 3);
        let dw = Conv2dParams::depthwise(32, 3, 2, 1);
        assert_eq!(dw.groups, 32);
        assert_eq!(dw.output_size(8), 4);
        assert_eq!(dw.mac_ops(8, 8), 4 * 4 * 32 * 9);
    }

    /// Exhaustive check of im2col + GEMM against a direct convolution on a
    /// tiny example.
    #[test]
    fn im2col_gemm_matches_direct_convolution() {
        // 1 image, 2 channels, 4x4 input; 3 filters, 3x3 kernel, stride 1, pad 1.
        let params = Conv2dParams::new(2, 3, 3, 1, 1);
        let n = 1;
        let h = 4;
        let w = 4;
        let input_data: Vec<f32> = (0..(n * 2 * h * w))
            .map(|v| (v as f32) * 0.5 - 3.0)
            .collect();
        let input = Tensor::from_vec(input_data, &[n, 2, h, w]).unwrap();
        let weight_data: Vec<f32> = (0..(3 * 2 * 3 * 3))
            .map(|v| ((v % 7) as f32) - 3.0)
            .collect();
        let weights = Tensor::from_vec(weight_data, &[3, 2, 3, 3]).unwrap();

        // Direct convolution.
        let oh = params.output_size(h);
        let ow = params.output_size(w);
        let mut direct = vec![0.0_f32; n * 3 * oh * ow];
        for o in 0..3 {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ci in 0..2 {
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let iy = oy as isize + ky as isize - 1;
                                let ix = ox as isize + kx as isize - 1;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    let xval = input.as_slice()
                                        [((ci) * h + iy as usize) * w + ix as usize];
                                    let wval = weights.as_slice()[((o * 2 + ci) * 3 + ky) * 3 + kx];
                                    acc += xval * wval;
                                }
                            }
                        }
                    }
                    direct[(o * oh + oy) * ow + ox] = acc;
                }
            }
        }

        // im2col path.
        let x = im2col(&input, &params, 0).unwrap();
        let wmat = filters_to_matrix(&weights, &params, 0).unwrap();
        let y = matmul(&x, &wmat).unwrap();
        let folded = col2im(&y, n, 3, oh, ow).unwrap();
        for (a, b) in folded.as_slice().iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn im2col_depthwise_groups() {
        let params = Conv2dParams::depthwise(2, 3, 1, 1);
        let input = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[1, 2, 4, 4]).unwrap();
        let g0 = im2col(&input, &params, 0).unwrap();
        let g1 = im2col(&input, &params, 1).unwrap();
        assert_eq!(g0.shape().dims(), &[16, 9]);
        assert_eq!(g1.shape().dims(), &[16, 9]);
        // Group 1 sees channel 1 values (which are >= 16), group 0 sees channel 0.
        assert!(g0.as_slice().iter().all(|&v| v < 16.0));
        assert!(g1.as_slice().iter().any(|&v| v >= 16.0));
        assert!(im2col(&input, &params, 2).is_err());
    }

    #[test]
    fn im2col_rejects_bad_input() {
        let params = Conv2dParams::new(2, 3, 3, 1, 1);
        let bad_rank = Tensor::from_vec(vec![0.0; 8], &[2, 4]).unwrap();
        assert!(im2col(&bad_rank, &params, 0).is_err());
        let wrong_channels = Tensor::from_vec(vec![0.0; 3 * 16], &[1, 3, 4, 4]).unwrap();
        assert!(im2col(&wrong_channels, &params, 0).is_err());
        let zero_stride = Conv2dParams {
            stride: 0,
            ..params
        };
        let ok_input = Tensor::from_vec(vec![0.0; 2 * 16], &[1, 2, 4, 4]).unwrap();
        assert!(im2col(&ok_input, &zero_stride, 0).is_err());
    }

    /// The per-element lowering `im2col` ran before it lowered a zero frame:
    /// every in-bounds element copied into its window's row, padded
    /// positions left at `T::default()`. The reference for the property
    /// below.
    fn im2col_reference<T: Copy + Default>(
        input: &Tensor<T>,
        params: &Conv2dParams,
        group: usize,
    ) -> Tensor<T> {
        let dims = input.shape().dims();
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let cg = params.in_channels / params.groups;
        let c0 = group * cg;
        let oh = params.output_size(h);
        let ow = params.output_size(w);
        let k = params.kernel;
        let rows = n * oh * ow;
        let cols = cg * k * k;
        let src = input.as_slice();
        let mut out = vec![T::default(); rows * cols];
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = (img * oh + oy) * ow + ox;
                    let dst_row = &mut out[row * cols..(row + 1) * cols];
                    let x0 = ox * params.stride;
                    for ci in 0..cg {
                        let cin = c0 + ci;
                        for ky in 0..k {
                            let iy = oy * params.stride + ky;
                            if iy < params.padding || iy - params.padding >= h {
                                continue;
                            }
                            let sy = iy - params.padding;
                            let src_row = &src[((img * c + cin) * h + sy) * w..][..w];
                            let dst = &mut dst_row[(ci * k + ky) * k..][..k];
                            for (kx, d) in dst.iter_mut().enumerate() {
                                let ix = x0 + kx;
                                if ix >= params.padding && ix - params.padding < w {
                                    *d = src_row[ix - params.padding];
                                }
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(out, &[rows, cols]).unwrap()
    }

    /// Property: `im2col` (a zero frame lowered by `im2col_padded`) equals
    /// the per-element reference for u8 and f32 tensors, over random kernel
    /// 1–5, stride 1–3, padding 0–2, channel counts, groups and every
    /// group, including inputs smaller than the kernel.
    #[test]
    fn framed_lowering_matches_the_per_element_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x12_2c01);
        for case in 0..400 {
            let groups = rng.gen_range(1..=3usize);
            let params = Conv2dParams {
                in_channels: groups * rng.gen_range(1..=3usize),
                out_channels: groups,
                kernel: rng.gen_range(1..=5usize),
                stride: rng.gen_range(1..=3usize),
                padding: rng.gen_range(0..=2usize),
                groups,
            };
            let dims = [
                rng.gen_range(1..=3usize),
                params.in_channels,
                rng.gen_range(1..=9usize),
                rng.gen_range(1..=9usize),
            ];
            let numel = dims.iter().product();
            let bytes: Vec<u8> = (0..numel).map(|_| rng.gen_range(1..=255u8)).collect();
            let floats: Vec<f32> = bytes.iter().map(|&b| f32::from(b) - 100.5).collect();
            let bytes = Tensor::from_vec(bytes, &dims).unwrap();
            let floats = Tensor::from_vec(floats, &dims).unwrap();
            for group in 0..groups {
                let what = format!("case {case}: {params:?} on {dims:?}, group {group}");
                assert_eq!(
                    im2col(&bytes, &params, group).unwrap(),
                    im2col_reference(&bytes, &params, group),
                    "u8 {what}"
                );
                assert_eq!(
                    im2col(&floats, &params, group).unwrap(),
                    im2col_reference(&floats, &params, group),
                    "f32 {what}"
                );
            }
        }
    }

    #[test]
    fn frame_map_frames_one_group_inside_its_padding() {
        // Two groups of two channels; group 1 holds channels 2 and 3.
        let params = Conv2dParams {
            groups: 2,
            ..Conv2dParams::new(4, 2, 3, 1, 1)
        };
        let input = Tensor::from_vec((1..=16).collect::<Vec<u8>>(), &[1, 4, 2, 2]).unwrap();
        let frame = frame_map(&input, &params, 1, |v| u16::from(v) * 10).unwrap();
        assert_eq!(frame.shape().dims(), &[1, 2, 4, 4]);
        #[rustfmt::skip]
        let expected: Vec<u16> = vec![
            0, 0, 0, 0,  0, 90, 100, 0,  0, 110, 120, 0,  0, 0, 0, 0,
            0, 0, 0, 0,  0, 130, 140, 0,  0, 150, 160, 0,  0, 0, 0, 0,
        ];
        assert_eq!(frame.as_slice(), &expected[..]);
        // An input narrower than the kernel gets a frame one kernel wide.
        let tiny = Tensor::from_vec(vec![7u8], &[1, 1, 1, 1]).unwrap();
        let wide = Conv2dParams::new(1, 1, 5, 1, 1);
        assert_eq!(wide.frame_dims([1, 1, 1, 1]), [1, 1, 5, 5]);
        let frame = frame_map(&tiny, &wide, 0, |v| v).unwrap();
        assert_eq!(frame.as_slice().iter().filter(|&&v| v == 7).count(), 1);
        assert_eq!(frame.as_slice()[6], 7);
        assert!(frame_map(&input, &params, 2, |v| v).is_err());
    }

    #[test]
    fn framed_lowering_rejects_a_frame_narrower_than_the_kernel() {
        let params = Conv2dParams::new(1, 1, 3, 1, 0);
        let narrow = Tensor::from_vec(vec![0u8; 6], &[1, 1, 3, 2]).unwrap();
        assert!(im2col_padded(&narrow, &params).is_err());
        let fits = Tensor::from_vec(vec![0u8; 9], &[1, 1, 3, 3]).unwrap();
        assert_eq!(
            im2col_padded(&fits, &params).unwrap().shape().dims(),
            &[1, 9]
        );
    }

    #[test]
    fn filters_to_matrix_validates_shape() {
        let params = Conv2dParams::new(2, 3, 3, 1, 1);
        let bad = Tensor::from_vec(vec![0.0; 4], &[2, 2]).unwrap();
        assert!(filters_to_matrix(&bad, &params, 0).is_err());
        let wrong_kernel = Tensor::from_vec(vec![0.0; 3 * 2 * 4], &[3, 2, 2, 2]).unwrap();
        assert!(filters_to_matrix(&wrong_kernel, &params, 0).is_err());
    }

    #[test]
    fn col2im_validates_count() {
        let y = Tensor::from_vec(vec![0.0; 10], &[5, 2]).unwrap();
        assert!(col2im(&y, 1, 2, 2, 2).is_err());
        assert!(col2im(&y, 1, 2, 5, 1).is_ok());
    }
}
