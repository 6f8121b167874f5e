//! Quantization and dequantization of floating-point matrices.

use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Matrix;

use crate::observer::{AbsMaxObserver, MinMaxObserver};
use crate::qtensor::{QuantMatrix, QuantWeightMatrix};
use crate::scheme::{BitWidth, QuantScheme, Signedness};

/// Quantizes an activation matrix using the paper's per-layer unsigned
/// symmetric min-max scheme.
///
/// `range` is the calibrated `(min, max)` pair gathered by a
/// [`MinMaxObserver`]; when `None` the matrix's own range is used
/// (dynamic quantization).
pub fn quantize_activations(
    x: &Matrix<f32>,
    scheme: &QuantScheme,
    range: Option<(f32, f32)>,
) -> QuantMatrix {
    debug_assert_eq!(scheme.signedness, Signedness::Unsigned);
    let (lo, hi) = range.unwrap_or_else(|| {
        let mut obs = MinMaxObserver::new();
        obs.observe(x.as_slice());
        obs.averaged_range()
    });
    let scale = scheme.scale_for_range(lo, hi);
    let q_max = scheme.q_max();
    let data: Vec<u8> = x
        .as_slice()
        .iter()
        .map(|&v| quantize_activation(v, scale, q_max))
        .collect();
    let values = Matrix::from_vec(data, x.rows(), x.cols())
        .expect("quantized buffer has same dimensions as input");
    // Scale is expressed relative to the 8-bit grid so that integer values of
    // reduced-precision schemes still dequantize correctly.
    QuantMatrix::new(values, scale)
}

/// Quantizes one activation value onto the unsigned grid `0..=q_max` at
/// `scale`: the per-element rounding rule of [`quantize_activations`].
///
/// Callers that quantize a tensor before lowering it (the quantized model's
/// conv layers) use this same function, so their bytes match the matrix
/// path's by construction. `0.0` always maps to `0`, which is what lets a
/// lowering pad with zero bytes instead of quantized zeros.
///
/// The result equals `(v / scale).round().clamp(0.0, q_max) as u8` for
/// every `f32` input (NaN, ±inf and −0 included) when `q_max` is a whole
/// number, as [`QuantScheme::q_max`] is. That rests on the argument below;
/// the tests check it on all 2^32 inputs at scale 0.0123 for A8's and A4's
/// `q_max` (an ignored test), and on edge cases at four scales. The body is
/// branch-free and calls no libm function (`f32::round` is a `roundf` call
/// on x86-64 without SSE4.1) and no float-to-integer conversion, so loops
/// over it vectorize:
/// - it clamps before rounding, which commutes with rounding for a whole
///   `q_max`; NaN fails both comparisons and lands on 0, where the
///   reference's `NaN as u8` lands;
/// - adding 2^23 rounds a value in `[0, 2^23)` to the nearest whole number,
///   ties to even, exactly, and leaves that number in the sum's low
///   mantissa bits; a tie it rounded down leaves a remainder of exactly one
///   half, and gets one more;
/// - the final `min` saturates at 255 as the reference's `as u8` does.
#[inline]
pub fn quantize_activation(v: f32, scale: f32, q_max: f32) -> u8 {
    const WHOLE: f32 = 8_388_608.0; // 2^23: the spacing of f32 above it is 1
    let t = v / scale;
    let c = if t > 0.0 { t } else { 0.0 };
    let c = if c < q_max { c } else { q_max };
    let biased = c + WHOLE;
    let tie_down = u32::from(c - (biased - WHOLE) >= 0.5);
    (biased.to_bits() - WHOLE.to_bits() + tie_down).min(255) as u8
}

/// Quantizes a weight matrix using the paper's per-kernel signed symmetric
/// scheme (one scale per column).
pub fn quantize_weights(w: &Matrix<f32>, scheme: &QuantScheme) -> QuantWeightMatrix {
    debug_assert_eq!(scheme.signedness, Signedness::Signed);
    let cols = w.cols();
    let mut obs = AbsMaxObserver::new(cols);
    for c in 0..cols {
        let col = w.column(c);
        obs.observe_channel(c, &col);
    }
    let q_max = scheme.q_max();
    let scales: Vec<f32> = obs
        .abs_maxes()
        .iter()
        .map(|&m| if m > 0.0 { m / q_max } else { 1.0 })
        .collect();
    let mut data = vec![0i8; w.rows() * cols];
    for r in 0..w.rows() {
        for c in 0..cols {
            let v = *w.at(r, c);
            let q = (v / scales[c]).round().clamp(-q_max, q_max);
            data[r * cols + c] = q as i8;
        }
    }
    let values =
        Matrix::from_vec(data, w.rows(), cols).expect("quantized buffer has same dimensions");
    QuantWeightMatrix::new(values, scales).expect("scales generated per column")
}

/// Dequantizes an activation matrix back to floating point.
pub fn dequantize_activations(q: &QuantMatrix) -> Matrix<f32> {
    let data: Vec<f32> = q
        .values()
        .as_slice()
        .iter()
        .map(|&v| v as f32 * q.scale())
        .collect();
    Matrix::from_vec(data, q.rows(), q.cols()).expect("same dimensions")
}

/// Dequantizes a weight matrix back to floating point.
pub fn dequantize_weights(q: &QuantWeightMatrix) -> Matrix<f32> {
    let cols = q.cols();
    let mut data = vec![0.0_f32; q.rows() * cols];
    if cols > 0 {
        let rows = q.values().as_slice().chunks_exact(cols);
        for (out, row) in data.chunks_exact_mut(cols).zip(rows) {
            for ((o, &v), &s) in out.iter_mut().zip(row).zip(q.scales()) {
                *o = v as f32 * s;
            }
        }
    }
    Matrix::from_vec(data, q.rows(), cols).expect("same dimensions")
}

/// Dequantizes a row-major block of integer GEMM accumulators into `out`:
/// element `(r, j)` becomes `(acc[r, j] as f32 * x_scale) * w_scales[j]`,
/// in that order, the column count being `w_scales.len()`. Rows are walked
/// zipped with the per-kernel scales.
///
/// # Panics
///
/// Panics when `acc` and `out` differ in length or are not a whole number
/// of `w_scales.len()`-wide rows.
pub fn dequantize_accumulators(acc: &[i64], x_scale: f32, w_scales: &[f32], out: &mut [f32]) {
    let n = w_scales.len();
    assert_eq!(
        acc.len(),
        out.len(),
        "dequantize: accumulator/output length"
    );
    if n == 0 {
        assert!(
            acc.is_empty(),
            "dequantize: rows of zero width hold no values"
        );
        return;
    }
    assert_eq!(acc.len() % n, 0, "dequantize: partial accumulator row");
    for (orow, arow) in out.chunks_exact_mut(n).zip(acc.chunks_exact(n)) {
        for ((o, &v), &s) in orow.iter_mut().zip(arow).zip(w_scales) {
            *o = v as f32 * x_scale * s;
        }
    }
}

/// Computes the dequantized product of a quantized activation matrix and a
/// quantized weight matrix: each integer dot product is scaled by the
/// activation scale and the corresponding kernel scale.
///
/// This is the error-free reference output used to measure the MSE that
/// NB-SMT contributes (Fig. 8), and what the conventional systolic array
/// produces. The integer GEMM runs on `ctx`'s backend and thread pool, and
/// the result is identical for every configuration (integer accumulation is
/// exact, and dequantization applies the same per-element scaling).
///
/// # Errors
///
/// Returns [`TensorError::DimensionMismatch`] when the reduction dimensions
/// differ.
pub fn quantized_matmul_with(
    ctx: &ExecContext,
    x: &QuantMatrix,
    w: &QuantWeightMatrix,
) -> Result<Matrix<f32>, TensorError> {
    if x.cols() != w.rows() {
        return Err(TensorError::DimensionMismatch {
            op: "quantized_matmul",
            lhs: vec![x.rows(), x.cols()],
            rhs: vec![w.rows(), w.cols()],
        });
    }
    let (m, k, n) = (x.rows(), x.cols(), w.cols());
    let mut acc = vec![0_i64; m * n];
    ctx.gemm_u8i8(
        m,
        k,
        n,
        x.values().as_slice(),
        w.values().as_slice(),
        &mut acc,
    );
    let mut out = vec![0.0_f32; m * n];
    dequantize_accumulators(&acc, x.scale(), w.scales(), &mut out);
    Matrix::from_vec(out, m, n)
}

/// Further quantizes an already-quantized activation matrix to the requested
/// bit width *without recalibration*, exactly as the SySMT PEs do on the fly:
/// 8-bit values are rounded to the nearest multiple of 16 and truncated to
/// their 4-bit MSBs (the dequantization scale is adjusted by 16).
///
/// Used for the whole-model robustness sweep of Fig. 7.
pub fn reduce_activation_matrix(q: &QuantMatrix, bits: BitWidth) -> QuantMatrix {
    match bits {
        BitWidth::Eight => q.clone(),
        BitWidth::Four => {
            let data: Vec<u8> = q
                .values()
                .as_slice()
                .iter()
                .map(|&v| crate::reduce::round_to_nibble_unsigned(v))
                .collect();
            let values = Matrix::from_vec(data, q.rows(), q.cols()).expect("same dims");
            // Values are now nibbles representing v/16, so the scale grows 16x.
            QuantMatrix::new(values, q.scale() * 16.0)
        }
    }
}

/// Further quantizes an already-quantized weight matrix to the requested bit
/// width without recalibration (signed variant of
/// [`reduce_activation_matrix`]).
pub fn reduce_weight_matrix(q: &QuantWeightMatrix, bits: BitWidth) -> QuantWeightMatrix {
    match bits {
        BitWidth::Eight => q.clone(),
        BitWidth::Four => {
            let data: Vec<i8> = q
                .values()
                .as_slice()
                .iter()
                .map(|&v| crate::reduce::round_to_nibble_signed(v))
                .collect();
            let values = Matrix::from_vec(data, q.rows(), q.cols()).expect("same dims");
            let scales: Vec<f32> = q.scales().iter().map(|&s| s * 16.0).collect();
            QuantWeightMatrix::new(values, scales).expect("scales per column preserved")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;

    fn mat(data: &[f32], rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_vec(data.to_vec(), rows, cols).unwrap()
    }

    #[test]
    fn activation_quantization_round_trip() {
        let x = mat(&[0.0, 0.5, 1.0, 2.55], 2, 2);
        let q = quantize_activations(&x, &QuantScheme::activation_a8(), None);
        assert_eq!(q.values().as_slice(), &[0, 50, 100, 255]);
        let d = dequantize_activations(&q);
        for (a, b) in d.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 0.02, "{a} vs {b}");
        }
    }

    #[test]
    fn activation_quantization_with_calibrated_range() {
        let x = mat(&[0.0, 1.0, 3.0, 10.0], 2, 2);
        // Calibrated range smaller than data: values clamp to 255.
        let q = quantize_activations(&x, &QuantScheme::activation_a8(), Some((0.0, 5.0)));
        assert_eq!(*q.values().at(1, 1), 255);
    }

    /// The rounding rule `quantize_activation` must reproduce bit for bit.
    fn libm_quantize(v: f32, scale: f32, q_max: f32) -> u8 {
        (v / scale).round().clamp(0.0, q_max) as u8
    }

    #[test]
    fn quantize_activation_matches_the_libm_rounding() {
        let mut inputs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        for h in 0..=255u8 {
            let half = f32::from(h) + 0.5;
            inputs.extend([half, half.next_down(), half.next_up()]);
        }
        // Negatives, including the values just past -0.5 and -1.5 that round
        // to -0 and -1 (and clamp to 0), and the negative NaN.
        inputs.extend([-0.5, -0.5f32.next_down(), -0.5f32.next_up(), -1.0, -1.5]);
        inputs.extend([-1.5f32.next_up(), -1e30, f32::MIN, -f32::NAN]);
        // Subnormals, the smallest normal, and values past A4's and A8's
        // `q_max`.
        inputs.extend([f32::from_bits(1), f32::from_bits(0x007f_ffff)]);
        inputs.extend([-f32::from_bits(1), f32::MIN_POSITIVE]);
        inputs.extend([15.5, 16.0, 255.5, 256.0, 8_388_607.5, 8_388_608.0]);
        inputs.extend([16_777_217.0, 1e10, f32::MAX]);
        let a4 = QuantScheme {
            bits: BitWidth::Four,
            ..QuantScheme::activation_a8()
        };
        for q_max in [QuantScheme::activation_a8().q_max(), a4.q_max()] {
            for scale in [1.0, 0.0123, 16.0, f32::from_bits(1)] {
                for &v in &inputs {
                    assert_eq!(
                        quantize_activation(v, scale, q_max),
                        libm_quantize(v, scale, q_max),
                        "v = {v:e} ({:#010x}), scale {scale:e}, q_max {q_max}",
                        v.to_bits()
                    );
                }
            }
        }
    }

    /// Every one of the 2^32 bit patterns of `v` at one scale, for A8's and
    /// A4's `q_max` (about 60 s in a release build).
    #[test]
    #[ignore = "sweeps 2^33 inputs; run in release"]
    fn quantize_activation_matches_the_libm_rounding_on_every_f32() {
        let scale = 0.0123;
        let a4 = QuantScheme {
            bits: BitWidth::Four,
            ..QuantScheme::activation_a8()
        };
        for q_max in [QuantScheme::activation_a8().q_max(), a4.q_max()] {
            let mismatches = (0..=u32::MAX)
                .map(f32::from_bits)
                .filter(|&v| quantize_activation(v, scale, q_max) != libm_quantize(v, scale, q_max))
                .count();
            assert_eq!(mismatches, 0, "q_max {q_max}");
        }
    }

    #[test]
    fn weight_quantization_is_per_kernel() {
        // Column 0 has range 0.127, column 1 has range 1.27.
        let w = mat(&[0.127, 1.27, -0.0635, -0.635], 2, 2);
        let q = quantize_weights(&w, &QuantScheme::weight_w8());
        assert_eq!(q.values().as_slice(), &[127, 127, -64, -64]);
        assert!((q.scale(0) - 0.001).abs() < 1e-6);
        assert!((q.scale(1) - 0.01).abs() < 1e-6);
        let d = dequantize_weights(&q);
        for (a, b) in d.as_slice().iter().zip(w.as_slice()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn quantized_matmul_approximates_float_matmul() {
        let x = mat(&[0.0, 1.0, 2.0, 0.5, 1.5, 2.5], 2, 3);
        let w = mat(&[0.1, -0.2, 0.3, 0.4, -0.5, 0.6], 3, 2);
        let qx = quantize_activations(&x, &QuantScheme::activation_a8(), None);
        let qw = quantize_weights(&w, &QuantScheme::weight_w8());
        let ctx = ExecContext::sequential();
        let qy = quantized_matmul_with(&ctx, &qx, &qw).unwrap();
        // Float reference.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for p in 0..3 {
                    acc += x.at(i, p) * w.at(p, j);
                }
                assert!((qy.at(i, j) - acc).abs() < 0.05, "{} vs {acc}", qy.at(i, j));
            }
        }
    }

    #[test]
    fn quantized_matmul_rejects_mismatch() {
        let qx = QuantMatrix::zeros(2, 3, 1.0);
        let qw = QuantWeightMatrix::with_uniform_scale(Matrix::zeros(4, 2), 1.0);
        let ctx = ExecContext::sequential();
        assert!(quantized_matmul_with(&ctx, &qx, &qw).is_err());
    }

    #[test]
    fn reduce_activation_matrix_to_4bit() {
        let x = Matrix::from_vec(vec![0u8, 7, 8, 200, 255, 16], 2, 3).unwrap();
        let q = QuantMatrix::new(x, 0.5);
        let r = reduce_activation_matrix(&q, BitWidth::Four);
        assert_eq!(r.scale(), 8.0);
        // 0 -> 0, 7 -> round(7/16)=0, 8 -> 1, 200 -> round(200/16)=13, 255 -> 15 (clamped), 16 -> 1
        assert_eq!(r.values().as_slice(), &[0, 0, 1, 13, 15, 1]);
        // 8-bit request is a no-op.
        let same = reduce_activation_matrix(&q, BitWidth::Eight);
        assert_eq!(&same, &q);
    }

    #[test]
    fn reduce_weight_matrix_to_4bit() {
        let w = Matrix::from_vec(vec![0i8, 7, -8, 100, -128, 127], 3, 2).unwrap();
        let q = QuantWeightMatrix::new(w, vec![0.1, 0.2]).unwrap();
        let r = reduce_weight_matrix(&q, BitWidth::Four);
        assert_eq!(r.scales(), &[0.1 * 16.0, 0.2 * 16.0]);
        // 0->0, 7->0 (round(7/16)=0), -8->-1 (round(-8/16)=-0.5 rounds away from zero), 100->6, -128->-8, 127->7 (clamped)
        assert_eq!(r.values().as_slice(), &[0, 0, -1, 6, -8, 7]);
    }
}
