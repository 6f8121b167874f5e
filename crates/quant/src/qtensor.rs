//! Quantized matrix containers: the operands of every quantized GEMM.
//!
//! Activations are carried as unsigned 8-bit integers with a single per-layer
//! scale; weights are carried as signed 8-bit integers with one scale per
//! output channel (kernel). Dot products therefore need only two scaling
//! factors, matching the paper's "efficient hardware implementation" note.

use serde::{Deserialize, Serialize};

use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::tensor::Matrix;

/// A quantized activation matrix: `u8` values plus one per-layer scale.
///
/// Rows correspond to output pixels (im2col rows), columns to the reduction
/// dimension `K`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantMatrix {
    values: Matrix<u8>,
    scale: f32,
}

impl QuantMatrix {
    /// Wraps a `u8` matrix and its scale.
    pub fn new(values: Matrix<u8>, scale: f32) -> Self {
        QuantMatrix { values, scale }
    }

    /// Creates a zero-filled quantized matrix.
    pub fn zeros(rows: usize, cols: usize, scale: f32) -> Self {
        QuantMatrix {
            values: Matrix::zeros(rows, cols),
            scale,
        }
    }

    /// The underlying integer matrix.
    pub fn values(&self) -> &Matrix<u8> {
        &self.values
    }

    /// Mutable access to the underlying integer matrix.
    pub fn values_mut(&mut self) -> &mut Matrix<u8> {
        &mut self.values
    }

    /// The per-layer scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.values.rows()
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.values.cols()
    }

    /// Dequantizes a single element.
    pub fn real(&self, r: usize, c: usize) -> f32 {
        *self.values.at(r, c) as f32 * self.scale
    }

    /// Fraction of exactly-zero entries.
    pub fn sparsity(&self) -> f64 {
        let total = self.values.as_slice().len();
        if total == 0 {
            return 0.0;
        }
        let zeros = self.values.as_slice().iter().filter(|&&v| v == 0).count();
        zeros as f64 / total as f64
    }

    /// Fraction of entries that fit in the 4-bit LSBs (value < 16),
    /// *excluding* exact zeros.
    pub fn narrow_fraction(&self) -> f64 {
        let total = self.values.as_slice().len();
        if total == 0 {
            return 0.0;
        }
        let narrow = self
            .values
            .as_slice()
            .iter()
            .filter(|&&v| v != 0 && v < 16)
            .count();
        narrow as f64 / total as f64
    }
}

/// A quantized weight matrix: `i8` values with one scale per column.
///
/// Rows correspond to the reduction dimension `K`, columns to output channels
/// (kernels), so `scales.len() == cols`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantWeightMatrix {
    values: Matrix<i8>,
    scales: Vec<f32>,
}

impl QuantWeightMatrix {
    /// Wraps an `i8` matrix and its per-column scales.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `scales.len()` does not
    /// equal the number of columns.
    pub fn new(values: Matrix<i8>, scales: Vec<f32>) -> Result<Self, TensorError> {
        if scales.len() != values.cols() {
            return Err(TensorError::InvalidArgument(format!(
                "expected {} per-kernel scales, got {}",
                values.cols(),
                scales.len()
            )));
        }
        Ok(QuantWeightMatrix { values, scales })
    }

    /// Creates a weight matrix with a single shared scale for every column.
    pub fn with_uniform_scale(values: Matrix<i8>, scale: f32) -> Self {
        let scales = vec![scale; values.cols()];
        QuantWeightMatrix { values, scales }
    }

    /// The underlying integer matrix.
    pub fn values(&self) -> &Matrix<i8> {
        &self.values
    }

    /// Mutable access to the underlying integer matrix.
    pub fn values_mut(&mut self) -> &mut Matrix<i8> {
        &mut self.values
    }

    /// Per-kernel scales (one per column).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Scale of column `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of range.
    pub fn scale(&self, c: usize) -> f32 {
        self.scales[c]
    }

    /// Number of rows (the reduction dimension).
    pub fn rows(&self) -> usize {
        self.values.rows()
    }

    /// Number of columns (output channels).
    pub fn cols(&self) -> usize {
        self.values.cols()
    }

    /// Dequantizes a single element.
    pub fn real(&self, r: usize, c: usize) -> f32 {
        *self.values.at(r, c) as f32 * self.scales[c]
    }

    /// Fraction of exactly-zero entries (pruned weights).
    pub fn sparsity(&self) -> f64 {
        let total = self.values.as_slice().len();
        if total == 0 {
            return 0.0;
        }
        let zeros = self.values.as_slice().iter().filter(|&&v| v == 0).count();
        zeros as f64 / total as f64
    }

    /// Fraction of entries representable in a signed 4-bit nibble
    /// (`-8 ..= 7`), excluding exact zeros.
    pub fn narrow_fraction(&self) -> f64 {
        let total = self.values.as_slice().len();
        if total == 0 {
            return 0.0;
        }
        let narrow = self
            .values
            .as_slice()
            .iter()
            .filter(|&&v| v != 0 && (-8..=7).contains(&v))
            .count();
        narrow as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quant_matrix_accessors() {
        let m = Matrix::from_vec(vec![0u8, 5, 16, 200], 2, 2).unwrap();
        let q = QuantMatrix::new(m, 0.5);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.cols(), 2);
        assert_eq!(q.real(1, 1), 100.0);
        assert_eq!(q.scale(), 0.5);
        assert!((q.sparsity() - 0.25).abs() < 1e-12);
        // 5 is narrow (non-zero, < 16); 16 and 200 are not; 0 excluded.
        assert!((q.narrow_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn quant_matrix_zeros() {
        let q = QuantMatrix::zeros(3, 4, 1.0);
        assert_eq!(q.rows(), 3);
        assert_eq!(q.cols(), 4);
        assert_eq!(q.sparsity(), 1.0);
        assert_eq!(q.narrow_fraction(), 0.0);
    }

    #[test]
    fn weight_matrix_per_kernel_scales() {
        let m = Matrix::from_vec(vec![1i8, -2, 3, -4], 2, 2).unwrap();
        let q = QuantWeightMatrix::new(m.clone(), vec![0.1, 0.2]).unwrap();
        assert!((q.real(0, 0) - 0.1).abs() < 1e-6);
        assert!((q.real(0, 1) - (-0.4)).abs() < 1e-6);
        assert_eq!(q.scale(1), 0.2);
        assert!(QuantWeightMatrix::new(m.clone(), vec![0.1]).is_err());
        let u = QuantWeightMatrix::with_uniform_scale(m, 0.3);
        assert_eq!(u.scales(), &[0.3, 0.3]);
    }

    #[test]
    fn weight_matrix_sparsity_and_narrowness() {
        let m = Matrix::from_vec(vec![0i8, 7, -8, 100, 0, -100], 3, 2).unwrap();
        let q = QuantWeightMatrix::with_uniform_scale(m, 1.0);
        assert!((q.sparsity() - 2.0 / 6.0).abs() < 1e-12);
        assert!((q.narrow_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }
}
