//! Statistical data arrangement (column reordering).
//!
//! Section IV-B of the paper: given the layer's activation matrix `X (M×K)`
//! and weight matrix `W (K×N)`, the K dimension is split between threads.
//! Thread collisions are reduced by reordering the columns of `X` (and the
//! corresponding rows of `W`) so that a column likely to hold wide (8-bit)
//! values is paired with a column likely to hold zeros, and narrow (4-bit)
//! columns are paired together. The order is derived from statistics gathered
//! once on a calibration subset and is static at runtime.

use serde::{Deserialize, Serialize};

use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_tensor::tensor::Matrix;

use crate::stats::{per_column_wide_fraction, per_column_zero_fraction};

/// A reordering of the K (reduction) dimension shared by the activation
/// columns and the weight rows of one layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnOrder {
    /// `order[i]` is the original column index placed at position `i`.
    order: Vec<usize>,
}

impl ColumnOrder {
    /// The identity order over `k` columns.
    pub fn identity(k: usize) -> Self {
        ColumnOrder {
            order: (0..k).collect(),
        }
    }

    /// Creates an order from an explicit permutation.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_permutation(order: Vec<usize>) -> Self {
        let mut seen = vec![false; order.len()];
        for &i in &order {
            assert!(i < order.len() && !seen[i], "not a permutation");
            seen[i] = true;
        }
        ColumnOrder { order }
    }

    /// Number of columns covered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when the order is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The permutation slice (`result[i]` = original index at position `i`).
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// Returns `true` if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.order.iter().enumerate().all(|(i, &o)| i == o)
    }

    /// Applies the order to the columns of an activation matrix.
    ///
    /// # Panics
    ///
    /// Panics when the matrix column count differs from the order length.
    pub fn apply_to_activation(&self, x: &QuantMatrix) -> QuantMatrix {
        assert_eq!(x.cols(), self.order.len(), "column count mismatch");
        let (rows, cols) = (x.rows(), x.cols());
        let src = x.values().as_slice();
        let mut out = vec![0u8; rows * cols];
        for r in 0..rows {
            for (new_c, &old_c) in self.order.iter().enumerate() {
                out[r * cols + new_c] = src[r * cols + old_c];
            }
        }
        QuantMatrix::new(
            Matrix::from_vec(out, rows, cols).expect("same dims"),
            x.scale(),
        )
    }

    /// Applies the order to the rows of a weight matrix (keeping it aligned
    /// with the reordered activation columns).
    ///
    /// # Panics
    ///
    /// Panics when the matrix row count differs from the order length.
    pub fn apply_to_weights(&self, w: &QuantWeightMatrix) -> QuantWeightMatrix {
        assert_eq!(w.rows(), self.order.len(), "row count mismatch");
        let (rows, cols) = (w.rows(), w.cols());
        let src = w.values().as_slice();
        let mut out = vec![0i8; rows * cols];
        for (new_r, &old_r) in self.order.iter().enumerate() {
            out[new_r * cols..(new_r + 1) * cols]
                .copy_from_slice(&src[old_r * cols..(old_r + 1) * cols]);
        }
        QuantWeightMatrix::new(
            Matrix::from_vec(out, rows, cols).expect("same dims"),
            w.scales().to_vec(),
        )
        .expect("scales preserved")
    }
}

/// Builds a collision-avoiding column order for a 2-threaded split of the K
/// dimension from calibration statistics of the activation matrix.
///
/// The K columns are sorted by "computation demand" (the per-column fraction
/// of wide, 8-bit values, with the zero fraction as a tiebreaker). The most
/// demanding columns are assigned to the first thread half and the least
/// demanding to the second half in opposite rank order, so that at each
/// position `i` the first thread's column (rank `i`) is paired with the
/// second thread's column (rank `K-1-i`): heavy columns meet light columns
/// and narrow columns meet narrow columns, exactly the pairing goal of
/// Fig. 4.
pub fn reorder_for_two_threads(calibration: &QuantMatrix) -> ColumnOrder {
    let k = calibration.cols();
    if k < 2 {
        return ColumnOrder::identity(k);
    }
    let wide = per_column_wide_fraction(calibration);
    let zero = per_column_zero_fraction(calibration);
    // Demand score: wide columns are the most demanding; zero-heavy columns
    // the least.
    let mut ranked: Vec<usize> = (0..k).collect();
    ranked.sort_by(|&a, &b| {
        let da = wide[a] - zero[a];
        let db = wide[b] - zero[b];
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    // First half positions (thread 1): take demanding columns in order.
    // Second half positions (thread 2): take remaining columns so that
    // position i of thread 2 holds the (k-1-i)-th ranked column.
    let half = k / 2;
    let mut order = vec![0usize; k];
    order[..half].copy_from_slice(&ranked[..half]);
    let second_len = k - half;
    for i in 0..second_len {
        order[half + i] = ranked[k - 1 - i];
    }
    ColumnOrder::from_permutation(order)
}

/// Builds a collision-avoiding order for a `threads`-way split: columns are
/// ranked by demand and dealt snake-wise across the thread segments so each
/// position mixes demanding and light columns.
///
/// # Panics
///
/// Panics when `threads == 0`.
pub fn reorder_for_threads(calibration: &QuantMatrix, threads: usize) -> ColumnOrder {
    assert!(threads > 0, "thread count must be positive");
    let k = calibration.cols();
    if threads == 1 || k < threads {
        return ColumnOrder::identity(k);
    }
    if threads == 2 {
        return reorder_for_two_threads(calibration);
    }
    let wide = per_column_wide_fraction(calibration);
    let zero = per_column_zero_fraction(calibration);
    let mut ranked: Vec<usize> = (0..k).collect();
    ranked.sort_by(|&a, &b| {
        let da = wide[a] - zero[a];
        let db = wide[b] - zero[b];
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });
    // Segment s gets positions [s*seg, (s+1)*seg). Deal ranked columns
    // snake-wise across segments position by position.
    let seg = k / threads;
    let mut segments: Vec<Vec<usize>> = vec![Vec::new(); threads];
    let mut idx = 0usize;
    let mut pos = 0usize;
    while idx < k {
        let forward = pos.is_multiple_of(2);
        for t in 0..threads {
            if idx >= k {
                break;
            }
            let t = if forward { t } else { threads - 1 - t };
            if segments[t].len() < seg || pos >= seg {
                segments[t].push(ranked[idx]);
                idx += 1;
            }
        }
        pos += 1;
    }
    let mut order = Vec::with_capacity(k);
    for s in segments {
        order.extend(s);
    }
    // Any leftover (when threads does not divide k) keeps ranked order.
    ColumnOrder::from_permutation(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_tensor::exec::ExecContext;

    fn qx(data: Vec<u8>, rows: usize, cols: usize) -> QuantMatrix {
        QuantMatrix::new(Matrix::from_vec(data, rows, cols).unwrap(), 1.0)
    }

    #[test]
    fn identity_round_trip() {
        let x = qx(vec![1, 2, 3, 4, 5, 6], 2, 3);
        let id = ColumnOrder::identity(3);
        assert!(id.is_identity());
        assert_eq!(id.apply_to_activation(&x), x);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_permutation_validates() {
        ColumnOrder::from_permutation(vec![0, 0, 1]);
    }

    #[test]
    fn apply_to_activation_permutes_columns() {
        let x = qx(vec![1, 2, 3, 4, 5, 6], 2, 3);
        let ord = ColumnOrder::from_permutation(vec![2, 0, 1]);
        let y = ord.apply_to_activation(&x);
        assert_eq!(y.values().as_slice(), &[3, 1, 2, 6, 4, 5]);
    }

    #[test]
    fn apply_to_weights_permutes_rows_and_keeps_scales() {
        let w = QuantWeightMatrix::new(
            Matrix::from_vec(vec![1i8, 2, 3, 4, 5, 6], 3, 2).unwrap(),
            vec![0.1, 0.2],
        )
        .unwrap();
        let ord = ColumnOrder::from_permutation(vec![2, 0, 1]);
        let y = ord.apply_to_weights(&w);
        assert_eq!(y.values().as_slice(), &[5, 6, 1, 2, 3, 4]);
        assert_eq!(y.scales(), &[0.1, 0.2]);
    }

    #[test]
    fn reorder_keeps_matmul_result_invariant() {
        // Permuting X columns together with W rows must not change X·W.
        let x = qx(vec![3, 0, 200, 17, 5, 0, 120, 80], 2, 4);
        let w = QuantWeightMatrix::with_uniform_scale(
            Matrix::from_vec(vec![1i8, -2, 3, -4, 5, -6, 7, -8], 4, 2).unwrap(),
            1.0,
        );
        let ord = reorder_for_two_threads(&x);
        let xr = ord.apply_to_activation(&x);
        let wr = ord.apply_to_weights(&w);
        let ctx = ExecContext::sequential();
        let y0 = nbsmt_quant::quantize::quantized_matmul_with(&ctx, &x, &w).unwrap();
        let y1 = nbsmt_quant::quantize::quantized_matmul_with(&ctx, &xr, &wr).unwrap();
        for (a, b) in y0.as_slice().iter().zip(y1.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn two_thread_reorder_pairs_heavy_with_light() {
        // 4 columns: col0 always wide, col1 always wide, col2 always zero,
        // col3 always narrow.
        let rows = 8;
        let mut data = Vec::new();
        for _ in 0..rows {
            data.extend_from_slice(&[200u8, 150, 0, 3]);
        }
        let x = qx(data, rows, 4);
        let ord = reorder_for_two_threads(&x);
        // Thread 1 owns positions 0..2, thread 2 owns positions 2..4.
        // Pairing: position 0 pairs with position 2, position 1 with 3.
        let o = ord.as_slice();
        let pair_a = (o[0], o[2]);
        let pair_b = (o[1], o[3]);
        // The wide columns (0 and 1) must not be paired together.
        let wides = [0usize, 1usize];
        assert!(
            !(wides.contains(&pair_a.0) && wides.contains(&pair_a.1)),
            "pair {pair_a:?} places two wide columns together"
        );
        assert!(
            !(wides.contains(&pair_b.0) && wides.contains(&pair_b.1)),
            "pair {pair_b:?} places two wide columns together"
        );
    }

    #[test]
    fn reorder_small_or_single_thread_is_identity() {
        let x = qx(vec![1], 1, 1);
        assert!(reorder_for_two_threads(&x).is_identity());
        let x = qx(vec![1, 2, 3, 4], 1, 4);
        assert!(reorder_for_threads(&x, 1).is_identity());
    }

    #[test]
    fn reorder_for_threads_is_a_permutation() {
        let rows = 4;
        let cols = 12;
        let data: Vec<u8> = (0..rows * cols).map(|i| (i * 37 % 256) as u8).collect();
        let x = qx(data, rows, cols);
        for threads in [2usize, 4] {
            let ord = reorder_for_threads(&x, threads);
            assert_eq!(ord.len(), cols);
            let mut seen: Vec<usize> = ord.as_slice().to_vec();
            seen.sort_unstable();
            assert_eq!(seen, (0..cols).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn reorder_zero_threads_panics() {
        let x = qx(vec![1, 2], 1, 2);
        reorder_for_threads(&x, 0);
    }
}
