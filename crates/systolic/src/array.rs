//! Cycle-level output-stationary systolic array simulation.
//!
//! The array is a grid of [`ProcessingElement`]s. Activations enter from the
//! left (one matrix row per array row), weights from the top (one matrix
//! column per array column), both skewed so that the operands that belong to
//! the same reduction index meet in the right PE at the right cycle. Each PE
//! accumulates its output element locally (output stationary) and the result
//! drains once the streaming finishes.

use serde::{Deserialize, Serialize};

use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::exec::ExecContext;
use nbsmt_tensor::tensor::Matrix;

use crate::pe::ProcessingElement;
use crate::schedule::{Tile, TilingPlan};

/// Configuration of a systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystolicConfig {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
}

impl SystolicConfig {
    /// The paper's 16×16 evaluation configuration.
    pub fn paper_16x16() -> Self {
        SystolicConfig { rows: 16, cols: 16 }
    }

    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        SystolicConfig { rows, cols }
    }

    /// Number of PEs in the array.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }
}

impl Default for SystolicConfig {
    fn default() -> Self {
        Self::paper_16x16()
    }
}

/// Statistics collected while executing a matmul on the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total cycles, including skew-in/drain-out latency per tile.
    pub cycles: u64,
    /// PE-cycle slots in which a PE held operands (streaming slots).
    pub pe_active_cycles: u64,
    /// PE-cycle slots in which a PE had two non-zero operands.
    pub pe_busy_cycles: u64,
    /// Effectual MAC operations performed (same as busy cycles for the
    /// baseline array).
    pub mac_ops: u64,
    /// Number of output tiles executed.
    pub tiles: u64,
}

impl SimStats {
    /// Array utilization: fraction of streaming PE slots with real work.
    pub fn utilization(&self) -> f64 {
        if self.pe_active_cycles == 0 {
            0.0
        } else {
            self.pe_busy_cycles as f64 / self.pe_active_cycles as f64
        }
    }

    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.pe_active_cycles += other.pe_active_cycles;
        self.pe_busy_cycles += other.pe_busy_cycles;
        self.mac_ops += other.mac_ops;
        self.tiles += other.tiles;
    }
}

/// Result of executing a matmul on the array: the integer output matrix and
/// the simulation statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutput {
    /// The `M×N` integer output.
    pub output: Matrix<i64>,
    /// Cycle and utilization statistics.
    pub stats: SimStats,
}

/// A conventional (single-threaded) output-stationary systolic array.
#[derive(Debug, Clone)]
pub struct OutputStationaryArray {
    config: SystolicConfig,
}

impl OutputStationaryArray {
    /// Creates an array with the given configuration.
    pub fn new(config: SystolicConfig) -> Self {
        OutputStationaryArray { config }
    }

    /// The array configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// Executes the matmul `X (M×K) · W (K×N)` tile by tile, cycle by cycle.
    ///
    /// `X` carries unsigned 8-bit activations and `W` signed 8-bit weights,
    /// exactly as in the paper's quantized setup. Output tiles are simulated
    /// concurrently on `ctx`'s worker pool (each tile walks its own PE grid
    /// cycle by cycle), outputs are drained and statistics merged **in tile
    /// order**, so the result is identical for every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when `X.cols() != W.rows()`.
    pub fn matmul_with(
        &self,
        ctx: &ExecContext,
        x: &Matrix<u8>,
        w: &Matrix<i8>,
    ) -> Result<SimOutput, TensorError> {
        if x.cols() != w.rows() {
            return Err(TensorError::DimensionMismatch {
                op: "systolic matmul",
                lhs: vec![x.rows(), x.cols()],
                rhs: vec![w.rows(), w.cols()],
            });
        }
        let (m, k, n) = (x.rows(), x.cols(), w.cols());
        let plan = TilingPlan::new(m, k, n, self.config.rows, self.config.cols);
        let tiles: Vec<Tile> = plan.tiles().collect();
        let per_tile = ctx.map_tiles(tiles.len(), |t| Self::run_tile(&plan, x, w, k, tiles[t]));

        let mut out = Matrix::<i64>::zeros(m, n);
        let mut stats = SimStats::default();
        // Deterministic drain + reduction: tile order, independent of which
        // worker simulated each tile.
        for (tile, (psums, tile_stats)) in tiles.iter().zip(per_tile.iter()) {
            for i in 0..tile.rows() {
                for j in 0..tile.cols() {
                    *out.at_mut(tile.row_start + i, tile.col_start + j) =
                        psums[i * tile.cols() + j];
                }
            }
            stats.merge(tile_stats);
        }
        Ok(SimOutput { output: out, stats })
    }

    /// Simulates one output tile on a fresh local PE grid, returning the
    /// tile's partial sums (row-major over the tile) and its statistics.
    fn run_tile(
        plan: &TilingPlan,
        x: &Matrix<u8>,
        w: &Matrix<i8>,
        k: usize,
        tile: Tile,
    ) -> (Vec<i64>, SimStats) {
        let tile_rows = tile.rows();
        let tile_cols = tile.cols();
        let mut grid = vec![ProcessingElement::new(); tile_rows * tile_cols];
        // Stream the reduction dimension through the grid with skew:
        // PE (i, j) consumes reduction index p = cycle - i - j when
        // 0 <= p < K.  Iterating cycles reproduces the exact wavefront
        // behaviour of the hardware.
        let total_stream_cycles = k + tile_rows + tile_cols - 2;
        for cycle in 0..total_stream_cycles {
            for i in 0..tile_rows {
                for j in 0..tile_cols {
                    let skew = i + j;
                    if cycle < skew {
                        continue;
                    }
                    let p = cycle - skew;
                    if p >= k {
                        continue;
                    }
                    let xv = *x.at(tile.row_start + i, p);
                    let wv = *w.at(p, tile.col_start + j);
                    let pe = &mut grid[i * tile_cols + j];
                    pe.step(xv, wv);
                }
            }
        }
        let mut active = 0u64;
        let mut busy = 0u64;
        let mut macs = 0u64;
        for pe in &grid {
            active += pe.active_cycles();
            busy += pe.busy_cycles();
            macs += pe.mac_ops();
        }
        let psums = grid.iter().map(|pe| pe.psum()).collect();
        (
            psums,
            SimStats {
                cycles: plan.cycles_per_tile(),
                pe_active_cycles: active,
                pe_busy_cycles: busy,
                mac_ops: macs,
                tiles: 1,
            },
        )
    }

    /// Estimates cycles and utilization without streaming every PE slot,
    /// using the tiling plan for cycles and the exact operand-pair census for
    /// utilization. Produces the same [`SimStats`] totals as [`Self::matmul_with`]
    /// but in `O(M·K·N)` without per-cycle overhead; used for large layers.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when `X.cols() != W.rows()`.
    pub fn estimate(&self, x: &Matrix<u8>, w: &Matrix<i8>) -> Result<SimStats, TensorError> {
        if x.cols() != w.rows() {
            return Err(TensorError::DimensionMismatch {
                op: "systolic estimate",
                lhs: vec![x.rows(), x.cols()],
                rhs: vec![w.rows(), w.cols()],
            });
        }
        let (m, k, n) = (x.rows(), x.cols(), w.cols());
        let plan = TilingPlan::new(m, k, n, self.config.rows, self.config.cols);
        let mut busy = 0u64;
        let xv = x.as_slice();
        let wv = w.as_slice();
        for i in 0..m {
            for p in 0..k {
                let xval = xv[i * k + p];
                if xval == 0 {
                    continue;
                }
                for j in 0..n {
                    if wv[p * n + j] != 0 {
                        busy += 1;
                    }
                }
            }
        }
        Ok(SimStats {
            cycles: plan.total_cycles(),
            pe_active_cycles: plan.total_macs(),
            pe_busy_cycles: busy,
            mac_ops: busy,
            tiles: plan.tile_count() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x_mat(data: Vec<u8>, rows: usize, cols: usize) -> Matrix<u8> {
        Matrix::from_vec(data, rows, cols).unwrap()
    }

    fn w_mat(data: Vec<i8>, rows: usize, cols: usize) -> Matrix<i8> {
        Matrix::from_vec(data, rows, cols).unwrap()
    }

    fn reference(x: &Matrix<u8>, w: &Matrix<i8>) -> Matrix<i64> {
        let (m, k, n) = (x.rows(), x.cols(), w.cols());
        let mut out = vec![0_i64; m * n];
        ExecContext::sequential().gemm_u8i8(m, k, n, x.as_slice(), w.as_slice(), &mut out);
        Matrix::from_vec(out, m, n).unwrap()
    }

    #[test]
    fn small_matmul_matches_reference() {
        let ctx = ExecContext::sequential();
        let x = x_mat(vec![1, 2, 3, 4, 5, 6], 2, 3);
        let w = w_mat(vec![7, -8, 9, 10, -11, 12], 3, 2);
        let array = OutputStationaryArray::new(SystolicConfig::new(4, 4));
        let out = array.matmul_with(&ctx, &x, &w).unwrap();
        assert_eq!(out.output, reference(&x, &w));
    }

    #[test]
    fn tiled_matmul_matches_reference() {
        // Bigger than the array in both output dimensions.
        let ctx = ExecContext::sequential();
        let (m, k, n) = (9, 11, 7);
        let x_data: Vec<u8> = (0..m * k).map(|i| ((i * 37 + 11) % 251) as u8).collect();
        let w_data: Vec<i8> = (0..k * n)
            .map(|i| (((i * 53) % 255) as i16 - 127) as i8)
            .collect();
        let x = x_mat(x_data, m, k);
        let w = w_mat(w_data, k, n);
        let array = OutputStationaryArray::new(SystolicConfig::new(4, 4));
        let out = array.matmul_with(&ctx, &x, &w).unwrap();
        assert_eq!(out.output, reference(&x, &w));
        assert_eq!(out.stats.tiles, 3 * 2);
    }

    #[test]
    fn cycle_count_matches_plan() {
        let ctx = ExecContext::sequential();
        let x = x_mat(vec![1; 8 * 10], 8, 10);
        let w = w_mat(vec![1; 10 * 8], 10, 8);
        let cfg = SystolicConfig::new(4, 4);
        let array = OutputStationaryArray::new(cfg);
        let out = array.matmul_with(&ctx, &x, &w).unwrap();
        let plan = TilingPlan::new(8, 10, 8, 4, 4);
        assert_eq!(out.stats.cycles, plan.total_cycles());
    }

    #[test]
    fn utilization_reflects_sparsity() {
        // Half the activations are zero -> utilization around 0.5.
        let ctx = ExecContext::sequential();
        let (m, k, n) = (8, 32, 8);
        let x_data: Vec<u8> = (0..m * k)
            .map(|i| if i % 2 == 0 { 0 } else { 100 })
            .collect();
        let w_data: Vec<i8> = vec![7; k * n];
        let x = x_mat(x_data, m, k);
        let w = w_mat(w_data, k, n);
        let array = OutputStationaryArray::new(SystolicConfig::new(8, 8));
        let out = array.matmul_with(&ctx, &x, &w).unwrap();
        assert!((out.stats.utilization() - 0.5).abs() < 0.01);
    }

    #[test]
    fn dense_inputs_fully_utilize() {
        let ctx = ExecContext::sequential();
        let x = x_mat(vec![9; 4 * 6], 4, 6);
        let w = w_mat(vec![3; 6 * 4], 6, 4);
        let array = OutputStationaryArray::new(SystolicConfig::new(4, 4));
        let out = array.matmul_with(&ctx, &x, &w).unwrap();
        assert!((out.stats.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(out.stats.mac_ops, 4 * 6 * 4);
    }

    #[test]
    fn estimate_matches_cycle_level_stats() {
        let ctx = ExecContext::sequential();
        let (m, k, n) = (10, 14, 9);
        let x_data: Vec<u8> = (0..m * k).map(|i| ((i * 29) % 200) as u8).collect();
        let w_data: Vec<i8> = (0..k * n)
            .map(|i| {
                if i % 5 == 0 {
                    0
                } else {
                    ((i % 250) as i16 - 120) as i8
                }
            })
            .collect();
        let x = x_mat(x_data, m, k);
        let w = w_mat(w_data, k, n);
        let cfg = SystolicConfig::new(4, 4);
        let array = OutputStationaryArray::new(cfg);
        let exact = array.matmul_with(&ctx, &x, &w).unwrap();
        let est = array.estimate(&x, &w).unwrap();
        assert_eq!(est.cycles, exact.stats.cycles);
        assert_eq!(est.pe_busy_cycles, exact.stats.pe_busy_cycles);
        assert_eq!(est.mac_ops, exact.stats.mac_ops);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let ctx = ExecContext::sequential();
        let x = x_mat(vec![1; 4], 2, 2);
        let w = w_mat(vec![1; 3], 3, 1);
        let array = OutputStationaryArray::new(SystolicConfig::new(2, 2));
        assert!(array.matmul_with(&ctx, &x, &w).is_err());
        assert!(array.estimate(&x, &w).is_err());
    }

    #[test]
    fn config_helpers() {
        let cfg = SystolicConfig::paper_16x16();
        assert_eq!(cfg.pe_count(), 256);
        assert_eq!(SystolicConfig::default(), cfg);
    }

    #[test]
    #[should_panic(expected = "array dimensions must be positive")]
    fn zero_config_panics() {
        SystolicConfig::new(0, 1);
    }
}
