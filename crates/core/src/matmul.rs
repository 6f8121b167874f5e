//! Functional NB-SMT matrix-multiplication emulation.
//!
//! This is the numerical core of the reproduction: it computes the output of
//! a quantized layer exactly as a SySMT array would, including every
//! collision decision, precision reduction, and shift, but without simulating
//! the spatial grid cycle by cycle. The emulation operates on the same
//! integer grid as the hardware, so the error it introduces relative to the
//! error-free quantized matmul is exactly the error the hardware would
//! introduce. It is what the accuracy experiments (Tables III–V, Figs. 7–10)
//! run on.
//!
//! Two interchangeable execution strategies produce **bit-identical**
//! results (output and [`PeStats`] alike):
//!
//! * [`NbSmtMatmul::execute_with`] — the algorithmic fast path (the
//!   crate-private `fastpath` module): an exact integer base GEMM through
//!   the execution layer's kernels plus the squeeze corrections, as u8×i8
//!   GEMMs over weight-only tables at 2T and as sparse deltas from collision
//!   bitmasks at 4T. It is [`PreparedWeights::new`] (the weight-only half)
//!   followed by [`PreparedWeights::run`]; serving builds the former once
//!   per layer and calls only the latter. This is the default and what
//!   serving and the accuracy sweeps run on.
//! * [`NbSmtMatmul::execute_event_with`] — the event-walking oracle: every
//!   PE cycle is simulated through the lane planner and flexible
//!   multiplier. The fast path is cross-checked against it property-test by
//!   property-test.

use serde::{Deserialize, Serialize};

use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_sparsity::reorder::ColumnOrder;
use nbsmt_tensor::error::TensorError;
use nbsmt_tensor::exec::{ExecConfig, ExecContext};
use nbsmt_tensor::tensor::Matrix;

use crate::fastpath;
use crate::pe::{PeStats, SmtPe2, SmtPe4, ThreadInput};
use crate::policy::SharingPolicy;
use crate::ThreadCount;

/// Configuration of an NB-SMT matmul emulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NbSmtMatmulConfig {
    /// Number of threads sharing each PE.
    pub threads: ThreadCount,
    /// Sharing policy (which sparsity / data-width paths are exploited).
    pub policy: SharingPolicy,
    /// When `true`, the K dimension is reordered with the statistical
    /// column arrangement of §IV-B before being split between threads.
    pub reorder: bool,
}

impl NbSmtMatmulConfig {
    /// The paper's default 2-threaded configuration (S+A with reordering).
    pub fn two_threads() -> Self {
        NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: true,
        }
    }
}

impl Default for NbSmtMatmulConfig {
    fn default() -> Self {
        Self::two_threads()
    }
}

/// Result of emulating one layer's matmul under NB-SMT.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NbSmtOutput {
    /// The dequantized output matrix (scaled by the activation scale and the
    /// per-kernel weight scales).
    pub output: Matrix<f32>,
    /// Aggregated PE statistics over every output element and step.
    pub stats: PeStats,
}

/// NB-SMT matmul emulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NbSmtMatmul {
    config: NbSmtMatmulConfig,
}

impl NbSmtMatmul {
    /// Creates an emulator with the given configuration.
    pub fn new(config: NbSmtMatmulConfig) -> Self {
        NbSmtMatmul { config }
    }

    /// The emulator configuration.
    pub fn config(&self) -> &NbSmtMatmulConfig {
        &self.config
    }

    /// Emulates `X (M×K) · W (K×N)` under NB-SMT and returns the dequantized
    /// output together with PE statistics, on the **algorithmic fast path**:
    /// the exact base product runs through the context's integer GEMM
    /// kernel, and the squeezed thread-slots are added on top — as
    /// correction GEMMs over weight-only tables at 2T, as sparse deltas from
    /// collision bitmasks at 4T (see the crate-private `fastpath` module).
    /// The result — output matrix and [`PeStats`]
    /// alike — is **bit-identical** to the event-walking oracle
    /// ([`Self::execute_event_with`]) for every configuration and thread
    /// count (cross-checked by the property suite in
    /// `tests/exec_equivalence.rs`).
    ///
    /// This is exactly `PreparedWeights::new(config, w).run(ctx, x, w)`: it
    /// rebuilds the weight-only tables on every call. A caller whose weights
    /// are fixed builds a [`PreparedWeights`] once per layer and calls
    /// [`PreparedWeights::run`] instead.
    ///
    /// Output rows are partitioned into tiles and fanned out over the
    /// context's worker pool, and each tile's [`PeStats`] are merged back
    /// **in tile order**, so results are also invariant to the host thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the reduction
    /// dimensions differ.
    pub fn execute_with(
        &self,
        ctx: &ExecContext,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<NbSmtOutput, TensorError> {
        PreparedWeights::new(self.config, w).run(ctx, x, w)
    }

    /// Emulates the layer by walking **every PE event** — the oracle the
    /// fast path is cross-checked against: for every output element and
    /// reduction step, the shared PE's full cycle logic runs — lane
    /// planning, flexible-multiplier products, outcome classification.
    /// Bit-identical to [`Self::execute_with`] but priced at one PE-event
    /// dispatch per MAC; kept as the oracle for the fast path and for
    /// microarchitecture-level inspection.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the reduction
    /// dimensions differ.
    pub fn execute_event_with(
        &self,
        ctx: &ExecContext,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<NbSmtOutput, TensorError> {
        check_reduction(x, w)?;
        let reordered = reordered(&self.config, x, w);
        let (x, w) = reordered.as_ref().map_or((x, w), |(x, w)| (x, w));
        run_tiles(
            ctx,
            x.rows(),
            w.cols(),
            |row_start, nrows, chunk| match self.config.threads {
                ThreadCount::One => self.rows_single(x, w, row_start, nrows, chunk),
                ThreadCount::Two => self.rows_two(x, w, row_start, nrows, chunk),
                ThreadCount::Four => self.rows_four(x, w, row_start, nrows, chunk),
            },
        )
    }

    /// Single-threaded (baseline) emulation of output rows
    /// `row_start .. row_start + nrows`: the error-free quantized matmul
    /// with baseline utilization statistics.
    fn rows_single(
        &self,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
        row_start: usize,
        nrows: usize,
        out: &mut [f32],
    ) -> PeStats {
        let (k, n) = (x.cols(), w.cols());
        let xv = x.values().as_slice();
        let wv = w.values().as_slice();
        let mut stats = PeStats::default();
        for i in row_start..row_start + nrows {
            for j in 0..n {
                let mut acc: i64 = 0;
                let mut busy = 0u64;
                for p in 0..k {
                    let xval = xv[i * k + p];
                    let wval = wv[p * n + j];
                    if xval != 0 && wval != 0 {
                        busy += 1;
                        acc += xval as i64 * wval as i64;
                    }
                }
                out[(i - row_start) * n + j] = acc as f32 * x.scale() * w.scale(j);
                stats.cycles += k as u64;
                stats.busy_cycles += busy;
                stats.active_thread_slots += busy;
            }
        }
        stats
    }

    /// 2-threaded emulation of a row range: the K dimension is split in
    /// half, both halves stream through the shared PE in parallel (Eq. 2/3).
    fn rows_two(
        &self,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
        row_start: usize,
        nrows: usize,
        out: &mut [f32],
    ) -> PeStats {
        let (k, n) = (x.cols(), w.cols());
        let pe = SmtPe2::new(self.config.policy);
        let xv = x.values().as_slice();
        let wv = w.values().as_slice();
        let half = k.div_ceil(2);
        let mut stats = PeStats::default();
        for i in row_start..row_start + nrows {
            for j in 0..n {
                let mut acc: i64 = 0;
                for s in 0..half {
                    let p0 = s;
                    let p1 = half + s;
                    let t0 = ThreadInput::new(xv[i * k + p0], wv[p0 * n + j]);
                    let t1 = if p1 < k {
                        ThreadInput::new(xv[i * k + p1], wv[p1 * n + j])
                    } else {
                        ThreadInput::new(0, 0)
                    };
                    let r = pe.cycle([t0, t1]);
                    acc += r.total();
                    stats.cycles += 1;
                    if r.stats.busy {
                        stats.busy_cycles += 1;
                    }
                    if r.stats.active_threads > 1 {
                        stats.collision_cycles += 1;
                    }
                    stats.active_thread_slots += r.stats.active_threads as u64;
                    stats.reduced_thread_slots += r.stats.reduced_threads as u64;
                }
                out[(i - row_start) * n + j] = acc as f32 * x.scale() * w.scale(j);
            }
        }
        stats
    }

    /// 4-threaded emulation of a row range: the K dimension is split into
    /// four segments.
    fn rows_four(
        &self,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
        row_start: usize,
        nrows: usize,
        out: &mut [f32],
    ) -> PeStats {
        let (k, n) = (x.cols(), w.cols());
        let pe = SmtPe4::new(self.config.policy);
        let xv = x.values().as_slice();
        let wv = w.values().as_slice();
        let seg = k.div_ceil(4);
        let mut stats = PeStats::default();
        for i in row_start..row_start + nrows {
            for j in 0..n {
                let mut acc: i64 = 0;
                for s in 0..seg {
                    let mut threads = [ThreadInput::new(0, 0); 4];
                    for (t, thread) in threads.iter_mut().enumerate() {
                        let p = t * seg + s;
                        if p < k {
                            *thread = ThreadInput::new(xv[i * k + p], wv[p * n + j]);
                        }
                    }
                    let r = pe.cycle(threads);
                    acc += r.total();
                    stats.cycles += 1;
                    if r.stats.busy {
                        stats.busy_cycles += 1;
                    }
                    if r.stats.active_threads > 1 {
                        stats.collision_cycles += 1;
                    }
                    stats.active_thread_slots += r.stats.active_threads as u64;
                    stats.reduced_thread_slots += r.stats.reduced_threads as u64;
                }
                out[(i - row_start) * n + j] = acc as f32 * x.scale() * w.scale(j);
            }
        }
        stats
    }
}

/// The weight-only half of [`NbSmtMatmul::execute_with`] for one layer under
/// one configuration: the tables the fast path reads, built only for the
/// configuration's thread count — per-row nonzero counts at 1T, the
/// correction GEMM's right-hand side and per-step counts at 2T, collision
/// bitmasks and rounded weights at 4T. Build it once where a layer's
/// weights are fixed (a serving session does, per compute layer, when it is
/// compiled) and run each call with [`Self::run`].
///
/// Under `reorder` (with more than one thread) the permutation of the K
/// dimension depends on the activations, so nothing is prepared and
/// [`Self::run`] builds the tables per call from the permuted weights.
#[derive(Debug, Clone)]
pub struct PreparedWeights {
    config: NbSmtMatmulConfig,
    /// `(k, n)` of the weights the tables were built from.
    dims: (usize, usize),
    /// `None` under `reorder`.
    tables: Option<fastpath::LayerTables>,
}

impl PreparedWeights {
    /// Builds the weight-only tables of `w` for `config`.
    pub fn new(config: NbSmtMatmulConfig, w: &QuantWeightMatrix) -> Self {
        PreparedWeights {
            config,
            dims: (w.rows(), w.cols()),
            tables: (!reorders(&config))
                .then(|| fastpath::LayerTables::new(config.threads, config.policy, w)),
        }
    }

    /// Emulates `X (M×K) · W (K×N)` on the prepared tables: the per-call
    /// half of [`NbSmtMatmul::execute_with`], with the same result bit for
    /// bit, as long as `w` is the matrix the tables were built from. Output
    /// rows fan out over `ctx`'s row tiles, and each tile runs its GEMMs on
    /// a 1-thread context of the same backend.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimensionMismatch`] when the reduction
    /// dimensions differ or `w` does not have the shape the tables were
    /// built from.
    pub fn run(
        &self,
        ctx: &ExecContext,
        x: &QuantMatrix,
        w: &QuantWeightMatrix,
    ) -> Result<NbSmtOutput, TensorError> {
        check_reduction(x, w)?;
        if (w.rows(), w.cols()) != self.dims {
            return Err(TensorError::DimensionMismatch {
                op: "nbsmt prepared weights",
                lhs: vec![self.dims.0, self.dims.1],
                rhs: vec![w.rows(), w.cols()],
            });
        }
        let reordered = reordered(&self.config, x, w);
        let (x, w) = reordered.as_ref().map_or((x, w), |(x, w)| (x, w));
        let per_call;
        let tables = match &self.tables {
            Some(tables) => tables,
            None => {
                per_call = fastpath::LayerTables::new(self.config.threads, self.config.policy, w);
                &per_call
            }
        };
        // Each row tile runs its GEMMs inline on the worker that owns it;
        // the caller's thread pool is already saturated by the tile fan-out.
        let base = ExecContext::new(ExecConfig {
            threads: 1,
            ..*ctx.config()
        });
        run_tiles(ctx, x.rows(), w.cols(), |row_start, nrows, chunk| {
            fastpath::rows_fast(
                &base,
                tables,
                self.config.policy,
                x,
                w,
                row_start,
                nrows,
                chunk,
            )
        })
    }
}

/// Whether `config` permutes the K dimension before splitting it between
/// threads (a 1-thread layer has nothing to split).
fn reorders(config: &NbSmtMatmulConfig) -> bool {
    config.reorder && config.threads.count() > 1
}

/// The operands under the statistical column arrangement of §IV-B (the
/// activations' columns and the matching weight rows), or `None` when
/// `config` does not reorder.
fn reordered(
    config: &NbSmtMatmulConfig,
    x: &QuantMatrix,
    w: &QuantWeightMatrix,
) -> Option<(QuantMatrix, QuantWeightMatrix)> {
    if !reorders(config) {
        return None;
    }
    let order = ColumnOrder::from_permutation(
        nbsmt_sparsity::reorder::reorder_for_threads(x, config.threads.count())
            .as_slice()
            .to_vec(),
    );
    Some((order.apply_to_activation(x), order.apply_to_weights(w)))
}

fn check_reduction(x: &QuantMatrix, w: &QuantWeightMatrix) -> Result<(), TensorError> {
    if x.cols() == w.rows() {
        Ok(())
    } else {
        Err(TensorError::DimensionMismatch {
            op: "nbsmt matmul",
            lhs: vec![x.rows(), x.cols()],
            rhs: vec![w.rows(), w.cols()],
        })
    }
}

/// Fans the `m × n` output out over `ctx`'s row tiles, `f(row_start, nrows,
/// chunk)` per tile, and merges the tiles' [`PeStats`] in tile order, so
/// the result does not depend on which worker produced each tile.
fn run_tiles(
    ctx: &ExecContext,
    m: usize,
    n: usize,
    f: impl Fn(usize, usize, &mut [f32]) -> PeStats + Sync,
) -> Result<NbSmtOutput, TensorError> {
    let mut out = vec![0.0_f32; m * n];
    let tile_stats = ctx.map_row_tiles(&mut out, m, n, |_tile, row_start, nrows, chunk| {
        f(row_start, nrows, chunk)
    });
    let mut stats = PeStats::default();
    for tile in &tile_stats {
        stats.merge(tile);
    }
    Ok(NbSmtOutput {
        output: Matrix::from_vec(out, m, n)?,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbsmt_quant::quantize::quantized_matmul_with;
    use nbsmt_tensor::random::{SynthesisConfig, TensorSynthesizer};

    /// Builds a random quantized layer for testing.
    fn random_layer(
        seed: u64,
        m: usize,
        k: usize,
        n: usize,
        sparsity: f64,
    ) -> (QuantMatrix, QuantWeightMatrix) {
        let mut synth = TensorSynthesizer::new(seed);
        let x_f = synth.tensor(&SynthesisConfig::activation(1.0, sparsity), &[m, k]);
        let w_f = synth.tensor(&SynthesisConfig::weight(0.3, 0.0), &[k, n]);
        let x = nbsmt_quant::quantize::quantize_activations(
            &Matrix::from_vec(x_f.into_vec(), m, k).unwrap(),
            &nbsmt_quant::scheme::QuantScheme::activation_a8(),
            None,
        );
        let w = nbsmt_quant::quantize::quantize_weights(
            &Matrix::from_vec(w_f.into_vec(), k, n).unwrap(),
            &nbsmt_quant::scheme::QuantScheme::weight_w8(),
        );
        (x, w)
    }

    fn relative_mse(a: &Matrix<f32>, b: &Matrix<f32>) -> f64 {
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            num += ((x - y) as f64).powi(2);
            den += (*y as f64).powi(2);
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    #[test]
    fn single_thread_matches_reference_exactly() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(1, 12, 30, 8, 0.5);
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::One,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        let out = emu.execute_with(&ctx, &x, &w).unwrap();
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        for (a, b) in out.output.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(out.stats.reduced_thread_slots, 0);
    }

    #[test]
    fn two_threads_with_all_narrow_values_is_exact() {
        // When every activation fits in 4 bits there are no lossy reductions.
        let ctx = ExecContext::sequential();
        let m = 6;
        let k = 20;
        let n = 5;
        let x = QuantMatrix::new(
            Matrix::from_vec((0..m * k).map(|i| (i % 16) as u8).collect(), m, k).unwrap(),
            1.0,
        );
        let w = QuantWeightMatrix::with_uniform_scale(
            Matrix::from_vec(
                (0..k * n).map(|i| ((i % 255) as i16 - 127) as i8).collect(),
                k,
                n,
            )
            .unwrap(),
            1.0,
        );
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        let out = emu.execute_with(&ctx, &x, &w).unwrap();
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        for (a, b) in out.output.as_slice().iter().zip(reference.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert_eq!(out.stats.reduced_thread_slots, 0);
    }

    #[test]
    fn two_threads_error_is_small_relative_to_signal() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(2, 16, 64, 12, 0.5);
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        let out = emu.execute_with(&ctx, &x, &w).unwrap();
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        let rel = relative_mse(&out.output, &reference);
        assert!(rel < 0.02, "relative MSE {rel} too large for 2T");
        assert!(out.stats.cycles > 0);
        assert!(out.stats.collision_cycles > 0);
    }

    #[test]
    fn four_threads_error_is_larger_than_two_threads() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(3, 16, 64, 12, 0.4);
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        let rel2 = {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Two,
                policy: SharingPolicy::S_A,
                reorder: false,
            });
            relative_mse(&emu.execute_with(&ctx, &x, &w).unwrap().output, &reference)
        };
        let rel4 = {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Four,
                policy: SharingPolicy::S_A,
                reorder: false,
            });
            relative_mse(&emu.execute_with(&ctx, &x, &w).unwrap().output, &reference)
        };
        assert!(
            rel4 >= rel2,
            "4T error {rel4} should exceed 2T error {rel2}"
        );
        assert!(rel4 < 0.2, "4T error {rel4} should still be bounded");
    }

    #[test]
    fn sparsity_policy_reduces_error_versus_naive() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(4, 12, 48, 10, 0.6);
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        let run = |policy: SharingPolicy| {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads: ThreadCount::Two,
                policy,
                reorder: false,
            });
            relative_mse(&emu.execute_with(&ctx, &x, &w).unwrap().output, &reference)
        };
        let naive = run(SharingPolicy::NAIVE);
        let s = run(SharingPolicy::S);
        let s_a = run(SharingPolicy::S_A);
        assert!(s <= naive, "S ({s}) should not exceed naive ({naive})");
        assert!(s_a <= s, "S+A ({s_a}) should not exceed S ({s})");
    }

    #[test]
    fn reordering_does_not_increase_error() {
        // Reordering's benefit is statistical: on any single random layer the
        // per-instance MSE can wobble a few percent either way, so the claim
        // is checked as an aggregate over several layers (mirroring how the
        // cross-crate policy-ordering test aggregates over a model).
        let ctx = ExecContext::sequential();
        let mut mse_plain_total = 0.0f64;
        let mut mse_reorder_total = 0.0f64;
        let mut reduced_plain_total = 0u64;
        let mut reduced_reorder_total = 0u64;
        for seed in 5..10 {
            let (x, w) = random_layer(seed, 20, 64, 10, 0.55);
            let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
            let run = |reorder: bool| {
                let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                    threads: ThreadCount::Two,
                    policy: SharingPolicy::S_A,
                    reorder,
                });
                let out = emu.execute_with(&ctx, &x, &w).unwrap();
                (relative_mse(&out.output, &reference), out.stats)
            };
            let (mse_plain, stats_plain) = run(false);
            let (mse_reorder, stats_reorder) = run(true);
            mse_plain_total += mse_plain;
            mse_reorder_total += mse_reorder;
            reduced_plain_total += stats_plain.reduced_thread_slots;
            reduced_reorder_total += stats_reorder.reduced_thread_slots;
        }
        assert!(
            mse_reorder_total <= mse_plain_total * 1.05 + 1e-12,
            "reordering should not increase error: {mse_reorder_total} vs {mse_plain_total}"
        );
        // Reordering trades collisions for singles, so reductions go down in
        // aggregate (the rank-pairing heuristic only promises the expected
        // direction, not every instance).
        assert!(
            reduced_reorder_total <= reduced_plain_total,
            "reordering should reduce reduced slots: {reduced_reorder_total} vs {reduced_plain_total}"
        );
    }

    #[test]
    fn cycle_count_is_half_for_two_threads() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(6, 8, 40, 6, 0.5);
        let one = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::One,
            policy: SharingPolicy::S_A,
            reorder: false,
        })
        .execute_with(&ctx, &x, &w)
        .unwrap();
        let two = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        })
        .execute_with(&ctx, &x, &w)
        .unwrap();
        let four = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Four,
            policy: SharingPolicy::S_A,
            reorder: false,
        })
        .execute_with(&ctx, &x, &w)
        .unwrap();
        assert_eq!(one.stats.cycles, 8 * 6 * 40);
        assert_eq!(two.stats.cycles, 8 * 6 * 20);
        assert_eq!(four.stats.cycles, 8 * 6 * 10);
    }

    #[test]
    fn utilization_improves_with_thread_count() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(7, 10, 60, 8, 0.6);
        let util = |threads: ThreadCount| {
            NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: SharingPolicy::S_A,
                reorder: false,
            })
            .execute_with(&ctx, &x, &w)
            .unwrap()
            .stats
            .utilization()
        };
        let u1 = util(ThreadCount::One);
        let u2 = util(ThreadCount::Two);
        assert!(u2 > u1, "2T utilization {u2} should exceed 1T {u1}");
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let x = QuantMatrix::zeros(2, 3, 1.0);
        let w = QuantWeightMatrix::with_uniform_scale(Matrix::zeros(4, 2), 1.0);
        let ctx = ExecContext::sequential();
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig::two_threads());
        assert!(emu.execute_with(&ctx, &x, &w).is_err());
        // Tables prepared from one weight shape refuse another.
        let prepared = PreparedWeights::new(NbSmtMatmulConfig::default(), &w);
        let other = QuantWeightMatrix::with_uniform_scale(Matrix::zeros(3, 2), 1.0);
        assert!(prepared.run(&ctx, &x, &other).is_err());
    }

    #[test]
    fn fast_path_matches_event_oracle_exactly() {
        // The fast path must reproduce the event walker bit for bit —
        // output matrix AND every PeStats field — across thread counts,
        // policies (S on/off × every width mode), shapes, and sparsity.
        let ctx = ExecContext::sequential();
        let policies = [
            SharingPolicy::NAIVE,
            SharingPolicy::S,
            SharingPolicy::A,
            SharingPolicy::W,
            SharingPolicy::A_W,
            SharingPolicy::S_A,
            SharingPolicy::S_W,
            SharingPolicy::S_AW,
            SharingPolicy::S_A_W,
        ];
        for (seed, (m, k, n), sparsity) in [
            (11, (5, 17, 9), 0.5),
            (12, (7, 32, 70), 0.0),
            (13, (3, 9, 4), 0.8),
        ] {
            let (x, w) = random_layer(seed, m, k, n, sparsity);
            for threads in [ThreadCount::One, ThreadCount::Two, ThreadCount::Four] {
                for policy in policies {
                    let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                        threads,
                        policy,
                        reorder: false,
                    });
                    let fast = emu.execute_with(&ctx, &x, &w).unwrap();
                    let event = emu.execute_event_with(&ctx, &x, &w).unwrap();
                    assert_eq!(
                        fast,
                        event,
                        "threads={threads:?} policy={} shape={m}x{k}x{n}",
                        policy.label()
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_event_oracle_with_reorder() {
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(14, 10, 24, 8, 0.5);
        for threads in [ThreadCount::Two, ThreadCount::Four] {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: SharingPolicy::S_A,
                reorder: true,
            });
            let fast = emu.execute_with(&ctx, &x, &w).unwrap();
            let event = emu.execute_event_with(&ctx, &x, &w).unwrap();
            assert_eq!(fast, event, "threads={threads:?}");
        }
    }

    #[test]
    fn fast_path_is_backend_and_thread_invariant() {
        use nbsmt_tensor::exec::GemmBackendKind;
        let (x, w) = random_layer(15, 9, 40, 21, 0.4);
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: ThreadCount::Two,
            policy: SharingPolicy::S_A,
            reorder: false,
        });
        let reference = emu
            .execute_with(&ExecContext::sequential(), &x, &w)
            .unwrap();
        for backend in GemmBackendKind::ALL {
            for threads in [1usize, 3] {
                let ctx = ExecContext::new(ExecConfig {
                    threads,
                    tile_rows: 4,
                    tile_k: 16,
                    backend,
                });
                let out = emu.execute_with(&ctx, &x, &w).unwrap();
                assert_eq!(out, reference, "backend={backend} threads={threads}");
            }
        }
    }

    #[test]
    fn odd_reduction_dimension_is_padded_correctly() {
        // K = 7 is not divisible by 2 or 4; padding threads with zeros must
        // not change the result versus the reference beyond reduction error.
        let ctx = ExecContext::sequential();
        let (x, w) = random_layer(8, 4, 7, 3, 0.0);
        let reference = quantized_matmul_with(&ctx, &x, &w).unwrap();
        for threads in [ThreadCount::Two, ThreadCount::Four] {
            let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
                threads,
                policy: SharingPolicy::S_A,
                reorder: false,
            });
            let out = emu.execute_with(&ctx, &x, &w).unwrap();
            let rel = relative_mse(&out.output, &reference);
            assert!(rel < 0.05, "threads={threads:?} rel={rel}");
        }
    }
}
