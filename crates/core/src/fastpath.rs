//! Algorithmic fast path for the NB-SMT matmul emulation.
//!
//! The event-walking path ([`crate::matmul::NbSmtMatmul::execute_event_with`])
//! simulates every PE cycle: for each output element and reduction step it
//! plans both lanes, multiplies through the flexible multiplier, and
//! classifies the outcome. That is the oracle, but it prices every MAC at a
//! full PE-event dispatch.
//!
//! This module computes the **identical** result — output matrix *and*
//! [`PeStats`] aggregates, bit for bit — from sparsity structure instead.
//! The exact base product `Σ x·w` always runs through the integer GEMM
//! kernel of the caller's [`ExecContext`]; what comes on top depends on the
//! thread count.
//!
//! # Weight-only tables
//!
//! Everything derived from the weights alone lives in [`LayerTables`], and a
//! layer builds only what its thread count reads:
//!
//! * **1T**: the nonzero count of each weight row (`busy` is their sum over
//!   the nonzero activations).
//! * **2T**: the correction GEMM's right-hand side and per-step weight
//!   counts ([`TwoTables`]).
//! * **4T**: per-row column bitmasks and rounded weights ([`WeightTables`]).
//!
//! They are built by [`crate::matmul::PreparedWeights::new`]: once per
//! compute layer when a serving session is compiled, and once per call
//! inside [`crate::matmul::NbSmtMatmul::execute_with`]. Under `reorder` the
//! permutation depends on the activations, so the tables are built per call
//! from the permuted weights.
//!
//! # 2T: the squeeze as a correction GEMM
//!
//! In step `s`, thread `t ∈ {0, 1}` reads reduction position
//! `pₜ = s + t·⌈k/2⌉`, and `o` names the other thread. A squeezed thread-slot
//! adds its reduced-minus-exact product to the base product, and that delta
//! factors into an activation-only part `Dₜ[r,s]` and a weight-only part
//! `Wₜ'[s,j]`, so thread `t`'s correction at `(r, j)` is `Σₛ Dₜ[r,s]·Wₜ'[s,j]`.
//! With `d(x) = round_to_nibble_unsigned(x)·16 − x ∈ −15..=8` and
//! `w = w[pₜ,j]`:
//!
//! | Width mode | `Dₜ[r,s]` | `Wₜ'[s,j]` |
//! |---|---|---|
//! | none | `d(xₜ)` | `w` |
//! | A | `d(xₜ)·[xₜ ≥ 16]` | `w` |
//! | Aw | `d(xₜ)·[xₜ ≥ 16]` | `w·[w does not fit a nibble]` |
//! | W | `xₜ` | `(round_to_nibble_signed(w)·16 − w)·[w does not fit]` |
//! | aW | `xₜ·[xₜ ≥ 16]` | as W |
//!
//! With S on, `Dₜ` also carries `[x_o ≠ 0]` and `Wₜ'` carries
//! `[w[p_o,j] ≠ 0]`: a lone demanding thread runs at full precision. Without
//! S every active slot squeezes, so both factors drop.
//!
//! A 2T layer is therefore the base GEMM plus one u8×i8 GEMM of depth
//! `2·⌈k/2⌉` over `[D₀ | D₁]` and `[W₀'; W₁']`, run through the same
//! [`ExecContext::gemm_u8i8`] kernel. `W'` fits an i8 in every mode. In the
//! activation modes `D` is signed, so it enters the GEMM shifted by a zero
//! point of 15 (`D + 15 ∈ 0..=23`), and the weight-only column constant
//! `15·Σₛ W'[s,j]` is subtracted afterwards — the zero-point trick of
//! gemmlowp. Every sum stays in i64, so the output bits equal the oracle's
//! by construction. Building `D` is branch-free byte arithmetic per
//! activation, so that loop vectorizes.
//!
//! [`PeStats`] need no walk either:
//!
//! * `reduced_thread_slots = Σ_{r,s,t} [Dₜ[r,s] ≠ 0]·nnz(Wₜ'[s,:])`;
//! * `active_thread_slots = Σ_{r,s,t} [xₜ ≠ 0]·nnz(w[pₜ,:])`;
//! * `collision_cycles = Σ_{r,s} [x₀ ≠ 0][x₁ ≠ 0]·|{j : w[p₀,j] ≠ 0 ≠ w[p₁,j]}|`;
//! * `busy_cycles = active − collision` (inclusion–exclusion).
//!
//! The activation indicators are counted per step over the rows, so each
//! counter is one dot product of per-step row counts with per-step weight
//! counts: O(m·k) per call.
//!
//! # 4T: collision bitmasks
//!
//! Per weight row, 64-bit column bitmasks record which weights are nonzero
//! (`wnz`), fit a signed nibble (`wfit`), and are lossy under MSB rounding
//! (`wrl`, i.e. `round(w)·16 ≠ w`). Collision structure is popcount algebra
//! over these masks: a cycle's demanding threads at column `j` are exactly
//! the threads whose activation is nonzero and whose `wnz` bit is set.
//! Squeezed thread-slots contribute an integer *delta* — the reduced product
//! minus the exact product already inside the base GEMM — and deltas are
//! only nonzero at lossy slots, so the correction loop touches
//! `O(collisions)` columns instead of `O(n·k)` events.
//!
//! * **S on**: exactly-2 demanding → dual-lane for those two; ≥3 demanding
//!   → 4b×4b quad lanes for the demanding threads.
//! * **S off**: quad lanes every cycle; non-demanding threads contribute
//!   exactly zero and are never counted as reduced, so restricting the masks
//!   to demanding threads is still exact.
//!
//! Dual-lane deltas follow `plan_dual_lane`: the activation-narrow lane
//! replaces `x` with `round(x)·16` (delta `(round(x)·16 − x)·w`, `Reduced`
//! iff that differs), the weight-narrow lane replaces `w` with `round(w)·16`
//! (delta `x·(round(w)·16 − w)`). Quad deltas follow `plan_quad_lane`:
//! both sides reduce independently (`X̃·W̃ − x·w`), with the width check
//! keeping sides that already fit a nibble exact.

use nbsmt_quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_quant::quantize::dequantize_accumulators;
use nbsmt_quant::reduce::{
    fits_nibble_signed, fits_nibble_unsigned, round_to_nibble_signed, round_to_nibble_unsigned,
};
use nbsmt_tensor::exec::ExecContext;

use crate::pe::PeStats;
use crate::policy::{SharingPolicy, WidthMode};
use crate::ThreadCount;

/// The weight-only tables of one layer, holding only what its thread count
/// reads (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum LayerTables {
    /// 1T: `nnz(w[p,:])` per reduction row.
    One { row_nnz: Vec<u64> },
    /// 2T: the correction GEMM's right-hand side and per-step counts.
    Two(TwoTables),
    /// 4T: column bitmasks and rounded weights per reduction row.
    Four(WeightTables),
}

impl LayerTables {
    pub(crate) fn new(threads: ThreadCount, policy: SharingPolicy, w: &QuantWeightMatrix) -> Self {
        match threads {
            ThreadCount::One => LayerTables::One {
                row_nnz: w
                    .values()
                    .as_slice()
                    .chunks_exact(w.cols().max(1))
                    .map(|row| row.iter().filter(|&&v| v != 0).count() as u64)
                    .collect(),
            },
            ThreadCount::Two => LayerTables::Two(TwoTables::new(policy, w)),
            ThreadCount::Four => LayerTables::Four(WeightTables::new(w)),
        }
    }
}

/// The weight-only half of the 2T identity, plus how the policy maps one
/// activation to its correction byte.
#[derive(Debug, Clone)]
pub(crate) struct TwoTables {
    /// Steps per output element: `⌈k/2⌉`.
    half: usize,
    /// `[W₀'; W₁']`, `2·half × n` row-major: row `s` holds thread 0's
    /// correction weights at step `s`, row `half + s` thread 1's.
    rhs: Vec<i8>,
    /// `shift · Σ_rows rhs[·, j]` per column: what the zero point adds to
    /// the correction product.
    shift_sum: Vec<i64>,
    /// Per step, the weight counts the activation patterns are weighted by.
    steps: Vec<StepCounts>,
    /// The activation side of the identity.
    side: ActivationSide,
}

/// One 2T step's weight counts; index `t` is the thread.
#[derive(Debug, Clone, Copy, Default)]
struct StepCounts {
    /// `nnz(w[pₜ,:])`.
    nnz: [u64; 2],
    /// Columns where both threads' weights are nonzero.
    both: u64,
    /// `nnz(Wₜ'[s,:])`: the slots a nonzero `Dₜ` reduces.
    squeezable: [u64; 2],
}

impl TwoTables {
    fn new(policy: SharingPolicy, w: &QuantWeightMatrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let wv = w.values().as_slice();
        let half = k.div_ceil(2);
        // `Wₜ'` of every weight value before the S gate.
        let mut squeezed = [0i8; 256];
        for (v, entry) in squeezed.iter_mut().enumerate() {
            *entry = correction_weight(policy.width, v as u8 as i8);
        }
        let gated = |v: i8, other: i8| {
            if policy.exploit_sparsity && other == 0 {
                0
            } else {
                squeezed[v as u8 as usize]
            }
        };
        let zero_row = vec![0i8; n];
        let mut rhs = vec![0i8; 2 * half * n];
        let mut steps = vec![StepCounts::default(); half];
        for (s, step) in steps.iter_mut().enumerate() {
            let row0 = &wv[s * n..(s + 1) * n];
            let p1 = half + s;
            let row1 = if p1 < k {
                &wv[p1 * n..(p1 + 1) * n]
            } else {
                &zero_row[..]
            };
            // Thread 0's row `s` and thread 1's row `half + s`.
            let (rhs0, rhs1) = rhs[s * n..].split_at_mut(half * n);
            for (j, (&w0, &w1)) in row0.iter().zip(row1).enumerate() {
                let (c0, c1) = (gated(w0, w1), gated(w1, w0));
                rhs0[j] = c0;
                rhs1[j] = c1;
                step.nnz[0] += u64::from(w0 != 0);
                step.nnz[1] += u64::from(w1 != 0);
                step.both += u64::from(w0 != 0 && w1 != 0);
                step.squeezable[0] += u64::from(c0 != 0);
                step.squeezable[1] += u64::from(c1 != 0);
            }
        }
        let side = ActivationSide::new(policy);
        let mut shift_sum = vec![0i64; n];
        for rhs_row in rhs.chunks_exact(n.max(1)) {
            for (sum, &v) in shift_sum.iter_mut().zip(rhs_row) {
                *sum += i64::from(side.shift) * i64::from(v);
            }
        }
        TwoTables {
            half,
            rhs,
            shift_sum,
            steps,
            side,
        }
    }
}

/// `Wₜ'` of one weight before the S gate (see the module docs).
fn correction_weight(width: WidthMode, w: i8) -> i8 {
    let fits = fits_nibble_signed(w);
    match width {
        WidthMode::None | WidthMode::Activation => w,
        WidthMode::ActivationThenSwap if !fits => w,
        // Lies in −15..=8 for every weight that does not fit a nibble.
        WidthMode::Weight | WidthMode::WeightThenSwap if !fits => {
            (round_to_nibble_signed(w) as i16 * 16 - w as i16) as i8
        }
        _ => 0,
    }
}

/// The activation side of the 2T identity as branch-free byte arithmetic,
/// so the loop that builds `[D₀ | D₁]` vectorizes. Each field is a
/// loop-invariant mask (`0xFF` or `0`) or the zero point.
#[derive(Debug, Clone, Copy)]
struct ActivationSide {
    /// `0xFF` in the activation modes (`Dₜ` carries `d(xₜ)`), `0` in the
    /// weight modes (`Dₜ` carries `xₜ`).
    nibble_delta: u8,
    /// `0xFF` when the width check never keeps a slot exact (`g ≡ 1`: width
    /// modes none and W).
    unchecked: u8,
    /// `0xFF` when S is off, so the other thread does not gate the squeeze.
    ungated: u8,
    /// The zero point: `d(x) ∈ −15..=8` is stored as `d(x) + 15 ∈ 0..=23`
    /// in the activation modes (`shift_sum` removes it again); 0 in the
    /// weight modes, where `Dₜ` is already a u8.
    shift: u8,
}

impl ActivationSide {
    fn new(policy: SharingPolicy) -> Self {
        let mask = |on: bool| if on { 0xFF } else { 0 };
        let activation_modes = policy.width.reduces_activation();
        ActivationSide {
            nibble_delta: mask(activation_modes),
            unchecked: mask(matches!(policy.width, WidthMode::None | WidthMode::Weight)),
            ungated: mask(!policy.exploit_sparsity),
            shift: if activation_modes { 15 } else { 0 },
        }
    }

    /// `Dₜ + shift` for activation `x` when the other thread's activation is
    /// `other`.
    #[inline(always)]
    fn byte(self, x: u8, other: u8) -> u8 {
        // `round_to_nibble_unsigned(x)·16`: the nearest multiple of 16,
        // at most 240 (the `byte_matches_nibble_rounding` test pins this).
        let rounded = x.saturating_add(8) & 0xF0;
        let delta = rounded.wrapping_add(self.shift).wrapping_sub(x);
        let d = (delta & self.nibble_delta) | (x & !self.nibble_delta);
        let wide = u8::from(!fits_nibble_unsigned(x)).wrapping_neg() | self.unchecked;
        let gate = u8::from(other != 0).wrapping_neg() | self.ungated;
        let keep = wide & gate;
        (d & keep) | (self.shift & !keep)
    }
}

/// Per-weight-row column bitmasks and precomputed rounded weights: the 4T
/// tables, shared read-only by every row tile.
#[derive(Debug, Clone)]
pub(crate) struct WeightTables {
    /// Words per row: `ceil(n / 64)`.
    nw: usize,
    /// Bit `j` of row `p`: `w[p,j] != 0`.
    wnz: Vec<u64>,
    /// Bit `j` of row `p`: `w[p,j]` fits a signed nibble.
    wfit: Vec<u64>,
    /// Bit `j` of row `p`: `round(w[p,j])·16 != w[p,j]` (lossy if reduced).
    wrl: Vec<u64>,
    /// `round(w[p,j])·16` for every weight (row-major, `k × n`).
    wr16: Vec<i32>,
}

impl WeightTables {
    fn new(w: &QuantWeightMatrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let wv = w.values().as_slice();
        let nw = n.div_ceil(64);
        let mut wnz = vec![0u64; k * nw];
        let mut wfit = vec![0u64; k * nw];
        let mut wrl = vec![0u64; k * nw];
        let mut wr16 = vec![0i32; k * n];
        for p in 0..k {
            for j in 0..n {
                let v = wv[p * n + j];
                let word = p * nw + j / 64;
                let bit = 1u64 << (j % 64);
                if v != 0 {
                    wnz[word] |= bit;
                }
                if fits_nibble_signed(v) {
                    wfit[word] |= bit;
                }
                let r16 = round_to_nibble_signed(v) as i32 * 16;
                if r16 != v as i32 {
                    wrl[word] |= bit;
                }
                wr16[p * n + j] = r16;
            }
        }
        WeightTables {
            nw,
            wnz,
            wfit,
            wrl,
            wr16,
        }
    }

    fn wnz_row(&self, p: usize) -> &[u64] {
        &self.wnz[p * self.nw..(p + 1) * self.nw]
    }

    fn wfit_row(&self, p: usize) -> &[u64] {
        &self.wfit[p * self.nw..(p + 1) * self.nw]
    }

    fn wrl_row(&self, p: usize) -> &[u64] {
        &self.wrl[p * self.nw..(p + 1) * self.nw]
    }
}

/// Iterates the set bits of `word` (offset by `wi * 64`), calling `f(j)`.
#[inline]
fn for_each_bit(mut word: u64, wi: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        let j = wi * 64 + word.trailing_zeros() as usize;
        word &= word - 1;
        f(j);
    }
}

/// Emulates output rows `row_start .. row_start + nrows` through the fast
/// path. `tables` must have been built from `w` for this thread count and
/// `policy`; `base` must be a 1-thread context (the caller already owns the
/// row-tile fan-out).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rows_fast(
    base: &ExecContext,
    tables: &LayerTables,
    policy: SharingPolicy,
    x: &QuantMatrix,
    w: &QuantWeightMatrix,
    row_start: usize,
    nrows: usize,
    out: &mut [f32],
) -> PeStats {
    let (k, n) = (x.cols(), w.cols());
    let xv = x.values().as_slice();
    let wv = w.values().as_slice();
    let a_rows = &xv[row_start * k..(row_start + nrows) * k];

    // Exact base product through the configured integer kernel.
    let mut acc = vec![0i64; nrows * n];
    base.gemm_u8i8(nrows, k, n, a_rows, wv, &mut acc);

    let mut stats = PeStats::default();
    match tables {
        LayerTables::One { row_nnz } => {
            // Baseline: no squeezing, stats are pure popcount algebra.
            stats.cycles = (nrows * n * k) as u64;
            let busy: u64 = a_rows
                .chunks_exact(k.max(1))
                .map(|arow| {
                    arow.iter()
                        .zip(row_nnz)
                        .map(|(&xval, &nnz)| u64::from(xval != 0) * nnz)
                        .sum::<u64>()
                })
                .sum();
            stats.busy_cycles = busy;
            stats.active_thread_slots = busy;
        }
        LayerTables::Two(two) => {
            rows_two_gemm(base, two, a_rows, k, n, nrows, &mut acc, &mut stats);
        }
        LayerTables::Four(four) => {
            rows_four_fast(
                four, policy, xv, wv, k, n, row_start, nrows, &mut acc, &mut stats,
            );
        }
    }

    dequantize_accumulators(&acc, x.scale(), w.scales(), out);
    stats
}

/// The 2T identity over one row tile (`a_rows`, `nrows × k`): builds
/// `[D₀ | D₁]` (shifted by the zero point), runs the correction GEMM against
/// the prepared `[W₀'; W₁']`, and derives [`PeStats`] from per-step row
/// counts.
#[allow(clippy::too_many_arguments)]
fn rows_two_gemm(
    base: &ExecContext,
    tables: &TwoTables,
    a_rows: &[u8],
    k: usize,
    n: usize,
    nrows: usize,
    acc: &mut [i64],
    stats: &mut PeStats,
) {
    let (half, side) = (tables.half, tables.side);
    let depth = 2 * half;
    stats.cycles = (nrows * n * half) as u64;
    let mut lhs = vec![0u8; nrows * depth];
    // Per step, rows with: x₀ ≠ 0, x₁ ≠ 0, both, D₀ ≠ 0, D₁ ≠ 0.
    let [mut nz0, mut nz1, mut both, mut red0, mut red1] =
        std::array::from_fn(|_| vec![0u32; half]);
    // One activation row padded to `2·half`: the last step of an odd `k`
    // reads a zero thread-1 activation.
    let mut row = vec![0u8; depth];
    for (arow, lhs_row) in a_rows
        .chunks_exact(k.max(1))
        .zip(lhs.chunks_exact_mut(depth.max(1)))
    {
        row[..k].copy_from_slice(arow);
        let (x0s, x1s) = row.split_at(half);
        let (d0, d1) = lhs_row.split_at_mut(half);
        for ((d, &x), &other) in d0.iter_mut().zip(x0s).zip(x1s) {
            *d = side.byte(x, other);
        }
        for ((d, &x), &other) in d1.iter_mut().zip(x1s).zip(x0s) {
            *d = side.byte(x, other);
        }
        tally(&mut nz0, x0s.iter().map(|&x| x != 0));
        tally(&mut nz1, x1s.iter().map(|&x| x != 0));
        tally(
            &mut both,
            x0s.iter().zip(x1s).map(|(&a, &b)| (a != 0) & (b != 0)),
        );
        tally(&mut red0, d0.iter().map(|&d| d != side.shift));
        tally(&mut red1, d1.iter().map(|&d| d != side.shift));
    }
    for (s, step) in tables.steps.iter().enumerate() {
        let [nz0, nz1, both, red0, red1] =
            [nz0[s], nz1[s], both[s], red0[s], red1[s]].map(u64::from);
        let active = nz0 * step.nnz[0] + nz1 * step.nnz[1];
        let collision = both * step.both;
        stats.active_thread_slots += active;
        stats.collision_cycles += collision;
        stats.busy_cycles += active - collision;
        stats.reduced_thread_slots += red0 * step.squeezable[0] + red1 * step.squeezable[1];
    }

    let mut correction = vec![0i64; nrows * n];
    base.gemm_u8i8(nrows, depth, n, &lhs, &tables.rhs, &mut correction);
    for (acc_row, corr_row) in acc
        .chunks_exact_mut(n.max(1))
        .zip(correction.chunks_exact(n.max(1)))
    {
        for ((a, &c), &shift) in acc_row.iter_mut().zip(corr_row).zip(&tables.shift_sum) {
            *a += c - shift;
        }
    }
}

/// Adds one to `counts[s]` for every step `s` whose `hits` item is true.
#[inline(always)]
fn tally(counts: &mut [u32], hits: impl Iterator<Item = bool>) {
    for (count, hit) in counts.iter_mut().zip(hits) {
        *count += u32::from(hit);
    }
}

/// Applies one thread's dual-lane (4b×8b) squeeze over the columns in
/// `mask`: adjusts `acc` by the reduced-minus-exact delta and counts the
/// `Reduced` outcomes, mirroring `plan_dual_lane` exactly.
#[allow(clippy::too_many_arguments)]
fn dual_deltas(
    tables: &WeightTables,
    mode: WidthMode,
    x: u8,
    p: usize,
    mask: &[u64],
    wv: &[i8],
    n: usize,
    acc: &mut [i64],
    stats: &mut PeStats,
) {
    if x == 0 {
        return;
    }
    let x_fits = fits_nibble_unsigned(x);
    // Activation-narrow lane with the rounded MSB nibble: delta per column
    // is `(round(x)·16 − x) · w`, `Reduced` iff the rounding is lossy.
    let act_reduced = |filter_wfit: bool, acc: &mut [i64], stats: &mut PeStats| {
        let d = round_to_nibble_unsigned(x) as i64 * 16 - x as i64;
        if d == 0 {
            return;
        }
        for (wi, &mword) in mask.iter().enumerate().take(tables.nw) {
            let mut word = mword;
            if filter_wfit {
                word &= !tables.wfit_row(p)[wi];
            }
            stats.reduced_thread_slots += word.count_ones() as u64;
            for_each_bit(word, wi, |j| {
                acc[j] += d * wv[p * n + j] as i64;
            });
        }
    };
    // Weight-narrow lane for weights that do not fit a nibble: delta per
    // column is `x · (round(w)·16 − w)`, `Reduced` iff lossy (`wrl`).
    let weight_reduced = |acc: &mut [i64], stats: &mut PeStats| {
        for (wi, &mword) in mask.iter().enumerate().take(tables.nw) {
            let candidates = mword & !tables.wfit_row(p)[wi];
            let lossy = candidates & tables.wrl_row(p)[wi];
            stats.reduced_thread_slots += lossy.count_ones() as u64;
            for_each_bit(lossy, wi, |j| {
                acc[j] += x as i64 * (tables.wr16[p * n + j] as i64 - wv[p * n + j] as i64);
            });
        }
    };
    match mode {
        WidthMode::None => act_reduced(false, acc, stats),
        WidthMode::Activation => {
            if !x_fits {
                act_reduced(false, acc, stats);
            }
        }
        WidthMode::ActivationThenSwap => {
            // x fits → exact everywhere; else columns whose weight fits a
            // nibble swap to the exact weight-narrow lane, the rest reduce
            // the activation.
            if !x_fits {
                act_reduced(true, acc, stats);
            }
        }
        WidthMode::Weight => weight_reduced(acc, stats),
        WidthMode::WeightThenSwap => {
            // w fits → exact; else x fits → exact swap; else reduce weight.
            if !x_fits {
                weight_reduced(acc, stats);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn rows_four_fast(
    tables: &WeightTables,
    policy: SharingPolicy,
    xv: &[u8],
    wv: &[i8],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    acc: &mut [i64],
    stats: &mut PeStats,
) {
    let nw = tables.nw;
    let seg = k.div_ceil(4);
    stats.cycles = (nrows * n) as u64 * seg as u64;
    let zero_row = vec![0u64; nw];
    // Per-thread squeeze masks for this cycle: dual-lane and quad-lane.
    let mut dual = [
        vec![0u64; nw],
        vec![0u64; nw],
        vec![0u64; nw],
        vec![0u64; nw],
    ];
    let mut quad = [
        vec![0u64; nw],
        vec![0u64; nw],
        vec![0u64; nw],
        vec![0u64; nw],
    ];
    for r in 0..nrows {
        let arow = &xv[(row_start + r) * k..(row_start + r + 1) * k];
        let acc_row = &mut acc[r * n..(r + 1) * n];
        for s in 0..seg {
            let mut xs = [0u8; 4];
            let mut masks: [&[u64]; 4] = [&zero_row; 4];
            for t in 0..4 {
                let p = t * seg + s;
                if p < k {
                    xs[t] = arow[p];
                    if xs[t] != 0 {
                        masks[t] = tables.wnz_row(p);
                    }
                }
            }
            for wi in 0..nw {
                let [a0, a1, a2, a3] = [masks[0][wi], masks[1][wi], masks[2][wi], masks[3][wi]];
                let any = a0 | a1 | a2 | a3;
                // ≥2 and ≥3 demanding threads via pairwise/triple unions.
                let pair = (a0 & a1) | (a0 & a2) | (a0 & a3) | (a1 & a2) | (a1 & a3) | (a2 & a3);
                let tri = (a0 & a1 & a2) | (a0 & a1 & a3) | (a0 & a2 & a3) | (a1 & a2 & a3);
                stats.busy_cycles += any.count_ones() as u64;
                stats.collision_cycles += pair.count_ones() as u64;
                stats.active_thread_slots +=
                    (a0.count_ones() + a1.count_ones() + a2.count_ones() + a3.count_ones()) as u64;
                if policy.exploit_sparsity {
                    // Exactly 2 demanding → dual lanes; ≥3 → quad lanes;
                    // 0/1 → full precision (no delta).
                    let exactly2 = pair & !tri;
                    for t in 0..4 {
                        dual[t][wi] = exactly2 & masks[t][wi];
                        quad[t][wi] = tri & masks[t][wi];
                    }
                } else {
                    // S off: every cycle is a ≥3-way squeeze; non-demanding
                    // threads contribute exactly zero, so masking to the
                    // demanding ones is still exact.
                    for t in 0..4 {
                        dual[t][wi] = 0;
                        quad[t][wi] = masks[t][wi];
                    }
                }
            }
            for t in 0..4 {
                let p = t * seg + s;
                if p >= k || xs[t] == 0 {
                    continue;
                }
                if policy.exploit_sparsity {
                    dual_deltas(
                        tables,
                        policy.width,
                        xs[t],
                        p,
                        &dual[t],
                        wv,
                        n,
                        acc_row,
                        stats,
                    );
                }
                quad_deltas(tables, policy, xs[t], p, &quad[t], wv, n, acc_row, stats);
            }
        }
    }
}

/// Applies one thread's quad-lane (4b×4b) squeeze over the columns in
/// `mask`, mirroring `plan_quad_lane`: both operand sides reduce to nibbles
/// independently, and a side that already fits stays exact when the width
/// check is enabled (`mode != None`).
#[allow(clippy::too_many_arguments)]
fn quad_deltas(
    tables: &WeightTables,
    policy: SharingPolicy,
    x: u8,
    p: usize,
    mask: &[u64],
    wv: &[i8],
    n: usize,
    acc: &mut [i64],
    stats: &mut PeStats,
) {
    let check = policy.width != WidthMode::None;
    let x_exact = check && fits_nibble_unsigned(x);
    let xr16 = round_to_nibble_unsigned(x) as i64 * 16;
    let xt = if x_exact { x as i64 } else { xr16 };
    if xt != x as i64 {
        // Lossy activation side: every squeezed column is `Reduced`; the
        // weight side still picks exact-vs-rounded per column.
        let wfit_row = tables.wfit_row(p);
        for wi in 0..tables.nw {
            let word = mask[wi];
            stats.reduced_thread_slots += word.count_ones() as u64;
            let fits = wfit_row[wi];
            for_each_bit(word, wi, |j| {
                let wval = wv[p * n + j] as i64;
                let wt = if check && (fits >> (j % 64)) & 1 == 1 {
                    wval
                } else {
                    tables.wr16[p * n + j] as i64
                };
                acc[j] += xt * wt - x as i64 * wval;
            });
        }
    } else {
        // Exact activation side: only columns whose weight rounds lossily
        // contribute a delta (and count as `Reduced`).
        for (wi, &mword) in mask.iter().enumerate().take(tables.nw) {
            let mut lossy = mword & tables.wrl_row(p)[wi];
            if check {
                lossy &= !tables.wfit_row(p)[wi];
            }
            stats.reduced_thread_slots += lossy.count_ones() as u64;
            for_each_bit(lossy, wi, |j| {
                acc[j] += x as i64 * (tables.wr16[p * n + j] as i64 - wv[p * n + j] as i64);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Dₜ` of one activation as the module docs define it, from the
    /// rounding helpers the PE itself uses.
    fn reference_d(policy: SharingPolicy, x: u8, other: u8) -> i32 {
        if policy.exploit_sparsity && other == 0 {
            return 0;
        }
        let wide = !fits_nibble_unsigned(x);
        let d = round_to_nibble_unsigned(x) as i32 * 16 - x as i32;
        match policy.width {
            WidthMode::None => d,
            WidthMode::Activation | WidthMode::ActivationThenSwap if wide => d,
            WidthMode::Weight => x as i32,
            WidthMode::WeightThenSwap if wide => x as i32,
            _ => 0,
        }
    }

    #[test]
    fn byte_matches_nibble_rounding() {
        for exploit_sparsity in [false, true] {
            for width in [
                WidthMode::None,
                WidthMode::Activation,
                WidthMode::Weight,
                WidthMode::ActivationThenSwap,
                WidthMode::WeightThenSwap,
            ] {
                let policy = SharingPolicy {
                    exploit_sparsity,
                    width,
                };
                let side = ActivationSide::new(policy);
                for x in 0..=255u8 {
                    for other in [0u8, 1, 200] {
                        assert_eq!(
                            side.byte(x, other) as i32 - side.shift as i32,
                            reference_d(policy, x, other),
                            "{} x={x} other={other}",
                            policy.label()
                        );
                    }
                }
            }
        }
    }
}
