//! Algorithmic fast path for the NB-SMT matmul emulation.
//!
//! The event-walking path ([`crate::matmul::NbSmtMatmul::execute_event_with`])
//! simulates every PE cycle: for each output element and reduction step it
//! plans both lanes, multiplies through the flexible multiplier, and
//! classifies the outcome. That is the oracle, but it prices every MAC at a
//! full PE-event dispatch.
//!
//! This module computes the **identical** result — output matrix *and*
//! [`PeStats`] aggregates, bit for bit — from sparsity structure instead:
//!
//! 1. The exact base product `Σ x·w` is computed by the integer GEMM kernels
//!    of the execution layer (SIMD / packed / blocked — whatever the caller's
//!    [`ExecContext`] is configured with).
//! 2. Per weight row, 64-bit column bitmasks record which weights are
//!    nonzero (`wnz`), fit a signed nibble (`wfit`), and are lossy under
//!    MSB rounding (`wrl`, i.e. `round(w)·16 ≠ w`). Collision structure is
//!    then popcount algebra over these masks: a cycle's demanding threads at
//!    column `j` are exactly the threads whose activation is nonzero and
//!    whose `wnz` bit is set.
//! 3. Squeezed thread-slots contribute an integer *delta* — the difference
//!    between the reduced-precision product the PE produces and the exact
//!    product already inside the base GEMM. Deltas are only nonzero at lossy
//!    slots, so the correction loop touches `O(collisions)` columns instead
//!    of `O(n·k)` events.
//!
//! The mapping from the PE dispatch (see `pe.rs`) to masks, for each thread
//! `t` with activation `x` at reduction position `p`:
//!
//! * **2T, S on**: dual-lane squeeze happens iff both threads demand the MAC
//!   (`a₀ & a₁`); a lone demanding thread runs full precision (no delta).
//! * **2T, S off**: every cycle squeezes, so each demanding thread is
//!   squeezed wherever it is active (`aₜ`).
//! * **4T, S on**: exactly-2 demanding → dual-lane for those two;
//!   ≥3 demanding → 4b×4b quad lanes for the demanding threads.
//! * **4T, S off**: quad lanes every cycle; non-demanding threads contribute
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

/// Per-weight-row column bitmasks and precomputed rounded weights, built
/// once per `execute` call and shared read-only by every row tile.
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
    /// Popcount of `wnz` per row (baseline busy-slot counting).
    wnz_count: Vec<u64>,
}

impl WeightTables {
    pub(crate) fn new(w: &QuantWeightMatrix) -> Self {
        let (k, n) = (w.rows(), w.cols());
        let wv = w.values().as_slice();
        let nw = n.div_ceil(64);
        let mut wnz = vec![0u64; k * nw];
        let mut wfit = vec![0u64; k * nw];
        let mut wrl = vec![0u64; k * nw];
        let mut wr16 = vec![0i32; k * n];
        let mut wnz_count = vec![0u64; k];
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
            wnz_count[p] = wnz[p * nw..(p + 1) * nw]
                .iter()
                .map(|w| w.count_ones() as u64)
                .sum();
        }
        WeightTables {
            nw,
            wnz,
            wfit,
            wrl,
            wr16,
            wnz_count,
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
/// path. `base` must be a 1-thread context (the caller already owns the
/// row-tile fan-out).
#[allow(clippy::too_many_arguments)]
pub(crate) fn rows_fast(
    base: &ExecContext,
    tables: &WeightTables,
    threads: ThreadCount,
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

    // Exact base product through the configured integer kernel.
    let mut acc = vec![0i64; nrows * n];
    let a_rows = &xv[row_start * k..(row_start + nrows) * k];
    base.gemm_u8i8(nrows, k, n, a_rows, wv, &mut acc);

    let mut stats = PeStats::default();
    match threads {
        ThreadCount::One => {
            // Baseline: no squeezing, stats are pure popcount algebra.
            stats.cycles = (nrows * n * k) as u64;
            for r in 0..nrows {
                let arow = &xv[(row_start + r) * k..(row_start + r + 1) * k];
                let mut busy = 0u64;
                for (p, &xval) in arow.iter().enumerate() {
                    if xval != 0 {
                        busy += tables.wnz_count[p];
                    }
                }
                stats.busy_cycles += busy;
                stats.active_thread_slots += busy;
            }
        }
        ThreadCount::Two => {
            rows_two_fast(
                tables, policy, xv, wv, k, n, row_start, nrows, &mut acc, &mut stats,
            );
        }
        ThreadCount::Four => {
            rows_four_fast(
                tables, policy, xv, wv, k, n, row_start, nrows, &mut acc, &mut stats,
            );
        }
    }

    dequantize_accumulators(&acc, x.scale(), w.scales(), out);
    stats
}

#[allow(clippy::too_many_arguments)]
fn rows_two_fast(
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
    let half = k.div_ceil(2);
    stats.cycles = (nrows * n) as u64 * half as u64;
    let zero_row = vec![0u64; nw];
    let mut sq = vec![0u64; nw];
    for r in 0..nrows {
        let arow = &xv[(row_start + r) * k..(row_start + r + 1) * k];
        let acc_row = &mut acc[r * n..(r + 1) * n];
        for s in 0..half {
            let p0 = s;
            let p1 = half + s;
            let x0 = arow[p0];
            let x1 = if p1 < k { arow[p1] } else { 0 };
            let m0 = if x0 != 0 {
                tables.wnz_row(p0)
            } else {
                &zero_row[..]
            };
            let m1 = if x1 != 0 && p1 < k {
                tables.wnz_row(p1)
            } else {
                &zero_row[..]
            };
            for wi in 0..nw {
                let (a0, a1) = (m0[wi], m1[wi]);
                stats.busy_cycles += (a0 | a1).count_ones() as u64;
                stats.collision_cycles += (a0 & a1).count_ones() as u64;
                stats.active_thread_slots += (a0.count_ones() + a1.count_ones()) as u64;
                sq[wi] = a0 & a1;
            }
            // Squeeze set per thread: collisions only with S, every active
            // slot without it (the PE always splits its lanes then).
            if policy.exploit_sparsity {
                dual_deltas(tables, policy.width, x0, p0, &sq, wv, n, acc_row, stats);
                if p1 < k {
                    dual_deltas(tables, policy.width, x1, p1, &sq, wv, n, acc_row, stats);
                }
            } else {
                dual_deltas(tables, policy.width, x0, p0, m0, wv, n, acc_row, stats);
                if p1 < k {
                    dual_deltas(tables, policy.width, x1, p1, m1, wv, n, acc_row, stats);
                }
            }
        }
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
