//! Workspace-wide execution layer: a deterministic thread pool and the
//! quantized GEMM kernels behind one [`ExecContext`].
//!
//! Every GEMM the SySMT datapath performs multiplies unsigned 8-bit
//! activations by signed 8-bit weights, and every such product in the
//! reproduction — the error-free quantized reference matmul, the served
//! forward pass, the base and correction products of the functional NB-SMT
//! emulation — runs through [`ExecContext::gemm_u8i8`]. The NB-SMT emulation
//! and the cycle-level systolic walker also fan their tiles out over the
//! context's pool. The context owns two orthogonal decisions:
//!
//! * **Kernel choice** ([`GemmBackendKind`]): `Naive` (the seed scalar
//!   loop), `Blocked` (cache-tiled over reduction blocks), `Parallel`
//!   (row-tile fan-out over the pool, running `Simd`'s kernel on each
//!   tile), `Simd` (runtime-detected AVX2 intrinsics with a portable
//!   unrolled fallback), or `Packed` (B packed into column panels on every
//!   call + register-blocked microkernel).
//! * **Worker pool** (`threads`): scoped `std::thread` workers over a
//!   deterministic, contiguous partition of the tile space.
//!
//! Float GEMMs (training, calibration, every float layer) do not come here:
//! [`crate::ops::matmul`] runs the seed f32 loop on the calling thread.
//!
//! # Determinism contract
//!
//! Every result is **bit-exact across backends and invariant to thread
//! count**:
//!
//! * Work is partitioned into *row tiles* (or output tiles for the systolic
//!   walker). Each tile's computation is independent and identical to the
//!   sequential kernel's for those rows; per-element accumulation always
//!   visits the reduction dimension in ascending order, with the same
//!   zero-skip rule in every kernel, and accumulates exactly in i64.
//! * Per-tile side results (PE statistics, cycle counts) are returned to the
//!   caller **in tile order** regardless of which worker produced them, and
//!   callers reduce them in that order.

use serde::{Deserialize, Serialize};

/// Which GEMM kernel an [`ExecContext`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GemmBackendKind {
    /// The seed scalar loop nest (row-major `i, p, j` with zero-skip).
    Naive,
    /// Cache-tiled kernel: ascending reduction blocks of `tile_k`.
    Blocked,
    /// Row-tile fan-out over the worker pool, running the [`Simd`] kernel
    /// on each tile (one call over the whole matrix at one thread).
    ///
    /// [`Simd`]: GemmBackendKind::Simd
    #[default]
    Parallel,
    /// Runtime-detected AVX2 kernel with a portable unrolled fallback on
    /// other hosts.
    Simd,
    /// Packs B into column panels on every call, then runs a
    /// register-blocked microkernel over the panels.
    Packed,
}

impl GemmBackendKind {
    /// Every backend, in declaration order. Parsing, the harness's help and
    /// error text, and the cross-backend tests all read this one list.
    pub const ALL: [GemmBackendKind; 5] = [
        GemmBackendKind::Naive,
        GemmBackendKind::Blocked,
        GemmBackendKind::Parallel,
        GemmBackendKind::Simd,
        GemmBackendKind::Packed,
    ];

    /// Parses a CLI-style backend name: the [`name`](Self::name) of one of
    /// [`ALL`](Self::ALL), in any ASCII case.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
    }

    /// The canonical lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            GemmBackendKind::Naive => "naive",
            GemmBackendKind::Blocked => "blocked",
            GemmBackendKind::Parallel => "parallel",
            GemmBackendKind::Simd => "simd",
            GemmBackendKind::Packed => "packed",
        }
    }
}

impl std::fmt::Display for GemmBackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an [`ExecContext`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecConfig {
    /// Number of worker threads the pool may use (`>= 1`). One means all
    /// work runs inline on the calling thread.
    pub threads: usize,
    /// Rows per work tile: the unit of parallel fan-out.
    pub tile_rows: usize,
    /// Reduction-dimension block size of the
    /// [`Blocked`](GemmBackendKind::Blocked) kernel.
    pub tile_k: usize,
    /// Which GEMM kernel to dispatch to.
    pub backend: GemmBackendKind,
}

impl ExecConfig {
    /// The sequential configuration: one thread, the seed scalar kernel.
    /// This reproduces the pre-execution-layer behaviour exactly. (Spelled
    /// out literally — no `..default()` — so the no-context compatibility
    /// wrappers don't pay an `available_parallelism` syscall per call.)
    pub fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            tile_rows: 32,
            tile_k: 64,
            backend: GemmBackendKind::Naive,
        }
    }

    /// A parallel configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
            ..ExecConfig::default()
        }
    }
}

impl Default for ExecConfig {
    /// Parallel backend over all available hardware threads, with cache-tile
    /// sizes chosen for 8-bit/32-bit operands on typical L1/L2 sizes.
    fn default() -> Self {
        ExecConfig {
            threads: available_threads(),
            tile_rows: 32,
            tile_k: 64,
            backend: GemmBackendKind::Parallel,
        }
    }
}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Handle to the execution layer: a tile-size configuration plus a scoped
/// worker pool with deterministic work partitioning. See the module docs for
/// the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecContext {
    config: ExecConfig,
}

impl ExecContext {
    /// Creates a context from a configuration (thread count and tile sizes
    /// are clamped to at least 1).
    ///
    /// This constructor is deliberately infallible and lenient — it backs
    /// the no-context compatibility wrappers on every hot path. Boundaries
    /// that *accept* an [`ExecConfig`] as input (the replica pool, the
    /// bench run-spec driver) reject invalid values with a typed error via
    /// [`crate::validate::Validate`] before a context is ever built; use
    /// `config.validate()?` there rather than relying on this clamp.
    pub fn new(mut config: ExecConfig) -> Self {
        config.threads = config.threads.max(1);
        config.tile_rows = config.tile_rows.max(1);
        config.tile_k = config.tile_k.max(1);
        ExecContext { config }
    }

    /// The sequential context (1 thread, the seed scalar kernel):
    /// bit-for-bit the seed behaviour, used by all no-context compatibility
    /// wrappers.
    pub fn sequential() -> Self {
        ExecContext::new(ExecConfig::sequential())
    }

    /// A parallel context over all available hardware threads.
    pub fn parallel() -> Self {
        ExecContext::new(ExecConfig::default())
    }

    /// A parallel context with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecContext::new(ExecConfig::with_threads(threads))
    }

    /// The configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Worker threads the pool may use.
    pub fn threads(&self) -> usize {
        self.config.threads
    }

    /// `C = A × B` on the quantized grid (u8 activations × i8 weights,
    /// i64 accumulators) — the hardware's exact integer arithmetic — with
    /// the configured backend. Slices are row-major; `out` must hold
    /// `m * n` elements and is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_u8i8(&self, m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0);
        match self.config.backend {
            GemmBackendKind::Naive => naive_rows(m, k, n, a, b, out),
            GemmBackendKind::Blocked => blocked_rows(m, k, n, a, b, self.config.tile_k, out),
            // At one worker, one call over the whole matrix: no per-tile
            // overhead on a 1-core host.
            GemmBackendKind::Parallel if self.threads() <= 1 => simd_gemm(m, k, n, a, b, out),
            GemmBackendKind::Parallel => {
                self.for_each_row_tile(out, m, n, |_tile, row_start, nrows, chunk| {
                    let rows = &a[row_start * k..(row_start + nrows) * k];
                    simd_gemm(nrows, k, n, rows, b, chunk);
                })
            }
            GemmBackendKind::Simd => simd_gemm(m, k, n, a, b, out),
            GemmBackendKind::Packed => packed_rows(a, &PackedRhs::pack(k, n, b), m, out),
        }
    }

    /// Maps `f` over tile indices `0..count` using the worker pool and
    /// returns the results **in tile order**. Tiles are partitioned into
    /// contiguous, balanced runs per worker; with one thread (or one tile)
    /// everything runs inline on the calling thread.
    pub fn map_tiles<R, F>(&self, count: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let workers = self.threads().min(count);
        if workers <= 1 {
            return (0..count).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..count).map(|_| None).collect();
        std::thread::scope(|scope| {
            let f = &f;
            let mut rest: &mut [Option<R>] = &mut slots;
            let mut next = 0usize;
            for widx in 0..workers {
                let take = (count - next).div_ceil(workers - widx);
                let first = next;
                next += take;
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(take);
                rest = tail;
                scope.spawn(move || {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(f(first + i));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every tile is owned by exactly one worker"))
            .collect()
    }

    /// Splits the row-major buffer `out` (`rows × width`) into row tiles of
    /// `tile_rows`, runs `f(tile_index, row_start, tile_row_count, chunk)`
    /// over the pool, and returns each tile's result **in tile order**.
    ///
    /// Each chunk is the disjoint sub-slice of `out` covering that tile's
    /// rows, so workers write results in place without synchronisation.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != rows * width`.
    pub fn map_row_tiles<T, R, F>(&self, out: &mut [T], rows: usize, width: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, usize, &mut [T]) -> R + Sync,
    {
        assert_eq!(
            out.len(),
            rows * width,
            "map_row_tiles: buffer is {} elements, expected {rows} x {width}",
            out.len()
        );
        if rows == 0 {
            return Vec::new();
        }
        let tile = self.config.tile_rows;
        let tiles = rows.div_ceil(tile);
        let workers = self.threads().min(tiles);
        if workers <= 1 {
            let mut results = Vec::with_capacity(tiles);
            let mut rest = out;
            for t in 0..tiles {
                let row_start = t * tile;
                let nrows = tile.min(rows - row_start);
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(nrows * width);
                rest = tail;
                results.push(f(t, row_start, nrows, chunk));
            }
            return results;
        }
        let mut slots: Vec<Option<R>> = (0..tiles).map(|_| None).collect();
        std::thread::scope(|scope| {
            let f = &f;
            let mut out_rest: &mut [T] = out;
            let mut slot_rest: &mut [Option<R>] = &mut slots;
            let mut next_tile = 0usize;
            for widx in 0..workers {
                let take = (tiles - next_tile).div_ceil(workers - widx);
                let first = next_tile;
                next_tile += take;
                let row_start = first * tile;
                let row_end = (next_tile * tile).min(rows);
                let (chunk, tail) =
                    std::mem::take(&mut out_rest).split_at_mut((row_end - row_start) * width);
                out_rest = tail;
                let (res_chunk, res_tail) = std::mem::take(&mut slot_rest).split_at_mut(take);
                slot_rest = res_tail;
                scope.spawn(move || {
                    let mut chunk = chunk;
                    let mut row = row_start;
                    for (i, slot) in res_chunk.iter_mut().enumerate() {
                        let nrows = tile.min(rows - row);
                        let (cur, rest) = std::mem::take(&mut chunk).split_at_mut(nrows * width);
                        chunk = rest;
                        *slot = Some(f(first + i, row, nrows, cur));
                        row += nrows;
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every tile is owned by exactly one worker"))
            .collect()
    }

    /// Like [`Self::map_row_tiles`] but discards per-tile results.
    pub fn for_each_row_tile<T, F>(&self, out: &mut [T], rows: usize, width: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, usize, &mut [T]) + Sync,
    {
        let _ = self.map_row_tiles(out, rows, width, |t, rs, nr, chunk| f(t, rs, nr, chunk));
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::parallel()
    }
}

fn check_gemm_dims(m: usize, k: usize, n: usize, a: usize, b: usize, out: usize) {
    assert_eq!(a, m * k, "gemm: lhs is {a} elements, expected {m} x {k}");
    assert_eq!(b, k * n, "gemm: rhs is {b} elements, expected {k} x {n}");
    assert_eq!(
        out,
        m * n,
        "gemm: out is {out} elements, expected {m} x {n}"
    );
}

/// The seed scalar kernel over `m` rows: `i, p (zero-skip), j` with the
/// reduction dimension ascending — the per-element accumulation order every
/// other kernel must reproduce.
fn naive_rows(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                *o += aval as i64 * bval as i64;
            }
        }
    }
}

/// The cache-tiled kernel over `m` rows: ascending reduction blocks of
/// `tile_k`, so the `tile_k × n` panel of `b` stays hot across the block's
/// rows. Per-element accumulation order is identical to [`naive_rows`].
fn blocked_rows(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], tile_k: usize, out: &mut [i64]) {
    let mut kb = 0usize;
    while kb < k {
        let kend = (kb + tile_k).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aval) in arow.iter().enumerate().take(kend).skip(kb) {
                if aval == 0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                    *o += aval as i64 * bval as i64;
                }
            }
        }
        kb = kend;
    }
}

/// The `Simd` kernel: AVX2 on x86_64 hosts that report it, the portable
/// [`unrolled_rows`] fallback everywhere else.
fn simd_gemm(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
    #[cfg(target_arch = "x86_64")]
    if avx2::try_gemm_u8i8(m, k, n, a, b, out) {
        return;
    }
    unrolled_rows(m, k, n, a, b, out);
}

/// The portable fallback of the `Simd` kernel: the naive loop order with
/// the `j` loop hand-unrolled 4-wide so the compiler keeps four independent
/// accumulator chains. Per-element accumulation order (ascending `p`,
/// zero-skip) is identical to [`naive_rows`].
fn unrolled_rows(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let mut j = 0usize;
            while j + 4 <= n {
                orow[j] += aval as i64 * brow[j] as i64;
                orow[j + 1] += aval as i64 * brow[j + 1] as i64;
                orow[j + 2] += aval as i64 * brow[j + 2] as i64;
                orow[j + 3] += aval as i64 * brow[j + 3] as i64;
                j += 4;
            }
            while j < n {
                orow[j] += aval as i64 * brow[j] as i64;
                j += 1;
            }
        }
    }
}

/// The AVX2 kernel behind the `Simd` backend. Only compiled on x86_64. The
/// safe `try_gemm_u8i8` entry checks `is_x86_feature_detected!("avx2")` and
/// that the slice lengths match the dimensions before entering, which is
/// the entire safety obligation of the `unsafe` functions here: they read
/// `b` through raw pointers within `k × n`.
///
/// The kernel broadcasts one `a` element per reduction step and runs a strip
/// of output columns in 64-bit lanes: `_mm256_cvtepi8_epi64` sign-extends
/// the `b` strip, then `_mm256_mul_epi32` (signed low-32 × low-32 → 64)
/// accumulates exactly. Each output element still sees the reduction in
/// ascending-`k` order with the shared zero-skip rule, so results are
/// bit-exact with [`naive_rows`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    /// Runs the AVX2 u8×i8 kernel if the host supports it; `false` means
    /// the caller must take the portable fallback.
    pub fn try_gemm_u8i8(
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        super::check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        // SAFETY: avx2 verified at runtime and slice lengths checked just
        // above.
        unsafe { gemm_u8i8(m, k, n, a, b, out) };
        true
    }

    /// Strips of 16, then 8, then 4 output columns, each kept in 64-bit
    /// lanes across the whole reduction; the strip width follows `n`.
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_u8i8(m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 16 <= n {
                u8i8_strip::<4>(arow, b, n, j, orow.as_mut_ptr().add(j));
                j += 16;
            }
            if j + 8 <= n {
                u8i8_strip::<2>(arow, b, n, j, orow.as_mut_ptr().add(j));
                j += 8;
            }
            if j + 4 <= n {
                u8i8_strip::<1>(arow, b, n, j, orow.as_mut_ptr().add(j));
                j += 4;
            }
            // Fewer than 4 columns left: one pass down the reduction, row by
            // row of `b`, with the same ascending-k, zero-skip order per
            // element.
            let tail = &mut orow[j..];
            if !tail.is_empty() {
                let mut acc = [0i64; 3];
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    let brow = &b[p * n + j..(p + 1) * n];
                    for (acc, &bval) in acc.iter_mut().zip(brow) {
                        *acc += aval as i64 * bval as i64;
                    }
                }
                tail.copy_from_slice(&acc[..tail.len()]);
            }
        }
    }

    /// One strip of `4 * L` output columns starting at column `j` of one
    /// output row: `L` accumulators of four 64-bit lanes. Each step sign-
    /// extends 4 weight bytes per accumulator (`_mm256_cvtepi8_epi64`) and
    /// multiplies them by the broadcast activation with the signed low-32 ×
    /// low-32 → 64 multiply, which is exact because the u8 activation is
    /// non-negative. Inlined into the `#[target_feature]` caller.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `b` must hold `arow.len() × n` elements with
    /// `j + 4 * L <= n`, and `out` must be valid for `4 * L` writes.
    #[inline(always)]
    unsafe fn u8i8_strip<const L: usize>(arow: &[u8], b: &[i8], n: usize, j: usize, out: *mut i64) {
        let mut acc = [_mm256_setzero_si256(); L];
        for (p, &aval) in arow.iter().enumerate() {
            if aval == 0 {
                continue;
            }
            let va = _mm256_set1_epi64x(aval as i64);
            let bp = b.as_ptr().add(p * n + j);
            for (l, acc) in acc.iter_mut().enumerate() {
                let word = (bp.add(4 * l) as *const i32).read_unaligned();
                let vb = _mm256_cvtepi8_epi64(_mm_cvtsi32_si128(word));
                *acc = _mm256_add_epi64(*acc, _mm256_mul_epi32(va, vb));
            }
        }
        for (l, acc) in acc.iter().enumerate() {
            _mm256_storeu_si256(out.add(4 * l) as *mut __m256i, *acc);
        }
    }
}

/// Columns per packed panel (the microkernel's register-block width).
const PACK_NR: usize = 16;

/// The B matrix of a GEMM re-laid into column panels of [`PACK_NR`]: panel
/// `pj` holds columns `pj*NR .. pj*NR+NR` contiguously per reduction step
/// (`k × NR`, zero-padded in the last panel), so the microkernel streams B
/// linearly regardless of `n`. Packing is a pure, deterministic relayout —
/// computing through a pack is bit-identical to the unpacked kernels.
struct PackedRhs {
    k: usize,
    n: usize,
    data: Vec<i8>,
}

impl PackedRhs {
    /// Packs a row-major `k × n` matrix into column panels.
    fn pack(k: usize, n: usize, b: &[i8]) -> Self {
        let panels = n.div_ceil(PACK_NR);
        let mut data = vec![0; panels * k * PACK_NR];
        for pj in 0..panels {
            let j0 = pj * PACK_NR;
            let width = PACK_NR.min(n - j0);
            let base = pj * k * PACK_NR;
            for p in 0..k {
                for l in 0..width {
                    data[base + p * PACK_NR + l] = b[p * n + j0 + l];
                }
            }
        }
        PackedRhs { k, n, data }
    }
}

/// The register-blocked microkernel over packed panels: 2 rows × [`PACK_NR`]
/// columns of accumulators live across the whole reduction, B streams
/// linearly from the panel. Each output element still accumulates in
/// ascending-`k` order with the shared zero-skip rule, so results are
/// bit-exact with [`naive_rows`].
fn packed_rows(a: &[u8], pack: &PackedRhs, m: usize, out: &mut [i64]) {
    let (k, n) = (pack.k, pack.n);
    let panels = n.div_ceil(PACK_NR);
    for pj in 0..panels {
        let j0 = pj * PACK_NR;
        let width = PACK_NR.min(n - j0);
        let pdata = &pack.data[pj * k * PACK_NR..(pj + 1) * k * PACK_NR];
        let mut i = 0usize;
        while i + 2 <= m {
            let ar0 = &a[i * k..i * k + k];
            let ar1 = &a[(i + 1) * k..(i + 1) * k + k];
            let mut acc = [[0i64; PACK_NR]; 2];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                let a1 = ar1[p];
                let z0 = a0 == 0;
                let z1 = a1 == 0;
                // One fused pass over the panel row when both rows are live:
                // the common dense case loads each B lane once for two MACs.
                if !z0 && !z1 {
                    for l in 0..PACK_NR {
                        acc[0][l] += a0 as i64 * bl[l] as i64;
                        acc[1][l] += a1 as i64 * bl[l] as i64;
                    }
                } else if !z0 {
                    for l in 0..PACK_NR {
                        acc[0][l] += a0 as i64 * bl[l] as i64;
                    }
                } else if !z1 {
                    for l in 0..PACK_NR {
                        acc[1][l] += a1 as i64 * bl[l] as i64;
                    }
                }
            }
            for l in 0..width {
                out[i * n + j0 + l] = acc[0][l];
                out[(i + 1) * n + j0 + l] = acc[1][l];
            }
            i += 2;
        }
        if i < m {
            let ar0 = &a[i * k..i * k + k];
            let mut acc = [0i64; PACK_NR];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                if a0 != 0 {
                    for l in 0..PACK_NR {
                        acc[l] += a0 as i64 * bl[l] as i64;
                    }
                }
            }
            for l in 0..width {
                out[i * n + j0 + l] = acc[l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_i32(m: usize, k: usize, seed: u64) -> Vec<i32> {
        // Small deterministic LCG; values in the i8-ish range with zeros.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..m * k)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) % 255) as i32 - 127;
                if v % 5 == 0 {
                    0
                } else {
                    v
                }
            })
            .collect()
    }

    fn all_contexts() -> Vec<ExecContext> {
        let mut ctxs = vec![ExecContext::sequential()];
        for backend in GemmBackendKind::ALL {
            for threads in [1usize, 2, 8] {
                ctxs.push(ExecContext::new(ExecConfig {
                    threads,
                    tile_rows: 3,
                    tile_k: 7,
                    backend,
                }));
            }
        }
        ctxs
    }

    #[test]
    fn backend_kind_parse_round_trips() {
        for kind in GemmBackendKind::ALL {
            assert_eq!(GemmBackendKind::parse(kind.name()), Some(kind));
            let upper = kind.name().to_ascii_uppercase();
            assert_eq!(GemmBackendKind::parse(&upper), Some(kind));
        }
        assert_eq!(GemmBackendKind::parse("avx512"), None);
        assert_eq!(GemmBackendKind::default(), GemmBackendKind::Parallel);
    }

    /// `(m, k, n)` shapes on every boundary of the AVX2 u8×i8 column strips:
    /// n below, at and past 4, 8 and 16, and remainders of 1–3 columns after
    /// each strip width.
    const STRIP_SHAPES: [(usize, usize, usize); 14] = [
        (1, 1, 1),
        (6, 40, 5),
        (3, 9, 3),
        (5, 7, 4),
        (2, 13, 7),
        (4, 9, 8),
        (3, 5, 12),
        (6, 40, 15),
        (2, 3, 16),
        (7, 11, 23),
        (3, 17, 28),
        (5, 9, 31),
        (1, 33, 47),
        (4, 72, 48),
    ];

    /// u8 activations over the whole `0..=255` grid (a fifth of them zero)
    /// and i8 weights in `-127..=127`.
    fn sample_u8i8(m: usize, k: usize, n: usize, seed: u64) -> (Vec<u8>, Vec<i8>) {
        let a = sample_i32(m, k, seed)
            .iter()
            .map(|&v| if v == 0 { 0 } else { (v + 128) as u8 })
            .collect();
        let b = sample_i32(k, n, seed + 1)
            .iter()
            .map(|&v| v as i8)
            .collect();
        (a, b)
    }

    #[test]
    fn u8i8_gemm_identical_across_backends_and_threads() {
        for (seed, (m, k, n)) in (5u64..).step_by(2).zip(STRIP_SHAPES) {
            let (a, b) = sample_u8i8(m, k, n, seed);
            let mut reference = vec![0_i64; m * n];
            ExecContext::sequential().gemm_u8i8(m, k, n, &a, &b, &mut reference);
            for ctx in all_contexts() {
                let mut out = vec![0_i64; m * n];
                ctx.gemm_u8i8(m, k, n, &a, &b, &mut out);
                assert_eq!(out, reference, "{m}x{k}x{n} ctx {:?}", ctx.config());
            }
        }
    }

    /// `Simd`'s portable fallback, which an AVX2 host never reaches through
    /// the backends, against the seed kernel on the strip-boundary shapes.
    #[test]
    fn unrolled_u8i8_fallback_matches_naive() {
        for (seed, (m, k, n)) in (31u64..).step_by(2).zip(STRIP_SHAPES) {
            let (a, b) = sample_u8i8(m, k, n, seed);
            let mut reference = vec![0_i64; m * n];
            naive_rows(m, k, n, &a, &b, &mut reference);
            let mut out = vec![0_i64; m * n];
            unrolled_rows(m, k, n, &a, &b, &mut out);
            assert_eq!(out, reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn map_tiles_preserves_tile_order() {
        for threads in [1usize, 2, 3, 8] {
            let ctx = ExecContext::with_threads(threads);
            let results = ctx.map_tiles(17, |t| t * t);
            assert_eq!(results, (0..17).map(|t| t * t).collect::<Vec<_>>());
        }
        assert!(ExecContext::parallel().map_tiles(0, |t| t).is_empty());
    }

    #[test]
    fn map_row_tiles_covers_every_row_once() {
        for threads in [1usize, 2, 8] {
            let ctx = ExecContext::new(ExecConfig {
                threads,
                tile_rows: 4,
                ..ExecConfig::default()
            });
            let (rows, width) = (11usize, 3usize);
            let mut out = vec![0_u32; rows * width];
            let tiles = ctx.map_row_tiles(&mut out, rows, width, |t, row_start, nrows, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (row_start * width + i) as u32 + 1;
                }
                (t, row_start, nrows)
            });
            // Every element written exactly once, in its global position.
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u32 + 1);
            }
            // Tile descriptors arrive in order and cover 0..rows.
            assert_eq!(tiles.len(), 3);
            assert_eq!(tiles[0], (0, 0, 4));
            assert_eq!(tiles[1], (1, 4, 4));
            assert_eq!(tiles[2], (2, 8, 3));
        }
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let ctx = ExecContext::parallel();
        let mut out: Vec<i64> = Vec::new();
        ctx.gemm_u8i8(0, 5, 3, &[], &[0; 15], &mut out);
        let mut out = vec![7_i64; 4];
        // k = 0: output must be all zeros.
        ctx.gemm_u8i8(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm: lhs")]
    fn mismatched_lengths_panic() {
        let ctx = ExecContext::sequential();
        let mut out = vec![0_i64; 4];
        ctx.gemm_u8i8(2, 3, 2, &[1; 5], &[1; 6], &mut out);
    }

    #[test]
    fn config_clamps_to_valid_values() {
        let ctx = ExecContext::new(ExecConfig {
            threads: 0,
            tile_rows: 0,
            tile_k: 0,
            backend: GemmBackendKind::Parallel,
        });
        assert_eq!(ctx.threads(), 1);
        assert_eq!(ctx.config().tile_rows, 1);
        assert_eq!(ctx.config().tile_k, 1);
        assert!(available_threads() >= 1);
    }
}
