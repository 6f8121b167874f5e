//! Workspace-wide execution layer: a deterministic thread pool and tiled
//! GEMM backends behind one [`ExecContext`].
//!
//! Every hot loop nest in the reproduction — the dense f32/i32 GEMMs, the
//! error-free quantized reference matmul, the functional NB-SMT emulation,
//! and the cycle-level systolic walker — runs through this module. The
//! context owns two orthogonal decisions:
//!
//! * **Kernel choice** ([`GemmBackend`]): [`Naive`] (the seed scalar loop),
//!   [`Blocked`] (cache-tiled over row and reduction blocks), [`Parallel`]
//!   (row-tile fan-out over the pool: [`Simd`]'s u8×i8 kernel, the blocked
//!   kernel for f32 and i32), [`Simd`]
//!   (runtime-detected AVX2 intrinsics with a portable unrolled fallback),
//!   or [`Packed`] (B packed into column panels on every call +
//!   register-blocked microkernel).
//! * **Worker pool** (`threads`): scoped `std::thread` workers over a
//!   deterministic, contiguous partition of the tile space.
//!
//! # Determinism contract
//!
//! Integer results (`i32`, `u8×i8`) are **bit-exact across backends and
//! invariant to thread count**:
//!
//! * Work is partitioned into *row tiles* (or output tiles for the systolic
//!   walker). Each tile's computation is independent and identical to the
//!   sequential kernel's for those rows; per-element accumulation always
//!   visits the reduction dimension in ascending order, with the same
//!   zero-skip rule in every kernel.
//! * Per-tile side results (PE statistics, cycle counts) are returned to the
//!   caller **in tile order** regardless of which worker produced them, and
//!   callers reduce them in that order.
//!
//! For **f32** the same bit-exact guarantee holds for every backend *except*
//! [`Simd`]: its AVX2 kernel keeps several lane accumulators per output
//! element (and fuses multiply-add where FMA is available), which reassociates
//! the reduction. [`Simd`] f32 is the explicitly declared **fast-f32 tier**:
//! per element, results agree with the scalar reference to within
//! `1e-5 × Σₚ|aₚ·bₚ|` (tolerance relative to the ℓ1 magnitude of the
//! reduction, which stays meaningful under cancellation; enforced by
//! `tests/exec_equivalence.rs`), and remain deterministic for a fixed host
//! CPU. All integer kernels — including
//! [`Simd`]'s, whose lane loops preserve the ascending-`k` order per element
//! exactly — stay on the bit-exact tier.
//!
//! Any future backend (wider SIMD, distributed) slots in by implementing
//! [`GemmBackend`] and honouring the same contract.

use serde::{Deserialize, Serialize};

/// Which GEMM kernel an [`ExecContext`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GemmBackendKind {
    /// The seed scalar loop nest (row-major `i, p, j` with zero-skip).
    Naive,
    /// Cache-tiled kernel: row blocks × reduction blocks, ascending.
    Blocked,
    /// Row-tile fan-out over the worker pool: [`Simd`]'s bit-exact u8×i8
    /// kernel for the quantized GEMM, the blocked kernel for f32 and i32.
    #[default]
    Parallel,
    /// Runtime-detected AVX2 kernels (bit-exact integers, fast-f32 tier)
    /// with a portable unrolled fallback on other hosts.
    Simd,
    /// Packs B into column panels, then runs a register-blocked microkernel
    /// over the panels. Bit-exact for every element type.
    Packed,
}

impl GemmBackendKind {
    /// Parses a CLI-style backend name (`naive`, `blocked`, `parallel`,
    /// `simd`, `packed`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "naive" => Some(GemmBackendKind::Naive),
            "blocked" => Some(GemmBackendKind::Blocked),
            "parallel" => Some(GemmBackendKind::Parallel),
            "simd" => Some(GemmBackendKind::Simd),
            "packed" => Some(GemmBackendKind::Packed),
            _ => None,
        }
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
    /// Rows per work tile: the unit of parallel fan-out and the row-block
    /// size of the [`Blocked`] kernel.
    pub tile_rows: usize,
    /// Reduction-dimension block size of the [`Blocked`] kernel.
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

    /// The sequential context (1 thread, [`Naive`] kernel): bit-for-bit the
    /// seed behaviour, used by all no-context compatibility wrappers.
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

    /// The GEMM backend this context dispatches to.
    pub fn backend(&self) -> &'static dyn GemmBackend {
        match self.config.backend {
            GemmBackendKind::Naive => &Naive,
            GemmBackendKind::Blocked => &Blocked,
            GemmBackendKind::Parallel => &Parallel,
            GemmBackendKind::Simd => &Simd,
            GemmBackendKind::Packed => &Packed,
        }
    }

    /// `C = A × B` on f32 with the configured backend. Slices are row-major;
    /// `out` must hold `m * n` elements and is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_f32(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0.0);
        self.backend().gemm_f32(self, m, k, n, a, b, out);
    }

    /// `C = A × B` on i32 operands accumulating into i64.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_i32(&self, m: usize, k: usize, n: usize, a: &[i32], b: &[i32], out: &mut [i64]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0);
        self.backend().gemm_i32(self, m, k, n, a, b, out);
    }

    /// `C = A × B` on the quantized grid (u8 activations × i8 weights,
    /// i64 accumulators) — the hardware's exact integer arithmetic.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the dimensions.
    pub fn gemm_u8i8(&self, m: usize, k: usize, n: usize, a: &[u8], b: &[i8], out: &mut [i64]) {
        check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        out.fill(0);
        self.backend().gemm_u8i8(self, m, k, n, a, b, out);
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

/// A GEMM kernel family usable through an [`ExecContext`].
///
/// Implementations must honour the determinism contract: for identical
/// inputs the output must be bit-identical to [`Naive`]'s, for every thread
/// count. The supplied context carries the worker pool and tile sizes.
// A GEMM signature is irreducibly (dims, lhs, rhs, out) + context.
#[allow(clippy::too_many_arguments)]
pub trait GemmBackend: Sync {
    /// The backend's canonical name.
    fn name(&self) -> &'static str;

    /// f32 GEMM; `out` arrives zero-initialised.
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    );

    /// i32 GEMM with i64 accumulation; `out` arrives zero-initialised.
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    );

    /// Quantized-grid GEMM (u8 × i8 → i64); `out` arrives zero-initialised.
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    );
}

/// Element-type triple shared by the generic kernels, so each backend is
/// written once and stamped out for f32, i32, and the quantized u8×i8 grid.
trait GemmElems {
    /// Left operand element.
    type Lhs: Copy + Send + Sync;
    /// Right operand element.
    type Rhs: Copy + Send + Sync;
    /// Accumulator element. `Default` is the additive zero for every
    /// instantiation (`0.0f32`, `0i64`), which the register-blocked
    /// microkernel relies on to seed its accumulator block.
    type Acc: Copy + Send + Default;

    /// The zero-skip rule every kernel applies identically (part of the
    /// bit-exactness contract: skipping `0 × b` must match the seed loop).
    fn is_zero(a: Self::Lhs) -> bool;
    /// One multiply-accumulate.
    fn mac(acc: &mut Self::Acc, a: Self::Lhs, b: Self::Rhs);
}

struct F32Gemm;
impl GemmElems for F32Gemm {
    type Lhs = f32;
    type Rhs = f32;
    type Acc = f32;
    fn is_zero(a: f32) -> bool {
        a == 0.0
    }
    fn mac(acc: &mut f32, a: f32, b: f32) {
        *acc += a * b;
    }
}

struct I32Gemm;
impl GemmElems for I32Gemm {
    type Lhs = i32;
    type Rhs = i32;
    type Acc = i64;
    fn is_zero(a: i32) -> bool {
        a == 0
    }
    fn mac(acc: &mut i64, a: i32, b: i32) {
        *acc += a as i64 * b as i64;
    }
}

struct U8I8Gemm;
impl GemmElems for U8I8Gemm {
    type Lhs = u8;
    type Rhs = i8;
    type Acc = i64;
    fn is_zero(a: u8) -> bool {
        a == 0
    }
    fn mac(acc: &mut i64, a: u8, b: i8) {
        *acc += a as i64 * b as i64;
    }
}

/// The seed scalar kernel over a row range: `i, p (zero-skip), j` with the
/// reduction dimension ascending — the per-element accumulation order every
/// other kernel must reproduce.
fn naive_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    out: &mut [E::Acc],
) {
    for i in 0..nrows {
        let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if E::is_zero(aval) {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                E::mac(o, aval, bval);
            }
        }
    }
}

/// The cache-tiled kernel over a row range: ascending reduction blocks of
/// `tile_k`, so the `tile_k × n` panel of `b` stays hot across the block's
/// rows. Per-element accumulation order is identical to [`naive_rows`].
#[allow(clippy::too_many_arguments)]
fn blocked_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    tile_k: usize,
    out: &mut [E::Acc],
) {
    let mut kb = 0usize;
    while kb < k {
        let kend = (kb + tile_k).min(k);
        for i in 0..nrows {
            let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (p, &aval) in arow.iter().enumerate().take(kend).skip(kb) {
                if E::is_zero(aval) {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bval) in orow.iter_mut().zip(brow.iter()) {
                    E::mac(o, aval, bval);
                }
            }
        }
        kb = kend;
    }
}

fn parallel_gemm<E: GemmElems>(
    ctx: &ExecContext,
    m: usize,
    k: usize,
    n: usize,
    a: &[E::Lhs],
    b: &[E::Rhs],
    out: &mut [E::Acc],
) {
    let tile_k = ctx.config().tile_k;
    if ctx.threads() <= 1 {
        // One worker: skip the row-tile fan-out entirely and run the blocked
        // kernel over the whole row range, so a 1-core host pays no per-tile
        // overhead and re-reads the `tile_k × n` panel of `b` once per block
        // instead of once per tile. Bit-identical by the determinism
        // contract (same per-element accumulation order).
        blocked_rows::<E>(a, b, k, n, 0, m, tile_k, out);
        return;
    }
    ctx.for_each_row_tile(out, m, n, |_tile, row_start, nrows, chunk| {
        blocked_rows::<E>(a, b, k, n, row_start, nrows, tile_k, chunk);
    });
}

/// The seed scalar loop nest, run inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Naive;

impl GemmBackend for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        naive_rows::<F32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        naive_rows::<I32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_u8i8(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        naive_rows::<U8I8Gemm>(a, b, k, n, 0, m, out);
    }
}

/// The cache-tiled kernel, run inline on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked;

impl GemmBackend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        blocked_rows::<F32Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        blocked_rows::<I32Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        blocked_rows::<U8I8Gemm>(a, b, k, n, 0, m, ctx.config().tile_k, out);
    }
}

/// Row-tile fan-out over the context's worker pool. The quantized u8×i8
/// GEMM runs [`Simd`]'s bit-exact kernel on each tile; f32 and i32 run the
/// blocked kernel ([`Simd`] f32 is not bit-exact, and i32 is not served).
#[derive(Debug, Clone, Copy, Default)]
pub struct Parallel;

impl GemmBackend for Parallel {
    fn name(&self) -> &'static str {
        "parallel"
    }
    fn gemm_f32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        parallel_gemm::<F32Gemm>(ctx, m, k, n, a, b, out);
    }
    fn gemm_i32(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        parallel_gemm::<I32Gemm>(ctx, m, k, n, a, b, out);
    }
    fn gemm_u8i8(
        &self,
        ctx: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        // The served quantized GEMM: `Simd`'s bit-exact integer kernel on
        // each row tile (on the whole matrix at one thread), which beats the
        // blocked scalar kernel at every served shape.
        if ctx.threads() <= 1 {
            Simd.gemm_u8i8(ctx, m, k, n, a, b, out);
            return;
        }
        ctx.for_each_row_tile(out, m, n, |_tile, row_start, nrows, chunk| {
            let rows = &a[row_start * k..(row_start + nrows) * k];
            Simd.gemm_u8i8(ctx, nrows, k, n, rows, b, chunk);
        });
    }
}

/// The portable fallback for [`Simd`]: the naive loop order with the `j`
/// loop hand-unrolled 4-wide so the compiler keeps four independent
/// accumulator chains. Per-element accumulation order (ascending `p`,
/// zero-skip) is identical to [`naive_rows`], so this stays on the bit-exact
/// tier for every element type including f32.
fn unrolled_rows<E: GemmElems>(
    a: &[E::Lhs],
    b: &[E::Rhs],
    k: usize,
    n: usize,
    row_start: usize,
    nrows: usize,
    out: &mut [E::Acc],
) {
    for i in 0..nrows {
        let arow = &a[(row_start + i) * k..(row_start + i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            if E::is_zero(aval) {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let mut j = 0usize;
            while j + 4 <= n {
                E::mac(&mut orow[j], aval, brow[j]);
                E::mac(&mut orow[j + 1], aval, brow[j + 1]);
                E::mac(&mut orow[j + 2], aval, brow[j + 2]);
                E::mac(&mut orow[j + 3], aval, brow[j + 3]);
                j += 4;
            }
            while j < n {
                E::mac(&mut orow[j], aval, brow[j]);
                j += 1;
            }
        }
    }
}

/// AVX2 kernels behind the [`Simd`] backend. Only compiled on x86_64. Each
/// safe `try_` entry checks `is_x86_feature_detected!("avx2")` (and `"fma"`
/// for the fused f32 path) and that the slice lengths match the dimensions
/// before entering, which is the entire safety obligation of the `unsafe`
/// functions here: they read `b` through raw pointers within `k × n`.
///
/// Integer kernels broadcast one `a` element per reduction step and run a
/// strip of output columns in 64-bit lanes: `_mm256_cvtepi32_epi64` /
/// `_mm256_cvtepi8_epi64` sign-extend the `b` strip, then
/// `_mm256_mul_epi32` (signed low-32 × low-32 → 64) accumulates exactly.
/// Each output element still sees the reduction in ascending-`k` order with
/// the shared zero-skip rule, so integer results are bit-exact with
/// [`naive_rows`]. The f32 kernel instead keeps 4 ymm accumulators per
/// column strip and fuses multiply-add when FMA is available — the declared
/// fast-f32 tier (see the module docs).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    /// Runs the AVX2 i32 kernel if the host supports it; `false` means the
    /// caller must take the portable fallback.
    pub fn try_gemm_i32(
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        super::check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        // SAFETY: avx2 verified at runtime and slice lengths checked just
        // above.
        unsafe { gemm_i32(m, k, n, a, b, out) };
        true
    }

    /// Runs the AVX2 u8×i8 kernel if the host supports it.
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

    /// Runs the AVX2 f32 kernel (fused multiply-add where the host has FMA)
    /// if the host supports it.
    pub fn try_gemm_f32(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        super::check_gemm_dims(m, k, n, a.len(), b.len(), out.len());
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: avx2 + fma verified at runtime and slice lengths
            // checked just above.
            unsafe { gemm_f32_fma(m, k, n, a, b, out) };
        } else {
            // SAFETY: avx2 verified at runtime and slice lengths checked
            // just above.
            unsafe { gemm_f32(m, k, n, a, b, out) };
        }
        true
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_i32(m: usize, k: usize, n: usize, a: &[i32], b: &[i32], out: &mut [i64]) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 16 <= n {
                let mut acc0 = _mm256_setzero_si256();
                let mut acc1 = _mm256_setzero_si256();
                let mut acc2 = _mm256_setzero_si256();
                let mut acc3 = _mm256_setzero_si256();
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    let va = _mm256_set1_epi64x(aval as i64);
                    let bp = b.as_ptr().add(p * n + j);
                    let b01 = _mm256_loadu_si256(bp as *const __m256i);
                    let b23 = _mm256_loadu_si256(bp.add(8) as *const __m256i);
                    let vb0 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b01));
                    let vb1 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(b01));
                    let vb2 = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b23));
                    let vb3 = _mm256_cvtepi32_epi64(_mm256_extracti128_si256::<1>(b23));
                    acc0 = _mm256_add_epi64(acc0, _mm256_mul_epi32(va, vb0));
                    acc1 = _mm256_add_epi64(acc1, _mm256_mul_epi32(va, vb1));
                    acc2 = _mm256_add_epi64(acc2, _mm256_mul_epi32(va, vb2));
                    acc3 = _mm256_add_epi64(acc3, _mm256_mul_epi32(va, vb3));
                }
                let op = orow.as_mut_ptr().add(j);
                _mm256_storeu_si256(op as *mut __m256i, acc0);
                _mm256_storeu_si256(op.add(4) as *mut __m256i, acc1);
                _mm256_storeu_si256(op.add(8) as *mut __m256i, acc2);
                _mm256_storeu_si256(op.add(12) as *mut __m256i, acc3);
                j += 16;
            }
            // Scalar tail: same ascending-k, zero-skip order per element.
            for jj in j..n {
                let mut acc = 0i64;
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0 {
                        continue;
                    }
                    acc += aval as i64 * b[p * n + jj] as i64;
                }
                orow[jj] = acc;
            }
        }
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

    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_f32_fma(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_f32_impl::<true>(m, k, n, a, b, out);
    }

    #[target_feature(enable = "avx2")]
    unsafe fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        gemm_f32_impl::<false>(m, k, n, a, b, out);
    }

    /// Shared f32 strip kernel; `FMA` selects fused multiply-add. Inlined
    /// into the two `#[target_feature]` wrappers above so each gets compiled
    /// with its own feature set.
    #[inline(always)]
    unsafe fn gemm_f32_impl<const FMA: bool>(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            let mut j = 0usize;
            while j + 32 <= n {
                let mut acc0 = _mm256_setzero_ps();
                let mut acc1 = _mm256_setzero_ps();
                let mut acc2 = _mm256_setzero_ps();
                let mut acc3 = _mm256_setzero_ps();
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    let va = _mm256_set1_ps(aval);
                    let bp = b.as_ptr().add(p * n + j);
                    let vb0 = _mm256_loadu_ps(bp);
                    let vb1 = _mm256_loadu_ps(bp.add(8));
                    let vb2 = _mm256_loadu_ps(bp.add(16));
                    let vb3 = _mm256_loadu_ps(bp.add(24));
                    if FMA {
                        acc0 = _mm256_fmadd_ps(va, vb0, acc0);
                        acc1 = _mm256_fmadd_ps(va, vb1, acc1);
                        acc2 = _mm256_fmadd_ps(va, vb2, acc2);
                        acc3 = _mm256_fmadd_ps(va, vb3, acc3);
                    } else {
                        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(va, vb0));
                        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(va, vb1));
                        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(va, vb2));
                        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(va, vb3));
                    }
                }
                let op = orow.as_mut_ptr().add(j);
                _mm256_storeu_ps(op, acc0);
                _mm256_storeu_ps(op.add(8), acc1);
                _mm256_storeu_ps(op.add(16), acc2);
                _mm256_storeu_ps(op.add(24), acc3);
                j += 32;
            }
            for jj in j..n {
                let mut acc = 0.0f32;
                for (p, &aval) in arow.iter().enumerate() {
                    if aval == 0.0 {
                        continue;
                    }
                    acc += aval * b[p * n + jj];
                }
                orow[jj] = acc;
            }
        }
    }
}

/// Runtime-detected SIMD kernels: AVX2 on x86_64 hosts that report it, the
/// portable `unrolled_rows` fallback everywhere else. Integer kernels are
/// bit-exact; f32 is the declared fast-f32 tier (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct Simd;

impl GemmBackend for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2::try_gemm_f32(m, k, n, a, b, out) {
            return;
        }
        unrolled_rows::<F32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2::try_gemm_i32(m, k, n, a, b, out) {
            return;
        }
        unrolled_rows::<I32Gemm>(a, b, k, n, 0, m, out);
    }
    fn gemm_u8i8(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx2::try_gemm_u8i8(m, k, n, a, b, out) {
            return;
        }
        unrolled_rows::<U8I8Gemm>(a, b, k, n, 0, m, out);
    }
}

/// Columns per packed panel (the microkernel's register-block width).
const PACK_NR: usize = 16;

/// The B matrix of a GEMM re-laid into column panels of [`PACK_NR`]: panel
/// `pj` holds columns `pj*NR .. pj*NR+NR` contiguously per reduction step
/// (`k × NR`, zero-padded in the last panel), so the microkernel streams B
/// linearly regardless of `n`. Packing is a pure, deterministic relayout —
/// computing through a pack is bit-identical to the unpacked kernels for
/// every element type.
struct PackedRhs<T> {
    k: usize,
    n: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> PackedRhs<T> {
    /// Packs a row-major `k × n` matrix into column panels.
    fn pack(k: usize, n: usize, b: &[T]) -> Self {
        let panels = n.div_ceil(PACK_NR);
        let mut data = vec![T::default(); panels * k * PACK_NR];
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
/// bit-exact with [`naive_rows`] for every element type including f32.
fn packed_rows<E: GemmElems>(a: &[E::Lhs], pack: &PackedRhs<E::Rhs>, m: usize, out: &mut [E::Acc]) {
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
            let mut acc = [[E::Acc::default(); PACK_NR]; 2];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                let a1 = ar1[p];
                let z0 = E::is_zero(a0);
                let z1 = E::is_zero(a1);
                // One fused pass over the panel row when both rows are live:
                // the common dense case loads each B lane once for two MACs.
                if !z0 && !z1 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[0][l], a0, bl[l]);
                        E::mac(&mut acc[1][l], a1, bl[l]);
                    }
                } else if !z0 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[0][l], a0, bl[l]);
                    }
                } else if !z1 {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[1][l], a1, bl[l]);
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
            let mut acc = [E::Acc::default(); PACK_NR];
            for p in 0..k {
                let bl = &pdata[p * PACK_NR..(p + 1) * PACK_NR];
                let a0 = ar0[p];
                if !E::is_zero(a0) {
                    for l in 0..PACK_NR {
                        E::mac(&mut acc[l], a0, bl[l]);
                    }
                }
            }
            for l in 0..width {
                out[i * n + j0 + l] = acc[l];
            }
        }
    }
}

/// Packs B on every call, then runs the register-blocked microkernel over
/// the panels. Bit-exact for every element type.
#[derive(Debug, Clone, Copy, Default)]
pub struct Packed;

impl GemmBackend for Packed {
    fn name(&self) -> &'static str {
        "packed"
    }
    fn gemm_f32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
    ) {
        packed_rows::<F32Gemm>(a, &PackedRhs::pack(k, n, b), m, out);
    }
    fn gemm_i32(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[i32],
        b: &[i32],
        out: &mut [i64],
    ) {
        packed_rows::<I32Gemm>(a, &PackedRhs::pack(k, n, b), m, out);
    }
    fn gemm_u8i8(
        &self,
        _: &ExecContext,
        m: usize,
        k: usize,
        n: usize,
        a: &[u8],
        b: &[i8],
        out: &mut [i64],
    ) {
        packed_rows::<U8I8Gemm>(a, &PackedRhs::pack(k, n, b), m, out);
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
        for backend in [
            GemmBackendKind::Naive,
            GemmBackendKind::Blocked,
            GemmBackendKind::Parallel,
            GemmBackendKind::Simd,
            GemmBackendKind::Packed,
        ] {
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
        for kind in [
            GemmBackendKind::Naive,
            GemmBackendKind::Blocked,
            GemmBackendKind::Parallel,
            GemmBackendKind::Simd,
            GemmBackendKind::Packed,
        ] {
            assert_eq!(GemmBackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            GemmBackendKind::parse("NAIVE"),
            Some(GemmBackendKind::Naive)
        );
        assert_eq!(GemmBackendKind::parse("avx512"), None);
        assert_eq!(GemmBackendKind::default(), GemmBackendKind::Parallel);
    }

    #[test]
    fn i32_gemm_identical_across_backends_and_threads() {
        let (m, k, n) = (13, 29, 11);
        let a = sample_i32(m, k, 1);
        let b = sample_i32(k, n, 2);
        let mut reference = vec![0_i64; m * n];
        ExecContext::sequential().gemm_i32(m, k, n, &a, &b, &mut reference);
        for ctx in all_contexts() {
            let mut out = vec![0_i64; m * n];
            ctx.gemm_i32(m, k, n, &a, &b, &mut out);
            assert_eq!(out, reference, "ctx {:?}", ctx.config());
        }
    }

    #[test]
    fn f32_gemm_bit_exact_across_backends_and_threads() {
        let (m, k, n) = (9, 33, 7);
        let a: Vec<f32> = sample_i32(m, k, 3)
            .iter()
            .map(|&v| v as f32 * 0.37)
            .collect();
        let b: Vec<f32> = sample_i32(k, n, 4)
            .iter()
            .map(|&v| v as f32 * 0.11)
            .collect();
        let mut reference = vec![0.0_f32; m * n];
        ExecContext::sequential().gemm_f32(m, k, n, &a, &b, &mut reference);
        let ref_bits: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        for ctx in all_contexts() {
            // Simd f32 is the declared fast-f32 tier (reassociated lanes),
            // covered by its own tolerance test below; every other backend
            // stays bit-exact.
            if ctx.config().backend == GemmBackendKind::Simd {
                continue;
            }
            let mut out = vec![0.0_f32; m * n];
            ctx.gemm_f32(m, k, n, &a, &b, &mut out);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, ref_bits, "ctx {:?}", ctx.config());
        }
    }

    #[test]
    fn simd_f32_stays_within_declared_tolerance() {
        // Shapes chosen to exercise the 32-wide strip and the scalar tail.
        for (m, k, n) in [(9, 33, 7), (4, 17, 40), (3, 64, 37)] {
            let a: Vec<f32> = sample_i32(m, k, 3)
                .iter()
                .map(|&v| v as f32 * 0.37)
                .collect();
            let b: Vec<f32> = sample_i32(k, n, 4)
                .iter()
                .map(|&v| v as f32 * 0.11)
                .collect();
            let mut reference = vec![0.0_f32; m * n];
            ExecContext::sequential().gemm_f32(m, k, n, &a, &b, &mut reference);
            let ctx = ExecContext::new(ExecConfig {
                backend: GemmBackendKind::Simd,
                ..ExecConfig::sequential()
            });
            let mut out = vec![0.0_f32; m * n];
            ctx.gemm_f32(m, k, n, &a, &b, &mut out);
            for (idx, (&got, &want)) in out.iter().zip(reference.iter()).enumerate() {
                // Declared fast-f32 tier: 1e-5 relative to the l1 magnitude
                // of the reduction (robust under cancellation).
                let (i, j) = (idx / n, idx % n);
                let scale: f32 = (0..k).map(|p| (a[i * k + p] * b[p * n + j]).abs()).sum();
                let tol = 1e-5_f32 * scale.max(1.0);
                assert!(
                    (got - want).abs() <= tol,
                    "element {idx}: {got} vs {want} ({m}x{k}x{n})"
                );
            }
        }
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
            naive_rows::<U8I8Gemm>(&a, &b, k, n, 0, m, &mut reference);
            let mut out = vec![0_i64; m * n];
            unrolled_rows::<U8I8Gemm>(&a, &b, k, n, 0, m, &mut out);
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
        ctx.gemm_i32(0, 5, 3, &[], &[0; 15], &mut out);
        let mut out = vec![7_i64; 4];
        // k = 0: output must be all zeros.
        ctx.gemm_i32(2, 0, 2, &[], &[], &mut out);
        assert_eq!(out, vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm: lhs")]
    fn mismatched_lengths_panic() {
        let ctx = ExecContext::sequential();
        let mut out = vec![0_i64; 4];
        ctx.gemm_i32(2, 3, 2, &[1; 5], &[1; 6], &mut out);
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
