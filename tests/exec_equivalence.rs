//! Execution-layer equivalence properties: every GEMM backend and every
//! host thread count must produce bit-identical results — u8×i8 GEMM
//! outputs, NB-SMT outputs *including* `PeStats`, and systolic simulation
//! outputs alike. This is the determinism contract of `tensor::exec`
//! checked end to end over random shapes and sparsities.

use proptest::prelude::*;

use nbsmt_repro::core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::core::ThreadCount;
use nbsmt_repro::quant::qtensor::{QuantMatrix, QuantWeightMatrix};
use nbsmt_repro::quant::quantize::{quantize_activations, quantize_weights};
use nbsmt_repro::quant::scheme::QuantScheme;
use nbsmt_repro::systolic::array::{OutputStationaryArray, SystolicConfig};
use nbsmt_repro::tensor::exec::{ExecConfig, ExecContext, GemmBackendKind};
use nbsmt_repro::tensor::random::{SynthesisConfig, TensorSynthesizer};
use nbsmt_repro::tensor::tensor::Matrix;

/// The host thread counts the contract is checked at (per the issue: the
/// degenerate 1-thread mode, one common count, and an oversubscribed one).
const HOST_THREADS: [usize; 3] = [1, 2, 8];

/// Every backend × thread-count combination, with deliberately small tiles
/// so that even tiny matrices split across several tiles and workers.
fn all_contexts() -> Vec<ExecContext> {
    let mut ctxs = Vec::new();
    for backend in GemmBackendKind::ALL {
        for threads in HOST_THREADS {
            ctxs.push(ExecContext::new(ExecConfig {
                threads,
                tile_rows: 3,
                tile_k: 5,
                backend,
            }));
        }
    }
    ctxs
}

fn synth_f32(seed: u64, rows: usize, cols: usize, sparsity: f64) -> Matrix<f32> {
    let mut synth = TensorSynthesizer::new(seed);
    let t = synth.tensor(&SynthesisConfig::activation(1.0, sparsity), &[rows, cols]);
    Matrix::from_vec(t.into_vec(), rows, cols).expect("dimensions match")
}

/// A quantized layer: ReLU activations with `sparsity` extra zeros, and
/// signed Laplace weights with a `pruned` fraction zeroed, so both signs of
/// every weight code path (nibble rounding, the nibble-fit check, the AVX2
/// sign extension) run.
fn synth_layer(
    seed: u64,
    m: usize,
    k: usize,
    n: usize,
    sparsity: f64,
    pruned: f64,
) -> (QuantMatrix, QuantWeightMatrix) {
    let x = quantize_activations(
        &synth_f32(seed, m, k, sparsity),
        &QuantScheme::activation_a8(),
        None,
    );
    let mut synth = TensorSynthesizer::new(seed ^ 0xabcd);
    let w = synth.tensor(&SynthesisConfig::weight(0.3, pruned), &[k, n]);
    let w = quantize_weights(
        &Matrix::from_vec(w.into_vec(), k, n).expect("dimensions match"),
        &QuantScheme::weight_w8(),
    );
    (x, w)
}

proptest! {
    /// The quantized-grid GEMM (u8 activations × i8 weights) is identical
    /// for every backend at 1/2/8 host threads. With n up to 47 the AVX2
    /// kernel's 16-, 8- and 4-column strips and its scalar remainder all run.
    #[test]
    fn u8i8_gemm_is_backend_and_thread_invariant(
        m in 1usize..20, k in 1usize..40, n in 1usize..48,
        seed in 0u64..1_000_000, sparsity_pct in 0usize..90, pruned_pct in 0usize..90,
    ) {
        let (x, w) = synth_layer(
            seed, m, k, n, sparsity_pct as f64 / 100.0, pruned_pct as f64 / 100.0,
        );
        let (a, b) = (x.values().as_slice(), w.values().as_slice());
        let mut reference = vec![0_i64; m * n];
        ExecContext::sequential().gemm_u8i8(m, k, n, a, b, &mut reference);
        for ctx in all_contexts() {
            let mut out = vec![0_i64; m * n];
            ctx.gemm_u8i8(m, k, n, a, b, &mut out);
            prop_assert_eq!(&out, &reference, "ctx {:?}", ctx.config());
        }
    }

    /// The algorithmic fast NB-SMT path (the default `execute_with`)
    /// reproduces the event-walking oracle (`execute_event_with`) exactly —
    /// output matrix *and* `PeStats` — over random shapes, sparsities,
    /// sharing policies, 2T/4T, and reordering, and is invariant to the GEMM
    /// backend computing its base product. With n up to 47 the correction
    /// GEMMs run the AVX2 kernel's 16-column strips too.
    #[test]
    fn fast_nbsmt_path_matches_event_oracle(
        m in 1usize..14, k in 2usize..40, n in 1usize..48,
        seed in 0u64..1_000_000, sparsity_pct in 0usize..90, pruned_pct in 0usize..90,
        four_threads in any::<bool>(), reorder in any::<bool>(),
        policy_idx in 0usize..9,
    ) {
        const POLICIES: [SharingPolicy; 9] = [
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
        let (x, w) = synth_layer(
            seed, m, k, n, sparsity_pct as f64 / 100.0, pruned_pct as f64 / 100.0,
        );
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: if four_threads { ThreadCount::Four } else { ThreadCount::Two },
            policy: POLICIES[policy_idx],
            reorder,
        });
        let oracle = emu
            .execute_event_with(&ExecContext::sequential(), &x, &w)
            .expect("dimensions match");
        for backend in GemmBackendKind::ALL {
            let ctx = ExecContext::new(ExecConfig {
                threads: 1,
                tile_rows: 4,
                tile_k: 16,
                backend,
            });
            let fast = emu.execute_with(&ctx, &x, &w).expect("dimensions match");
            prop_assert_eq!(&fast, &oracle, "backend {:?}", backend);
        }
    }

    /// The NB-SMT emulation — output matrix *and* PeStats — is invariant to
    /// the host thread count for 2T and 4T, with and without reordering.
    #[test]
    fn nbsmt_output_and_stats_are_thread_invariant(
        m in 1usize..16, k in 2usize..32, n in 1usize..10,
        seed in 0u64..1_000_000, sparsity_pct in 0usize..80, pruned_pct in 0usize..90,
        four_threads in any::<bool>(), reorder in any::<bool>(),
    ) {
        let (x, w) = synth_layer(
            seed, m, k, n, sparsity_pct as f64 / 100.0, pruned_pct as f64 / 100.0,
        );
        let emu = NbSmtMatmul::new(NbSmtMatmulConfig {
            threads: if four_threads { ThreadCount::Four } else { ThreadCount::Two },
            policy: SharingPolicy::S_A,
            reorder,
        });
        let reference = emu
            .execute_with(&ExecContext::sequential(), &x, &w)
            .expect("dimensions match");
        for threads in HOST_THREADS {
            let ctx = ExecContext::new(ExecConfig {
                threads,
                tile_rows: 2,
                ..ExecConfig::default()
            });
            let out = emu.execute_with(&ctx, &x, &w).expect("dimensions match");
            prop_assert_eq!(&out, &reference, "host threads {}", threads);
        }
    }

    /// The cycle-level systolic simulation — outputs and SimStats — is
    /// invariant to the host thread count simulating its tiles.
    #[test]
    fn systolic_simulation_is_thread_invariant(
        m in 1usize..12, k in 1usize..20, n in 1usize..10,
        seed in 0u64..1_000_000, sparsity_pct in 0usize..80, pruned_pct in 0usize..90,
    ) {
        let (x, w) = synth_layer(
            seed, m, k, n, sparsity_pct as f64 / 100.0, pruned_pct as f64 / 100.0,
        );
        let array = OutputStationaryArray::new(SystolicConfig::new(4, 4));
        let reference = array
            .matmul_with(&ExecContext::sequential(), x.values(), w.values())
            .expect("dimensions match");
        for threads in HOST_THREADS {
            let ctx = ExecContext::with_threads(threads);
            let out = array
                .matmul_with(&ctx, x.values(), w.values())
                .expect("dimensions match");
            prop_assert_eq!(&out, &reference, "host threads {}", threads);
        }
    }
}
