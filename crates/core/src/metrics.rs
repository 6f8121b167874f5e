//! Error and utilization metrics for NB-SMT executions.
//!
//! These are the quantities plotted in the paper's evaluation: per-layer MSE
//! between the NB-SMT output and the error-free quantized output (Fig. 8),
//! utilization improvement over the conventional array together with the
//! analytic `1 + sparsity` curve of Eq. 8 (Fig. 9), and the architectural
//! speedup obtained from per-layer thread assignments (Tables IV–V, Fig. 10).

use serde::{Deserialize, Serialize};

use nbsmt_tensor::tensor::Matrix;

/// Per-layer error metrics of an NB-SMT execution against the error-free
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerError {
    /// Mean squared error between the NB-SMT output and the reference.
    pub mse: f64,
    /// MSE normalized by the reference signal power (relative error).
    pub relative_mse: f64,
    /// Maximum absolute element-wise error.
    pub max_abs_error: f64,
}

/// Computes [`LayerError`] between an NB-SMT output and the reference output.
///
/// # Panics
///
/// Panics when the two matrices have different dimensions.
pub fn layer_error(nbsmt: &Matrix<f32>, reference: &Matrix<f32>) -> LayerError {
    assert_eq!(nbsmt.rows(), reference.rows(), "row mismatch");
    assert_eq!(nbsmt.cols(), reference.cols(), "column mismatch");
    let n = nbsmt.as_slice().len();
    if n == 0 {
        return LayerError {
            mse: 0.0,
            relative_mse: 0.0,
            max_abs_error: 0.0,
        };
    }
    let mut sq = 0.0f64;
    let mut sig = 0.0f64;
    let mut max_abs = 0.0f64;
    for (a, b) in nbsmt.as_slice().iter().zip(reference.as_slice()) {
        let d = (*a - *b) as f64;
        sq += d * d;
        sig += (*b as f64) * (*b as f64);
        if d.abs() > max_abs {
            max_abs = d.abs();
        }
    }
    let mse = sq / n as f64;
    LayerError {
        mse,
        relative_mse: if sig == 0.0 { 0.0 } else { sq / sig },
        max_abs_error: max_abs,
    }
}

/// The analytic utilization-gain curve of Eq. 8: with activation sparsity `s`
/// and independent threads, a 2-threaded PE improves utilization by `1 + s`.
pub fn analytic_utilization_gain_2t(sparsity: f64) -> f64 {
    1.0 + sparsity.clamp(0.0, 1.0)
}

/// Generalization of Eq. 7/8 to `t` threads: utilization of a `t`-threaded PE
/// is `1 - (1 - r)^t` where `r = 1 - s`, so the gain over one thread is
/// `(1 - s^t) / (1 - s)` (and `t` when `s == 1`).
pub fn analytic_utilization_gain(sparsity: f64, threads: usize) -> f64 {
    let s = sparsity.clamp(0.0, 1.0);
    if threads <= 1 {
        return 1.0;
    }
    if (1.0 - s).abs() < 1e-12 {
        return threads as f64;
    }
    (1.0 - s.powi(threads as i32)) / (1.0 - s)
}

/// One layer's contribution to a whole-model run: how many MAC operations it
/// holds and how many threads it runs with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerSchedule {
    /// MAC operations of the layer (for one input).
    pub mac_ops: u64,
    /// Threads assigned to the layer (1, 2, or 4).
    pub threads: usize,
}

/// Architectural speedup of a per-layer thread assignment over the
/// conventional single-threaded array.
///
/// The paper's speedup is cycle-exact by construction: a layer running with
/// `T` threads takes `1/T` of its baseline cycles, so the whole-model speedup
/// is `Σ macs / Σ (macs / threads)`.
pub fn model_speedup(layers: &[LayerSchedule]) -> f64 {
    let total: f64 = layers.iter().map(|l| l.mac_ops as f64).sum();
    let scaled: f64 = layers
        .iter()
        .map(|l| l.mac_ops as f64 / l.threads.max(1) as f64)
        .sum();
    if scaled == 0.0 {
        1.0
    } else {
        total / scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(data: &[f32], rows: usize, cols: usize) -> Matrix<f32> {
        Matrix::from_vec(data.to_vec(), rows, cols).unwrap()
    }

    #[test]
    fn layer_error_zero_for_identical_outputs() {
        let a = m(&[1.0, -2.0, 3.0, 4.0], 2, 2);
        let e = layer_error(&a, &a);
        assert_eq!(e.mse, 0.0);
        assert_eq!(e.relative_mse, 0.0);
        assert_eq!(e.max_abs_error, 0.0);
    }

    #[test]
    fn layer_error_matches_manual_computation() {
        let a = m(&[1.0, 2.0], 1, 2);
        let b = m(&[0.0, 4.0], 1, 2);
        let e = layer_error(&a, &b);
        assert!((e.mse - (1.0 + 4.0) / 2.0).abs() < 1e-9);
        assert!((e.relative_mse - 5.0 / 16.0).abs() < 1e-9);
        assert!((e.max_abs_error - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "row mismatch")]
    fn layer_error_rejects_shape_mismatch() {
        let a = m(&[1.0], 1, 1);
        let b = m(&[1.0, 2.0], 2, 1);
        layer_error(&a, &b);
    }

    #[test]
    fn eq8_curve_is_linear_in_sparsity() {
        assert!((analytic_utilization_gain_2t(0.0) - 1.0).abs() < 1e-12);
        assert!((analytic_utilization_gain_2t(0.5) - 1.5).abs() < 1e-12);
        assert!((analytic_utilization_gain_2t(1.0) - 2.0).abs() < 1e-12);
        assert!((analytic_utilization_gain_2t(2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn generalized_gain_matches_two_thread_special_case() {
        for s in [0.0, 0.25, 0.5, 0.9] {
            assert!(
                (analytic_utilization_gain(s, 2) - analytic_utilization_gain_2t(s)).abs() < 1e-12
            );
        }
        assert!((analytic_utilization_gain(1.0, 4) - 4.0).abs() < 1e-12);
        assert!((analytic_utilization_gain(0.5, 1) - 1.0).abs() < 1e-12);
        // 4 threads at 50% sparsity: (1 - 0.0625) / 0.5 = 1.875
        assert!((analytic_utilization_gain(0.5, 4) - 1.875).abs() < 1e-12);
    }

    #[test]
    fn model_speedup_uniform_threads() {
        let layers = vec![
            LayerSchedule {
                mac_ops: 100,
                threads: 2,
            },
            LayerSchedule {
                mac_ops: 300,
                threads: 2,
            },
        ];
        assert!((model_speedup(&layers) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn model_speedup_with_slowed_layers() {
        // A model with 90% of MACs at 4T and 10% at 2T.
        let layers = vec![
            LayerSchedule {
                mac_ops: 900,
                threads: 4,
            },
            LayerSchedule {
                mac_ops: 100,
                threads: 2,
            },
        ];
        let s = model_speedup(&layers);
        assert!(s > 3.0 && s < 4.0, "speedup {s}");
        // Exact value: 1000 / (225 + 50) = 3.636...
        assert!((s - 1000.0 / 275.0).abs() < 1e-9);
    }

    #[test]
    fn model_speedup_degenerate_cases() {
        assert_eq!(model_speedup(&[]), 1.0);
        let layers = vec![LayerSchedule {
            mac_ops: 0,
            threads: 4,
        }];
        assert_eq!(model_speedup(&layers), 1.0);
    }
}
