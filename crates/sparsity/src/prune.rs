//! Magnitude-based weight pruning.
//!
//! The paper's 4-threaded evaluation (Fig. 10) prunes ResNet-18 with "simple
//! magnitude-based pruning that iteratively prunes a certain percentage of
//! the model weights followed by retraining". This module provides the
//! pruning operator and the mask it returns. The Fig. 10 experiment prunes
//! each compute layer with [`prune_to_sparsity`] and re-applies the returned
//! [`PruneMask`] after every SGD step, so pruned weights stay at zero while
//! the model retrains.

use serde::{Deserialize, Serialize};

/// A binary pruning mask over a flat weight buffer.
///
/// `true` entries are kept, `false` entries are pruned (forced to zero).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneMask {
    keep: Vec<bool>,
}

impl PruneMask {
    /// Creates a mask that keeps every weight.
    pub fn keep_all(len: usize) -> Self {
        PruneMask {
            keep: vec![true; len],
        }
    }

    /// Number of weights covered by the mask.
    pub fn len(&self) -> usize {
        self.keep.len()
    }

    /// Returns `true` when the mask is empty.
    pub fn is_empty(&self) -> bool {
        self.keep.is_empty()
    }

    /// Fraction of weights pruned by the mask.
    pub fn pruned_fraction(&self) -> f64 {
        if self.keep.is_empty() {
            return 0.0;
        }
        let pruned = self.keep.iter().filter(|&&k| !k).count();
        pruned as f64 / self.keep.len() as f64
    }

    /// Whether weight `i` is kept.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn is_kept(&self, i: usize) -> bool {
        self.keep[i]
    }

    /// Applies the mask in place: pruned weights are zeroed.
    ///
    /// # Panics
    ///
    /// Panics when the weight buffer length differs from the mask length.
    pub fn apply(&self, weights: &mut [f32]) {
        assert_eq!(
            weights.len(),
            self.keep.len(),
            "mask/weight length mismatch"
        );
        for (w, &k) in weights.iter_mut().zip(self.keep.iter()) {
            if !k {
                *w = 0.0;
            }
        }
    }
}

/// Computes a magnitude-pruning mask that removes the `fraction` smallest-
/// magnitude weights of the buffer.
///
/// `fraction` is clamped to `[0, 1]`. Ties at the threshold are resolved by
/// pruning the earliest-indexed weights first, so the requested fraction is
/// met exactly (up to integer rounding).
pub fn magnitude_mask(weights: &[f32], fraction: f64) -> PruneMask {
    let fraction = fraction.clamp(0.0, 1.0);
    let n = weights.len();
    let target = (n as f64 * fraction).round() as usize;
    if target == 0 || n == 0 {
        return PruneMask::keep_all(n);
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        weights[a]
            .abs()
            .partial_cmp(&weights[b].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut keep = vec![true; n];
    for &idx in order.iter().take(target.min(n)) {
        keep[idx] = false;
    }
    PruneMask { keep }
}

/// Prunes a weight buffer in place to the requested sparsity and returns the
/// mask used.
pub fn prune_to_sparsity(weights: &mut [f32], fraction: f64) -> PruneMask {
    let mask = magnitude_mask(weights, fraction);
    mask.apply(weights);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_mask_removes_smallest() {
        let w = vec![0.1, -0.5, 0.05, 2.0, -0.01];
        let mask = magnitude_mask(&w, 0.4);
        // two smallest magnitudes: 0.01 (idx 4) and 0.05 (idx 2)
        assert!(!mask.is_kept(4));
        assert!(!mask.is_kept(2));
        assert!(mask.is_kept(0));
        assert!(mask.is_kept(1));
        assert!(mask.is_kept(3));
        assert!((mask.pruned_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prune_to_sparsity_zeroes_weights() {
        let mut w = vec![0.1, -0.5, 0.05, 2.0, -0.01];
        let mask = prune_to_sparsity(&mut w, 0.4);
        assert_eq!(w[4], 0.0);
        assert_eq!(w[2], 0.0);
        assert_eq!(w[3], 2.0);
        assert!((mask.pruned_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn zero_fraction_keeps_everything() {
        let w = vec![1.0, 2.0];
        let mask = magnitude_mask(&w, 0.0);
        assert_eq!(mask.pruned_fraction(), 0.0);
        let mask = magnitude_mask(&[], 0.5);
        assert!(mask.is_empty());
    }

    #[test]
    fn full_fraction_prunes_everything() {
        let mut w = vec![1.0, 2.0, 3.0];
        let mask = prune_to_sparsity(&mut w, 1.0);
        assert_eq!(mask.pruned_fraction(), 1.0);
        assert!(w.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fraction_is_clamped() {
        let w = vec![1.0, 2.0];
        assert_eq!(magnitude_mask(&w, -1.0).pruned_fraction(), 0.0);
        assert_eq!(magnitude_mask(&w, 2.0).pruned_fraction(), 1.0);
    }

    #[test]
    fn mask_apply_length_mismatch_panics() {
        let mask = PruneMask::keep_all(3);
        let mut w = vec![1.0, 2.0];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mask.apply(&mut w)));
        assert!(r.is_err());
    }
}
