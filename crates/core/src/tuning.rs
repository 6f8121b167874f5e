//! Per-layer thread tuning: trading speedup for accuracy.
//!
//! Section V-B of the paper observes that some layers contribute much more
//! error than others when executed with NB-SMT. SySMT is tunable, so those
//! layers can be slowed down — a 4-threaded model may run its highest-MSE
//! layers with two threads (Table V), or a 2-threaded model may run them
//! with one thread (the GoogLeNet and MLPerf operating points). Layers are
//! ranked by recorded MSE; ties are broken towards the beginning of the
//! network, exactly as described in the paper. Tuning starts from a base
//! assignment and only slows layers the base runs faster than the slow
//! thread count, so a layer the base keeps at one thread stays there.
//! [`tuning_sweep`] is the rule the Table V and Fig. 10 experiments run.

use serde::{Deserialize, Serialize};

use crate::metrics::{model_speedup, LayerSchedule};
use crate::ThreadCount;

/// Per-layer profile used to drive tuning decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Position of the layer in the network (0 = first).
    pub index: usize,
    /// MAC operations of the layer for a single input.
    pub mac_ops: u64,
    /// Recorded MSE of the layer under the fast (many-thread) configuration.
    pub mse: f64,
}

/// A per-layer thread assignment for a whole model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadAssignment {
    threads: Vec<usize>,
}

impl ThreadAssignment {
    /// Creates a uniform assignment of `threads` to `layers` layers.
    pub fn uniform(layers: usize, threads: ThreadCount) -> Self {
        ThreadAssignment {
            threads: vec![threads.count(); layers],
        }
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Returns `true` when no layers are covered.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Threads assigned to layer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn threads_for(&self, i: usize) -> usize {
        self.threads[i]
    }

    /// Sets the thread count of layer `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn set(&mut self, i: usize, threads: ThreadCount) {
        self.threads[i] = threads.count();
    }

    /// Iterates over the per-layer thread counts.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.threads.iter().copied()
    }

    /// Number of layers running slower than `fast` threads.
    pub fn slowed_layers(&self, fast: usize) -> usize {
        self.threads.iter().filter(|&&t| t < fast).count()
    }
}

/// Ranks layers by recorded MSE, highest first; ties are broken towards the
/// start of the network (lower index first), per §V-B.
pub fn rank_layers_by_mse(profiles: &[LayerProfile]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by(|&a, &b| {
        profiles[b]
            .mse
            .partial_cmp(&profiles[a].mse)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(profiles[a].index.cmp(&profiles[b].index))
    });
    order
}

/// Builds the Table V style operating point: every layer keeps its `base`
/// thread count except the `slowdown_count` highest-MSE layers among those
/// `base` runs faster than `slow`, which run with `slow` threads.
pub fn slow_down_top_mse_layers(
    profiles: &[LayerProfile],
    base: &ThreadAssignment,
    slow: ThreadCount,
    slowdown_count: usize,
) -> ThreadAssignment {
    let mut assignment = base.clone();
    let faster = rank_layers_by_mse(profiles)
        .into_iter()
        .filter(|&layer| base.threads_for(layer) > slow.count());
    for layer in faster.take(slowdown_count) {
        assignment.set(layer, slow);
    }
    assignment
}

/// Architectural speedup of an assignment over the single-threaded baseline.
///
/// # Panics
///
/// Panics when the assignment and profile lengths differ.
pub fn assignment_speedup(profiles: &[LayerProfile], assignment: &ThreadAssignment) -> f64 {
    assert_eq!(profiles.len(), assignment.len(), "length mismatch");
    let layers: Vec<LayerSchedule> = profiles
        .iter()
        .zip(assignment.iter())
        .map(|(p, threads)| LayerSchedule {
            mac_ops: p.mac_ops,
            threads,
        })
        .collect();
    model_speedup(&layers)
}

/// One point of the accuracy-versus-speedup trade-off sweep (Fig. 10 /
/// Table V): how many layers were slowed down, and the resulting speedup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningPoint {
    /// Number of layers forced to the slow thread count.
    pub slowed_layers: usize,
    /// Architectural speedup over the 1-threaded baseline.
    pub speedup: f64,
    /// The per-layer assignment.
    pub assignment: ThreadAssignment,
}

/// Sweeps the number of slowed-down layers from 0 to `max_slowdowns` (at
/// most the number of layers `base` runs faster than `slow`), producing one
/// [`TuningPoint`] per step (the x-axis of Fig. 10), starting from `base`.
pub fn tuning_sweep(
    profiles: &[LayerProfile],
    base: &ThreadAssignment,
    slow: ThreadCount,
    max_slowdowns: usize,
) -> Vec<TuningPoint> {
    let max_slowdowns = max_slowdowns.min(base.iter().filter(|&t| t > slow.count()).count());
    (0..=max_slowdowns)
        .map(|count| {
            let assignment = slow_down_top_mse_layers(profiles, base, slow, count);
            TuningPoint {
                slowed_layers: count,
                speedup: assignment_speedup(profiles, &assignment),
                assignment,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<LayerProfile> {
        vec![
            LayerProfile {
                index: 0,
                mac_ops: 100,
                mse: 0.5,
            },
            LayerProfile {
                index: 1,
                mac_ops: 400,
                mse: 2.0,
            },
            LayerProfile {
                index: 2,
                mac_ops: 300,
                mse: 2.0,
            },
            LayerProfile {
                index: 3,
                mac_ops: 200,
                mse: 0.1,
            },
        ]
    }

    #[test]
    fn ranking_is_by_mse_then_index() {
        let order = rank_layers_by_mse(&profiles());
        assert_eq!(order, vec![1, 2, 0, 3]);
    }

    #[test]
    fn uniform_assignment() {
        let a = ThreadAssignment::uniform(3, ThreadCount::Four);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|t| t == 4));
        assert_eq!(a.slowed_layers(4), 0);
    }

    fn uniform_4t() -> ThreadAssignment {
        ThreadAssignment::uniform(4, ThreadCount::Four)
    }

    #[test]
    fn slow_down_top_mse_layers_picks_highest() {
        let a = slow_down_top_mse_layers(&profiles(), &uniform_4t(), ThreadCount::Two, 2);
        assert_eq!(a.threads_for(1), 2);
        assert_eq!(a.threads_for(2), 2);
        assert_eq!(a.threads_for(0), 4);
        assert_eq!(a.threads_for(3), 4);
        assert_eq!(a.slowed_layers(4), 2);
    }

    #[test]
    fn assignment_speedup_matches_manual_computation() {
        let p = profiles();
        let a = slow_down_top_mse_layers(&p, &uniform_4t(), ThreadCount::Two, 1);
        // Layer 1 (400 macs) at 2T, the rest at 4T:
        // total = 1000, scaled = 100/4 + 400/2 + 300/4 + 200/4 = 25+200+75+50 = 350
        let s = assignment_speedup(&p, &a);
        assert!((s - 1000.0 / 350.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_speedup_is_monotonically_decreasing() {
        let p = profiles();
        let sweep = tuning_sweep(&p, &uniform_4t(), ThreadCount::Two, 4);
        assert_eq!(sweep.len(), 5);
        assert!((sweep[0].speedup - 4.0).abs() < 1e-9);
        for w in sweep.windows(2) {
            assert!(w[1].speedup <= w[0].speedup + 1e-12);
        }
        // Slowing every layer down to 2T gives exactly 2x.
        assert!((sweep[4].speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_clamped_to_layer_count() {
        let p = profiles();
        let sweep = tuning_sweep(&p, &uniform_4t(), ThreadCount::Two, 100);
        assert_eq!(sweep.len(), p.len() + 1);
    }

    #[test]
    fn layers_the_base_runs_at_the_slow_count_or_below_are_never_picked() {
        // Layer 1 has the highest MSE but already runs at one thread.
        let p = profiles();
        let mut base = uniform_4t();
        base.set(1, ThreadCount::One);
        let a = slow_down_top_mse_layers(&p, &base, ThreadCount::Two, 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![2, 1, 2, 4]);
        // Only three layers can slow down, so the sweep has four points.
        let sweep = tuning_sweep(&p, &base, ThreadCount::Two, 100);
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].assignment, base);
        assert_eq!(
            sweep[3].assignment.iter().collect::<Vec<_>>(),
            vec![2, 1, 2, 2]
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn assignment_speedup_rejects_mismatch() {
        let a = ThreadAssignment::uniform(2, ThreadCount::Two);
        assignment_speedup(&profiles(), &a);
    }
}
