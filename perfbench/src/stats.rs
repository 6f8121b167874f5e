//! Exact order statistics over the benchmark's own samples, and the
//! slow-end estimator every timed metric uses.

/// The share of a run's windows (or simulator calls, or set-ups) whose cost
/// a timed metric's figure is at or above.
///
/// The VM shares its host. While the host is busy, this program's speed
/// alternates between a contended state and a faster one in stretches of
/// one to a few seconds. The contended state shows in nearly every such
/// run, but the share of fast stretches differs from run to run and moves
/// a median or mean with it; the slow end of the run repeats.
pub const SLOW_END: f64 = 0.9;

/// The `q`-quantile of `samples` by nearest rank: the smallest sample with
/// at least `q` of all samples at or below it. Sorts in place; 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    sorted_quantile(samples, q)
}

/// [`quantile`] of samples already sorted in ascending order.
pub fn sorted_quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1].into()
}

/// The median of `samples` (nearest rank, see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The slow end of per-window costs (times per unit of work).
pub fn slow_cost(costs: &mut [f64]) -> f64 {
    quantile(costs, SLOW_END)
}

/// The slow end of per-window rates (work per unit of time).
pub fn slow_rate(rates: &mut [f64]) -> f64 {
    quantile(rates, 1.0 - SLOW_END)
}

/// Median of integer nanosecond samples, converted by `scale` (e.g. `1e-3`
/// for microseconds).
pub fn median_ns(samples: &[u64], scale: f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(|&ns| ns as f64 * scale).collect();
    median(&mut values)
}
