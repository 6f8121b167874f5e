//! Serving-grade metrics: a fixed-bucket latency histogram, batch-size
//! distribution, queue-depth tracking, and completion/rejection counters.
//!
//! The histogram uses power-of-two nanosecond buckets (`[2^i, 2^{i+1})`),
//! so recording is branch-free integer work and two runs that observe the
//! same latencies produce identical state — quantile estimates are therefore
//! deterministic, which the virtual-clock tests rely on.

/// Number of power-of-two buckets: covers 1 ns up to ~2^48 ns (~3 days).
const BUCKETS: usize = 48;

/// Fixed-bucket latency histogram over nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency observation.
    pub fn record(&mut self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds another histogram's observations into this one (replica-pool
    /// metric aggregation).
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Estimates the `q`-quantile (0 ≤ q ≤ 1) in nanoseconds by linear
    /// interpolation inside the owning bucket. Returns 0 on an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = 1u64 << i;
                let hi = lo << 1;
                let into = (rank - seen) as f64 / c as f64;
                return lo + ((hi - lo) as f64 * into) as u64;
            }
            seen += c;
        }
        1u64 << (BUCKETS - 1)
    }
}

/// Aggregate serving metrics for one session / scheduler.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeMetrics {
    /// Per-request latency histogram (submit → response).
    pub latency: LatencyHistogram,
    /// Per-request queue-wait histogram (submit → batch launch): the
    /// admission-side half of `latency`, so the trace summary and the p95
    /// adaptive trigger agree on where time went.
    pub queue_wait: LatencyHistogram,
    /// Per-request service-time histogram (batch launch → response): the
    /// execution-side half of `latency`.
    pub service: LatencyHistogram,
    /// `batch_sizes[s]` counts batches that launched with `s` requests.
    pub batch_sizes: Vec<u64>,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Deepest queue observed at batch-formation time.
    pub max_queue_depth: usize,
    /// Adaptive mode switches (replica pools; 0 for a fixed-mode server).
    pub mode_transitions: u64,
    /// `batches_per_mode[m]` counts batches executed at ladder rung `m`
    /// (empty when the scheduler never records modes).
    pub batches_per_mode: Vec<u64>,
    /// Injected replica crashes observed (0 outside fault injection).
    pub crashes: u64,
    /// In-queue requests re-routed off a crashed replica.
    pub handoffs: u64,
    /// In-queue requests shed at a crash because no survivor could take
    /// them.
    pub handoff_shed: u64,
    /// Injected stalls observed.
    pub stalls: u64,
    /// Controller scale-up decisions (one replica activated each).
    pub scale_ups: u64,
    /// Controller scale-down decisions (one replica deactivated each).
    pub scale_downs: u64,
    /// Predictive ladder-floor shifts (either direction).
    pub predictive_shifts: u64,
    /// Work-stealing transfers executed by the controller.
    pub steals: u64,
    /// Queued requests moved across replicas by work stealing.
    pub stolen_requests: u64,
    /// Sum of queue depths sampled at batch-formation time (for the mean).
    depth_sum: u64,
}

impl ServeMetrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        ServeMetrics::default()
    }

    /// Records one completed request's latency.
    pub fn record_latency(&mut self, ns: u64) {
        self.latency.record(ns);
        self.completed += 1;
    }

    /// Records one completed request's queue-wait and service-time split
    /// (companion to [`Self::record_latency`]; both drivers call it with
    /// `wait + service == latency` up to the launch instant used).
    pub fn record_stage_split(&mut self, wait_ns: u64, service_ns: u64) {
        self.queue_wait.record(wait_ns);
        self.service.record(service_ns);
    }

    /// Records one launched batch and the queue depth left behind it.
    pub fn record_batch(&mut self, size: usize, queue_depth_after: usize) {
        if self.batch_sizes.len() <= size {
            self.batch_sizes.resize(size + 1, 0);
        }
        self.batch_sizes[size] += 1;
        self.max_queue_depth = self.max_queue_depth.max(queue_depth_after + size);
        self.depth_sum += (queue_depth_after + size) as u64;
    }

    /// Records one admission-control rejection.
    pub fn record_rejected(&mut self) {
        self.rejected += 1;
    }

    /// Records the ladder rung one launched batch executed at.
    pub fn record_mode_batch(&mut self, mode: usize) {
        if self.batches_per_mode.len() <= mode {
            self.batches_per_mode.resize(mode + 1, 0);
        }
        self.batches_per_mode[mode] += 1;
    }

    /// Records one adaptive mode switch.
    pub fn record_transition(&mut self) {
        self.mode_transitions += 1;
    }

    /// Records one injected replica crash.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Records one request handed off from a crashed replica to a survivor.
    pub fn record_handoff(&mut self) {
        self.handoffs += 1;
    }

    /// Records one request shed at a crash (no eligible survivor).
    pub fn record_handoff_shed(&mut self) {
        self.handoff_shed += 1;
    }

    /// Records one injected stall.
    pub fn record_stall(&mut self) {
        self.stalls += 1;
    }

    /// Records one controller scale-up decision.
    pub fn record_scale_up(&mut self) {
        self.scale_ups += 1;
    }

    /// Records one controller scale-down decision.
    pub fn record_scale_down(&mut self) {
        self.scale_downs += 1;
    }

    /// Records one predictive ladder-floor shift.
    pub fn record_predictive_shift(&mut self) {
        self.predictive_shifts += 1;
    }

    /// Records one work-stealing transfer of `moved` queued requests.
    pub fn record_steal(&mut self, moved: usize) {
        self.steals += 1;
        self.stolen_requests += moved as u64;
    }

    /// Folds another replica's metrics into this one: histograms and
    /// counters add, extrema take the max — the pool-level aggregate over
    /// per-replica schedulers.
    pub fn merge(&mut self, other: &ServeMetrics) {
        self.latency.absorb(&other.latency);
        self.queue_wait.absorb(&other.queue_wait);
        self.service.absorb(&other.service);
        if self.batch_sizes.len() < other.batch_sizes.len() {
            self.batch_sizes.resize(other.batch_sizes.len(), 0);
        }
        for (size, &count) in other.batch_sizes.iter().enumerate() {
            self.batch_sizes[size] += count;
        }
        if self.batches_per_mode.len() < other.batches_per_mode.len() {
            self.batches_per_mode
                .resize(other.batches_per_mode.len(), 0);
        }
        for (mode, &count) in other.batches_per_mode.iter().enumerate() {
            self.batches_per_mode[mode] += count;
        }
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.mode_transitions += other.mode_transitions;
        self.crashes += other.crashes;
        self.handoffs += other.handoffs;
        self.handoff_shed += other.handoff_shed;
        self.stalls += other.stalls;
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.predictive_shifts += other.predictive_shifts;
        self.steals += other.steals;
        self.stolen_requests += other.stolen_requests;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.depth_sum += other.depth_sum;
    }

    /// Number of batches launched.
    pub fn batches(&self) -> u64 {
        self.batch_sizes.iter().sum()
    }

    /// Mean batch size over all launched batches (0 when none launched).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .batch_sizes
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum();
        weighted as f64 / batches as f64
    }

    /// Freezes a snapshot, deriving throughput from `elapsed_ns` (wall clock
    /// for the threaded pool, virtual makespan for the simulator).
    pub fn snapshot(&self, elapsed_ns: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            completed: self.completed,
            rejected: self.rejected,
            batches: self.batches(),
            mean_batch_size: self.mean_batch_size(),
            max_queue_depth: self.max_queue_depth,
            mode_transitions: self.mode_transitions,
            batches_per_mode: self.batches_per_mode.clone(),
            crashes: self.crashes,
            handoffs: self.handoffs,
            handoff_shed: self.handoff_shed,
            stalls: self.stalls,
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            predictive_shifts: self.predictive_shifts,
            steals: self.steals,
            stolen_requests: self.stolen_requests,
            p50_ns: self.latency.quantile(0.50),
            p95_ns: self.latency.quantile(0.95),
            p99_ns: self.latency.quantile(0.99),
            queue_wait_p50_ns: self.queue_wait.quantile(0.50),
            queue_wait_p95_ns: self.queue_wait.quantile(0.95),
            queue_wait_p99_ns: self.queue_wait.quantile(0.99),
            service_p50_ns: self.service.quantile(0.50),
            service_p95_ns: self.service.quantile(0.95),
            service_p99_ns: self.service.quantile(0.99),
            throughput_rps: if elapsed_ns == 0 {
                0.0
            } else {
                self.completed as f64 * 1e9 / elapsed_ns as f64
            },
            elapsed_ns,
        }
    }
}

/// A frozen view of [`ServeMetrics`] with derived quantiles and throughput.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests completed.
    pub completed: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Batches launched.
    pub batches: u64,
    /// Mean launched batch size.
    pub mean_batch_size: f64,
    /// Deepest queue observed at batch-formation time.
    pub max_queue_depth: usize,
    /// Adaptive mode switches over the window (0 for fixed-mode servers).
    pub mode_transitions: u64,
    /// Batches executed per ladder rung (empty when modes were not
    /// recorded).
    pub batches_per_mode: Vec<u64>,
    /// Injected replica crashes (0 outside fault injection).
    pub crashes: u64,
    /// Requests handed off from crashed replicas to survivors.
    pub handoffs: u64,
    /// Requests shed at a crash because no survivor could take them.
    pub handoff_shed: u64,
    /// Injected stalls.
    pub stalls: u64,
    /// Controller scale-up decisions.
    pub scale_ups: u64,
    /// Controller scale-down decisions.
    pub scale_downs: u64,
    /// Predictive ladder-floor shifts.
    pub predictive_shifts: u64,
    /// Work-stealing transfers.
    pub steals: u64,
    /// Queued requests moved by work stealing.
    pub stolen_requests: u64,
    /// Median latency estimate in ns.
    pub p50_ns: u64,
    /// 95th-percentile latency estimate in ns.
    pub p95_ns: u64,
    /// 99th-percentile latency estimate in ns.
    pub p99_ns: u64,
    /// Median queue-wait estimate in ns (submit → batch launch).
    pub queue_wait_p50_ns: u64,
    /// 95th-percentile queue-wait estimate in ns.
    pub queue_wait_p95_ns: u64,
    /// 99th-percentile queue-wait estimate in ns.
    pub queue_wait_p99_ns: u64,
    /// Median service-time estimate in ns (batch launch → response).
    pub service_p50_ns: u64,
    /// 95th-percentile service-time estimate in ns.
    pub service_p95_ns: u64,
    /// 99th-percentile service-time estimate in ns.
    pub service_p99_ns: u64,
    /// Completed requests per second over the observation window.
    pub throughput_rps: f64,
    /// The observation window in ns.
    pub elapsed_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_bucketed() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for ns in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200] {
            h.record(ns);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p50 of the ten samples above lands in the bucket of 800–1600.
        assert!((512..4096).contains(&p50), "p50 {p50}");
        assert!(p99 >= 32768, "p99 {p99}");
    }

    #[test]
    fn histogram_is_deterministic_across_insertion_order() {
        let samples = [5u64, 9000, 23, 77777, 1, 4096, 4097];
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &s in &samples {
            a.record(s);
        }
        for &s in samples.iter().rev() {
            b.record(s);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_latencies_clamp_into_last_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0); // clamped to the 1 ns bucket
        h.record(u64::MAX); // clamped to the final bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= 1u64 << (BUCKETS - 1));
    }

    #[test]
    fn empty_histogram_returns_zero_for_every_quantile() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q}");
        }
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_puts_every_quantile_at_its_bucket_upper_edge() {
        let mut h = LatencyHistogram::new();
        h.record(100); // bucket [64, 128)
                       // rank is always 1, so interpolation lands on the bucket's upper
                       // edge regardless of q — and all quantiles agree.
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 128, "q={q}");
        }
    }

    #[test]
    fn quantile_interpolates_exactly_at_bucket_boundaries() {
        // Four samples in the [1024, 2048) bucket: rank r interpolates to
        // 1024 + 1024 * r/4.
        let mut h = LatencyHistogram::new();
        for _ in 0..4 {
            h.record(1024);
        }
        assert_eq!(h.quantile(0.25), 1024 + 256);
        assert_eq!(h.quantile(0.5), 1024 + 512);
        assert_eq!(h.quantile(0.75), 1024 + 768);
        assert_eq!(h.quantile(1.0), 2048);
        // q=0 clamps the rank to 1 (never 0 — an empty prefix has no
        // sample to name).
        assert_eq!(h.quantile(0.0), 1024 + 256);
        // A power-of-two observation belongs to the bucket it *opens*:
        // 2048 goes to [2048, 4096), not [1024, 2048).
        h.record(2048);
        assert_eq!(h.quantile(1.0), 4096);
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        let mut h = LatencyHistogram::new();
        // Anything at or past 2^47 ns lands in the final bucket, including
        // u64::MAX — whose naive bucket index (63) must clamp to BUCKETS-1.
        h.record(1u64 << 47);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 3);
        let top_lo = 1u64 << (BUCKETS - 1);
        for q in [0.5, 0.95, 1.0] {
            let v = h.quantile(q);
            assert!(v >= top_lo, "q={q} gave {v}");
            assert!(v <= top_lo << 1, "q={q} gave {v}");
        }
    }

    #[test]
    fn merge_is_equivalent_to_recording_everything_in_one_place() {
        let mut a = ServeMetrics::new();
        let mut b = ServeMetrics::new();
        let mut whole = ServeMetrics::new();
        for (target, latencies, batch) in [
            (&mut a, [1_000u64, 2_000].as_slice(), (2usize, 3usize)),
            (&mut b, [50_000, 60_000, 70_000].as_slice(), (3, 7)),
        ] {
            target.record_batch(batch.0, batch.1);
            whole.record_batch(batch.0, batch.1);
            for &ns in latencies {
                target.record_latency(ns);
                whole.record_latency(ns);
                // Split accounting rides along: a third waits, the rest
                // serves.
                target.record_stage_split(ns / 3, ns - ns / 3);
                whole.record_stage_split(ns / 3, ns - ns / 3);
            }
        }
        a.record_mode_batch(0);
        whole.record_mode_batch(0);
        b.record_mode_batch(2);
        whole.record_mode_batch(2);
        b.record_transition();
        whole.record_transition();
        b.record_rejected();
        whole.record_rejected();
        a.record_crash();
        whole.record_crash();
        a.record_handoff();
        whole.record_handoff();
        b.record_handoff_shed();
        whole.record_handoff_shed();
        b.record_stall();
        whole.record_stall();
        a.record_scale_up();
        whole.record_scale_up();
        b.record_scale_down();
        whole.record_scale_down();
        a.record_predictive_shift();
        whole.record_predictive_shift();
        b.record_steal(5);
        whole.record_steal(5);

        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        assert_eq!(merged.snapshot(1_000), whole.snapshot(1_000));
        let snap = merged.snapshot(1_000);
        assert_eq!(snap.mode_transitions, 1);
        assert_eq!(snap.batches_per_mode, vec![1, 0, 1]);
        assert_eq!(
            (snap.crashes, snap.handoffs, snap.handoff_shed, snap.stalls),
            (1, 1, 1, 1)
        );
        assert_eq!(
            (snap.scale_ups, snap.scale_downs, snap.predictive_shifts),
            (1, 1, 1)
        );
        assert_eq!((snap.steals, snap.stolen_requests), (1, 5));
    }

    #[test]
    fn metrics_aggregate_batches_and_latencies() {
        let mut m = ServeMetrics::new();
        m.record_batch(4, 2);
        m.record_batch(8, 0);
        m.record_batch(4, 1);
        for _ in 0..16 {
            m.record_latency(1_000_000);
        }
        m.record_rejected();
        assert_eq!(m.batches(), 3);
        assert!((m.mean_batch_size() - 16.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.max_queue_depth, 8);
        let snap = m.snapshot(1_000_000_000);
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.rejected, 1);
        assert!((snap.throughput_rps - 16.0).abs() < 1e-9);
        assert!(snap.p50_ns >= 524_288 && snap.p50_ns <= 2_097_152);
        assert_eq!(m.snapshot(0).throughput_rps, 0.0);
    }
}
