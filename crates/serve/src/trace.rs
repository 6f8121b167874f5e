//! Deterministic end-to-end tracing for the serving stack.
//!
//! A [`TraceRecorder`] is a bounded, constant-memory ring buffer of
//! structured [`TraceEvent`]s covering the whole request path: submit →
//! queue wait → batch formation → session dispatch → per-layer kernel
//! execution (with NB-SMT [`PeStats`] squeeze/collision counters attached
//! per layer) → response. Every scheduler driver emits the same schema; the
//! only difference is where timestamps come from:
//!
//! * The virtual-clock simulator ([`crate::sim::simulate_pool`]) and
//!   the lockstep [`crate::pool::ReplicaPool`] stamp events with
//!   [`ServiceModel`]-derived virtual nanoseconds, so the two drivers emit
//!   **bit-identical traces** for the same seeded burst — the tracing
//!   extension of the lockstep determinism contract.
//! * The free-running pool stamps events through
//!   [`Clock::wall`], real elapsed nanoseconds since the recorder's epoch.
//!
//! Worker threads record concurrently, so insertion order is not
//! deterministic under parallelism; [`TraceRecorder::snapshot`] therefore
//! returns events in a **canonical order** (start time, replica, batch,
//! stage, layer, request), which is what makes the exported byte stream
//! comparable across host thread counts and GEMM backends. The ring bound
//! keeps memory constant: once `capacity` events are held, each new event
//! overwrites the oldest and the explicit `dropped` counter ticks —
//! determinism of the *exported* trace is only guaranteed while nothing was
//! dropped.
//!
//! [`ServiceModel`]: crate::sim::ServiceModel

use std::sync::Mutex;
use std::time::Instant;

use nbsmt_core::pe::PeStats;

/// Default ring capacity: 64Ki events (a few MiB), enough for every
/// committed spec while keeping the recorder strictly constant-memory.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Where a recorder's wall-clock timestamps come from. Virtual-clock
/// drivers bypass the clock entirely and stamp events with model time, so
/// the same recorder type serves both worlds.
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Real time: nanoseconds elapsed since the recorder's creation epoch.
    Wall {
        /// The instant `now_ns` measures from.
        epoch: Instant,
    },
    /// Virtual time: the driver supplies [`crate::sim::ServiceModel`]
    /// nanoseconds explicitly; [`Clock::now_ns`] always reads 0.
    Virtual,
}

impl Clock {
    /// A wall clock anchored at the current instant.
    pub fn wall() -> Clock {
        Clock::Wall {
            epoch: Instant::now(),
        }
    }

    /// The virtual clock: timestamps are supplied by the driver.
    pub fn virtual_clock() -> Clock {
        Clock::Virtual
    }

    /// True when timestamps are driver-supplied virtual nanoseconds.
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual)
    }

    /// Nanoseconds since the epoch (0 under the virtual clock).
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall { epoch } => epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
            Clock::Virtual => 0,
        }
    }

    /// Maps an [`Instant`] (e.g. a request's submission time) onto this
    /// clock's timeline; 0 for instants at or before the epoch, and 0 under
    /// the virtual clock.
    pub fn instant_ns(&self, at: Instant) -> u64 {
        match self {
            Clock::Wall { epoch } => at
                .saturating_duration_since(*epoch)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
            Clock::Virtual => 0,
        }
    }
}

/// The span taxonomy of the request path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// Instant: a request was admitted and routed (arrival time).
    Submit,
    /// Span: admission → batch launch, per request.
    QueueWait,
    /// Span: one coalesced batch, launch → finish.
    Batch,
    /// Span: one layer's kernel execution inside a batch, with its
    /// [`PeStats`] attached.
    Kernel,
    /// Span: batch launch → response, per request (the in-service time).
    Service,
    /// Instant: the request's response completed.
    Respond,
    /// Instant: a pool-controller decision (scale, steal, or predictive
    /// shift) was applied; see [`crate::control::ControlEvent`] for the
    /// structured record.
    Control,
}

impl TraceStage {
    /// Stable display name (the Chrome-trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceStage::Submit => "submit",
            TraceStage::QueueWait => "queue_wait",
            TraceStage::Batch => "batch",
            TraceStage::Kernel => "kernel",
            TraceStage::Service => "service",
            TraceStage::Respond => "respond",
            TraceStage::Control => "control",
        }
    }

    /// Pipeline rank used by the canonical event order.
    pub fn rank(&self) -> u8 {
        match self {
            TraceStage::Submit => 0,
            TraceStage::QueueWait => 1,
            TraceStage::Batch => 2,
            TraceStage::Kernel => 3,
            TraceStage::Service => 4,
            TraceStage::Respond => 5,
            TraceStage::Control => 6,
        }
    }

    /// True for zero-duration instant events (submit/respond/control
    /// markers).
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            TraceStage::Submit | TraceStage::Respond | TraceStage::Control
        )
    }
}

/// One structured trace event. Spans carry a duration; instants have
/// `dur_ns == 0`. Optional fields identify what the span belongs to:
/// requests carry `request`, batch-scoped spans carry `batch`/`mode`, and
/// kernel spans additionally carry `layer` and the layer's [`PeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which pipeline stage this event records.
    pub stage: TraceStage,
    /// Replica (or scheduler) index the event occurred on.
    pub replica: usize,
    /// Request key/id, for request-scoped stages.
    pub request: Option<u64>,
    /// Replica-local 1-based batch index, for batch-scoped stages.
    pub batch: Option<u64>,
    /// Ladder rung the batch executed at.
    pub mode: Option<usize>,
    /// Compute-layer index, for kernel spans.
    pub layer: Option<usize>,
    /// Span start (ns on the recorder's timeline).
    pub start_ns: u64,
    /// Span duration (0 for instants).
    pub dur_ns: u64,
    /// Number of requests coalesced, for batch spans.
    pub batch_size: Option<usize>,
    /// NB-SMT PE counters for kernel spans (zeroed for dense layers).
    pub stats: Option<PeStats>,
}

impl TraceEvent {
    /// A bare event for `stage` on `replica` spanning
    /// `[start_ns, start_ns + dur_ns)`; attach identities with the builder
    /// methods.
    pub fn new(stage: TraceStage, replica: usize, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            stage,
            replica,
            request: None,
            batch: None,
            mode: None,
            layer: None,
            start_ns,
            dur_ns,
            batch_size: None,
            stats: None,
        }
    }

    /// Attaches the request key.
    pub fn request(mut self, key: u64) -> TraceEvent {
        self.request = Some(key);
        self
    }

    /// Attaches the replica-local 1-based batch index.
    pub fn batch(mut self, index: u64) -> TraceEvent {
        self.batch = Some(index);
        self
    }

    /// Attaches the ladder rung.
    pub fn mode(mut self, mode: usize) -> TraceEvent {
        self.mode = Some(mode);
        self
    }

    /// Attaches the compute-layer index.
    pub fn layer(mut self, layer: usize) -> TraceEvent {
        self.layer = Some(layer);
        self
    }

    /// Attaches the batch size.
    pub fn batch_size(mut self, size: usize) -> TraceEvent {
        self.batch_size = Some(size);
        self
    }

    /// Attaches the layer's PE counters.
    pub fn stats(mut self, stats: PeStats) -> TraceEvent {
        self.stats = Some(stats);
        self
    }

    /// The canonical sort key: chronological, then replica, then batch,
    /// then pipeline stage, then layer, then request. Worker threads may
    /// record in any interleaving; sorting by this key recovers one
    /// deterministic order for identical event sets.
    fn sort_key(&self) -> (u64, usize, u64, u8, usize, u64, u64) {
        (
            self.start_ns,
            self.replica,
            self.batch.unwrap_or(0),
            self.stage.rank(),
            self.layer.unwrap_or(0),
            self.request.unwrap_or(0),
            self.dur_ns,
        )
    }
}

/// One layer's kernel execution as a traced forward pass reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerKernel {
    /// Compute-layer index within the model.
    pub layer: usize,
    /// GEMM output rows (the batch's sample count for dense layers).
    pub rows: usize,
    /// GEMM output columns.
    pub cols: usize,
    /// PE counters for the layer ([`PeStats::default`] on dense layers,
    /// which never enter the NB-SMT array).
    pub stats: PeStats,
}

/// A frozen, canonically ordered view of a recorder's contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Events in canonical order: chronological, then replica, batch,
    /// pipeline stage, layer, and request.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
    /// The ring capacity the recorder was built with.
    pub capacity: usize,
}

struct Ring {
    events: Vec<TraceEvent>,
    /// Oldest slot once the ring is full (next to be overwritten).
    head: usize,
    dropped: u64,
}

/// Bounded, internally synchronized trace-event recorder. Share it as
/// `Arc<TraceRecorder>` across scheduler workers; recording is one short
/// mutex-guarded ring write.
pub struct TraceRecorder {
    clock: Clock,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl TraceRecorder {
    /// A recorder over `clock` holding at most `capacity` events (clamped
    /// to at least 1).
    pub fn new(clock: Clock, capacity: usize) -> TraceRecorder {
        let capacity = capacity.max(1);
        TraceRecorder {
            clock,
            capacity,
            ring: Mutex::new(Ring {
                events: Vec::new(),
                head: 0,
                dropped: 0,
            }),
        }
    }

    /// A virtual-clock recorder at the default capacity — what the
    /// deterministic drivers use.
    pub fn virtual_clock() -> TraceRecorder {
        TraceRecorder::new(Clock::virtual_clock(), DEFAULT_TRACE_CAPACITY)
    }

    /// A wall-clock recorder (epoch = now) at the default capacity.
    pub fn wall_clock() -> TraceRecorder {
        TraceRecorder::new(Clock::wall(), DEFAULT_TRACE_CAPACITY)
    }

    /// The recorder's clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records one event, overwriting the oldest held event when full.
    pub fn record(&self, event: TraceEvent) {
        let mut ring = self.ring.lock().expect("trace ring lock");
        if ring.events.len() < self.capacity {
            ring.events.push(event);
        } else {
            let head = ring.head;
            ring.events[head] = event;
            ring.head = (head + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock").events.len()
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("trace ring lock").dropped
    }

    /// Freezes the recorder's contents into a canonically ordered snapshot
    /// (the recorder keeps recording afterwards).
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().expect("trace ring lock");
        // Reassemble arrival order (oldest first) before the canonical
        // sort, so ties beyond the key stay in a reproducible order when
        // nothing was dropped.
        let mut events: Vec<TraceEvent> = ring.events[ring.head..].to_vec();
        events.extend_from_slice(&ring.events[..ring.head]);
        events.sort_by_key(TraceEvent::sort_key);
        TraceSnapshot {
            events,
            dropped: ring.dropped,
            capacity: self.capacity,
        }
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("clock", &self.clock)
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Splits a batch's service interval `[start_ns, start_ns + dur_ns)` into
/// one sub-interval per layer, proportional to `weights` (per-layer PE
/// cycle counts). Pure integer arithmetic: cumulative rounding makes the
/// intervals contiguous and the last one end exactly at `start + dur`, so
/// the virtual-clock drivers and the wall-clock drivers partition
/// identically. An all-zero weight vector splits equally.
pub fn layer_intervals(start_ns: u64, dur_ns: u64, weights: &[u64]) -> Vec<(u64, u64)> {
    if weights.is_empty() {
        return Vec::new();
    }
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let uniform = total == 0;
    let total = if uniform {
        weights.len() as u128
    } else {
        total
    };
    let mut out = Vec::with_capacity(weights.len());
    let mut cum: u128 = 0;
    let mut prev_end = start_ns;
    for &w in weights {
        cum += if uniform { 1 } else { w as u128 };
        let end = start_ns.saturating_add((dur_ns as u128 * cum / total) as u64);
        out.push((prev_end, end.saturating_sub(prev_end)));
        prev_end = end;
    }
    out
}

/// One batch's identity on a trace: the shared recorder plus the batch's
/// replica, 1-based index, and rung. Every driver emits a batch's spans
/// through it, on the virtual clock and on the wall clock alike.
pub(crate) struct BatchTraceCtx<'a> {
    pub recorder: &'a TraceRecorder,
    pub replica: usize,
    pub batch_index: u64,
    pub mode: usize,
}

impl BatchTraceCtx<'_> {
    /// Records the batch span over `[start_ns, start_ns + dur_ns)` and, for
    /// each request `(id, submit_ns)`, its queue-wait, service, and respond
    /// spans.
    pub(crate) fn record_batch<I>(&self, start_ns: u64, dur_ns: u64, requests: I)
    where
        I: ExactSizeIterator<Item = (u64, u64)>,
    {
        let end_ns = start_ns.saturating_add(dur_ns);
        self.recorder.record(
            TraceEvent::new(TraceStage::Batch, self.replica, start_ns, dur_ns)
                .batch(self.batch_index)
                .mode(self.mode)
                .batch_size(requests.len()),
        );
        for (id, submit_ns) in requests {
            self.recorder.record(
                TraceEvent::new(
                    TraceStage::QueueWait,
                    self.replica,
                    submit_ns,
                    start_ns.saturating_sub(submit_ns),
                )
                .request(id)
                .batch(self.batch_index),
            );
            self.recorder.record(
                TraceEvent::new(TraceStage::Service, self.replica, start_ns, dur_ns)
                    .request(id)
                    .batch(self.batch_index)
                    .mode(self.mode),
            );
            self.recorder.record(
                TraceEvent::new(TraceStage::Respond, self.replica, end_ns, 0)
                    .request(id)
                    .batch(self.batch_index),
            );
        }
    }

    /// Records one kernel span per layer, splitting the batch's service
    /// interval by the layers' PE cycles ([`layer_intervals`]).
    pub(crate) fn record_kernels(&self, start_ns: u64, dur_ns: u64, kernels: &[LayerKernel]) {
        let weights: Vec<u64> = kernels.iter().map(|k| k.stats.cycles).collect();
        for (kernel, (span_start, span_dur)) in kernels
            .iter()
            .zip(layer_intervals(start_ns, dur_ns, &weights))
        {
            self.recorder.record(
                TraceEvent::new(TraceStage::Kernel, self.replica, span_start, span_dur)
                    .batch(self.batch_index)
                    .mode(self.mode)
                    .layer(kernel.layer)
                    .stats(kernel.stats),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(stage: TraceStage, replica: usize, start: u64) -> TraceEvent {
        TraceEvent::new(stage, replica, start, 10)
    }

    #[test]
    fn ring_fills_wraps_and_counts_drops_exactly() {
        let rec = TraceRecorder::new(Clock::virtual_clock(), 4);
        assert!(rec.is_empty());
        for i in 0..4u64 {
            rec.record(event(TraceStage::Batch, 0, i).batch(i + 1));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 0);
        // Two more: the two oldest events are overwritten, one drop each.
        for i in 4..6u64 {
            rec.record(event(TraceStage::Batch, 0, i).batch(i + 1));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 2);
        let snap = rec.snapshot();
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.capacity, 4);
        let starts: Vec<u64> = snap.events.iter().map(|e| e.start_ns).collect();
        assert_eq!(starts, vec![2, 3, 4, 5], "oldest two must be gone");
        // Wrapping all the way around keeps the bound and the count exact.
        for i in 6..104u64 {
            rec.record(event(TraceStage::Batch, 0, i));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 100);
    }

    #[test]
    fn snapshot_order_is_canonical_not_insertion() {
        let rec = TraceRecorder::new(Clock::virtual_clock(), 64);
        // Insert deliberately out of order, as racing workers would.
        rec.record(event(TraceStage::Respond, 1, 500).request(7));
        rec.record(event(TraceStage::Kernel, 0, 100).batch(1).layer(2));
        rec.record(event(TraceStage::Submit, 0, 0).request(3));
        rec.record(event(TraceStage::Kernel, 0, 100).batch(1).layer(0));
        rec.record(event(TraceStage::Batch, 0, 100).batch(1));
        rec.record(event(TraceStage::QueueWait, 0, 100).batch(1).request(3));
        let snap = rec.snapshot();
        let order: Vec<(u64, &'static str, usize)> = snap
            .events
            .iter()
            .map(|e| (e.start_ns, e.stage.name(), e.layer.unwrap_or(0)))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, "submit", 0),
                (100, "queue_wait", 0),
                (100, "batch", 0),
                (100, "kernel", 0),
                (100, "kernel", 2),
                (500, "respond", 0),
            ]
        );
    }

    #[test]
    fn layer_intervals_are_contiguous_and_exact() {
        // Weighted: intervals tile [1000, 1000 + 700) exactly.
        let spans = layer_intervals(1000, 700, &[1, 2, 4]);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].0, 1000);
        let mut cursor = 1000;
        for &(start, dur) in &spans {
            assert_eq!(start, cursor, "intervals must be contiguous");
            cursor = start + dur;
        }
        assert_eq!(cursor, 1700, "last interval must end exactly at finish");
        // Heavier layers get proportionally longer spans.
        assert!(spans[2].1 > spans[0].1);
        // All-zero weights split equally.
        let equal = layer_intervals(0, 900, &[0, 0, 0]);
        assert_eq!(equal, vec![(0, 300), (300, 300), (600, 300)]);
        assert!(layer_intervals(0, 100, &[]).is_empty());
    }

    #[test]
    fn wall_clock_maps_instants_onto_its_epoch() {
        let clock = Clock::wall();
        assert!(!clock.is_virtual());
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a, "wall clock must be monotone");
        // An instant before the epoch clamps to 0.
        let past = Instant::now();
        let later = Clock::wall();
        let _ = later.instant_ns(past); // must not panic (saturates)
        assert!(Clock::virtual_clock().is_virtual());
        assert_eq!(Clock::virtual_clock().now_ns(), 0);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let rec = TraceRecorder::new(Clock::virtual_clock(), 0);
        assert_eq!(rec.capacity(), 1);
        rec.record(event(TraceStage::Submit, 0, 1));
        rec.record(event(TraceStage::Submit, 0, 2));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.snapshot().events[0].start_ns, 2);
    }
}
