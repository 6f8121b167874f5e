//! # nbsmt-serve
//!
//! The inference-serving layer of the NB-SMT / SySMT reproduction: it turns
//! calibrated quantized models into long-lived, immutable [`Session`]s and
//! absorbs concurrent request streams through a dynamic micro-batching
//! scheduler with admission control.
//!
//! The pipeline is `submit → scheduling core → worker → session →
//! response`:
//!
//! * [`registry::ModelRegistry`] calibrates registered models once and
//!   compiles cached, `Arc`-shared [`Session`]s per NB-SMT design point
//!   ([`config::SmtConfig`]: dense baseline or 1T/2T/4T SySMT with a sharing
//!   policy). Requests pick their configuration by picking their session.
//! * One sans-IO scheduling core (`sched`) is the admission-control point
//!   and the batcher of every driver: `submit` never blocks, a full queue
//!   rejects with a typed [`config::SubmitError`], and queued requests
//!   coalesce under a `max_batch`/`max_wait` [`config::BatchPolicy`]. The
//!   threaded [`pool::ReplicaPool`] drives it on the wall clock
//!   ([`pool::PoolDriver::FreeRunning`]) or on the virtual clock
//!   ([`pool::PoolDriver::Lockstep`]), executing each batch on an
//!   `ExecContext` and completing per-request [`queue::ResponseHandle`]s;
//!   [`sim::simulate_pool`] drives it on the virtual clock in one thread. A
//!   one-replica pool with a pinned ladder is the single-session server.
//! * [`metrics::ServeMetrics`] records throughput, a fixed-bucket latency
//!   histogram (p50/p95/p99), the batch-size distribution, queue depth, and
//!   — for pools — per-mode batch counts and mode transitions.
//! * [`pool::ReplicaPool`] shards the whole pipeline: a deterministic router
//!   ([`config::RoutePolicy`]) spreads submissions over N replica workers,
//!   and each replica's [`config::AdaptiveState`] walks a ladder of
//!   [`config::SmtConfig`] design points (dense → 2T → 4T) under queue-depth
//!   or p95 pressure, shedding *accuracy* instead of *requests* under
//!   overload. The simulator and both pool drivers take one
//!   [`config::PoolOptions`] value and run the same core, so the simulator
//!   and the lockstep pool agree by construction.
//! * [`faults`] injects seeded, deterministic failure schedules
//!   ([`faults::FaultPlan`]: crashes, stalls, straggler windows, queue
//!   closes) identically into the threaded pool and the simulator, and
//!   pairs them with client-side countermeasures ([`faults::FaultClient`]:
//!   retry with exponential backoff, straggler hedging) — every incident is
//!   a seed, and every seed is a regression test.
//!
//! **Determinism contract.** Model outputs go through the execution layer of
//! `nbsmt-tensor`, so logits are bit-identical for every host thread count
//! and GEMM backend. The simulator additionally takes *time* from an integer
//! [`sim::ServiceModel`] instead of the wall clock, making batch
//! compositions, virtual latencies, and metrics bit-reproducible for a
//! seeded arrival trace — `repro serve` and the scheduler tests run on this
//! mode, the free-running pool serves real traffic with the same core.
//!
//! ```
//! use nbsmt_serve::prelude::*;
//! use nbsmt_tensor::exec::ExecContext;
//! use nbsmt_workloads::synthnet::quick_synthnet;
//!
//! let trained = quick_synthnet(5).expect("training succeeds");
//! let mut registry = ModelRegistry::new();
//! registry.register_synthnet("synthnet", &trained, 99).unwrap();
//! let session = registry.compile("synthnet", SmtConfig::sysmt_2t()).unwrap();
//!
//! let (inputs, _) = trained.sample_requests(4, 100);
//! let refs: Vec<_> = inputs.iter().collect();
//! let out = session
//!     .infer_batch_refs(&ExecContext::sequential(), &refs)
//!     .unwrap();
//! assert_eq!(out.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod faults;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod registry;
mod sched;
pub mod session;
pub mod sim;
pub mod trace;
pub mod traffic;

pub use config::{
    AdaptivePolicy, AdaptiveState, BatchPolicy, ConfigError, ModeTransition, PoolConfig,
    PoolOptions, RoutePolicy, SchedulerConfig, ServeError, SmtConfig, SubmitError, BATCH_LOG_CAP,
    CONTROL_LOG_CAP, REJECTION_LOG_CAP, RESPONSE_LOG_CAP, TRANSITION_LOG_CAP,
};
pub use control::{ControlConfig, ControlEvent, ControlEventKind, PoolController, RateEstimator};
pub use faults::{
    FaultClient, FaultClientStats, FaultConfig, FaultEvent, FaultKind, FaultPlan, HandoffRecord,
    HedgePolicy, ReplicaFaults, RetryPolicy,
};
pub use metrics::{LatencyHistogram, MetricsSnapshot, ServeMetrics};
pub use pool::{PoolBatchLog, PoolClient, PoolDriver, PoolSnapshot, ReplicaPool, RequestResult};
pub use registry::ModelRegistry;
pub use session::{Inference, Session};
pub use sim::{ArrivalProcess, PoolBatchRecord, PoolSimOutcome, ServiceModel};
pub use trace::{
    layer_intervals, Clock, LayerKernel, TraceEvent, TraceRecorder, TraceSnapshot, TraceStage,
    DEFAULT_TRACE_CAPACITY,
};
pub use traffic::{GeneratedArrival, GeneratedArrivals, SizeModel, SplitMix64, TrafficModel};

/// Convenience re-exports for serving code.
pub mod prelude {
    pub use crate::config::{
        AdaptivePolicy, BatchPolicy, ConfigError, PoolConfig, PoolOptions, RoutePolicy,
        SchedulerConfig, ServeError, SmtConfig, SubmitError,
    };
    pub use crate::control::{
        ControlConfig, ControlEvent, ControlEventKind, PoolController, RateEstimator,
    };
    pub use crate::faults::{
        chaos_corpus, FaultClient, FaultConfig, FaultPlan, HedgePolicy, RetryPolicy,
    };
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::pool::{PoolClient, PoolDriver, PoolSnapshot, ReplicaPool};
    pub use crate::registry::ModelRegistry;
    pub use crate::session::{Inference, Session};
    pub use crate::sim::{
        simulate_pool, simulate_pool_stats, ArrivalProcess, PoolSimOutcome, ServiceModel,
    };
    pub use crate::trace::{Clock, TraceRecorder, TraceSnapshot, TraceStage};
    pub use crate::traffic::{GeneratedArrival, SizeModel, TrafficModel};
}
