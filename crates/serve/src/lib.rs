//! # nbsmt-serve
//!
//! The inference-serving layer of the NB-SMT / SySMT reproduction: it turns
//! calibrated quantized models into long-lived, immutable [`Session`]s and
//! absorbs concurrent request streams through a dynamic micro-batching
//! scheduler with admission control.
//!
//! The pipeline is `submit → bounded queue → batcher → session → response`:
//!
//! * [`registry::ModelRegistry`] calibrates registered models once and
//!   compiles cached, `Arc`-shared [`Session`]s per NB-SMT design point
//!   ([`config::SmtConfig`]: dense baseline or 1T/2T/4T SySMT with a sharing
//!   policy). Requests pick their configuration by picking their session.
//! * [`queue::BoundedQueue`] is the admission-control point: `submit` never
//!   blocks and rejects with a typed [`config::SubmitError`] under overload.
//! * The scheduler (the threaded [`pool::ReplicaPool`], or the deterministic
//!   virtual-clock [`sim::simulate_pool`]) coalesces queued requests under a
//!   `max_batch`/`max_wait` [`config::BatchPolicy`], executes the batch on an
//!   `ExecContext`, and completes per-request
//!   [`queue::ResponseHandle`]s. A one-replica pool with a pinned ladder is
//!   the single-session server.
//! * [`metrics::ServeMetrics`] records throughput, a fixed-bucket latency
//!   histogram (p50/p95/p99), the batch-size distribution, queue depth, and
//!   — for pools — per-mode batch counts and mode transitions.
//! * [`pool::ReplicaPool`] shards the whole pipeline: a deterministic router
//!   ([`config::RoutePolicy`]) spreads submissions over N replica workers,
//!   and each replica's [`config::AdaptiveState`] walks a ladder of
//!   [`config::SmtConfig`] design points (dense → 2T → 4T) under queue-depth
//!   or p95 pressure, shedding *accuracy* instead of *requests* under
//!   overload. [`sim::simulate_pool`] and the pool's lockstep driver
//!   ([`pool::PoolDriver::Lockstep`]) take one [`config::PoolOptions`] value
//!   and drive one sans-IO scheduling core (`sched`), so the two agree by
//!   construction.
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
//! mode, the threaded pool serves real traffic with the same policy code.
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
//! let out = session
//!     .infer_batch(&ExecContext::sequential(), &inputs)
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
    CONTROL_LOG_CAP, P2C_SALT, REJECTION_LOG_CAP, RESPONSE_LOG_CAP, TRANSITION_LOG_CAP,
};
pub use control::{
    AutoscaleConfig, ControlConfig, ControlEvent, ControlEventKind, PoolController,
    PredictiveConfig, RateEstimator, StealConfig,
};
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
        AutoscaleConfig, ControlConfig, ControlEvent, ControlEventKind, PoolController,
        PredictiveConfig, RateEstimator, StealConfig,
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
