//! # nbsmt-bench
//!
//! The benchmark harness of the NB-SMT / SySMT reproduction: every table
//! and figure of the paper as a first-class [`Experiment`] in the
//! [`ExperimentRegistry`], driven by a declarative [`RunSpec`]
//! (JSON-committable, bit-exact round-tripping, typed validation), plus the
//! [`engine::NbSmtEngine`] bridge that plugs the NB-SMT emulation into
//! quantized model execution and the `repro` binary — a thin driver over
//! the registry.
//!
//! Run `cargo run -p nbsmt-bench --release --bin repro -- all` to regenerate
//! every table and figure, pass an individual experiment id (`fig1`,
//! `table3`, …), or replay a committed spec with `-- --spec
//! examples/specs/serve_small.json`. Criterion benches under `benches/`
//! time the same experiment kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiments;
pub mod json;
pub mod loadgen;
pub mod scale;
pub mod spec;
pub mod summary;
pub mod trace_export;

pub use engine::{NbSmtEngine, NbSmtEngineConfig};
pub use experiments::registry::{
    Experiment, ExperimentError, ExperimentInfo, ExperimentRegistry, RunReport, SummarySink,
};
pub use json::Json;
pub use scale::{ExecSettings, Scale};
pub use spec::{ParamKey, RunSpec, SpecError};
pub use summary::{ControlRecord, FaultRecord, Record, ServeRecord, Summary};
pub use trace_export::{chrome_trace, render_chrome_trace, stage_summary};
