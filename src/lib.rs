//! # nbsmt-repro
//!
//! Umbrella crate for the reproduction of *"Non-Blocking Simultaneous
//! Multithreading: Embracing the Resiliency of Deep Neural Networks"*
//! (Shomron & Weiser, MICRO 2020).
//!
//! This crate simply re-exports the workspace crates so that the runnable
//! examples under `examples/` and the cross-crate integration tests under
//! `tests/` can use one import root.
//!
//! ```
//! use nbsmt_repro::core::fmul::FlexMultiplier;
//!
//! let fmul = FlexMultiplier::new();
//! // one full 8b-8b multiplication
//! let product = fmul.mul_single(200, -35);
//! assert_eq!(product, 200 * -35);
//! ```

pub use nbsmt_core as core;
pub use nbsmt_hw as hw;
pub use nbsmt_nn as nn;
pub use nbsmt_quant as quant;
pub use nbsmt_serve as serve;
pub use nbsmt_sparsity as sparsity;
pub use nbsmt_systolic as systolic;
pub use nbsmt_tensor as tensor;
pub use nbsmt_workloads as workloads;

/// Convenience prelude that pulls in the most commonly used types across the
/// workspace.
pub mod prelude {
    pub use nbsmt_core::matmul::{NbSmtMatmul, NbSmtMatmulConfig};
    pub use nbsmt_core::pe::{SmtPe2, SmtPe4, ThreadInput};
    pub use nbsmt_core::policy::SharingPolicy;
    pub use nbsmt_core::sysmt::{SySmtArray, SySmtConfig};
    pub use nbsmt_core::ThreadCount;
    pub use nbsmt_hw::energy::EnergyModel;
    pub use nbsmt_nn::model::Model;
    pub use nbsmt_quant::qtensor::{QuantMatrix, QuantTensor};
    pub use nbsmt_quant::scheme::QuantScheme;
    pub use nbsmt_serve::config::{
        AdaptivePolicy, BatchPolicy, ConfigError, PoolConfig, PoolOptions, RoutePolicy,
        SchedulerConfig, SmtConfig, SubmitError,
    };
    pub use nbsmt_serve::pool::{PoolClient, PoolDriver, PoolSnapshot, ReplicaPool};
    pub use nbsmt_serve::registry::ModelRegistry;
    pub use nbsmt_serve::session::{Inference, Session};
    pub use nbsmt_serve::sim::{
        simulate_pool, simulate_pool_stats, ArrivalProcess, PoolSimOutcome, ServiceModel,
    };
    pub use nbsmt_serve::traffic::{SizeModel, TrafficModel};
    pub use nbsmt_sparsity::stats::UtilizationBreakdown;
    pub use nbsmt_systolic::array::{OutputStationaryArray, SystolicConfig};
    pub use nbsmt_tensor::exec::{ExecConfig, ExecContext, GemmBackend, GemmBackendKind};
    pub use nbsmt_tensor::tensor::Tensor;
    pub use nbsmt_tensor::validate::{ExecConfigError, Validate};
}
