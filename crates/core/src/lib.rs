//! # nbsmt-core
//!
//! Non-blocking simultaneous multithreading (NB-SMT) for DNN accelerators —
//! the primary contribution of Shomron & Weiser, MICRO 2020 — together with
//! SySMT, its instantiation as an output-stationary systolic array.
//!
//! NB-SMT keeps several "DNN threads" resident on a shared MAC unit. When
//! more threads demand the multiplier than it can serve at full precision, no
//! thread stalls; instead the colliding operands are reduced to 4 bits on the
//! fly (round to the nearest multiple of 16, keep the MSBs), exploiting DNN
//! resiliency. Zero operands (8-bit sparsity) and operands that already fit
//! in 4 bits (partial sparsity) are exploited so most cycles incur no error.
//!
//! * [`fmul`] — the flexible multipliers (Eq. 4 and Eq. 5 decompositions),
//! * [`policy`] — the sharing policies of Table III (S, A, W, Aw, aW, …),
//! * [`pe`] — the 2- and 4-threaded PE logic (Algorithm 1),
//! * [`matmul`] — functional NB-SMT layer emulation on the integer grid,
//! * [`sysmt`] — the SySMT array (cycles, speedup, utilization gain),
//! * [`metrics`] — MSE, Eq. 8 utilization curves, model speedup,
//! * [`tuning`] — per-layer thread tuning (Table V, Fig. 10).
//!
//! ```
//! use nbsmt_core::pe::{SmtPe2, ThreadInput};
//! use nbsmt_core::policy::SharingPolicy;
//!
//! let pe = SmtPe2::new(SharingPolicy::S_A);
//! // One thread is idle, so the other runs at full precision: no error.
//! let r = pe.cycle([ThreadInput::new(0, 23), ThreadInput::new(178, -14)]);
//! assert_eq!(r.total(), 178 * -14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

pub(crate) mod fastpath;
pub mod fmul;
pub mod matmul;
pub mod metrics;
pub mod pe;
pub mod policy;
pub mod sysmt;
pub mod tuning;

pub use matmul::{NbSmtMatmul, NbSmtMatmulConfig, NbSmtOutput, PreparedWeights};
pub use policy::SharingPolicy;
pub use sysmt::{SySmtArray, SySmtConfig, SySmtLayerResult};

/// Number of hardware threads sharing one PE.
///
/// The paper evaluates 2-threaded and 4-threaded SySMT designs; one thread is
/// the conventional baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadCount {
    /// Conventional single-threaded operation.
    One,
    /// 2-threaded NB-SMT (2T).
    Two,
    /// 4-threaded NB-SMT (4T).
    Four,
}

impl ThreadCount {
    /// The numeric thread count.
    pub fn count(self) -> usize {
        match self {
            ThreadCount::One => 1,
            ThreadCount::Two => 2,
            ThreadCount::Four => 4,
        }
    }

    /// Builds a [`ThreadCount`] from a number.
    ///
    /// Returns `None` for unsupported counts.
    pub fn from_count(count: usize) -> Option<Self> {
        match count {
            1 => Some(ThreadCount::One),
            2 => Some(ThreadCount::Two),
            4 => Some(ThreadCount::Four),
            _ => None,
        }
    }
}

impl std::fmt::Display for ThreadCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}T", self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_count_round_trip() {
        for t in [ThreadCount::One, ThreadCount::Two, ThreadCount::Four] {
            assert_eq!(ThreadCount::from_count(t.count()), Some(t));
        }
        assert_eq!(ThreadCount::from_count(3), None);
        assert_eq!(ThreadCount::Two.to_string(), "2T");
    }
}
