//! Experiment implementations, one function per table / figure of the paper.
//!
//! [`registry`] declares every experiment in one table; ARCHITECTURE.md's
//! experiment-harness table is generated from it.

pub mod accuracy;
pub mod control_exp;
pub mod faults_exp;
pub mod hw_exp;
pub mod obs_exp;
pub mod registry;
pub mod scale_exp;
pub mod serve_exp;
pub mod zoo_exp;
