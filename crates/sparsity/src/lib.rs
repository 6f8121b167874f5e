//! # nbsmt-sparsity
//!
//! Sparsity analysis, magnitude pruning, and statistical data arrangement for
//! the NB-SMT / SySMT reproduction.
//!
//! * [`stats`] — MAC-utilization classification (Fig. 1's idle / partially
//!   utilized / fully utilized breakdown), activation data-width statistics,
//!   and per-column statistics used by the reordering pass,
//! * [`prune`] — magnitude-based weight pruning and its masks (Fig. 10),
//! * [`reorder`] — the per-layer column reordering of §IV-B that pairs
//!   demanding activation columns with light ones to avoid thread collisions.
//!
//! ```
//! use nbsmt_sparsity::stats::{classify_mac, MacClass};
//!
//! assert_eq!(classify_mac(0, 17), MacClass::Idle);
//! assert_eq!(classify_mac(5, 17), MacClass::PartiallyUtilized);
//! assert_eq!(classify_mac(200, 17), MacClass::FullyUtilized);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prune;
pub mod reorder;
pub mod stats;

pub use prune::{magnitude_mask, PruneMask};
pub use reorder::{reorder_for_threads, reorder_for_two_threads, ColumnOrder};
pub use stats::{activation_stats, layer_utilization, MacClass, UtilizationBreakdown};
