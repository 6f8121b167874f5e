//! # nbsmt-systolic
//!
//! Cycle-level output-stationary systolic array (OS-SA) simulator.
//!
//! This is the baseline accelerator substrate of the paper: a grid of
//! processing elements, each receiving one activation and one weight per
//! cycle, multiplying them and accumulating the result locally (output
//! stationary). Matrices larger than the grid are tiled; data enters skewed
//! so that operands with the same reduction index meet at the right PE.
//!
//! * [`pe`] — the conventional single-threaded PE,
//! * [`schedule`] — tiling plans and cycle-count formulas,
//! * [`mod@array`] — the cycle-level array simulation plus a fast estimator that
//!   produces identical statistics for large layers.
//!
//! ```
//! use nbsmt_systolic::array::{OutputStationaryArray, SystolicConfig};
//! use nbsmt_tensor::exec::ExecContext;
//! use nbsmt_tensor::tensor::Matrix;
//!
//! # fn main() -> Result<(), nbsmt_tensor::error::TensorError> {
//! let x = Matrix::from_vec(vec![1u8, 2, 3, 4], 2, 2)?;
//! let w = Matrix::from_vec(vec![5i8, 6, 7, 8], 2, 2)?;
//! let array = OutputStationaryArray::new(SystolicConfig::new(4, 4));
//! let out = array.matmul_with(&ExecContext::sequential(), &x, &w)?;
//! assert_eq!(*out.output.at(0, 0), 1 * 5 + 2 * 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod pe;
pub mod schedule;

pub use array::{OutputStationaryArray, SimOutput, SimStats, SystolicConfig};
pub use pe::ProcessingElement;
pub use schedule::{Tile, TilingPlan};
