//! # nbsmt-tensor
//!
//! Dense tensor substrate for the NB-SMT / SySMT reproduction.
//!
//! The paper evaluates NB-SMT on convolutional neural networks executed as
//! matrix multiplications (convolutions are lowered with im2col, exactly as
//! cuDNN / the paper's PyTorch-based simulator do).  This crate provides the
//! minimal but complete numerical substrate for that pipeline:
//!
//! * [`shape::Shape`] — N-dimensional shapes with row-major strides,
//! * [`tensor::Tensor`] — a dense, owned, row-major tensor generic over the
//!   element type (used with `f32`, `i32`, `u8`, `i8` throughout the
//!   workspace),
//! * [`ops`] — f32 matrix multiplication (the seed loop), transposition,
//!   element-wise helpers and the im2col / col2im lowering used to express
//!   convolutions as GEMMs,
//! * [`exec`] — the workspace-wide execution layer: [`exec::ExecContext`]
//!   (deterministic worker pool + tile configuration) and the quantized
//!   u8×i8 GEMM every served and emulated layer runs, on one of five
//!   kernels picked by [`exec::GemmBackendKind`] (`Naive`, `Blocked`,
//!   `Parallel`, runtime-detected `Simd`, panel-packing `Packed`),
//! * [`random`] — reproducible synthesis of bell-shaped (Gaussian / Laplace)
//!   value distributions with controllable sparsity, used to calibrate the
//!   synthetic model zoo (see `nbsmt-workloads`),
//! * [`validate`] — the workspace-wide [`validate::Validate`] trait: every
//!   config struct in the system (here, `nbsmt-serve`, `nbsmt-bench`)
//!   rejects bad values with a typed error through this one seam,
//! * [`error::TensorError`] — the error type shared by all fallible
//!   operations.
//!
//! ```
//! use nbsmt_tensor::tensor::Tensor;
//! use nbsmt_tensor::ops;
//!
//! # fn main() -> Result<(), nbsmt_tensor::error::TensorError> {
//! let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![5.0_f32, 6.0, 7.0, 8.0], &[2, 2])?;
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide. The single sanctioned exception is the
// AVX2 kernel module in `exec`, which opts back in with a scoped
// `#[allow(unsafe_code)]`: its unsafe u8×i8 kernel is `#[target_feature]`
// and only reachable through a safe wrapper that verifies the feature with
// `is_x86_feature_detected!` and the slice lengths first.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod exec;
pub mod ops;
pub mod random;
pub mod shape;
pub mod tensor;
pub mod validate;

pub use error::TensorError;
pub use exec::{ExecConfig, ExecContext, GemmBackendKind};
pub use shape::Shape;
pub use tensor::Tensor;
pub use validate::{ExecConfigError, Validate};
