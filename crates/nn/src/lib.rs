//! # nbsmt-nn
//!
//! A small but complete CNN inference and training framework for the NB-SMT /
//! SySMT reproduction.
//!
//! The paper runs its accuracy experiments on PyTorch models whose
//! convolutions are lowered to matrix multiplications; we substitute a
//! from-scratch framework that provides the same pipeline end to end:
//!
//! * [`layers`] — convolution (dense and depthwise), linear, ReLU, 2×2 max
//!   pooling, and flattening, each with a forward pass and (for trainable
//!   layers) a backward pass,
//! * [`model`] — sequential model container, forward execution, accuracy,
//! * [`train`] — softmax cross-entropy, backpropagation, minibatch SGD (used
//!   by the pruning retraining loop),
//! * [`quantized`] — calibration and quantized execution with a pluggable
//!   GEMM engine ([`quantized::GemmEngine`]), which is where the NB-SMT
//!   emulation from `nbsmt-core` plugs in.
//!
//! ```
//! use nbsmt_nn::layers::Relu;
//! use nbsmt_tensor::tensor::Tensor;
//!
//! let relu = Relu;
//! let t = Tensor::from_vec(vec![-1.0_f32, 2.0], &[2]).unwrap();
//! assert_eq!(relu.forward(&t).as_slice(), &[0.0, 2.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod layers;
pub mod model;
pub mod quantized;
pub mod train;

pub use error::NnError;
pub use model::{Layer, Model};
pub use quantized::{GemmEngine, QuantizedModel, ReducedPrecisionEngine, ReferenceEngine};
pub use train::{Dataset, SgdConfig};
