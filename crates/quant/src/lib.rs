//! # nbsmt-quant
//!
//! Quantization substrate for the NB-SMT / SySMT reproduction.
//!
//! The paper quantizes its CNNs with simple 8-bit uniform min-max
//! quantization — symmetric unsigned per-layer scales for activations and
//! symmetric signed per-kernel scales for weights — and then relies on
//! on-the-fly 4-bit precision reduction inside the SySMT processing elements
//! when threads collide. This crate provides all of those pieces:
//!
//! * [`scheme`] — bit widths, signedness, operating points
//!   (A8W8 / A4W8 / A8W4 / A4W4),
//! * [`observer`] — averaging min/max calibration observers,
//! * [`quantize`] — quantize / dequantize / integer matmul / whole-matrix
//!   further reduction (Fig. 7, and the static min-max A4W8 / A4W4
//!   comparators of Table IV),
//! * [`qtensor`] — quantized activation & weight matrices,
//! * [`reduce`] — the bit-level nibble fit checks and rounding used by the
//!   PEs (§III-C).
//!
//! ```
//! use nbsmt_quant::reduce::{fits_nibble_unsigned, round_to_nibble_unsigned};
//!
//! // 9 fits in 4 bits, so a squeezed thread keeps it exactly.
//! assert!(fits_nibble_unsigned(9));
//! // 46 does not: it is rounded to 3*16=48 and its MSB nibble 3 is kept.
//! assert!(!fits_nibble_unsigned(46));
//! assert_eq!(round_to_nibble_unsigned(46), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod observer;
pub mod qtensor;
pub mod quantize;
pub mod reduce;
pub mod scheme;

pub use qtensor::{QuantMatrix, QuantWeightMatrix};
pub use scheme::{BitWidth, OperatingPoint, QuantScheme};
