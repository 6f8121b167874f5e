//! Quantization schemes: symmetric unsigned activations and symmetric signed
//! weights.
//!
//! This mirrors the paper's setup (§V-A): "models are quantized with a simple
//! 8-bit uniform min-max quantization, using symmetric unsigned quantization
//! for activations and symmetric signed quantization for weights. Activations
//! are quantized per layer, whereas weights are quantized per kernel." The
//! scale granularity follows from the quantizer called:
//! `quantize::quantize_activations` fits one scale per tensor and
//! `quantize::quantize_weights` one scale per kernel (column).

use serde::{Deserialize, Serialize};

/// Number of bits carried by the quantized representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BitWidth {
    /// Full 8-bit representation (the baseline A8W8 operating point).
    Eight,
    /// Reduced 4-bit representation (the worst-case NB-SMT collision point).
    Four,
}

impl BitWidth {
    /// Number of bits.
    pub fn bits(self) -> u32 {
        match self {
            BitWidth::Eight => 8,
            BitWidth::Four => 4,
        }
    }

    /// Maximum magnitude representable for an unsigned value of this width.
    pub fn unsigned_max(self) -> u8 {
        match self {
            BitWidth::Eight => u8::MAX,
            BitWidth::Four => 15,
        }
    }

    /// Maximum magnitude representable for a signed value of this width.
    pub fn signed_max(self) -> i8 {
        match self {
            BitWidth::Eight => i8::MAX,
            BitWidth::Four => 7,
        }
    }
}

/// Whether the quantized integers are unsigned (activations after ReLU) or
/// signed (weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signedness {
    /// Unsigned range `[0, 2^bits - 1]`.
    Unsigned,
    /// Signed two's complement range `[-2^(bits-1), 2^(bits-1) - 1]`.
    Signed,
}

/// A complete quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantScheme {
    /// Bit width of the integer representation.
    pub bits: BitWidth,
    /// Signedness of the integer representation.
    pub signedness: Signedness,
}

impl QuantScheme {
    /// The paper's activation scheme: 8-bit, unsigned, per layer.
    pub fn activation_a8() -> Self {
        QuantScheme {
            bits: BitWidth::Eight,
            signedness: Signedness::Unsigned,
        }
    }

    /// The paper's weight scheme: 8-bit, signed, per kernel.
    pub fn weight_w8() -> Self {
        QuantScheme {
            bits: BitWidth::Eight,
            signedness: Signedness::Signed,
        }
    }

    /// Highest representable quantized magnitude (as f32), used to map the
    /// observed dynamic range onto the integer grid.
    pub fn q_max(&self) -> f32 {
        match self.signedness {
            Signedness::Unsigned => self.bits.unsigned_max() as f32,
            Signedness::Signed => self.bits.signed_max() as f32,
        }
    }

    /// Computes the scale that maps the real interval implied by
    /// `(min, max)` onto this scheme's integer grid.
    ///
    /// For unsigned schemes the range `[0, max]` is used; for signed symmetric
    /// schemes the range `[-absmax, absmax]` is used. A degenerate (all-zero)
    /// range yields scale 1.0 so that dequantization is well-defined.
    pub fn scale_for_range(&self, min: f32, max: f32) -> f32 {
        let target = match self.signedness {
            Signedness::Unsigned => max.max(0.0),
            Signedness::Signed => min.abs().max(max.abs()),
        };
        if target <= 0.0 || !target.is_finite() {
            1.0
        } else {
            target / self.q_max()
        }
    }
}

/// A named quantization operating point, e.g. `A8W8` or `A4W8`.
///
/// These are the whole-model robustness points of Fig. 7 and the comparison
/// rows of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Activation bit width.
    pub activation_bits: BitWidth,
    /// Weight bit width.
    pub weight_bits: BitWidth,
}

impl OperatingPoint {
    /// A8W8: the 8-bit baseline.
    pub const A8W8: OperatingPoint = OperatingPoint {
        activation_bits: BitWidth::Eight,
        weight_bits: BitWidth::Eight,
    };
    /// A4W8: activations further reduced to 4 bits.
    pub const A4W8: OperatingPoint = OperatingPoint {
        activation_bits: BitWidth::Four,
        weight_bits: BitWidth::Eight,
    };
    /// A8W4: weights further reduced to 4 bits.
    pub const A8W4: OperatingPoint = OperatingPoint {
        activation_bits: BitWidth::Eight,
        weight_bits: BitWidth::Four,
    };
    /// A4W4: both reduced to 4 bits (the 4-thread worst case).
    pub const A4W4: OperatingPoint = OperatingPoint {
        activation_bits: BitWidth::Four,
        weight_bits: BitWidth::Four,
    };

    /// Human-readable label (`"A8W8"`, …).
    pub fn label(&self) -> String {
        format!(
            "A{}W{}",
            self.activation_bits.bits(),
            self.weight_bits.bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwidth_limits() {
        assert_eq!(BitWidth::Eight.bits(), 8);
        assert_eq!(BitWidth::Four.bits(), 4);
        assert_eq!(BitWidth::Eight.unsigned_max(), 255);
        assert_eq!(BitWidth::Four.unsigned_max(), 15);
        assert_eq!(BitWidth::Eight.signed_max(), 127);
        assert_eq!(BitWidth::Four.signed_max(), 7);
    }

    #[test]
    fn paper_schemes() {
        let a = QuantScheme::activation_a8();
        assert_eq!(a.signedness, Signedness::Unsigned);
        assert_eq!(a.q_max(), 255.0);

        let w = QuantScheme::weight_w8();
        assert_eq!(w.signedness, Signedness::Signed);
        assert_eq!(w.q_max(), 127.0);
    }

    #[test]
    fn scale_for_range_unsigned() {
        let a = QuantScheme::activation_a8();
        let s = a.scale_for_range(0.0, 2.55);
        assert!((s - 0.01).abs() < 1e-6);
        // Negative minimum is ignored for unsigned activations.
        let s = a.scale_for_range(-10.0, 2.55);
        assert!((s - 0.01).abs() < 1e-6);
    }

    #[test]
    fn scale_for_range_signed_symmetric() {
        let w = QuantScheme::weight_w8();
        let s = w.scale_for_range(-1.27, 0.5);
        assert!((s - 0.01).abs() < 1e-6);
        let s = w.scale_for_range(-0.5, 1.27);
        assert!((s - 0.01).abs() < 1e-6);
    }

    #[test]
    fn degenerate_range_gives_unit_scale() {
        let a = QuantScheme::activation_a8();
        assert_eq!(a.scale_for_range(0.0, 0.0), 1.0);
        assert_eq!(a.scale_for_range(0.0, f32::NAN), 1.0);
    }

    #[test]
    fn operating_point_labels() {
        assert_eq!(OperatingPoint::A8W8.label(), "A8W8");
        assert_eq!(OperatingPoint::A4W8.label(), "A4W8");
        assert_eq!(OperatingPoint::A8W4.label(), "A8W4");
        assert_eq!(OperatingPoint::A4W4.label(), "A4W4");
    }
}
