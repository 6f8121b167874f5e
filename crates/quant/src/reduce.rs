//! On-the-fly precision reduction primitives.
//!
//! These are the bit-level helpers used by the SySMT PE (§III-C, §IV-C): a
//! thread whose operands need more than 4 bits is "squeezed" by rounding the
//! 8-bit value to the nearest multiple of 16 and keeping its 4-bit MSBs
//! ([`round_to_nibble_unsigned`], [`round_to_nibble_signed`]); a thread whose
//! operands already fit in 4 bits ([`fits_nibble_unsigned`],
//! [`fits_nibble_signed`]) can keep its LSBs and incurs no error.

/// Returns `true` when an unsigned 8-bit activation is already representable
/// by its 4-bit LSBs (its 4 MSBs are zero).
pub fn fits_nibble_unsigned(v: u8) -> bool {
    v < 16
}

/// Returns `true` when a signed 8-bit weight is already representable by a
/// signed 4-bit nibble (`-8 ..= 7`).
pub fn fits_nibble_signed(v: i8) -> bool {
    (-8..=7).contains(&v)
}

/// Rounds an unsigned 8-bit value to the nearest multiple of 16 and returns
/// the resulting 4-bit MSB nibble (clamped to 15).
///
/// This is the paper's on-the-fly quantization: "before reducing the 8-bit
/// value to 4 bits, we round the number to the nearest integer that is a
/// whole multiple of 16".
pub fn round_to_nibble_unsigned(v: u8) -> u8 {
    let rounded = ((v as u32 + 8) / 16).min(15);
    rounded as u8
}

/// Rounds a signed 8-bit value to the nearest multiple of 16 and returns the
/// resulting signed 4-bit nibble (clamped to `-8 ..= 7`).
pub fn round_to_nibble_signed(v: i8) -> i8 {
    let x = v as f32 / 16.0;
    let rounded = x.round().clamp(-8.0, 7.0);
    rounded as i8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_fit_checks() {
        assert!(fits_nibble_unsigned(0));
        assert!(fits_nibble_unsigned(15));
        assert!(!fits_nibble_unsigned(16));
        assert!(fits_nibble_signed(7));
        assert!(fits_nibble_signed(-8));
        assert!(!fits_nibble_signed(8));
        assert!(!fits_nibble_signed(-9));
    }

    #[test]
    fn paper_example_fig2a() {
        // Fig. 2a: X values 46 and 178 are rounded+truncated to 3 and 11.
        assert_eq!(round_to_nibble_unsigned(46), 3);
        assert_eq!(round_to_nibble_unsigned(178), 11);
    }

    #[test]
    fn rounding_unsigned_properties() {
        assert_eq!(round_to_nibble_unsigned(0), 0);
        assert_eq!(round_to_nibble_unsigned(7), 0);
        assert_eq!(round_to_nibble_unsigned(8), 1);
        assert_eq!(round_to_nibble_unsigned(255), 15);
        assert_eq!(round_to_nibble_unsigned(248), 15);
        for v in 0..=255u8 {
            let n = round_to_nibble_unsigned(v);
            assert!(n <= 15);
            // Rounding error is at most 8 except when clamped at the top.
            if v < 248 {
                assert!((v as i32 - n as i32 * 16).abs() <= 8, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn rounding_signed_properties() {
        assert_eq!(round_to_nibble_signed(0), 0);
        assert_eq!(round_to_nibble_signed(127), 7);
        assert_eq!(round_to_nibble_signed(-128), -8);
        assert_eq!(round_to_nibble_signed(100), 6);
        for v in i8::MIN..=i8::MAX {
            let n = round_to_nibble_signed(v);
            assert!((-8..=7).contains(&n));
            if (-120..=112).contains(&v) {
                assert!((v as i32 - n as i32 * 16).abs() <= 8, "v={v} n={n}");
            }
        }
    }
}
