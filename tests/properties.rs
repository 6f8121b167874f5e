//! Cross-crate property-based tests: invariants of the NB-SMT datapath that
//! must hold for *every* operand combination, checked with proptest.

use proptest::prelude::*;

use nbsmt_repro::core::fmul::{FlexMultiplier, FlexMultiplier4};
use nbsmt_repro::core::pe::{SmtPe2, SmtPe4, ThreadInput, ThreadOutcome};
use nbsmt_repro::core::policy::SharingPolicy;
use nbsmt_repro::quant::reduce::{
    fits_nibble_signed, fits_nibble_unsigned, round_to_nibble_signed, round_to_nibble_unsigned,
};

proptest! {
    /// Both flexible-multiplier decompositions are exact for every operand
    /// pair in single (8b-8b) mode.
    #[test]
    fn fmul_decompositions_are_exact(x in any::<u8>(), w in any::<i8>()) {
        prop_assert_eq!(FlexMultiplier::new().mul_single(x, w), x as i32 * w as i32);
        prop_assert_eq!(FlexMultiplier4::new().mul_single(x, w), x as i32 * w as i32);
    }

    /// Precision reduction (keep a value that fits a nibble, else round it
    /// to a multiple of 16 and keep the MSB nibble) is lossless when the
    /// value fits a nibble or is a multiple of 16. Otherwise the error is
    /// half the rounding step, 8, except where the nibble clamps at the top
    /// of the range: at most 15 for activations and 16 for weights.
    #[test]
    fn reduction_error_bounds(x in any::<u8>(), w in any::<i8>()) {
        let reduced_x = if fits_nibble_unsigned(x) {
            x as i32
        } else {
            round_to_nibble_unsigned(x) as i32 * 16
        };
        let err_x = (x as i32 - reduced_x).abs();
        if x < 16 || x.is_multiple_of(16) {
            prop_assert_eq!(err_x, 0);
        }
        prop_assert!(err_x <= 15, "x={} err={}", x, err_x);

        let reduced_w = if fits_nibble_signed(w) {
            w as i32
        } else {
            round_to_nibble_signed(w) as i32 * 16
        };
        let err_w = (w as i32 - reduced_w).abs();
        if (-8..=7).contains(&w) || w % 16 == 0 {
            prop_assert_eq!(err_w, 0);
        }
        prop_assert!(err_w <= 16, "w={} err={}", w, err_w);
    }

    /// For any pair of thread inputs, the 2-threaded PE under S+A:
    /// * is exact whenever at most one thread needs the MAC,
    /// * otherwise each thread's error is bounded by 8·|w| (the activation
    ///   rounding error times the weight magnitude),
    /// * and a thread with a zero product never contributes anything.
    #[test]
    fn pe2_error_is_bounded(
        x0 in any::<u8>(), w0 in any::<i8>(),
        x1 in any::<u8>(), w1 in any::<i8>(),
    ) {
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let t = [ThreadInput::new(x0, w0), ThreadInput::new(x1, w1)];
        let r = pe.cycle(t);
        let active = t.iter().filter(|i| i.needs_mac()).count();
        for (i, input) in t.iter().enumerate() {
            if !input.needs_mac() {
                prop_assert_eq!(r.products[i], 0);
                prop_assert_eq!(r.outcomes[i], ThreadOutcome::Idle);
                continue;
            }
            let exact = input.exact_product();
            let err = (r.products[i] - exact).abs();
            if active <= 1 {
                prop_assert_eq!(err, 0, "single active thread must be exact");
            } else {
                // Activation rounding error is at most 8, except near the top
                // of the range where clamping to 15 nibbles raises it to 15.
                prop_assert!(err <= 15 * (input.w as i64).abs(),
                    "thread {} error {} too large for inputs {:?}", i, err, input);
            }
        }
    }

    /// The 4-threaded PE never produces an error larger than statically
    /// reducing both operands of every thread to rounded nibbles (the A4W4
    /// whole-model worst case of Fig. 7).
    #[test]
    fn pe4_error_is_bounded_by_static_a4w4(
        x0 in any::<u8>(), w0 in any::<i8>(),
        x1 in any::<u8>(), w1 in any::<i8>(),
        x2 in any::<u8>(), w2 in any::<i8>(),
        x3 in any::<u8>(), w3 in any::<i8>(),
    ) {
        let pe = SmtPe4::new(SharingPolicy::S_A);
        let t = [
            ThreadInput::new(x0, w0),
            ThreadInput::new(x1, w1),
            ThreadInput::new(x2, w2),
            ThreadInput::new(x3, w3),
        ];
        let r = pe.cycle(t);
        for (i, input) in t.iter().enumerate() {
            if !input.needs_mac() {
                prop_assert_eq!(r.products[i], 0);
                continue;
            }
            // Worst case: both operands rounded to the nearest multiple of 16
            // (error at most 8 each, 15/16 at the clamped extremes); cross
            // terms bound the product error.
            let bound = 16 * ((input.w as i64).abs() + input.x as i64) + 256;
            let err = (r.products[i] - input.exact_product()).abs();
            prop_assert!(err <= bound, "thread {} error {} exceeds bound {}", i, err, bound);
        }
    }

    /// The PE's busy/active statistics are always internally consistent.
    #[test]
    fn pe_statistics_are_consistent(
        x0 in any::<u8>(), w0 in any::<i8>(),
        x1 in any::<u8>(), w1 in any::<i8>(),
    ) {
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let t = [ThreadInput::new(x0, w0), ThreadInput::new(x1, w1)];
        let r = pe.cycle(t);
        let active = t.iter().filter(|i| i.needs_mac()).count() as u32;
        prop_assert_eq!(r.stats.active_threads, active);
        prop_assert_eq!(r.stats.busy, active > 0);
        prop_assert!(r.stats.reduced_threads <= active);
    }
}
