//! The NB-SMT processing element logic (Algorithm 1 of the paper and its
//! 4-threaded extension).
//!
//! Each cycle the PE receives one activation/weight pair per thread, checks
//! the computation demand against the flexible multiplier's capability, and
//! decides per thread whether it runs at full precision, takes an error-free
//! 4-bit LSB slot, has an operand swapped into the 4-bit port, or is lossily
//! reduced to its rounded 4-bit MSBs. The shared partial-sum register
//! accumulates all contributions (output sharing, Fig. 3c).

use serde::{Deserialize, Serialize};

use nbsmt_quant::reduce::{
    fits_nibble_signed, fits_nibble_unsigned, round_to_nibble_signed, round_to_nibble_unsigned,
};

use crate::fmul::{DualLane, FlexMultiplier, FlexMultiplier4, QuadLane};
use crate::policy::{SharingPolicy, WidthMode};

/// One thread's operand pair for one cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadInput {
    /// Unsigned 8-bit activation.
    pub x: u8,
    /// Signed 8-bit weight.
    pub w: i8,
}

impl ThreadInput {
    /// Creates a thread input.
    pub fn new(x: u8, w: i8) -> Self {
        ThreadInput { x, w }
    }

    /// A thread whose product is zero does not need the MAC unit.
    pub fn needs_mac(&self) -> bool {
        self.x != 0 && self.w != 0
    }

    /// Exact product of the pair.
    pub fn exact_product(&self) -> i64 {
        self.x as i64 * self.w as i64
    }
}

/// How a thread's operands were handled in a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadOutcome {
    /// The thread had a zero operand and was skipped (no MAC needed).
    Idle,
    /// The thread used the full 8b-8b multiplier — exact result.
    FullPrecision,
    /// The thread used a 4-bit slot but its operands already fit — exact
    /// result via the LSB path or an operand swap.
    NarrowExact,
    /// The thread's operand(s) were rounded to their 4-bit MSBs — its
    /// contribution is approximate.
    Reduced,
}

/// Per-cycle statistics emitted by the PE logic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleStats {
    /// Number of threads that needed the MAC this cycle.
    pub active_threads: u32,
    /// Number of threads whose operands were lossily reduced.
    pub reduced_threads: u32,
    /// Whether the PE performed any multiplication this cycle.
    pub busy: bool,
}

/// Accumulated statistics over a sequence of cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles in which at least one thread needed the MAC.
    pub busy_cycles: u64,
    /// Cycles in which more threads needed the MAC than it could serve at
    /// full precision (thread collisions).
    pub collision_cycles: u64,
    /// Individual thread-slots that were lossily reduced.
    pub reduced_thread_slots: u64,
    /// Individual thread-slots that needed the MAC.
    pub active_thread_slots: u64,
}

impl PeStats {
    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &PeStats) {
        self.cycles += other.cycles;
        self.busy_cycles += other.busy_cycles;
        self.collision_cycles += other.collision_cycles;
        self.reduced_thread_slots += other.reduced_thread_slots;
        self.active_thread_slots += other.active_thread_slots;
    }

    /// Fraction of cycles with at least one active thread.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of active thread slots that had to be reduced.
    pub fn reduction_rate(&self) -> f64 {
        if self.active_thread_slots == 0 {
            0.0
        } else {
            self.reduced_thread_slots as f64 / self.active_thread_slots as f64
        }
    }
}

/// Result of one PE cycle: the per-thread integer contributions (already
/// shifted onto the 8-bit grid) and what happened to each thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleResult<const T: usize> {
    /// Contribution of each thread to the shared partial sum.
    pub products: [i64; T],
    /// Outcome classification per thread.
    pub outcomes: [ThreadOutcome; T],
    /// Cycle statistics.
    pub stats: CycleStats,
}

impl<const T: usize> CycleResult<T> {
    /// Sum of all thread contributions (what enters the shared psum).
    pub fn total(&self) -> i64 {
        self.products.iter().sum()
    }
}

/// How one thread occupies a 4b-8b lane of the flexible multiplier during a
/// two-way collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LanePlan {
    /// The activation nibble enters the narrow port; the weight keeps its
    /// full 8 bits. This is the native Eq. 4 lane.
    ActivationNarrow(DualLane),
    /// The weight (a signed nibble) enters the narrow port and the unsigned
    /// activation keeps its full 8 bits — the swapped wiring of Fig. 2d and
    /// the W-family policies. `shift` is set when the nibble carries the
    /// weight's rounded MSBs.
    WeightNarrow { x: u8, w_nibble: i8, shift: bool },
}

impl LanePlan {
    /// The integer product this lane produces.
    fn product(&self, fmul: &FlexMultiplier) -> i64 {
        match *self {
            LanePlan::ActivationNarrow(lane) => fmul.mul_dual([
                lane,
                DualLane {
                    x_nibble: 0,
                    w: 0,
                    shift: false,
                },
            ])[0] as i64,
            LanePlan::WeightNarrow { x, w_nibble, shift } => {
                // A 4b(signed) × 8b(unsigned) multiplier with the roles of the
                // ports swapped.
                let p = x as i64 * w_nibble as i64;
                if shift {
                    p << 4
                } else {
                    p
                }
            }
        }
    }
}

/// The 2-threaded SySMT PE logic (Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtPe2 {
    policy: SharingPolicy,
    fmul: FlexMultiplier,
}

impl SmtPe2 {
    /// Creates a 2-threaded PE with the given sharing policy.
    pub fn new(policy: SharingPolicy) -> Self {
        SmtPe2 {
            policy,
            fmul: FlexMultiplier::new(),
        }
    }

    /// The PE's sharing policy.
    pub fn policy(&self) -> SharingPolicy {
        self.policy
    }

    /// Executes one cycle with two thread inputs.
    pub fn cycle(&self, threads: [ThreadInput; 2]) -> CycleResult<2> {
        let needs: [bool; 2] = [threads[0].needs_mac(), threads[1].needs_mac()];
        let active = needs.iter().filter(|&&b| b).count() as u32;

        // Sparsity exploitation: with S enabled, threads that do not need the
        // MAC free it; with S disabled every thread is treated as demanding.
        let effective_active = if self.policy.exploit_sparsity {
            active
        } else {
            2
        };

        let mut products = [0i64; 2];
        let mut outcomes = [ThreadOutcome::Idle; 2];
        let mut reduced = 0u32;

        if effective_active <= 1 {
            // No structural hazard: the single active thread (if any) uses the
            // whole 8b-8b multiplier.
            for t in 0..2 {
                if needs[t] {
                    products[t] = self.fmul.mul_single(threads[t].x, threads[t].w) as i64;
                    outcomes[t] = ThreadOutcome::FullPrecision;
                }
            }
        } else {
            // Thread collision (or S disabled): both threads squeeze into the
            // two 4b-8b lanes.
            for t in 0..2 {
                let (plan, outcome) = plan_dual_lane(&threads[t], self.policy.width);
                products[t] = plan.product(&self.fmul);
                outcomes[t] = if !threads[t].needs_mac() {
                    // With S disabled a zero-product thread still occupies a
                    // lane, but its contribution is exactly zero.
                    ThreadOutcome::NarrowExact
                } else {
                    outcome
                };
                if outcomes[t] == ThreadOutcome::Reduced {
                    reduced += 1;
                }
            }
        }

        CycleResult {
            products,
            outcomes,
            stats: CycleStats {
                active_threads: active,
                reduced_threads: reduced,
                busy: active > 0,
            },
        }
    }
}

/// The 4-threaded SySMT PE logic (§IV-C2, 4T extension).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtPe4 {
    policy: SharingPolicy,
    fmul2: FlexMultiplier,
    fmul4: FlexMultiplier4,
}

impl SmtPe4 {
    /// Creates a 4-threaded PE with the given sharing policy.
    pub fn new(policy: SharingPolicy) -> Self {
        SmtPe4 {
            policy,
            fmul2: FlexMultiplier::new(),
            fmul4: FlexMultiplier4::new(),
        }
    }

    /// The PE's sharing policy.
    pub fn policy(&self) -> SharingPolicy {
        self.policy
    }

    /// Executes one cycle with four thread inputs.
    pub fn cycle(&self, threads: [ThreadInput; 4]) -> CycleResult<4> {
        let needs: [bool; 4] = [
            threads[0].needs_mac(),
            threads[1].needs_mac(),
            threads[2].needs_mac(),
            threads[3].needs_mac(),
        ];
        let active = needs.iter().filter(|&&b| b).count() as u32;
        let effective_active = if self.policy.exploit_sparsity {
            active
        } else {
            4
        };

        let mut products = [0i64; 4];
        let mut outcomes = [ThreadOutcome::Idle; 4];
        let mut reduced = 0u32;

        match effective_active {
            0 | 1 => {
                for t in 0..4 {
                    if needs[t] {
                        products[t] = self.fmul2.mul_single(threads[t].x, threads[t].w) as i64;
                        outcomes[t] = ThreadOutcome::FullPrecision;
                    }
                }
            }
            2 => {
                // Exactly two demanding threads: handled like the 2-threaded
                // collision, each taking one 4b-8b lane.
                for t in 0..4 {
                    if !needs[t] {
                        continue;
                    }
                    let (plan, outcome) = plan_dual_lane(&threads[t], self.policy.width);
                    products[t] = plan.product(&self.fmul2);
                    outcomes[t] = outcome;
                    if outcome == ThreadOutcome::Reduced {
                        reduced += 1;
                    }
                }
            }
            _ => {
                // Three or four demanding threads (or S disabled): every
                // thread's activation *and* weight are reduced to 4 bits
                // according to their effective data width.
                let mut lanes = [QuadLane {
                    x_nibble: 0,
                    w_nibble: 0,
                    x_shift: false,
                    w_shift: false,
                }; 4];
                let mut lossy_flags = [false; 4];
                for t in 0..4 {
                    if self.policy.exploit_sparsity && !needs[t] {
                        continue;
                    }
                    let (lane, lossy) = plan_quad_lane(&threads[t], self.policy.width);
                    lanes[t] = lane;
                    lossy_flags[t] = lossy;
                }
                let outs = self.fmul4.mul_quad(lanes);
                for t in 0..4 {
                    if self.policy.exploit_sparsity && !needs[t] {
                        continue;
                    }
                    products[t] = outs[t] as i64;
                    outcomes[t] = if !threads[t].needs_mac() {
                        ThreadOutcome::NarrowExact
                    } else if lossy_flags[t] {
                        ThreadOutcome::Reduced
                    } else {
                        ThreadOutcome::NarrowExact
                    };
                    if outcomes[t] == ThreadOutcome::Reduced {
                        reduced += 1;
                    }
                }
            }
        }

        CycleResult {
            products,
            outcomes,
            stats: CycleStats {
                active_threads: active,
                reduced_threads: reduced,
                busy: active > 0,
            },
        }
    }
}

/// Plans how one thread occupies a 4b-8b lane according to the width mode,
/// returning the lane plan and the thread outcome.
fn plan_dual_lane(input: &ThreadInput, mode: WidthMode) -> (LanePlan, ThreadOutcome) {
    let activation_narrow_exact = || {
        (
            LanePlan::ActivationNarrow(DualLane {
                x_nibble: input.x & 0x0F,
                w: input.w,
                shift: false,
            }),
            ThreadOutcome::NarrowExact,
        )
    };
    let activation_reduced = || {
        let nibble = round_to_nibble_unsigned(input.x);
        let outcome = if nibble as u32 * 16 == input.x as u32 {
            ThreadOutcome::NarrowExact
        } else {
            ThreadOutcome::Reduced
        };
        (
            LanePlan::ActivationNarrow(DualLane {
                x_nibble: nibble,
                w: input.w,
                shift: true,
            }),
            outcome,
        )
    };
    let weight_narrow_exact = || {
        (
            LanePlan::WeightNarrow {
                x: input.x,
                w_nibble: input.w,
                shift: false,
            },
            ThreadOutcome::NarrowExact,
        )
    };
    let weight_reduced = || {
        let nibble = round_to_nibble_signed(input.w);
        let outcome = if nibble as i32 * 16 == input.w as i32 {
            ThreadOutcome::NarrowExact
        } else {
            ThreadOutcome::Reduced
        };
        (
            LanePlan::WeightNarrow {
                x: input.x,
                w_nibble: nibble,
                shift: true,
            },
            outcome,
        )
    };

    match mode {
        WidthMode::None => activation_reduced(),
        WidthMode::Activation => {
            if fits_nibble_unsigned(input.x) {
                activation_narrow_exact()
            } else {
                activation_reduced()
            }
        }
        WidthMode::Weight => {
            if fits_nibble_signed(input.w) {
                weight_narrow_exact()
            } else {
                weight_reduced()
            }
        }
        WidthMode::ActivationThenSwap => {
            if fits_nibble_unsigned(input.x) {
                activation_narrow_exact()
            } else if fits_nibble_signed(input.w) {
                weight_narrow_exact()
            } else {
                activation_reduced()
            }
        }
        WidthMode::WeightThenSwap => {
            if fits_nibble_signed(input.w) {
                weight_narrow_exact()
            } else if fits_nibble_unsigned(input.x) {
                activation_narrow_exact()
            } else {
                weight_reduced()
            }
        }
    }
}

/// Plans one thread's 4b-4b lane for a three- or four-way collision,
/// returning the lane and whether it is lossy.
fn plan_quad_lane(input: &ThreadInput, mode: WidthMode) -> (QuadLane, bool) {
    let check_width = !matches!(mode, WidthMode::None);
    // Activation side.
    let (x_nibble, x_shift, x_lossy) = if check_width && fits_nibble_unsigned(input.x) {
        (input.x & 0x0F, false, false)
    } else {
        let nib = round_to_nibble_unsigned(input.x);
        (nib, true, nib as u32 * 16 != input.x as u32)
    };
    // Weight side.
    let (w_nibble, w_shift, w_lossy) = if check_width && fits_nibble_signed(input.w) {
        (input.w, false, false)
    } else {
        let nib = round_to_nibble_signed(input.w);
        (nib, true, nib as i32 * 16 != input.w as i32)
    };
    (
        QuadLane {
            x_nibble,
            w_nibble,
            x_shift,
            w_shift,
        },
        x_lossy || w_lossy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(threads: &[ThreadInput]) -> i64 {
        threads.iter().map(|t| t.exact_product()).sum()
    }

    #[test]
    fn thread_input_helpers() {
        assert!(!ThreadInput::new(0, 5).needs_mac());
        assert!(!ThreadInput::new(5, 0).needs_mac());
        assert!(ThreadInput::new(5, 5).needs_mac());
        assert_eq!(ThreadInput::new(10, -3).exact_product(), -30);
    }

    #[test]
    fn pe2_idle_when_both_threads_idle() {
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let r = pe.cycle([ThreadInput::new(0, 5), ThreadInput::new(7, 0)]);
        assert_eq!(r.total(), 0);
        assert!(!r.stats.busy);
        assert_eq!(r.outcomes, [ThreadOutcome::Idle, ThreadOutcome::Idle]);
    }

    #[test]
    fn pe2_single_active_thread_is_exact() {
        // Fig. 2b: one thread has a zero operand, the other uses the full
        // 8b-8b multiplier with no error.
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let threads = [ThreadInput::new(0, 23), ThreadInput::new(178, -14)];
        let r = pe.cycle(threads);
        assert_eq!(r.total(), 178 * -14);
        assert_eq!(r.outcomes[0], ThreadOutcome::Idle);
        assert_eq!(r.outcomes[1], ThreadOutcome::FullPrecision);
        assert_eq!(r.stats.active_threads, 1);
        assert_eq!(r.stats.reduced_threads, 0);
    }

    #[test]
    fn pe2_narrow_threads_collide_without_error() {
        // Fig. 2c: both activations fit in 4 bits, so the collision is
        // error-free via the LSB path.
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let threads = [ThreadInput::new(14, 23), ThreadInput::new(2, -14)];
        let r = pe.cycle(threads);
        assert_eq!(r.total(), exact(&threads));
        assert_eq!(r.outcomes[0], ThreadOutcome::NarrowExact);
        assert_eq!(r.outcomes[1], ThreadOutcome::NarrowExact);
        assert_eq!(r.stats.reduced_threads, 0);
    }

    #[test]
    fn pe2_collision_reduces_wide_activations() {
        // Fig. 2a: both activations are wide, so both are rounded to their
        // 4-bit MSBs and the result is approximate.
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let threads = [ThreadInput::new(46, 23), ThreadInput::new(178, 121)];
        let r = pe.cycle(threads);
        // thread 0: round(46/16)=3 -> 3*23 << 4 = 1104 (exact 1058)
        // thread 1: round(178/16)=11 -> 11*121 << 4 = 21296 (exact 21538)
        assert_eq!(r.products[0], 1104);
        assert_eq!(r.products[1], (11 * 121) << 4);
        assert_eq!(r.stats.reduced_threads, 2);
        assert_eq!(r.outcomes[0], ThreadOutcome::Reduced);
        // The approximation error is bounded by 8 * |w| per thread.
        assert!((r.total() - exact(&threads)).abs() <= 8 * (23 + 121));
    }

    #[test]
    fn pe2_collision_with_multiple_of_16_is_exact() {
        // An activation that is an exact multiple of 16 loses nothing when
        // its MSBs are used.
        let pe = SmtPe2::new(SharingPolicy::S_A);
        let threads = [ThreadInput::new(48, 23), ThreadInput::new(178, 5)];
        let r = pe.cycle(threads);
        assert_eq!(r.products[0], 48 * 23);
        assert_eq!(r.outcomes[0], ThreadOutcome::NarrowExact);
    }

    #[test]
    fn pe2_swap_policy_avoids_reduction_when_weight_is_narrow() {
        // Fig. 2d: the first thread's activation is wide but its weight fits
        // in 4 bits, so Aw swaps the weight into the narrow port.
        let pe = SmtPe2::new(SharingPolicy::S_AW);
        let threads = [ThreadInput::new(178, 7), ThreadInput::new(200, 100)];
        let r = pe.cycle(threads);
        assert_eq!(r.products[0], 178 * 7, "swapped thread must be exact");
        assert_eq!(r.outcomes[0], ThreadOutcome::NarrowExact);
        assert_eq!(r.outcomes[1], ThreadOutcome::Reduced);

        // Under plain S+A the same inputs would have reduced thread 0 too.
        let plain = SmtPe2::new(SharingPolicy::S_A);
        let rp = plain.cycle(threads);
        assert_eq!(rp.stats.reduced_threads, 2);
    }

    #[test]
    fn pe2_weight_policy_reduces_weights() {
        let pe = SmtPe2::new(SharingPolicy::S_W);
        let threads = [ThreadInput::new(178, 100), ThreadInput::new(200, 3)];
        let r = pe.cycle(threads);
        // Thread 1 weight fits -> exact; thread 0 weight reduced to round(100/16)=6*16=96.
        assert_eq!(r.products[1], 200 * 3);
        assert_eq!(r.products[0], 178 * 6 * 16);
        assert_eq!(r.stats.reduced_threads, 1);
    }

    #[test]
    fn pe2_weight_swap_is_exact_for_large_activations() {
        // The swapped port carries the full unsigned activation, including
        // values above 127.
        let pe = SmtPe2::new(SharingPolicy::S_W);
        let threads = [ThreadInput::new(255, -8), ThreadInput::new(254, 7)];
        let r = pe.cycle(threads);
        assert_eq!(r.products[0], 255 * -8);
        assert_eq!(r.products[1], 254 * 7);
        assert_eq!(r.stats.reduced_threads, 0);
    }

    #[test]
    fn pe2_sparsity_disabled_treats_every_cycle_as_collision() {
        let pe = SmtPe2::new(SharingPolicy::A);
        // One thread is idle, but without S the other is still squeezed.
        let threads = [ThreadInput::new(0, 23), ThreadInput::new(178, 5)];
        let r = pe.cycle(threads);
        // Thread 1 is wide, so it gets reduced even though the MAC was free.
        assert_eq!(r.outcomes[1], ThreadOutcome::Reduced);
        assert_eq!(r.products[1], (11 * 5) << 4);
        // Thread 0 contributes exactly zero either way.
        assert_eq!(r.products[0], 0);
    }

    #[test]
    fn pe2_naive_policy_always_reduces() {
        let pe = SmtPe2::new(SharingPolicy::NAIVE);
        let threads = [ThreadInput::new(9, 23), ThreadInput::new(5, 5)];
        let r = pe.cycle(threads);
        // Even narrow activations are rounded: 9 -> round(9/16)=1 -> 1*23<<4.
        assert_eq!(r.products[0], 23 << 4);
        assert_eq!(r.stats.reduced_threads, 2);
    }

    #[test]
    fn pe4_single_and_dual_active_threads_match_pe2_behaviour() {
        let pe = SmtPe4::new(SharingPolicy::S_A);
        // One active thread.
        let r = pe.cycle([
            ThreadInput::new(0, 1),
            ThreadInput::new(200, -100),
            ThreadInput::new(3, 0),
            ThreadInput::new(0, 0),
        ]);
        assert_eq!(r.total(), 200 * -100);
        assert_eq!(r.outcomes[1], ThreadOutcome::FullPrecision);

        // Two active threads, both narrow: exact.
        let threads = [
            ThreadInput::new(14, 23),
            ThreadInput::new(0, 55),
            ThreadInput::new(2, -14),
            ThreadInput::new(99, 0),
        ];
        let r = pe.cycle(threads);
        assert_eq!(r.total(), 14 * 23 + 2 * -14);
        assert_eq!(r.stats.active_threads, 2);
        assert_eq!(r.stats.reduced_threads, 0);
    }

    #[test]
    fn pe4_quad_collision_reduces_both_operand_sides() {
        let pe = SmtPe4::new(SharingPolicy::S_A);
        let threads = [
            ThreadInput::new(46, 100),
            ThreadInput::new(178, -100),
            ThreadInput::new(15, 7),
            ThreadInput::new(200, 3),
        ];
        let r = pe.cycle(threads);
        assert_eq!(r.stats.active_threads, 4);
        // Thread 2 is narrow on both sides: exact.
        assert_eq!(r.products[2], 15 * 7);
        assert_eq!(r.outcomes[2], ThreadOutcome::NarrowExact);
        // Thread 0: x 46 -> 3 (MSB), w 100 -> 6 (MSB) => 3*6*256 = 4608 vs exact 4600.
        assert_eq!(r.products[0], 3 * 6 * 256);
        assert_eq!(r.outcomes[0], ThreadOutcome::Reduced);
        // Thread 3: x 200 -> 13 (MSB), w 3 narrow => 13*3*16 = 624 vs 600.
        assert_eq!(r.products[3], 13 * 3 * 16);
        // Total error stays bounded.
        assert!((r.total() - exact(&threads)).abs() < 8 * 400);
    }

    #[test]
    fn pe4_three_way_collision_uses_quad_path() {
        let pe = SmtPe4::new(SharingPolicy::S_A);
        let threads = [
            ThreadInput::new(46, 100),
            ThreadInput::new(178, -100),
            ThreadInput::new(15, 7),
            ThreadInput::new(0, 3),
        ];
        let r = pe.cycle(threads);
        assert_eq!(r.stats.active_threads, 3);
        // The idle thread contributes nothing.
        assert_eq!(r.products[3], 0);
        assert_eq!(r.outcomes[3], ThreadOutcome::Idle);
        // Even the thread whose activation is wide but weight narrow gets the
        // quad treatment (paper: "a collision of three threads is treated
        // similarly").
        assert_eq!(r.products[0], 3 * 6 * 256);
    }

    #[test]
    fn pe4_error_is_never_worse_than_whole_model_a4w4() {
        // For any operand pair, the 4T reduction error is at most the error
        // of statically reducing both operands to rounded nibbles.
        let pe = SmtPe4::new(SharingPolicy::S_A);
        let samples: [(u8, i8); 6] = [
            (46, 100),
            (178, -100),
            (15, 7),
            (200, 3),
            (255, -128),
            (17, 17),
        ];
        for &(x, w) in &samples {
            let threads = [ThreadInput::new(x, w); 4];
            let r = pe.cycle(threads);
            let static_nib =
                round_to_nibble_unsigned(x) as i64 * 16 * round_to_nibble_signed(w) as i64 * 16;
            let exact = x as i64 * w as i64;
            assert!(
                (r.products[0] - exact).abs() <= (static_nib - exact).abs() + 1,
                "x={x} w={w}"
            );
        }
    }

    #[test]
    fn cycle_result_total_sums_products() {
        let r: CycleResult<2> = CycleResult {
            products: [5, -3],
            outcomes: [ThreadOutcome::FullPrecision, ThreadOutcome::FullPrecision],
            stats: CycleStats::default(),
        };
        assert_eq!(r.total(), 2);
    }

    #[test]
    fn pe_stats_accumulate_and_derive_rates() {
        let mut a = PeStats {
            cycles: 10,
            busy_cycles: 5,
            collision_cycles: 2,
            reduced_thread_slots: 3,
            active_thread_slots: 12,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert!((a.utilization() - 0.5).abs() < 1e-12);
        assert!((a.reduction_rate() - 0.25).abs() < 1e-12);
        assert_eq!(PeStats::default().utilization(), 0.0);
        assert_eq!(PeStats::default().reduction_rate(), 0.0);
    }

    /// The swapped (weight-in-narrow-port) lane must be exact for every
    /// activation value and every narrow weight.
    #[test]
    fn weight_narrow_lane_is_exact_for_all_activations() {
        for x in 0..=255u8 {
            for w in -8i8..=7 {
                if w == 0 {
                    continue;
                }
                let (plan, outcome) = plan_dual_lane(&ThreadInput::new(x, w), WidthMode::Weight);
                assert_eq!(outcome, ThreadOutcome::NarrowExact);
                assert_eq!(
                    plan.product(&FlexMultiplier::new()),
                    x as i64 * w as i64,
                    "x={x} w={w}"
                );
            }
        }
    }
}
