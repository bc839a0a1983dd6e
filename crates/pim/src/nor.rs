//! MAGIC-style NOR netlists executed gate-by-gate.
//!
//! In the digital PIM, "arithmetic operations like addition and
//! multiplication are achieved by performing NOR operations sequentially"
//! inside memristor rows (§2.3). Each NOR gate is one memory cycle: the
//! output memristor is initialized to `R_ON` and switches to `R_OFF` when
//! any input is '1'. This module provides a faithful functional model of
//! that execution — every `nor()` call counts one cycle — and builds the
//! canonical in-memory arithmetic units on top of it:
//!
//! * the 9-gate NOR full adder,
//! * the N-bit ripple-carry adder (9N gates),
//! * the shift-add multiplier.
//!
//! These verify the gate-level *functionality* of the design and give
//! un-optimized upper bounds on cycle counts. The calibrated FP32
//! latencies in [`crate::params`] account for the column-level
//! optimizations (carry-save, operand reuse) of FloatPIM-class mappings.

/// A sequential NOR execution context that counts gates (= cycles).
#[derive(Debug, Default)]
pub struct NorMachine {
    gates: u64,
    /// Retired bit buffers, reused by the arithmetic units below instead
    /// of allocating a fresh vector per operation — these run hot under
    /// the executor, and the gate counts are pure arithmetic, so buffer
    /// recycling cannot change any result.
    pool: Vec<Vec<bool>>,
}

impl NorMachine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Gates executed so far — in MAGIC, also the cycle count.
    pub fn gate_count(&self) -> u64 {
        self.gates
    }

    /// A cleared bit buffer from the pool (or a fresh one on first use).
    fn take_buf(&mut self) -> Vec<bool> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a retired bit buffer (e.g. a consumed `ripple_add` sum)
    /// to the pool for reuse by later operations.
    pub fn recycle(&mut self, buf: Vec<bool>) {
        self.pool.push(buf);
    }

    /// Buffers currently parked in the reuse pool.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.len()
    }

    /// The primitive: one NOR gate, one cycle.
    #[inline]
    pub fn nor(&mut self, a: bool, b: bool) -> bool {
        self.gates += 1;
        !(a || b)
    }

    /// NOT via NOR(a, a).
    #[inline]
    pub fn not(&mut self, a: bool) -> bool {
        self.nor(a, a)
    }

    /// OR via NOT(NOR(a, b)).
    #[inline]
    pub fn or(&mut self, a: bool, b: bool) -> bool {
        let n = self.nor(a, b);
        self.not(n)
    }

    /// AND via NOR(NOT a, NOT b).
    #[inline]
    pub fn and(&mut self, a: bool, b: bool) -> bool {
        let na = self.not(a);
        let nb = self.not(b);
        self.nor(na, nb)
    }

    /// The canonical 9-gate NOR-only full adder.
    /// Returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: bool, b: bool, c: bool) -> (bool, bool) {
        let g1 = self.nor(a, b);
        let g2 = self.nor(a, g1);
        let g3 = self.nor(b, g1);
        let g4 = self.nor(g2, g3); // XNOR(a, b)
        let g5 = self.nor(g4, c);
        let g6 = self.nor(g4, g5);
        let g7 = self.nor(c, g5);
        let sum = self.nor(g6, g7);
        let carry = self.nor(g5, g1);
        (sum, carry)
    }

    /// N-bit ripple-carry addition, little-endian bit slices.
    /// Returns `(sum_bits, carry_out)`; uses exactly `9·N` gates.
    pub fn ripple_add(&mut self, a: &[bool], b: &[bool]) -> (Vec<bool>, bool) {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        let mut sum = self.take_buf();
        let mut carry = false;
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Unsigned shift-add multiplication of two N-bit values into a
    /// 2N-bit product.
    pub fn multiply(&mut self, a: &[bool], b: &[bool]) -> Vec<bool> {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        let n = a.len();
        let mut acc = self.take_buf();
        acc.resize(2 * n, false);
        let mut partial = self.take_buf();
        for (shift, &bit) in b.iter().enumerate() {
            // Partial product: a AND b[shift], aligned at `shift`.
            partial.clear();
            partial.resize(2 * n, false);
            for (i, &abit) in a.iter().enumerate() {
                partial[shift + i] = self.and(abit, bit);
            }
            let (sum, _) = self.ripple_add(&acc, &partial);
            self.recycle(acc);
            acc = sum;
        }
        self.recycle(partial);
        acc
    }
}

impl NorMachine {
    /// Two's-complement subtraction `a − b` via invert-and-add with a
    /// carry-in of 1. Returns `(diff_bits, borrow)` where `borrow` is
    /// true when `a < b` (unsigned).
    pub fn subtract(&mut self, a: &[bool], b: &[bool]) -> (Vec<bool>, bool) {
        assert_eq!(a.len(), b.len(), "operand widths must match");
        let mut diff = self.take_buf();
        let mut carry = true; // +1 of the two's complement
        for (&x, &y) in a.iter().zip(b) {
            let ny = self.not(y);
            let (s, c) = self.full_adder(x, ny, carry);
            diff.push(s);
            carry = c;
        }
        (diff, !carry)
    }

    /// Unsigned comparison `a < b`, built on the subtractor's borrow.
    pub fn less_than(&mut self, a: &[bool], b: &[bool]) -> bool {
        let (diff, borrow) = self.subtract(a, b);
        self.recycle(diff);
        borrow
    }
}

/// Cycle-count *bracket* for a bit-serial FP32 multiplication, derived
/// from the netlists above.
///
/// * upper bound — the naive shift-add multiplier of [`NorMachine::multiply`]
///   on the 24-bit mantissa (n partial products × (3n AND + 18n adder
///   gates)) plus exponent add and normalization;
/// * lower bound — a carry-save array (FloatPIM-class mapping): ~2 NOR
///   steps per partial-product bit plus one final carry propagation,
///   exponent add and normalize/round.
///
/// The calibrated `FP32_MUL_CYCLES` must land inside this bracket — the
/// calibration is a fit to the paper's throughput figure, not a free
/// parameter.
pub fn fp32_mul_cycle_bracket() -> (u64, u64) {
    let n: u64 = 24; // mantissa bits
    let exponent = 9 * 8; // 8-bit exponent ripple add
    let normalize = 3 * n; // shift + sticky collection
    let naive = n * (3 * n + 9 * 2 * n) + exponent + normalize;
    let carry_save = n * n * 2 + 9 * 2 * n + exponent + normalize;
    (carry_save, naive)
}

/// Cycle-count bracket for a bit-serial FP32 addition: exponent
/// difference (subtract), mantissa alignment shift, one mantissa add,
/// renormalization. The shift is the variable part: a bit-serial barrel
/// shift costs ~3 NOR per mantissa bit per shift stage (5 stages for
/// shifts up to 24), the naive serial shifter up to 24 single-bit passes.
pub fn fp32_add_cycle_bracket() -> (u64, u64) {
    let n: u64 = 24;
    let exp_diff = 9 * 8;
    let mantissa_add = 9 * (n + 1);
    let renorm = 3 * n;
    let barrel = 3 * n * 5;
    let serial = 3 * n * 24;
    (exp_diff + barrel + mantissa_add + renorm, exp_diff + serial + mantissa_add + renorm)
}

/// Converts a u64 into `n` little-endian bits.
pub fn to_bits(value: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (value >> i) & 1 == 1).collect()
}

/// Converts little-endian bits back to a u64 (must fit).
pub fn from_bits(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter().enumerate().fold(0u64, |acc, (i, &b)| acc | ((b as u64) << i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_gates_truth_tables() {
        let mut m = NorMachine::new();
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(m.nor(a, b), !(a || b));
                assert_eq!(m.and(a, b), a && b);
                assert_eq!(m.or(a, b), a || b);
            }
            assert_eq!(m.not(a), !a);
        }
    }

    #[test]
    fn full_adder_exhaustive_and_nine_gates() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let mut m = NorMachine::new();
                    let (s, cy) = m.full_adder(a, b, c);
                    let total = a as u8 + b as u8 + c as u8;
                    assert_eq!(s, total & 1 == 1, "sum for {a}{b}{c}");
                    assert_eq!(cy, total >= 2, "carry for {a}{b}{c}");
                    assert_eq!(m.gate_count(), 9, "the NOR full adder is 9 gates");
                }
            }
        }
    }

    #[test]
    fn ripple_adder_matches_u32_and_costs_9n() {
        let cases = [(0u32, 0u32), (1, 1), (0xFFFF_FFFF, 1), (12345, 67890), (1 << 31, 1 << 31)];
        for (a, b) in cases {
            let mut m = NorMachine::new();
            let (sum, carry) = m.ripple_add(&to_bits(a as u64, 32), &to_bits(b as u64, 32));
            let expected = a as u64 + b as u64;
            assert_eq!(from_bits(&sum), expected & 0xFFFF_FFFF);
            assert_eq!(carry, expected >> 32 == 1);
            assert_eq!(m.gate_count(), 9 * 32);
        }
    }

    #[test]
    fn multiplier_matches_u16() {
        let cases = [(0u16, 0u16), (1, 1), (255, 255), (65535, 65535), (300, 7), (4096, 16)];
        for (a, b) in cases {
            let mut m = NorMachine::new();
            let product = m.multiply(&to_bits(a as u64, 16), &to_bits(b as u64, 16));
            assert_eq!(from_bits(&product), a as u64 * b as u64, "{a}×{b}");
        }
    }

    #[test]
    fn multiplier_gate_count_grows_quadratically() {
        let count = |n: usize| {
            let mut m = NorMachine::new();
            let _ = m.multiply(&to_bits(0, n), &to_bits(0, n));
            m.gate_count()
        };
        let c8 = count(8);
        let c16 = count(16);
        // Shift-add: n partial products × (3n AND gates + 9·2n adder
        // gates) → ~4× when doubling n.
        let ratio = c16 as f64 / c8 as f64;
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn calibrated_fp_cycles_are_below_naive_netlists() {
        // The naive 24-bit mantissa multiplier alone exceeds the
        // calibrated FP32_MUL budget — documenting that the calibration
        // assumes column-parallel optimizations, not magic.
        let mut m = NorMachine::new();
        let _ = m.multiply(&to_bits(0xAAAAAA, 24), &to_bits(0x555555, 24));
        assert!(m.gate_count() > crate::params::FP32_MUL_CYCLES);
        // …and a 32-bit ripple add is well under the FP32 add budget
        // (which also pays for alignment and normalization).
        let mut m2 = NorMachine::new();
        let _ = m2.ripple_add(&to_bits(1, 32), &to_bits(2, 32));
        assert!(m2.gate_count() < crate::params::FP32_ADD_CYCLES);
    }

    #[test]
    fn subtractor_matches_u32() {
        let cases = [(10u32, 3u32), (3, 10), (0, 0), (u32::MAX, 1), (1, u32::MAX), (12345, 12345)];
        for (a, b) in cases {
            let mut m = NorMachine::new();
            let (diff, borrow) = m.subtract(&to_bits(a as u64, 32), &to_bits(b as u64, 32));
            assert_eq!(from_bits(&diff), a.wrapping_sub(b) as u64, "{a}-{b}");
            assert_eq!(borrow, a < b, "borrow for {a}-{b}");
        }
    }

    #[test]
    fn comparator_is_a_strict_order() {
        let values = [0u32, 1, 7, 100, 65535, u32::MAX];
        for &a in &values {
            for &b in &values {
                let mut m = NorMachine::new();
                assert_eq!(
                    m.less_than(&to_bits(a as u64, 32), &to_bits(b as u64, 32)),
                    a < b,
                    "{a} < {b}"
                );
            }
        }
    }

    #[test]
    fn calibrated_fp32_cycles_lie_in_the_derived_brackets() {
        // The throughput-calibrated constants must be *achievable*: above
        // the carry-save lower bound and below the naive netlist.
        let (mul_lo, mul_hi) = fp32_mul_cycle_bracket();
        assert!(
            (mul_lo..=mul_hi).contains(&crate::params::FP32_MUL_CYCLES),
            "FP32 mul {} outside [{mul_lo}, {mul_hi}]",
            crate::params::FP32_MUL_CYCLES
        );
        let (add_lo, add_hi) = fp32_add_cycle_bracket();
        assert!(
            (add_lo..=add_hi).contains(&crate::params::FP32_ADD_CYCLES),
            "FP32 add {} outside [{add_lo}, {add_hi}]",
            crate::params::FP32_ADD_CYCLES
        );
    }

    #[test]
    fn buffer_pool_recycles_without_changing_results_or_counts() {
        // Two identical multiplies on one machine: the second reuses the
        // first's retired buffers, with identical product and gate cost.
        let mut m = NorMachine::new();
        let a = to_bits(0xBEEF, 16);
        let b = to_bits(0x1234, 16);
        let p1 = m.multiply(&a, &b);
        let gates_first = m.gate_count();
        assert!(m.pooled_buffers() > 0, "multiply must retire buffers into the pool");
        let before = m.pooled_buffers();
        let p2 = m.multiply(&a, &b);
        assert_eq!(p1, p2);
        assert_eq!(m.gate_count(), 2 * gates_first, "recycling must not change gate counts");
        m.recycle(p1);
        m.recycle(p2);
        assert!(m.pooled_buffers() >= before, "retired results must return to the pool");
        // And the recycled buffers feed adds/subs too.
        let (sum, _) = m.ripple_add(&to_bits(7, 32), &to_bits(9, 32));
        assert_eq!(from_bits(&sum), 16);
        let (diff, borrow) = m.subtract(&to_bits(9, 32), &to_bits(7, 32));
        assert_eq!(from_bits(&diff), 2);
        assert!(!borrow);
    }

    #[test]
    fn bit_conversions_round_trip() {
        for v in [0u64, 1, 255, 0xDEAD_BEEF, u32::MAX as u64] {
            assert_eq!(from_bits(&to_bits(v, 40)), v);
        }
    }
}
