//! The host CPU model.
//!
//! The PIM is not self-sufficient: "One host CPU (we assume an ARM
//! Cortex-A72 architecture) has to be used for sending instructions and
//! pre-processing part of the input data" (§7.1). Complicated operations
//! — square root and inverse — are offloaded to this host and served from
//! look-up tables (§4.3, §5.1). The Fig. 13 pipeline overlaps this host
//! work with the Volume computation.

use crate::params::HOST_POWER;

// ARM Cortex-A72 timing model.

/// Core clock, Hz.
const CLOCK_HZ: f64 = 1.5e9;
/// FP square-root latency, cycles (A72 FSQRT: ~17).
const SQRT_CYCLES: u64 = 17;
/// FP divide latency, cycles (A72 FDIV: ~18).
const DIV_CYCLES: u64 = 18;
/// Sustained PIM-instruction dispatch rate, instructions per cycle.
const DISPATCH_PER_CYCLE: f64 = 1.0;

/// Seconds and joules to precompute `sqrts` square roots and `divs`
/// inverses for the LUT contents.
pub fn preprocess(sqrts: u64, divs: u64) -> (f64, f64) {
    let cycles = sqrts * SQRT_CYCLES + divs * DIV_CYCLES;
    let seconds = cycles as f64 / CLOCK_HZ;
    (seconds, seconds * HOST_POWER)
}

/// Seconds to dispatch `count` PIM instructions to the chip.
pub fn dispatch_time(count: u64) -> f64 {
    count as f64 / (DISPATCH_PER_CYCLE * CLOCK_HZ)
}

/// Host power draw, watts.
pub fn power() -> f64 {
    HOST_POWER
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preprocess_scales_with_work() {
        let (t1, e1) = preprocess(100, 0);
        let (t2, e2) = preprocess(200, 0);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
        let (t3, _) = preprocess(0, 100);
        assert!(t3 > t1, "divides are slower than roots on the A72");
    }

    #[test]
    fn dispatch_is_one_per_cycle_by_default() {
        assert!((dispatch_time(1_500_000_000) - 1.0).abs() < 1e-12);
        assert_eq!(dispatch_time(0), 0.0);
    }

    #[test]
    fn power_comes_from_table_3() {
        assert!((power() - 3.06).abs() < 1e-12);
    }
}
