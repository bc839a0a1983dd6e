//! Property: registry snapshots are delta-exact under concurrent updates.
//!
//! Workers hammer shared counter/float/histogram handles through the rayon
//! pool (so `RAYON_NUM_THREADS=1` and `=4` CI legs exercise the sequential
//! and the genuinely concurrent paths), and snapshot deltas taken at quiet
//! points must equal the analytically known totals *exactly* — integer
//! counters lose nothing to concurrent adds, float counters stay exact as
//! long as the increments are exactly representable, and phase deltas
//! compose.

use proptest::prelude::*;
use rayon::prelude::*;

use pim_metrics::{MetricsRegistry, Snapshot};

/// (updates per phase, increment modulus, histogram scale)
fn cases() -> impl Strategy<Value = (usize, u64, f64)> {
    (1usize..400, 1u64..17, prop_oneof![Just(0.25), Just(0.5), Just(1.0)])
}

/// Run one phase of concurrent updates and return the expected
/// (counter delta, float delta, histogram count delta).
fn run_phase(
    phase: u64,
    updates: usize,
    modulus: u64,
    scale: f64,
    c: &pim_metrics::Counter,
    f: &pim_metrics::FloatCounter,
    h: &pim_metrics::Histogram,
) -> (u64, f64, u64) {
    let items: Vec<u64> = (0..updates as u64).collect();
    items.par_chunks(8).for_each(|chunk| {
        for &i in chunk {
            c.add((phase + i) % modulus);
            // Multiples of 0.25/0.5/1.0 are exact in binary floating point,
            // so the concurrent sums and the snapshot delta must match exactly.
            f.add(((phase + i) % modulus) as f64 * scale);
            h.observe((i % 5) as f64 * scale);
        }
    });
    let counter_delta: u64 = items.iter().map(|&i| (phase + i) % modulus).sum();
    let float_delta: f64 = items.iter().map(|&i| ((phase + i) % modulus) as f64 * scale).sum();
    (counter_delta, float_delta, updates as u64)
}

fn expect_delta(later: &Snapshot, earlier: &Snapshot, key: &str, expected: (u64, f64, u64)) {
    let d = later.delta(earlier);
    let ckey = format!("delta_exact_ops_total{{case=\"{key}\"}}");
    let fkey = format!("delta_exact_joules_total{{case=\"{key}\"}}");
    let hkey = format!("delta_exact_hist{{case=\"{key}\"}}");
    assert_eq!(d.counters.get(&ckey).copied().unwrap_or(0), expected.0, "counter delta for {key}");
    assert_eq!(
        d.float_counters.get(&fkey).copied().unwrap_or(0.0),
        expected.1,
        "float counter delta for {key}"
    );
    let hist_count = d.histograms.get(&hkey).map(|h| h.count).unwrap_or(0);
    assert_eq!(hist_count, expected.2, "histogram count delta for {key}");
    if let Some(hist) = d.histograms.get(&hkey) {
        assert_eq!(hist.counts.iter().sum::<u64>(), hist.count, "bucket counts sum to count");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn snapshots_are_delta_exact_under_concurrent_updates(case in cases()) {
        let (updates, modulus, scale) = case;
        let key = format!("{updates}_{modulus}_{scale}");
        let labels = [("case", key.as_str())];
        let reg = MetricsRegistry::new();
        let c = reg.counter("delta_exact_ops_total", &labels);
        let f = reg.float_counter("delta_exact_joules_total", &labels);
        let h = reg.histogram("delta_exact_hist", &labels, &[0.5, 1.5, 3.0]);

        let s0 = reg.snapshot();
        let phase1 = run_phase(1, updates, modulus, scale, &c, &f, &h);
        let s1 = reg.snapshot();
        let phase2 = run_phase(2, updates / 2 + 1, modulus, scale, &c, &f, &h);
        let s2 = reg.snapshot();

        // Each phase delta is exact, and the two compose to the total.
        expect_delta(&s1, &s0, &key, phase1);
        expect_delta(&s2, &s1, &key, phase2);
        expect_delta(
            &s2,
            &s0,
            &key,
            (phase1.0 + phase2.0, phase1.1 + phase2.1, phase1.2 + phase2.2),
        );
    }
}
