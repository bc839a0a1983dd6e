//! Order statistics over timing samples and the result line the
//! benchmark prints.

use std::fmt::Write as _;

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// The highest whole percentile of `samples` that still has at least
/// `min_beyond` samples above it (nearest-rank percentiles, searched
/// from p99 down to p50).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// See [`Tail`]. `None` when even the median has fewer than
/// `min_beyond` samples above it.
pub fn tail(samples: &[f64], min_beyond: usize) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    (50..=99u32).rev().find_map(|pct| {
        // Nearest rank: the smallest 1-based rank r with r/n ≥ pct/100.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= min_beyond).then(|| Tail { pct, value: s[rank - 1], beyond })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Metric names are non-empty runs of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run's result: the operations attempted and failed, whether every
/// check passed, and the metrics in insertion order.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check outside the per-operation ones failed (e.g. the
    /// traced run's lens reconciliation).
    pub check_failed: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report for a run that attempted `attempted` operations.
    pub fn new(attempted: u64, failed: u64, check_failed: bool) -> Self {
        Self { attempted, failed, check_failed, metrics: Vec::new() }
    }

    /// Adds a metric.
    ///
    /// # Panics
    /// Panics on an invalid or repeated name, or a non-finite value —
    /// both are bugs in this benchmark, not in the measured program.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A metric's value, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// True when every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.check_failed && self.attempted > 0
    }

    /// The single-line JSON object the benchmark prints last:
    /// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
    /// Values print with Rust's shortest round-trip formatting, so every
    /// measured digit survives.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 has rank 90 → 10 samples beyond; p91 would leave 9.
        assert_eq!(tail(&samples, 10), Some(Tail { pct: 90, value: 90.0, beyond: 10 }));
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        // 40 samples: p75 has rank 30 → 10 beyond.
        assert_eq!(tail(&samples, 10), Some(Tail { pct: 75, value: 30.0, beyond: 10 }));
        // 19 samples: even p50 (rank 10) leaves only 9 beyond.
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&samples, 10), None);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in ["step_s", "sim.exec_s.Volume", "lens.compute_Flux_s_per_step", "a-b", "9x"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".step", "_x", "compute:Volume", "a b", "é", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_json_has_exactly_the_schema_keys() {
        let mut r = Report::new(12, 0, false);
        r.push("step_s", 0.4123456789012345, "s");
        r.push("peak_rss_mb", 1200.5, "MiB");
        let json = r.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"step_s\": {\"value\": 0.4123456789012345, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 1200.5, \"unit\": \"MiB\"}}}"
        );
        assert!(!json.contains('\n'));
        let doc = pim_trace::json::parse(&json).expect("valid JSON");
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let step = doc.get("metrics").and_then(|m| m.get("step_s")).unwrap();
        assert_eq!(step.get("value").and_then(|v| v.as_f64()), Some(0.4123456789012345));
        assert_eq!(step.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn report_is_incorrect_on_any_failure() {
        let mut r = Report::new(3, 1, false);
        assert!(!r.correct());
        r.failed = 0;
        assert!(r.correct());
        r.check_failed = true;
        assert!(!r.correct());
        assert!(!Report::default().correct(), "nothing attempted is not a pass");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn report_rejects_duplicate_names() {
        let mut r = Report::default();
        r.push("x", 1.0, "s");
        r.push("x", 2.0, "s");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        let mut r = Report::default();
        r.push("n", 3.0, "count");
        assert!(r.to_json().contains("\"value\": 3.0"));
    }
}
