//! Exporters for [`Snapshot`]: Prometheus text exposition format and JSON.
//!
//! Both are dependency-free. JSON numbers are rendered with the same
//! shortest-roundtrip rules as `pim_trace::json::number` (Rust's `{}` for
//! f64 round-trips); the output is plain-data and parses with
//! `pim_trace::json::parse` in the bench layer's schema tests.

use crate::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Split a [`crate::metric_key`]-formatted key into (base name, label block).
/// `"x_total{chip=\"0\"}"` → `("x_total", "{chip=\"0\"}")`.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => key.split_at(i),
        None => (key, ""),
    }
}

/// Render a `f64` for both exporters: finite shortest-roundtrip, with
/// non-finite values mapped to Prometheus spellings (`+Inf`/`-Inf`/`NaN`)
/// for text and `null` for JSON handled by callers.
fn number(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        if x > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{x}")
    }
}

/// Group keys by base metric name, preserving the BTreeMap order.
fn by_base<V>(map: &BTreeMap<String, V>) -> Vec<(&str, Vec<(&str, &V)>)> {
    let mut out: Vec<(&str, Vec<(&str, &V)>)> = Vec::new();
    for (key, value) in map {
        let (base, labels) = split_key(key);
        match out.last_mut() {
            Some((last, rows)) if *last == base => rows.push((labels, value)),
            _ => out.push((base, vec![(labels, value)])),
        }
    }
    out
}

/// Prometheus text exposition format (version 0.0.4): one `# TYPE` line per
/// metric family, then one sample per label set. Histograms emit cumulative
/// `_bucket{le=...}` samples plus `_sum` and `_count`.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (base, rows) in by_base(&snapshot.counters) {
        let _ = writeln!(out, "# TYPE {base} counter");
        for (labels, value) in rows {
            let _ = writeln!(out, "{base}{labels} {value}");
        }
    }
    for (base, rows) in by_base(&snapshot.float_counters) {
        let _ = writeln!(out, "# TYPE {base} counter");
        for (labels, value) in rows {
            let _ = writeln!(out, "{base}{labels} {}", number(*value));
        }
    }
    for (base, rows) in by_base(&snapshot.gauges) {
        let _ = writeln!(out, "# TYPE {base} gauge");
        for (labels, value) in rows {
            let _ = writeln!(out, "{base}{labels} {}", number(*value));
        }
    }
    for (base, rows) in by_base(&snapshot.histograms) {
        let _ = writeln!(out, "# TYPE {base} histogram");
        for (labels, hist) in rows {
            write_histogram(&mut out, base, labels, hist);
        }
    }
    out
}

fn write_histogram(out: &mut String, base: &str, labels: &str, hist: &HistogramSnapshot) {
    // Splice le="..." into the existing label block (or start one).
    let le_labels = |le: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{le}\"}}")
        } else {
            format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
        }
    };
    let mut cumulative = 0u64;
    for (i, count) in hist.counts.iter().enumerate() {
        cumulative += count;
        let le = match hist.bounds.get(i) {
            Some(b) => number(*b),
            None => "+Inf".to_string(),
        };
        let _ = writeln!(out, "{base}_bucket{} {cumulative}", le_labels(&le));
    }
    let _ = writeln!(out, "{base}_sum{labels} {}", number(hist.sum));
    let _ = writeln!(out, "{base}_count{labels} {}", hist.count);
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_number(x: f64) -> String {
    if !x.is_finite() {
        return "null".to_string();
    }
    number(x)
}

/// JSON object with one section per metric class:
/// `{"counters": {...}, "float_counters": {...}, "gauges": {...},
///   "histograms": {"name": {"bounds": [...], "counts": [...], "count": n, "sum": x}}}`.
pub fn json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (key, value) in &snapshot.counters {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let _ = write!(out, "{sep}    \"{}\": {value}", json_escape(key));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"float_counters\": {");
    first = true;
    for (key, value) in &snapshot.float_counters {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(key), json_number(*value));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    first = true;
    for (key, value) in &snapshot.gauges {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let _ = write!(out, "{sep}    \"{}\": {}", json_escape(key), json_number(*value));
    }
    out.push_str(if first { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    first = true;
    for (key, hist) in &snapshot.histograms {
        let sep = if first { "\n" } else { ",\n" };
        first = false;
        let bounds: Vec<String> = hist.bounds.iter().map(|b| json_number(*b)).collect();
        let counts: Vec<String> = hist.counts.iter().map(|c| c.to_string()).collect();
        let _ = write!(
            out,
            "{sep}    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"count\": {}, \"sum\": {}}}",
            json_escape(key),
            bounds.join(", "),
            counts.join(", "),
            hist.count,
            json_number(hist.sum)
        );
    }
    out.push_str(if first { "}\n" } else { "\n  }\n" });
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample_snapshot() -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter("pim_ops_total", &[("chip", "0"), ("op", "read")]).add(3);
        reg.counter("pim_ops_total", &[("chip", "1"), ("op", "read")]).add(5);
        reg.float_counter("pim_energy_joules_total", &[("mechanism", "compute")]).add(0.25);
        reg.gauge("pim_utilization", &[("chip", "0")]).set(0.75);
        let h = reg.histogram("stage_seconds", &[("chip", "0")], &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.002);
        h.observe(0.5);
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_format() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE pim_ops_total counter\n"));
        assert!(text.contains("pim_ops_total{chip=\"0\",op=\"read\"} 3\n"));
        assert!(text.contains("pim_ops_total{chip=\"1\",op=\"read\"} 5\n"));
        assert!(text.contains("pim_energy_joules_total{mechanism=\"compute\"} 0.25\n"));
        assert!(text.contains("# TYPE pim_utilization gauge\n"));
        assert!(text.contains("pim_utilization{chip=\"0\"} 0.75\n"));
        // Histogram buckets are cumulative and end at +Inf.
        assert!(text.contains("stage_seconds_bucket{chip=\"0\",le=\"0.001\"} 1\n"));
        assert!(text.contains("stage_seconds_bucket{chip=\"0\",le=\"0.01\"} 2\n"));
        assert!(text.contains("stage_seconds_bucket{chip=\"0\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("stage_seconds_count{chip=\"0\"} 3\n"));
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE pim_ops_total").count(), 1);
    }

    #[test]
    fn json_round_trips_structure() {
        let text = json(&sample_snapshot());
        // Hand-rolled sanity: balanced braces, all four sections present.
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        for section in ["\"counters\"", "\"float_counters\"", "\"gauges\"", "\"histograms\""] {
            assert!(text.contains(section), "missing {section} in {text}");
        }
        assert!(text.contains("\"pim_ops_total{chip=\\\"0\\\",op=\\\"read\\\"}\": 3"));
        assert!(text.contains("\"count\": 3"));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let text = json(&Snapshot::default());
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        let prom = prometheus_text(&Snapshot::default());
        assert!(prom.is_empty());
    }
}
