//! # pim-metrics — hardware performance counters for the Wave-PIM stack
//!
//! Monotonic counters, gauges and fixed-bucket histograms in a
//! [`MetricsRegistry`]. Where `pim-trace` records *events* (spans with
//! timestamps, exported to Perfetto), this crate records *aggregates*
//! (how many NOR-crossbar instructions a chip issued, how many joules
//! each mechanism burned, how long each lane was busy) that stay cheap at
//! any event rate and can be snapshotted per RK stage or per step.
//!
//! ## Ownership contract
//!
//! A registry is a value a run owns; there is no process-wide registry
//! and no on/off switch. An instrumented component — a simulated chip,
//! the cluster runner, the native dG solver, the fleet scheduler — is
//! metered only when it is handed a registry. Without one it holds no
//! handles and its update sites do no metrics work. Two runs metered
//! into two registries can execute at the same time and never see each
//! other's series. Updates through a handle are unconditional.
//!
//! ## Determinism
//!
//! Every counter is one atomic cell. Integer totals do not depend on the
//! order of their increments; an `f64` total is the sum of its
//! increments in arrival order. The instrumented sites label their float
//! series so that one thread writes each series at a time, in program
//! order (a chip's series are written only by the thread executing that
//! chip), so every float total is independent of the worker count.
//!
//! ## Snapshots and deltas
//!
//! [`MetricsRegistry::snapshot`] captures every registered metric into plain
//! `BTreeMap`s; [`Snapshot::delta`] subtracts an earlier snapshot so callers
//! get exact per-step / per-stage increments (see the property test in
//! `tests/concurrent_delta.rs`).
//!
//! Export: [`export::prometheus_text`] (text exposition format) and
//! [`export::json`]; [`http::serve`] exposes one registry as a scrape target.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub mod export;
pub mod http;

// ---------------------------------------------------------------------------
// Metric handles.
// ---------------------------------------------------------------------------

/// Monotonic integer counter: one shared atomic cell.
///
/// Handles are cheap `Arc` clones; cache one per instrumentation site (the
/// registry lookup takes a lock and should stay off hot paths).
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Monotonic `f64` counter (energy in joules, busy seconds, FLOPs as f64):
/// one atomic cell holding the bit pattern, accumulated by a
/// compare-exchange loop.
#[derive(Clone, Debug, Default)]
pub struct FloatCounter {
    cell: Arc<AtomicU64>,
}

impl FloatCounter {
    /// Add `x`. Negative increments are rejected in debug builds — these
    /// counters are monotonic by contract.
    #[inline]
    pub fn add(&self, x: f64) {
        debug_assert!(x >= 0.0, "FloatCounter increments must be non-negative, got {x}");
        let mut cur = self.cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self.cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current total.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Last-write-wins `f64` gauge (utilization, queue depth, configuration).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, x: f64) {
        self.bits.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: finite sorted upper bounds plus an implicit
/// `+Inf` overflow bucket, an observation count per bucket, and an `f64` sum.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<[f64]>,
    /// One atomic per bucket (`bounds.len() + 1` entries); buckets are
    /// per-value, not cumulative — export layers cumulate for Prometheus.
    buckets: Arc<[AtomicU64]>,
    sum: FloatCounter,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        let buckets: Vec<AtomicU64> = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self { bounds: bounds.into(), buckets: buckets.into(), sum: FloatCounter::default() }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, x: f64) {
        let idx = self.bounds.partition_point(|&b| b < x);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.add(x);
    }

    /// Bucket upper bounds (excluding the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Snapshot this histogram's buckets, count, and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            count: counts.iter().sum(),
            sum: self.sum.value(),
            counts,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

/// Format a metric key in Prometheus exposition style:
/// `name{label="value",...}` (or just `name` with no labels).
///
/// Labels are emitted in the order given; callers use a stable order so the
/// same site always yields the same key.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric name must be a bare identifier, got {name:?}"
    );
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    float_counters: BTreeMap<String, FloatCounter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named home for every metric of one run. Handle acquisition takes a mutex
/// and returns a clone of the shared handle — do it once at setup, not per
/// update. Runs share a registry by `Arc`.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

fn lock_inner(registry: &MetricsRegistry) -> std::sync::MutexGuard<'_, RegistryInner> {
    match registry.inner.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the integer counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        lock_inner(self).counters.entry(key).or_default().clone()
    }

    /// Get or create the `f64` counter `name{labels}`.
    pub fn float_counter(&self, name: &str, labels: &[(&str, &str)]) -> FloatCounter {
        let key = metric_key(name, labels);
        lock_inner(self).float_counters.entry(key).or_default().clone()
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        lock_inner(self).gauges.entry(key).or_default().clone()
    }

    /// Get or create the histogram `name{labels}` with the given finite
    /// bucket upper bounds. Panics if the same key was registered with
    /// different bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        let key = metric_key(name, labels);
        let mut inner = lock_inner(self);
        let hist = inner.histograms.entry(key.clone()).or_insert_with(|| Histogram::new(bounds));
        assert_eq!(hist.bounds(), bounds, "histogram {key} re-registered with different bounds");
        hist.clone()
    }

    /// Capture every registered metric into a plain-data [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let inner = lock_inner(self);
        Snapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.value())).collect(),
            float_counters: inner
                .float_counters
                .iter()
                .map(|(k, c)| (k.clone(), c.value()))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.value())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// Point-in-time view of a histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds; `counts` has one extra `+Inf` entry.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

/// Point-in-time view of every metric in a registry, keyed by
/// [`metric_key`]-formatted names. Plain data: compare, diff, export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub float_counters: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The increment from `earlier` to `self`: counters and histogram
    /// buckets subtract (a metric absent from `earlier` counts from zero);
    /// gauges keep their latest value. Metrics unchanged at zero delta are
    /// dropped so per-stage deltas stay small.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v - earlier.counters.get(k).copied().unwrap_or(0)))
            .filter(|(_, v)| *v != 0)
            .collect();
        let float_counters = self
            .float_counters
            .iter()
            .map(|(k, &v)| (k.clone(), v - earlier.float_counters.get(k).copied().unwrap_or(0.0)))
            .filter(|(_, v)| *v != 0.0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let mut d = h.clone();
                if let Some(e) = earlier.histograms.get(k) {
                    for (c, &ec) in d.counts.iter_mut().zip(&e.counts) {
                        *c -= ec;
                    }
                    d.count -= e.count;
                    d.sum -= e.sum;
                }
                (k.clone(), d)
            })
            .filter(|(_, h)| h.count != 0)
            .collect();
        Snapshot { counters, float_counters, gauges: self.gauges.clone(), histograms }
    }

    /// Sum of all `f64` counters whose key starts with `prefix` — the common
    /// "total energy across mechanisms" reduction.
    pub fn float_total(&self, prefix: &str) -> f64 {
        self.float_counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }

    /// Sum of all integer counters whose key starts with `prefix`.
    pub fn counter_total(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_float_accumulate_when_enabled() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ops_total", &[("kind", "read")]);
        let f = reg.float_counter("energy_joules_total", &[]);
        c.add(3);
        c.inc();
        f.add(0.5);
        f.add(1.25);
        assert_eq!(c.value(), 4);
        assert_eq!(f.value(), 1.75);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ops_total{kind=\"read\"}"], 4);
        assert_eq!(snap.float_counters["energy_joules_total"], 1.75);
    }

    #[test]
    fn same_key_returns_same_metric() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("shared_total", &[("x", "1")]);
        let b = reg.counter("shared_total", &[("x", "1")]);
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
    }

    #[test]
    fn registries_are_independent() {
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.counter("runs_total", &[]).add(2);
        b.counter("runs_total", &[]).add(5);
        assert_eq!(a.snapshot().counters["runs_total"], 2);
        assert_eq!(b.snapshot().counters["runs_total"], 5);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = MetricsRegistry::new().gauge("depth", &[]);
        g.set(4.0);
        g.set(2.5);
        assert_eq!(g.value(), 2.5);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_seconds", &[], &[1.0, 10.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // <= 1.0 (bounds are inclusive upper edges)
        h.observe(5.0); // <= 10.0
        h.observe(50.0); // +Inf
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 56.5);
    }

    #[test]
    fn delta_subtracts_and_drops_zeroes() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("a_total", &[]);
        let b = reg.counter("b_total", &[]);
        let g = reg.gauge("g", &[]);
        a.add(10);
        b.add(1);
        g.set(3.0);
        let s0 = reg.snapshot();
        a.add(5);
        g.set(7.0);
        let s1 = reg.snapshot();
        let d = s1.delta(&s0);
        assert_eq!(d.counters.get("a_total"), Some(&5));
        assert!(!d.counters.contains_key("b_total"), "zero-delta metrics are dropped");
        assert_eq!(d.gauges["g"], 7.0);
    }

    #[test]
    fn metric_key_formatting() {
        assert_eq!(metric_key("plain", &[]), "plain");
        assert_eq!(
            metric_key("x_total", &[("chip", "0"), ("kernel", "Volume")]),
            "x_total{chip=\"0\",kernel=\"Volume\"}"
        );
    }

    #[test]
    fn prefix_totals() {
        let reg = MetricsRegistry::new();
        reg.float_counter("e_total", &[("m", "compute")]).add(1.0);
        reg.float_counter("e_total", &[("m", "reads")]).add(2.0);
        reg.counter("n_total", &[("m", "x")]).add(3);
        let s = reg.snapshot();
        assert_eq!(s.float_total("e_total"), 3.0);
        assert_eq!(s.counter_total("n_total"), 3);
    }
}
