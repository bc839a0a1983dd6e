//! # pim-metrics — hardware performance counters for the Wave-PIM stack
//!
//! A low-overhead counter layer: monotonic counters, gauges, and fixed-bucket
//! histograms behind a sharded atomic [`MetricsRegistry`]. Where `pim-trace`
//! records *events* (spans with timestamps, exported to Perfetto), this crate
//! records *aggregates* (how many NOR gates fired, how many joules each
//! mechanism burned, how long each lane was busy) that stay cheap at any
//! event rate and can be snapshotted per RK stage or per step.
//!
//! ## Disablement contract (same as `pim-trace`)
//!
//! - Runtime switch: metrics are **off by default**; [`enable`]/[`disable`]
//!   flip a global `AtomicBool` read with a single relaxed load per update
//!   site via [`enabled`].
//! - Compile-time switch: the `compiled-off` feature folds [`enabled`] to a
//!   constant `false` so every update branch compiles away.
//!
//! Reads ([`Counter::value`], [`MetricsRegistry::snapshot`]) are *not*
//! gated — a snapshot taken after `disable()` still sees everything recorded
//! while enabled.
//!
//! ## Sharding
//!
//! Hot counters are striped over [`SHARDS`] cache-line-padded atomic cells
//! indexed by a per-thread slot, so concurrent writers on different threads
//! don't bounce a cache line. `u64` counters use `fetch_add`; `f64` counters
//! use a compare-exchange loop on the bit pattern (contention-free in the
//! common one-writer-per-shard case).
//!
//! ## Snapshots and deltas
//!
//! [`MetricsRegistry::snapshot`] captures every registered metric into plain
//! `BTreeMap`s; [`Snapshot::delta`] subtracts an earlier snapshot so callers
//! get exact per-step / per-stage increments (integer counters are exactly
//! delta-consistent; see the property test in `tests/concurrent_delta.rs`).
//!
//! Export: [`export::prometheus_text`] (text exposition format) and
//! [`export::json`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub mod export;
pub mod http;

// ---------------------------------------------------------------------------
// Global enable/disable gate (contract mirrors pim-trace).
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Number of metric updates recorded while enabled (relaxed global count).
///
/// This is the metrics analogue of the trace ring length: overhead benches
/// use it to count update sites exercised by a run without instrumenting the
/// instrumentation.
static UPDATES: AtomicU64 = AtomicU64::new(0);

/// Is metrics collection enabled? One relaxed atomic load; with the
/// `compiled-off` feature this is a constant `false` and every update branch
/// folds away.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "compiled-off")]
    {
        false
    }
    #[cfg(not(feature = "compiled-off"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Turn metrics collection on (no-op under `compiled-off`).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn metrics collection off. Already-recorded values remain readable.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Total number of individual metric updates recorded while enabled.
pub fn updates_recorded() -> u64 {
    UPDATES.load(Ordering::Relaxed)
}

#[inline]
fn count_update() {
    UPDATES.fetch_add(1, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Sharded storage.
// ---------------------------------------------------------------------------

/// Number of stripes per sharded counter. Power of two; thread slots wrap.
pub const SHARDS: usize = 16;

/// A cache-line-padded atomic cell so adjacent shards never share a line.
#[repr(align(64))]
struct PaddedAtomicU64(AtomicU64);

impl PaddedAtomicU64 {
    const fn new() -> Self {
        Self(AtomicU64::new(0))
    }
}

fn new_shards() -> [PaddedAtomicU64; SHARDS] {
    std::array::from_fn(|_| PaddedAtomicU64::new())
}

/// Stable per-thread shard slot: threads get consecutive slots on first use
/// and always hit the same stripe afterwards.
#[inline]
fn shard_index() -> usize {
    use std::cell::Cell;
    thread_local! {
        static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut v = slot.get();
        if v == usize::MAX {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
        }
        v & (SHARDS - 1)
    })
}

// ---------------------------------------------------------------------------
// Metric handles.
// ---------------------------------------------------------------------------

/// Monotonic integer counter, sharded over [`SHARDS`] atomic stripes.
///
/// Handles are cheap `Arc` clones; cache one per instrumentation site (the
/// registry lookup takes a lock and should stay off hot paths).
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[PaddedAtomicU64; SHARDS]>,
}

impl Counter {
    fn new() -> Self {
        Self { shards: Arc::new(new_shards()) }
    }

    /// Add `n` (no-op while disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        count_update();
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one (no-op while disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Monotonic `f64` counter (energy in joules, busy seconds, FLOPs as f64).
///
/// Each shard accumulates via a compare-exchange loop on the bit pattern;
/// totals are the fixed-order sum over shards.
#[derive(Clone)]
pub struct FloatCounter {
    shards: Arc<[PaddedAtomicU64; SHARDS]>,
}

impl FloatCounter {
    fn new() -> Self {
        Self { shards: Arc::new(new_shards()) }
    }

    /// Add `x` (no-op while disabled). Negative increments are rejected in
    /// debug builds — these counters are monotonic by contract.
    #[inline]
    pub fn add(&self, x: f64) {
        if !enabled() {
            return;
        }
        debug_assert!(x >= 0.0, "FloatCounter increments must be non-negative, got {x}");
        count_update();
        let cell = &self.shards[shard_index()].0;
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current total across all shards (summed in shard order).
    pub fn value(&self) -> f64 {
        self.shards.iter().map(|s| f64::from_bits(s.0.load(Ordering::Relaxed))).sum()
    }
}

/// Last-write-wins `f64` gauge (utilization, queue depth, configuration).
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Self { bits: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }

    /// Set the gauge (no-op while disabled).
    #[inline]
    pub fn set(&self, x: f64) {
        if !enabled() {
            return;
        }
        count_update();
        self.bits.store(x.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram: finite sorted upper bounds plus an implicit
/// `+Inf` overflow bucket, a sharded observation count, and an `f64` sum.
#[derive(Clone)]
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
        Self { bounds: bounds.into(), buckets: buckets.into(), sum: FloatCounter::new() }
    }

    /// Record one observation (no-op while disabled).
    #[inline]
    pub fn observe(&self, x: f64) {
        if !enabled() {
            return;
        }
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

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    float_counters: BTreeMap<String, FloatCounter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named home for every metric. Handle acquisition takes a mutex and returns
/// a clone of the shared handle — do it once at setup, not per update.
#[derive(Default)]
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
        lock_inner(self).counters.entry(key).or_insert_with(Counter::new).clone()
    }

    /// Get or create the `f64` counter `name{labels}`.
    pub fn float_counter(&self, name: &str, labels: &[(&str, &str)]) -> FloatCounter {
        let key = metric_key(name, labels);
        lock_inner(self).float_counters.entry(key).or_insert_with(FloatCounter::new).clone()
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = metric_key(name, labels);
        lock_inner(self).gauges.entry(key).or_insert_with(Gauge::new).clone()
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

/// The process-wide registry used by all Wave-PIM instrumentation.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
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

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

/// Serializes this crate's unit tests that flip or depend on the
/// process-global switch; every such test takes it, whatever module it
/// lives in.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with the global switch on, under [`test_lock`].
    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _guard = test_lock();
        enable();
        let out = f();
        disable();
        out
    }

    #[test]
    fn disabled_updates_are_dropped() {
        let _guard = test_lock();
        let c = MetricsRegistry::new().counter("test_disabled_total", &[]);
        disable();
        c.add(7);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counter_and_float_accumulate_when_enabled() {
        with_enabled(|| {
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
        });
    }

    #[test]
    fn same_key_returns_same_metric() {
        with_enabled(|| {
            let reg = MetricsRegistry::new();
            let a = reg.counter("shared_total", &[("x", "1")]);
            let b = reg.counter("shared_total", &[("x", "1")]);
            a.add(2);
            b.add(3);
            assert_eq!(a.value(), 5);
        });
    }

    #[test]
    fn gauge_is_last_write_wins() {
        with_enabled(|| {
            let g = MetricsRegistry::new().gauge("depth", &[]);
            g.set(4.0);
            g.set(2.5);
            assert_eq!(g.value(), 2.5);
        });
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        with_enabled(|| {
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
        });
    }

    #[test]
    fn delta_subtracts_and_drops_zeroes() {
        with_enabled(|| {
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
        });
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
        with_enabled(|| {
            let reg = MetricsRegistry::new();
            reg.float_counter("e_total", &[("m", "compute")]).add(1.0);
            reg.float_counter("e_total", &[("m", "reads")]).add(2.0);
            reg.counter("n_total", &[("m", "x")]).add(3);
            let s = reg.snapshot();
            assert_eq!(s.float_total("e_total"), 3.0);
            assert_eq!(s.counter_total("n_total"), 3);
        });
    }

    #[test]
    fn disabled_update_overhead_is_negligible() {
        // Same bar as pim-trace: the disabled path must stay well under
        // 50 ns per call (one relaxed load + branch; typically < 1 ns).
        let _guard = test_lock();
        disable();
        let c = MetricsRegistry::new().counter("overhead_probe_total", &[]);
        let f = MetricsRegistry::new().float_counter("overhead_probe_joules", &[]);
        let start = std::time::Instant::now();
        let calls = 1_000_000u64;
        for i in 0..calls {
            c.add(i);
            f.add(i as f64);
        }
        let per_call = start.elapsed().as_secs_f64() / (2 * calls) as f64;
        assert_eq!(c.value(), 0);
        assert!(per_call < 50e-9, "disabled metric update cost {per_call:.2e}s/call");
    }
}
