//! # pim-trace
//!
//! Zero-overhead structured tracing and metrics for the Wave-PIM stack.
//!
//! Three execution layers record typed events into per-thread ring
//! buffers (see [`ring`]):
//!
//! * **`pim-sim`** — every chip instruction becomes a span on its block's
//!   lane carrying the NOR-cycle count and the exact joules charged to the
//!   energy ledger; interconnect transfers and off-chip DMAs carry byte
//!   counts; host dispatch and sqrt/inverse offload appear on the host
//!   lane. Timestamps are *simulated* seconds from the chip's resource
//!   timeline, so the trace is the observed counterpart of the analytic
//!   cost models.
//! * **`wave-pim`** — kernel-level spans (Volume / Flux / Integration,
//!   LUT setup, batch swaps) bracketing the instruction streams the
//!   compiler emits, per LSRK stage.
//! * **`wavesim-dg`** — wall-clock spans for the native solver's kernels
//!   and RK stages (the GPU-profiling counterpart: per-kernel timing of
//!   the reference workload).
//!
//! ## Overhead discipline
//!
//! Tracing is **off** by default. The disabled path of every record
//! function is one `load(Relaxed)` of an [`AtomicBool`] and a predictable
//! branch — measured at well under 1% of a dG time-step (see
//! `benches/trace_overhead.rs` in `wavepim-bench` and the
//! `disabled_record_overhead_is_negligible` test).
//!
//! ## Exporters
//!
//! * [`chrome`] — Chrome/Perfetto `trace.json` (tid = block/lane,
//!   pid = chip or solver),
//! * [`aggregate`] — per-kernel aggregate table (spans, seconds, NOR
//!   cycles, joules, bytes, instruction counts),
//! * [`summary`] — machine-readable `BENCH_trace.json` for the perf
//!   trajectory,
//! * [`timeline`] — rebuilds the Fig. 13 stage timeline from observed
//!   kernel spans.

pub mod aggregate;
pub mod chrome;
pub mod event;
pub mod json;
pub mod ring;
pub mod summary;
pub mod timeline;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use event::{tid_label, Event, Kernel, Payload};
pub use event::{
    TID_FENCE, TID_HOST, TID_INTERCONNECT, TID_KERNELS, TID_OFFCHIP, TID_RESERVED_MIN,
};

static ENABLED: AtomicBool = AtomicBool::new(false);
static LANES_ONLY: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_PID: AtomicU32 = AtomicU32::new(1);
static CAPACITY: AtomicUsize = AtomicUsize::new(ring::DEFAULT_CAPACITY);

/// Is tracing currently recording? This is the hot-path gate: a relaxed
/// atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording (already-recorded events stay buffered until
/// [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Sets the per-thread ring capacity for rings created *after* this call.
pub fn set_ring_capacity(events: usize) {
    CAPACITY.store(events.max(1), Ordering::SeqCst);
}

/// When set, only events on the reserved *summary* lanes — host,
/// offchip, kernels, fences — are recorded; per-block instruction
/// spans **and** the per-instruction interconnect broadcast lane
/// ([`TID_INTERCONNECT`]) are dropped at the record site. The dropped
/// streams outnumber the summary events by ~1000:1 on real runs
/// (instruction spans and row broadcasts both scale with the
/// instruction count), so this is what makes whole-cluster causal
/// tracing (`pim-lens`) affordable at large refinement levels. Off by
/// default; reset it when done — the flag is process-global, like
/// [`enable`].
pub fn set_summary_lanes_only(on: bool) {
    LANES_ONLY.store(on, Ordering::SeqCst);
}

/// Is the summary-lanes-only filter active?
pub fn summary_lanes_only() -> bool {
    LANES_ONLY.load(Ordering::Relaxed)
}

pub(crate) fn ring_capacity() -> usize {
    CAPACITY.load(Ordering::SeqCst)
}

/// Allocates a fresh trace process id and registers its display label
/// (chips, solvers and runners each get their own swimlane group).
pub fn alloc_pid(label: impl Into<String>) -> u32 {
    let pid = NEXT_PID.fetch_add(1, Ordering::SeqCst);
    process_names()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .push((pid, label.into()));
    pid
}

fn process_names() -> &'static Mutex<Vec<(u32, String)>> {
    static NAMES: OnceLock<Mutex<Vec<(u32, String)>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Display label for a pid (`"pid N"` if never registered).
pub fn pid_label(pid: u32) -> String {
    process_names()
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .iter()
        .rev()
        .find(|(p, _)| *p == pid)
        .map(|(_, l)| l.clone())
        .unwrap_or_else(|| format!("pid {pid}"))
}

/// The process epoch for wall-clock events (first use pins it).
pub fn wall_now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Records a span event. The caller supplies timestamps on its own clock
/// (simulated seconds for the PIM layers, [`wall_now`] for native code).
#[inline(always)]
pub fn record_span(pid: u32, tid: u32, t0: f64, t1: f64, payload: Payload) {
    if !enabled() {
        return;
    }
    if (tid < event::TID_RESERVED_MIN || tid == event::TID_INTERCONNECT) && summary_lanes_only() {
        return;
    }
    record_always(pid, tid, t0, t1, payload);
}

/// Records an instantaneous event.
#[inline(always)]
pub fn record_instant(pid: u32, tid: u32, t: f64, payload: Payload) {
    record_span(pid, tid, t, t, payload);
}

#[inline(never)]
fn record_always(pid: u32, tid: u32, t0: f64, t1: f64, payload: Payload) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    ring::push_local(Event { pid, tid, t0, t1, seq, payload });
}

/// A kernel span measured with the wall clock, closed on drop. For
/// simulated-time spans the instrumentation records explicit
/// [`record_span`] calls instead (their clocks don't advance with ours).
pub struct WallSpan {
    pid: u32,
    tid: u32,
    t0: f64,
    payload: Option<Payload>,
}

impl WallSpan {
    /// Starts a wall-clock span; records nothing when tracing is off.
    #[inline(always)]
    pub fn begin(pid: u32, tid: u32, payload: Payload) -> Self {
        if !enabled() {
            return Self { pid, tid, t0: 0.0, payload: None };
        }
        Self { pid, tid, t0: wall_now(), payload: Some(payload) }
    }
}

impl Drop for WallSpan {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(payload) = self.payload.take() {
            record_always(self.pid, self.tid, self.t0, wall_now(), payload);
        }
    }
}

/// Drains every thread's ring: returns all buffered events in global
/// record order plus the number of events lost to ring overflow since the
/// previous drain.
pub fn drain() -> (Vec<Event>, u64) {
    ring::collect_all()
}

/// Drops all buffered events.
pub fn clear() {
    let _ = ring::collect_all();
}

/// Serializes this crate's unit tests that touch process-global state —
/// the enable flag, the summary-lane filter or the per-thread rings (a
/// `clear()` or `drain()` empties every thread's ring, not just its own).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _g = test_lock();
        clear();
        disable();
        record_span(1, 0, 0.0, 1.0, Payload::Counter { name: "x", value: 1.0 });
        let (events, _) = drain();
        assert!(events.iter().all(|e| !matches!(e.payload, Payload::Counter { name: "x", .. })));
    }

    #[test]
    fn enabled_roundtrip_preserves_order_and_payload() {
        let _g = test_lock();
        clear();
        enable();
        record_span(7, 3, 1.0, 2.0, Payload::Transfer { bytes: 64, energy_j: 1e-12 });
        record_instant(7, 4, 2.5, Payload::Counter { name: "u", value: 0.5 });
        disable();
        let (events, lost) = drain();
        assert_eq!(lost, 0);
        let mine: Vec<_> = events.iter().filter(|e| e.pid == 7).collect();
        assert_eq!(mine.len(), 2);
        assert!(mine[0].seq < mine[1].seq);
        assert_eq!(mine[0].payload.bytes(), 64);
        assert_eq!(mine[1].duration(), 0.0);
    }

    #[test]
    fn summary_lanes_only_drops_block_and_interconnect_events() {
        let _g = test_lock();
        clear();
        enable();
        set_summary_lanes_only(true);
        record_span(11, 0, 0.0, 1.0, Payload::BlockOp { op: "mul", nor_cycles: 1, energy_j: 0.0 });
        record_span(
            11,
            TID_INTERCONNECT,
            0.0,
            1.0,
            Payload::BlockOp { op: "bcast", nor_cycles: 1, energy_j: 0.0 },
        );
        record_span(
            11,
            TID_KERNELS,
            0.0,
            1.0,
            Payload::Kernel { kernel: Kernel::Volume, stage: 0 },
        );
        record_span(11, TID_FENCE, 1.0, 2.0, Payload::Fence { kind: "blocks", flow: 1 });
        set_summary_lanes_only(false);
        record_span(11, 0, 1.0, 2.0, Payload::BlockOp { op: "add", nor_cycles: 1, energy_j: 0.0 });
        disable();
        let (events, _) = drain();
        let mine: Vec<_> = events.iter().filter(|e| e.pid == 11).collect();
        assert_eq!(
            mine.len(),
            3,
            "block-lane and interconnect events must be dropped while filtered: {mine:?}"
        );
        assert!(mine.iter().all(|e| {
            (e.tid >= TID_RESERVED_MIN && e.tid != TID_INTERCONNECT)
                || matches!(e.payload, Payload::BlockOp { op: "add", .. })
        }));
    }

    #[test]
    fn pids_are_unique_and_labelled() {
        let a = alloc_pid("alpha");
        let b = alloc_pid("beta");
        assert_ne!(a, b);
        assert_eq!(pid_label(a), "alpha");
        assert_eq!(pid_label(b), "beta");
    }

    #[test]
    fn wall_span_measures_nonnegative_duration() {
        let _g = test_lock();
        clear();
        enable();
        let pid = alloc_pid("span-test");
        {
            let _s = WallSpan::begin(pid, 0, Payload::Kernel { kernel: Kernel::Volume, stage: 0 });
            std::hint::black_box((0..100).sum::<u64>());
        }
        disable();
        let (events, _) = drain();
        let span = events.iter().find(|e| e.pid == pid).expect("span recorded");
        assert!(span.t1 >= span.t0);
    }
}
