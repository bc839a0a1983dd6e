//! The per-thread ring-buffer sink.
//!
//! Each thread records into its own fixed-capacity ring through a
//! thread-local handle, so the hot path takes an uncontended lock (one
//! atomic compare-and-swap in practice) and never allocates after the
//! ring fills. Rings register themselves in a global registry on first
//! use; [`drain`](crate::drain) collects every thread's events and
//! restores the global record order via the `seq` counter.
//!
//! Overflow policy: the ring keeps the *newest* events, overwriting the
//! oldest and counting what it discarded — a stuck exporter can never
//! stall the simulator, and the overwrite count is reported so truncation
//! is visible instead of silent.

use std::sync::{Arc, Mutex, OnceLock};

use crate::event::Event;

/// Default per-thread capacity (events). A paper-scale functional run on
/// the small meshes the tests use stays well below this; the figure-scale
/// analytic paths emit aggregated events only.
pub const DEFAULT_CAPACITY: usize = 1 << 20;

/// Fixed-capacity overwrite-oldest ring.
#[derive(Debug)]
pub struct Ring {
    buf: Vec<Event>,
    cap: usize,
    /// Index of the oldest element (valid when `buf.len() == cap`).
    head: usize,
    /// Events overwritten because the ring was full.
    overwritten: u64,
}

impl Ring {
    pub fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        Self { buf: Vec::new(), cap, head: 0, overwritten: 0 }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    pub fn push(&mut self, ev: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Removes and returns the contents in insertion order.
    pub fn drain(&mut self) -> Vec<Event> {
        let head = std::mem::take(&mut self.head);
        let buf = std::mem::take(&mut self.buf);
        if buf.len() < self.cap || head == 0 {
            return buf;
        }
        // Rotate so the oldest surviving event comes first.
        let mut out = Vec::with_capacity(buf.len());
        out.extend_from_slice(&buf[head..]);
        out.extend_from_slice(&buf[..head]);
        out
    }
}

type SharedRing = Arc<Mutex<Ring>>;

/// Locks a trace mutex, recovering from poisoning. A traced thread that
/// panics mid-`push` leaves the ring intact (every mutation is a single
/// store or a `Vec::push`), so the data is safe to keep using — and the
/// profiler must never turn one worker panic into a cascade of panics
/// through every later record or `drain()`.
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn registry() -> &'static Mutex<Vec<SharedRing>> {
    static REGISTRY: OnceLock<Mutex<Vec<SharedRing>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: SharedRing = {
        let ring = Arc::new(Mutex::new(Ring::with_capacity(
            crate::ring_capacity(),
        )));
        lock_recovering(registry()).push(Arc::clone(&ring));
        ring
    };
}

/// Records into the calling thread's ring (creating + registering it on
/// first use). The caller has already passed the `enabled()` gate.
pub(crate) fn push_local(ev: Event) {
    LOCAL.with(|ring| lock_recovering(ring).push(ev));
}

/// Collects and clears every registered ring, restoring global record
/// order. Returns the events and the total number overwritten since the
/// last collection.
pub(crate) fn collect_all() -> (Vec<Event>, u64) {
    let rings = lock_recovering(registry());
    let mut events = Vec::new();
    let mut overwritten = 0;
    for ring in rings.iter() {
        let mut ring = lock_recovering(ring);
        overwritten += std::mem::take(&mut ring.overwritten);
        events.append(&mut ring.drain());
    }
    events.sort_by_key(|e| e.seq);
    (events, overwritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Payload;

    fn ev(seq: u64) -> Event {
        Event {
            pid: 1,
            tid: 0,
            t0: seq as f64,
            t1: seq as f64,
            seq,
            payload: Payload::Counter { name: "x", value: seq as f64 },
        }
    }

    #[test]
    fn ring_keeps_insertion_order_below_capacity() {
        let mut r = Ring::with_capacity(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        assert_eq!(r.overwritten(), 0);
        let out = r.drain();
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_overflow_keeps_newest_and_counts_losses() {
        let mut r = Ring::with_capacity(4);
        for i in 0..11 {
            r.push(ev(i));
        }
        assert_eq!(r.overwritten(), 7);
        let out = r.drain();
        // The four newest, oldest-first.
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
    }

    #[test]
    fn ring_drain_resets_state() {
        let mut r = Ring::with_capacity(2);
        r.push(ev(0));
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.drain().len(), 2);
        assert!(r.is_empty());
        r.push(ev(3));
        assert_eq!(r.drain().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        // A worker that panics while its ring lock is held poisons the
        // mutex; recording and draining must shrug that off rather than
        // propagate the panic to every later caller. The lock keeps a
        // concurrent test's `clear()` from draining the event first.
        let _g = crate::test_lock();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            LOCAL.with(|ring| {
                let _guard = lock_recovering(ring);
                panic!("traced worker dies mid-record");
            })
        }));
        assert!(caught.is_err());
        push_local(ev(1_000_000));
        let (events, _) = collect_all();
        assert!(events.iter().any(|e| e.seq == 1_000_000), "event recorded after poisoning");
    }

    #[test]
    fn exact_capacity_boundary_wraps_cleanly() {
        let mut r = Ring::with_capacity(3);
        for i in 0..6 {
            r.push(ev(i));
        }
        // Exactly two full generations: head back at 0.
        assert_eq!(r.drain().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
    }
}
