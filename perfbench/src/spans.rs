//! Host-time spans recorded by the benchmark around each public call it
//! makes, kept in memory and reduced to per-name totals and self times
//! when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// An in-memory span recorder. Spans nest: a span opened while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, parent: self.open.last().copied(), start, end: start });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Per span name: total self time, each span's duration minus the
    /// time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += (s.end - s.start - child[i]).max(0.0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(seconds: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < seconds {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.time("outer", |s| {
            spin(0.002);
            s.time("inner", |_| spin(0.004));
            s.time("inner", |_| spin(0.004));
        });
        let outer = s.durations("outer")[0];
        let inner: f64 = s.durations("inner").iter().sum();
        let selfs = s.self_times();
        assert_eq!(s.durations("inner").len(), 2);
        assert!((selfs["inner"] - inner).abs() < 1e-12);
        assert!((selfs["outer"] - (outer - inner)).abs() < 1e-12);
        assert!(selfs["outer"] >= 0.002);
    }
}
