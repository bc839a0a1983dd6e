//! Pipelining of the per-stage dataflow (§6.3, Figs. 10 and 13).
//!
//! Three overlaps are exploited:
//!
//! 1. the host's sqrt/inverse preprocessing for Flux runs during the
//!    Volume computation ("offloading them to the host CPU during the
//!    Volume computation", §7.5),
//! 2. neighbor-element data fetching overlaps Volume ("the
//!    neighboring-element data fetching in Flux and the computation in
//!    Volume can be processed in parallel", §6.3),
//! 3. Flux is split by normal direction into two half-phases so the `+1`
//!    fetch hides behind the `−1` compute ("We divide the computation in
//!    Flux based on the direction of normal vector into two stages in
//!    order to overlap the overhead of inter-block data transmission",
//!    §7.5).
//!
//! Volume and Integration cannot pipeline internally: "both intra-block
//! data movement and computation are implemented by applying different
//! voltages on bitlines and wordlines. This hardware hazard makes the
//! Volume and Integration unable to be pipelined" (§6.3).

use serde::{Deserialize, Serialize};

/// Per-stage kernel durations in seconds (one LSRK stage, one resident
/// batch, 28 nm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageBreakdown {
    pub volume: f64,
    /// Total neighbor-fetch time across all six face phases.
    pub flux_fetch: f64,
    /// Total flux arithmetic across all six face phases.
    pub flux_compute: f64,
    pub integration: f64,
    /// Host sqrt/inverse preprocessing feeding the LUTs.
    pub host_preprocess: f64,
}

/// One bar of the Fig. 13 timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Segment {
    /// Swimlane, e.g. "CPU Host", "Volume", "Flux (-1)".
    pub lane: &'static str,
    pub label: &'static str,
    /// Start/end in seconds from stage begin.
    pub start: f64,
    pub end: f64,
}

/// A scheduled stage: the Fig. 13 picture.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageTimeline {
    pub segments: Vec<Segment>,
    pub makespan: f64,
}

/// Builds the pipelined stage timeline.
pub fn pipelined_timeline(b: &StageBreakdown) -> StageTimeline {
    let half_fetch = 0.5 * b.flux_fetch;
    let half_compute = 0.5 * b.flux_compute;

    // Host preprocessing and the −1-direction fetch overlap Volume.
    let host =
        Segment { lane: "CPU Host", label: "sqrt / inverse", start: 0.0, end: b.host_preprocess };
    let volume = Segment { lane: "Volume", label: "compute", start: 0.0, end: b.volume };
    let fetch_minus =
        Segment { lane: "Flux (-1)", label: "data fetch", start: 0.0, end: half_fetch };

    // −1 flux compute waits for volume (shared blocks), its own fetch and
    // the host-provided LUT contents.
    let cm_start = b.volume.max(half_fetch).max(b.host_preprocess);
    let compute_minus = Segment {
        lane: "Flux (-1)",
        label: "compute",
        start: cm_start,
        end: cm_start + half_compute,
    };

    // +1 fetch hides behind the −1 compute.
    let fetch_plus = Segment {
        lane: "Flux (+1)",
        label: "data fetch",
        start: cm_start,
        end: cm_start + half_fetch,
    };
    let cp_start = compute_minus.end.max(fetch_plus.end);
    let compute_plus = Segment {
        lane: "Flux (+1)",
        label: "compute",
        start: cp_start,
        end: cp_start + half_compute,
    };

    // Integration needs every contribution in place.
    let integ_start = compute_plus.end;
    let integration = Segment {
        lane: "Integration",
        label: "update",
        start: integ_start,
        end: integ_start + b.integration,
    };

    let makespan = integration.end;
    StageTimeline {
        segments: vec![
            host,
            volume,
            fetch_minus,
            compute_minus,
            fetch_plus,
            compute_plus,
            integration,
        ],
        makespan,
    }
}

/// Builds the serial (unpipelined) timeline for comparison.
pub fn serial_timeline(b: &StageBreakdown) -> StageTimeline {
    let mut t = 0.0;
    let mut segments = Vec::new();
    let mut push = |lane, label, dur: f64, t: &mut f64| {
        segments.push(Segment { lane, label, start: *t, end: *t + dur });
        *t += dur;
    };
    push("CPU Host", "sqrt / inverse", b.host_preprocess, &mut t);
    push("Volume", "compute", b.volume, &mut t);
    push("Flux (-1)", "data fetch", 0.5 * b.flux_fetch, &mut t);
    push("Flux (-1)", "compute", 0.5 * b.flux_compute, &mut t);
    push("Flux (+1)", "data fetch", 0.5 * b.flux_fetch, &mut t);
    push("Flux (+1)", "compute", 0.5 * b.flux_compute, &mut t);
    push("Integration", "update", b.integration, &mut t);
    StageTimeline { segments, makespan: t }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> StageBreakdown {
        StageBreakdown {
            volume: 100e-6,
            flux_fetch: 60e-6,
            flux_compute: 120e-6,
            integration: 30e-6,
            host_preprocess: 40e-6,
        }
    }

    #[test]
    fn pipelined_is_faster_than_serial() {
        let b = example();
        let p = pipelined_timeline(&b).makespan;
        let s = serial_timeline(&b).makespan;
        assert!(p < s, "{p} vs {s}");
        // §7.5: "Without pipelining, our Wave-PIM can only obtain a 0.77×
        // throughput" — the serial/pipelined ratio sits in that vicinity.
        let throughput_ratio = p / s;
        assert!(
            (0.5..0.95).contains(&throughput_ratio),
            "pipelined/serial time ratio {throughput_ratio}"
        );
    }

    #[test]
    fn serial_makespan_is_the_component_sum() {
        let b = example();
        let sum = b.host_preprocess + b.volume + b.flux_fetch + b.flux_compute + b.integration;
        assert!((serial_timeline(&b).makespan - sum).abs() < 1e-18);
    }

    #[test]
    fn host_work_hides_behind_volume_when_short() {
        let mut b = example();
        b.host_preprocess = 10e-6; // shorter than volume
        let with = pipelined_timeline(&b).makespan;
        b.host_preprocess = 0.0;
        let without = pipelined_timeline(&b).makespan;
        assert_eq!(with, without, "short host work must be fully hidden");
    }

    #[test]
    fn long_host_work_becomes_the_bottleneck() {
        let mut b = example();
        b.host_preprocess = 500e-6;
        let t = pipelined_timeline(&b);
        assert!(t.makespan >= 500e-6 + 0.5 * b.flux_compute + b.integration - 1e-18);
    }

    #[test]
    fn segments_are_well_formed() {
        for timeline in [pipelined_timeline(&example()), serial_timeline(&example())] {
            for s in &timeline.segments {
                assert!(s.end >= s.start, "{s:?}");
                assert!(s.end <= timeline.makespan + 1e-18);
            }
            assert_eq!(timeline.segments.len(), 7);
        }
    }

    #[test]
    fn integration_is_last_in_both_modes() {
        for timeline in [pipelined_timeline(&example()), serial_timeline(&example())] {
            let integ = timeline.segments.iter().find(|s| s.lane == "Integration").unwrap();
            assert!((integ.end - timeline.makespan).abs() < 1e-18);
        }
    }
}
