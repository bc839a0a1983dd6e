//! The benchmark's metric catalogue — every name it may print, with its
//! unit — and the per-run value map filled by the workloads.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;

use pim_sim::EnergyLedger;

use crate::floor::Floor;
use crate::probe::{KernelSample, KERNELS};
use crate::spans::Spans;
use crate::stats::{median, tail};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("step_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// `EnergyLedger` dynamic parts, in the order of [`ledger_parts`].
pub const LEDGER_PARTS: [&str; 6] =
    ["compute", "reads", "writes", "interconnect", "offchip", "host"];

/// The dynamic parts of `l`, in [`LEDGER_PARTS`] order.
pub fn ledger_parts(l: &EnergyLedger) -> [f64; 6] {
    [l.compute, l.reads, l.writes, l.interconnect, l.offchip, l.host]
}

/// `pim-lens` blame categories, with `:` spelled `_`. Anything the lens
/// reports outside this list is summed into `lens.other_s_per_step`.
pub const LENS_CATEGORIES: [&str; 9] = [
    "compute_Volume",
    "compute_Flux",
    "compute_Integration",
    "compute_MathRefine",
    "host_preprocess",
    "link_serialization",
    "dma",
    "inbound_ghost_wait",
    "fence_idle",
];

/// Kernels whose opcode mix is reported; the halo kernels are all
/// off-chip DMAs, so their instruction count says everything.
pub const MIXED_KERNELS: [&str; 4] = ["MathStage", "Volume", "Flux", "Integration"];

/// Opcode classes of `StreamStats` reported per kernel of [`MIXED_KERNELS`].
pub const OPCODE_CLASSES: [&str; 9] =
    ["read", "write", "broadcast", "copy", "arith_add", "arith_mul", "lut", "offchip", "sync"];

/// Benchmark spans whose self time is reported as `self.<span>_s`.
pub const SPANS: [&str; 15] = [
    "setup",
    "mesh.build",
    "runtime.new",
    "runtime.first_step",
    "runtime.step",
    "runtime.merge",
    "check",
    "lens.analyze",
    "probe",
    "floor",
    "dg.new",
    "dg.set_initial",
    "dg.step",
    "dg.compute_rhs",
    "dg.integration",
];

/// Per-layer metrics, printed by every traced run (0 where a workload
/// does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("mesh.build_s", "s"),
        ("runtime.new_s", "s"),
        ("runtime.preload_s", "s"),
        ("runtime.first_step_s", "s"),
        ("runtime.step_s.tail", "s"),
        ("runtime.step_s.tail_pct", "%"),
        ("runtime.step_s.samples", "count"),
        ("runtime.merge_s", "s"),
        ("runtime.halo.bytes_per_step", "B"),
        ("runtime.halo.messages_per_step", "count"),
        ("runtime.halo.link_s_per_stage", "sim_s"),
        ("runtime.max_skew_s", "sim_s"),
        ("core.compile_s", "s"),
        ("core.cached_instrs", "count"),
        ("core.patch_sites", "count"),
        ("sim_step_s", "sim_s"),
        ("sim_energy_j_per_step", "J"),
        ("math.onpim_s_per_stage", "sim_s"),
        ("math.host_s_per_stage", "sim_s"),
        ("math.exposed_s_per_stage", "sim_s"),
        ("dg.rhs_s", "s"),
        ("dg.integration_s", "s"),
        ("dg.rhs_gflops", "GFLOP/s"),
        ("dg.rhs_gbs_computed", "GB/s"),
        ("host.stream_gbs", "GB/s"),
        ("host.random_read_ns", "ns"),
        ("host.floor_array_mib", "MiB"),
        ("host.llc_mib", "MiB"),
        ("host.steal_pct", "%"),
        ("trace.overhead", "ratio"),
        ("lens.other_s_per_step", "sim_s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        out.push((format!("sim.exec_s.{k}"), "s"));
        out.push((format!("sim.instrs.{k}"), "count"));
        out.push((format!("sim.ns_per_instr.{k}"), "ns"));
    }
    for k in MIXED_KERNELS {
        for class in OPCODE_CLASSES {
            out.push((format!("sim.instrs.{k}.{class}"), "count"));
        }
    }
    for part in LEDGER_PARTS {
        out.push((format!("sim.energy.{part}_j_per_step"), "J"));
    }
    for c in LENS_CATEGORIES {
        out.push((format!("lens.{c}_s_per_step"), "sim_s"));
    }
    for s in SPANS {
        out.push((format!("self.{s}_s"), "s"));
    }
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// A value set earlier, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds to a value (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_default() += value;
    }

    /// Names set that the catalogue does not know.
    pub fn unknown<'a>(&'a self, known: &'a [(String, &str)]) -> impl Iterator<Item = &'a str> {
        self.0.keys().map(String::as_str).filter(|n| !known.iter().any(|(k, _)| k == n))
    }

    /// `<prefix>.tail`, `.tail_pct` and `.samples` of a timing series:
    /// the highest percentile with at least ten samples beyond it.
    pub fn set_tail(&mut self, prefix: &str, samples: &[f64]) {
        self.set(&format!("{prefix}.samples"), samples.len() as f64);
        if let Some(t) = tail(samples, 10) {
            self.set(&format!("{prefix}.tail"), t.value);
            self.set(&format!("{prefix}.tail_pct"), f64::from(t.pct));
        }
    }

    /// `lens.<category>_s_per_step` from a blame map in seconds over
    /// `steps` steps, folding unknown categories into `lens.other`.
    pub fn set_lens(&mut self, blame: &BTreeMap<String, f64>, steps: usize) {
        for (category, seconds) in blame {
            let name = category.replace(':', "_");
            let known = LENS_CATEGORIES.contains(&name.as_str());
            let key = if known { name } else { "other".to_string() };
            self.add(&format!("lens.{key}_s_per_step"), seconds / steps as f64);
        }
    }

    pub fn set_probe(&mut self, samples: &[KernelSample]) {
        for k in samples {
            let s = &k.stats;
            self.set(&format!("sim.exec_s.{}", k.name), k.exec_s);
            self.set(&format!("sim.instrs.{}", k.name), k.instrs() as f64);
            self.set(&format!("sim.ns_per_instr.{}", k.name), k.ns_per_instr());
            if !MIXED_KERNELS.contains(&k.name) {
                continue;
            }
            let classes = [
                s.reads,
                s.writes,
                s.broadcasts,
                s.copies,
                s.arith_addlike,
                s.arith_mullike,
                s.luts,
                s.offchip_loads + s.offchip_stores,
                s.syncs,
            ];
            for (class, count) in OPCODE_CLASSES.iter().zip(classes) {
                self.set(&format!("sim.instrs.{}.{class}", k.name), count as f64);
            }
        }
    }

    pub fn set_floor(&mut self, f: &Floor) {
        self.set("host.stream_gbs", f.stream_gbs);
        self.set("host.random_read_ns", f.random_read_ns);
        self.set("host.floor_array_mib", f.array_bytes as f64 / (1u64 << 20) as f64);
        self.set("host.llc_mib", f.llc_bytes as f64 / (1u64 << 20) as f64);
    }

    pub fn set_self_times(&mut self, spans: &Spans) {
        for (name, seconds) in spans.self_times() {
            if SPANS.contains(&name) {
                self.set(&format!("self.{name}_s"), seconds);
            }
        }
    }

    /// Median of a series into `name`, if it has samples.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = median(samples) {
            self.set(name, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    /// The `(name, unit)` pairs of one metric array of `BENCHMARK.json`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = pim_trace::json::parse(&text).expect("BENCHMARK.json parses");
        let field =
            |m: &pim_trace::json::Value, f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
        doc.get(key)
            .and_then(|v| v.as_array())
            .expect("metric array present")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        let per_layer: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(declared("per_layer"), per_layer);
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 3 + 128);
        for n in &names {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn lens_categories_fold_into_names() {
        let mut v = Values::new();
        let blame: BTreeMap<String, f64> = [
            ("compute:Volume".to_string(), 4.0),
            ("dma".to_string(), 2.0),
            ("something_new".to_string(), 1.0),
        ]
        .into_iter()
        .collect();
        v.set_lens(&blame, 2);
        assert_eq!(v.get("lens.compute_Volume_s_per_step"), 2.0);
        assert_eq!(v.get("lens.dma_s_per_step"), 1.0);
        assert_eq!(v.get("lens.other_s_per_step"), 0.5);
        assert_eq!(v.unknown(&per_layer()).count(), 0);
    }
}
