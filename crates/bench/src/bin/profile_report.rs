//! The observability acceptance binary: runs one instrumented cluster
//! execution, prints the per-kernel utilization / energy / opcode
//! breakdown (the Table 6 / Fig. 13 view) read back from the metrics
//! registry, reconciles metrics ↔ energy ledgers ↔ trace aggregates to
//! ≤1e-9 relative, demonstrates the capacity-weighted slice deal on a
//! mixed 2GB + 8GB cluster, and writes `BENCH_metrics.json` (plus the
//! Prometheus exposition as `BENCH_metrics.prom`).
//!
//! Exits nonzero if any utilization-like share leaves [0, 1] or any
//! reconciliation bound fails — the CI regression gate. `--smoke` runs
//! the reduced CI configuration; `--serve ADDR` additionally exposes
//! the metered cluster run's registry as a Prometheus pull endpoint for
//! the duration of the run.

use std::sync::Arc;

use wavepim_bench::metrics_report::{
    check_report, metrics_json, profile_report_into, MetricsReportConfig,
};
use wavepim_bench::report::Table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let registry = Arc::new(pim_metrics::MetricsRegistry::new());
    let server = args
        .iter()
        .position(|a| a == "--serve")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "127.0.0.1:0".into()))
        .map(|addr| {
            let s = pim_metrics::http::serve(addr.as_str(), Arc::clone(&registry))
                .expect("bind metrics scrape endpoint");
            println!("Serving Prometheus metrics on http://{}/metrics\n", s.local_addr());
            s
        });

    let cfg = if smoke { MetricsReportConfig::smoke() } else { MetricsReportConfig::full() };
    let r = profile_report_into(&cfg, &registry);

    println!(
        "Instrumented 2-chip level-{} run: {} elements, {} steps, \
         max |diff| vs native dG {:.2e}\n",
        r.level, r.elements, r.steps, r.max_abs_diff_vs_native
    );

    for c in &r.chips {
        let mut t = Table::new(
            format!(
                "Chip {} ({}, {} blocks): per-kernel utilization and energy",
                c.chip, c.capacity, c.num_blocks
            ),
            &["Kernel", "Busy (ms)", "Utilization", "Energy (J)", "Energy share"],
        );
        for k in &c.kernels {
            t.row(vec![
                k.kernel.clone(),
                format!("{:.4}", k.busy_seconds * 1e3),
                format!("{:.4}", k.utilization),
                format!("{:.3e}", k.energy_joules),
                format!("{:.4}", k.energy_share),
            ]);
        }
        t.print();
        println!(
            "  reconciliation: metrics-ledger {:.2e}, trace-ledger {:.2e}, \
             kernel-attribution {:.2e}; capacity-idle {:.4}\n",
            c.ledger_rel_err, c.trace_rel_err, c.kernel_attribution_rel_err, c.capacity_idle_share
        );
    }

    let mut t = Table::new(
        "Native dG roofline (per kernel, analytic)",
        &["Kernel", "FLOPs", "Bytes", "FLOP/byte"],
    );
    for k in &r.roofline {
        t.row(vec![
            k.kernel.clone(),
            k.flops.to_string(),
            k.bytes.to_string(),
            format!("{:.3}", k.intensity),
        ]);
    }
    t.print();
    let f = &r.fused_stage;
    println!(
        "  measured: {} fused stage passes (Volume + Flux + Integration), {:.4e} s, {:.3} GFLOP/s",
        f.stages, f.seconds, f.gflops
    );

    let mut t = Table::new(
        format!(
            "Mixed {}+{} cluster at level {}: capacity-weighted vs unweighted slice deal",
            r.hetero_capacities[0], r.hetero_capacities[1], r.hetero_level
        ),
        &["Deal", "Slices", "Elements", "Max capacity-idle share"],
    );
    for s in [&r.weighted, &r.unweighted] {
        t.row(vec![
            if s.weighted { "weighted" } else { "unweighted" }.into(),
            format!("{:?}", s.slices),
            format!("{:?}", s.elements),
            format!("{:.4}", s.max_capacity_idle_share),
        ]);
    }
    t.print();
    println!("  weighted deal lowers the worst chip's capacity-idle share by {:.4}\n", r.idle_drop);

    let violations = check_report(&r);
    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }

    let doc = metrics_json(&r);
    pim_trace::json::parse(&doc).expect("BENCH_metrics.json must be valid JSON");
    let path = wavepim_bench::artifacts::write_artifact("BENCH_metrics.json", &doc)
        .expect("write BENCH_metrics.json");
    println!("Wrote {}.", path.display());

    let prom = pim_metrics::export::prometheus_text(&registry.snapshot());
    let prom_path = wavepim_bench::artifacts::write_artifact("BENCH_metrics.prom", &prom)
        .expect("write BENCH_metrics.prom");
    println!("Wrote {} ({} lines).", prom_path.display(), r.prometheus_lines);

    if let Some(s) = server {
        println!("Metrics endpoint served {} scrape(s).", s.scrapes_served());
        s.shutdown();
    }

    if !violations.is_empty() {
        eprintln!("{} invariant(s) violated — failing.", violations.len());
        std::process::exit(1);
    }
    println!("All utilization and reconciliation invariants hold.");
}
