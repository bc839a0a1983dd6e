//! The fleet-scheduler acceptance binary: replays a synthetic mixed-job
//! trace (sharded + deadline prologue, then pair-swapped repeated
//! program keys) through the fleet under cache-aware and
//! cache-oblivious placement, prints the plan and throughput/latency
//! comparison, and writes `BENCH_fleet.json`.
//!
//! Exits nonzero unless the cache-aware plan has strictly more cache
//! hits and a strictly shorter virtual makespan than the oblivious one,
//! or if a fleet job diverges from its solo replay — the CI regression
//! gate. Wall-clock figures are printed, not gated. `--smoke` runs the
//! reduced CI configuration.
//! The fleet scheduler is metered into one registry (the jobs' chips are
//! not); `--serve ADDR` exposes it as a Prometheus pull endpoint for the
//! duration of the run.

use std::sync::Arc;

use wavepim_bench::fleet::{check_fleet, fleet_bench_data, fleet_json, FleetBenchConfig};
use wavepim_bench::report::Table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let serve_addr = args
        .iter()
        .position(|a| a == "--serve")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "127.0.0.1:0".into()));

    let registry = Arc::new(pim_metrics::MetricsRegistry::new());
    let server = serve_addr.map(|addr| {
        let s = pim_metrics::http::serve(addr.as_str(), Arc::clone(&registry))
            .expect("bind metrics scrape endpoint");
        println!("Serving Prometheus metrics on http://{}/metrics\n", s.local_addr());
        s
    });

    let mut cfg = if smoke { FleetBenchConfig::smoke() } else { FleetBenchConfig::full() };
    cfg.metrics = Some(registry);
    let r = fleet_bench_data(&cfg);

    println!(
        "Fleet of {:?}: {} level-{} jobs, {} steps each ({} replayed solo for equivalence)\n",
        r.fleet, r.trace_jobs, r.level, r.steps, r.verified_jobs
    );

    let mut t = Table::new(
        "Placement policy comparison",
        &[
            "Policy",
            "Done",
            "Hits",
            "Plan makespan",
            "Jobs/hour",
            "p50 (s)",
            "p99 (s)",
            "Worst idle",
        ],
    );
    for p in [&r.aware, &r.oblivious] {
        t.row(vec![
            p.policy.into(),
            format!("{}/{}", p.done, p.jobs),
            p.cache_hits.to_string(),
            format!("{}", p.plan_makespan),
            format!("{:.1}", p.jobs_per_hour),
            format!("{:.4}", p.p50_latency_seconds),
            format!("{:.4}", p.p99_latency_seconds),
            format!("{:.4}", p.worst_idle_share),
        ]);
    }
    t.print();
    println!(
        "\nCache-aware placement: {} hits vs {}, plan makespan {} vs {}, \
         {:.2}x throughput, max |solo diff| {:.1e}, max |native diff| {:.1e}",
        r.aware.cache_hits,
        r.oblivious.cache_hits,
        r.aware.plan_makespan,
        r.oblivious.plan_makespan,
        r.throughput_ratio,
        r.max_solo_diff,
        r.max_native_diff
    );

    let doc = fleet_json(&r);
    let path = wavepim_bench::artifacts::write_artifact("BENCH_fleet.json", &doc)
        .expect("write BENCH_fleet.json");
    pim_trace::json::parse(&doc).expect("BENCH_fleet.json must be valid JSON");
    println!("Wrote {}.", path.display());

    if let Some(s) = server {
        println!("Metrics endpoint served {} scrape(s).", s.scrapes_served());
        s.shutdown();
    }

    if let Err(e) = check_fleet(&r) {
        eprintln!("CHECK FAILED: {e}");
        std::process::exit(1);
    }
    println!("The cache-aware plan hits more and finishes sooner; all fleet invariants hold.");
}
