//! The fleet-placement acceptance binary: plans a synthetic mixed-job
//! trace (sharded + deadline prologue, then pair-swapped repeated
//! program keys) under cache-aware and cache-oblivious placement,
//! prints the two plans side by side, and writes `BENCH_fleet.json`.
//!
//! Exits nonzero unless the cache-aware plan has strictly more cache
//! hits and a strictly shorter virtual makespan than the oblivious one,
//! with every job accounted for — the CI regression gate. `--smoke`
//! plans the reduced CI configuration.

use wavepim_bench::fleet::{check_fleet, fleet_bench_data, fleet_json, FleetBenchConfig};
use wavepim_bench::report::Table;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke { FleetBenchConfig::smoke() } else { FleetBenchConfig::full() };
    let r = fleet_bench_data(&cfg);

    println!(
        "Fleet of {:?}: {} level-{} jobs, {} steps each\n",
        r.fleet, r.trace_jobs, r.level, r.steps
    );

    let mut t = Table::new(
        "Placement policy comparison",
        &["Policy", "Placed", "Rejected", "Hits", "Plan makespan", "Worst idle", "Deadline misses"],
    );
    for p in [&r.aware, &r.oblivious] {
        t.row(vec![
            p.policy.into(),
            format!("{}/{}", p.placed, p.jobs),
            p.rejected.to_string(),
            p.cache_hits.to_string(),
            format!("{}", p.plan_makespan),
            format!("{:.4}", p.worst_idle_share),
            p.deadline_misses.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nCache-aware placement: {} hits vs {}, plan makespan {} vs {}",
        r.aware.cache_hits,
        r.oblivious.cache_hits,
        r.aware.plan_makespan,
        r.oblivious.plan_makespan
    );

    let doc = fleet_json(&r);
    let path = wavepim_bench::artifacts::write_artifact("BENCH_fleet.json", &doc)
        .expect("write BENCH_fleet.json");
    pim_trace::json::parse(&doc).expect("BENCH_fleet.json must be valid JSON");
    println!("Wrote {}.", path.display());

    if let Err(e) = check_fleet(&r) {
        eprintln!("CHECK FAILED: {e}");
        std::process::exit(1);
    }
    println!("The cache-aware plan hits more and finishes sooner; every job is accounted for.");
}
