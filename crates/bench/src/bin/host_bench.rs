//! Host-performance study of the cluster runner's cached program replay
//! and the threaded execution pool: times construction and cached-replay
//! steps, checks the run matches the native dG solver ≤ 1e-12,
//! reconciles a traced run's energy with the chip ledgers, and sweeps a
//! thread-scaling curve. Writes `BENCH_host.json`.
//!
//! `--smoke` runs a small configuration as the CI gate; either mode
//! exits nonzero if the word-parallel engine stops beating the recorded
//! scalar-engine baseline for the configuration.

use std::process::ExitCode;

use wavepim_bench::artifacts;
use wavepim_bench::host::{host_bench_data, host_json, HostBenchConfig};

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cfg = if smoke { HostBenchConfig::smoke() } else { HostBenchConfig::full() };
    println!(
        "host_bench: level {} × {} chips × {} step(s) × {} rep(s), {} worker thread(s)",
        cfg.level,
        cfg.chips,
        cfg.steps,
        cfg.measure_reps,
        rayon::current_num_threads()
    );

    let r = host_bench_data(&cfg);

    println!("  elements                : {}", r.elements);
    println!("  construct (cached)      : {:.3} s", r.construct_seconds);
    println!("  peak RSS (VmHWM)        : {:.0} MiB", r.peak_rss_mib);
    println!(
        "  cached replay / step    : {:.3} s (min of {} reps)",
        r.cached_step_seconds, r.measure_reps
    );
    println!("  program compile (once)  : {:.3} s", r.compile_seconds);
    println!("  cached instrs           : {}", r.cached_instrs);
    println!("  patch sites             : {}", r.patch_sites);
    println!("  max |diff| vs native dG : {:e}", r.max_abs_diff_vs_native);
    println!(
        "  traced energy rel err   : {:.4e} (level {} × {} chips)",
        r.trace_energy_rel_err, r.trace_level, r.trace_chips
    );
    if r.scalar_baseline_step_seconds > 0.0 {
        println!(
            "  scalar-engine baseline  : {:.3} s/step ({:.2}x vs vectorized)",
            r.scalar_baseline_step_seconds, r.speedup_vs_scalar_baseline
        );
    }
    for p in &r.thread_scaling {
        println!("  {} thread(s): {:.3} s/step", p.threads, p.step_seconds);
    }
    println!("  best thread count       : {}", r.best_threads);

    assert!(
        r.max_abs_diff_vs_native <= 1e-12,
        "cached+threaded cluster diverged from native dG: {:e}",
        r.max_abs_diff_vs_native
    );
    assert!(
        r.trace_energy_rel_err <= 0.01,
        "traced energy does not reconcile with the ledgers: rel err {:e}",
        r.trace_energy_rel_err
    );

    let doc = host_json(&r);
    artifacts::write_artifact("BENCH_host.json", &doc).expect("write BENCH_host.json");

    if r.scalar_baseline_step_seconds > 0.0
        && r.cached_step_seconds >= r.scalar_baseline_step_seconds
    {
        eprintln!(
            "host_bench: FAIL — vectorized engine regressed to the scalar baseline \
             ({:.3} s/step vs recorded {:.3} s/step)",
            r.cached_step_seconds, r.scalar_baseline_step_seconds
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
