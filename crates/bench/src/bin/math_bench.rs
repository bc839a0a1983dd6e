//! The on-PIM transcendentals acceptance binary: sweeps the LUT +
//! Newton sequences' ULP error over the full operand range, measures
//! one op-site's per-stage cost under each placement on a simulated
//! chip, runs the cluster under `Host`/`OnPim`/`Auto` math modes, and
//! writes `BENCH_math.json`.
//!
//! Exits nonzero if the sequences miss the documented ULP bound, the
//! fully PIM-placed run still exposes a host-math window (or fails to
//! strictly shrink the host arm's), any arm diverges from the native dG
//! solver beyond its bound, or an `Auto`-chosen on-PIM placement
//! lengthens the per-stage critical path — the CI regression gate.
//! `--smoke` runs the reduced CI configuration.

use wavepim_bench::math::{check_math, math_bench_data, math_json, MathBenchConfig};
use wavepim_bench::report::Table;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let cfg = if smoke { MathBenchConfig::smoke() } else { MathBenchConfig::full() };
    let r = math_bench_data(&cfg);

    println!(
        "Level-{} mesh on {} chips ({} elements/chip), {} step(s); \
         ULP sweep over {} operands in [{}, {}]\n",
        r.level,
        r.chips,
        r.elems_per_chip,
        r.steps,
        r.ulp_samples,
        pim_math::OPERAND_LO,
        pim_math::OPERAND_HI,
    );

    let mut t = Table::new(
        "Accuracy vs correctly rounded f64 (f32 ULPs)",
        &["Newton iters", "sqrt max", "sqrt mean", "recip max", "recip mean"],
    );
    for u in &r.ulp {
        t.row(vec![
            u.iters.to_string(),
            format!("{:.3}", u.sqrt_max),
            format!("{:.3}", u.sqrt_mean),
            format!("{:.3}", u.recip_max),
            format!("{:.3}", u.recip_mean),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "Per-op per-stage cost: host model vs measured chip fragments",
        &[
            "Op",
            "Host (s)",
            "Host (J)",
            "LUT-only (s)",
            "LUT-only (J)",
            "LUT+Newton (s)",
            "LUT+Newton (J)",
        ],
    );
    for c in &r.per_op {
        t.row(vec![
            c.op.into(),
            format!("{:.3e}", c.host.seconds),
            format!("{:.3e}", c.host.joules),
            format!("{:.3e}", c.lut_only.seconds),
            format!("{:.3e}", c.lut_only.joules),
            format!("{:.3e}", c.lut_newton.seconds),
            format!("{:.3e}", c.lut_newton.joules),
        ]);
    }
    t.print();

    let mut t = Table::new(
        "Cluster arms (per RK stage)",
        &[
            "Mode",
            "Placements",
            "Host math (s)",
            "Exposed (s)",
            "On-PIM (s)",
            "Makespan (s)",
            "|native diff|",
        ],
    );
    for a in [&r.host_arm, &r.onpim_arm, &r.auto_arm] {
        t.row(vec![
            a.mode.into(),
            a.placements.join(","),
            format!("{:.3e}", a.host_seconds_per_stage),
            format!("{:.3e}", a.exposed_seconds_per_stage),
            format!("{:.3e}", a.onpim_seconds_per_stage),
            format!("{:.3e}", a.makespan_per_stage),
            format!("{:.1e}", a.native_diff),
        ]);
    }
    t.print();
    println!(
        "\nExposed host-preprocess window: {:.3e} s/stage on host, {:.3e} on-PIM \
         ({:.3e} s/stage removed from the critical path).",
        r.host_arm.exposed_seconds_per_stage,
        r.onpim_arm.exposed_seconds_per_stage,
        r.exposed_reduction_per_stage,
    );

    let doc = math_json(&r);
    let path = wavepim_bench::artifacts::write_artifact("BENCH_math.json", &doc)
        .expect("write BENCH_math.json");
    pim_trace::json::parse(&doc).expect("BENCH_math.json must be valid JSON");
    println!("Wrote {}.", path.display());

    if let Err(e) = check_math(&r) {
        eprintln!("CHECK FAILED: {e}");
        std::process::exit(1);
    }
    println!("Accuracy within bound; on-PIM placement never lengthens the stage.");
}
