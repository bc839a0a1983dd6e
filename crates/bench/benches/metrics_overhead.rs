//! Smoke bench for the metrics subsystem's zero-cost-when-unmetered
//! claim, the same bar `trace_overhead.rs` holds the tracer to.
//!
//! An unmetered solver holds no metric handles, so every instrumentation
//! site in its hot path reduces to one `Option` check. This bench
//! measures (a) the native dG step on a level-4 mesh unmetered, (b) the
//! cost of that probe itself, and (c) how many updates one metered step
//! performs: every series the step's registry holds is updated once per
//! stage pass, so `series × stages` counts them — an overcount of the
//! unmetered probe sites, since several updates share one check. The
//! asserted bound is
//!
//!     probe_cost × update_sites / step_time  <  1%
//!
//! The metered step is also timed for reference (no assertion — it is
//! allowed to cost more).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pim_metrics::{Counter, MetricsRegistry};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Lsrk5, Solver};
use wavesim_mesh::{Boundary, HexMesh};

fn solver() -> Solver<Acoustic> {
    let mesh = HexMesh::refinement_level(4, Boundary::Periodic);
    let mut s = Solver::<Acoustic>::uniform(mesh, 2, FluxKind::Riemann, AcousticMaterial::UNIT);
    s.set_initial(|v, x| ((v + 1) as f64 * x.x * std::f64::consts::TAU).sin() * 0.1);
    s
}

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_overhead");

    let mut s = solver();
    let dt = s.stable_dt(0.2);

    let mut step_unmetered = 0.0;
    g.bench_function("dg_step_unmetered", |b| {
        b.iter(|| s.step(dt));
        step_unmetered = b.mean_seconds();
    });

    let mut probe_cost = 0.0;
    let unmetered: Option<Counter> = None;
    g.bench_function("unmetered_probe", |b| {
        b.iter(|| black_box(&unmetered).is_some());
        probe_cost = b.mean_seconds();
    });

    let registry = MetricsRegistry::new();
    let mut metered = solver();
    metered.attach_metrics(&registry);
    let mut step_metered = 0.0;
    g.bench_function("dg_step_metered", |b| {
        b.iter(|| metered.step(dt));
        step_metered = b.mean_seconds();
    });

    // Count the updates one metered step performs: each series is
    // updated once per stage pass.
    let snap = registry.snapshot();
    let series = snap.counters.len() + snap.float_counters.len();
    let update_sites = (series * Lsrk5::STAGES) as f64;

    g.finish();

    let overhead = probe_cost * update_sites / step_unmetered;
    println!(
        "\nunmetered metrics overhead on the level-4 dG step: {:.4}% \
         ({update_sites} updates x {:.2} ns over {:.3} ms; metered step {:.3} ms)",
        overhead * 100.0,
        probe_cost * 1e9,
        step_unmetered * 1e3,
        step_metered * 1e3,
    );
    assert!(update_sites > 0.0, "a metered step must record updates");
    assert!(
        overhead < 0.01,
        "unmetered metrics must stay under 1% of the dG step ({:.4}%)",
        overhead * 100.0
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_overhead
}
criterion_main!(benches);
