//! Smoke bench for the tracing subsystem's zero-overhead claim.
//!
//! With tracing disabled every probe in the hot path reduces to one
//! relaxed atomic load. This bench measures (a) the native dG step with
//! tracing disabled, (b) the cost of one disabled `record_span` call,
//! and (c) the number of probe sites one step actually passes (by
//! running one traced step and counting its events). The asserted bound
//! is
//!
//!     probe_cost × probe_sites / step_time  <  1%
//!
//! which is the disabled-tracing overhead of the instrumented step. The
//! enabled-tracing step is also timed for reference (no assertion — it is
//! allowed to cost more).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

fn solver() -> Solver<Acoustic> {
    let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
    let mut s = Solver::<Acoustic>::uniform(mesh, 8, FluxKind::Riemann, AcousticMaterial::UNIT);
    s.set_initial(|v, x| ((v + 1) as f64 * x.x * std::f64::consts::TAU).sin() * 0.1);
    s
}

fn bench_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");

    pim_trace::disable();
    let _ = pim_trace::drain();

    let mut s = solver();
    let dt = s.stable_dt(0.2);

    let mut step_disabled = 0.0;
    g.bench_function("dg_step_tracing_disabled", |b| {
        b.iter(|| s.step(dt));
        step_disabled = b.mean_seconds();
    });

    let mut probe_cost = 0.0;
    g.bench_function("disabled_probe", |b| {
        b.iter(|| {
            pim_trace::record_span(
                black_box(1),
                0,
                0.0,
                0.0,
                pim_trace::Payload::Counter { name: "ovh", value: 0.0 },
            )
        });
        probe_cost = b.mean_seconds();
    });

    let mut step_enabled = 0.0;
    g.bench_function("dg_step_tracing_enabled", |b| {
        pim_trace::enable();
        b.iter(|| {
            s.step(dt);
            // Keep the ring from saturating over thousands of iterations.
            let _ = pim_trace::drain();
        });
        pim_trace::disable();
        step_enabled = b.mean_seconds();
    });

    // Count the probe sites one step passes: each recorded event is one
    // span (begin + end → two probe evaluations when disabled).
    pim_trace::enable();
    s.step(dt);
    pim_trace::disable();
    let (events, _) = pim_trace::drain();
    let probe_sites = (events.len() as f64) * 2.0;

    g.finish();

    let overhead = probe_cost * probe_sites / step_disabled;
    println!(
        "\ntracing-disabled overhead on the dG step: {:.4}% \
         ({probe_sites} probes x {:.2} ns over {:.3} ms; enabled step {:.3} ms)",
        overhead * 100.0,
        probe_cost * 1e9,
        step_disabled * 1e3,
        step_enabled * 1e3,
    );
    assert!(
        overhead < 0.01,
        "disabled tracing must stay under 1% of the dG step ({:.4}%)",
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
