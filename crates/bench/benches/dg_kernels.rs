//! Criterion benchmarks of the native dG solver — the workload side of
//! the study. `rhs_evaluation` times `compute_rhs`, one element pass of
//! the Volume and Flux phases; `full_time_step` times whole time-steps,
//! five fused Volume + Flux + Integration passes, for both wave systems.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wavesim_dg::{Acoustic, AcousticMaterial, Elastic, ElasticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

fn acoustic_solver(level: u32, n: usize, flux: FluxKind) -> Solver<Acoustic> {
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let mut s = Solver::<Acoustic>::uniform(mesh, n, flux, AcousticMaterial::UNIT);
    s.set_initial(|v, x| ((v + 1) as f64 * x.x * std::f64::consts::TAU).sin() * 0.1);
    s
}

fn elastic_solver(level: u32, n: usize, flux: FluxKind) -> Solver<Elastic> {
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let mut s = Solver::<Elastic>::uniform(mesh, n, flux, ElasticMaterial::UNIT);
    s.set_initial(|v, x| ((v + 1) as f64 * x.y * std::f64::consts::TAU).cos() * 0.1);
    s
}

fn bench_rhs(c: &mut Criterion) {
    let mut g = c.benchmark_group("rhs_evaluation");
    for (level, n) in [(2u32, 3usize), (1, 4), (1, 8), (2, 4)] {
        g.bench_with_input(
            BenchmarkId::new("acoustic_riemann", format!("L{level}n{n}")),
            &(level, n),
            |b, &(level, n)| {
                let mut s = acoustic_solver(level, n, FluxKind::Riemann);
                b.iter(|| s.compute_rhs());
            },
        );
    }
    g.bench_function("elastic_central_L1n4", |b| {
        let mut s = elastic_solver(1, 4, FluxKind::Central);
        b.iter(|| s.compute_rhs());
    });
    g.bench_function("elastic_riemann_L1n4", |b| {
        let mut s = elastic_solver(1, 4, FluxKind::Riemann);
        b.iter(|| s.compute_rhs());
    });
    g.finish();
}

fn bench_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_time_step");
    g.bench_function("acoustic_L1n8", |b| {
        let mut s = acoustic_solver(1, 8, FluxKind::Riemann);
        let dt = s.stable_dt(0.2);
        b.iter(|| s.step(dt));
    });
    g.bench_function("elastic_L1n8", |b| {
        let mut s = elastic_solver(1, 8, FluxKind::Riemann);
        let dt = s.stable_dt(0.2);
        b.iter(|| s.step(dt));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_rhs, bench_step
}
criterion_main!(benches);
