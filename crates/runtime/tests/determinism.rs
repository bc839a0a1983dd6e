//! Thread-count determinism: the parallel runtime must be a pure
//! performance lever, never a numerics lever.
//!
//! The execution pool deals disjoint chunks to workers and chips only
//! interact at the sequential fences between kernel phases, so the
//! simulated state must be *bit-identical* — not merely close — across
//! worker counts, for both the cluster runner and the native dG solver
//! whose kernels run on the same shim. The same holds for the cluster
//! run's metrics: every series is written by one thread at a time in
//! program order, so the registry's exposition is byte-identical across
//! worker counts, and a run metered into its own registry is unaffected
//! by another metered run executing at the same time.

use std::sync::Arc;

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_metrics::MetricsRegistry;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

fn native(mesh: &HexMesh, n: usize, material: AcousticMaterial) -> Solver<Acoustic> {
    let mut s = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    let tau = std::f64::consts::TAU;
    s.set_initial(|v, x| match v {
        0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
        1 => 0.5 * (tau * x.y).sin(),
        2 => 0.25 * (tau * (x.x + x.z)).cos(),
        _ => 0.125 * (tau * x.z).sin(),
    });
    s
}

/// One metered 2-chip level-3 cluster run at the current worker count,
/// returning (merged cluster state, native state after the same steps,
/// the Prometheus text of the cluster run's registry).
fn metered_run(steps: usize) -> (State, State, String) {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let n = 2;
    let material = AcousticMaterial::new(2.0, 1.0);
    let dt = 1e-3;
    let mut reference = native(&mesh, n, material);
    let registry = Arc::new(MetricsRegistry::new());
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        ClusterConfig::new(2).with_metrics(Arc::clone(&registry)),
    );
    cluster.run(steps);
    reference.run(dt, steps);
    let text = pim_metrics::export::prometheus_text(&registry.snapshot());
    (cluster.state(), reference.state().clone(), text)
}

/// [`metered_run`] at a pinned worker count.
fn run_at(threads: usize, steps: usize) -> (State, State, String) {
    rayon::set_num_threads(threads);
    let out = metered_run(steps);
    rayon::set_num_threads(0);
    out
}

#[test]
fn cluster_and_native_solver_are_bit_identical_across_thread_counts() {
    let steps = 2;
    let (cluster1, native1, metrics1) = run_at(1, steps);
    let (cluster4, native4, metrics4) = run_at(4, steps);

    assert_eq!(
        cluster1.as_slice(),
        cluster4.as_slice(),
        "cluster state depends on the worker count"
    );
    assert_eq!(
        native1.as_slice(),
        native4.as_slice(),
        "native dG state depends on the worker count"
    );
    assert!(metrics1.contains("pim_chip_energy_joules_total{chip=\"1\""), "run was not metered");
    assert_eq!(metrics1, metrics4, "cluster metrics depend on the worker count");

    // And the parallel runs still satisfy the cross-model acceptance
    // bound — determinism alone could hide an everywhere-wrong result.
    let diff = cluster4.max_abs_diff(&native4);
    assert!(diff <= 1e-12, "4-thread cluster diverged from native dG: {diff:e}");
}

#[test]
fn concurrent_metered_runs_do_not_perturb_each_other() {
    let steps = 1;
    let (_, _, alone) = metered_run(steps);
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| metered_run(steps));
        let b = scope.spawn(|| metered_run(steps));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a.0.as_slice(), b.0.as_slice(), "concurrent runs diverged");
    assert_eq!(a.2, alone, "a concurrent run's metrics differ from a run alone");
    assert_eq!(b.2, alone, "a concurrent run's metrics differ from a run alone");
}
