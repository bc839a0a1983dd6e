//! Mixed-capacity clusters: the slice deal follows block capacity, the
//! merged state still reproduces the native dG solver, and the
//! capacity-weighted deal beats the unweighted one on the measured
//! capacity-idle share (1 − block_busy / (num_blocks × elapsed)).

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_sim::{ChipCapacity, ChipConfig};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

fn native(
    mesh: &HexMesh,
    n: usize,
    flux: FluxKind,
    material: AcousticMaterial,
) -> Solver<Acoustic> {
    let mut s = Solver::<Acoustic>::uniform(mesh.clone(), n, flux, material);
    let tau = std::f64::consts::TAU;
    s.set_initial(|v, x| match v {
        0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
        1 => 0.5 * (tau * x.y).sin(),
        2 => 0.25 * (tau * (x.x + x.z)).cos(),
        _ => 0.125 * (tau * x.z).sin(),
    });
    s
}

fn mixed_config(weighted: bool) -> ClusterConfig {
    let small = ChipConfig::default_2gb();
    let mut big = small;
    big.capacity = ChipCapacity::Gb8;
    let mut config = ClusterConfig::heterogeneous(vec![small, big]);
    config.weighted_partition = weighted;
    config
}

#[test]
fn mixed_capacity_cluster_matches_native_solver() {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut reference = native(&mesh, 2, FluxKind::Riemann, material);
    let dt = 1e-3;

    let mut cluster = ClusterRunner::new(
        &mesh,
        2,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        mixed_config(true),
    );
    // A 16384-block chip next to a 65536-block one takes 2 of the 8
    // slices under the largest-remainder deal.
    let sizes: Vec<usize> = cluster.partition().shards().iter().map(|s| s.elements.len()).collect();
    let total: usize = sizes.iter().sum();
    assert_eq!(total, mesh.num_elements());
    assert_eq!(sizes[0] * 3, sizes[1], "2GB chip should hold 2 slices to the 8GB chip's 6");

    cluster.run(2);
    reference.run(dt, 2);
    let diff = cluster.state().max_abs_diff(reference.state());
    assert!(diff <= 1e-12, "mixed-capacity cluster diverged from native dG: {diff:e}");
}

#[test]
fn unweighted_baseline_still_splits_evenly_and_matches() {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut reference = native(&mesh, 2, FluxKind::Riemann, material);
    let dt = 1e-3;

    let mut cluster = ClusterRunner::new(
        &mesh,
        2,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        mixed_config(false),
    );
    let sizes: Vec<usize> = cluster.partition().shards().iter().map(|s| s.elements.len()).collect();
    assert_eq!(sizes[0], sizes[1], "unweighted deal must ignore capacity");

    cluster.run(1);
    reference.run(dt, 1);
    let diff = cluster.state().max_abs_diff(reference.state());
    assert!(diff <= 1e-12, "unweighted mixed cluster diverged from native dG: {diff:e}");
}

#[test]
fn weighted_deal_lowers_max_capacity_idle_share() {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let dt = 1e-3;

    // Max over chips of 1 - block_busy / (num_blocks * elapsed): the
    // share of the cluster's block-seconds the worst chip left idle.
    let max_idle = |weighted: bool, protocol: ClusterProtocol| -> f64 {
        let reference = native(&mesh, 2, FluxKind::Riemann, material);
        let mut cluster = ClusterRunner::new(
            &mesh,
            2,
            FluxKind::Riemann,
            material,
            reference.state(),
            dt,
            mixed_config(weighted).with_protocol(protocol),
        );
        cluster.run(2);
        let elapsed = cluster.elapsed();
        cluster
            .capacity_busy_seconds()
            .iter()
            .zip([ChipCapacity::Gb2, ChipCapacity::Gb8])
            .map(|(&busy, cap)| 1.0 - busy / (cap.num_blocks() as f64 * elapsed))
            .fold(0.0f64, f64::max)
    };

    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let weighted = max_idle(true, protocol);
        let unweighted = max_idle(false, protocol);
        assert!(
            weighted < unweighted,
            "{protocol:?}: capacity-weighted deal should lower the worst chip's capacity-idle \
             share: weighted {weighted:.6} vs unweighted {unweighted:.6}"
        );
    }
}
