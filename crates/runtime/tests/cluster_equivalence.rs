//! The tentpole correctness claim: N chips with halo exchange reproduce
//! the native dG solver exactly, for the same ≤1e-12 bound the
//! single-chip mapping meets.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
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

fn run_and_compare(mesh: HexMesh, n: usize, flux: FluxKind, num_chips: usize, steps: usize) -> f64 {
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut reference = native(&mesh, n, flux, material);
    let dt = 1e-3;

    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        flux,
        material,
        reference.state(),
        dt,
        ClusterConfig::new(num_chips),
    );
    cluster.run(steps);
    reference.run(dt, steps);

    let merged = cluster.state();
    merged.max_abs_diff(reference.state())
}

#[test]
fn two_chip_level3_run_matches_native_solver() {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let diff = run_and_compare(mesh, 2, FluxKind::Riemann, 2, 3);
    assert!(diff <= 1e-12, "2-chip level-3 cluster diverged from native dG: {diff:e}");
}

#[test]
fn four_chip_wall_boundary_run_matches_native_solver() {
    // Wall boundaries: the outer shards have one-sided halos and the
    // flux kernels synthesize mirror ghosts locally.
    let mesh = HexMesh::refinement_level(2, Boundary::Wall);
    let diff = run_and_compare(mesh, 3, FluxKind::Riemann, 4, 3);
    assert!(diff <= 1e-12, "4-chip wall cluster diverged from native dG: {diff:e}");
}

#[test]
fn four_chip_central_flux_matches_native_solver() {
    // Central flux skips the LUT path entirely (empty setup stream).
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let diff = run_and_compare(mesh, 3, FluxKind::Central, 4, 2);
    assert!(diff <= 1e-12, "central-flux cluster diverged from native dG: {diff:e}");
}

#[test]
fn cluster_time_and_halo_accounting_are_sane() {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let reference = native(&mesh, 2, FluxKind::Riemann, material);
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let mut cluster = ClusterRunner::new(
            &mesh,
            2,
            FluxKind::Riemann,
            material,
            reference.state(),
            1e-3,
            ClusterConfig::new(2).with_protocol(protocol),
        );
        cluster.step();
        let stats = cluster.halo_stats();
        assert_eq!(stats.stages, 5);
        // Two shards exchange one message per direction per stage.
        assert_eq!(stats.messages, 2 * 5);
        assert!(stats.payload_bytes > 0);
        assert!(stats.seconds_per_stage() > 0.0, "{protocol:?}");
        assert!(cluster.elapsed() > 0.0, "{protocol:?}");
        let reports = cluster.finish_reports();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            // Every chip computed and took halo traffic through its port.
            assert!(r.ledger.compute > 0.0);
            assert!(r.ledger.offchip > 0.0);
        }
    }
}

/// The row-expanded elastic mapping (`E_r`) on the cluster, over
/// chips × boundary × protocol × math mode: the merged state must equal
/// the single-chip [`ElasticMapping`] run bit for bit (the shards execute
/// the same per-element streams) and track the native elastic solver to
/// its 1e-11 relative bound.
#[test]
fn elastic_cluster_matches_single_chip_bits_and_native_solver() {
    use pim_math::MathConfig;
    use pim_sim::{ChipConfig, PimChip};
    use wave_pim::compiler_elastic::ElasticMapping;
    use wavesim_dg::{Elastic, ElasticMaterial};

    let n = 2;
    let dt = 1e-3;
    let steps = 2;
    let tau = std::f64::consts::TAU;
    for boundary in [Boundary::Periodic, Boundary::Wall] {
        let mesh = HexMesh::refinement_level(2, boundary);
        // Two solids in slabs that straddle the shard seams, so halo
        // faces cross an impedance contrast.
        let materials: Vec<ElasticMaterial> = (0..mesh.num_elements())
            .map(|e| {
                if (e / 3) % 2 == 0 {
                    ElasticMaterial::new(2.0, 1.0, 1.0)
                } else {
                    ElasticMaterial::new(4.0, 2.0, 1.5)
                }
            })
            .collect();
        let mut native =
            Solver::<Elastic>::new(mesh.clone(), n, FluxKind::Riemann, materials.clone());
        native.set_initial(|v, x| match v {
            0..=2 => 0.3 * (tau * (x.x + 0.2 * v as f64)).sin(),
            _ => 0.1 * (tau * x.y).cos() * (v as f64 - 4.5),
        });
        let initial = native.state().clone();
        native.run(dt, steps);
        let scale = native.state().max_abs();

        let mapping = ElasticMapping::new(mesh, n, FluxKind::Riemann, materials);
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        mapping.preload(&mut chip, &initial, dt);
        chip.execute(&mapping.compile_lut_setup());
        let stage_streams = mapping.compile_step();
        for _ in 0..steps {
            for s in &stage_streams {
                chip.execute(s);
            }
        }
        let single = mapping.extract_state(&mut chip);
        let single_bits: Vec<u64> = single.as_slice().iter().map(|x| x.to_bits()).collect();

        for chips in [2, 4] {
            for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
                for math in [MathConfig::off(), MathConfig::host()] {
                    let label = format!("{boundary:?}/{chips} chips/{protocol:?}/{:?}", math.mode);
                    let config = ClusterConfig::new(chips).with_protocol(protocol).with_math(math);
                    let mut cluster =
                        ClusterRunner::with_mapping(mapping.clone(), &initial, dt, config);
                    cluster.run(steps);
                    let merged = cluster.state();
                    let bits: Vec<u64> = merged.as_slice().iter().map(|x| x.to_bits()).collect();
                    assert!(bits == single_bits, "{label}: merged state differs from one chip");
                    let rel = merged.max_abs_diff(native.state()) / scale;
                    assert!(rel <= 1e-11, "{label}: diverged from native elastic dG: {rel:e}");
                }
            }
        }
    }
}
