//! The pipelined-protocol guarantees: bit-identical state to the fenced
//! schedule (same instruction streams, only simulated-time placement
//! moves), per-stage makespan never worse, strictly better where the
//! fenced schedule exposes halo, the skew bound holds (asserted inside
//! `step` itself), and ≥16-chip runs still match the native dG solver.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_sim::{ChipCapacity, ChipConfig, InterChipLink};
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

fn runner(
    mesh: &HexMesh,
    n: usize,
    initial: &State,
    chips: usize,
    capacity: ChipCapacity,
    protocol: ClusterProtocol,
) -> ClusterRunner {
    runner_on_link(mesh, n, initial, chips, capacity, protocol, InterChipLink::default())
}

fn runner_on_link(
    mesh: &HexMesh,
    n: usize,
    initial: &State,
    chips: usize,
    capacity: ChipCapacity,
    protocol: ClusterProtocol,
    link: InterChipLink,
) -> ClusterRunner {
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut chip = ChipConfig::default_2gb();
    chip.capacity = capacity;
    let mut config = ClusterConfig::uniform(chips, chip).with_protocol(protocol);
    config.link = link;
    ClusterRunner::new(mesh, n, FluxKind::Riemann, material, initial, 1e-3, config)
}

/// Runs both protocols on the same problem; asserts bit-identical
/// merged states and per-stage `pipelined ≤ fenced` makespans. Returns
/// `(fenced, pipelined)` stage-makespan vectors for further checks.
fn compare_protocols(
    level: u32,
    n: usize,
    chips: usize,
    capacity: ChipCapacity,
    steps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let reference = native(&mesh, n, material);

    let mut fenced = runner(&mesh, n, reference.state(), chips, capacity, ClusterProtocol::Fenced);
    let mut pipelined =
        runner(&mesh, n, reference.state(), chips, capacity, ClusterProtocol::Pipelined);
    assert_eq!(fenced.protocol(), ClusterProtocol::Fenced);
    assert_eq!(pipelined.protocol(), ClusterProtocol::Pipelined);
    fenced.run(steps);
    pipelined.run(steps);

    // Bit identity: the two schedules execute byte-identical streams in
    // the same per-chip order, so the merged states agree exactly — not
    // within a tolerance.
    let sf = fenced.state();
    let sp = pipelined.state();
    assert_eq!(
        sf.max_abs_diff(&sp),
        0.0,
        "pipelined state must be bit-identical to fenced (level {level}, {chips} chips)"
    );

    let mf = fenced.stage_makespans().to_vec();
    let mp = pipelined.stage_makespans().to_vec();
    assert_eq!(mf.len(), steps * 5);
    assert_eq!(mp.len(), steps * 5);
    for (k, (f, p)) in mf.iter().zip(&mp).enumerate() {
        assert!(
            p <= &(f * (1.0 + 1e-12)),
            "stage {k}: pipelined makespan {p:.6e}s exceeds fenced {f:.6e}s \
             (level {level}, {chips} chips)"
        );
    }

    // The fenced schedule ends every stage with all lanes joined, so
    // its skew is zero by construction; the pipelined one must keep
    // whatever skew it accumulates within one stage of makespan.
    assert_eq!(fenced.halo_stats().max_skew_seconds, 0.0);
    assert!(pipelined.halo_stats().max_skew_seconds >= 0.0);

    (mf, mp)
}

#[test]
fn two_chip_level3_pipelined_is_bit_identical_and_never_slower() {
    compare_protocols(3, 2, 2, ChipCapacity::Gb2, 2);
}

#[test]
fn four_chip_level2_pipelined_is_bit_identical_and_never_slower() {
    compare_protocols(2, 3, 4, ChipCapacity::Gb2, 2);
}

#[test]
fn sixteen_chip_level4_pipelined_wins_where_halo_is_exposed() {
    // The halo-wall regime: 16 slices of a level-4 mesh (256 resident
    // elements per chip, a thin Volume window) on a link narrow enough
    // that the fenced fence exposes halo — exactly where the ISSUE's
    // `max(halo − volume, 0) > 0` condition holds. There the win must
    // be strict, not just non-negative.
    let mesh = HexMesh::refinement_level(4, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let reference = native(&mesh, 2, material);
    let mut narrow = InterChipLink::default();
    narrow.bandwidth /= 64.0;

    let mut fenced = runner_on_link(
        &mesh,
        2,
        reference.state(),
        16,
        ChipCapacity::Gb2,
        ClusterProtocol::Fenced,
        narrow,
    );
    let mut pipelined = runner_on_link(
        &mesh,
        2,
        reference.state(),
        16,
        ChipCapacity::Gb2,
        ClusterProtocol::Pipelined,
        narrow,
    );
    fenced.step();
    pipelined.step();

    // Precondition of the claim, measured: the fenced schedule exposes
    // halo at this point.
    assert!(
        fenced.halo_stats().exposed_seconds_per_stage() > 0.0,
        "test must sit past the halo wall: fenced exposed halo is zero"
    );
    assert_eq!(fenced.state().max_abs_diff(&pipelined.state()), 0.0);

    let fenced_total = fenced.stage_makespans().last().copied().unwrap();
    let pipelined_total = pipelined.stage_makespans().last().copied().unwrap();
    for (k, (f, p)) in fenced.stage_makespans().iter().zip(pipelined.stage_makespans()).enumerate()
    {
        assert!(p <= &(f * (1.0 + 1e-12)), "stage {k}: pipelined {p:.6e}s vs fenced {f:.6e}s");
    }
    assert!(
        pipelined_total < fenced_total,
        "pipelined must be strictly faster at 16 chips past the halo wall: \
         {pipelined_total:.6e}s vs {fenced_total:.6e}s"
    );
}

#[test]
fn sixteen_chip_level4_pipelined_matches_native_solver() {
    let mesh = HexMesh::refinement_level(4, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut reference = native(&mesh, 2, material);
    let mut cluster =
        runner(&mesh, 2, reference.state(), 16, ChipCapacity::Gb2, ClusterProtocol::Pipelined);
    cluster.run(2);
    reference.run(1e-3, 2);
    let diff = cluster.state().max_abs_diff(reference.state());
    assert!(diff <= 1e-12, "16-chip pipelined cluster diverged from native dG: {diff:e}");
}

#[test]
fn pipelined_exposed_halo_never_exceeds_fenced() {
    // Per-chip exposed-halo accounting: the per-block fence can only
    // wait for less than the whole-lane fence.
    let mesh = HexMesh::refinement_level(4, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let reference = native(&mesh, 2, material);

    let mut fenced =
        runner(&mesh, 2, reference.state(), 16, ChipCapacity::Gb2, ClusterProtocol::Fenced);
    let mut pipelined =
        runner(&mesh, 2, reference.state(), 16, ChipCapacity::Gb2, ClusterProtocol::Pipelined);
    fenced.step();
    pipelined.step();

    let ef = fenced.halo_stats().exposed_seconds_per_stage();
    let ep = pipelined.halo_stats().exposed_seconds_per_stage();
    assert!(
        ep <= ef * (1.0 + 1e-12),
        "pipelined exposed halo {ep:.6e}s/stage exceeds fenced {ef:.6e}s/stage"
    );
}
