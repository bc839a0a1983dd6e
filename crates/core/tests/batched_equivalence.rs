//! Functional validation of batching (§6.1): a level-2 mesh (64
//! elements) run in two and four batches on a window far smaller than
//! the mesh must produce the same trajectory as the unbatched native
//! solver — proving the Fig. 6/7 kernel-pass ordering (all Flux before
//! any Integration, boundary slices resident) is semantically airtight.

use pim_sim::{ChipConfig, PimChip};
use wave_pim::batched::BatchedRunner;
use wave_pim::compiler::AcousticMapping;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

const TAU: f64 = 2.0 * std::f64::consts::PI;

fn run_case(boundary: Boundary, flux: FluxKind, num_batches: usize, steps: usize, capacity: usize) {
    let mesh = HexMesh::refinement_level(2, boundary); // 64 elements, 4 slices
    let material = AcousticMaterial::new(2.0, 1.0);
    let n = 3;
    let dt = 1.0e-3;

    let mut native = Solver::<Acoustic>::uniform(mesh.clone(), n, flux, material);
    native.set_initial(|v, x| match v {
        0 => (TAU * x.x).sin() + 0.5 * (TAU * x.y).cos(),
        1 => 0.2 * (TAU * x.y).sin(),
        2 => -0.3 * (TAU * x.z).cos(),
        _ => 0.1 * (TAU * x.x).cos(),
    });

    assert!(capacity < 64 + 1, "the window must be genuinely smaller than the problem");
    let mapping = AcousticMapping::uniform(mesh, n, flux, material);
    let mut runner = BatchedRunner::new(mapping, native.state(), dt, num_batches, capacity);
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    for _ in 0..steps {
        runner.step(&mut chip);
    }
    native.run(dt, steps);

    let diff = native.state().max_abs_diff(runner.vars());
    let scale = native.state().max_abs().max(1e-30);
    assert!(diff / scale < 1e-12, "{boundary:?}/{flux:?}/{num_batches} batches: |Δ|∞ = {diff:.3e}");
}

#[test]
fn two_batches_match_native_riemann_walls() {
    // Walls: each 2-slice batch needs one boundary slice (the other side
    // is the wall), so 3 of 4 slices are resident: 48 + 1 blocks.
    run_case(Boundary::Wall, FluxKind::Riemann, 2, 2, 49);
}

#[test]
fn two_batches_match_native_central_walls() {
    run_case(Boundary::Wall, FluxKind::Central, 2, 2, 49);
}

#[test]
fn four_batches_match_native_periodic() {
    // One slice per batch, periodic wrap: every y-face is a batch
    // boundary and each pass holds 3 of 4 slices.
    run_case(Boundary::Periodic, FluxKind::Riemann, 4, 1, 49);
}

#[test]
fn four_batches_match_native_walls() {
    run_case(Boundary::Wall, FluxKind::Riemann, 4, 1, 49);
}

#[test]
fn batched_elastic_matches_native() {
    // The E_r&B cells of Table 5, functionally: a 64-element elastic
    // model (256 blocks + LUT needed) run in two batches on a 196-block
    // window.
    use wave_pim::compiler_elastic::ElasticMapping;
    use wavesim_dg::{Elastic, ElasticMaterial};

    let mesh = HexMesh::refinement_level(2, Boundary::Wall);
    let material = ElasticMaterial::new(2.0, 1.0, 1.0);
    let n = 3;
    let dt = 8.0e-4;

    let mut native = Solver::<Elastic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    native.set_initial(|v, x| match v {
        0..=2 => 0.2 * (TAU * x.x).sin() * (v as f64 + 1.0),
        _ => 0.1 * (TAU * x.y).cos() * ((v as f64) - 4.0),
    });

    // 2 batches: 32 resident + 16 boundary elements = 48 quartets + LUT.
    let capacity = 48 * 4 + 4;
    assert!(capacity < 64 * 4 + 1, "window must be smaller than the problem");
    let mapping = ElasticMapping::uniform(mesh, n, FluxKind::Riemann, material);
    let mut runner = BatchedRunner::new(mapping, native.state(), dt, 2, capacity);
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    runner.step(&mut chip);
    native.run(dt, 1);

    let diff = native.state().max_abs_diff(runner.vars());
    let scale = native.state().max_abs().max(1e-30);
    assert!(diff / scale < 1e-11, "batched elastic |Δ|∞ = {diff:.3e}");
}

#[test]
fn batched_expanded_matches_native() {
    // The E_p&B combination through the same runner: a 64-element
    // four-block acoustic model over two media (256 blocks + LUT
    // needed) run in two batches on a 196-block window, held to the
    // expanded mapping's bound.
    use wave_pim::compiler_expanded::ExpandedAcousticMapping;

    let mesh = HexMesh::refinement_level(2, Boundary::Wall);
    let materials: Vec<AcousticMaterial> = (0..mesh.num_elements())
        .map(|e| {
            if e % 3 == 0 {
                AcousticMaterial::new(2.0, 1.0)
            } else {
                AcousticMaterial::new(1.0, 2.0)
            }
        })
        .collect();
    let n = 3;
    let dt = 1.0e-3;

    let mut native = Solver::<Acoustic>::new(mesh.clone(), n, FluxKind::Riemann, materials.clone());
    native.set_initial(|v, x| match v {
        0 => (TAU * x.x).sin() + 0.5 * (TAU * x.y).cos(),
        1 => 0.2 * (TAU * x.y).sin(),
        2 => -0.3 * (TAU * x.z).cos(),
        _ => 0.1 * (TAU * x.x).cos(),
    });

    // 2 batches: 32 resident + 16 boundary elements = 48 quartets + LUT.
    let capacity = 48 * 4 + 4;
    assert!(capacity < 64 * 4 + 1, "window must be smaller than the problem");
    let mapping = ExpandedAcousticMapping::new(mesh, n, FluxKind::Riemann, materials);
    let mut runner = BatchedRunner::new(mapping, native.state(), dt, 2, capacity);
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    for _ in 0..2 {
        runner.step(&mut chip);
    }
    native.run(dt, 2);

    let diff = native.state().max_abs_diff(runner.vars());
    let scale = native.state().max_abs().max(1e-30);
    assert!(diff / scale < 1e-11, "batched expanded |Δ|∞ = {diff:.3e}");
}
