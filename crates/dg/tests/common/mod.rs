//! Shared set-up for the fused-stage tests: small solvers with
//! per-element materials and a non-smooth initial state.

use wavesim_dg::{AcousticMaterial, ElasticMaterial, FluxKind, Physics, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

pub const STEPS: usize = 3;

pub fn bits(s: &State) -> Vec<u64> {
    s.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A solver on a level-1 mesh with per-element materials (so every face
/// pairs two different impedances) and a non-smooth initial state.
pub fn make_solver<P: Physics>(
    n: usize,
    kind: FluxKind,
    boundary: Boundary,
    material: impl Fn(usize) -> P::Material,
) -> Solver<P> {
    let mesh = HexMesh::refinement_level(1, boundary);
    let materials = (0..mesh.num_elements()).map(material).collect();
    let mut solver = Solver::<P>::new(mesh, n, kind, materials);
    solver.set_initial(|v, x| {
        let phase = 7.3 * x.x - 3.1 * x.y + 5.7 * x.z + 1.9 * v as f64;
        0.5 * phase.sin() + 0.1 * (13.0 * x.x * x.y).cos()
    });
    solver
}

pub fn acoustic(e: usize) -> AcousticMaterial {
    AcousticMaterial::new(1.0 + 0.37 * (e % 5) as f64, 0.8 + 0.21 * (e % 3) as f64)
}

pub fn elastic(e: usize) -> ElasticMaterial {
    ElasticMaterial::new(0.5 + 0.3 * (e % 4) as f64, 0.7 + 0.13 * (e % 3) as f64, 1.1)
}
