//! `Solver::step` runs each LSRK stage as one fused element pass. It must
//! reproduce the three separate public kernels — `volume::apply`, then
//! `flux::apply`, then `integration::stage` — bit for bit, for both wave
//! systems, both flux kinds, both boundary kinds and several orders. Both
//! share the per-element flux function, so its accumulation order is
//! pinned separately, against a per-node loop over the `FluxTopology` face
//! tables. The worker-count check lives in `fused_workers.rs`, because it
//! sets the process-wide thread count.

mod common;

use common::{acoustic, bits, elastic, make_solver, STEPS};
use wavesim_dg::kernels::flux::{self, FluxTopology};
use wavesim_dg::kernels::{integration, volume};
use wavesim_dg::{Acoustic, Elastic, FluxKind, Lsrk5, Physics, Solver, State};
use wavesim_mesh::{Boundary, ElemId, Face, HexMesh, Neighbor};
use wavesim_numerics::lagrange::DiffMatrix;

/// Adds every element's flux onto `rhs` one face node at a time, in
/// `Face::ALL` × face-table order: the accumulation order `flux::apply`
/// must keep.
fn table_flux<P: Physics>(
    n: usize,
    mesh: &HexMesh,
    kind: FluxKind,
    lift: f64,
    materials: &[P::Material],
    u: &State,
    rhs: &mut State,
) {
    let topo = FluxTopology::new(n);
    let nv = P::NUM_VARS;
    let (mut um, mut up, mut out) = (vec![0.0; nv], vec![0.0; nv], vec![0.0; nv]);
    for e in 0..mesh.num_elements() {
        for face in Face::ALL {
            let neighbor = mesh.neighbor(ElemId(e), face);
            let plus_material = match neighbor {
                Neighbor::Element(nb) => &materials[nb.index()],
                Neighbor::Boundary => &materials[e],
            };
            let coeffs = P::face_coeffs(kind, &materials[e], plus_material);
            let plus_table = topo.face_table(face.opposite());
            for (t, &node) in topo.face_table(face).iter().enumerate() {
                for (v, x) in um.iter_mut().enumerate() {
                    *x = u.value(e, v, node);
                }
                match neighbor {
                    Neighbor::Element(nb) => {
                        for (v, x) in up.iter_mut().enumerate() {
                            *x = u.value(nb.index(), v, plus_table[t]);
                        }
                    }
                    Neighbor::Boundary => P::wall_ghost(face.normal(), &um, &mut up),
                }
                P::face_flux(&coeffs, face.normal(), &um, &up, &mut out);
                for (v, &o) in out.iter().enumerate() {
                    let value = rhs.value(e, v, node) + lift * o;
                    rhs.set_value(e, v, node, value);
                }
            }
        }
    }
}

/// Steps `solver` with `Solver::step` and a copy of its state with the
/// three public kernels, asserting bit-identical state and auxiliaries
/// after every step.
fn assert_fused_matches_kernels<P: Physics>(mut solver: Solver<P>, label: &str) {
    let n = solver.rule().len();
    let d = DiffMatrix::for_gll(solver.rule());
    let jac_inv = solver.geometry().jacobian_inverse_domain();
    let lift = solver.geometry().lift_factor(solver.rule().weights()[0]);
    let mesh = solver.mesh().clone();
    let materials = solver.materials().to_vec();
    let kind = solver.flux_kind();
    let dt = solver.stable_dt(0.3);

    let mut u = solver.state().clone();
    let mut aux = State::zeros(u.num_elements(), u.num_vars(), u.nodes_per_element());
    let mut rhs = aux.clone();
    for step in 0..STEPS {
        solver.step(dt);
        for stage in 0..Lsrk5::STAGES {
            volume::apply::<P>(n, &d, jac_inv, &materials, &u, &mut rhs);
            let mut by_table = rhs.clone();
            flux::apply::<P>(n, &mesh, kind, lift, &materials, &u, &mut rhs);
            table_flux::<P>(n, &mesh, kind, lift, &materials, &u, &mut by_table);
            assert!(bits(&rhs) == bits(&by_table), "{label}: flux order differs at step {step}");
            integration::stage(stage, dt, &mut u, &mut aux, &rhs);
        }
        assert!(u.max_abs().is_finite(), "{label}: reference blew up");
        assert!(bits(solver.state()) == bits(&u), "{label}: state differs after step {step}");
        assert!(bits(solver.auxiliaries()) == bits(&aux), "{label}: aux differs after step {step}");
    }
}

const KINDS: [FluxKind; 2] = [FluxKind::Central, FluxKind::Riemann];
const BOUNDARIES: [Boundary; 2] = [Boundary::Periodic, Boundary::Wall];
const ORDERS: [usize; 3] = [2, 3, 4];

#[test]
fn acoustic_fused_step_is_bit_identical_to_the_three_kernels() {
    for n in ORDERS {
        for kind in KINDS {
            for boundary in BOUNDARIES {
                let solver = make_solver::<Acoustic>(n, kind, boundary, acoustic);
                assert_fused_matches_kernels(
                    solver,
                    &format!("acoustic n={n} {kind:?} {boundary:?}"),
                );
            }
        }
    }
}

#[test]
fn elastic_fused_step_is_bit_identical_to_the_three_kernels() {
    for n in ORDERS {
        for kind in KINDS {
            for boundary in BOUNDARIES {
                let solver = make_solver::<Elastic>(n, kind, boundary, elastic);
                assert_fused_matches_kernels(
                    solver,
                    &format!("elastic n={n} {kind:?} {boundary:?}"),
                );
            }
        }
    }
}
