//! The *Flux* kernel: interface reconciliation between neighboring
//! elements.
//!
//! For every element face, the kernel gathers the matching interface node
//! values from the neighbor (the paper's "data values of corresponding
//! interface nodes from a neighboring element", §2.2), evaluates the
//! numerical flux, and lifts the difference `F⁻·n − F*·n` onto the face
//! nodes. On a wall boundary a mirror ghost state substitutes for the
//! neighbor.
//!
//! This is the only non-local kernel: on the PIM it is the kernel that
//! exercises the H-tree/Bus interconnect (inter-block memcpy), and on GPUs
//! it is the divergent one (§3.1).

use rayon::prelude::*;
use wavesim_mesh::{Face, HexMesh, Neighbor};
use wavesim_numerics::tensor::{face_nodes, line_strides};

use crate::physics::{FluxKind, Physics};
use crate::state::State;

/// Upper bound on `NUM_VARS` so per-node gathers can use stack arrays.
const MAX_VARS: usize = 16;

/// Precomputed face-node index tables, one per face code. The `t`-th entry
/// of a face's table tangentially matches the `t`-th entry of the opposite
/// face's table, which is how minus/plus interface nodes pair up on a
/// conforming structured mesh. The PIM compilers walk faces through these
/// tables; the native kernel below computes the same order from
/// [`line_strides`].
#[derive(Debug, Clone)]
pub struct FluxTopology {
    n: usize,
    tables: [Vec<usize>; 6],
}

impl FluxTopology {
    /// Builds the tables for elements with `n` nodes per axis.
    pub fn new(n: usize) -> Self {
        let build =
            |face: Face| -> Vec<usize> { face_nodes(n, face.axis(), face.is_plus()).collect() };
        Self {
            n,
            tables: [
                build(Face::XMinus),
                build(Face::XPlus),
                build(Face::YMinus),
                build(Face::YPlus),
                build(Face::ZMinus),
                build(Face::ZPlus),
            ],
        }
    }

    /// Nodes per axis this topology was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Node-index table of one face.
    #[inline]
    pub fn face_table(&self, face: Face) -> &[usize] {
        &self.tables[face.code()]
    }

    /// Number of nodes on one face, `n²`.
    #[inline]
    pub fn nodes_per_face(&self) -> usize {
        self.n * self.n
    }
}

/// Accumulates the flux contribution of every element into `rhs`
/// (adding to whatever the Volume kernel already wrote).
///
/// `lift` is the GLL lift constant `1/(w_end · h/2)`.
pub fn apply<P: Physics>(
    n: usize,
    mesh: &HexMesh,
    kind: FluxKind,
    lift: f64,
    materials: &[P::Material],
    u: &State,
    rhs: &mut State,
) {
    assert_eq!(u.num_elements(), mesh.num_elements());
    assert_eq!(u.num_vars(), P::NUM_VARS);
    assert_eq!(u.nodes_per_element(), n * n * n);
    let stride = rhs.element_stride();
    rhs.as_mut_slice().par_chunks_mut(stride).enumerate().for_each(|(e, chunk)| {
        element_flux::<P>(n, mesh, kind, lift, materials, u, e, chunk);
    });
}

/// Flux accumulation for a single element with `n` nodes per axis: the
/// six faces in [`Face::ALL`] order, each face's nodes in [`face_nodes`]
/// order, every node's `lift · (F⁻·n − F*·n)` added onto `rhs_chunk`.
/// Always inlined, so a caller passing a constant `n` gets constant-bound
/// loops.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn element_flux<P: Physics>(
    n: usize,
    mesh: &HexMesh,
    kind: FluxKind,
    lift: f64,
    materials: &[P::Material],
    u: &State,
    e: usize,
    rhs_chunk: &mut [f64],
) {
    assert!(P::NUM_VARS <= MAX_VARS, "raise MAX_VARS for this physics");
    let nv = P::NUM_VARS;
    let nodes = n * n * n;
    let own = &u.element(e)[..nv * nodes];
    let rhs_chunk = &mut rhs_chunk[..nv * nodes];
    let mut um = [0.0; MAX_VARS];
    let mut up = [0.0; MAX_VARS];
    let mut out = [0.0; MAX_VARS];

    for face in Face::ALL {
        let normal = face.normal();
        // The plus side: the neighbor's record, or `None` for a wall
        // whose mirror ghost shares the minus side's material.
        let (plus, m_plus) = match mesh.neighbor(wavesim_mesh::ElemId(e), face) {
            Neighbor::Element(nb) => {
                (Some(&u.element(nb.index())[..nv * nodes]), &materials[nb.index()])
            }
            Neighbor::Boundary => (None, &materials[e]),
        };
        let coeffs = P::face_coeffs(kind, &materials[e], m_plus);
        // Face node `(a, b)` sits at `plane + a·sa + b·sb` on both sides,
        // on opposite planes.
        let (stride, sa, sb) = line_strides(n, face.axis());
        let (m_plane, p_plane) =
            if face.is_plus() { ((n - 1) * stride, 0) } else { (0, (n - 1) * stride) };
        for b in 0..n {
            for a in 0..n {
                let tangential = a * sa + b * sb;
                let m_node = m_plane + tangential;
                for v in 0..nv {
                    um[v] = own[v * nodes + m_node];
                }
                match plus {
                    Some(rec) => {
                        let p_node = p_plane + tangential;
                        for v in 0..nv {
                            up[v] = rec[v * nodes + p_node];
                        }
                    }
                    None => P::wall_ghost(normal, &um[..nv], &mut up[..nv]),
                }
                P::face_flux(&coeffs, normal, &um[..nv], &up[..nv], &mut out[..nv]);
                for v in 0..nv {
                    rhs_chunk[v * nodes + m_node] += lift * out[v];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::AcousticMaterial;
    use crate::physics::Acoustic;
    use wavesim_mesh::Boundary;

    #[test]
    fn uniform_state_has_zero_flux() {
        // With no jumps anywhere (periodic mesh, identical states), the
        // flux kernel must add nothing.
        let n = 3;
        let nn = n * n * n;
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mats = vec![AcousticMaterial::UNIT; mesh.num_elements()];
        let mut u = State::zeros(mesh.num_elements(), 4, nn);
        u.fill_with(|_, v, _| v as f64 * 0.25 + 1.0);
        let mut rhs = State::zeros(mesh.num_elements(), 4, nn);
        for kind in [FluxKind::Central, FluxKind::Riemann] {
            rhs.fill_zero();
            apply::<Acoustic>(n, &mesh, kind, 10.0, &mats, &u, &mut rhs);
            assert!(rhs.max_abs() < 1e-13, "kind {kind:?}");
        }
    }

    #[test]
    fn flux_touches_only_face_nodes() {
        let n = 4;
        let nn = n * n * n;
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mats = vec![AcousticMaterial::UNIT; mesh.num_elements()];
        let mut u = State::zeros(mesh.num_elements(), 4, nn);
        u.fill_with(|e, v, node| ((e * 31 + v * 17 + node) % 7) as f64 - 3.0);
        let mut rhs = State::zeros(mesh.num_elements(), 4, nn);
        apply::<Acoustic>(n, &mesh, FluxKind::Central, 1.0, &mats, &u, &mut rhs);

        // Interior nodes (not on any face) must be untouched.
        for e in 0..mesh.num_elements() {
            for v in 0..4 {
                for k in 1..n - 1 {
                    for j in 1..n - 1 {
                        for i in 1..n - 1 {
                            let idx = wavesim_numerics::tensor::node_index(n, i, j, k);
                            assert_eq!(rhs.value(e, v, idx), 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flux_accumulates_on_top_of_existing_rhs() {
        let n = 3;
        let nn = n * n * n;
        let mesh = HexMesh::refinement_level(1, Boundary::Wall);
        let mats = vec![AcousticMaterial::UNIT; mesh.num_elements()];
        let mut u = State::zeros(mesh.num_elements(), 4, nn);
        u.fill_with(|e, _, _| e as f64);
        let mut rhs_a = State::zeros(mesh.num_elements(), 4, nn);
        let mut rhs_b = State::zeros(mesh.num_elements(), 4, nn);
        rhs_b.fill_with(|_, _, _| 5.0);
        apply::<Acoustic>(n, &mesh, FluxKind::Riemann, 2.0, &mats, &u, &mut rhs_a);
        apply::<Acoustic>(n, &mesh, FluxKind::Riemann, 2.0, &mats, &u, &mut rhs_b);
        for (a, b) in rhs_a.as_slice().iter().zip(rhs_b.as_slice()) {
            assert!((b - a - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn topology_tables_have_face_size() {
        let topo = FluxTopology::new(5);
        assert_eq!(topo.nodes_per_face(), 25);
        for face in Face::ALL {
            assert_eq!(topo.face_table(face).len(), 25);
        }
    }
}
