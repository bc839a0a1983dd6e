//! Compilation of the *elastic* dG kernels under row-size expansion
//! (`E_r`): four memory blocks per element (§5.1, §6.2.2, Fig. 9).
//!
//! The nine elastic variables cannot share one block's 32-word rows
//! (`crate::layout::ElasticLayout`), so they are distributed over three
//! data blocks — velocity (vx, vy, vz), diagonal stress (sxx, syy, szz)
//! and shear stress (sxy, sxz, syz) — plus one buffer block for neighbor
//! data, exactly the Fig. 9 arrangement. The price is cross-block
//! traffic:
//!
//! * **Volume** — the velocity block computes all nine velocity
//!   derivatives and ships the six assembled stress contributions to the
//!   stress blocks; the stress blocks compute their nine stress
//!   derivatives and ship velocity-contribution partials back (the
//!   "inter-block memcpy" of Fig. 8, in its elastic form: "more
//!   inter-block memcpy … will happen for Volume in the elastic wave
//!   simulation", §6.2.2),
//! * **Flux** — neighbor traces land in the buffer block and are
//!   redistributed; the normal (P-characteristic) interface problem is
//!   solved where the normal traction lives (the diagonal block), the
//!   tangential (S-characteristic) ones where the shear tractions live,
//!   and the resulting traction jumps ship back to the velocity block,
//! * **Integration** — splits perfectly: each block updates its own
//!   three variables.
//!
//! Cross-block partial sums necessarily re-associate a few floating-point
//! reductions, so the functional validation for this mapping is
//! tolerance-based (~1e-12 relative) rather than bit-exact — true of any
//! real distributed execution of the same dataflow.
//!
//! Placement, preload, data movement and stream assembly live in the
//! shared [`crate::mapping::Mapping`] core; this module supplies the
//! four-block [`RowExpandedElastic`] kernels.

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::SiteParams;
use wavesim_dg::{ElasticMaterial, FluxKind};
use wavesim_mesh::{ElemId, Face, Neighbor};

use crate::layout::{ElasticBlockLayout as L, ElasticRole};
use crate::mapping::{ElemBlocks, ElementKernels, Mapping, VarSlot};

/// Element-wide staging-row columns (the shared ones are in
/// [`crate::mapping::staging`]).
mod estaging {
    pub const L2M_J: usize = 0; // (λ+2μ)·jac_inv
    pub const LAM_J: usize = 1; // λ·jac_inv
    pub const MU_J: usize = 2; // μ·jac_inv
    pub const INVRHO_J: usize = 3; // jac_inv/ρ
    pub const TWO_MU: usize = 4; // 2μ
    pub const LAM: usize = 5; // λ
    pub const MU: usize = 6; // μ
    pub const INVRHO: usize = 7; // 1/ρ
    pub const HALF: usize = 20;
    pub const ZPM: usize = 21; // own P impedance
    pub const ZSM: usize = 22; // own S impedance
    pub use crate::mapping::staging::LIFT;
}

/// The three data blocks, in block order.
const DATA_ROLES: [ElasticRole; 3] =
    [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress];

/// The columns a data block resets with the dynamic state: auxiliaries,
/// contributions, ghosts and transfer space.
const DATA_DYNAMIC: &[usize] = &[3, 4, 5, 6, 7, 8, 9, 10, 11, 28, 29, 30];

/// Variable `v` (`elastic_vars` order) lives in data block `v / 3`, slot
/// `v % 3`.
const fn elastic_slot(v: usize) -> VarSlot {
    let slot = v % 3;
    VarSlot {
        block: (v / 3) as u32,
        var: L::VARS + slot,
        aux: L::AUX + slot,
        contrib: L::CONTRIB + slot,
    }
}

/// Shear-slot of the unordered axis pair {a, b}.
fn shear_slot(a: usize, b: usize) -> usize {
    match (a.min(b), a.max(b)) {
        (0, 1) => 0, // sxy
        (0, 2) => 1, // sxz
        (1, 2) => 2, // syz
        _ => panic!("shear slot needs two distinct axes"),
    }
}

/// The two tangential axes of a face axis, ascending.
fn tangential(axis: usize) -> [usize; 2] {
    match axis {
        0 => [1, 2],
        1 => [0, 2],
        2 => [0, 1],
        _ => unreachable!(),
    }
}

/// The four-block row-expanded elastic kernels (`E_r`, Fig. 9).
#[derive(Debug, Clone, Copy)]
pub struct RowExpandedElastic;

/// The four-block elastic mapping.
pub type ElasticMapping = Mapping<RowExpandedElastic>;

impl ElasticMapping {
    /// The block of `role` for element `e` (four consecutive blocks per
    /// element, so the quartet shares its lowest H-tree switch).
    pub fn block_of(&self, e: usize, role: ElasticRole) -> BlockId {
        role_block(self.blocks(e), role)
    }

    /// Distinct material pairs in the LUT.
    pub fn num_material_pairs(&self) -> usize {
        self.num_pairs()
    }
}

/// The block of `role` of the element on blocks `b`.
fn role_block(b: ElemBlocks, role: ElasticRole) -> BlockId {
    b.at(role.offset() as u32)
}

impl ElementKernels for RowExpandedElastic {
    type Material = ElasticMaterial;
    /// (own material, neighbor-or-wall material).
    type Pair = (ElasticMaterial, ElasticMaterial);

    const BLOCKS: u32 = 4;
    const VARS: &'static [VarSlot] = &[
        elastic_slot(0),
        elastic_slot(1),
        elastic_slot(2),
        elastic_slot(3),
        elastic_slot(4),
        elastic_slot(5),
        elastic_slot(6),
        elastic_slot(7),
        elastic_slot(8),
    ];
    const DYNAMIC: &'static [(u32, &'static [usize])] =
        &[(0, DATA_DYNAMIC), (1, DATA_DYNAMIC), (2, DATA_DYNAMIC)];
    const STATIC_BLOCKS: &'static [u32] = &[0, 1, 2];
    const MASK: usize = L::MASK;
    const COEFF: usize = L::COEFF;
    const VALUE: usize = L::VALUE;
    const SCRATCH: usize = L::SCRATCH;
    const CONST: usize = L::CONST;
    /// Z_p⁺, Z_p⁻Z_p⁺, 1/(Z_p⁻+Z_p⁺), then the same three for Z_s.
    const FACE_CONSTS: usize = 6;
    const FACES_PER_ROW: usize = 2;

    fn pair(own: &ElasticMaterial, nb: &ElasticMaterial) -> Self::Pair {
        (*own, *nb)
    }

    fn lut_entries(m: &ElasticMapping, (own, nb): &Self::Pair) -> Vec<f64> {
        let (zpm, zpp) = (m.imp(own.p_impedance()), m.imp(nb.p_impedance()));
        let (zsm, zsp) = (m.imp(own.s_impedance()), m.imp(nb.s_impedance()));
        vec![zpp, zpm * zpp, m.recip(zpm + zpp), zsp, zsm * zsp, m.recip(zsm + zsp)]
    }

    fn lut_targets() -> Vec<(u32, Face)> {
        DATA_ROLES.iter().flat_map(|r| Face::ALL.map(|f| (r.offset() as u32, f))).collect()
    }

    fn stage_constants(m: &ElasticMapping, e: usize, out: &mut Vec<(usize, usize, f64)>) {
        let row = m.staging_row();
        let mat = *m.material(e);
        let jac_inv = m.jac_inv();
        // `jac_inv / ρ` keeps its fused form on the default path; the
        // PIM-placed form factors through the mirrored reciprocal.
        let invrho_j = if m.recip_pim() { jac_inv * m.recip(mat.rho) } else { jac_inv / mat.rho };
        let consts: [(usize, f64); 11] = [
            (estaging::L2M_J, (mat.lambda + 2.0 * mat.mu) * jac_inv),
            (estaging::LAM_J, mat.lambda * jac_inv),
            (estaging::MU_J, mat.mu * jac_inv),
            (estaging::INVRHO_J, invrho_j),
            (estaging::TWO_MU, 2.0 * mat.mu),
            (estaging::LAM, mat.lambda),
            (estaging::MU, mat.mu),
            (estaging::INVRHO, m.recip(mat.rho)),
            (estaging::HALF, 0.5),
            (estaging::ZPM, m.imp(mat.p_impedance())),
            (estaging::ZSM, m.imp(mat.s_impedance())),
        ];
        out.extend(consts.map(|(col, v)| (row, col, v)));
    }

    /// The P and S impedances are square roots (of `(λ+2μ)ρ` and `μρ`);
    /// the reciprocal is `1/ρ`.
    fn math_site_params(m: &ElasticMapping, elems: &[usize]) -> SiteParams {
        let w = wavesim_dg::opcount::elastic_workload(m.n(), m.flux_kind());
        m.site_params(elems, w, |mat| {
            ([(mat.lambda + 2.0 * mat.mu) * mat.rho, mat.mu * mat.rho], mat.rho)
        })
    }

    /// The four-block Volume kernel: the velocity block assembles the
    /// stress contributions, the stress blocks ship velocity partials back.
    fn emit_volume(m: &ElasticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let vb = role_block(b, ElasticRole::Velocity);
        let db = role_block(b, ElasticRole::DiagStress);
        let sb = role_block(b, ElasticRole::ShearStress);
        let all_rows: Vec<usize> = (0..m.nodes()).collect();
        let (c0, c1, c2) = (L::const_col(0), L::const_col(1), L::const_col(2));
        let s0 = L::scratch_col(0);

        // --- Phase A: velocity block assembles the six stress
        // contributions from its nine velocity derivatives. Outgoing
        // space: ghost columns (diag) + xfer columns (shear), both free
        // until Flux.
        m.bc(s, vb, estaging::L2M_J, c0);
        m.bc(s, vb, estaging::LAM_J, c1);
        m.bc(s, vb, estaging::MU_J, c2);
        let out_diag = [L::ghost_col(0), L::ghost_col(1), L::ghost_col(2)];
        let out_shear = [L::xfer_col(0), L::xfer_col(1), L::xfer_col(2)];
        for col in out_diag.iter().chain(&out_shear) {
            m.zero(s, vb, *col);
        }
        // Diagonal passes (native scatter order): ∂ᵢvᵢ feeds all three
        // diagonal contributions.
        for (axis, vslot) in [(0usize, 0usize), (1, 1), (2, 2)] {
            m.emit_derivative(s, vb, axis, L::var_col(vslot), s0);
            #[allow(clippy::needless_range_loop)]
            for target in 0..3 {
                let c = if target == vslot { c0 } else { c1 };
                m.arith(s, vb, AluOp::Mac, out_diag[target], s0, c);
            }
        }
        // Shear passes (native order): sxy ← ∂y vx, ∂x vy; sxz ← ∂z vx,
        // ∂x vz; syz ← ∂z vy, ∂y vz.
        for (axis, vslot, shear) in
            [(1usize, 0usize, 0usize), (0, 1, 0), (2, 0, 1), (0, 2, 1), (2, 1, 2), (1, 2, 2)]
        {
            m.emit_derivative(s, vb, axis, L::var_col(vslot), s0);
            m.arith(s, vb, AluOp::Mac, out_shear[shear], s0, c2);
        }
        // Ship the assembled stress contributions into the stress
        // blocks' contribution columns (overwriting: Volume runs first).
        for slot in 0..3 {
            m.ship_column(s, vb, out_diag[slot], db, L::contrib_col(slot), &all_rows);
            m.ship_column(s, vb, out_shear[slot], sb, L::contrib_col(slot), &all_rows);
        }

        // --- Phase B: diagonal block computes its velocity partials
        // (∂x sxx → vx, ∂y syy → vy, ∂z szz → vz).
        m.bc(s, db, estaging::INVRHO_J, c0);
        for (axis, slot) in [(0usize, 0usize), (1, 1), (2, 2)] {
            m.emit_derivative(s, db, axis, L::var_col(slot), s0);
            m.arith(s, db, AluOp::Mul, L::xfer_col(slot), s0, c0);
        }
        for slot in 0..3 {
            m.ship_column(s, db, L::xfer_col(slot), vb, L::xfer_col(slot), &all_rows);
        }

        // --- Phase C: shear block computes the remaining velocity
        // partials (two derivatives per velocity).
        m.bc(s, sb, estaging::INVRHO_J, c0);
        for (slot, passes) in [
            (0usize, [(1usize, 0usize), (2, 1)]), // vx ← ∂y sxy + ∂z sxz
            (1, [(0, 0), (2, 2)]),                // vy ← ∂x sxy + ∂z syz
            (2, [(0, 1), (1, 2)]),                // vz ← ∂x sxz + ∂y syz
        ] {
            m.zero(s, sb, L::xfer_col(slot));
            for (axis, src_slot) in passes {
                m.emit_derivative(s, sb, axis, L::var_col(src_slot), s0);
                m.arith(s, sb, AluOp::Mac, L::xfer_col(slot), s0, c0);
            }
        }
        for slot in 0..3 {
            m.ship_column(s, sb, L::xfer_col(slot), vb, L::ghost_col(slot), &all_rows);
        }

        // --- Phase D: velocity block reduces the partials.
        for slot in 0..3 {
            m.arith(s, vb, AluOp::Add, L::contrib_col(slot), L::xfer_col(slot), L::ghost_col(slot));
        }
    }

    /// Kernel-wide constants in the gather columns (free during Flux).
    fn emit_flux_prologue(m: &ElasticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let vb = role_block(b, ElasticRole::Velocity);
        let sb = role_block(b, ElasticRole::ShearStress);
        m.bc(s, vb, estaging::INVRHO, L::COEFF);
        m.bc(s, vb, estaging::LIFT, L::VALUE);
        m.bc(s, sb, estaging::MU, L::COEFF);
        m.bc(s, sb, estaging::LIFT, L::VALUE);
    }

    /// Fetches the neighbor's nine variables into the buffer block, then
    /// redistributes each variable group to its data block (Fig. 9: the
    /// long-haul transfer lands once in the buffer; the short sibling
    /// hops fan it out).
    fn emit_ghost_fetch(m: &ElasticMapping, s: &mut InstrStream, e: usize, face: Face) {
        let gb = m.block_of(e, ElasticRole::Buffer);
        let own_table = m.topo().face_table(face);
        let roles = [ElasticRole::Velocity, ElasticRole::DiagStress, ElasticRole::ShearStress];
        match m.mesh().neighbor(ElemId(e), face) {
            Neighbor::Element(nb) => {
                let nb_table = m.topo().face_table(face.opposite());
                for t in 0..m.topo().nodes_per_face() {
                    for (g, role) in roles.iter().enumerate() {
                        let src = m.block_of(nb.index(), *role);
                        s.push(Instr::Read {
                            block: src,
                            row: nb_table[t] as u16,
                            offset: L::VARS as u8,
                            words: 3,
                        });
                        s.push(Instr::Copy { src, dst: gb, words: 3 });
                        s.push(Instr::Write {
                            block: gb,
                            row: own_table[t] as u16,
                            offset: (3 * g) as u8,
                            words: 3,
                        });
                    }
                }
                // Redistribute to the data blocks' ghost columns.
                #[allow(clippy::needless_range_loop)]
                for t in 0..m.topo().nodes_per_face() {
                    for (g, role) in roles.iter().enumerate() {
                        let dst = m.block_of(e, *role);
                        s.push(Instr::Read {
                            block: gb,
                            row: own_table[t] as u16,
                            offset: (3 * g) as u8,
                            words: 3,
                        });
                        s.push(Instr::Copy { src: gb, dst, words: 3 });
                        s.push(Instr::Write {
                            block: dst,
                            row: own_table[t] as u16,
                            offset: L::GHOST as u8,
                            words: 3,
                        });
                    }
                }
            }
            Neighbor::Boundary => {
                // Rigid wall (native `Elastic::wall_ghost`): v⁺ = −v,
                // S⁺ = S — synthesized locally, row-parallel.
                let vb = m.block_of(e, ElasticRole::Velocity);
                for slot in 0..3 {
                    m.arith(
                        s,
                        vb,
                        AluOp::Neg,
                        L::ghost_col(slot),
                        L::var_col(slot),
                        L::var_col(slot),
                    );
                }
                for role in [ElasticRole::DiagStress, ElasticRole::ShearStress] {
                    let b = m.block_of(e, role);
                    for slot in 0..3 {
                        m.arith(
                            s,
                            b,
                            AluOp::Mov,
                            L::ghost_col(slot),
                            L::var_col(slot),
                            L::var_col(slot),
                        );
                    }
                }
            }
        }
    }

    /// The per-face flux computation: normal part in the diagonal block,
    /// tangential parts in the shear block, velocity updates in the
    /// velocity block.
    fn emit_face_flux(m: &ElasticMapping, s: &mut InstrStream, b: ElemBlocks, face: Face) {
        let vb = role_block(b, ElasticRole::Velocity);
        let db = role_block(b, ElasticRole::DiagStress);
        let sb = role_block(b, ElasticRole::ShearStress);
        let axis = face.axis().index();
        let plus = face.is_plus();
        let f = face.code();
        let mask = L::mask_col(f);
        let face_rows: Vec<usize> = m.topo().face_table(face).to_vec();
        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };
        let (s0, s1, s2, s3) =
            (L::scratch_col(0), L::scratch_col(1), L::scratch_col(2), L::scratch_col(3));
        let (c0, c1, c2, c3) = (L::const_col(0), L::const_col(1), L::const_col(2), L::const_col(3));
        let face_row = m.face_row(f);

        // --- Velocity block: normal traces, shipped to the diag block.
        m.arith(s, vb, sign_op, s0, L::var_col(axis), L::var_col(axis));
        m.arith(s, vb, sign_op, s1, L::ghost_col(axis), L::ghost_col(axis));
        m.ship_column(s, vb, s0, db, L::xfer_col(0), &face_rows);
        m.ship_column(s, vb, s1, db, L::xfer_col(1), &face_rows);

        // --- Diagonal block: the P-characteristic interface problem.
        let tn_m = L::var_col(axis); // t_n⁻ = s_aa
        let tn_p = L::ghost_col(axis);
        let (vn_m, vn_p) = (L::xfer_col(0), L::xfer_col(1));
        let (tn_star, vn_star) = match m.flux_kind() {
            FluxKind::Riemann => {
                m.broadcast_from(s, db, face_row, m.face_dest_col(f, 0), c0); // Z_p⁺
                m.broadcast_from(s, db, face_row, m.face_dest_col(f, 1), c1); // Z_p⁻Z_p⁺
                m.broadcast_from(s, db, face_row, m.face_dest_col(f, 2), c2); // 1/(Z_p⁻+Z_p⁺)
                m.bc(s, db, estaging::ZPM, c3);
                // t_n* = ((Z⁺t_n⁻ + Z⁻t_n⁺) − Z⁻Z⁺(v_n⁻ − v_n⁺))·inv
                m.arith(s, db, AluOp::Sub, s2, vn_m, vn_p);
                m.arith(s, db, AluOp::Mul, s2, s2, c1);
                m.arith(s, db, AluOp::Mul, s0, tn_m, c0);
                m.arith(s, db, AluOp::Mul, s3, tn_p, c3);
                m.arith(s, db, AluOp::Add, s0, s0, s3);
                m.arith(s, db, AluOp::Sub, s0, s0, s2);
                m.arith(s, db, AluOp::Mul, s0, s0, c2);
                // v_n* = ((Z⁻v_n⁻ + Z⁺v_n⁺) − (t_n⁻ − t_n⁺))·inv
                m.arith(s, db, AluOp::Mul, s1, vn_m, c3);
                m.arith(s, db, AluOp::Mul, s3, vn_p, c0);
                m.arith(s, db, AluOp::Add, s1, s1, s3);
                m.arith(s, db, AluOp::Sub, s3, tn_m, tn_p);
                m.arith(s, db, AluOp::Sub, s1, s1, s3);
                m.arith(s, db, AluOp::Mul, s1, s1, c2);
                (s0, s1)
            }
            FluxKind::Central => {
                m.bc(s, db, estaging::HALF, c0);
                m.arith(s, db, AluOp::Add, s0, tn_m, tn_p);
                m.arith(s, db, AluOp::Mul, s0, s0, c0);
                m.arith(s, db, AluOp::Add, s1, vn_m, vn_p);
                m.arith(s, db, AluOp::Mul, s1, s1, c0);
                (s0, s1)
            }
        };
        // Δt_n → velocity block; w = v_n* − v_n⁻ drives the stress rows.
        m.arith(s, db, AluOp::Sub, s3, tn_star, tn_m);
        m.ship_column(s, db, s3, vb, L::xfer_col(0), &face_rows);
        // w, then out_aa = 2μ·w + λ·w; out_bb = out_cc = λ·w.
        m.arith(s, db, AluOp::Sub, s2, vn_star, vn_m);
        m.bc(s, db, estaging::TWO_MU, c0);
        m.bc(s, db, estaging::LAM, c1);
        m.bc(s, db, estaging::LIFT, c2);
        m.arith(s, db, AluOp::Mul, s0, s2, c0);
        m.arith(s, db, AluOp::Mul, s1, s2, c1);
        m.arith(s, db, AluOp::Add, s0, s0, s1);
        m.arith(s, db, AluOp::Mul, s0, s0, mask);
        m.arith(s, db, AluOp::Mac, L::contrib_col(axis), s0, c2);
        m.arith(s, db, AluOp::Mul, s1, s1, mask);
        for t in tangential(axis) {
            m.arith(s, db, AluOp::Mac, L::contrib_col(t), s1, c2);
        }

        // --- Shear block: the two S-characteristic problems.
        if m.flux_kind() == FluxKind::Riemann {
            m.broadcast_from(s, sb, face_row, m.face_dest_col(f, 3), c0); // Z_s⁺
            m.broadcast_from(s, sb, face_row, m.face_dest_col(f, 4), c1); // Z_s⁻Z_s⁺
            m.broadcast_from(s, sb, face_row, m.face_dest_col(f, 5), c2); // 1/(Z_s⁻+Z_s⁺)
            m.bc(s, sb, estaging::ZSM, c3);
        } else {
            m.bc(s, sb, estaging::HALF, c0);
        }
        for (ti, t_axis) in tangential(axis).into_iter().enumerate() {
            let st = shear_slot(axis, t_axis);
            // Tangential traces: t_t⁻ = ±s_at, v_t from the velocity block.
            m.ship_column(s, vb, L::var_col(t_axis), sb, L::xfer_col(0), &face_rows);
            m.ship_column(s, vb, L::ghost_col(t_axis), sb, L::xfer_col(1), &face_rows);
            let (vt_m, vt_p) = (L::xfer_col(0), L::xfer_col(1));
            m.arith(s, sb, sign_op, s0, L::var_col(st), L::var_col(st)); // t_t⁻
            m.arith(s, sb, sign_op, s1, L::ghost_col(st), L::ghost_col(st)); // t_t⁺
            let t4 = L::SPARE;
            let (tt_star, vt_star) = match m.flux_kind() {
                FluxKind::Riemann => {
                    // t_t* = ((Z⁺t_t⁻ + Z⁻t_t⁺) − Z⁻Z⁺(v_t⁻ − v_t⁺))·inv
                    m.arith(s, sb, AluOp::Sub, s2, vt_m, vt_p);
                    m.arith(s, sb, AluOp::Mul, s2, s2, c1);
                    m.arith(s, sb, AluOp::Mul, s3, s0, c0);
                    m.arith(s, sb, AluOp::Mul, t4, s1, c3);
                    m.arith(s, sb, AluOp::Add, s3, s3, t4);
                    m.arith(s, sb, AluOp::Sub, s3, s3, s2);
                    m.arith(s, sb, AluOp::Mul, s3, s3, c2);
                    // v_t* = ((Z⁻v_t⁻ + Z⁺v_t⁺) − (t_t⁻ − t_t⁺))·inv
                    m.arith(s, sb, AluOp::Mul, s2, vt_m, c3);
                    m.arith(s, sb, AluOp::Mul, t4, vt_p, c0);
                    m.arith(s, sb, AluOp::Add, s2, s2, t4);
                    m.arith(s, sb, AluOp::Sub, t4, s0, s1);
                    m.arith(s, sb, AluOp::Sub, s2, s2, t4);
                    m.arith(s, sb, AluOp::Mul, s2, s2, c2);
                    (s3, s2)
                }
                FluxKind::Central => {
                    m.arith(s, sb, AluOp::Add, s3, s0, s1);
                    m.arith(s, sb, AluOp::Mul, s3, s3, c0);
                    m.arith(s, sb, AluOp::Add, s2, vt_m, vt_p);
                    m.arith(s, sb, AluOp::Mul, s2, s2, c0);
                    (s3, s2)
                }
            };
            // Δt_t → velocity block (xfer 1 and 2 for the two axes).
            m.arith(s, sb, AluOp::Sub, t4, tt_star, s0);
            m.ship_column(s, sb, t4, vb, L::xfer_col(1 + ti), &face_rows);
            // out_s_at = μ · (v_t* − v_t⁻) · n_a, masked and lifted.
            m.arith(s, sb, AluOp::Sub, s2, vt_star, vt_m);
            if !plus {
                m.arith(s, sb, AluOp::Neg, s2, s2, s2);
            }
            m.arith(s, sb, AluOp::Mul, s2, s2, L::COEFF); // × μ
            m.arith(s, sb, AluOp::Mul, s2, s2, mask);
            m.arith(s, sb, AluOp::Mac, L::contrib_col(st), s2, L::VALUE);
        }

        // --- Velocity block: out_v = (t* − t⁻)/ρ per component.
        // Normal component carries the face sign; tangential ones do not.
        m.arith(s, vb, sign_op, s0, L::xfer_col(0), L::xfer_col(0));
        m.arith(s, vb, AluOp::Mul, s0, s0, L::COEFF);
        m.arith(s, vb, AluOp::Mul, s0, s0, mask);
        m.arith(s, vb, AluOp::Mac, L::contrib_col(axis), s0, L::VALUE);
        for (ti, t_axis) in tangential(axis).into_iter().enumerate() {
            m.arith(s, vb, AluOp::Mul, s0, L::xfer_col(1 + ti), L::COEFF);
            m.arith(s, vb, AluOp::Mul, s0, s0, mask);
            m.arith(s, vb, AluOp::Mac, L::contrib_col(t_axis), s0, L::VALUE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_math::{eval as math_eval, MathPlacement, ITERS_PER_STAGE};
    use pim_sim::PimChip;
    use wavesim_dg::State;
    use wavesim_mesh::HexMesh;

    #[test]
    fn shear_slot_mapping() {
        assert_eq!(shear_slot(0, 1), 0);
        assert_eq!(shear_slot(1, 0), 0);
        assert_eq!(shear_slot(0, 2), 1);
        assert_eq!(shear_slot(2, 1), 2);
    }

    #[test]
    fn tangential_axes_are_the_complement() {
        for a in 0..3 {
            let t = tangential(a);
            assert!(!t.contains(&a));
            assert!(t[0] < t[1]);
        }
    }

    #[test]
    fn block_assignment_is_four_per_element() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let m = ElasticMapping::uniform(mesh, 3, FluxKind::Central, ElasticMaterial::UNIT);
        assert_eq!(m.blocks_required(), 8 * 4 + 1);
        let b0 = m.block_of(2, ElasticRole::Velocity);
        let b3 = m.block_of(2, ElasticRole::Buffer);
        assert_eq!(b0.0, 8);
        assert_eq!(b3.0, 11);
        // The quartet shares its level-0 H-tree switch (consecutive ids
        // within a fanout-4 quad).
        assert_eq!(b0.0 / 4, b3.0 / 4);
    }

    #[test]
    fn stage_stream_uses_all_four_blocks() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let m = ElasticMapping::uniform(mesh, 3, FluxKind::Riemann, ElasticMaterial::UNIT);
        let s = m.compile_stage(0);
        let st = s.stats();
        assert!(st.copies > 0, "cross-block volume/flux exchange required");
        assert!(st.ariths > 0);
        assert_eq!(st.syncs, 3);
    }

    #[test]
    fn pim_placed_math_routes_preloaded_constants_through_the_mirrors() {
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let mat = ElasticMaterial::new(2.0, 1.0, 1.0);
        let mut m = ElasticMapping::uniform(mesh, 2, FluxKind::Riemann, mat);
        let state = State::zeros(m.mesh().num_elements(), 9, m.nodes());

        let mut exact_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut exact_chip, &state, 1e-3);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        let mut pim_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut pim_chip, &state, 1e-3);

        let staging = m.staging_row();
        let vb = m.block_of(0, ElasticRole::Velocity);
        let zpm_exact = exact_chip.block(vb).get(staging, estaging::ZPM);
        let zpm_pim = pim_chip.block(vb).get(staging, estaging::ZPM);
        assert_eq!(zpm_exact, mat.p_impedance(), "default path must stay host-exact");
        let z = mat.p_impedance();
        assert_eq!(
            zpm_pim,
            math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap(),
            "PIM-placed impedance must equal the fixed-point mirror"
        );
        assert!((zpm_pim - zpm_exact).abs() / zpm_exact < 1e-6);

        let inv_exact = exact_chip.block(vb).get(staging, estaging::INVRHO);
        let inv_pim = pim_chip.block(vb).get(staging, estaging::INVRHO);
        assert_eq!(inv_exact, 1.0 / mat.rho);
        assert_eq!(inv_pim, math_eval::recip_eval(mat.rho, ITERS_PER_STAGE).unwrap());
        assert!((inv_pim - inv_exact).abs() < 1e-6);
    }

    #[test]
    fn elastic_streams_are_heavier_than_acoustic() {
        // §6.2.2: "more inter-block memcpy … will happen for Volume in
        // the elastic wave simulation".
        let mesh = HexMesh::refinement_level(1, wavesim_mesh::Boundary::Periodic);
        let e = ElasticMapping::uniform(mesh.clone(), 3, FluxKind::Riemann, ElasticMaterial::UNIT)
            .compile_stage(0);
        let a = crate::compiler::AcousticMapping::uniform(
            mesh,
            3,
            FluxKind::Riemann,
            wavesim_dg::AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        assert!(e.stats().copies > a.stats().copies);
        assert!(e.stats().ariths > a.stats().ariths);
    }
}
