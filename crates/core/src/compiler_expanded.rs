//! Compilation of the *expanded* acoustic mapping (`E_p`, §6.2.1,
//! Figs. 8–9): one element spread over four memory blocks to quadruple
//! the per-element parallelism when the chip has room (Table 5's 2 GB+
//! acoustic rows).
//!
//! Roles: the pressure block owns `p` and doubles as the Fig. 9 neighbor
//! buffer; each of the three velocity blocks owns one velocity component
//! *plus a duplicated copy of `p`* — the paper's "overhead of data
//! duplication and inter-block data movement":
//!
//! * **Volume** (Fig. 8) — every stage starts by re-broadcasting the
//!   freshly-integrated `p` column to the velocity blocks. Block `a`
//!   then computes `grad_p[a]` (its own velocity contribution, fully
//!   local) and `div_v[a]` (its pressure partial, shipped back — "the
//!   div_v has to be transferred across blocks"),
//! * **Flux** (Fig. 9) — the pressure/buffer block receives the
//!   neighbor's `(p, v_a)` trace and forwards it to axis block `a`,
//!   which handles its two faces and accumulates a masked pressure
//!   partial for the final cross-block reduction,
//! * **Integration** — perfectly split: each block updates its own
//!   variable ("there is no inter-block data dependency", §6.2.1).
//!
//! The cross-block pressure reductions re-associate floating-point sums
//! (the Volume one happens to stay bit-exact; the Flux one does not), so
//! validation is tolerance-based like the elastic mapping's.
//!
//! Placement, preload, data movement and stream assembly live in the
//! shared [`crate::mapping::Mapping`] core; this module supplies the
//! four-block [`ExpandedAcoustic`] kernels.

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::SiteParams;
use wavesim_dg::{AcousticMaterial, FluxKind};
use wavesim_mesh::{ElemId, Face, Neighbor};

use crate::compiler::{acoustic_site_params, impedance_lut_entries};
use crate::mapping::{ElemBlocks, ElementKernels, Mapping, VarSlot};

/// Column map of the pressure (buffer) block.
mod pcol {
    pub const P: usize = 0;
    pub const AUX: usize = 1;
    pub const CONTRIB: usize = 2;
    /// Incoming pressure partials from the three velocity blocks.
    pub const INCOMING: usize = 3; // 3,4,5
    /// Neighbor-trace buffer (p, v_a), refilled per face.
    pub const BUFFER: usize = 6; // 6,7
}

/// Column map of a velocity block (axis `a`).
mod vcol {
    pub const V: usize = 0;
    pub const AUX: usize = 1;
    pub const CONTRIB: usize = 2;
    /// Duplicated pressure copy, refreshed every stage.
    pub const P_COPY: usize = 3;
    pub const GHOST_P: usize = 4;
    pub const GHOST_V: usize = 5;
    /// Outgoing Volume pressure partial (div_v term).
    pub const VOL_PARTIAL: usize = 6;
    /// Accumulated Flux pressure partial for this axis's two faces.
    pub const FLUX_PARTIAL: usize = 7;
    /// Face masks (8..14) — the same columns in the pressure block.
    pub const MASK: usize = 8;
    pub const COEFF: usize = 14;
    pub const VALUE: usize = 15;
    /// Scratch (16..20) and constant bank (20..24) — the same columns in
    /// the pressure block.
    pub const SCRATCH: usize = 16;
    pub const CONST: usize = 20;
}

/// Element-wide staging columns (same row discipline as the other
/// mappings; shared between block roles for simplicity).
mod xstaging {
    pub const NEG_KAPPA_J: usize = 0;
    pub const NEG_INV_RHO_J: usize = 1;
    pub const HALF: usize = 2;
    pub const Z: usize = 3;
    pub const KAPPA: usize = 6;
    pub const INV_RHO: usize = 7;
    pub use crate::mapping::staging::LIFT;
}

/// The four-block expanded acoustic kernels (`E_p`, Fig. 8).
#[derive(Debug, Clone, Copy)]
pub struct ExpandedAcoustic;

/// The four-block expanded acoustic mapping.
pub type ExpandedAcousticMapping = Mapping<ExpandedAcoustic>;

impl ExpandedAcousticMapping {
    /// The pressure/buffer block of element `e`.
    pub fn p_block(&self, e: usize) -> BlockId {
        self.block(e, 0)
    }

    /// The velocity block of axis `a` (0..3) of element `e`.
    pub fn v_block(&self, e: usize, a: usize) -> BlockId {
        v_block(self.blocks(e), a)
    }
}

/// The velocity block of axis `a` (0..3) of the element on blocks `b`.
fn v_block(b: ElemBlocks, a: usize) -> BlockId {
    assert!(a < 3);
    b.at(1 + a as u32)
}

const fn velocity_slot(a: u32) -> VarSlot {
    VarSlot { block: 1 + a, var: vcol::V, aux: vcol::AUX, contrib: vcol::CONTRIB }
}

/// The columns a velocity block resets with the dynamic state (its
/// pressure copy loads with the variables instead).
const V_DYNAMIC: &[usize] = &[1, 2, 4, 5, 6, 7];

impl ElementKernels for ExpandedAcoustic {
    type Material = AcousticMaterial;
    /// (own impedance, neighbor-or-wall impedance).
    type Pair = (f64, f64);

    const BLOCKS: u32 = 4;
    const VARS: &'static [VarSlot] = &[
        VarSlot { block: 0, var: pcol::P, aux: pcol::AUX, contrib: pcol::CONTRIB },
        velocity_slot(0),
        velocity_slot(1),
        velocity_slot(2),
    ];
    const DYNAMIC: &'static [(u32, &'static [usize])] =
        &[(0, &[1, 2, 3, 4, 5]), (1, V_DYNAMIC), (2, V_DYNAMIC), (3, V_DYNAMIC)];
    /// The pressure duplicated into each velocity block — the paper's
    /// "overhead of data duplication".
    const VAR_COPIES: &'static [(usize, u32, usize)] =
        &[(0, 1, vcol::P_COPY), (0, 2, vcol::P_COPY), (0, 3, vcol::P_COPY)];
    /// "Constants have to be copied to the four blocks" (§6.2.1).
    const STATIC_BLOCKS: &'static [u32] = &[0, 1, 2, 3];
    const MASK: usize = vcol::MASK;
    const COEFF: usize = vcol::COEFF;
    const VALUE: usize = vcol::VALUE;
    const SCRATCH: usize = vcol::SCRATCH;
    const CONST: usize = vcol::CONST;
    /// Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺), as in the one-block mapping.
    const FACE_CONSTS: usize = 3;
    const FACES_PER_ROW: usize = 3;

    fn pair(own: &AcousticMaterial, nb: &AcousticMaterial) -> (f64, f64) {
        (own.impedance(), nb.impedance())
    }

    fn lut_entries(m: &ExpandedAcousticMapping, pair: &(f64, f64)) -> Vec<f64> {
        impedance_lut_entries(m, *pair)
    }

    /// Faces are computed in their axis block.
    fn lut_targets() -> Vec<(u32, Face)> {
        Face::ALL.iter().map(|&f| (1 + f.axis().index() as u32, f)).collect()
    }

    fn stage_constants(m: &ExpandedAcousticMapping, e: usize, out: &mut Vec<(usize, usize, f64)>) {
        let row = m.staging_row();
        let mat = *m.material(e);
        // The fused `jac_inv / ρ` form survives on the default path; the
        // PIM-placed form factors through the mirrored reciprocal.
        let neg_invrho_j = if m.recip_pim() {
            -(m.jac_inv() * m.recip(mat.rho))
        } else {
            -(m.jac_inv() / mat.rho)
        };
        let consts: [(usize, f64); 6] = [
            (xstaging::NEG_KAPPA_J, -(mat.kappa * m.jac_inv())),
            (xstaging::NEG_INV_RHO_J, neg_invrho_j),
            (xstaging::HALF, 0.5),
            (xstaging::Z, m.imp(mat.impedance())),
            (xstaging::KAPPA, mat.kappa),
            (xstaging::INV_RHO, m.recip(mat.rho)),
        ];
        out.extend(consts.map(|(col, v)| (row, col, v)));
    }

    fn math_site_params(m: &ExpandedAcousticMapping, elems: &[usize]) -> SiteParams {
        acoustic_site_params(m, elems)
    }

    /// The Fig. 8 Volume: duplicate p, per-axis local work, div_v
    /// exchange and reduction.
    fn emit_volume(m: &ExpandedAcousticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let pb = b.at(0);
        let all_rows: Vec<usize> = (0..m.nodes()).collect();
        let (c0, c1) = (vcol::CONST, vcol::CONST + 1);
        let s0 = vcol::SCRATCH;

        // Data duplication: fresh p into every velocity block.
        for a in 0..3 {
            m.ship_column(s, pb, pcol::P, v_block(b, a), vcol::P_COPY, &all_rows);
        }
        // Per-axis local volume work (these three blocks now proceed
        // independently — the parallelism the expansion buys).
        for a in 0..3 {
            let vb = v_block(b, a);
            m.bc(s, vb, xstaging::NEG_KAPPA_J, c0);
            m.bc(s, vb, xstaging::NEG_INV_RHO_J, c1);
            // grad_p[a] → own velocity contribution (fully local).
            m.emit_derivative(s, vb, a, vcol::P_COPY, s0);
            m.arith(s, vb, AluOp::Mul, vcol::CONTRIB, s0, c1);
            // div_v[a] partial → pressure block.
            m.emit_derivative(s, vb, a, vcol::V, s0);
            m.arith(s, vb, AluOp::Mul, vcol::VOL_PARTIAL, s0, c0);
            m.ship_column(s, vb, vcol::VOL_PARTIAL, pb, pcol::INCOMING + a, &all_rows);
        }
        // Reduce: contrib_p = ((in_x + in_y) + in_z).
        m.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::INCOMING, pcol::INCOMING + 1);
        m.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::CONTRIB, pcol::INCOMING + 2);
    }

    /// Clears each axis block's pressure partial and broadcasts `1/ρ`
    /// into its gather column (free during Flux).
    fn emit_flux_prologue(m: &ExpandedAcousticMapping, s: &mut InstrStream, b: ElemBlocks) {
        for a in 0..3 {
            let vb = v_block(b, a);
            m.zero(s, vb, vcol::FLUX_PARTIAL);
            m.bc(s, vb, xstaging::INV_RHO, vcol::COEFF);
        }
    }

    /// Fetches `(p, v_axis)` through the buffer block, then forwards it
    /// to the axis block (Fig. 9's two-hop path: the long haul lands
    /// once, the sibling hop fans out); a wall mirrors locally.
    fn emit_ghost_fetch(m: &ExpandedAcousticMapping, s: &mut InstrStream, e: usize, face: Face) {
        let pb = m.p_block(e);
        let axis = face.axis().index();
        let vb = m.v_block(e, axis);
        let own_table = m.topo().face_table(face);
        match m.mesh().neighbor(ElemId(e), face) {
            Neighbor::Element(nb) => {
                let nb_table = m.topo().face_table(face.opposite());
                for t in 0..m.topo().nodes_per_face() {
                    let src_p = m.p_block(nb.index());
                    s.push(Instr::Read {
                        block: src_p,
                        row: nb_table[t] as u16,
                        offset: pcol::P as u8,
                        words: 1,
                    });
                    s.push(Instr::Copy { src: src_p, dst: pb, words: 1 });
                    s.push(Instr::Write {
                        block: pb,
                        row: own_table[t] as u16,
                        offset: pcol::BUFFER as u8,
                        words: 1,
                    });
                    let src_v = m.v_block(nb.index(), axis);
                    s.push(Instr::Read {
                        block: src_v,
                        row: nb_table[t] as u16,
                        offset: vcol::V as u8,
                        words: 1,
                    });
                    s.push(Instr::Copy { src: src_v, dst: pb, words: 1 });
                    s.push(Instr::Write {
                        block: pb,
                        row: own_table[t] as u16,
                        offset: (pcol::BUFFER + 1) as u8,
                        words: 1,
                    });
                }
                #[allow(clippy::needless_range_loop)]
                for t in 0..m.topo().nodes_per_face() {
                    s.push(Instr::Read {
                        block: pb,
                        row: own_table[t] as u16,
                        offset: pcol::BUFFER as u8,
                        words: 2,
                    });
                    s.push(Instr::Copy { src: pb, dst: vb, words: 2 });
                    s.push(Instr::Write {
                        block: vb,
                        row: own_table[t] as u16,
                        offset: vcol::GHOST_P as u8,
                        words: 2,
                    });
                }
            }
            Neighbor::Boundary => {
                // Mirror ghost, locally in the axis block.
                m.arith(s, vb, AluOp::Mov, vcol::GHOST_P, vcol::P_COPY, vcol::P_COPY);
                m.arith(s, vb, AluOp::Neg, vcol::GHOST_V, vcol::V, vcol::V);
            }
        }
    }

    /// Row-parallel flux in the face's axis block (the one-block
    /// mapping's sequence with remapped columns).
    fn emit_face_flux(m: &ExpandedAcousticMapping, s: &mut InstrStream, b: ElemBlocks, face: Face) {
        let vb = v_block(b, face.axis().index());
        let (f, plus) = (face.code(), face.is_plus());
        let mask = vcol::MASK + f;
        let (s0, s1, s2, s3) =
            (vcol::SCRATCH, vcol::SCRATCH + 1, vcol::SCRATCH + 2, vcol::SCRATCH + 3);
        let (c0, c1, c2, c3) = (vcol::CONST, vcol::CONST + 1, vcol::CONST + 2, vcol::CONST + 3);
        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };

        m.arith(s, vb, sign_op, s0, vcol::V, vcol::V);
        m.arith(s, vb, sign_op, s1, vcol::GHOST_V, vcol::GHOST_V);

        let (p_star, vn_star) = match m.flux_kind() {
            FluxKind::Riemann => {
                let face_row = m.face_row(f);
                m.broadcast_from(s, vb, face_row, m.face_dest_col(f, 0), c0); // Z⁺
                m.broadcast_from(s, vb, face_row, m.face_dest_col(f, 1), c1); // Z⁻Z⁺
                m.broadcast_from(s, vb, face_row, m.face_dest_col(f, 2), c2); // inv
                m.bc(s, vb, xstaging::Z, c3); // Z⁻
                m.arith(s, vb, AluOp::Sub, s2, s0, s1);
                m.arith(s, vb, AluOp::Mul, s2, s2, c1);
                m.arith(s, vb, AluOp::Mul, s3, vcol::P_COPY, c0);
                m.arith(s, vb, AluOp::Mul, vcol::VALUE, vcol::GHOST_P, c3);
                m.arith(s, vb, AluOp::Add, s3, s3, vcol::VALUE);
                m.arith(s, vb, AluOp::Add, s3, s3, s2);
                m.arith(s, vb, AluOp::Mul, s3, s3, c2);
                m.arith(s, vb, AluOp::Mul, s2, s0, c3);
                m.arith(s, vb, AluOp::Mul, vcol::VALUE, s1, c0);
                m.arith(s, vb, AluOp::Add, s2, s2, vcol::VALUE);
                m.arith(s, vb, AluOp::Sub, vcol::VALUE, vcol::P_COPY, vcol::GHOST_P);
                m.arith(s, vb, AluOp::Add, s2, s2, vcol::VALUE);
                m.arith(s, vb, AluOp::Mul, s2, s2, c2);
                (s3, s2)
            }
            FluxKind::Central => {
                m.bc(s, vb, xstaging::HALF, c0);
                m.arith(s, vb, AluOp::Add, s3, vcol::P_COPY, vcol::GHOST_P);
                m.arith(s, vb, AluOp::Mul, s3, s3, c0);
                m.arith(s, vb, AluOp::Add, s2, s0, s1);
                m.arith(s, vb, AluOp::Mul, s2, s2, c0);
                (s3, s2)
            }
        };

        // out_p = κ(v_n⁻ − v_n*); out_v = ±(p⁻ − p*)/ρ.
        m.bc(s, vb, xstaging::KAPPA, c3);
        m.arith(s, vb, AluOp::Sub, s0, s0, vn_star);
        m.arith(s, vb, AluOp::Mul, s0, s0, c3);
        m.arith(s, vb, AluOp::Sub, s1, vcol::P_COPY, p_star);
        m.arith(s, vb, AluOp::Mul, s1, s1, vcol::COEFF); // × 1/ρ
        if !plus {
            m.arith(s, vb, AluOp::Neg, s1, s1, s1);
        }
        m.bc(s, vb, xstaging::LIFT, c3);
        m.arith(s, vb, AluOp::Mul, s0, s0, mask);
        m.arith(s, vb, AluOp::Mac, vcol::FLUX_PARTIAL, s0, c3);
        m.arith(s, vb, AluOp::Mul, s1, s1, mask);
        m.arith(s, vb, AluOp::Mac, vcol::CONTRIB, s1, c3);
    }

    /// Pressure partial reduction across the axis blocks.
    fn emit_flux_epilogue(m: &ExpandedAcousticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let pb = b.at(0);
        let all_rows: Vec<usize> = (0..m.nodes()).collect();
        for a in 0..3 {
            m.ship_column(s, v_block(b, a), vcol::FLUX_PARTIAL, pb, pcol::INCOMING + a, &all_rows);
        }
        for a in 0..3 {
            m.arith(s, pb, AluOp::Add, pcol::CONTRIB, pcol::CONTRIB, pcol::INCOMING + a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_math::{eval as math_eval, MathPlacement, ITERS_PER_STAGE};
    use pim_sim::PimChip;
    use wavesim_mesh::{Boundary, HexMesh};

    #[test]
    fn block_roles_are_consecutive() {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let m =
            ExpandedAcousticMapping::uniform(mesh, 3, FluxKind::Central, AcousticMaterial::UNIT);
        assert_eq!(m.p_block(0).0, 0);
        assert_eq!(m.v_block(0, 2).0, 3);
        assert_eq!(m.p_block(5).0, 20);
        assert_eq!(m.blocks_required(), 33);
        // The quartet shares a fanout-4 quad (one S0 switch).
        assert_eq!(m.p_block(5).0 / 4, m.v_block(5, 2).0 / 4);
    }

    #[test]
    #[should_panic(expected = "too many distinct face pairs")]
    fn lut_capacity_is_checked() {
        // 4096 elements with distinct impedances give 6 × 4096 face
        // pairs; one LUT block holds 1024 × 32 / 4 = 8192.
        let mesh = HexMesh::refinement_level(4, Boundary::Periodic);
        let materials =
            (0..mesh.num_elements()).map(|e| AcousticMaterial::new(1.0 + e as f64, 1.0)).collect();
        let _ = ExpandedAcousticMapping::new(mesh, 3, FluxKind::Riemann, materials);
    }

    #[test]
    fn pim_placed_math_routes_preloaded_constants_through_the_mirrors() {
        use wavesim_dg::State;
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mat = AcousticMaterial::new(2.0, 2.0); // Z = 2, in table range
        let mut m = ExpandedAcousticMapping::uniform(mesh, 3, FluxKind::Riemann, mat);
        let state = State::zeros(m.mesh().num_elements(), 4, m.nodes());

        let mut exact_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut exact_chip, &state, 1e-3);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        let mut pim_chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload(&mut pim_chip, &state, 1e-3);

        let row = m.staging_row();
        let b = m.v_block(0, 0);
        let z_exact = exact_chip.block(b).get(row, xstaging::Z);
        let z_pim = pim_chip.block(b).get(row, xstaging::Z);
        assert_eq!(z_exact, mat.impedance(), "default path must stay host-exact");
        let z = mat.impedance();
        assert_eq!(
            z_pim,
            math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap(),
            "PIM-placed impedance must equal the fixed-point mirror"
        );
        assert!((z_pim - z_exact).abs() / z_exact < 1e-6);

        let ir_exact = exact_chip.block(b).get(row, xstaging::INV_RHO);
        let ir_pim = pim_chip.block(b).get(row, xstaging::INV_RHO);
        assert_eq!(ir_exact, 1.0 / mat.rho);
        assert_eq!(ir_pim, math_eval::recip_eval(mat.rho, ITERS_PER_STAGE).unwrap());
        assert!((ir_pim - ir_exact).abs() < 1e-6);
    }

    #[test]
    fn expanded_stream_has_more_copies_than_naive() {
        // §6.2.1: expansion trades inter-block data movement for
        // parallelism: the p-duplication and div_v exchange show up as
        // extra copies.
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let exp = ExpandedAcousticMapping::uniform(
            mesh.clone(),
            3,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        let naive = crate::compiler::AcousticMapping::uniform(
            mesh,
            3,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        )
        .compile_stage(0);
        assert!(exp.stats().copies > naive.stats().copies);
    }
}
