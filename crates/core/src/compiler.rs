//! Compilation of the dG kernels into PIM instruction streams.
//!
//! This is the executable form of §5 of the paper: one element per memory
//! block (the naive acoustic mapping), nodes on rows, variables on
//! columns, with the Fig. 5 execution timeline:
//!
//! * **Volume** — derivative dot-products built from per-coefficient
//!   *gather* passes (intra-block row data movement staging the line
//!   value and the `dshape` coefficient into dedicated columns) followed
//!   by one row-parallel MAC each: all nodes advance their dot-product
//!   simultaneously,
//! * **Flux** — per face: neighbor interface traces fetched with
//!   Read → Copy → Write triples over the interconnect (the `I₀…I₄`
//!   sequence of Fig. 3), then a row-parallel flux evaluation whose
//!   result is folded into the contributions through the face's 0/1 mask
//!   column,
//! * **Integration** — the LSRK stage as four row-parallel operations per
//!   variable using broadcast `A`, `B`, `dt` constants.
//!
//! The emitted streams run on the `pim-sim` functional chip and reproduce
//! the native solver's arithmetic to floating-point-roundoff tolerance
//! (the only deliberate deviation: the PIM multiplies by host-precomputed
//! reciprocals where the CPU code divides, since bit-serial NOR division
//! is exactly what the paper offloads to the host, §4.3).
//!
//! Placement, preload, data movement and stream assembly live in the
//! shared [`crate::mapping::Mapping`] core; this module supplies the
//! one-block [`NaiveAcoustic`] kernels.

use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_math::{MathPlacement, MathSite, RecipDest, SiteParams, SqrtDest};
use wavesim_dg::physics::acoustic_vars;
use wavesim_dg::{AcousticMaterial, FluxKind};
use wavesim_mesh::{ElemId, Face, Neighbor};

use crate::layout::AcousticLayout as L;
use crate::mapping::{ElemBlocks, ElementKernels, Mapping, VarSlot};

/// Staging-row columns for host-precomputed element-wide constants
/// (the shared ones are in [`crate::mapping::staging`]).
mod staging {
    pub const NEG_KAPPA_J: usize = 0;
    pub const NEG_INV_RHO_J: usize = 1;
    pub const HALF: usize = 2;
    pub const Z: usize = 3;
    /// `−jac_inv` — staged only for the on-PIM reciprocal lane, which
    /// multiplies it with its freshly computed `1/ρ` to produce
    /// [`NEG_INV_RHO_J`] on chip.
    pub const NEG_JAC: usize = 4;
    pub const KAPPA: usize = 6;
    pub const INV_RHO: usize = 7;
    pub use crate::mapping::staging::LIFT;
}

const fn acoustic_slot(v: usize) -> VarSlot {
    VarSlot { block: 0, var: L::VARS + v, aux: L::AUX + v, contrib: L::CONTRIB + v }
}

/// The one-block-per-element acoustic kernels (naive technique `N` of
/// Table 5) — the configuration the paper's Fig. 5 walks through.
#[derive(Debug, Clone, Copy)]
pub struct NaiveAcoustic;

/// The one-block acoustic mapping.
pub type AcousticMapping = Mapping<NaiveAcoustic>;

impl AcousticMapping {
    /// The memory block hosting an element.
    pub fn block_of(&self, elem: usize) -> BlockId {
        self.block(elem, 0)
    }

    /// Number of distinct impedance pairs in the LUT.
    pub fn num_impedance_pairs(&self) -> usize {
        self.num_pairs()
    }

    /// One element's math placement site: the sqrt lane on the constants
    /// staging row, the reciprocal lane on the first face-staging row
    /// (columns 25..31 are free on both).
    fn math_site(&self, elem: usize) -> MathSite {
        let row = self.staging_row() as u16;
        MathSite {
            block: self.block_of(elem),
            row,
            aux_row: row + 1,
            math_block: self.math_block().0,
        }
    }
}

/// The sqrt lane's raw operand: `κρ` (so `√x` is the impedance `Z`);
/// the reciprocal lane's: `ρ` (so `1/x` is `1/ρ`).
fn math_operands(m: &AcousticMaterial) -> (f64, f64) {
    (m.kappa * m.rho, m.rho)
}

/// The acoustic op-site summary, shared with the expanded mapping.
pub(crate) fn acoustic_site_params<K: ElementKernels<Material = AcousticMaterial>>(
    m: &Mapping<K>,
    elems: &[usize],
) -> SiteParams {
    let w = wavesim_dg::opcount::acoustic_workload(m.n(), m.flux_kind());
    m.site_params(elems, w, |mat| {
        let (sqrt, recip) = math_operands(mat);
        ([sqrt], recip)
    })
}

/// The acoustic LUT entries of an impedance pair:
/// `[Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺)]`. When an op runs on-PIM, the entries derived
/// from it go through the same LUT + Newton arithmetic as the chip, so
/// the table stays consistent with the chip-computed constants.
pub(crate) fn impedance_lut_entries<K: ElementKernels>(
    m: &Mapping<K>,
    (zm, zp): (f64, f64),
) -> Vec<f64> {
    let (zm, zp) = (m.imp(zm), m.imp(zp));
    vec![zp, zm * zp, m.recip(zm + zp)]
}

impl ElementKernels for NaiveAcoustic {
    type Material = AcousticMaterial;
    /// (own impedance, neighbor-or-wall impedance).
    type Pair = (f64, f64);

    const BLOCKS: u32 = 1;
    const VARS: &'static [VarSlot] =
        &[acoustic_slot(0), acoustic_slot(1), acoustic_slot(2), acoustic_slot(3)];
    /// Auxiliaries, contributions and ghosts.
    const DYNAMIC: &'static [(u32, &'static [usize])] =
        &[(0, &[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])];
    const STATIC_BLOCKS: &'static [u32] = &[0];
    const MASK: usize = L::MASK;
    const COEFF: usize = L::COEFF;
    const VALUE: usize = L::VALUE;
    const SCRATCH: usize = L::SCRATCH;
    const CONST: usize = L::CONST;
    /// Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺).
    const FACE_CONSTS: usize = 3;
    const FACES_PER_ROW: usize = 3;
    const PHASED_FLUX: bool = true;
    const ONPIM_MATH: bool = true;

    fn pair(own: &AcousticMaterial, nb: &AcousticMaterial) -> (f64, f64) {
        (own.impedance(), nb.impedance())
    }

    fn lut_entries(m: &AcousticMapping, pair: &(f64, f64)) -> Vec<f64> {
        impedance_lut_entries(m, *pair)
    }

    fn lut_targets() -> Vec<(u32, Face)> {
        Face::ALL.iter().map(|&f| (0, f)).collect()
    }

    fn stage_constants(m: &AcousticMapping, e: usize, out: &mut Vec<(usize, usize, f64)>) {
        let row = m.staging_row();
        let mat = *m.material(e);
        let (sqrt_pim, recip_pim) = (m.sqrt_pim(), m.recip_pim());
        // Host-computed, including the reciprocals the paper's host
        // offload provides.
        let consts: [(usize, f64); 6] = [
            (staging::NEG_KAPPA_J, -(mat.kappa * m.jac_inv())),
            (staging::NEG_INV_RHO_J, -(m.jac_inv() / mat.rho)),
            (staging::HALF, 0.5),
            (staging::Z, mat.impedance()),
            (staging::KAPPA, mat.kappa),
            (staging::INV_RHO, 1.0 / mat.rho),
        ];
        for (col, value) in consts {
            // Constants an on-PIM lane computes itself are not
            // host-staged: the chip's own finalize multiplies write them
            // each stage.
            let on_pim = (sqrt_pim && col == staging::Z)
                || (recip_pim && (col == staging::INV_RHO || col == staging::NEG_INV_RHO_J));
            if !on_pim {
                out.push((row, col, value));
            }
        }
        if recip_pim {
            out.push((row, staging::NEG_JAC, -m.jac_inv()));
        }
        if let Some(p) = m.math_placement() {
            let (sqrt, recip) = math_operands(&mat);
            for (r, c, v) in m.math_site(e).staged_values(p, sqrt, recip) {
                out.push((r as usize, c as usize, v));
            }
        }
    }

    fn math_site_params(m: &AcousticMapping, elems: &[usize]) -> SiteParams {
        acoustic_site_params(m, elems)
    }

    /// The Fig. 5 left timeline: grad p → velocity contributions, then
    /// div v → pressure contribution (the native kernel's loop order).
    fn emit_volume(m: &AcousticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let block = b.at(0);
        let (c0, c1) = (L::const_col(0), L::const_col(1));
        m.bc(s, block, staging::NEG_KAPPA_J, c0);
        m.bc(s, block, staging::NEG_INV_RHO_J, c1);
        for v in 0..L::NUM_VARS {
            m.zero(s, block, L::contrib_col(v));
        }
        let deriv = L::scratch_col(0);
        for axis in 0..3 {
            m.emit_derivative(s, block, axis, L::var_col(acoustic_vars::P), deriv);
            // contrib_v[axis] = deriv × (−jac_inv/ρ).
            m.arith(s, block, AluOp::Mul, L::contrib_col(acoustic_vars::VX + axis), deriv, c1);
        }
        for axis in 0..3 {
            m.emit_derivative(s, block, axis, L::var_col(acoustic_vars::VX + axis), deriv);
            // contrib_p += deriv × (−κ·jac_inv).
            m.arith(s, block, AluOp::Mac, L::contrib_col(acoustic_vars::P), deriv, c0);
        }
    }

    /// Kernel-wide constant bank for Flux: the element's own impedance
    /// and 1/ρ live in the gather columns (free during Flux); the
    /// per-face interface constants rotate through the bank inside
    /// [`Self::emit_face_flux`].
    fn emit_flux_prologue(m: &AcousticMapping, s: &mut InstrStream, b: ElemBlocks) {
        let block = b.at(0);
        match m.flux_kind() {
            FluxKind::Riemann => {
                m.bc(s, block, staging::Z, L::COEFF);
                m.bc(s, block, staging::INV_RHO, L::VALUE);
            }
            FluxKind::Central => {
                m.bc(s, block, staging::HALF, L::const_col(0));
                m.bc(s, block, staging::KAPPA, L::const_col(3));
                m.bc(s, block, staging::INV_RHO, L::COEFF);
                m.bc(s, block, staging::LIFT, L::VALUE);
            }
        }
    }

    /// Fetches the neighbor's interface trace into the ghost columns
    /// (Read at the neighbor, Copy over the interconnect, Write at home —
    /// the Fig. 3 `I₀…I₄` procedure), or synthesizes the rigid-wall
    /// mirror ghost locally.
    fn emit_ghost_fetch(m: &AcousticMapping, s: &mut InstrStream, elem: usize, face: Face) {
        let block = m.block_of(elem);
        let topo = m.topo();
        let own_table = topo.face_table(face);
        match m.mesh().neighbor(ElemId(elem), face) {
            Neighbor::Element(nb) => {
                let nb_block = m.block_of(nb.index());
                let nb_table = topo.face_table(face.opposite());
                for t in 0..topo.nodes_per_face() {
                    s.push(Instr::Read {
                        block: nb_block,
                        row: nb_table[t] as u16,
                        offset: L::VARS as u8,
                        words: L::NUM_VARS as u8,
                    });
                    s.push(Instr::Copy { src: nb_block, dst: block, words: L::NUM_VARS as u16 });
                    s.push(Instr::Write {
                        block,
                        row: own_table[t] as u16,
                        offset: L::GHOST as u8,
                        words: L::NUM_VARS as u8,
                    });
                }
            }
            Neighbor::Boundary => {
                // Mirror ghost: copy own variables, negate the normal
                // velocity (row-parallel; non-face rows are masked later).
                for v in 0..L::NUM_VARS {
                    m.arith(s, block, AluOp::Mov, L::ghost_col(v), L::var_col(v), L::var_col(v));
                }
                let g = L::ghost_col(acoustic_vars::VX + face.axis().index());
                m.arith(s, block, AluOp::Neg, g, g, g);
            }
        }
    }

    /// The row-parallel flux evaluation for one face, masked into the
    /// contributions. Mirrors `Acoustic::face_flux` + lift term for term.
    fn emit_face_flux(m: &AcousticMapping, s: &mut InstrStream, b: ElemBlocks, face: Face) {
        use acoustic_vars::{P, VX};
        let block = b.at(0);
        let axis = face.axis().index();
        let plus = face.is_plus();
        let f = face.code();
        let mask = L::mask_col(f);
        let p_col = L::var_col(P);
        let gp = L::ghost_col(P);
        let v_col = L::var_col(VX + axis);
        let gv = L::ghost_col(VX + axis);
        let (s0, s1, s2, s3) =
            (L::scratch_col(0), L::scratch_col(1), L::scratch_col(2), L::scratch_col(3));
        // Tangential ghost velocities never feed the acoustic flux —
        // their columns double as extra scratch.
        let t4 = L::ghost_col(VX + (axis + 1) % 3);

        let sign_op = if plus { AluOp::Mov } else { AluOp::Neg };
        // v_n⁻ and v_n⁺ (normal components, sign folded in).
        m.arith(s, block, sign_op, s0, v_col, v_col);
        m.arith(s, block, sign_op, s1, gv, gv);

        let (p_star, vn_star) = match m.flux_kind() {
            FluxKind::Riemann => {
                // Rotate this face's LUT-provided interface constants
                // (Z⁺, Z⁻Z⁺, 1/(Z⁻+Z⁺)) plus κ into the bank; the own
                // impedance Z⁻ sits in COEFF for the whole kernel.
                let face_row = m.face_row(f);
                let (zp, zz, inv, c3) =
                    (L::const_col(0), L::const_col(1), L::const_col(2), L::const_col(3));
                let zm = L::COEFF;
                m.broadcast_from(s, block, face_row, m.face_dest_col(f, 0), zp);
                m.broadcast_from(s, block, face_row, m.face_dest_col(f, 1), zz);
                m.broadcast_from(s, block, face_row, m.face_dest_col(f, 2), inv);
                m.bc(s, block, staging::KAPPA, c3);
                // p* = ((Z⁺·p⁻ + Z⁻·p⁺) + Z⁻Z⁺(v_n⁻ − v_n⁺)) / (Z⁻+Z⁺)
                m.arith(s, block, AluOp::Sub, s2, s0, s1);
                m.arith(s, block, AluOp::Mul, s2, s2, zz);
                m.arith(s, block, AluOp::Mul, s3, p_col, zp);
                m.arith(s, block, AluOp::Mul, t4, gp, zm);
                m.arith(s, block, AluOp::Add, s3, s3, t4);
                m.arith(s, block, AluOp::Add, s3, s3, s2);
                m.arith(s, block, AluOp::Mul, s3, s3, inv);
                // v_n* = ((Z⁻·v_n⁻ + Z⁺·v_n⁺) + (p⁻ − p⁺)) / (Z⁻+Z⁺)
                m.arith(s, block, AluOp::Mul, s2, s0, zm);
                m.arith(s, block, AluOp::Mul, t4, s1, zp);
                m.arith(s, block, AluOp::Add, s2, s2, t4);
                m.arith(s, block, AluOp::Sub, t4, p_col, gp);
                m.arith(s, block, AluOp::Add, s2, s2, t4);
                m.arith(s, block, AluOp::Mul, s2, s2, inv);
                (s3, s2)
            }
            FluxKind::Central => {
                let half = L::const_col(0);
                m.arith(s, block, AluOp::Add, s3, p_col, gp);
                m.arith(s, block, AluOp::Mul, s3, s3, half);
                m.arith(s, block, AluOp::Add, s2, s0, s1);
                m.arith(s, block, AluOp::Mul, s2, s2, half);
                (s3, s2)
            }
        };

        let kappa = L::const_col(3);
        let inv_rho = match m.flux_kind() {
            FluxKind::Riemann => L::VALUE,
            FluxKind::Central => L::COEFF,
        };
        // out_p = κ (v_n⁻ − v_n*)
        m.arith(s, block, AluOp::Sub, s0, s0, vn_star);
        m.arith(s, block, AluOp::Mul, s0, s0, kappa);
        // coeff = (p⁻ − p*) / ρ, directed along the normal (±axis).
        m.arith(s, block, AluOp::Sub, s1, p_col, p_star);
        m.arith(s, block, AluOp::Mul, s1, s1, inv_rho);
        if !plus {
            m.arith(s, block, AluOp::Neg, s1, s1, s1);
        }
        // The lift constant rotates into κ's slot once κ is consumed
        // (Riemann runs out of bank columns otherwise).
        let lift = match m.flux_kind() {
            FluxKind::Riemann => {
                m.bc(s, block, staging::LIFT, kappa);
                kappa
            }
            FluxKind::Central => L::VALUE,
        };
        // Masked lift accumulation into the contributions.
        m.arith(s, block, AluOp::Mul, s0, s0, mask);
        m.arith(s, block, AluOp::Mac, L::contrib_col(P), s0, lift);
        m.arith(s, block, AluOp::Mul, s1, s1, mask);
        m.arith(s, block, AluOp::Mac, L::contrib_col(VX + axis), s1, lift);
    }

    /// Range reduction, `Lut` seed fetch and `x/2` precompute.
    fn emit_math_setup(m: &AcousticMapping, s: &mut InstrStream, e: usize, p: MathPlacement) {
        m.math_site(e).emit_setup(s, p);
    }

    /// Newton steps refining the seeds in place, then the finalize
    /// multiplies that write the staged `Z`, `1/ρ` and `−jac/ρ`.
    fn emit_math_stage(m: &AcousticMapping, s: &mut InstrStream, e: usize, p: MathPlacement) {
        let sqrt_dest = SqrtDest { col: staging::Z as u8 };
        let recip_dest = RecipDest {
            inv_col: staging::INV_RHO as u8,
            neg_jac_col: staging::NEG_JAC as u8,
            neg_col: staging::NEG_INV_RHO_J as u8,
        };
        m.math_site(e).emit_stage(s, p, Some(sqrt_dest), Some(recip_dest));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_math::{eval as math_eval, Placement, ITERS_PER_STAGE};
    use pim_sim::{ChipConfig, PimChip};
    use wavesim_dg::State;
    use wavesim_mesh::Boundary;
    use wavesim_mesh::HexMesh;

    fn mapping(flux: FluxKind) -> AcousticMapping {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        AcousticMapping::uniform(mesh, 3, flux, AcousticMaterial::new(2.0, 0.5))
    }

    #[test]
    fn stage_stream_shape() {
        let m = mapping(FluxKind::Riemann);
        let s = m.compile_stage(0);
        let st = s.stats();
        // 8 elements, each with inter-block ghost fetches: 6 faces × 9
        // face nodes × 1 copy.
        assert_eq!(st.copies, 8 * 6 * 9);
        assert!(st.ariths > 0);
        // Phased flux: one sync after Volume, two per face phase (6
        // faces), one before and one after Integration.
        assert_eq!(st.syncs, 15);
        // Every copy moves the 4 acoustic variables.
        assert_eq!(st.copy_words, st.copies * 4);
    }

    #[test]
    fn preload_and_extract_round_trip() {
        let m = mapping(FluxKind::Central);
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        let mut state = State::zeros(8, 4, 27);
        state.fill_with(|e, v, n| (e * 100 + v * 10 + n) as f64 * 0.01);
        m.preload(&mut chip, &state, 1e-3);
        let out = m.extract_state(&mut chip);
        assert_eq!(out.max_abs_diff(&state), 0.0);
    }

    #[test]
    fn shard_map_packs_window_and_shares_one_parked_slot() {
        // Level-2 mesh (64 elements), a 16-element shard with 8 ghosts:
        // the parked 40 elements must all share slot 24 so the LUT lands
        // at 25 regardless of mesh size.
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let mut m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let residents: Vec<usize> = (0..16).collect();
        let ghosts: Vec<usize> = (16..24).collect();
        let window = m.install_shard_map(&residents, &ghosts);
        assert_eq!(window, 24);
        for (i, &e) in residents.iter().chain(&ghosts).enumerate() {
            assert_eq!(m.block_of(e).0, i as u32);
        }
        for e in 24..64 {
            assert_eq!(m.block_of(e).0, window);
        }
        assert_eq!(m.lut_block().0, window + 1);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn shard_map_rejects_overlapping_window() {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mut m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let _ = m.install_shard_map(&[0, 1], &[1]);
    }

    #[test]
    fn central_stream_is_smaller_than_riemann() {
        let c = mapping(FluxKind::Central).compile_stage(0);
        let r = mapping(FluxKind::Riemann).compile_stage(0);
        assert!(
            c.stats().ariths < r.stats().ariths,
            "central {} vs riemann {}",
            c.stats().ariths,
            r.stats().ariths
        );
    }

    #[test]
    fn blocks_required_counts_the_lut_block() {
        // Identity placement: 8 element blocks, then the LUT at block 8.
        let m = mapping(FluxKind::Riemann);
        assert_eq!(m.lut_block().0, 8);
        assert_eq!(m.blocks_required(), 8 + 1);
        // Shard placement: window, one parked slot, then the LUT.
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let mut m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let window =
            m.install_shard_map(&(0..16).collect::<Vec<_>>(), &(16..24).collect::<Vec<_>>());
        assert_eq!(m.blocks_required(), window as usize + 2);
    }

    #[test]
    fn legacy_mapping_emits_no_math_streams_and_reserves_no_extra_block() {
        let m = mapping(FluxKind::Riemann);
        assert_eq!(m.blocks_required(), 9);
        let elems: Vec<usize> = (0..8).collect();
        assert!(m.compile_math_setup_for(&elems).instrs().is_empty());
        assert!(m.compile_math_stage_for(&elems).instrs().is_empty());
        // All-host placements also stay stream-free but are recorded.
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement::all_host()));
        assert_eq!(m.blocks_required(), 9);
        assert!(m.compile_math_stage_for(&elems).instrs().is_empty());
    }

    #[test]
    fn on_pim_math_streams_reproduce_the_eval_mirrors_bit_exactly() {
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement::all_onpim()));
        assert_eq!(m.blocks_required(), 10);
        let mut chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        let elems: Vec<usize> = (0..8).collect();
        m.preload_static_subset(&mut chip, 1e-3, &elems);
        chip.execute(&m.compile_math_setup_for(&elems));
        chip.execute(&m.compile_math_stage_for(&elems));

        // κ = 2.0, ρ = 0.5 → sqrt operand κρ = 1.0, recip operand 0.5.
        let row = m.staging_row();
        let b = chip.block(BlockId(0));
        let z = b.get(row, staging::Z);
        let inv_rho = b.get(row, staging::INV_RHO);
        let neg = b.get(row, staging::NEG_INV_RHO_J);
        let neg_jac = b.get(row, staging::NEG_JAC);
        assert_eq!(z, math_eval::sqrt_eval(1.0, ITERS_PER_STAGE).unwrap());
        assert_eq!(inv_rho, math_eval::recip_eval(0.5, ITERS_PER_STAGE).unwrap());
        assert_eq!(neg, inv_rho * neg_jac);

        // A second stage refines the seeds in place (two more steps).
        chip.execute(&m.compile_math_stage_for(&elems));
        let z2 = chip.block(BlockId(0)).get(row, staging::Z);
        assert_eq!(z2, math_eval::sqrt_eval(1.0, 2 * ITERS_PER_STAGE).unwrap());
        assert!((z2 - 1.0).abs() <= (z - 1.0).abs());
    }

    #[test]
    fn on_pim_preload_skips_host_exact_constants_for_pim_lanes() {
        let mut m = mapping(FluxKind::Riemann);
        m.set_math_placement(Some(MathPlacement {
            sqrt: Placement::OnPim,
            reciprocal: Placement::Host,
        }));
        let mut chip = PimChip::new(pim_sim::ChipConfig::default_2gb());
        m.preload_static_subset(&mut chip, 1e-3, &[0]);
        let row = m.staging_row();
        let b = chip.block(BlockId(0));
        // Z left for the chip to produce; the host-placed reciprocal
        // constants stay exact.
        assert_eq!(b.get(row, staging::Z), 0.0);
        assert_eq!(b.get(row, staging::INV_RHO), 1.0 / 0.5);
    }

    #[test]
    fn math_site_params_capture_opcounts_and_operand_ranges() {
        let m = mapping(FluxKind::Riemann);
        let p = m.math_site_params(&[0, 1, 2]);
        assert_eq!(p.elems, 3);
        assert_eq!(p.sqrts_per_elem, 1);
        assert_eq!(p.divs_per_elem, 1);
        assert_eq!(p.sqrt_operands, (1.0, 1.0)); // κρ = 2.0 · 0.5
        assert_eq!(p.recip_operands, (0.5, 0.5));
        assert!(p.sqrt_supported() && p.recip_supported());
    }

    #[test]
    fn wall_mesh_emits_no_boundary_copies_at_walls() {
        let mesh = HexMesh::refinement_level(0, Boundary::Wall);
        let m = AcousticMapping::uniform(mesh, 3, FluxKind::Riemann, AcousticMaterial::UNIT);
        let s = m.compile_stage(0);
        // Single element, all 6 faces are walls: zero inter-block copies.
        assert_eq!(s.stats().copies, 0);
    }
}
