//! Single-element data layout on a memory block (paper Fig. 5).
//!
//! A 1K×1K block stores one element: "We use the first 512 rows as
//! computation spaces for each node in the element. The variables,
//! contributions, and auxiliaries of each node are stored in the same
//! columns. We use the other 512 rows as storage spaces for storing
//! required constants of each element" (§5.1).
//!
//! Each row holds 32 words. The acoustic working set — 4 variables +
//! 4 auxiliaries + 4 contributions + 4 neighbor-ghost values + 6 face
//! masks + gather/scratch/constant columns — fills the row exactly. The
//! elastic working set (9 of each) cannot fit: `ElasticLayout` reports
//! the block requirement that motivates the paper's row-size expansion
//! (§5.1: "The 1K memory block row size is not enough for the nine
//! variables in the elastic wave simulation … we develop the expansion
//! technique to use four memory blocks to deploy one element").

use pim_isa::WORDS_PER_ROW;

/// Column map for the one-block acoustic element.
#[derive(Debug, Clone, Copy)]
pub struct AcousticLayout {
    /// Nodes per axis of the element (≤ 8, so ≤ 512 nodes).
    pub n: usize,
}

impl AcousticLayout {
    /// Number of state variables.
    pub const NUM_VARS: usize = 4;

    /// First variable column (p, vx, vy, vz contiguous).
    pub const VARS: usize = 0;
    /// First auxiliary column (LSRK registers).
    pub const AUX: usize = 4;
    /// First contribution column (volume + flux RHS).
    pub const CONTRIB: usize = 8;
    /// First ghost column (neighbor interface trace, refilled per face).
    pub const GHOST: usize = 12;
    /// First face-mask column (6 masks, one per face, preloaded 0/1).
    pub const MASK: usize = 16;
    /// Gathered derivative coefficient (`dshape` entry for this row).
    pub const COEFF: usize = 22;
    /// Gathered line value for the running derivative dot-product.
    pub const VALUE: usize = 23;
    /// Scratch columns (4).
    pub const SCRATCH: usize = 24;
    /// Broadcast-constant bank (4 columns, rotated between kernels).
    pub const CONST: usize = 28;

    /// First constants-storage row (`dshape`, materials, …).
    pub const CONST_ROWS: usize = 512;

    pub fn new(n: usize) -> Self {
        assert!(n >= 2 && n * n * n <= 512, "element must fit 512 compute rows");
        Self { n }
    }

    /// Nodes (= compute rows used) per element.
    pub fn nodes(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Variable column of variable `v`.
    pub fn var_col(v: usize) -> usize {
        assert!(v < Self::NUM_VARS);
        Self::VARS + v
    }

    /// Auxiliary column of variable `v`.
    pub fn aux_col(v: usize) -> usize {
        assert!(v < Self::NUM_VARS);
        Self::AUX + v
    }

    /// Contribution column of variable `v`.
    pub fn contrib_col(v: usize) -> usize {
        assert!(v < Self::NUM_VARS);
        Self::CONTRIB + v
    }

    /// Ghost column of variable `v`.
    pub fn ghost_col(v: usize) -> usize {
        assert!(v < Self::NUM_VARS);
        Self::GHOST + v
    }

    /// Mask column of face code `f`.
    pub fn mask_col(f: usize) -> usize {
        assert!(f < 6);
        Self::MASK + f
    }

    /// Scratch column `i` (0..4).
    pub fn scratch_col(i: usize) -> usize {
        assert!(i < 4);
        Self::SCRATCH + i
    }

    /// Constant-bank column `i` (0..4).
    pub fn const_col(i: usize) -> usize {
        assert!(i < 4);
        Self::CONST + i
    }

    /// Constants-storage row holding row `a` of the `dshape` matrix.
    pub fn dshape_row(&self, a: usize) -> usize {
        assert!(a < self.n);
        Self::CONST_ROWS + a
    }

    /// Constants-storage row holding the broadcast-constant staging area.
    pub fn const_staging_row(&self) -> usize {
        Self::CONST_ROWS + self.n
    }

    /// Static check: the layout fills the 32-word row without overflow.
    pub fn columns_used() -> usize {
        Self::CONST + 4
    }
}

/// The elastic element's block requirement.
#[derive(Debug, Clone, Copy)]
pub struct ElasticLayout;

impl ElasticLayout {
    /// Number of state variables (3 velocity + 6 stress).
    pub const NUM_VARS: usize = 9;

    /// Words a single-block elastic element would need per row:
    /// 9 vars + 9 aux + 9 contrib + 9 ghosts + 6 masks + gather/scratch/
    /// const columns — far beyond the 32-word row.
    pub fn words_needed_single_block() -> usize {
        9 * 4 + 6 + 2 + 4 + 4
    }

    /// Whether one block suffices (it never does — the paper's point).
    pub fn fits_one_block() -> bool {
        Self::words_needed_single_block() <= WORDS_PER_ROW
    }

    /// Blocks per element under row-size expansion (`E_r` in Table 5).
    /// The paper distributes the nine variables over multiple blocks and
    /// settles on four blocks per element (§5.1, §6.2.2): three carry
    /// three variables each (3 × 12 working columns + shared machinery
    /// fits a row), one buffers neighbor data and coordinates.
    pub const EXPANSION_BLOCKS: usize = 4;
}

/// Roles of the four blocks of a row-expanded elastic element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticRole {
    /// Velocity block: vx, vy, vz.
    Velocity,
    /// Diagonal-stress block: sxx, syy, szz.
    DiagStress,
    /// Shear-stress block: sxy, sxz, syz.
    ShearStress,
    /// Neighbor-data buffer (the dedicated block of Fig. 9: "One block
    /// is used for buffering the required neighbor data variables").
    Buffer,
}

impl ElasticRole {
    /// Block offset within the element's four consecutive blocks.
    pub fn offset(self) -> usize {
        match self {
            ElasticRole::Velocity => 0,
            ElasticRole::DiagStress => 1,
            ElasticRole::ShearStress => 2,
            ElasticRole::Buffer => 3,
        }
    }
}

/// Column map shared by the three elastic data blocks.
///
/// Each data block carries its own three variables through the same
/// var/aux/contrib/ghost/mask machinery as the acoustic layout, plus
/// three transfer columns for the cross-block derivative and flux
/// exchange of Figs. 8–9. The velocity block additionally reuses its
/// ghost columns as outgoing stress-contribution space during Volume
/// (ghosts are only live during Flux). The row geometry (`dshape`,
/// staging rows) is the mapping core's, shared by every mapping.
#[derive(Debug, Clone, Copy)]
pub struct ElasticBlockLayout;

impl ElasticBlockLayout {
    pub const VARS: usize = 0;
    pub const AUX: usize = 3;
    pub const CONTRIB: usize = 6;
    pub const GHOST: usize = 9;
    pub const MASK: usize = 12;
    pub const COEFF: usize = 18;
    pub const VALUE: usize = 19;
    pub const SCRATCH: usize = 20;
    pub const CONST: usize = 24;
    /// Cross-block transfer columns.
    pub const XFER: usize = 28;
    /// One spare column.
    pub const SPARE: usize = 31;

    pub fn var_col(slot: usize) -> usize {
        assert!(slot < 3);
        Self::VARS + slot
    }

    pub fn aux_col(slot: usize) -> usize {
        assert!(slot < 3);
        Self::AUX + slot
    }

    pub fn contrib_col(slot: usize) -> usize {
        assert!(slot < 3);
        Self::CONTRIB + slot
    }

    pub fn ghost_col(slot: usize) -> usize {
        assert!(slot < 3);
        Self::GHOST + slot
    }

    pub fn mask_col(f: usize) -> usize {
        assert!(f < 6);
        Self::MASK + f
    }

    pub fn scratch_col(i: usize) -> usize {
        assert!(i < 4);
        Self::SCRATCH + i
    }

    pub fn const_col(i: usize) -> usize {
        assert!(i < 4);
        Self::CONST + i
    }

    pub fn xfer_col(i: usize) -> usize {
        assert!(i < 3);
        Self::XFER + i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::BLOCK_ROWS;

    #[test]
    fn acoustic_layout_fits_exactly() {
        // 4+4+4+4 data columns + 6 masks + 2 gather + 4 scratch + 4
        // constants = 32: the row is exactly full.
        assert_eq!(AcousticLayout::columns_used(), WORDS_PER_ROW);
    }

    #[test]
    fn acoustic_columns_are_disjoint() {
        let mut used = [false; WORDS_PER_ROW];
        let mut claim = |c: usize| {
            assert!(!used[c], "column {c} double-booked");
            used[c] = true;
        };
        for v in 0..4 {
            claim(AcousticLayout::var_col(v));
            claim(AcousticLayout::aux_col(v));
            claim(AcousticLayout::contrib_col(v));
            claim(AcousticLayout::ghost_col(v));
        }
        for f in 0..6 {
            claim(AcousticLayout::mask_col(f));
        }
        claim(AcousticLayout::COEFF);
        claim(AcousticLayout::VALUE);
        for i in 0..4 {
            claim(AcousticLayout::scratch_col(i));
            claim(AcousticLayout::const_col(i));
        }
        assert!(used.iter().all(|&u| u), "every column accounted for");
    }

    #[test]
    fn paper_element_fills_the_compute_rows() {
        // The paper's 512-node element (8×8×8) uses rows 0..512 for
        // computation and 512.. for constants.
        let l = AcousticLayout::new(8);
        assert_eq!(l.nodes(), 512);
        assert_eq!(AcousticLayout::CONST_ROWS, 512);
        assert!(l.dshape_row(7) < BLOCK_ROWS);
        assert!(l.const_staging_row() < BLOCK_ROWS);
    }

    #[test]
    #[should_panic(expected = "fit 512 compute rows")]
    fn oversized_element_is_rejected() {
        let _ = AcousticLayout::new(9);
    }

    #[test]
    fn elastic_cannot_fit_one_block() {
        // §5.1: "The 1K memory block row size is not enough for the nine
        // variables in the elastic wave simulation."
        assert!(!ElasticLayout::fits_one_block());
        assert!(ElasticLayout::words_needed_single_block() > WORDS_PER_ROW);
        assert_eq!(ElasticLayout::EXPANSION_BLOCKS, 4);
    }
}
