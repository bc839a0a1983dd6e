//! The mapping core shared by every element → block mapping.
//!
//! The paper's three mappings — naive acoustic (`N`, Fig. 5), expanded
//! acoustic (`E_p`, Fig. 8) and row-expanded elastic (`E_r`, Fig. 9) —
//! follow one discipline: place an element's blocks, stage its
//! constants, and compile Volume / Flux / Integration for the elements a
//! chip holds. [`Mapping`] holds that discipline once. An
//! [`ElementKernels`] implementation supplies only what differs per
//! mapping: the blocks per element and the column of each variable, the
//! staged constants, the LUT pair key and entries, and the kernel
//! emitters.
//!
//! **Kernels.** Each kernel compiles to [`KernelParts`]. The uniform
//! emitters take an element's [`ElemBlocks`], not its index: what they
//! emit depends on nothing else. A one-block element's uniform phase
//! (Volume, the flux prologue and epilogue, each face's flux evaluation,
//! Integration) is one run of block-local ops on its block, so it is
//! emitted once and repeated over the shard's block set. What names
//! other elements or moves data between blocks — ghost fetches, the
//! on-PIM math, halo DMAs, LUT set-up, and every phase of a multi-block
//! element — is emitted element by element. `compile_*_for` returns the
//! expansion of the same parts.
//!
//! **Placement.** Element `e` occupies the [`ElementKernels::BLOCKS`]
//! consecutive blocks starting at `slot(e) × BLOCKS` (a four-block
//! element thus shares its lowest H-tree switch). The slot map is the
//! identity unless a runner installs one. The face-pair look-up table
//! sits in the first block past the highest slot, and the on-PIM math
//! seed table right after it.
//!
//! **Constants.** Rows `512..` of every block that carries the static
//! image hold the `dshape` rows (`512 + a`), the element-wide staging row
//! (`512 + n`, shared columns in [`staging`]) and the face-staging rows
//! after it. Each face's LUT indices sit in the same row as the
//! constants they fetch, as Algorithm 1 requires.

use pim_isa::{AluOp, BlockId, Instr, InstrStream, BLOCK_ROWS, WORDS_PER_ROW};
use pim_math::{eval as math_eval, MathPlacement, Placement, SiteParams, ITERS_PER_STAGE};
use pim_sim::PimChip;
use wavesim_dg::kernels::flux::FluxTopology;
use wavesim_dg::opcount::ElementWorkload;
use wavesim_dg::{FluxKind, Lsrk5, State};
use wavesim_mesh::{ElemId, Face, HexMesh, Neighbor};
use wavesim_numerics::gll::GllRule;
use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::{node_coords, node_index};

use crate::program_cache::KernelParts;

/// First constants-storage row: rows below hold one node each.
const CONST_ROWS: usize = 512;

/// Bytes per variable value moved off chip (fp32 words).
const BYTES_PER_VALUE: usize = 4;

/// Staging-row columns every mapping shares.
pub mod staging {
    /// The lift factor of the face integrals.
    pub const LIFT: usize = 8;
    /// The time-step.
    pub const DT: usize = 9;
    /// LSRK `A` coefficients, one column per stage.
    pub const A0: usize = 10;
    /// LSRK `B` coefficients, one column per stage.
    pub const B0: usize = 15;
    /// First LUT-index column of a face-staging row.
    pub const FACE_INDEX_BASE: usize = 16;
}

/// Where one state variable lives within its element's blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarSlot {
    /// Block offset within the element.
    pub block: u32,
    /// Variable column.
    pub var: usize,
    /// LSRK auxiliary column.
    pub aux: usize,
    /// Contribution (right-hand side) column.
    pub contrib: usize,
}

/// The blocks of one element: [`ElementKernels::BLOCKS`] consecutive
/// blocks, each named by its offset ([`Self::at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElemBlocks(u32);

impl ElemBlocks {
    /// Block `offset` of the element.
    pub fn at(self, offset: u32) -> BlockId {
        BlockId(self.0 + offset)
    }
}

/// What one element mapping supplies to the [`Mapping`] core. Every
/// emitter receives the core, whose placement and emission helpers it
/// builds on.
pub trait ElementKernels: Sized + Clone {
    /// Per-element material.
    type Material: Copy + PartialEq + Send + Sync;
    /// The LUT key of one (own, neighbor-or-wall) face pair.
    type Pair: Copy + PartialEq + Send + Sync;

    /// Memory blocks per element.
    const BLOCKS: u32;
    /// One slot per state variable, in [`State`] variable order.
    const VARS: &'static [VarSlot];
    /// Per block offset: the columns that reset with the dynamic state
    /// (auxiliaries, contributions, ghosts, transfer space).
    const DYNAMIC: &'static [(u32, &'static [usize])];
    /// Duplicated variable columns as `(variable, block offset, column)`.
    /// Volume refreshes them on chip; the variable loader writes them
    /// too, so a kernel that reads them still sees the element's
    /// variables after an off-chip swap.
    const VAR_COPIES: &'static [(usize, u32, usize)] = &[];
    /// Block offsets that carry the static image: `dshape` rows, face
    /// masks, staged constants and LUT indices.
    const STATIC_BLOCKS: &'static [u32];
    /// First of the six face-mask columns.
    const MASK: usize;
    /// Gathered derivative coefficient column.
    const COEFF: usize;
    /// Gathered line-value column.
    const VALUE: usize;
    /// First of four scratch columns.
    const SCRATCH: usize;
    /// First of four broadcast-constant columns.
    const CONST: usize;
    /// LUT constants per face; the table pads each pair's entries to the
    /// next power of two for aligned indexing.
    const FACE_CONSTS: usize;
    /// Faces per face-staging row.
    const FACES_PER_ROW: usize;
    /// Whether runners issue Flux with the §6.3 phased schedule
    /// ([`Mapping::compile_flux_phased_for`]) instead of element by
    /// element.
    const PHASED_FLUX: bool = false;
    /// Whether the mapping has on-PIM math streams (DESIGN §11).
    const ONPIM_MATH: bool = false;

    /// The LUT key of a face between `own` and `nb` (`own` at a wall).
    fn pair(own: &Self::Material, nb: &Self::Material) -> Self::Pair;

    /// The [`Self::FACE_CONSTS`] LUT entries of one pair.
    fn lut_entries(m: &Mapping<Self>, pair: &Self::Pair) -> Vec<f64>;

    /// Which `(block offset, face)` each LUT-setup fetch lands in, in
    /// emission order.
    fn lut_targets() -> Vec<(u32, Face)>;

    /// Element `e`'s staged constants as `(row, column, value)`, written
    /// into every static block. The [`staging`] columns are the core's.
    fn stage_constants(m: &Mapping<Self>, e: usize, out: &mut Vec<(usize, usize, f64)>);

    /// The op-site summary the math placement cost model prices.
    fn math_site_params(m: &Mapping<Self>, elems: &[usize]) -> SiteParams;

    /// The Volume kernel of the element on blocks `b`.
    fn emit_volume(m: &Mapping<Self>, s: &mut InstrStream, b: ElemBlocks);

    /// Flux set-up of the element on blocks `b`, before its first face.
    fn emit_flux_prologue(m: &Mapping<Self>, s: &mut InstrStream, b: ElemBlocks);

    /// Lands element `e`'s neighbor's trace across `face` (or the wall
    /// mirror).
    fn emit_ghost_fetch(m: &Mapping<Self>, s: &mut InstrStream, e: usize, face: Face);

    /// The flux evaluation of one face of the element on blocks `b`,
    /// folded into the contributions.
    fn emit_face_flux(m: &Mapping<Self>, s: &mut InstrStream, b: ElemBlocks, face: Face);

    /// Flux wrap-up of the element on blocks `b`, after its last face.
    fn emit_flux_epilogue(_m: &Mapping<Self>, _s: &mut InstrStream, _b: ElemBlocks) {}

    /// One-time on-PIM math setup of one element (only with
    /// [`Self::ONPIM_MATH`]).
    fn emit_math_setup(_m: &Mapping<Self>, _s: &mut InstrStream, _e: usize, _p: MathPlacement) {}

    /// Per-stage on-PIM math refinement of one element (only with
    /// [`Self::ONPIM_MATH`]).
    fn emit_math_stage(_m: &Mapping<Self>, _s: &mut InstrStream, _e: usize, _p: MathPlacement) {}
}

/// One element mapping over a whole mesh: placement, preload, data
/// movement and kernel compilation, with the per-mapping parts from `K`.
#[derive(Clone)]
pub struct Mapping<K: ElementKernels> {
    mesh: HexMesh,
    n: usize,
    d: DiffMatrix,
    topo: FluxTopology,
    materials: Vec<K::Material>,
    flux_kind: FluxKind,
    jac_inv: f64,
    lift: f64,
    /// Deduplicated face pairs across all element faces; indexes the
    /// LUT contents.
    pairs: Vec<K::Pair>,
    /// Per-element, per-face pair index.
    face_pair: Vec<[usize; 6]>,
    /// Element → slot placement.
    slots: Vec<u32>,
    /// Per-op transcendental placement (`None` = host-exact constants,
    /// the bit-identical default).
    math: Option<MathPlacement>,
}

impl<K: ElementKernels> Mapping<K> {
    /// Builds the mapping for `n` nodes per axis (n³ ≤ 512) with
    /// per-element materials and the identity slot map.
    ///
    /// # Panics
    /// Panics if `materials.len()` differs from the element count, the
    /// element does not fit the compute rows, or the distinct face pairs
    /// overflow one LUT block.
    pub fn new(mesh: HexMesh, n: usize, flux_kind: FluxKind, materials: Vec<K::Material>) -> Self {
        assert_eq!(materials.len(), mesh.num_elements(), "one material per element");
        assert!(n >= 2 && n * n * n <= CONST_ROWS, "element must fit 512 compute rows");
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let topo = FluxTopology::new(n);
        let geom = wavesim_mesh::ElementGeometry::new(mesh.h(), &rule);
        let jac_inv = geom.jacobian_inverse_domain();
        let lift = geom.lift_factor(rule.weights()[0]);

        // The LUT holds one entry set per distinct (own, neighbor) pair.
        let capacity = BLOCK_ROWS * WORDS_PER_ROW / K::FACE_CONSTS.next_power_of_two();
        let mut pairs: Vec<K::Pair> = Vec::new();
        let mut face_pair = Vec::with_capacity(mesh.num_elements());
        for e in 0..mesh.num_elements() {
            let own = &materials[e];
            let mut per_face = [0usize; 6];
            for face in Face::ALL {
                let nb = match mesh.neighbor(ElemId(e), face) {
                    Neighbor::Element(nb) => &materials[nb.index()],
                    Neighbor::Boundary => own,
                };
                let key = K::pair(own, nb);
                per_face[face.code()] = pairs.iter().position(|&p| p == key).unwrap_or_else(|| {
                    assert!(
                        pairs.len() < capacity,
                        "too many distinct face pairs for one LUT block"
                    );
                    pairs.push(key);
                    pairs.len() - 1
                });
            }
            face_pair.push(per_face);
        }

        let slots = (0..mesh.num_elements() as u32).collect();
        Self {
            mesh,
            n,
            d,
            topo,
            materials,
            flux_kind,
            jac_inv,
            lift,
            pairs,
            face_pair,
            slots,
            math: None,
        }
    }

    /// Builds the mapping with one material everywhere.
    pub fn uniform(mesh: HexMesh, n: usize, flux_kind: FluxKind, material: K::Material) -> Self {
        let materials = vec![material; mesh.num_elements()];
        Self::new(mesh, n, flux_kind, materials)
    }

    /// Nodes per axis.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nodes per element.
    pub fn nodes(&self) -> usize {
        self.n * self.n * self.n
    }

    /// The mesh.
    pub fn mesh(&self) -> &HexMesh {
        &self.mesh
    }

    /// State variables per node.
    pub fn num_vars(&self) -> usize {
        K::VARS.len()
    }

    /// Distinct face pairs in the LUT.
    pub(crate) fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    // ---- placement ----

    /// The blocks of element `e`.
    pub fn blocks(&self, e: usize) -> ElemBlocks {
        ElemBlocks(self.slots[e] * K::BLOCKS)
    }

    /// Block `offset` of element `e`.
    pub fn block(&self, e: usize, offset: u32) -> BlockId {
        self.blocks(e).at(offset)
    }

    /// The blocks of element `e` that hold state variables — what the
    /// halo DMA moves and a ghost fence waits on.
    pub fn var_blocks(&self, e: usize) -> impl Iterator<Item = BlockId> + '_ {
        var_offsets::<K>().map(move |(offset, _)| self.block(e, offset))
    }

    /// The reserved look-up-table block, the first block after every
    /// placed element (§4.3: "look-up tables are implemented with
    /// ordinary memory blocks").
    pub fn lut_block(&self) -> BlockId {
        BlockId((self.slots.iter().copied().max().unwrap_or(0) + 1) * K::BLOCKS)
    }

    /// The reserved `1/√x` seed-table block of the on-PIM math lanes,
    /// right after the LUT. Only loaded when an on-PIM lane is installed.
    pub fn math_block(&self) -> BlockId {
        BlockId(self.lut_block().0 + 1)
    }

    /// Blocks the chip must provide under the installed placement: every
    /// slot up to the highest, the LUT, and the seed table when math runs
    /// on-PIM.
    pub fn blocks_required(&self) -> usize {
        self.lut_block().0 as usize + 1 + usize::from(self.onpim_math())
    }

    /// Installs an element → slot placement (the batched runner packs a
    /// resident batch plus its boundary slices into a small window).
    ///
    /// # Panics
    /// Panics if the map's length differs from the element count.
    pub fn set_slot_map(&mut self, map: Vec<u32>) {
        assert_eq!(map.len(), self.mesh.num_elements(), "one slot per element");
        self.slots = map;
    }

    /// Installs the cluster shard placement: residents pack from slot 0,
    /// ghost (halo) elements follow, and *all* other elements share one
    /// parked slot just past the window. Parked elements are never
    /// addressed by shard-restricted streams, and sharing a single slot
    /// keeps [`Self::lut_block`] within small chips even when the full
    /// mesh is far larger than the shard.
    ///
    /// Returns the window size in slots (`residents.len() +
    /// ghosts.len()`); the chip must provide [`Self::blocks_required`]
    /// blocks.
    ///
    /// # Panics
    /// Panics if an element appears twice across `residents`/`ghosts`.
    pub fn install_shard_map(&mut self, residents: &[usize], ghosts: &[usize]) -> u32 {
        let total = self.mesh.num_elements();
        let mut map = vec![0u32; total];
        let mut windowed = vec![false; total];
        let mut next = 0u32;
        for &e in residents.iter().chain(ghosts) {
            assert!(!windowed[e], "element {e} appears twice in the shard window");
            windowed[e] = true;
            map[e] = next;
            next += 1;
        }
        let window = next;
        for (e, slot) in map.iter_mut().enumerate() {
            if !windowed[e] {
                *slot = window;
            }
        }
        self.slots = map;
        window
    }

    // ---- transcendental placement ----

    /// Installs the per-op transcendental placement. `None` (the
    /// default) keeps host-exact staged constants. A PIM-placed op routes
    /// the constants derived from it through the `pim_math` fixed-point
    /// mirrors; mappings with [`ElementKernels::ONPIM_MATH`] also stage
    /// raw operands and reserve [`Self::math_block`] for the seed table.
    pub fn set_math_placement(&mut self, placement: Option<MathPlacement>) {
        self.math = placement;
    }

    /// The installed per-op placement, if any.
    pub fn math_placement(&self) -> Option<MathPlacement> {
        self.math
    }

    /// The op-site summary the placement cost model prices for a shard.
    pub fn math_site_params(&self, elems: &[usize]) -> SiteParams {
        K::math_site_params(self, elems)
    }

    /// The one-time on-PIM math setup stream for a subset (empty without
    /// an on-PIM lane or for mappings without on-PIM streams). Runs after
    /// [`Self::preload_static_subset`] has staged the raw operands.
    pub fn compile_math_setup_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_math_for(elems, K::emit_math_setup)
    }

    /// The per-stage on-PIM refinement stream for a subset (empty without
    /// an on-PIM lane). Must run before the stage's Volume stream.
    pub fn compile_math_stage_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_math_for(elems, K::emit_math_stage)
    }

    fn compile_math_for(
        &self,
        elems: &[usize],
        emit: fn(&Self, &mut InstrStream, usize, MathPlacement),
    ) -> InstrStream {
        let mut s = InstrStream::new();
        let Some(p) = self.math.filter(|_| self.onpim_math()) else { return s };
        for &e in elems {
            emit(self, &mut s, e, p);
        }
        s.push(Instr::Sync);
        s
    }

    fn onpim_math(&self) -> bool {
        K::ONPIM_MATH && self.math.is_some_and(|p| p.any_onpim())
    }

    // ---- preload / data movement ----

    /// Preloads everything the paper loads "before the computation
    /// begins" (§4.3, §5.1) for the whole mesh.
    pub fn preload(&self, chip: &mut PimChip, state: &State, dt: f64) {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.preload_static_subset(chip, dt, &elems);
        self.load_vars_subset(chip, state, &elems);
        self.zero_dynamic_subset(chip, &elems);
    }

    /// Preloads the per-element *static* data (`dshape`, masks, staged
    /// constants, LUT indices) for a subset, plus the shared face-pair
    /// LUT block (and the math seed table when math runs on-PIM).
    pub fn preload_static_subset(&self, chip: &mut PimChip, dt: f64, elems: &[usize]) {
        let stride = K::FACE_CONSTS.next_power_of_two();
        // "Contents of look-up tables will be loaded to the reserved
        // memory blocks before the computation begins" (§4.3).
        let lut = self.lut_block();
        for (p, pair) in self.pairs.iter().enumerate() {
            let entries = K::lut_entries(self, pair);
            let b = chip.block_mut(lut);
            for (k, v) in entries.into_iter().enumerate() {
                let w = p * stride + k;
                b.set(w / WORDS_PER_ROW, w % WORDS_PER_ROW, v);
            }
        }
        // The on-PIM lanes' seed table: the f32-quantized `1/√x` samples
        // fill the reserved block exactly (32K words).
        if self.onpim_math() {
            let b = chip.block_mut(self.math_block());
            for i in 0..pim_math::table::TABLE_ENTRIES {
                b.set(i / WORDS_PER_ROW, i % WORDS_PER_ROW, pim_math::table::seed_at(i));
            }
        }

        let (n, nodes, row) = (self.n, self.nodes(), self.staging_row());
        let mut consts = Vec::new();
        for &e in elems {
            consts.clear();
            K::stage_constants(self, e, &mut consts);
            for &offset in K::STATIC_BLOCKS {
                let b = chip.block_mut(self.block(e, offset));
                for f in 0..6 {
                    for node in 0..nodes {
                        b.set(node, K::MASK + f, 0.0);
                    }
                }
                for face in Face::ALL {
                    for &node in self.topo.face_table(face) {
                        b.set(node, K::MASK + face.code(), 1.0);
                    }
                }
                for a in 0..n {
                    for col in 0..n {
                        b.set(self.dshape_row(a), col, self.d.get(a, col));
                    }
                }
                for &(r, col, v) in &consts {
                    b.set(r, col, v);
                }
                b.set(row, staging::LIFT, self.lift);
                b.set(row, staging::DT, dt);
                for s in 0..Lsrk5::STAGES {
                    b.set(row, staging::A0 + s, Lsrk5::A[s]);
                    b.set(row, staging::B0 + s, Lsrk5::B[s]);
                }
                // LUT indices for the per-face interface constants: the
                // "indexes for accessing look-up tables are generated in
                // memory blocks" (§4.3) — here the host seeds them once.
                for face in Face::ALL {
                    let f = face.code();
                    let pair = self.face_pair[e][f];
                    for k in 0..K::FACE_CONSTS {
                        b.set(
                            self.face_row(f),
                            self.face_index_col(f, k),
                            (pair * stride + k) as f64,
                        );
                    }
                }
            }
        }
    }

    /// Loads the variables of a subset (the batching "load the inputs of
    /// the second batch" DMA of §6.1.1, host side).
    pub fn load_vars_subset(&self, chip: &mut PimChip, state: &State, elems: &[usize]) {
        self.load_cols(chip, state, elems, |v| v.var);
        for &e in elems {
            for &(var, offset, col) in K::VAR_COPIES {
                let b = chip.block_mut(self.block(e, offset));
                for node in 0..self.nodes() {
                    b.set(node, col, state.value(e, var, node));
                }
            }
        }
    }

    /// Loads LSRK auxiliaries for a subset.
    pub fn load_aux_subset(&self, chip: &mut PimChip, aux: &State, elems: &[usize]) {
        self.load_cols(chip, aux, elems, |v| v.aux);
    }

    /// Loads contributions for a subset (resuming a batched Flux pass
    /// after a swap).
    pub fn load_contribs_subset(&self, chip: &mut PimChip, contribs: &State, elems: &[usize]) {
        self.load_cols(chip, contribs, elems, |v| v.contrib);
    }

    /// Zeroes the dynamic columns (auxiliaries, contributions, ghosts,
    /// transfer space) of a subset.
    pub fn zero_dynamic_subset(&self, chip: &mut PimChip, elems: &[usize]) {
        for &e in elems {
            for &(offset, cols) in K::DYNAMIC {
                let b = chip.block_mut(self.block(e, offset));
                for node in 0..self.nodes() {
                    for &col in cols {
                        b.set(node, col, 0.0);
                    }
                }
            }
        }
    }

    /// Reads the variables of a subset (the batching "store the outputs"
    /// DMA).
    pub fn extract_vars_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, |v| v.var, into);
    }

    /// Reads the auxiliaries of a subset.
    pub fn extract_aux_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, |v| v.aux, into);
    }

    /// Reads the contributions of a subset.
    pub fn extract_contribs_subset(&self, chip: &mut PimChip, elems: &[usize], into: &mut State) {
        self.extract_cols(chip, elems, |v| v.contrib, into);
    }

    /// Reads every element's variables back out of the chip.
    pub fn extract_state(&self, chip: &mut PimChip) -> State {
        let total = self.mesh.num_elements();
        let mut state = State::zeros(total, self.num_vars(), self.nodes());
        let elems: Vec<usize> = (0..total).collect();
        self.extract_vars_subset(chip, &elems, &mut state);
        state
    }

    /// Copies one column family of a subset in, block by block.
    fn load_cols(
        &self,
        chip: &mut PimChip,
        source: &State,
        elems: &[usize],
        col: fn(&VarSlot) -> usize,
    ) {
        for &e in elems {
            for (offset, _) in var_offsets::<K>() {
                let b = chip.block_mut(self.block(e, offset));
                for node in 0..self.nodes() {
                    for (v, slot) in K::VARS.iter().enumerate().filter(|(_, s)| s.block == offset) {
                        b.set(node, col(slot), source.value(e, v, node));
                    }
                }
            }
        }
    }

    /// Copies one column family of a subset out into `into`.
    fn extract_cols(
        &self,
        chip: &mut PimChip,
        elems: &[usize],
        col: fn(&VarSlot) -> usize,
        into: &mut State,
    ) {
        for &e in elems {
            for (v, slot) in K::VARS.iter().enumerate() {
                let b = chip.block(self.block(e, slot.block));
                for node in 0..self.nodes() {
                    into.set_value(e, v, node, b.get(node, col(slot)));
                }
            }
        }
    }

    /// Payload bytes of one element's variables (fp32 words).
    pub fn halo_bytes_per_element(&self) -> u64 {
        (self.nodes() * self.num_vars() * BYTES_PER_VALUE) as u64
    }

    /// DMA stream charging the halo *send* snapshot: one `StoreOffchip`
    /// per variable block of each boundary element, out through the
    /// off-chip port toward the inter-chip link. The functional copy is
    /// [`Self::extract_vars_subset`]; this stream is its price on the
    /// chip's off-chip lane.
    pub fn compile_halo_store_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_halo_dma_for(elems, false)
    }

    /// DMA stream charging the halo *receive*: one `LoadOffchip` per
    /// variable block of each ghost element. Because the DMA occupies
    /// the ghost block, any Flux instruction reading that block waits for
    /// the data — the dependency that keeps the overlapped schedule
    /// bit-equal to the native solver.
    pub fn compile_halo_load_for(&self, elems: &[usize]) -> InstrStream {
        self.compile_halo_dma_for(elems, true)
    }

    fn compile_halo_dma_for(&self, elems: &[usize], load: bool) -> InstrStream {
        let mut s = InstrStream::new();
        for &e in elems {
            for (offset, vars) in var_offsets::<K>() {
                let block = self.block(e, offset);
                let bytes = (self.nodes() * vars * BYTES_PER_VALUE) as u32;
                s.push(if load {
                    Instr::LoadOffchip { block, bytes }
                } else {
                    Instr::StoreOffchip { block, bytes }
                });
            }
        }
        s
    }

    // ---- compilation ----

    /// Compiles the one-time LUT setup stream for the whole mesh.
    pub fn compile_lut_setup(&self) -> InstrStream {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        self.compile_lut_setup_for(&elems)
    }

    /// LUT setup for a subset: one `Lut` instruction per (element, face,
    /// constant) that resolves the staged index against the face-pair
    /// table and deposits the constant next to it (Fig. 4 / Algorithm 1).
    /// Re-run after a batch swap; empty for the central flux, which needs
    /// no interface impedances.
    pub fn compile_lut_setup_for(&self, elems: &[usize]) -> InstrStream {
        let mut s = InstrStream::new();
        if self.flux_kind == FluxKind::Central {
            return s;
        }
        let lut = self.lut_block().0;
        let targets = K::lut_targets();
        for &e in elems {
            for &(offset, face) in &targets {
                let f = face.code();
                let row = self.block(e, offset).0 as usize * BLOCK_ROWS + self.face_row(f);
                for k in 0..K::FACE_CONSTS {
                    s.push(Instr::Lut {
                        row: row as u32,
                        offset_s: self.face_index_col(f, k) as u8,
                        lut_block: lut,
                        offset_d: self.face_dest_col(f, k) as u8,
                    });
                }
            }
        }
        s.push(Instr::Sync);
        s
    }

    /// Emits one uniform kernel phase for `elems` into `k`; `emit` writes
    /// the phase of the element on the blocks it is given. A one-block
    /// element's phase is one run of block-local ops on its block, so it
    /// is emitted once, on the first element's block, and repeated over
    /// the block set. A multi-block element's phases move data between
    /// its blocks, so each element's is emitted in turn.
    fn each_element(
        &self,
        k: &mut KernelParts,
        elems: &[usize],
        emit: impl Fn(&mut InstrStream, ElemBlocks),
    ) {
        if K::BLOCKS == 1 {
            let Some(&first) = elems.first() else { return };
            let mut run = InstrStream::new();
            emit(&mut run, self.blocks(first));
            k.repeat(run, elems.iter().map(|&e| self.block(e, 0)).collect());
        } else {
            let s = k.stream();
            for &e in elems {
                emit(s, self.blocks(e));
            }
        }
    }

    /// Emits the Integration kernel (LSRK stage `stage`) of the element
    /// on blocks `b`: each block updates its own variables ("there is no
    /// inter-block data dependency", §6.2.1) with broadcast `A`, `B`,
    /// `dt`.
    fn emit_integration(&self, s: &mut InstrStream, b: ElemBlocks, stage: usize) {
        let (a_col, b_col, dt_col, t) = (K::CONST, K::CONST + 1, K::CONST + 2, K::SCRATCH);
        for (offset, _) in var_offsets::<K>() {
            let block = b.at(offset);
            self.bc(s, block, staging::A0 + stage, a_col);
            self.bc(s, block, staging::B0 + stage, b_col);
            self.bc(s, block, staging::DT, dt_col);
            for slot in K::VARS.iter().filter(|v| v.block == offset) {
                // aux = A·aux + dt·contrib; u += B·aux.
                self.arith(s, block, AluOp::Mul, slot.aux, slot.aux, a_col);
                self.arith(s, block, AluOp::Mul, t, slot.contrib, dt_col);
                self.arith(s, block, AluOp::Add, slot.aux, slot.aux, t);
                self.arith(s, block, AluOp::Mul, t, slot.aux, b_col);
                self.arith(s, block, AluOp::Add, slot.var, slot.var, t);
            }
        }
    }

    /// Volume kernel for a subset of elements.
    pub fn volume_parts(&self, elems: &[usize]) -> KernelParts {
        let mut k = KernelParts::default();
        self.each_element(&mut k, elems, |s, b| K::emit_volume(self, s, b));
        k.push(Instr::Sync);
        k
    }

    /// [`Self::volume_parts`] expanded.
    pub fn compile_volume_for(&self, elems: &[usize]) -> InstrStream {
        self.volume_parts(elems).expand()
    }

    /// Flux kernel for a subset, element by element (the neighbors'
    /// blocks must hold pre-stage variables — the batched runner loads the
    /// boundary slices of §6.1.2 alongside): per element, the prologue,
    /// then per face the neighbor trace fetch and the flux update, then
    /// the epilogue.
    pub fn flux_parts(&self, elems: &[usize]) -> KernelParts {
        let mut k = KernelParts::default();
        let s = k.stream();
        for &e in elems {
            let b = self.blocks(e);
            K::emit_flux_prologue(self, s, b);
            for face in Face::ALL {
                K::emit_ghost_fetch(self, s, e, face);
                K::emit_face_flux(self, s, b, face);
            }
            K::emit_flux_epilogue(self, s, b);
        }
        s.push(Instr::Sync);
        k
    }

    /// [`Self::flux_parts`] expanded.
    pub fn compile_flux_for(&self, elems: &[usize]) -> InstrStream {
        self.flux_parts(elems).expand()
    }

    /// Flux kernel for a subset with the §6.3 *phased* schedule: for each
    /// face direction, first every element's neighbor fetch, then every
    /// element's compute. Phasing removes the contention between element
    /// A's fetch and element B's compute on B's block — the functional
    /// realization of "the neighboring-element data fetching in Flux and
    /// the computation … can be processed in parallel" and the
    /// ±-direction split of Fig. 10. Per element the operations are those
    /// of [`Self::flux_parts`], so the numerics are identical.
    pub fn flux_phased_parts(&self, elems: &[usize]) -> KernelParts {
        let mut k = KernelParts::default();
        self.each_element(&mut k, elems, |s, b| K::emit_flux_prologue(self, s, b));
        for face in Face::ALL {
            let s = k.stream();
            for &e in elems {
                K::emit_ghost_fetch(self, s, e, face);
            }
            s.push(Instr::Sync);
            self.each_element(&mut k, elems, |s, b| K::emit_face_flux(self, s, b, face));
            k.push(Instr::Sync);
        }
        self.each_element(&mut k, elems, |s, b| K::emit_flux_epilogue(self, s, b));
        k
    }

    /// [`Self::flux_phased_parts`] expanded.
    pub fn compile_flux_phased_for(&self, elems: &[usize]) -> InstrStream {
        self.flux_phased_parts(elems).expand()
    }

    /// Flux for a subset as the runners issue it: phased when the mapping
    /// opts in ([`ElementKernels::PHASED_FLUX`]), element by element
    /// otherwise.
    pub fn flux_schedule_parts(&self, elems: &[usize]) -> KernelParts {
        if K::PHASED_FLUX {
            self.flux_phased_parts(elems)
        } else {
            self.flux_parts(elems)
        }
    }

    /// [`Self::flux_schedule_parts`] expanded.
    pub fn compile_flux_schedule_for(&self, elems: &[usize]) -> InstrStream {
        self.flux_schedule_parts(elems).expand()
    }

    /// Integration kernel (LSRK stage `stage`) for a subset of elements.
    pub fn integration_parts(&self, elems: &[usize], stage: usize) -> KernelParts {
        let mut k = KernelParts::default();
        self.each_element(&mut k, elems, |s, b| self.emit_integration(s, b, stage));
        k.push(Instr::Sync);
        k
    }

    /// [`Self::integration_parts`] expanded.
    pub fn compile_integration_for(&self, elems: &[usize], stage: usize) -> InstrStream {
        self.integration_parts(elems, stage).expand()
    }

    /// Compiles one full LSRK stage for the whole mesh: Volume, Flux,
    /// then Integration. The flux of element A reads element B's
    /// *pre-stage* variables, so every variable update waits for every
    /// flux fetch — the inter-element synchronization of §1.
    pub fn compile_stage(&self, stage: usize) -> InstrStream {
        let elems: Vec<usize> = (0..self.mesh.num_elements()).collect();
        let mut s = self.compile_volume_for(&elems);
        s.extend_from(&self.compile_flux_schedule_for(&elems));
        if K::PHASED_FLUX {
            // Integration opens behind its own barrier.
            s.push(Instr::Sync);
        }
        s.extend_from(&self.compile_integration_for(&elems, stage));
        s
    }

    /// Compiles one full time-step: five stages (§2.2: "There are five
    /// integration steps in each time-step").
    pub fn compile_step(&self) -> Vec<InstrStream> {
        (0..Lsrk5::STAGES).map(|stage| self.compile_stage(stage)).collect()
    }

    // ---- what the per-mapping emitters build on ----

    pub(crate) fn topo(&self) -> &FluxTopology {
        &self.topo
    }

    pub(crate) fn flux_kind(&self) -> FluxKind {
        self.flux_kind
    }

    pub(crate) fn material(&self, e: usize) -> &K::Material {
        &self.materials[e]
    }

    pub(crate) fn jac_inv(&self) -> f64 {
        self.jac_inv
    }

    /// Constants row holding `dshape` row `a`.
    pub(crate) fn dshape_row(&self, a: usize) -> usize {
        CONST_ROWS + a
    }

    /// The element-wide constants staging row.
    pub(crate) fn staging_row(&self) -> usize {
        CONST_ROWS + self.n
    }

    /// The face-staging row of face code `f`.
    pub(crate) fn face_row(&self, f: usize) -> usize {
        self.staging_row() + 1 + f / K::FACES_PER_ROW
    }

    /// Column of face `f`'s `k`-th LUT constant within its row.
    pub(crate) fn face_dest_col(&self, f: usize, k: usize) -> usize {
        (f % K::FACES_PER_ROW) * K::FACE_CONSTS + k
    }

    /// Column of face `f`'s `k`-th LUT index within its row.
    fn face_index_col(&self, f: usize, k: usize) -> usize {
        staging::FACE_INDEX_BASE + self.face_dest_col(f, k)
    }

    pub(crate) fn sqrt_pim(&self) -> bool {
        self.math.is_some_and(|p| p.sqrt == Placement::OnPim)
    }

    pub(crate) fn recip_pim(&self) -> bool {
        self.math.is_some_and(|p| p.reciprocal == Placement::OnPim)
    }

    /// An impedance `z` as the placement produces it: through the
    /// fixed-point `√(z²)` mirror when sqrt is PIM-placed (operands
    /// outside the seed table fall back to the exact value), else exact.
    pub(crate) fn imp(&self, z: f64) -> f64 {
        if self.sqrt_pim() {
            math_eval::sqrt_eval(z * z, ITERS_PER_STAGE).unwrap_or(z)
        } else {
            z
        }
    }

    /// `1/x` as the placement produces it (the reciprocal mirror when
    /// PIM-placed).
    pub(crate) fn recip(&self, x: f64) -> f64 {
        if self.recip_pim() {
            math_eval::recip_eval(x, ITERS_PER_STAGE).unwrap_or(1.0 / x)
        } else {
            1.0 / x
        }
    }

    /// The op-site summary for a subset: the host op counts per element
    /// per stage from `w`, and the ranges of the sqrt and reciprocal
    /// operands `operands` yields per material (out-of-range operands pin
    /// an op to the host).
    pub(crate) fn site_params<const S: usize>(
        &self,
        elems: &[usize],
        w: ElementWorkload,
        operands: impl Fn(&K::Material) -> ([f64; S], f64),
    ) -> SiteParams {
        let mut sqrt_range = (f64::INFINITY, f64::NEG_INFINITY);
        let mut recip_range = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in elems {
            let (sqrts, r) = operands(self.material(e));
            for s in sqrts {
                sqrt_range = (sqrt_range.0.min(s), sqrt_range.1.max(s));
            }
            recip_range = (recip_range.0.min(r), recip_range.1.max(r));
        }
        SiteParams {
            elems: elems.len(),
            sqrts_per_elem: w.flux.host_sqrts,
            // The host also refreshes the staged reciprocals alongside
            // the flux one; the opcount's per-stage div stands for them.
            divs_per_elem: w.flux.host_divs.max(1),
            sqrt_operands: sqrt_range,
            recip_operands: recip_range,
        }
    }

    /// One row-parallel ALU op over the compute rows of a block.
    pub(crate) fn arith(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        op: AluOp,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        s.push(Instr::Arith {
            block,
            op,
            first_row: 0,
            last_row: (self.nodes() - 1) as u16,
            dst: dst as u8,
            a: a as u8,
            b: b as u8,
        });
    }

    /// Zero a column: `dst ← dst − dst`.
    pub(crate) fn zero(&self, s: &mut InstrStream, block: BlockId, col: usize) {
        self.arith(s, block, AluOp::Sub, col, col, col);
    }

    /// Broadcast a constant from a staging row into a column of the
    /// compute rows.
    pub(crate) fn broadcast_from(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        src_row: usize,
        src_col: usize,
        dst_col: usize,
    ) {
        s.push(Instr::Read { block, row: src_row as u16, offset: src_col as u8, words: 1 });
        s.push(Instr::Broadcast {
            block,
            dst_first: 0,
            dst_last: (self.nodes() - 1) as u16,
            offset: dst_col as u8,
            words: 1,
        });
    }

    /// Broadcast an element-wide staged constant into a column.
    pub(crate) fn bc(&self, s: &mut InstrStream, block: BlockId, src_col: usize, dst_col: usize) {
        self.broadcast_from(s, block, self.staging_row(), src_col, dst_col);
    }

    /// Ships a column between sibling blocks: Read → Copy → Write per
    /// row of `rows`.
    pub(crate) fn ship_column(
        &self,
        s: &mut InstrStream,
        src: BlockId,
        src_col: usize,
        dst: BlockId,
        dst_col: usize,
        rows: &[usize],
    ) {
        for &row in rows {
            s.push(Instr::Read { block: src, row: row as u16, offset: src_col as u8, words: 1 });
            s.push(Instr::Copy { src, dst, words: 1 });
            s.push(Instr::Write { block: dst, row: row as u16, offset: dst_col as u8, words: 1 });
        }
    }

    /// One tensor-product derivative along `axis` of the variable in
    /// column `src_col`, into `deriv_col`: per coefficient m, gather the
    /// `dshape` entry and the m-th line value through the row buffer,
    /// then one row-parallel MAC — all nodes advance their dot-product
    /// simultaneously.
    pub(crate) fn emit_derivative(
        &self,
        s: &mut InstrStream,
        block: BlockId,
        axis: usize,
        src_col: usize,
        deriv_col: usize,
    ) {
        let n = self.n;
        let nodes = self.nodes();
        self.zero(s, block, deriv_col);
        for m in 0..n {
            // Coefficient gather: row r needs dshape[comp(r, axis)][m].
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let a = [i, j, k][axis];
                s.push(Instr::Read {
                    block,
                    row: self.dshape_row(a) as u16,
                    offset: m as u8,
                    words: 1,
                });
                s.push(Instr::Write { block, row: r as u16, offset: K::COEFF as u8, words: 1 });
            }
            // Value gather: row r needs u[line(r) with axis-component m].
            for r in 0..nodes {
                let (i, j, k) = node_coords(n, r);
                let src = match axis {
                    0 => node_index(n, m, j, k),
                    1 => node_index(n, i, m, k),
                    _ => node_index(n, i, j, m),
                };
                s.push(Instr::Read { block, row: src as u16, offset: src_col as u8, words: 1 });
                s.push(Instr::Write { block, row: r as u16, offset: K::VALUE as u8, words: 1 });
            }
            // deriv += value × coeff, all rows at once.
            self.arith(s, block, AluOp::Mac, deriv_col, K::VALUE, K::COEFF);
        }
    }
}

/// The block offsets of a `K` element that hold state variables, each
/// with its variable count.
fn var_offsets<K: ElementKernels>() -> impl Iterator<Item = (u32, usize)> {
    (0..K::BLOCKS)
        .map(|b| (b, K::VARS.iter().filter(|v| v.block == b).count()))
        .filter(|&(_, vars)| vars > 0)
}
