//! The memory block: a 1K×1K memristor crossbar that both stores and
//! computes.
//!
//! Functionally, a block is 1,024 rows of 32 words plus a row buffer;
//! row-parallel arithmetic applies one bit-serial operation to every row
//! of a range simultaneously (§4.1: "computations are performed inside
//! memristor cells in a row-parallel way"). A block only computes cells;
//! what an operation costs (time and energy) is [`OpCost`], the one
//! price list every layer reads.
//!
//! # Storage layout: sparse row tiles
//!
//! The crossbar is stored as 128 row tiles of 8 rows × 32 words. A
//! tile is 2 KiB, line-aligned and column-major inside (32 columns of
//! `[f64; 8]`), so one column's 8 rows in a tile are a single 64-byte
//! cache line. Tiles are allocated on first write; a never-written tile
//! reads as 0.0 and occupies nothing. The element layout of §5.1 uses
//! compute rows `0..nodes` and a few constant rows from 512 up, so an
//! acoustic n = 2 element block holds exactly two tiles (rows 0–7 and
//! 512–519): 4 KiB of cells instead of a dense 256 KiB crossbar, and
//! every `Read`/`Write`/`Arith` on it stays within those two tiles.
//!
//! # The tile kernel
//!
//! A row-parallel `Arith` names a `(dst, a, b)` column triple and a row
//! range. All three columns of a row live in the same tile, so one
//! whole tile is one kernel call (`MemBlock::arith_tile`): read the
//! `a`, `b` and `dst` columns as 8 lanes each, compute all 8 lanes with
//! one straight-line arm per [`AluOp`], then write `dst`. Reading
//! before writing is the scalar loop's per-row semantics, so aliased
//! triples — which the compilers emit all the time: `zero()` is
//! `Sub c c c`, Integration scales `aux ← aux·A` in place — need no
//! special case. A longer range runs each whole tile through the same
//! kernel; a partial end tile computes all 8 lanes and keeps the rows
//! in range, since each lane depends on its own row only. A one-word
//! `Broadcast` over one tile is one 8-lane store. The N = 2 kernels'
//! `Arith` and `Broadcast` ops cover rows 0–7, one tile, and replay
//! calls the two tile kernels directly: most of what such an op cost
//! was measured to be the range bookkeeping around the arithmetic
//! (DESIGN §12 has the numbers).
//!
//! The row-at-a-time loops are retained, test-only, as
//! `MemBlock::arith_cells_scalar` and `MemBlock::broadcast_cells_scalar`
//! — the bit-exactness oracle the kernel proptests compare against, op
//! by op and over random op sequences.
//!
//! Note on precision: the functional model stores `f64` so the PIM
//! execution can be compared bit-for-bit against the native `f64` dG
//! solver; the *cost* model charges 32-bit operation prices throughout,
//! matching the paper's FP32 evaluation. Mapping correctness and numeric
//! precision are orthogonal concerns, and the storage layout does not
//! couple them: it changes where a word lives, never what is stored in
//! it or what an operation on it is priced at.

use pim_isa::{AluOp, BLOCK_ROWS, WORDS_PER_ROW};

use crate::params;

/// Time and energy of one block op or DMA: the chip's one price list.
/// The chip's lowering, both analytic estimators and the math placement
/// model price through these constructors; no crate outside pim-sim
/// prices anything with the Table 4 constants behind them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCost {
    pub seconds: f64,
    pub joules: f64,
}

impl OpCost {
    /// `Read`: one search.
    pub fn read() -> Self {
        OpCost { seconds: params::T_SEARCH, joules: params::E_SEARCH }
    }

    /// `Write` of `words` words: one set plus one reset phase, each bit
    /// paying the average of set and reset energy.
    pub fn write(words: usize) -> Self {
        let bits = (words * 32) as f64;
        OpCost {
            seconds: 2.0 * params::T_SEARCH,
            joules: bits * 0.5 * (params::E_SET + params::E_RESET),
        }
    }

    /// `Broadcast` of `words` words into `rows` rows: every destination
    /// row pays a write.
    pub fn broadcast(rows: usize, words: usize) -> Self {
        let rows = rows as f64;
        let bits = (words * 32) as f64;
        OpCost {
            seconds: rows * 2.0 * params::T_SEARCH,
            joules: rows * bits * 0.5 * (params::E_SET + params::E_RESET),
        }
    }

    /// Row-parallel `Arith` over `rows` rows: one bit-serial pass in
    /// time, energy per row.
    pub fn arith(op: AluOp, rows: u64) -> Self {
        OpCost {
            seconds: params::nor_seconds(params::alu_cycles(op)),
            joules: params::alu_energy(op, rows),
        }
    }

    /// An HBM2 DMA of `bytes` bytes over the chip's off-chip port.
    pub fn dma(bytes: u64) -> Self {
        let bytes = bytes as f64;
        OpCost {
            seconds: bytes / params::OFFCHIP_BANDWIDTH,
            joules: bytes * (params::OFFCHIP_POWER / params::OFFCHIP_BANDWIDTH),
        }
    }
}

impl std::ops::Add for OpCost {
    type Output = OpCost;

    fn add(self, o: OpCost) -> OpCost {
        OpCost { seconds: self.seconds + o.seconds, joules: self.joules + o.joules }
    }
}

impl std::ops::Mul<f64> for OpCost {
    type Output = OpCost;

    /// `k` back-to-back repetitions.
    fn mul(self, k: f64) -> OpCost {
        OpCost { seconds: self.seconds * k, joules: self.joules * k }
    }
}

/// Rows per storage tile: one 64-byte line of `f64` per column.
const TILE_ROWS: usize = 8;

/// Tiles per block.
const NUM_TILES: usize = BLOCK_ROWS / TILE_ROWS;

/// One tile column: a word's 8 rows.
type Lanes = [f64; TILE_ROWS];

/// One row tile, column-major: 32 columns of `TILE_ROWS` rows,
/// line-aligned so each column is exactly one cache line.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Tile([Lanes; WORDS_PER_ROW]);

impl Tile {
    fn zeroed() -> Box<Self> {
        Box::new(Tile([[0.0; TILE_ROWS]; WORDS_PER_ROW]))
    }
}

/// The tile rows `first..=last` cover exactly, if they cover one whole
/// tile.
#[inline(always)]
pub(crate) fn whole_tile(first: usize, last: usize) -> Option<usize> {
    (first.is_multiple_of(TILE_ROWS) && last == first + TILE_ROWS - 1).then_some(first / TILE_ROWS)
}

/// The lanes of tile `t` that rows `first..=last` cover.
#[inline(always)]
fn lanes_of(t: usize, first: usize, last: usize) -> std::ops::Range<usize> {
    let base = t * TILE_ROWS;
    first.max(base) - base..(last + 1).min(base + TILE_ROWS) - base
}

/// `op` on 8 lanes of `(a, b, dst)` at once: one straight-line kernel per
/// [`AluOp`]. Each lane depends on its own row only.
#[inline(always)]
fn alu_lanes(op: AluOp, x: Lanes, y: Lanes, d: Lanes) -> Lanes {
    match op {
        AluOp::Add => std::array::from_fn(|i| x[i] + y[i]),
        AluOp::Sub => std::array::from_fn(|i| x[i] - y[i]),
        AluOp::Mul => std::array::from_fn(|i| x[i] * y[i]),
        // Two roundings (mul then add), exactly like the scalar oracle
        // — no `mul_add`, which would fuse them.
        AluOp::Mac => std::array::from_fn(|i| x[i] * y[i] + d[i]),
        AluOp::Neg => x.map(|v| -v),
        AluOp::Mov => x,
    }
}

/// One memory block.
#[derive(Debug, Clone)]
pub struct MemBlock {
    /// Row tiles, `tiles[row / TILE_ROWS]`; `None` until first written.
    tiles: [Option<Box<Tile>>; NUM_TILES],
    row_buffer: [f64; WORDS_PER_ROW],
}

impl Default for MemBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl MemBlock {
    /// An all-zero block. Allocates no tiles.
    pub fn new() -> Self {
        Self { tiles: std::array::from_fn(|_| None), row_buffer: [0.0; WORDS_PER_ROW] }
    }

    /// Word accessor (row 0..1024, col 0..32).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < BLOCK_ROWS && col < WORDS_PER_ROW);
        self.tiles[row / TILE_ROWS].as_deref().map_or(0.0, |t| t.0[col][row % TILE_ROWS])
    }

    /// Word setter — host-side preload (DMA), not charged here.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < BLOCK_ROWS && col < WORDS_PER_ROW);
        self.tile(row / TILE_ROWS).0[col][row % TILE_ROWS] = value;
    }

    /// Tile `t`, allocated on first use.
    #[inline(always)]
    fn tile(&mut self, t: usize) -> &mut Tile {
        self.tiles[t].get_or_insert_with(Tile::zeroed)
    }

    /// Number of allocated row tiles (each `TILE_ROWS` × 32 words). The
    /// block's cell footprint is this times 2 KiB.
    pub fn resident_tiles(&self) -> usize {
        self.tiles.iter().filter(|t| t.is_some()).count()
    }

    /// Current row-buffer contents.
    pub fn row_buffer(&self) -> &[f64; WORDS_PER_ROW] {
        &self.row_buffer
    }

    /// Overwrites the row buffer (used by inter-block copies).
    pub fn load_row_buffer(&mut self, values: &[f64]) {
        assert!(values.len() <= WORDS_PER_ROW);
        self.row_buffer[..values.len()].copy_from_slice(values);
    }

    /// The `Read` data pass. The chip rejects an out-of-bounds stream as
    /// a typed error when it lowers it; the block asserts its own bounds
    /// too, in every build, so a bad call never silently reads zeros.
    #[inline]
    pub(crate) fn read_cells(&mut self, row: usize, offset: usize, words: usize) {
        assert!(offset + words <= WORDS_PER_ROW, "read crosses the row edge");
        let dst = &mut self.row_buffer[..words];
        match self.tiles[row / TILE_ROWS].as_deref() {
            Some(t) => {
                for (slot, col) in dst.iter_mut().zip(&t.0[offset..]) {
                    *slot = col[row % TILE_ROWS];
                }
            }
            None => dst.fill(0.0),
        }
    }

    /// The `Write` data pass.
    #[inline]
    pub(crate) fn write_cells(&mut self, row: usize, offset: usize, words: usize) {
        assert!(offset + words <= WORDS_PER_ROW, "write crosses the row edge");
        let t = self.tiles[row / TILE_ROWS].get_or_insert_with(Tile::zeroed);
        for (col, &value) in t.0[offset..].iter_mut().zip(&self.row_buffer[..words]) {
            col[row % TILE_ROWS] = value;
        }
    }

    /// A gather: for each `[from, to]` of `rows`, in order, the `Read` of
    /// row `from` at `src` and the `Write` of its `words` words into row
    /// `to` at `dst` — a run of `Move`s that share their columns. A row
    /// one pair writes is read by later pairs as written, and the row
    /// buffer ends as the last `Read` left it.
    #[inline]
    pub(crate) fn gather_cells(&mut self, rows: &[[u16; 2]], src: usize, dst: usize, words: usize) {
        assert!(src.max(dst) + words <= WORDS_PER_ROW, "gather crosses the row edge");
        if words != 1 {
            for &[from, to] in rows {
                self.read_cells(from as usize, src, words);
                self.write_cells(to as usize, dst, words);
            }
            return;
        }
        let mut last = self.row_buffer[0];
        for &[from, to] in rows {
            let (from, to) = (from as usize, to as usize);
            last =
                self.tiles[from / TILE_ROWS].as_deref().map_or(0.0, |t| t.0[src][from % TILE_ROWS]);
            self.tile(to / TILE_ROWS).0[dst][to % TILE_ROWS] = last;
        }
        self.row_buffer[0] = last;
    }

    /// A fetch run into `into`: for each `[from, to]` of `rows`, in
    /// order, the `Read` of row `from` at `src`, the copy of its `words`
    /// words into `into`'s row buffer and their `Write` into row `to` of
    /// `into` at `dst` — the `Read`→`Copy`→`Write` triples of a ghost
    /// fetch. The cells go straight from tile to tile; the writes land
    /// in `into` alone, so the last row read still holds what the last
    /// triple read, and both row buffers are loaded from it at the end.
    #[inline]
    pub(crate) fn fetch_cells(
        &mut self,
        into: &mut MemBlock,
        rows: &[[u16; 2]],
        src: usize,
        dst: usize,
        words: usize,
    ) {
        assert!(src.max(dst) + words <= WORDS_PER_ROW, "fetch crosses the row edge");
        for &[from, to] in rows {
            let (from, to) = (from as usize, to as usize);
            let cols = &mut into.tile(to / TILE_ROWS).0[dst..dst + words];
            match self.tiles[from / TILE_ROWS].as_deref() {
                Some(t) => {
                    for (col, from_col) in cols.iter_mut().zip(&t.0[src..]) {
                        col[to % TILE_ROWS] = from_col[from % TILE_ROWS];
                    }
                }
                None => cols.iter_mut().for_each(|col| col[to % TILE_ROWS] = 0.0),
            }
        }
        if let Some(&[from, _]) = rows.last() {
            self.read_cells(from as usize, src, words);
            into.load_row_buffer(&self.row_buffer[..words]);
        }
    }

    /// `Broadcast`: row buffer replicated into rows
    /// `dst_first..=dst_last` at `offset` — the constants distribution of
    /// the paper's Fig. 5 ("constants need to be copied to the scratchpad
    /// and broadcast to the first 512 rows before the computation
    /// begins"). Each destination word is one `fill` per covered tile.
    #[inline]
    pub fn broadcast_cells(
        &mut self,
        dst_first: usize,
        dst_last: usize,
        offset: usize,
        words: usize,
    ) {
        assert!(dst_first <= dst_last && dst_last < BLOCK_ROWS, "bad broadcast range");
        assert!(offset + words <= WORDS_PER_ROW, "broadcast crosses the row edge");
        for t in dst_first / TILE_ROWS..=dst_last / TILE_ROWS {
            let lanes = lanes_of(t, dst_first, dst_last);
            let tile = self.tiles[t].get_or_insert_with(Tile::zeroed);
            for (col, &value) in tile.0[offset..].iter_mut().zip(&self.row_buffer[..words]) {
                col[lanes.clone()].fill(value);
            }
        }
    }

    /// A one-word `Broadcast` over whole tile `t`: one 8-lane store of the
    /// row buffer's first word at `offset`.
    #[inline(always)]
    pub(crate) fn broadcast_tile(&mut self, t: usize, offset: usize) {
        let value = self.row_buffer[0];
        self.tile(t).0[offset] = [value; TILE_ROWS];
    }

    /// `Arith`: row-parallel `dst ← a op b` over `first_row..=last_row`.
    /// Every selected row computes simultaneously on the chip, which
    /// [`OpCost::arith`] prices: one bit-serial pass in time, energy per
    /// row. Whole tiles go through `Self::arith_tile`'s kernel; a
    /// partial end tile computes all 8 lanes the same way and keeps the
    /// rows in range.
    pub fn arith_cells(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        assert!(first_row <= last_row && last_row < BLOCK_ROWS, "bad row range");
        assert!(dst < WORDS_PER_ROW && a < WORDS_PER_ROW && b < WORDS_PER_ROW);
        for t in first_row / TILE_ROWS..=last_row / TILE_ROWS {
            let lanes = lanes_of(t, first_row, last_row);
            if lanes.len() == TILE_ROWS {
                self.arith_tile(op, t, dst, a, b);
            } else {
                let cells = &mut self.tile(t).0;
                let out = alu_lanes(op, cells[a], cells[b], cells[dst]);
                cells[dst][lanes.clone()].copy_from_slice(&out[lanes]);
            }
        }
    }

    /// `Arith` over whole tile `t`: the `a`, `b` and `dst` columns are
    /// read as 8 lanes each, then `dst` is written, so any aliasing among
    /// them computes what the scalar row loop does.
    #[inline(always)]
    pub(crate) fn arith_tile(&mut self, op: AluOp, t: usize, dst: usize, a: usize, b: usize) {
        let cells = &mut self.tile(t).0;
        cells[dst] = alu_lanes(op, cells[a], cells[b], cells[dst]);
    }

    /// The row-at-a-time data pass, kept as the bit-exactness oracle.
    #[cfg(test)]
    fn arith_cells_scalar(
        &mut self,
        op: AluOp,
        first_row: usize,
        last_row: usize,
        dst: usize,
        a: usize,
        b: usize,
    ) {
        for row in first_row..=last_row {
            let x = self.get(row, a);
            let y = self.get(row, b);
            let r = match op {
                AluOp::Add => x + y,
                AluOp::Sub => x - y,
                AluOp::Mul => x * y,
                AluOp::Mac => x * y + self.get(row, dst),
                AluOp::Neg => -x,
                AluOp::Mov => x,
            };
            self.set(row, dst, r);
        }
    }

    /// Scalar broadcast data pass (the oracle).
    #[cfg(test)]
    fn broadcast_cells_scalar(
        &mut self,
        dst_first: usize,
        dst_last: usize,
        offset: usize,
        words: usize,
    ) {
        for row in dst_first..=dst_last {
            for w in 0..words {
                self.set(row, offset + w, self.row_buffer[w]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_via_buffer() {
        let mut b = MemBlock::new();
        b.set(3, 5, 1.25);
        b.set(3, 6, -2.5);
        b.read_cells(3, 5, 2);
        assert_eq!(b.row_buffer()[0], 1.25);
        assert_eq!(b.row_buffer()[1], -2.5);
        b.write_cells(10, 0, 2);
        assert_eq!(b.get(10, 0), 1.25);
        assert_eq!(b.get(10, 1), -2.5);
        let (read, write) = (OpCost::read(), OpCost::write(2));
        assert!(read.seconds > 0.0 && read.joules > 0.0);
        assert!(write.seconds > read.seconds, "writes are slower than reads");
    }

    #[test]
    fn broadcast_replicates_and_charges_per_row() {
        let mut b = MemBlock::new();
        b.load_row_buffer(&[7.0, 8.0]);
        b.broadcast_cells(0, 511, 30, 2);
        for row in 0..512 {
            assert_eq!(b.get(row, 30), 7.0);
            assert_eq!(b.get(row, 31), 8.0);
        }
        assert_eq!(b.get(512, 30), 0.0, "rows beyond the range untouched");
        let (all, single) = (OpCost::broadcast(512, 2), OpCost::broadcast(1, 2));
        assert!((all.joules / single.joules - 512.0).abs() < 1e-9);
        assert_eq!(single, OpCost::write(2), "one destination row pays one write");
    }

    #[test]
    fn arith_is_row_parallel_in_time_not_energy() {
        let mut b = MemBlock::new();
        for row in 0..512 {
            b.set(row, 0, row as f64);
            b.set(row, 1, 2.0);
        }
        b.arith_cells(AluOp::Mul, 0, 511, 2, 0, 1);
        for row in 0..512 {
            assert_eq!(b.get(row, 2), row as f64 * 2.0);
        }
        let (many, one) = (OpCost::arith(AluOp::Mul, 512), OpCost::arith(AluOp::Mul, 1));
        assert_eq!(many.seconds, one.seconds, "time independent of rows");
        assert!((many.joules / one.joules - 512.0).abs() < 1e-9, "energy scales with rows");
    }

    #[test]
    fn all_alu_ops_compute_correctly() {
        let mut b = MemBlock::new();
        b.set(0, 0, 6.0);
        b.set(0, 1, -2.0);
        b.set(0, 2, 10.0); // pre-existing dst for MAC
        b.arith_cells(AluOp::Add, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), 4.0);
        b.arith_cells(AluOp::Sub, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), 8.0);
        b.arith_cells(AluOp::Mul, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), -12.0);
        b.arith_cells(AluOp::Mac, 0, 0, 2, 0, 1);
        assert_eq!(b.get(0, 2), -2.0); // 10 + 6·(−2)
        b.arith_cells(AluOp::Neg, 0, 0, 3, 0, 1);
        assert_eq!(b.get(0, 3), -6.0);
        b.arith_cells(AluOp::Mov, 0, 0, 3, 1, 0);
        assert_eq!(b.get(0, 3), -2.0);
    }

    #[test]
    fn aliased_destination_matches_the_scalar_semantics() {
        // dst == a, dst == b and dst == a == b go through the same tile
        // kernel; the results must match a hand-computed row loop.
        let mut b = MemBlock::new();
        for row in 0..8 {
            b.set(row, 0, row as f64 + 1.0);
            b.set(row, 1, 3.0);
        }
        b.arith_cells(AluOp::Mul, 0, 7, 0, 0, 1); // dst == a
        for row in 0..8 {
            assert_eq!(b.get(row, 0), (row as f64 + 1.0) * 3.0);
        }
        b.arith_cells(AluOp::Add, 0, 7, 1, 0, 1); // dst == b
        for row in 0..8 {
            assert_eq!(b.get(row, 1), (row as f64 + 1.0) * 3.0 + 3.0);
        }
        b.arith_cells(AluOp::Mac, 0, 7, 1, 1, 1); // dst == a == b
        for row in 0..8 {
            let v = (row as f64 + 1.0) * 3.0 + 3.0;
            assert_eq!(b.get(row, 1), v * v + v);
        }
    }

    #[test]
    fn mul_costs_more_time_than_add() {
        let [add, mul, mac] = [AluOp::Add, AluOp::Mul, AluOp::Mac].map(|op| OpCost::arith(op, 1));
        assert!(mul.seconds > add.seconds);
        assert!(mac.seconds > mul.seconds);
    }

    #[test]
    #[should_panic(expected = "crosses the row edge")]
    fn read_past_row_edge_panics() {
        let mut b = MemBlock::new();
        b.read_cells(0, 31, 2);
    }

    #[test]
    #[should_panic(expected = "bad row range")]
    fn arith_bad_range_panics() {
        let mut b = MemBlock::new();
        b.arith_cells(AluOp::Add, 5, 4, 0, 1, 2);
    }

    #[test]
    fn unwritten_rows_read_zero_and_allocate_nothing() {
        let mut b = MemBlock::new();
        assert_eq!(b.get(700, 3), 0.0);
        b.load_row_buffer(&[9.0; WORDS_PER_ROW]);
        b.read_cells(700, 0, WORDS_PER_ROW);
        assert!(b.row_buffer().iter().all(|&v| v.to_bits() == 0));
        assert_eq!(b.resident_tiles(), 0, "reads must not allocate");
        b.set(3, 0, 1.0);
        assert_eq!(b.get(700, 3), 0.0);
        assert_eq!(b.resident_tiles(), 1);
    }

    #[test]
    fn neg_over_an_unwritten_row_stores_negative_zero() {
        let mut b = MemBlock::new();
        b.arith_cells(AluOp::Neg, 600, 600, 1, 0, 0);
        assert_eq!(b.get(600, 1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(b.get(600, 0).to_bits(), 0.0f64.to_bits());
        assert_eq!(b.resident_tiles(), 1);
    }
}

#[cfg(test)]
mod oracle_tests {
    //! The tile kernels against the retained scalar oracle: for
    //! every [`AluOp`], arbitrary row ranges, arbitrary (including
    //! aliased) column triples, and payloads spanning NaNs, ±inf,
    //! denormals and negative zero, the two engines must agree *bit for
    //! bit*; through the chip, the op must also cost what [`OpCost`]
    //! prices.

    use super::*;
    use crate::chip::{ChipConfig, PimChip};
    use pim_isa::{BlockId, Instr, InstrStream};
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;

    /// Payload strategy biased toward the IEEE edge cases a wave kernel
    /// never produces but a malformed program might (the finite arm is
    /// repeated to weight it; the shimmed `prop_oneof!` picks uniformly).
    fn arb_payload() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            Just(f64::NAN),
            Just(-f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE / 8.0), // denormal
            Just(-f64::MIN_POSITIVE / 2.0),
            Just(-0.0f64),
            Just(1.0e308f64), // overflow fodder for Mul/Mac
        ]
    }

    fn arb_op() -> impl Strategy<Value = AluOp> {
        (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i])
    }

    /// Bit-exact comparison over the whole crossbar, NaN payloads
    /// included, plus the allocated footprint.
    fn assert_blocks_bit_identical(v: &MemBlock, s: &MemBlock) {
        assert_eq!(v.resident_tiles(), s.resident_tiles(), "tile footprint");
        for col in 0..WORDS_PER_ROW {
            for row in 0..BLOCK_ROWS {
                let (a, b) = (v.get(row, col), s.get(row, col));
                assert!(
                    a.to_bits() == b.to_bits(),
                    "vector {a:?} != scalar {b:?} at (row {row}, col {col})"
                );
            }
        }
    }

    /// A block-local op of a replayed run: its instruction on block 0
    /// and its scalar-oracle data pass.
    #[derive(Debug, Clone, Copy)]
    enum Local {
        Read { row: usize },
        Broadcast { first: usize, last: usize, offset: usize, words: usize },
        Arith { op: AluOp, first: usize, last: usize, dst: usize, a: usize, b: usize },
    }

    impl Local {
        fn instr(self) -> Instr {
            let block = BlockId(0);
            match self {
                Local::Read { row } => {
                    Instr::Read { block, row: row as u16, offset: 0, words: WORDS_PER_ROW as u8 }
                }
                Local::Broadcast { first, last, offset, words } => Instr::Broadcast {
                    block,
                    dst_first: first as u16,
                    dst_last: last as u16,
                    offset: offset as u8,
                    words: words as u8,
                },
                Local::Arith { op, first, last, dst, a, b } => Instr::Arith {
                    block,
                    op,
                    first_row: first as u16,
                    last_row: last as u16,
                    dst: dst as u8,
                    a: a as u8,
                    b: b as u8,
                },
            }
        }

        fn apply_scalar(self, block: &mut MemBlock) {
            match self {
                Local::Read { row } => block.read_cells(row, 0, WORDS_PER_ROW),
                Local::Broadcast { first, last, offset, words } => {
                    block.broadcast_cells_scalar(first, last, offset, words)
                }
                Local::Arith { op, first, last, dst, a, b } => {
                    block.arith_cells_scalar(op, first, last, dst, a, b)
                }
            }
        }
    }

    /// Row ranges: one whole tile (the N = 2 kernels' rows 0–7 among
    /// them), runs of whole tiles (N = 8's rows 0–511 among them), and
    /// ranges that start or end mid-tile.
    fn arb_rows() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            Just((0usize, TILE_ROWS - 1)),
            (0usize..NUM_TILES).prop_map(|t| (t * TILE_ROWS, t * TILE_ROWS + TILE_ROWS - 1)),
            Just((0usize, 511usize)),
            (0usize..NUM_TILES, 2usize..5)
                .prop_map(|(t, k)| (t * TILE_ROWS, ((t + k) * TILE_ROWS).min(BLOCK_ROWS) - 1)),
            (0usize..BLOCK_ROWS, 0usize..20)
                .prop_map(|(r, len)| (r, (r + len).min(BLOCK_ROWS - 1))),
        ]
    }

    fn arb_local() -> impl Strategy<Value = Local> {
        // Columns mostly from a small set, so aliased triples are common;
        // broadcasts of one, two and 32 words most often.
        let col = || prop_oneof![0usize..3, 0usize..3, 0usize..WORDS_PER_ROW];
        let words =
            prop_oneof![Just(1usize), Just(1usize), Just(2usize), Just(32usize), 1usize..33];
        (0usize..6, arb_rows(), arb_op(), (col(), col(), col()), words, 0usize..WORDS_PER_ROW)
            .prop_map(|(kind, (first, last), op, (dst, a, b), words, offset)| match kind {
                0 => Local::Read { row: last },
                1 | 2 => Local::Broadcast {
                    first,
                    last,
                    offset: offset.min(WORDS_PER_ROW - words),
                    words,
                },
                _ => Local::Arith { op, first, last, dst, a, b },
            })
    }

    #[test]
    fn replayed_neg_of_an_unwritten_tile_stores_negative_zero() {
        // Rows 8–15 are one whole tile that nothing wrote: the 8-lane
        // kernel must allocate it, as the scalar loop's writes do.
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        chip.block_mut(BlockId(0)).set(0, 0, 1.0);
        let mut oracle = chip.block(BlockId(0)).clone();
        let neg = Local::Arith { op: AluOp::Neg, first: 8, last: 15, dst: 1, a: 0, b: 0 };
        let mut stream = InstrStream::new();
        stream.push(neg.instr());
        chip.execute(&stream);
        neg.apply_scalar(&mut oracle);
        assert_eq!(chip.block(BlockId(0)).get(12, 1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(chip.block(BlockId(0)).resident_tiles(), 2);
        assert_blocks_bit_identical(chip.block(BlockId(0)), &oracle);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn replayed_block_ops_match_the_scalar_oracle(
            run in prop_vec(arb_local(), 1..24),
            preload in prop_vec((0usize..BLOCK_ROWS, 0usize..WORDS_PER_ROW, arb_payload()), 0..48),
            buffer in prop_vec(arb_payload(), WORDS_PER_ROW),
        ) {
            // The run, lowered over four blocks, replays as the chip
            // replays a kernel phase: on the first block as a run of its
            // own, on the others as its template group. Each block holds
            // its own subset of the preload, so some tiles stay unwritten.
            let blocks = [0, 1, 2, 3].map(BlockId);
            let mut chip = PimChip::new(ChipConfig::default_2gb());
            let mut oracles = vec![MemBlock::new(); blocks.len()];
            for (k, (&block, oracle)) in blocks.iter().zip(&mut oracles).enumerate() {
                for (i, &(row, col, v)) in preload.iter().enumerate() {
                    if (i + k) % 4 != 0 {
                        chip.block_mut(block).set(row, col, v);
                        oracle.set(row, col, v);
                    }
                }
                chip.block_mut(block).load_row_buffer(&buffer[k..]);
                oracle.load_row_buffer(&buffer[k..]);
            }
            let mut stream = InstrStream::new();
            for op in &run {
                stream.push(op.instr());
            }
            let mut lowering = chip.lowering();
            lowering.repeat(&stream, &blocks).expect("the run is in bounds");
            let tape = lowering.finish();
            chip.replay(&tape);
            for (&block, oracle) in blocks.iter().zip(&mut oracles) {
                for &op in &run {
                    op.apply_scalar(oracle);
                }
                let replayed = chip.block(block);
                assert_blocks_bit_identical(replayed, oracle);
                for (x, y) in replayed.row_buffer().iter().zip(oracle.row_buffer()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits(), "row buffer");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arith_vector_matches_scalar_oracle(
            op in arb_op(),
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..BLOCK_ROWS,
            dst in 0usize..WORDS_PER_ROW,
            a in 0usize..WORDS_PER_ROW,
            b in 0usize..WORDS_PER_ROW,
            payload in prop_vec(arb_payload(), 64),
        ) {
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let mut vec_b = MemBlock::new();
            for (i, &v) in payload.iter().enumerate() {
                let row = (r0 + i * 17) % BLOCK_ROWS;
                vec_b.set(row, (i * 7) % WORDS_PER_ROW, v);
            }
            let mut sca_b = vec_b.clone();
            vec_b.arith_cells(op, r0, r1, dst, a, b);
            sca_b.arith_cells_scalar(op, r0, r1, dst, a, b);
            assert_blocks_bit_identical(&vec_b, &sca_b);
        }

        #[test]
        fn arith_public_entry_matches_scalar_cost_and_cells(
            op in arb_op(),
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..64,
            payload in prop_vec(arb_payload(), 16),
        ) {
            // The public entry to `Arith` is the chip: it lowers the
            // instruction, prices it through `OpCost` and replays the
            // tile kernel.
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let mut chip = PimChip::new(ChipConfig::default_2gb());
            let mut oracle = MemBlock::new();
            for (i, &v) in payload.iter().enumerate() {
                chip.block_mut(BlockId(0)).set((r0 + i) % BLOCK_ROWS, i % WORDS_PER_ROW, v);
                oracle.set((r0 + i) % BLOCK_ROWS, i % WORDS_PER_ROW, v);
            }
            let mut s = InstrStream::new();
            let (first_row, last_row) = (r0 as u16, r1 as u16);
            s.push(Instr::Arith { block: BlockId(0), op, first_row, last_row, dst: 5, a: 0, b: 1 });
            chip.execute(&s);
            oracle.arith_cells_scalar(op, r0, r1, 5, 0, 1);
            let cost = OpCost::arith(op, (r1 - r0 + 1) as u64);
            prop_assert_eq!(chip.elapsed(), cost.seconds, "one bit-serial pass");
            prop_assert_eq!(chip.ledger().compute, cost.joules);
            assert_blocks_bit_identical(chip.block(BlockId(0)), &oracle);
        }

        #[test]
        fn broadcast_vector_matches_scalar_oracle(
            r0 in 0usize..BLOCK_ROWS,
            len in 0usize..BLOCK_ROWS,
            offset in 0usize..WORDS_PER_ROW,
            words in 0usize..WORDS_PER_ROW,
            buffer in prop_vec(arb_payload(), WORDS_PER_ROW),
        ) {
            let r1 = (r0 + len).min(BLOCK_ROWS - 1);
            let words = words.min(WORDS_PER_ROW - offset).max(1);
            let mut vec_b = MemBlock::new();
            vec_b.load_row_buffer(&buffer);
            let mut sca_b = vec_b.clone();
            vec_b.broadcast_cells(r0, r1, offset, words);
            sca_b.broadcast_cells_scalar(r0, r1, offset, words);
            assert_blocks_bit_identical(&vec_b, &sca_b);
        }
    }
}

#[cfg(test)]
mod storage_tests {
    //! Random `Read`/`Write`/`Broadcast`/`Arith` sequences against two
    //! references: a dense row-major 1024 × 32 crossbar (every cell, the
    //! row buffer and every operation's [`OpCost`] price against the
    //! dense reference's written-out prices must match bit for bit,
    //! whatever tiles the sparse storage did or did not allocate along
    //! the way), and the retained scalar loops replayed op by op on a
    //! second block — the end-to-end engine cross-check.

    use super::*;
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Set { row: usize, col: usize, value: f64 },
        Read { row: usize, offset: usize, words: usize },
        Write { row: usize, offset: usize, words: usize },
        Broadcast { first: usize, last: usize, offset: usize, words: usize },
        Arith { op: AluOp, first: usize, last: usize, dst: usize, a: usize, b: usize },
    }

    /// The reference: one dense row-major array, semantics and prices
    /// written out directly.
    struct Dense {
        cells: Vec<f64>,
        buf: [f64; WORDS_PER_ROW],
    }

    impl Dense {
        fn new() -> Self {
            Self { cells: vec![0.0; BLOCK_ROWS * WORDS_PER_ROW], buf: [0.0; WORDS_PER_ROW] }
        }

        fn at(&mut self, row: usize, col: usize) -> &mut f64 {
            &mut self.cells[row * WORDS_PER_ROW + col]
        }

        fn apply(&mut self, op: Op) -> OpCost {
            // Set-plus-reset energy per written bit, over `rows` rows.
            let write_joules = |rows: f64, words: usize| {
                rows * (words * 32) as f64 * 0.5 * (params::E_SET + params::E_RESET)
            };
            match op {
                Op::Set { row, col, value } => {
                    *self.at(row, col) = value;
                    OpCost::default()
                }
                Op::Read { row, offset, words } => {
                    for w in 0..words {
                        self.buf[w] = *self.at(row, offset + w);
                    }
                    OpCost { seconds: params::T_SEARCH, joules: params::E_SEARCH }
                }
                Op::Write { row, offset, words } => {
                    for w in 0..words {
                        *self.at(row, offset + w) = self.buf[w];
                    }
                    OpCost { seconds: 2.0 * params::T_SEARCH, joules: write_joules(1.0, words) }
                }
                Op::Broadcast { first, last, offset, words } => {
                    for row in first..=last {
                        for w in 0..words {
                            *self.at(row, offset + w) = self.buf[w];
                        }
                    }
                    let rows = (last - first + 1) as f64;
                    OpCost {
                        seconds: rows * 2.0 * params::T_SEARCH,
                        joules: write_joules(rows, words),
                    }
                }
                Op::Arith { op, first, last, dst, a, b } => {
                    for row in first..=last {
                        let (x, y, d) = (*self.at(row, a), *self.at(row, b), *self.at(row, dst));
                        *self.at(row, dst) = match op {
                            AluOp::Add => x + y,
                            AluOp::Sub => x - y,
                            AluOp::Mul => x * y,
                            AluOp::Mac => x * y + d,
                            AluOp::Neg => -x,
                            AluOp::Mov => x,
                        };
                    }
                    OpCost {
                        seconds: params::nor_seconds(params::alu_cycles(op)),
                        joules: params::alu_energy(op, (last - first + 1) as u64),
                    }
                }
            }
        }
    }

    /// One op's cell pass on `block`, priced through [`OpCost`]; with
    /// `scalar`, `Arith` and `Broadcast` run through the scalar oracle.
    fn apply(block: &mut MemBlock, op: Op, scalar: bool) -> OpCost {
        match op {
            Op::Set { row, col, value } => {
                block.set(row, col, value);
                OpCost::default()
            }
            Op::Read { row, offset, words } => {
                block.read_cells(row, offset, words);
                OpCost::read()
            }
            Op::Write { row, offset, words } => {
                block.write_cells(row, offset, words);
                OpCost::write(words)
            }
            Op::Broadcast { first, last, offset, words } => {
                if scalar {
                    block.broadcast_cells_scalar(first, last, offset, words);
                } else {
                    block.broadcast_cells(first, last, offset, words);
                }
                OpCost::broadcast(last - first + 1, words)
            }
            Op::Arith { op, first, last, dst, a, b } => {
                if scalar {
                    block.arith_cells_scalar(op, first, last, dst, a, b);
                } else {
                    block.arith_cells(op, first, last, dst, a, b);
                }
                OpCost::arith(op, (last - first + 1) as u64)
            }
        }
    }

    /// Same tiles allocated, same cells bit for bit, same row buffer.
    fn same_bits(x: &MemBlock, y: &MemBlock) -> bool {
        let bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits());
        x.tiles.iter().zip(&y.tiles).all(|pair| match pair {
            (None, None) => true,
            (Some(p), Some(q)) => bits(p.0.as_flattened(), q.0.as_flattened()),
            _ => false,
        }) && bits(&x.row_buffer, &y.row_buffer)
    }

    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -1.0e3f64..1.0e3,
            -1.0e3f64..1.0e3,
            Just(-0.0f64),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::MIN_POSITIVE / 8.0),
        ]
    }

    /// Row ranges that sit inside one tile, straddle several, or cover
    /// the whole block.
    fn arb_rows() -> impl Strategy<Value = (usize, usize)> {
        prop_oneof![
            Just((5usize, 20usize)),
            Just((0usize, BLOCK_ROWS - 1)),
            (0usize..BLOCK_ROWS, 0usize..24)
                .prop_map(|(r, len)| (r, (r + len).min(BLOCK_ROWS - 1))),
            (0usize..16).prop_map(|r| (r, r)),
            (508usize..524, 0usize..8).prop_map(|(r, len)| (r, r + len)),
        ]
    }

    /// Columns drawn mostly from a small set so aliased triples are
    /// common.
    fn arb_col() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..3, 0usize..3, 0usize..WORDS_PER_ROW]
    }

    /// `(offset, words)` that stay inside the row.
    fn arb_span() -> impl Strategy<Value = (usize, usize)> {
        (0usize..WORDS_PER_ROW, 1usize..=WORDS_PER_ROW)
            .prop_map(|(offset, words)| (offset, words.min(WORDS_PER_ROW - offset)))
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (
            0usize..5,
            arb_rows(),
            (0usize..AluOp::ALL.len()).prop_map(|i| AluOp::ALL[i]),
            (arb_col(), arb_col(), arb_col()),
            arb_span(),
            arb_value(),
        )
            .prop_map(|(kind, (first, last), op, (dst, a, b), (offset, words), value)| {
                match kind {
                    0 => Op::Set { row: first, col: dst, value },
                    1 => Op::Read { row: first, offset, words },
                    2 => Op::Write { row: last, offset, words },
                    3 => Op::Broadcast { first, last, offset, words },
                    _ => Op::Arith { op, first, last, dst, a, b },
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn sparse_tiles_match_a_dense_reference(ops in prop_vec(arb_op(), 1..48)) {
            let mut block = MemBlock::new();
            let mut dense = Dense::new();
            for &op in &ops {
                let (got, want) = (apply(&mut block, op, false), dense.apply(op));
                prop_assert_eq!(got, want, "cost of {:?}", op);
            }
            for row in 0..BLOCK_ROWS {
                for col in 0..WORDS_PER_ROW {
                    let (got, want) = (block.get(row, col), dense.cells[row * WORDS_PER_ROW + col]);
                    assert!(
                        got.to_bits() == want.to_bits(),
                        "tiles {got:?} != dense {want:?} at (row {row}, col {col}) after {ops:?}"
                    );
                }
            }
            for (got, want) in block.row_buffer().iter().zip(&dense.buf) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        #[test]
        fn op_sequences_match_the_scalar_oracle_after_every_op(ops in prop_vec(arb_op(), 64)) {
            let (mut engine, mut oracle) = (MemBlock::new(), MemBlock::new());
            for (i, &op) in ops.iter().enumerate() {
                apply(&mut engine, op, false);
                apply(&mut oracle, op, true);
                prop_assert!(
                    same_bits(&engine, &oracle),
                    "engine and scalar oracle diverged at op {} {:?} of {:?}", i, op, ops
                );
            }
        }
    }
}
