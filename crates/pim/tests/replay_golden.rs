//! Golden replay of the chip simulator.
//!
//! This file pins everything an executed stream leaves behind: every
//! cell and row buffer, every ledger field, both lane clocks, the summed
//! block-busy seconds, the diagnostics and a digest of every traced
//! span. Each value is compared with `to_bits` against values recorded
//! from the per-instruction interpreter that lowering and tape replay
//! replaced.
//!
//! The inputs:
//! - seeded random streams over a few blocks in two tiles, covering all
//!   nine opcodes: aliased `Arith` triples, tile-straddling row ranges,
//!   same-block `Read`→`Write` pairs, same-tile and cross-tile `Copy`,
//!   `Lut`s with a valid, an out-of-range and a negative index word,
//!   off-chip DMAs and `Sync`, on an H-tree and on a bus chip;
//! - seeded random streams rich in the element kernels' two idioms,
//!   ghost fetches (`Read`→`Copy`→`Write` triples) and gathers (runs of
//!   same-column `Read`→`Write` pairs), on an H-tree and on a bus chip;
//! - seeded random streams of ghost-fetch runs — a face's triples from
//!   one neighbor, 1, 4 or 64 in a row, broken now and then by a new
//!   source, columns or word count, a block-local op, a `Lut`, a `Sync`
//!   or a DMA, and chained so one run's destination is the next run's
//!   source — on an H-tree and on a bus chip;
//! - chip 0's shard of a level-2 mesh on two chips: its LUT and on-PIM
//!   math set-up, then one step of math refinement, Volume, phased Flux
//!   and the five Integration streams.
//!
//! Every case runs twice, traced and untraced, and both runs must agree
//! on everything but the trace. On a mismatch the test prints the full
//! observed table in the layout of [`GOLDEN`], so an intended change can
//! be re-recorded deliberately.

use std::sync::Mutex;

use pim_isa::{fnv1a, AluOp, BlockId, Instr, InstrStream, BLOCK_ROWS, FNV_OFFSET, WORDS_PER_ROW};
use pim_math::MathPlacement;
use pim_sim::{ChipCapacity, ChipConfig, InterconnectKind, PimChip, ProcessNode};
use pim_trace::{Event, Payload};
use wave_pim::compiler::AcousticMapping;
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

/// The tracer is process-global: one case at a time.
static TRACE: Mutex<()> = Mutex::new(());

/// Blocks the random streams run on: three in tile 0, two in tile 1.
const BLOCKS: [u32; 5] = [0, 1, 2, 257, 300];
/// LUT table blocks: one beside the holders in tile 0, one in tile 1.
const LUT_BLOCKS: [u32; 2] = [5, 260];
/// Random ops touch only columns below this; the columns above hold the
/// LUT results and index words, so every `Lut` keeps its outcome.
const DATA_COLS: u64 = 26;
/// Index-word columns of every holder row: a valid table index, one
/// past the table, and a negative word.
const IDX_OK: u8 = 29;
const IDX_FAR: u8 = 30;
const IDX_NEG: u8 = 31;
/// Rows of each block that hold LUT index words.
const HOLDER_ROWS: [u32; 3] = [3, 511, 1020];

/// One observed quantity: its label, its bits, and a readable form.
type Observed = (String, u64, String);

/// A small deterministic generator (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn value(&mut self) -> f64 {
        (self.below(1 << 20) as f64 - (1 << 19) as f64) / 4096.0
    }

    /// A row in one of three zones: the first tile, around the middle
    /// tile boundary, or the last tile.
    fn row(&mut self) -> u16 {
        match self.below(3) {
            0 => self.below(16) as u16,
            1 => 500 + self.below(24) as u16,
            _ => 1016 + self.below(8) as u16,
        }
    }

    /// A row range that may straddle tiles; now and then the whole block.
    fn rows(&mut self) -> (u16, u16) {
        if self.below(16) == 0 {
            return (0, BLOCK_ROWS as u16 - 1);
        }
        let first = self.row();
        (first, (first + self.below(24) as u16).min(BLOCK_ROWS as u16 - 1))
    }

    /// `(offset, words)` inside the data columns.
    fn span(&mut self) -> (u8, u8) {
        let offset = self.below(DATA_COLS);
        let words = 1 + self.below((DATA_COLS - offset).min(8));
        (offset as u8, words as u8)
    }

    /// A data column, drawn from a small set half the time so aliased
    /// `Arith` triples are common.
    fn col(&mut self) -> u8 {
        if self.below(2) == 0 {
            self.below(3) as u8
        } else {
            self.below(DATA_COLS) as u8
        }
    }

    fn pick(&mut self, from: &[u32]) -> u32 {
        from[self.below(from.len() as u64) as usize]
    }
}

/// A random stream of `len` instructions. The current block changes
/// with probability 3/10 per instruction, so same-block runs of several
/// ops are common.
fn random_stream(rng: &mut Rng, len: usize) -> InstrStream {
    let mut s = InstrStream::new();
    let mut block = BLOCKS[0];
    while s.len() < len {
        if rng.below(10) < 3 {
            block = rng.pick(&BLOCKS);
        }
        random_instr(rng, &mut s, block);
    }
    s
}

/// One random instruction on `block` (two for a `Read`→`Write` pair),
/// pushed onto `s`.
fn random_instr(rng: &mut Rng, s: &mut InstrStream, block: u32) {
    let b = BlockId(block);
    let instr = match rng.below(20) {
        0..=3 => {
            let (offset, words) = rng.span();
            Instr::Read { block: b, row: rng.row(), offset, words }
        }
        4..=5 => {
            let (offset, words) = rng.span();
            Instr::Write { block: b, row: rng.row(), offset, words }
        }
        6 => {
            // A same-block Read→Write pair: a cell move through the
            // row buffer.
            let (offset, words) = rng.span();
            s.push(Instr::Read { block: b, row: rng.row(), offset, words });
            let offset = rng.below(DATA_COLS - words as u64 + 1) as u8;
            Instr::Write { block: b, row: rng.row(), offset, words }
        }
        7 => {
            let (dst_first, dst_last) = rng.rows();
            let (offset, words) = rng.span();
            Instr::Broadcast { block: b, dst_first, dst_last, offset, words }
        }
        8..=12 | 18..=19 => {
            let (first_row, last_row) = rng.rows();
            Instr::Arith {
                block: b,
                op: AluOp::ALL[rng.below(6) as usize],
                first_row,
                last_row,
                dst: rng.col(),
                a: rng.col(),
                b: rng.col(),
            }
        }
        13..=14 => {
            // Same-tile or cross-tile; now and then wider than a row.
            let words = if rng.below(8) == 0 { 40 } else { 1 + rng.below(32) as u16 };
            Instr::Copy { src: b, dst: BlockId(rng.pick(&BLOCKS)), words }
        }
        15 => {
            let offset_s = match rng.below(5) {
                0 => IDX_FAR,
                1 => IDX_NEG,
                _ => IDX_OK,
            };
            Instr::Lut {
                row: block * BLOCK_ROWS as u32 + rng.pick(&HOLDER_ROWS),
                offset_s,
                lut_block: rng.pick(&LUT_BLOCKS),
                offset_d: 26 + rng.below(2) as u8,
            }
        }
        16 => {
            let bytes = 64 + rng.below(1 << 16) as u32;
            if rng.below(2) == 0 {
                Instr::LoadOffchip { block: b, bytes }
            } else {
                Instr::StoreOffchip { block: b, bytes }
            }
        }
        _ => Instr::Sync,
    };
    s.push(instr);
}

/// A random stream rich in the two idioms of the element kernels, mixed
/// with [`random_instr`]'s ops:
/// - ghost fetches: `Read` on a neighbor, `Copy` to the current block,
///   `Write` there, a face's worth in a row over one route; now and then
///   the neighbor is the block itself or the words disagree;
/// - gathers: runs of same-block `Read`→`Write` pairs that share their
///   columns and word count, over rows that may alias each other, now
///   and then in a tile no one wrote.
fn idiom_stream(rng: &mut Rng, len: usize) -> InstrStream {
    let mut s = InstrStream::new();
    let mut block = BLOCKS[0];
    while s.len() < len {
        if rng.below(10) < 3 {
            block = rng.pick(&BLOCKS);
        }
        let b = BlockId(block);
        match rng.below(8) {
            0..=2 => {
                let src = BlockId(rng.pick(&BLOCKS));
                let (offset, words) = rng.span();
                let to = rng.below(DATA_COLS - words as u64 + 1) as u8;
                let copied = if rng.below(8) == 0 { words as u16 + 1 } else { words as u16 };
                for _ in 0..1 + rng.below(4) {
                    s.push(Instr::Read { block: src, row: rng.row(), offset, words });
                    s.push(Instr::Copy { src, dst: b, words: copied });
                    s.push(Instr::Write { block: b, row: rng.row(), offset: to, words });
                }
            }
            3..=5 => {
                let (from, words) = rng.span();
                let to = rng.below(DATA_COLS - words as u64 + 1) as u8;
                let row = |rng: &mut Rng| {
                    if rng.below(8) == 0 {
                        600 + rng.below(16) as u16
                    } else {
                        rng.row()
                    }
                };
                for _ in 0..1 + rng.below(8) {
                    s.push(Instr::Read { block: b, row: row(rng), offset: from, words });
                    s.push(Instr::Write { block: b, row: row(rng), offset: to, words });
                }
            }
            _ => random_instr(rng, &mut s, block),
        }
    }
    s
}

/// A random stream of ghost-fetch runs: consecutive `Read`→`Copy`→`Write`
/// triples from one source into one destination, of one column span and
/// word count, over random rows (now and then in a tile no one wrote).
/// - a stream opens with a run of 64 triples, the paper element's face;
///   the runs after it hold 1 or 4;
/// - now and then a run breaks between two triples: a new source, new
///   columns, a new word count, a block-local op on either block, a
///   `Lut`, a `Sync` or a DMA, after which the run goes on;
/// - a third of the runs fetch from the block the run before wrote to.
fn fetch_run_stream(rng: &mut Rng, len: usize) -> InstrStream {
    let mut s = InstrStream::new();
    let others = |dst: u32| BLOCKS.iter().copied().filter(|&b| b != dst).collect::<Vec<_>>();
    let mut dst = BLOCKS[0];
    let mut first = true;
    while s.len() < len {
        let prev = dst;
        dst = rng.pick(&BLOCKS);
        let chained = prev != dst && rng.below(3) == 0;
        let mut src = if chained { prev } else { rng.pick(&others(dst)) };
        let (mut offset, mut words) = rng.span();
        let mut into = rng.below(DATA_COLS - words as u64 + 1) as u8;
        let count = if first { 64 } else { [1, 4][rng.below(2) as usize] };
        first = false;
        for k in 0..count {
            if k > 0 && rng.below(6) == 0 {
                match rng.below(9) {
                    0 => src = rng.pick(&others(dst)),
                    1 => into = rng.below(DATA_COLS - words as u64 + 1) as u8,
                    2 => offset = rng.below(DATA_COLS - words as u64 + 1) as u8,
                    3 => {
                        words = 1 + (words % 4);
                        offset = offset.min(DATA_COLS as u8 - words);
                        into = into.min(DATA_COLS as u8 - words);
                    }
                    4 | 5 => {
                        let block = if rng.below(2) == 0 { src } else { dst };
                        let (first_row, last_row) = rng.rows();
                        s.push(Instr::Arith {
                            block: BlockId(block),
                            op: AluOp::ALL[rng.below(6) as usize],
                            first_row,
                            last_row,
                            dst: rng.col(),
                            a: rng.col(),
                            b: rng.col(),
                        });
                    }
                    6 => s.push(Instr::Lut {
                        row: dst * BLOCK_ROWS as u32 + rng.pick(&HOLDER_ROWS),
                        offset_s: IDX_OK,
                        lut_block: rng.pick(&LUT_BLOCKS),
                        offset_d: 26 + rng.below(2) as u8,
                    }),
                    7 => s.push(Instr::Sync),
                    _ => s.push(Instr::LoadOffchip {
                        block: BlockId(src),
                        bytes: 64 + rng.below(1 << 12) as u32,
                    }),
                }
            }
            let row = |rng: &mut Rng| {
                if rng.below(8) == 0 {
                    600 + rng.below(16) as u16
                } else {
                    rng.row()
                }
            };
            let (src, dst) = (BlockId(src), BlockId(dst));
            s.push(Instr::Read { block: src, row: row(rng), offset, words });
            s.push(Instr::Copy { src, dst, words: words as u16 });
            s.push(Instr::Write { block: dst, row: row(rng), offset: into, words });
        }
    }
    s
}

/// Random data in every block's three row zones, the LUT index words of
/// every holder row, and table entries in both LUT blocks.
fn preload(rng: &mut Rng, chip: &mut PimChip) {
    for &b in &BLOCKS {
        let block = chip.block_mut(BlockId(b));
        for row in (0..16).chain(500..524).chain(1016..1024) {
            for col in 0..DATA_COLS as usize {
                block.set(row, col, rng.value());
            }
        }
        for &row in &HOLDER_ROWS {
            let row = row as usize;
            block.set(row, IDX_OK as usize, (rng.below(512) as f64) + 0.25);
            block.set(row, IDX_FAR as usize, 40000.0);
            block.set(row, IDX_NEG as usize, -3.0);
        }
    }
    for &b in &LUT_BLOCKS {
        let block = chip.block_mut(BlockId(b));
        for row in 0..16 {
            for col in 0..WORDS_PER_ROW {
                block.set(row, col, rng.value());
            }
        }
    }
}

/// Runs two random streams on one chip, with the stage barrier advanced
/// in between. Returns the chip and the blocks to fingerprint.
fn random_case(
    seed: u64,
    interconnect: InterconnectKind,
    stream: fn(&mut Rng, usize) -> InstrStream,
) -> (PimChip, Vec<u32>, u64) {
    let mut rng = Rng(seed);
    let mut chip = PimChip::new(ChipConfig {
        capacity: ChipCapacity::Gb2,
        interconnect,
        node: ProcessNode::Nm28,
    });
    preload(&mut rng, &mut chip);
    let first = stream(&mut rng, 300);
    let second = stream(&mut rng, 300);
    let mut clocks = FNV_OFFSET;
    chip.execute(&first);
    clocks = clock_digest(clocks, &chip);
    chip.advance_barrier(chip.elapsed() * 1.5);
    chip.execute(&second);
    clocks = clock_digest(clocks, &chip);
    (chip, BLOCKS.iter().chain(&LUT_BLOCKS).copied().collect(), clocks)
}

/// Chip 0's shard of a level-2 mesh split over two chips, set up the way
/// the cluster runtime sets it up, then one step of its kernels.
fn shard_case() -> (PimChip, Vec<u32>, u64) {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let (n, nodes) = (2, 8);
    let mut initial = State::zeros(mesh.num_elements(), 4, nodes);
    for e in 0..mesh.num_elements() {
        for v in 0..4 {
            for node in 0..nodes {
                initial.set_value(e, v, node, ((e * 31 + v * 7 + node) % 97) as f64 * 1e-2);
            }
        }
    }
    let partition = SlicePartition::new(&mesh, 2);
    let shard = &partition.shards()[0];
    let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
    let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
    let mut mapping = AcousticMapping::uniform(
        mesh.clone(),
        n,
        FluxKind::Riemann,
        AcousticMaterial::new(2.0, 1.0),
    );
    mapping.install_shard_map(&res, &ghosts);
    mapping.set_math_placement(Some(MathPlacement::all_onpim()));

    let mut chip = PimChip::new(ChipConfig::default_2gb());
    let dt = 1e-3;
    mapping.preload_static_subset(&mut chip, dt, &res);
    mapping.load_vars_subset(&mut chip, &initial, &res);
    mapping.load_vars_subset(&mut chip, &initial, &ghosts);
    mapping.zero_dynamic_subset(&mut chip, &res);

    let mut streams =
        vec![mapping.compile_lut_setup_for(&res), mapping.compile_math_setup_for(&res)];
    for stage in 0..Lsrk5::STAGES {
        streams.push(mapping.compile_math_stage_for(&res));
        streams.push(mapping.compile_volume_for(&res));
        streams.push(mapping.compile_flux_phased_for(&res));
        streams.push(mapping.compile_integration_for(&res, stage));
    }
    let mut clocks = FNV_OFFSET;
    for stream in &streams {
        chip.execute(stream);
        clocks = clock_digest(clocks, &chip);
    }
    (chip, (0..mapping.blocks_required() as u32).collect(), clocks)
}

/// Folds the chip's clocks and ledger into a running digest, so the
/// state after every stream counts, not only the final one.
fn clock_digest(h: u64, chip: &PimChip) -> u64 {
    let l = chip.ledger();
    [chip.elapsed(), chip.offchip_time(), l.dynamic(), chip.total_block_busy_seconds()]
        .iter()
        .fold(h, |h, v| fnv1a(h, v.to_bits()))
}

/// Digest of every span recorded on `pid`, in recording order.
fn span_digest(events: &[Event], pid: u32) -> (u64, u64) {
    events.iter().filter(|e| e.pid == pid).fold((0, FNV_OFFSET), |(n, h), e| {
        let mut h =
            [e.tid as u64, e.t0.to_bits(), e.t1.to_bits()].iter().fold(h, |h, &x| fnv1a(h, x));
        h = e.payload.name().bytes().fold(h, |h, b| fnv1a(h, b as u64));
        h = fnv1a(h, e.payload.energy_j().to_bits());
        h = fnv1a(h, e.payload.bytes());
        h = match e.payload {
            Payload::BlockOp { nor_cycles, .. } => fnv1a(h, nor_cycles),
            Payload::HostCall { count, .. } => fnv1a(h, count),
            _ => h,
        };
        (n + 1, h)
    })
}

/// Runs one case and returns every observed quantity in a fixed order;
/// traced runs add the span digest.
fn observe(case: &dyn Fn() -> (PimChip, Vec<u32>, u64), traced: bool) -> Vec<Observed> {
    if traced {
        let _ = pim_trace::drain();
        pim_trace::enable();
    }
    let (mut chip, blocks, clocks) = case();
    if traced {
        pim_trace::disable();
    }
    let mut out: Vec<Observed> = Vec::new();
    let mut push = |label: &str, v: f64| out.push((label.into(), v.to_bits(), format!("{v:e}")));
    let l = *chip.ledger();
    for (label, v) in [
        ("ledger.compute", l.compute),
        ("ledger.reads", l.reads),
        ("ledger.writes", l.writes),
        ("ledger.interconnect", l.interconnect),
        ("ledger.offchip", l.offchip),
        ("ledger.host", l.host),
        ("ledger.static", l.static_energy),
        ("elapsed", chip.elapsed()),
        ("offchip_time", chip.offchip_time()),
        ("block_busy", chip.total_block_busy_seconds()),
        ("finish.seconds", chip.finish().seconds),
    ] {
        push(label, v);
    }
    out.push(("clocks".into(), clocks, "per-stream digest".into()));

    let diagnostics = chip.diagnostics();
    let digest = diagnostics
        .iter()
        .flat_map(|d| d.to_string().into_bytes())
        .fold(FNV_OFFSET, |h, b| fnv1a(h, b as u64));
    out.push(("diagnostics".into(), digest, format!("{} entries", diagnostics.len())));

    let (mut cells, mut buffers) = (FNV_OFFSET, FNV_OFFSET);
    for &b in &blocks {
        let block = chip.block(BlockId(b));
        for row in 0..BLOCK_ROWS {
            for col in 0..WORDS_PER_ROW {
                cells = fnv1a(cells, block.get(row, col).to_bits());
            }
        }
        buffers = block.row_buffer().iter().fold(buffers, |h, v| fnv1a(h, v.to_bits()));
    }
    out.push(("cells".into(), cells, format!("{} blocks", blocks.len())));
    out.push(("row_buffers".into(), buffers, format!("{} blocks", blocks.len())));

    if traced {
        let (mut events, dropped) = pim_trace::drain();
        assert_eq!(dropped, 0, "the trace ring must hold the whole case");
        events.sort_by_key(|e| e.seq);
        let (count, digest) = span_digest(&events, chip.trace_pid());
        out.push(("trace".into(), digest, format!("{count} spans")));
    }
    out
}

/// Runs `case` untraced and traced, checks the two agree, and compares
/// the traced observation bit for bit with the [`GOLDEN`] row `name`.
fn check(name: &str, case: &dyn Fn() -> (PimChip, Vec<u32>, u64)) {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let untraced = observe(case, false);
    let observed = observe(case, true);
    assert_eq!(
        untraced[..],
        observed[..untraced.len()],
        "{name}: tracing changed what the replay left behind"
    );
    let golden = GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, g)| *g).unwrap_or(&[]);
    let first = observed
        .iter()
        .zip(golden)
        .find(|((_, bits, _), &g)| *bits != g)
        .map(|((label, _, shown), &g)| format!("{label} = {shown}, golden {g:#018x}"))
        .or_else(|| {
            (observed.len() != golden.len())
                .then(|| format!("{} values observed, {} golden", observed.len(), golden.len()))
        });
    let Some(first) = first else { return };
    let mut table = format!("    (\"{name}\", &[\n");
    for (label, bits, shown) in &observed {
        table += &format!("        {bits:#018x}, // {label} = {shown}\n");
    }
    table += "    ]),\n";
    panic!("{name}: replay diverged from the golden record ({first}); observed:\n{table}");
}

#[test]
fn random_streams_on_an_htree_chip() {
    for seed in [1, 2, 3] {
        check(&format!("random/htree/{seed}"), &|| {
            random_case(seed, InterconnectKind::HTree, random_stream)
        });
    }
}

#[test]
fn random_streams_on_a_bus_chip() {
    check("random/bus/4", &|| random_case(4, InterconnectKind::Bus, random_stream));
}

#[test]
fn idiom_streams_on_both_interconnects() {
    check("random/idioms/1", &|| random_case(1, InterconnectKind::HTree, idiom_stream));
    check("random/idioms/2", &|| random_case(2, InterconnectKind::Bus, idiom_stream));
}

#[test]
fn fetch_runs_on_both_interconnects() {
    check("fetch_runs/1", &|| random_case(1, InterconnectKind::HTree, fetch_run_stream));
    check("fetch_runs/2", &|| random_case(2, InterconnectKind::Bus, fetch_run_stream));
}

#[test]
fn level2_shard_step() {
    check("shard/level2", &shard_case);
}

/// The `random/htree`, `random/bus` and `shard` rows were recorded from
/// the per-instruction interpreter; the `random/idioms` rows from tape
/// replay before it fused ghost fetches and gathers; the `fetch_runs`
/// rows from tape replay before it folded consecutive fetches into runs.
const GOLDEN: &[(&str, &[u64])] = &[
    (
        "random/bus/4",
        &[
            0x3e4eba65a5dc35b5, // ledger.compute = 1.4308892899999995e-8
            0x3e13a1e960a6b067, // ledger.reads = 1.1427599999999968e-9
            0x3e27b4acd29dc988, // ledger.writes = 2.7597139199999924e-9
            0x3e0e4e276f88183b, // ledger.interconnect = 8.820000000000004e-10
            0x3f08a7c04c7bb923, // ledger.offchip = 4.702621077777777e-5
            0x3eb4890a3b7e6c7e, // ledger.host = 1.224e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3f30fb893740b459, // elapsed = 2.591333388888887e-4
            0x3f30c6ce83f0e69b, // offchip_time = 2.5599042777777755e-4
            0x3f44067dd7702517, // block_busy = 6.111254177777772e-4
            0x3f30fb893740b459, // finish.seconds = 2.591333388888887e-4
            0xc94f88f9b6bdf357, // clocks = per-stream digest
            0x2a27805eba0bba3f, // diagnostics = 15 entries
            0x6d740f51859c7d15, // cells = 7 blocks
            0x77155269cf3fde06, // row_buffers = 7 blocks
            0x77fe9a5273f418f2, // trace = 650 spans
        ],
    ),
    (
        "random/htree/1",
        &[
            0x3e5209195047023d, // ledger.compute = 1.6796907879999984e-8
            0x3e0ed326a61b4027, // ledger.reads = 8.971200000000006e-10
            0x3e16f91fc456c11a, // ledger.writes = 1.337212800000001e-9
            0x3e23ccf7f0089da2, // ledger.interconnect = 2.3050999999999994e-9
            0x3f06fc9e8c36499f, // ledger.offchip = 4.384383057777778e-5
            0x3eb4890a3b7e6c7e, // ledger.host = 1.224e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3f346941efe0caf2, // elapsed = 3.1144962111111154e-4
            0x3f341bd9dd58beae, // offchip_time = 3.0683583222222254e-4
            0x3f457e8f8ae6da82, // block_busy = 6.559563533333342e-4
            0x3f346941efe0caf2, // finish.seconds = 3.1144962111111154e-4
            0x0167ffe94b945e3e, // clocks = per-stream digest
            0x0c0a1706dd38bc2d, // diagnostics = 8 entries
            0x524cd2fa45c87366, // cells = 7 blocks
            0x5125e1cda0a1da85, // row_buffers = 7 blocks
            0x7a44f1d7821c6da4, // trace = 605 spans
        ],
    ),
    (
        "random/htree/2",
        &[
            0x3e4cdd46381b6a5e, // ledger.compute = 1.3441011639999994e-8
            0x3e13b965aedc1a7f, // ledger.reads = 1.1480999999999967e-9
            0x3e30f8a60a734a0b, // ledger.writes = 3.951434880000001e-9
            0x3e20a598dcbb4a75, // ledger.interconnect = 1.93795e-9
            0x3f0000e0bd11e2e8, // ledger.offchip = 3.0524118877777774e-5
            0x3eb4890a3b7e6c7e, // ledger.host = 1.224e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3f2fea98e7cb75c8, // elapsed = 2.4350277444444416e-4
            0x3f2f4f21295845eb, // offchip_time = 2.3886947444444416e-4
            0x3f44071b4b88ca81, // block_busy = 6.111987377777768e-4
            0x3f2fea98e7cb75c8, // finish.seconds = 2.4350277444444416e-4
            0x4d7017742aaa3533, // clocks = per-stream digest
            0x0e1d77f43dbea700, // diagnostics = 11 entries
            0xcd460f11469d79a7, // cells = 7 blocks
            0xb33a314fcc2abd89, // row_buffers = 7 blocks
            0x633a676c3148da51, // trace = 640 spans
        ],
    ),
    (
        "random/htree/3",
        &[
            0x3e4eed22175507df, // ledger.compute = 1.4401181339999995e-8
            0x3e1127cd21047fdf, // ledger.reads = 9.985799999999995e-10
            0x3e1c6a9a40f3d7dd, // ledger.writes = 1.6540531200000006e-9
            0x3e1c20ebeadf89de, // ledger.interconnect = 1.6372999999999993e-9
            0x3f077f6074abe04f, // ledger.offchip = 4.4818049522222217e-5
            0x3eb491cd3c7242dc, // ledger.host = 1.22604e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3f33b3efb4ab7e89, // elapsed = 3.006420344444446e-4
            0x3f334a6663fa3eb2, // offchip_time = 2.9435157555555557e-4
            0x3f446d99a885a3b2, // block_busy = 6.234169277777783e-4
            0x3f33b3efb4ab7e89, // finish.seconds = 3.006420344444446e-4
            0xc4499148479bd5fa, // clocks = per-stream digest
            0xd89c9d3a490787b0, // diagnostics = 15 entries
            0xd0875bf72464a049, // cells = 7 blocks
            0xbd8bf002cb054fe9, // row_buffers = 7 blocks
            0x8f1de64b6b788c6c, // trace = 603 spans
        ],
    ),
    (
        "shard/level2",
        &[
            0x3e95f1c8d7fc5f2d, // ledger.compute = 3.269980979199858e-7
            0x3e8e0b860d552539, // ledger.reads = 2.2385279999985707e-7
            0x3e638687f99f04d0, // ledger.writes = 3.636910079997859e-8
            0x3e53003d4c0616ad, // ledger.interconnect = 1.7695999999999462e-8
            0x0000000000000000, // ledger.offchip = 0e0
            0x3f2f88a2fb93f1d1, // ledger.host = 2.4058332e-4
            0x0000000000000000, // ledger.static = 0e0
            0x3f6551333e89121f, // elapsed = 2.602195822222222e-3
            0x0000000000000000, // offchip_time = 0e0
            0x3fb538004a986127, // block_busy = 8.288575955555598e-2
            0x3f6551333e89121f, // finish.seconds = 2.602195822222222e-3
            0x927df6076d94f7b8, // clocks = per-stream digest
            0xcbf29ce484222325, // diagnostics = 0 entries
            0xea9aa9f8584e297b, // cells = 66 blocks
            0xa0c7c98968814610, // row_buffers = 66 blocks
            0xba9e1dae1dc0f444, // trace = 119798 spans
        ],
    ),
    (
        "random/idioms/1",
        &[
            0x3e2d60cd80001f1a, // ledger.compute = 3.42006512e-9
            0x3e1735d94ac9da0f, // ledger.reads = 1.351019999999993e-9
            0x3dfa4edcef524817, // ledger.writes = 3.8283264000000097e-10
            0x3e05d6cbf629ff99, // ledger.interconnect = 6.356000000000007e-10
            0x3ebf915dd6e106b0, // ledger.offchip = 1.8815897777777774e-6
            0x3eb4c65f42294910, // ledger.host = 1.23828e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3eeb8e0c5ecfe69d, // elapsed = 1.3139188888888857e-5
            0x3ee098b1eac62927, // offchip_time = 7.913811111111086e-6
            0x3f0bd2a9d508a713, // block_busy = 5.306797777777767e-5
            0x3eeb8e0c5ecfe69d, // finish.seconds = 1.3139188888888857e-5
            0x2aea2a3cbd540318, // clocks = per-stream digest
            0xed8be6f7e29d65c9, // diagnostics = 1 entries
            0x8ed6bc20ea38755f, // cells = 7 blocks
            0x9a91fa9007cc3168, // row_buffers = 7 blocks
            0x310dd7af765a3781, // trace = 610 spans
        ],
    ),
    (
        "random/idioms/2",
        &[
            0x3dc7ce00346a156e, // ledger.compute = 4.330048e-11
            0x3e1706e0ae5f05df, // ledger.reads = 1.3403399999999931e-9
            0x3e247d7cc93c4f9e, // ledger.writes = 2.3853715199999977e-9
            0x3df79846ee9b54b5, // ledger.interconnect = 3.433500000000003e-10
            0x0000000000000000, // ledger.offchip = 0e0
            0x3eb4d7e54410f5cc, // ledger.host = 1.24236e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3ef0ddaf960e640e, // elapsed = 1.6084633333333284e-5
            0x0000000000000000, // offchip_time = 0e0
            0x3f130fbd30aa2cce, // block_busy = 7.271377777777756e-5
            0x3ef0ddaf960e640e, // finish.seconds = 1.6084633333333284e-5
            0xece1ed0f9a0d9489, // clocks = per-stream digest
            0x57d37719b42fa72b, // diagnostics = 2 entries
            0x59af312c518eff39, // cells = 7 blocks
            0x9ac498d20b5d0013, // row_buffers = 7 blocks
            0x33b583156c0b351f, // trace = 614 spans
        ],
    ),
    (
        "fetch_runs/1",
        &[
            0x3dd726d3c22c93e7, // ledger.compute = 8.422527999999998e-11
            0x3e138a6d1271464f, // ledger.reads = 1.1374199999999969e-9
            0x3df0342fd25f5319, // ledger.writes = 2.357971200000004e-10
            0x3e17d76398812952, // ledger.interconnect = 1.3877499999999958e-9
            0x3ea0390fbd39a28a, // ledger.offchip = 4.834799888888888e-7
            0x3eb4cf22431d1f6e, // ledger.host = 1.24032e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3ef8a03862a2c6ed, // elapsed = 2.348505055555551e-5
            0x3ef602f5bfdbd011, // offchip_time = 2.0991861666666613e-5
            0x3f17e4f5fbd6b8c3, // block_busy = 9.11498199999998e-5
            0x3ef8a03862a2c6ed, // finish.seconds = 2.348505055555551e-5
            0x7edb450a0707be7a, // clocks = per-stream digest
            0xcbf29ce484222325, // diagnostics = 0 entries
            0x37b84f3d5f66d89d, // cells = 7 blocks
            0x5ef4185cb3e6d185, // row_buffers = 7 blocks
            0xcf7c0b980caf25bc, // trace = 636 spans
        ],
    ),
    (
        "fetch_runs/2",
        &[
            0x3dc897c8da4e52c4, // ledger.compute = 4.473424e-11
            0x3e132c7bd99b9def, // ledger.reads = 1.1160599999999973e-9
            0x3df2535227bcab75, // ledger.writes = 2.6667072e-10
            0x3dfb8a118cf8a040, // ledger.interconnect = 4.007500000000011e-10
            0x3ea0771030f80c07, // ledger.offchip = 4.906979444444444e-7
            0x3eb4ac163f4dc5f6, // ledger.host = 1.23216e-6
            0x0000000000000000, // ledger.static = 0e0
            0x3ef89b31c40bc104, // elapsed = 2.346632777777779e-5
            0x3ef82f5f71516d44, // offchip_time = 2.3064661111111122e-5
            0x3f0dc49bc6396dc8, // block_busy = 5.677795777777776e-5
            0x3ef89b31c40bc104, // finish.seconds = 2.346632777777779e-5
            0xbe0bc5c6cbab8f5b, // clocks = per-stream digest
            0xcbf29ce484222325, // diagnostics = 0 entries
            0x0bbc62f529374dcf, // cells = 7 blocks
            0xb7e087036ba2d557, // row_buffers = 7 blocks
            0xadd673d9a9040b9e, // trace = 625 spans
        ],
    ),
];
