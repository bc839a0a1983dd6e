//! Template groups: a run that repeats the run before it on a new block
//! is stored as one more block of that run's group, and replays exactly
//! as if it had been stored whole.
//!
//! - Seeded streams of runs drawn from a few templates on random blocks
//!   — the same block twice in a row, runs split by a `Copy` or a
//!   `Sync` — leave every cell, row buffer, ledger field, clock and
//!   traced span as they did before tapes grouped runs (golden values
//!   recorded then), and the cells, row buffers and block-op energy of
//!   the same stream with a `Sync` after every run, which never groups.
//! - A kernel's runs are stored once: lowering a larger shard's Volume or
//!   Integration stream adds 4 bytes per element to its tape, and its
//!   phased Flux stream adds one fetch run per face of the element.

use std::sync::Mutex;

use pim_isa::{fnv1a, AluOp, BlockId, Instr, InstrStream, BLOCK_ROWS, FNV_OFFSET, WORDS_PER_ROW};
use pim_sim::{ChipConfig, PimChip};
use pim_trace::Event;
use wave_pim::compiler::AcousticMapping;
use wavesim_dg::{AcousticMaterial, FluxKind};
use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

/// The tracer is process-global: one case at a time.
static TRACE: Mutex<()> = Mutex::new(());

/// Blocks the runs land on: four in tile 0, four in tile 1.
const BLOCKS: [u32; 8] = [0, 1, 2, 3, 256, 257, 300, 301];
/// Rows the templates touch, all preloaded.
const ROWS: u64 = 24;

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

    fn row(&mut self) -> u16 {
        self.below(ROWS) as u16
    }

    fn span(&mut self) -> (u8, u8) {
        let offset = self.below(WORDS_PER_ROW as u64 - 1);
        let words = 1 + self.below((WORDS_PER_ROW as u64 - offset).min(8));
        (offset as u8, words as u8)
    }

    fn col(&mut self) -> u8 {
        self.below(8) as u8
    }
}

/// A run of 4 to 11 block-local ops on block 0, with a same-block
/// `Read`→`Write` pair now and then.
fn template(rng: &mut Rng) -> Vec<Instr> {
    let b = BlockId(0);
    let mut ops = Vec::new();
    for _ in 0..4 + rng.below(8) {
        match rng.below(6) {
            0 => {
                let (offset, words) = rng.span();
                ops.push(Instr::Read { block: b, row: rng.row(), offset, words });
                let offset = rng.below(WORDS_PER_ROW as u64 - words as u64 + 1) as u8;
                ops.push(Instr::Write { block: b, row: rng.row(), offset, words });
            }
            1 => {
                let (offset, words) = rng.span();
                ops.push(Instr::Read { block: b, row: rng.row(), offset, words });
            }
            2 => {
                let first = rng.row();
                let last = (first + rng.below(4) as u16).min(ROWS as u16 - 1);
                let (offset, words) = rng.span();
                ops.push(Instr::Broadcast {
                    block: b,
                    dst_first: first,
                    dst_last: last,
                    offset,
                    words,
                });
            }
            _ => {
                let first = rng.row();
                ops.push(Instr::Arith {
                    block: b,
                    op: AluOp::ALL[rng.below(6) as usize],
                    first_row: first,
                    last_row: (first + rng.below(6) as u16).min(ROWS as u16 - 1),
                    dst: rng.col(),
                    a: rng.col(),
                    b: rng.col(),
                });
            }
        }
    }
    ops
}

/// `ops` on `block`.
fn on(ops: &[Instr], block: u32) -> impl Iterator<Item = Instr> + '_ {
    ops.iter().map(move |op| {
        let mut op = *op;
        match &mut op {
            Instr::Read { block: b, .. }
            | Instr::Write { block: b, .. }
            | Instr::Broadcast { block: b, .. }
            | Instr::Arith { block: b, .. } => *b = BlockId(block),
            _ => unreachable!("templates hold block-local ops only"),
        }
        op
    })
}

/// `runs` runs drawn from `templates` templates: a new template now and
/// then, a random block each (the last one again one time in eight),
/// and a `Copy` or a `Sync` after one run in ten. With `split`, a `Sync`
/// follows every run as well.
fn stream(rng: &mut Rng, templates: usize, runs: usize, split: bool) -> InstrStream {
    let templates: Vec<Vec<Instr>> = (0..templates).map(|_| template(rng)).collect();
    let mut s = InstrStream::new();
    let (mut t, mut block) = (0, BLOCKS[0]);
    for _ in 0..runs {
        if rng.below(6) == 0 {
            t = rng.below(templates.len() as u64) as usize;
        }
        if rng.below(8) != 0 {
            block = BLOCKS[rng.below(BLOCKS.len() as u64) as usize];
        }
        on(&templates[t], block).for_each(|op| s.push(op));
        if split {
            s.push(Instr::Sync);
        }
        match rng.below(20) {
            0 => {
                let dst = BlockId(BLOCKS[rng.below(BLOCKS.len() as u64) as usize]);
                s.push(Instr::Copy { src: BlockId(block), dst, words: 1 + rng.below(32) as u16 });
            }
            1 => s.push(Instr::Sync),
            _ => {}
        }
    }
    s
}

/// One observed quantity: its label and its bits.
type Observed = (&'static str, u64);

/// Runs seed `seed`'s two streams (the second after an advanced stage
/// barrier) on a preloaded chip and observes what they leave behind:
/// ledger fields, clocks, cells and row buffers, and the traced spans.
fn observe(seed: u64, split: bool) -> Vec<Observed> {
    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let mut rng = Rng(seed);
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    for &b in &BLOCKS {
        let block = chip.block_mut(BlockId(b));
        for row in 0..ROWS as usize {
            for col in 0..WORDS_PER_ROW {
                block.set(row, col, (rng.below(1 << 20) as f64 - (1 << 19) as f64) / 4096.0);
            }
        }
    }
    let (first, second) = (rng.next(), rng.next());
    let _ = pim_trace::drain();
    pim_trace::enable();
    chip.execute(&stream(&mut Rng(first), 3, 120, split));
    let clocks = [chip.elapsed(), chip.offchip_time()].map(f64::to_bits);
    chip.advance_barrier(chip.elapsed() * 1.5);
    chip.execute(&stream(&mut Rng(second), 2, 120, split));
    pim_trace::disable();
    let (mut events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "the trace ring must hold the whole case");
    events.sort_by_key(|e| e.seq);

    let l = *chip.ledger();
    let (mut cells, mut buffers) = (FNV_OFFSET, FNV_OFFSET);
    for &b in &BLOCKS {
        let block = chip.block(BlockId(b));
        for row in 0..BLOCK_ROWS {
            for col in 0..WORDS_PER_ROW {
                cells = fnv1a(cells, block.get(row, col).to_bits());
            }
        }
        buffers = block.row_buffer().iter().fold(buffers, |h, v| fnv1a(h, v.to_bits()));
    }
    vec![
        ("cells", cells),
        ("row_buffers", buffers),
        ("ledger.compute", l.compute.to_bits()),
        ("ledger.reads", l.reads.to_bits()),
        ("ledger.writes", l.writes.to_bits()),
        ("ledger.interconnect", l.interconnect.to_bits()),
        ("ledger.offchip", l.offchip.to_bits()),
        ("ledger.host", l.host.to_bits()),
        ("first.elapsed", clocks[0]),
        ("first.offchip_time", clocks[1]),
        ("elapsed", chip.elapsed().to_bits()),
        ("offchip_time", chip.offchip_time().to_bits()),
        ("block_busy", chip.total_block_busy_seconds().to_bits()),
        ("trace", span_digest(&events, chip.trace_pid())),
    ]
}

/// Digest of every span recorded on `pid`, in recording order.
fn span_digest(events: &[Event], pid: u32) -> u64 {
    events.iter().filter(|e| e.pid == pid).fold(FNV_OFFSET, |h, e| {
        let h = [e.tid as u64, e.t0.to_bits(), e.t1.to_bits(), e.payload.energy_j().to_bits()]
            .iter()
            .fold(h, |h, &x| fnv1a(h, x));
        e.payload.name().bytes().fold(h, |h, b| fnv1a(h, b as u64))
    })
}

#[test]
fn grouped_runs_replay_as_they_did_stored_whole() {
    for seed in 1..=3 {
        let observed = observe(seed, false);
        let golden = GOLDEN.iter().find(|(s, _)| *s == seed).map_or(&[][..], |(_, g)| *g);
        if observed.iter().map(|(_, bits)| bits).ne(golden) {
            let mut table = format!("    ({seed}, &[\n");
            for (label, bits) in &observed {
                table += &format!("        {bits:#018x}, // {label}\n");
            }
            panic!("seed {seed} diverged from the golden record; observed:\n{table}    ]),");
        }
    }
}

#[test]
fn grouped_runs_compute_what_ungroupable_runs_compute() {
    // A `Sync` after every run keeps every run apart, and moves the
    // clocks: only the cells, the row buffers and the block-op energy
    // (whose sums follow issue order either way) must agree.
    for seed in 1..=3 {
        let (grouped, split) = (observe(seed, false), observe(seed, true));
        for ((label, a), (_, b)) in grouped.iter().zip(&split).take(7) {
            assert_eq!(a, b, "seed {seed}: {label}");
        }
    }
}

#[test]
fn repeated_runs_store_their_ops_once() {
    let chip = PimChip::new(ChipConfig::default_2gb());
    let ops = template(&mut Rng(7));
    let bytes = |blocks: u32| {
        let mut s = InstrStream::new();
        for block in 0..blocks {
            on(&ops, block).for_each(|op| s.push(op));
        }
        s.push(Instr::Sync);
        chip.lower(&s).unwrap().heap_bytes()
    };
    assert_eq!(bytes(64) - bytes(32), 32 * 4);
}

#[test]
fn a_larger_shard_adds_four_bytes_per_element_to_volume_and_integration() {
    let chip = PimChip::new(ChipConfig::default_2gb());
    let tapes = |level: u32| {
        let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
        let partition = SlicePartition::new(&mesh, 2);
        let shard = &partition.shards()[0];
        let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
        let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
        let mut m =
            AcousticMapping::uniform(mesh, 2, FluxKind::Riemann, AcousticMaterial::new(2.0, 1.0));
        m.install_shard_map(&res, &ghosts);
        let volume = chip.lower(&m.compile_volume_for(&res)).unwrap();
        let integration = chip.lower(&m.compile_integration_for(&res, 1)).unwrap();
        (res.len(), volume.heap_bytes(), integration.heap_bytes())
    };
    let (small, large) = (tapes(2), tapes(3));
    let grown = 4 * (large.0 - small.0);
    assert_eq!(large.1 - small.1, grown, "Volume: {} then {} bytes", small.1, large.1);
    assert_eq!(large.2 - small.2, grown, "Integration: {} then {} bytes", small.2, large.2);
}

#[test]
fn a_larger_shard_adds_296_bytes_per_element_to_phased_flux() {
    // Each element's 24 ghost fetches are six fetch runs, one per face
    // of four triples from one neighbor: 38 bytes each (an op, a 12-byte
    // fetch entry, a step and two run ids), and each face's row pairs
    // are one table all elements share. With each new route and four
    // bytes per repeated phase, the 224 elements level 3 adds to the
    // shard cost 296 bytes each; with one fetch per triple they cost
    // 1,076, lowered one instruction at a time 2,015.
    let chip = PimChip::new(ChipConfig::default_2gb());
    let tape = |level: u32| {
        let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
        let partition = SlicePartition::new(&mesh, 2);
        let shard = &partition.shards()[0];
        let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
        let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
        let mut m =
            AcousticMapping::uniform(mesh, 2, FluxKind::Riemann, AcousticMaterial::new(2.0, 1.0));
        m.install_shard_map(&res, &ghosts);
        (res.len(), chip.lower(&m.compile_flux_phased_for(&res)).unwrap().heap_bytes())
    };
    let (small, large) = (tape(2), tape(3));
    assert_eq!(large.0 - small.0, 224);
    assert_eq!((small.1, large.1), (11_917, 78_285), "phased Flux tape bytes");
}

/// Recorded with tapes that stored every run whole.
const GOLDEN: &[(u64, &[u64])] = &[
    (
        1,
        &[
            0xbcea8f98585f50a3, // cells
            0x93a5dc7ba9631514, // row_buffers
            0x3e2a2f37cdb51842, // ledger.compute
            0x3e2ba8e61be87370, // ledger.reads
            0x3e1f184f33201785, // ledger.writes
            0x3dfce2e01a762416, // ledger.interconnect
            0x0000000000000000, // ledger.offchip
            0x3ed41db56fd36a7e, // ledger.host
            0x3f327aad8d0e183c, // first.elapsed
            0x0000000000000000, // first.offchip_time
            0x3f463f715acdda78, // elapsed
            0x0000000000000000, // offchip_time
            0x3f618983095baec9, // block_busy
            0x4f124608fec2f9fe, // trace
        ],
    ),
    (
        2,
        &[
            0x0739318a5a87f4e5, // cells
            0xe4b904caaecd21ef, // row_buffers
            0x3e29276360507825, // ledger.compute
            0x3e2cce77ed84219c, // ledger.reads
            0x3e1aa05548ed1509, // ledger.writes
            0x3e048d620efd83d3, // ledger.interconnect
            0x0000000000000000, // ledger.offchip
            0x3ed1187c5bc4c48f, // ledger.host
            0x3f2f43824e0de77f, // first.elapsed
            0x0000000000000000, // first.offchip_time
            0x3f412f7b268118ce, // elapsed
            0x0000000000000000, // offchip_time
            0x3f5b9ae2aa2254dc, // block_busy
            0xad184161928f8bfe, // trace
        ],
    ),
    (
        3,
        &[
            0xbc78a4df720fbe9d, // cells
            0xa0f6a849b6446e74, // row_buffers
            0x3e21997512ced4d3, // ledger.compute
            0x3e263f401598ffe8, // ledger.reads
            0x3e1c91a3ebe35a45, // ledger.writes
            0x3df3252edb2ef7bc, // ledger.interconnect
            0x0000000000000000, // ledger.offchip
            0x3ed132c55ea047a9, // ledger.host
            0x3f2b663836a4307e, // first.elapsed
            0x0000000000000000, // first.offchip_time
            0x3f42585153a52acd, // elapsed
            0x0000000000000000, // offchip_time
            0x3f57df8200a0eab7, // block_busy
            0x3eb789484eb84c0d, // trace
        ],
    ),
];
