//! Criterion benchmarks of the PIM primitives: bit-serial NOR netlists,
//! row-parallel block arithmetic, and functional stream execution.
//!
//! `cargo bench -p wavepim-bench --bench pim_ops --offline` prints the
//! mean and best time per iteration of each case. The `*_8` cases are
//! the one-tile ops the N = 2 element kernels issue (8 nodes, rows 0–7),
//! and `flux_face_body_1024` replays one Flux face body repeated over
//! 1,024 element blocks, the shape of a template group in a phased Flux
//! tape; divide its time by 14,336 for the cost per block op.
//! `flux_ghost_fetch_1024` replays one face phase's ghost fetches over
//! 1,024 element blocks, a fetch run of four per element as phased Flux
//! issues them at N = 2; divide its time by 4,096 for the cost per
//! fetch. `volume_body_1024` replays the N = 2 Volume body (24
//! whole-tile gathers, `Sub`, `Mac` and `Mul`: 56 functional and 416
//! timed ops) repeated over 1,024 element blocks; divide its time by
//! 425,984 for the cost per timed block op.

use criterion::{criterion_group, criterion_main, Criterion};
use pim_isa::{AluOp, BlockId, Instr, InstrStream};
use pim_sim::nor::{to_bits, NorMachine};
use pim_sim::{ChipConfig, MemBlock, PimChip};

fn bench_nor(c: &mut Criterion) {
    let mut g = c.benchmark_group("nor_netlists");
    g.bench_function("ripple_add_32", |b| {
        let x = to_bits(0xDEAD_BEEF, 32);
        let y = to_bits(0x1234_5678, 32);
        b.iter(|| {
            let mut m = NorMachine::new();
            m.ripple_add(&x, &y)
        });
    });
    g.bench_function("multiply_16", |b| {
        let x = to_bits(0xBEEF, 16);
        let y = to_bits(0x1234, 16);
        b.iter(|| {
            let mut m = NorMachine::new();
            m.multiply(&x, &y)
        });
    });
    g.finish();
}

fn bench_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("mem_block");
    g.bench_function("row_parallel_mac_512", |b| {
        let mut blk = MemBlock::new();
        b.iter(|| blk.arith_cells(AluOp::Mac, 0, 511, 2, 0, 1));
    });
    g.bench_function("broadcast_512", |b| {
        let mut blk = MemBlock::new();
        blk.load_row_buffer(&[1.0, 2.0]);
        b.iter(|| blk.broadcast_cells(0, 511, 0, 2));
    });
    g.bench_function("row_parallel_mul_8", |b| {
        let mut blk = MemBlock::new();
        for row in 0..8 {
            blk.set(row, 0, row as f64 + 1.0);
            blk.set(row, 1, 0.5);
        }
        b.iter(|| blk.arith_cells(AluOp::Mul, 0, 7, 2, 0, 1));
    });
    g.bench_function("broadcast_1word_8", |b| {
        let mut blk = MemBlock::new();
        blk.load_row_buffer(&[1.5]);
        b.iter(|| blk.broadcast_cells(0, 7, 4, 1));
    });
    g.finish();
}

/// One face of the central flux on an N = 2 element (rows 0–7): normal
/// velocities, averaged interface state, masked lift into the
/// contributions — 14 row-parallel ops, as the acoustic compiler emits
/// them for a `+` face. Columns: `p`, `v` at 0–1, their ghosts at 2–3,
/// scratch at 4–7, the half, κ, 1/ρ, lift and mask constants at 8–12,
/// the two contributions at 13–14.
fn flux_face_body() -> InstrStream {
    let ops = [
        (AluOp::Mov, 4, 1, 1),
        (AluOp::Mov, 5, 3, 3),
        (AluOp::Add, 7, 0, 2),
        (AluOp::Mul, 7, 7, 8),
        (AluOp::Add, 6, 4, 5),
        (AluOp::Mul, 6, 6, 8),
        (AluOp::Sub, 4, 4, 6),
        (AluOp::Mul, 4, 4, 9),
        (AluOp::Sub, 5, 0, 7),
        (AluOp::Mul, 5, 5, 10),
        (AluOp::Mul, 4, 4, 12),
        (AluOp::Mac, 13, 4, 11),
        (AluOp::Mul, 5, 5, 12),
        (AluOp::Mac, 14, 5, 11),
    ];
    let mut s = InstrStream::new();
    for (op, dst, a, b) in ops {
        s.push(Instr::Arith { block: BlockId(0), op, first_row: 0, last_row: 7, dst, a, b });
    }
    s
}

/// The N = 2 acoustic Volume body, as the compiler emits it for one
/// element: two constants broadcast from the staging row (514), the
/// four contributions zeroed, then for each axis the derivative of `p`
/// (column 0) and of its velocity (1–3). A derivative zeroes column 8,
/// then for each of the 2 line nodes gathers the node's shape-function
/// derivative from rows 512–513 into column 22 and the line's values
/// into column 23 — one whole-tile gather each — and accumulates their
/// product; it then scales into (`Mul`) or accumulates into (`Mac`) a
/// contribution (4–7).
fn volume_body() -> InstrStream {
    let block = BlockId(0);
    let mut s = InstrStream::new();
    let arith = |s: &mut InstrStream, op, dst, a, b| {
        s.push(Instr::Arith { block, op, first_row: 0, last_row: 7, dst, a, b });
    };
    let gather = |s: &mut InstrStream, from: [u16; 8], offset: u8, to: u8| {
        for (row, from) in from.into_iter().enumerate() {
            s.push(Instr::Read { block, row: from, offset, words: 1 });
            s.push(Instr::Write { block, row: row as u16, offset: to, words: 1 });
        }
    };
    for (staged, col) in [(0, 9), (1, 10)] {
        s.push(Instr::Read { block, row: 514, offset: staged, words: 1 });
        s.push(Instr::Broadcast { block, dst_first: 0, dst_last: 7, offset: col, words: 1 });
    }
    for col in 4..8 {
        arith(&mut s, AluOp::Sub, col, col, col);
    }
    // Node r sits at (r & 1, r >> 1 & 1, r >> 2) on the 2×2×2 grid:
    // grad p into the velocity contributions, then div v into p's.
    let derivatives = (0..3u16)
        .map(|axis| (0, axis, AluOp::Mul, 5 + axis as u8, 10))
        .chain((0..3u16).map(|axis| (1 + axis as u8, axis, AluOp::Mac, 4, 9)));
    for (var, axis, op, into, scale) in derivatives {
        arith(&mut s, AluOp::Sub, 8, 8, 8);
        for m in 0..2u16 {
            gather(&mut s, std::array::from_fn(|r| 512 + (r as u16 >> axis & 1)), m as u8, 22);
            gather(&mut s, std::array::from_fn(|r| r as u16 & !(1 << axis) | m << axis), var, 23);
            arith(&mut s, AluOp::Mac, 8, 23, 22);
        }
        arith(&mut s, op, into, 8, scale);
    }
    s
}

/// One face phase of ghost fetches at N = 2: each of `elems` element
/// blocks fetches its `+x` neighbor's four `-x` face nodes, the four
/// variables of each (columns 0–3), into its own `+x` face rows' ghost
/// columns (4–7), one `Read`→`Copy`→`Write` per node, then the phase's
/// barrier.
fn ghost_fetch_phase(elems: u32) -> InstrStream {
    let mut s = InstrStream::new();
    for e in 0..elems {
        let (block, nb) = (BlockId(e), BlockId((e + 1) % elems));
        for t in 0..4u16 {
            s.push(Instr::Read { block: nb, row: 2 * t, offset: 0, words: 4 });
            s.push(Instr::Copy { src: nb, dst: block, words: 4 });
            s.push(Instr::Write { block, row: 2 * t + 1, offset: 4, words: 4 });
        }
    }
    s.push(Instr::Sync);
    s
}

fn bench_chip(c: &mut Criterion) {
    let mut g = c.benchmark_group("chip_execute");
    g.bench_function("arith_stream_1k", |b| {
        let mut stream = InstrStream::new();
        for i in 0..1000u16 {
            stream.push(Instr::Arith {
                block: BlockId((i % 8) as u32),
                op: AluOp::Mul,
                first_row: 0,
                last_row: 511,
                dst: 2,
                a: 0,
                b: 1,
            });
        }
        b.iter(|| {
            let mut chip = PimChip::new(ChipConfig::default_2gb());
            chip.execute(&stream);
            chip.elapsed()
        });
    });
    g.bench_function("flux_face_body_1024", |b| {
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        let blocks: Vec<BlockId> = (0..1024).map(BlockId).collect();
        for &block in &blocks {
            let cells = chip.block_mut(block);
            for row in 0..8 {
                for (col, value) in [(0, 1.0), (1, 0.25), (2, 0.75), (3, -0.5)] {
                    cells.set(row, col, value + row as f64);
                }
                for (col, value) in [(8, 0.5), (9, 1.5), (10, 0.8), (11, 2.0), (12, 1.0)] {
                    cells.set(row, col, value);
                }
            }
        }
        let mut lowering = chip.lowering();
        lowering.repeat(&flux_face_body(), &blocks).expect("the face body is in bounds");
        let tape = lowering.finish();
        b.iter(|| chip.replay(&tape));
    });
    g.bench_function("flux_ghost_fetch_1024", |b| {
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        for e in 0..1024 {
            let cells = chip.block_mut(BlockId(e));
            for row in 0..8 {
                for col in 0..4 {
                    cells.set(row, col, (e * 8 + row as u32) as f64 + 0.25 * col as f64);
                }
            }
        }
        let tape = chip.lower(&ghost_fetch_phase(1024)).expect("the fetches are in bounds");
        b.iter(|| chip.replay(&tape));
    });
    g.bench_function("volume_body_1024", |b| {
        let mut chip = PimChip::new(ChipConfig::default_2gb());
        let blocks: Vec<BlockId> = (0..1024).map(BlockId).collect();
        for &block in &blocks {
            let cells = chip.block_mut(block);
            for row in 0..8 {
                for col in 0..4 {
                    cells.set(row, col, (block.0 * 8 + row as u32) as f64 + 0.25 * col as f64);
                }
            }
            for col in 0..2 {
                cells.set(512, col, [-0.5, 0.5][col]);
                cells.set(513, col, [0.5, -0.5][col]);
                cells.set(514, col, 1.5 + col as f64);
            }
        }
        let mut lowering = chip.lowering();
        lowering.repeat(&volume_body(), &blocks).expect("the Volume body is in bounds");
        let tape = lowering.finish();
        b.iter(|| chip.replay(&tape));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20);
    targets = bench_nor, bench_block, bench_chip
}
criterion_main!(benches);
