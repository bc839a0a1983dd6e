//! Criterion benchmarks of the PIM primitives: bit-serial NOR netlists,
//! row-parallel block arithmetic, and functional stream execution.

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
    g.finish();
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
