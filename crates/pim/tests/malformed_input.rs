//! Malformed input never panics: a program is decoded, lowered and
//! replayed, and whatever is wrong with it comes back as a typed error.
//!
//! - Seeded random 64-bit words go through [`pim_isa::decode`]; the
//!   words that decode form streams that go through [`PimChip::lower`],
//!   and every stream that lowers is replayed.
//! - Random runs repeated over random block sets, some ids past the
//!   chip's blocks, go through [`pim_sim::Lowering::repeat`]: an
//!   out-of-range id comes back as a [`LowerError`] naming that block
//!   and the index its expansion would have, the error lowering the
//!   expanded stream gives; an in-range set lowers to the expanded
//!   stream's tape.
//! - Seeded ghost fetches (`Read`→`Copy`→`Write` triples) and gathers
//!   (same-column `Read`→`Write` runs), which lowering fuses, with one
//!   operand now and then out of range, go through [`PimChip::lower`]:
//!   the error names the first instruction that lowered alone is
//!   rejected, as instruction-by-instruction lowering names it.
//! - Seeded fetch runs (consecutive ghost fetches between two blocks,
//!   which lowering folds into one fetch run) with one operand of one
//!   triple out of range name that instruction; split between two
//!   [`pim_sim::Lowering::push`] parts at a triple, they lower to the
//!   whole stream's tape.

use pim_isa::{AluOp, BlockId, Instr, InstrStream, BLOCK_ROWS, WORDS_PER_ROW};
use pim_sim::{
    ChipCapacity, ChipConfig, InterconnectKind, LowerError, PimChip, ProcessNode, Tape, Violation,
};

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
}

/// The smallest chip: 512 MB, so a fair share of random block ids is
/// out of range.
fn chip() -> PimChip {
    PimChip::new(ChipConfig {
        capacity: ChipCapacity::Mb512,
        interconnect: InterconnectKind::HTree,
        node: ProcessNode::Nm28,
    })
}

/// A random word. Three times in four its opcode is forced into the
/// ISA's range, so that most words decode, and the high bits of the
/// 17-bit block fields (bits 40..57, and 23..40 of a `Copy`) are
/// cleared, so that most block ids fit the chip.
fn word(rng: &mut Rng) -> u64 {
    let w = rng.next();
    if rng.below(4) == 0 {
        return w;
    }
    let high_block_bits = 0x1f << 52 | 0x1f << 35;
    w & !(0x7f << 57) & !high_block_bits | rng.below(9) << 57
}

#[test]
fn random_words_decode_lower_and_replay_without_panicking() {
    let mut rng = Rng(0x5eed);
    let (mut decoded, mut lowered, mut rejected) = (0, 0, 0);
    for _ in 0..400 {
        let mut s = InstrStream::new();
        for _ in 0..1 + rng.below(6) {
            if let Ok(instr) = pim_isa::decode(word(&mut rng)) {
                s.push(instr);
                decoded += 1;
            }
        }
        let mut c = chip();
        match c.lower(&s) {
            Ok(tape) => {
                c.replay(&tape);
                assert!(c.elapsed().is_finite(), "{s:?}");
                lowered += 1;
            }
            Err(e) => {
                assert!(e.index < s.len(), "{e}");
                assert_eq!(e.instr, s.instrs()[e.index], "{e}");
                rejected += 1;
            }
        }
    }
    // The seed exercises both outcomes.
    assert!(decoded > 1000 && lowered > 20 && rejected > 20, "{decoded} {lowered} {rejected}");
}

/// A run of 1 to 8 in-bounds block-local ops on block 0, now and then
/// ending in a gather (two same-column `Read`→`Write` pairs).
fn run(rng: &mut Rng) -> InstrStream {
    let b = BlockId(0);
    let mut s = InstrStream::new();
    for _ in 0..1 + rng.below(8) {
        let row = rng.below(BLOCK_ROWS as u64) as u16;
        let offset = rng.below(WORDS_PER_ROW as u64) as u8;
        let words = 1 + rng.below(WORDS_PER_ROW as u64 - offset as u64) as u8;
        s.push(match rng.below(5) {
            4 => {
                for to in [row / 2, row / 3] {
                    s.push(Instr::Read { block: b, row, offset, words });
                    s.push(Instr::Write { block: b, row: to, offset, words });
                }
                break;
            }
            0 => Instr::Read { block: b, row, offset, words },
            1 => Instr::Write { block: b, row, offset, words },
            2 => Instr::Broadcast { block: b, dst_first: row, dst_last: row, offset, words },
            _ => Instr::Arith {
                block: b,
                op: AluOp::ALL[rng.below(6) as usize],
                first_row: 0,
                last_row: row,
                dst: offset,
                a: rng.below(WORDS_PER_ROW as u64) as u8,
                b: rng.below(WORDS_PER_ROW as u64) as u8,
            },
        });
    }
    s
}

/// `run` on each block of `blocks`, as one stream.
fn expand(run: &InstrStream, blocks: &[BlockId]) -> InstrStream {
    let mut s = InstrStream::new();
    for &b in blocks {
        run.instrs().iter().for_each(|i| s.push(i.on_block(b).unwrap()));
    }
    s
}

/// `prefix` then `run` over `blocks`, through [`pim_sim::Lowering`].
fn lower_repeat(
    c: &PimChip,
    prefix: &InstrStream,
    run: &InstrStream,
    blocks: &[BlockId],
) -> Result<Tape, LowerError> {
    let mut lowering = c.lowering();
    lowering.push(prefix)?;
    lowering.repeat(run, blocks)?;
    Ok(lowering.finish())
}

#[test]
fn repeated_runs_name_the_out_of_range_block_and_lower_as_expanded() {
    let c = chip();
    let num_blocks = ChipCapacity::Mb512.num_blocks();
    let mut rng = Rng(0xb10c);
    let (mut errors, mut tapes) = (0, 0);
    for case in 0..300 {
        let r = run(&mut rng);
        // A few blocks, often the same one twice in a row, and one time
        // in three an id past the chip's.
        let mut blocks = Vec::new();
        for _ in 0..1 + rng.below(12) {
            let block = match rng.below(6) {
                0 if !blocks.is_empty() => blocks[blocks.len() - 1],
                1 if case % 3 == 0 => BlockId(num_blocks as u32 + rng.below(1 << 20) as u32),
                _ => BlockId(rng.below(16) as u32),
            };
            blocks.push(block);
        }
        // Half the cases open on a run of their own first block.
        let prefix = if case % 2 == 0 { expand(&r, &blocks[..1]) } else { InstrStream::new() };
        let mut whole = prefix.clone();
        whole.extend_from(&expand(&r, &blocks));
        let repeated = lower_repeat(&c, &prefix, &r, &blocks);
        assert_eq!(repeated, c.lower(&whole), "case {case}");
        match repeated {
            Err(e) => {
                let issued = blocks[..prefix.len() / r.len()].iter().chain(&blocks);
                let (k, block) =
                    issued.enumerate().find(|(_, b)| b.0 as u64 >= num_blocks).unwrap();
                assert_eq!(e.index, k * r.len(), "case {case}");
                assert_eq!(
                    e.violation,
                    Violation::Block { block: block.0, num_blocks },
                    "case {case}"
                );
                errors += 1;
            }
            Ok(_) => tapes += 1,
        }
    }
    assert!(errors > 20 && tapes > 100, "{errors} {tapes}");
}

#[test]
fn a_repeated_run_holds_block_local_instructions_only() {
    let c = chip();
    let mut r = run(&mut Rng(3));
    r.push(Instr::Sync);
    let err = lower_repeat(&c, &InstrStream::new(), &r, &[BlockId(4), BlockId(5)]).unwrap_err();
    assert_eq!(err.index, r.len() - 1);
    assert_eq!(err.instr, Instr::Sync);
    assert_eq!(err.violation, Violation::NotBlockLocal);
}

/// One to four ghost fetches and gathers over the first 16 blocks, of
/// one to four words each.
fn idioms(rng: &mut Rng) -> InstrStream {
    let mut s = InstrStream::new();
    for _ in 0..1 + rng.below(4) {
        let words = 1 + rng.below(4) as u8;
        let mut offset = || rng.below(WORDS_PER_ROW as u64 - words as u64 + 1) as u8;
        let (at, into) = (offset(), offset());
        let mut row = || rng.below(BLOCK_ROWS as u64) as u16;
        let (from, to) = (row(), row());
        let (src, dst) = (BlockId(rng.below(16) as u32), BlockId(rng.below(16) as u32));
        if rng.below(2) == 0 {
            s.push(Instr::Read { block: src, row: from, offset: at, words });
            s.push(Instr::Copy { src, dst, words: words as u16 });
            s.push(Instr::Write { block: dst, row: to, offset: into, words });
        } else {
            for _ in 0..2 + rng.below(4) {
                let (from, to) = (rng.below(BLOCK_ROWS as u64), rng.below(BLOCK_ROWS as u64));
                s.push(Instr::Read { block: src, row: from as u16, offset: at, words });
                s.push(Instr::Write { block: src, row: to as u16, offset: into, words });
            }
        }
    }
    s
}

/// `instr` with one operand out of range, picked by `pick`: a block
/// past the chip's, a row past the block's or a column span past the
/// row's edge.
fn break_operand(instr: Instr, pick: u64, num_blocks: u32) -> Instr {
    let past = BlockId(num_blocks + pick as u32 % 7);
    let far = BLOCK_ROWS as u16 + pick as u16 % 9;
    let edge = |words: u8| WORDS_PER_ROW as u8 + 1 - words;
    match instr {
        Instr::Read { block, row, offset, words } => match pick % 3 {
            0 => Instr::Read { block: past, row, offset, words },
            1 => Instr::Read { block, row: far, offset, words },
            _ => Instr::Read { block, row, offset: edge(words), words },
        },
        Instr::Write { block, row, offset, words } => match pick % 3 {
            0 => Instr::Write { block: past, row, offset, words },
            1 => Instr::Write { block, row: far, offset, words },
            _ => Instr::Write { block, row, offset: edge(words), words },
        },
        Instr::Copy { dst, words, .. } if pick.is_multiple_of(2) => {
            Instr::Copy { src: past, dst, words }
        }
        Instr::Copy { src, words, .. } => Instr::Copy { src, dst: past, words },
        other => other,
    }
}

#[test]
fn fused_fetches_and_gathers_name_the_first_bad_instruction() {
    let c = chip();
    let num_blocks = ChipCapacity::Mb512.num_blocks() as u32;
    let mut rng = Rng(0xfe7c);
    let (mut errors, mut tapes) = (0, 0);
    for case in 0..400 {
        let mut instrs = idioms(&mut rng).instrs().to_vec();
        if case % 4 != 0 {
            let k = rng.below(instrs.len() as u64) as usize;
            instrs[k] = break_operand(instrs[k], rng.next(), num_blocks);
        }
        let mut s = InstrStream::new();
        instrs.iter().for_each(|&i| s.push(i));
        // Instruction by instruction: the first one rejected alone.
        let expected = instrs.iter().enumerate().find_map(|(index, &instr)| {
            let mut one = InstrStream::new();
            one.push(instr);
            c.lower(&one).err().map(|e| LowerError { index, ..e })
        });
        match (c.lower(&s), expected) {
            (Err(got), Some(want)) => {
                assert_eq!(got, want, "case {case}: {s:?}");
                errors += 1;
            }
            (Ok(tape), None) => {
                chip().replay(&tape);
                tapes += 1;
            }
            (got, want) => panic!("case {case}: lowered to {got:?}, expected {want:?}: {s:?}"),
        }
    }
    assert!(errors > 200 && tapes > 50, "{errors} {tapes}");
}

/// One to four fetch runs over the first 16 blocks: each one to eight
/// ghost fetches from one source into another block, of one column span
/// and word count, that differ in their rows. A third of the runs fetch
/// from the block the run before wrote to, and a third end in a
/// block-local op on their destination.
fn fetch_runs(rng: &mut Rng) -> InstrStream {
    let mut s = InstrStream::new();
    let mut dst = BlockId(0);
    for _ in 0..1 + rng.below(4) {
        let src = if rng.below(3) == 0 { dst } else { BlockId(rng.below(16) as u32) };
        dst = BlockId((src.0 + 1 + rng.below(15) as u32) % 16);
        let words = 1 + rng.below(4) as u8;
        let mut offset = || rng.below(WORDS_PER_ROW as u64 - words as u64 + 1) as u8;
        let (at, into) = (offset(), offset());
        for _ in 0..1 + rng.below(8) {
            let mut row = || rng.below(BLOCK_ROWS as u64) as u16;
            let (from, to) = (row(), row());
            s.push(Instr::Read { block: src, row: from, offset: at, words });
            s.push(Instr::Copy { src, dst, words: words as u16 });
            s.push(Instr::Write { block: dst, row: to, offset: into, words });
        }
        if rng.below(3) == 0 {
            s.push(Instr::Broadcast { block: dst, dst_first: 0, dst_last: 7, offset: 0, words: 1 });
        }
    }
    s
}

#[test]
fn a_fetch_run_names_the_instruction_that_breaks_a_bound() {
    let c = chip();
    let num_blocks = ChipCapacity::Mb512.num_blocks() as u32;
    let mut rng = Rng(0xfe7d);
    for case in 0..300 {
        let mut instrs = fetch_runs(&mut rng).instrs().to_vec();
        // Any operand of any instruction of some triple, the k-th of its
        // run: that instruction is the first the chip rejects.
        let k = rng.below(instrs.len() as u64) as usize;
        instrs[k] = break_operand(instrs[k], rng.next(), num_blocks);
        if let Instr::Broadcast { .. } = instrs[k] {
            continue;
        }
        let mut s = InstrStream::new();
        instrs.iter().for_each(|&i| s.push(i));
        let err = c.lower(&s).unwrap_err();
        assert_eq!((err.index, err.instr), (k, instrs[k]), "case {case}: {s:?}");
    }
}

#[test]
fn a_fetch_run_split_across_parts_lowers_as_the_whole_stream() {
    let c = chip();
    let mut rng = Rng(0x5b17);
    for case in 0..300 {
        let s = fetch_runs(&mut rng);
        let instrs = s.instrs();
        // Cut between two triples, mostly inside a run; now and then an
        // empty part in between.
        let triples: Vec<usize> =
            (0..instrs.len()).filter(|&i| matches!(instrs[i], Instr::Read { .. })).collect();
        let cut = triples[rng.below(triples.len() as u64) as usize];
        let mut lowering = c.lowering();
        let part = |range: std::ops::Range<usize>| {
            let mut p = InstrStream::new();
            instrs[range].iter().for_each(|&i| p.push(i));
            p
        };
        lowering.push(&part(0..cut)).unwrap();
        if case % 4 == 0 {
            lowering.push(&InstrStream::new()).unwrap();
        }
        lowering.push(&part(cut..instrs.len())).unwrap();
        assert_eq!(lowering.finish(), c.lower(&s).unwrap(), "case {case}: cut at {cut} of {s:?}");
    }
}
