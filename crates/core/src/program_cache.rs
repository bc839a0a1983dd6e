//! Compile-once program caching: kernel programs lowered once, one tape
//! per stage variant.
//!
//! The mesh topology, the block map, and the kernel structure never
//! change inside the time loop, so the instruction stream a kernel
//! compiles to is invariant across steps — recompiling it every LSRK
//! stage (as the runners originally did) buys nothing but host time.
//! The decoupled access-execute literature and GPU-simulator trace
//! replay make the same separation: build the static *program* once,
//! then *replay* it.
//!
//! A compiled kernel is a list of [`KernelParts`]: instructions issued
//! as they stand, or one run of block-local instructions issued on each
//! block of a block set. Every element runs the same kernel program on
//! its own block ("there is no inter-block data dependency", §6.2.1),
//! so a one-block mapping emits each uniform phase of a kernel once and
//! names the shard's blocks; [`KernelParts::lower`] lowers the run once
//! ([`pim_sim::Lowering::repeat`]) into the tape the expanded stream,
//! element by element ([`KernelParts::expand`]), lowers to.
//!
//! The runners keep no streams: each kernel is lowered to a
//! [`pim_sim::Tape`] as soon as it is compiled. Only Integration varies
//! across stages — it embeds the LSRK coefficients `A[s]`/`B[s]` as
//! `Read` offsets into the constants staging row, two instructions per
//! element; Volume, Flux, the LUT setup, and the halo DMA streams are
//! byte-identical across stages. [`StageProgram`] holds one tape per
//! stage variant, which is less code than patching one tape in place,
//! for a few hundred kilobytes per chip. It still counts where the
//! expanded variants differ (the *patch sites*).
//!
//! A program is named by what it is compiled from (the mesh, the block
//! map, the mapping and the chip), not by hashing its instructions: the
//! fleet keys programs by their specs, and tests pin the compiled
//! streams.

use pim_isa::{BlockId, Instr, InstrStream, StreamStats};
use pim_sim::{LowerError, PimChip, Tape};

/// One part of a compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// Instructions issued as they stand: the per-element work (ghost
    /// fetches, math, DMAs, LUT set-up, multi-block elements' phases).
    Stream(InstrStream),
    /// A run of block-local instructions, issued on each block of
    /// `blocks` in turn ([`Instr::on_block`]).
    Repeat { run: InstrStream, blocks: Vec<BlockId> },
}

/// A compiled kernel as a list of [`Part`]s; see the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelParts {
    parts: Vec<Part>,
}

impl From<InstrStream> for KernelParts {
    fn from(stream: InstrStream) -> Self {
        Self { parts: vec![Part::Stream(stream)] }
    }
}

impl KernelParts {
    /// The parts, in issue order.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// The trailing [`Part::Stream`], opened after a run.
    pub(crate) fn stream(&mut self) -> &mut InstrStream {
        if !matches!(self.parts.last(), Some(Part::Stream(_))) {
            self.parts.push(Part::Stream(InstrStream::new()));
        }
        match self.parts.last_mut() {
            Some(Part::Stream(s)) => s,
            _ => unreachable!("a stream part was just opened"),
        }
    }

    /// Appends one instruction as it stands.
    pub(crate) fn push(&mut self, instr: Instr) {
        self.stream().push(instr);
    }

    /// Appends `run` issued on each block of `blocks` (nothing when
    /// either is empty).
    ///
    /// # Panics
    /// Panics if `run` holds a transfer, DMA, `Lut` or barrier.
    pub(crate) fn repeat(&mut self, run: InstrStream, blocks: Vec<BlockId>) {
        assert!(
            run.instrs().iter().all(|i| i.on_block(BlockId(0)).is_some()),
            "a repeated run holds block-local instructions only"
        );
        if !run.is_empty() && !blocks.is_empty() {
            self.parts.push(Part::Repeat { run, blocks });
        }
    }

    /// Instructions in the expanded stream.
    pub fn len(&self) -> usize {
        self.parts
            .iter()
            .map(|part| match part {
                Part::Stream(s) => s.len(),
                Part::Repeat { run, blocks } => run.len() * blocks.len(),
            })
            .sum()
    }

    /// True when the expanded stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The expanded stream's statistics.
    pub fn stats(&self) -> StreamStats {
        let mut stats = StreamStats::default();
        for part in &self.parts {
            match part {
                Part::Stream(s) => stats.merge(s.stats()),
                Part::Repeat { run, blocks } => {
                    stats.merge(&run.stats().scaled(blocks.len() as u64))
                }
            }
        }
        stats
    }

    /// The expanded stream: every run on each of its blocks in turn.
    pub fn expand(&self) -> InstrStream {
        let mut s = InstrStream::new();
        for part in &self.parts {
            match part {
                Part::Stream(stream) => stream.instrs().iter().for_each(|&i| s.push(i)),
                Part::Repeat { run, blocks } => {
                    for &b in blocks {
                        run.instrs().iter().for_each(|i| s.push(i.on_block(b).unwrap_or(*i)));
                    }
                }
            }
        }
        s
    }

    /// Lowers the parts for `chip`: the tape [`PimChip::lower`] makes of
    /// the expanded stream, with each run lowered once.
    ///
    /// # Errors
    /// As lowering the expanded stream.
    pub fn lower(&self, chip: &PimChip) -> Result<Tape, LowerError> {
        let mut lowering = chip.lowering();
        for part in &self.parts {
            match part {
                Part::Stream(s) => lowering.push(s)?,
                Part::Repeat { run, blocks } => lowering.repeat(run, blocks)?,
            }
        }
        Ok(lowering.finish())
    }
}

/// A kernel program compiled once for every stage variant and lowered
/// to one tape per variant.
///
/// All variants must share length, [`StreamStats`] and the layout of
/// their parts — true by construction for kernels that only differ in
/// staged-constant addresses, and asserted here.
pub struct StageProgram {
    tapes: Vec<Tape>,
    /// Instructions where at least two stage variants differ.
    sites: usize,
}

impl StageProgram {
    /// Builds the program from the compiler's per-stage kernels, each
    /// lowered by `lower`.
    ///
    /// # Panics
    /// Panics if `variants` is empty, or the variants disagree in length,
    /// statistics or the layout of their parts (such kernels are
    /// different *programs*, not stage variants of one program).
    pub fn new(variants: Vec<KernelParts>, lower: impl FnMut(&KernelParts) -> Tape) -> Self {
        assert!(!variants.is_empty(), "a program needs at least one stage variant");
        let (len, stats) = (variants[0].len(), variants[0].stats());
        for (s, v) in variants.iter().enumerate().skip(1) {
            assert_eq!(v.len(), len, "stage {s} variant changed the stream length");
            assert_eq!(v.stats(), stats, "stage {s} variant changed the stream stats");
        }
        Self { sites: patch_sites(&variants), tapes: variants.iter().map(lower).collect() }
    }

    /// Number of patch sites — how many instructions actually vary
    /// across stages (for Integration: two per element).
    pub fn num_patch_sites(&self) -> usize {
        self.sites
    }

    /// Instructions per stage variant.
    pub fn len(&self) -> usize {
        self.tapes[0].len()
    }

    /// The stream statistics shared by every stage variant (asserted
    /// equal at construction).
    pub fn stats(&self) -> &StreamStats {
        self.tapes[0].stats()
    }

    /// Heap bytes of every stage's tape.
    pub fn heap_bytes(&self) -> usize {
        self.tapes.iter().map(Tape::heap_bytes).sum()
    }

    /// True when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.tapes[0].is_empty()
    }

    /// The tape for `stage`.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    pub fn for_stage(&self, stage: usize) -> &Tape {
        assert!(stage < self.tapes.len(), "stage {stage} out of range");
        &self.tapes[stage]
    }
}

/// The instructions of part `i` of `v`, laid out as `base`.
///
/// # Panics
/// Panics if the part differs from `base` in kind, length or blocks.
fn same_layout<'a>(v: &'a KernelParts, i: usize, base: &Part) -> &'a [Instr] {
    match (&v.parts[i], base) {
        (Part::Stream(s), Part::Stream(b)) if s.len() == b.len() => s.instrs(),
        (Part::Repeat { run, blocks }, Part::Repeat { run: r, blocks: b })
            if run.len() == r.len() && blocks == b =>
        {
            run.instrs()
        }
        _ => panic!("stage variants must share their parts' layout"),
    }
}

/// Instructions of the expanded stream where at least two variants
/// differ. The variants share their parts' layout, so the sites are
/// counted part by part: a site in a repeated run is a site on each of
/// its blocks.
///
/// # Panics
/// Panics if the variants' parts differ in layout.
fn patch_sites(variants: &[KernelParts]) -> usize {
    let layout = variants[0].parts.len();
    assert!(
        variants.iter().all(|v| v.parts.len() == layout),
        "stage variants must share their parts' layout"
    );
    let mut sites = 0;
    for (i, part) in variants[0].parts.iter().enumerate() {
        let each: Vec<&[Instr]> = variants.iter().map(|v| same_layout(v, i, part)).collect();
        let (instrs, copies) = match part {
            Part::Stream(s) => (s.instrs(), 1),
            Part::Repeat { run, blocks } => (run.instrs(), blocks.len()),
        };
        let differ = (0..instrs.len()).filter(|&j| each.iter().any(|v| v[j] != instrs[j])).count();
        sites += differ * copies;
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{BlockId, Instr};
    use pim_sim::{ChipConfig, PimChip};

    fn variant(offsets: [u8; 2]) -> InstrStream {
        let mut s = InstrStream::new();
        s.push(Instr::Read { block: BlockId(0), row: 9, offset: offsets[0], words: 1 });
        s.push(Instr::Broadcast {
            block: BlockId(0),
            dst_first: 0,
            dst_last: 26,
            offset: 3,
            words: 1,
        });
        s.push(Instr::Read { block: BlockId(0), row: 9, offset: offsets[1], words: 1 });
        s.push(Instr::Sync);
        s
    }

    fn program(variants: Vec<InstrStream>) -> StageProgram {
        let chip = PimChip::new(ChipConfig::default_2gb());
        StageProgram::new(variants.into_iter().map(KernelParts::from).collect(), |k| {
            k.lower(&chip).unwrap()
        })
    }

    #[test]
    fn patched_replay_is_byte_identical_to_each_variant() {
        let variants: Vec<InstrStream> =
            (0..5).map(|s| variant([10 + s as u8, 15 + s as u8])).collect();
        let chip = PimChip::new(ChipConfig::default_2gb());
        let fresh: Vec<Tape> = variants.iter().map(|v| chip.lower(v).unwrap()).collect();
        let prog = program(variants);
        assert_eq!(prog.num_patch_sites(), 2);
        // Out-of-order access must still land exactly on each variant.
        for s in [3, 0, 4, 1, 2, 2, 0] {
            assert_eq!(prog.for_stage(s), &fresh[s], "stage {s} replay diverged");
        }
    }

    #[test]
    fn identical_variants_need_no_patch_sites() {
        let variants = vec![variant([1, 2]), variant([1, 2])];
        let prog = program(variants);
        assert_eq!(prog.num_patch_sites(), 0);
        let a = prog.for_stage(1).clone();
        assert_eq!(&a, prog.for_stage(0));
    }

    #[test]
    fn a_site_in_a_repeated_run_counts_on_each_block() {
        let parts = |stage: u8| {
            let mut run = InstrStream::new();
            run.push(Instr::Read { block: BlockId(0), row: 9, offset: 10 + stage, words: 1 });
            run.push(Instr::Broadcast {
                block: BlockId(0),
                dst_first: 0,
                dst_last: 26,
                offset: 3,
                words: 1,
            });
            let mut k = KernelParts::default();
            k.repeat(run, vec![BlockId(0), BlockId(3), BlockId(5)]);
            k.push(Instr::Read { block: BlockId(7), row: 9, offset: 20 + stage, words: 1 });
            k.push(Instr::Sync);
            k
        };
        let chip = PimChip::new(ChipConfig::default_2gb());
        let variants: Vec<KernelParts> = (0..5).map(parts).collect();
        let prog = StageProgram::new(variants.clone(), |k| k.lower(&chip).unwrap());
        // One differing `Read` in the run on each of three blocks, one
        // in the trailing stream.
        assert_eq!(prog.num_patch_sites(), 3 + 1);
        for (s, v) in variants.iter().enumerate() {
            assert_eq!(prog.for_stage(s), &chip.lower(&v.expand()).unwrap(), "stage {s}");
        }
    }

    #[test]
    #[should_panic(expected = "stream length")]
    fn mismatched_lengths_are_rejected() {
        let mut short = InstrStream::new();
        short.push(Instr::Sync);
        program(vec![variant([1, 2]), short]);
    }
}
