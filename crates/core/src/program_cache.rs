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
//! The runners go one step further and keep no streams at all: each
//! kernel is lowered to a [`pim_sim::Tape`] as soon as it is compiled
//! and the stream is dropped. Only Integration varies across stages —
//! it embeds the LSRK coefficients `A[s]`/`B[s]` as `Read` offsets into
//! the constants staging row, two instructions per element; Volume,
//! Flux, the LUT setup, and the halo DMA streams are byte-identical
//! across stages. [`StageProgram`] holds one tape per stage variant,
//! which is less code than patching one tape in place, for a few
//! hundred kilobytes per chip. It still records where the variants
//! differ (the *patch sites*) and a content key over all of them.

use pim_isa::{InstrStream, StreamStats};
use pim_sim::Tape;

/// A kernel program compiled once for every stage variant and lowered
/// to one tape per variant.
///
/// All variants must share length and [`StreamStats`] — true by
/// construction for streams that only differ in staged-constant
/// addresses, and asserted here.
pub struct StageProgram {
    tapes: Vec<Tape>,
    /// Instructions where at least two stage variants differ.
    sites: usize,
    /// See [`Self::content_key`].
    key: u64,
}

impl StageProgram {
    /// Builds the program from the compiler's per-stage streams, each
    /// lowered by `lower`.
    ///
    /// # Panics
    /// Panics if `variants` is empty, or the variants disagree in length
    /// or statistics (such streams are different *programs*, not stage
    /// variants of one program).
    pub fn new(variants: Vec<InstrStream>, lower: impl FnMut(&InstrStream) -> Tape) -> Self {
        assert!(!variants.is_empty(), "a program needs at least one stage variant");
        let base = &variants[0];
        for (s, v) in variants.iter().enumerate().skip(1) {
            assert_eq!(v.len(), base.len(), "stage {s} variant changed the stream length");
            assert_eq!(v.stats(), base.stats(), "stage {s} variant changed the stream stats");
        }
        let sites: Vec<usize> = (0..base.len())
            .filter(|&i| variants.iter().any(|v| v.instrs()[i] != base.instrs()[i]))
            .collect();
        Self {
            key: content_key(&variants, &sites),
            sites: sites.len(),
            tapes: variants.iter().map(lower).collect(),
        }
    }

    /// Number of stage variants.
    pub fn num_stages(&self) -> usize {
        self.tapes.len()
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

    /// A stable content key for the whole program: the FNV-1a hash of
    /// stage 0's full stream followed by the patch-site indices and
    /// every stage's instructions at those sites. Two programs key
    /// equal exactly when every stage variant is byte-identical — the
    /// property that lets a fleet-level cache score placement affinity
    /// by key and trust that a key hit replays byte-identically.
    pub fn content_key(&self) -> u64 {
        self.key
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

/// See [`StageProgram::content_key`].
fn content_key(variants: &[InstrStream], sites: &[usize]) -> u64 {
    let mut h = variants[0].content_hash(pim_isa::FNV_OFFSET);
    for &site in sites {
        h = pim_isa::fnv1a(h, site as u64);
    }
    for v in variants {
        for &site in sites {
            h = pim_isa::fnv1a(h, pim_isa::encode(&v.instrs()[site]));
        }
    }
    h
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
        StageProgram::new(variants, |s| chip.lower(s).unwrap())
    }

    #[test]
    fn patched_replay_is_byte_identical_to_each_variant() {
        let variants: Vec<InstrStream> =
            (0..5).map(|s| variant([10 + s as u8, 15 + s as u8])).collect();
        let chip = PimChip::new(ChipConfig::default_2gb());
        let fresh: Vec<Tape> = variants.iter().map(|v| chip.lower(v).unwrap()).collect();
        let prog = program(variants);
        assert_eq!(prog.num_stages(), 5);
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
    fn content_key_is_stable_across_applied_stages() {
        let variants: Vec<InstrStream> =
            (0..5).map(|s| variant([10 + s as u8, 15 + s as u8])).collect();
        let a = program(variants.clone());
        let b = program(variants);
        let key = a.content_key();
        // Replaying a different stage on each must not move the key: it
        // names the program, not the stage replayed last.
        let _ = a.for_stage(3);
        let _ = b.for_stage(1);
        assert_eq!(a.content_key(), key);
        assert_eq!(b.content_key(), key);
        // A genuinely different program keys differently.
        let other = program((0..5).map(|s| variant([11 + s as u8, 15])).collect());
        assert_ne!(other.content_key(), key);
    }

    #[test]
    fn content_key_matches_the_patch_table_layout() {
        // The key hashes stage 0's stream, the patch-site indices, then
        // each stage's instructions at the sites — the layout the
        // patched-stream cache used, so cached-program keys carry over.
        let variants: Vec<InstrStream> = (0..3).map(|s| variant([10 + s as u8, 15])).collect();
        let mut h = variants[0].content_hash(pim_isa::FNV_OFFSET);
        h = pim_isa::fnv1a(h, 0);
        for v in &variants {
            h = pim_isa::fnv1a(h, pim_isa::encode(&v.instrs()[0]));
        }
        assert_eq!(program(variants).content_key(), h);
    }

    #[test]
    #[should_panic(expected = "stream length")]
    fn mismatched_lengths_are_rejected() {
        let mut short = InstrStream::new();
        short.push(Instr::Sync);
        program(vec![variant([1, 2]), short]);
    }
}
