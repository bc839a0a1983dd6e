//! Compile-once program caching: immutable kernel programs plus
//! per-stage patch tables.
//!
//! The mesh topology, the block map, and the kernel structure never
//! change inside the time loop, so the instruction stream a kernel
//! compiles to is invariant across steps — recompiling it every LSRK
//! stage (as the runners originally did) buys nothing but host time.
//! The decoupled access-execute literature and GPU-simulator trace
//! replay make the same separation: build the static *program* once,
//! then *replay* it with only the genuinely dynamic parts patched in.
//!
//! For Wave-PIM's kernels the dynamic part is tiny and known: the
//! Integration stream embeds the LSRK stage coefficients `A[s]`/`B[s]`
//! as `Read` offsets into the constants staging row (two instructions
//! per element); Volume, Flux, the LUT setup, and the halo DMA streams
//! are byte-identical across stages. [`StageProgram`] captures exactly
//! that split: one immutable base stream plus, per stage, the
//! instruction values at the few *patch sites* where any stage differs.
//!
//! Correctness is checked twice: construction (in debug builds) replays
//! every stage through the patch table and asserts byte-equality with
//! the compiler's per-stage output, and the runners `debug_assert` each
//! replayed stream against a fresh compile at issue time.

use pim_isa::{Instr, InstrStream};

/// Program-cache counters of one metered run: replays that reused the
/// already-applied stage vs stage switches, and how many instruction
/// words the switches patched. Every [`StageProgram`] the run attaches
/// shares them; the bench layer's compile-vs-replay accounting reads
/// these.
struct CacheMetrics {
    stage_reuses: pim_metrics::Counter,
    stage_switches: pim_metrics::Counter,
    patched_instrs: pim_metrics::Counter,
}

/// A kernel program compiled once, replayable for any of its stage
/// variants by applying a small patch table in place.
///
/// All variants must share length and [`pim_isa::StreamStats`] — true by
/// construction for streams that only differ in staged-constant
/// addresses, and asserted here.
pub struct StageProgram {
    /// The working stream, currently patched to `applied`.
    working: InstrStream,
    /// Instruction indices where at least two stage variants differ.
    sites: Vec<usize>,
    /// `patches[stage][k]` = the instruction at `sites[k]` for `stage`.
    /// Complete per stage, so applying stage `s`'s row converts a stream
    /// patched to *any* stage into exactly stage `s`.
    patches: Vec<Vec<Instr>>,
    /// Which stage the working stream currently encodes.
    applied: usize,
    /// Set by [`Self::attach_metrics`]; `None` records nothing.
    metrics: Option<CacheMetrics>,
    /// Debug-build bookkeeping: which stages an issue site has already
    /// verified against a fresh compile (see [`Self::take_verify`]).
    #[cfg(debug_assertions)]
    verified: Vec<bool>,
}

impl StageProgram {
    /// Builds the program from the compiler's per-stage streams.
    ///
    /// # Panics
    /// Panics if `variants` is empty, or the variants disagree in length
    /// or statistics (such streams are different *programs*, not stage
    /// patchings of one program).
    pub fn new(variants: Vec<InstrStream>) -> Self {
        assert!(!variants.is_empty(), "a program needs at least one stage variant");
        let base = &variants[0];
        for (s, v) in variants.iter().enumerate().skip(1) {
            assert_eq!(v.len(), base.len(), "stage {s} variant changed the stream length");
            assert_eq!(v.stats(), base.stats(), "stage {s} variant changed the stream stats");
        }

        let sites: Vec<usize> = (0..base.len())
            .filter(|&i| variants.iter().any(|v| v.instrs()[i] != base.instrs()[i]))
            .collect();
        let patches: Vec<Vec<Instr>> =
            variants.iter().map(|v| sites.iter().map(|&i| v.instrs()[i]).collect()).collect();

        #[cfg_attr(not(debug_assertions), allow(unused_mut))]
        let mut program = Self {
            #[cfg(debug_assertions)]
            verified: vec![false; variants.len()],
            working: variants.into_iter().next().unwrap(),
            sites,
            patches,
            applied: 0,
            metrics: None,
        };
        #[cfg(debug_assertions)]
        {
            // Round-trip check: every stage must replay byte-identical
            // through the patch table. (`variants` was consumed, so walk
            // the stages through the working stream and compare sites —
            // off-site instructions are shared by construction.)
            for s in 0..program.patches.len() {
                program.apply(s);
                for (k, &i) in program.sites.iter().enumerate() {
                    debug_assert_eq!(program.working.instrs()[i], program.patches[s][k]);
                }
            }
            program.apply(0);
        }
        program
    }

    /// Meters this program's replays into `registry`'s
    /// `program_cache_*_total` counters.
    pub fn attach_metrics(&mut self, registry: &pim_metrics::MetricsRegistry) {
        self.metrics = Some(CacheMetrics {
            stage_reuses: registry.counter("program_cache_stage_reuses_total", &[]),
            stage_switches: registry.counter("program_cache_stage_switches_total", &[]),
            patched_instrs: registry.counter("program_cache_patched_instrs_total", &[]),
        });
    }

    /// Number of stage variants.
    pub fn num_stages(&self) -> usize {
        self.patches.len()
    }

    /// Number of patch sites — how many instructions actually vary
    /// across stages (for Integration: two per element).
    pub fn num_patch_sites(&self) -> usize {
        self.sites.len()
    }

    /// Instructions per stage variant.
    pub fn len(&self) -> usize {
        self.working.len()
    }

    /// The stream statistics shared by every stage variant (asserted
    /// equal at construction).
    pub fn stats(&self) -> &pim_isa::StreamStats {
        self.working.stats()
    }

    /// True when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.working.is_empty()
    }

    /// A stable content key for the whole program: the FNV-1a hash of
    /// stage 0's full stream followed by the patch-site indices and
    /// every stage's patch row. Independent of which stage is currently
    /// applied to the working stream, so two programs key equal exactly
    /// when every stage variant is byte-identical — the property that
    /// lets a fleet-level cache score placement affinity by key and
    /// trust that a key hit replays byte-identically.
    pub fn content_key(&self) -> u64 {
        let mut h = pim_isa::FNV_OFFSET;
        // Stage 0's stream, reconstructed site-by-site so the currently
        // applied patch state does not leak into the key: off-site
        // instructions are shared by every variant, on-site ones come
        // from stage 0's patch row.
        let mut next_site = 0usize;
        for (i, instr) in self.working.instrs().iter().enumerate() {
            let canonical = if self.sites.get(next_site) == Some(&i) {
                let patched = &self.patches[0][next_site];
                next_site += 1;
                patched
            } else {
                instr
            };
            h = pim_isa::fnv1a(h, pim_isa::encode(canonical));
        }
        for &site in &self.sites {
            h = pim_isa::fnv1a(h, site as u64);
        }
        for row in &self.patches {
            for instr in row {
                h = pim_isa::fnv1a(h, pim_isa::encode(instr));
            }
        }
        h
    }

    /// Debug-build helper for issue sites: returns `true` the first
    /// time it is asked about `stage`, `false` forever after. Runners
    /// use it to compare the patched replay against a fresh per-stage
    /// compile exactly once — the streams are immutable afterwards, so
    /// re-verifying every step would only re-pay compilation in the
    /// builds meant to measure the cache.
    #[cfg(debug_assertions)]
    pub fn take_verify(&mut self, stage: usize) -> bool {
        !std::mem::replace(&mut self.verified[stage], true)
    }

    fn apply(&mut self, stage: usize) {
        if self.applied == stage {
            if let Some(metrics) = &self.metrics {
                metrics.stage_reuses.inc();
            }
            return;
        }
        for (k, &i) in self.sites.iter().enumerate() {
            self.working.patch(i, self.patches[stage][k]);
        }
        if let Some(metrics) = &self.metrics {
            metrics.stage_switches.inc();
            metrics.patched_instrs.add(self.sites.len() as u64);
        }
        self.applied = stage;
    }

    /// The stream for `stage`, produced by patching in place — O(sites),
    /// no allocation, no recompilation.
    ///
    /// # Panics
    /// Panics if `stage` is out of range.
    pub fn for_stage(&mut self, stage: usize) -> &InstrStream {
        assert!(stage < self.patches.len(), "stage {stage} out of range");
        self.apply(stage);
        &self.working
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::BlockId;

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

    #[test]
    fn patched_replay_is_byte_identical_to_each_variant() {
        let variants: Vec<InstrStream> =
            (0..5).map(|s| variant([10 + s as u8, 15 + s as u8])).collect();
        let fresh = variants.clone();
        let mut prog = StageProgram::new(variants);
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
        let mut prog = StageProgram::new(variants);
        assert_eq!(prog.num_patch_sites(), 0);
        let a = prog.for_stage(1).clone();
        assert_eq!(&a, prog.for_stage(0));
    }

    #[test]
    fn content_key_is_stable_across_applied_stages() {
        let variants: Vec<InstrStream> =
            (0..5).map(|s| variant([10 + s as u8, 15 + s as u8])).collect();
        let mut a = StageProgram::new(variants.clone());
        let mut b = StageProgram::new(variants);
        let key = a.content_key();
        // Patching a to a different stage than b must not move the key:
        // it names the program, not the working stream's current state.
        let _ = a.for_stage(3);
        let _ = b.for_stage(1);
        assert_eq!(a.content_key(), key);
        assert_eq!(b.content_key(), key);
        // A genuinely different program keys differently.
        let other = StageProgram::new((0..5).map(|s| variant([11 + s as u8, 15])).collect());
        assert_ne!(other.content_key(), key);
    }

    #[test]
    #[should_panic(expected = "stream length")]
    fn mismatched_lengths_are_rejected() {
        let mut short = InstrStream::new();
        short.push(Instr::Sync);
        StageProgram::new(vec![variant([1, 2]), short]);
    }
}
