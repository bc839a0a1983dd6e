//! Instruction streams and their statistics.
//!
//! The Wave-PIM compiler (the `wave-pim` crate) emits one stream per
//! kernel; the PIM simulator consumes them. Streams keep running
//! statistics so the analytic cost model can work from counts without
//! re-scanning.

use serde::{Deserialize, Serialize};

use crate::instr::Instr;

/// The FNV-1a offset basis — the canonical seed for [`fnv1a`] chains.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a mixing step folding a 64-bit word into hash `h`, byte by
/// byte. Used wherever the workspace needs a stable, dependency-free
/// hash (the fleet's spec keys, the tests' stream and state digests).
#[inline]
pub fn fnv1a(mut h: u64, x: u64) -> u64 {
    for byte in x.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Class-wise instruction counts of a stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamStats {
    pub reads: u64,
    pub writes: u64,
    pub broadcasts: u64,
    /// Rows covered by broadcasts (each broadcast replicates into many
    /// rows; the energy model charges per destination row).
    pub broadcast_rows: u64,
    pub copies: u64,
    /// Total 32-bit words moved by inter-block copies.
    pub copy_words: u64,
    pub ariths: u64,
    /// Adds/Subs/Negs/Movs vs Muls/Macs, split because their bit-serial
    /// cycle counts differ by ~2× (see `pim-sim::params`).
    pub arith_addlike: u64,
    pub arith_mullike: u64,
    /// Rows covered by row-parallel arithmetic (each selected row is one
    /// crossbar activation; the energy model charges per row). Defaults
    /// to 0 when deserializing stats recorded before this counter.
    #[serde(default)]
    pub arith_rows: u64,
    pub luts: u64,
    pub offchip_loads: u64,
    pub offchip_stores: u64,
    /// Total bytes crossing the chip boundary.
    pub offchip_bytes: u64,
    pub syncs: u64,
}

impl StreamStats {
    /// Total instruction count.
    pub fn total(&self) -> u64 {
        self.reads
            + self.writes
            + self.broadcasts
            + self.copies
            + self.ariths
            + self.luts
            + self.offchip_loads
            + self.offchip_stores
            + self.syncs
    }

    /// Accumulates one instruction into the counters.
    pub fn record(&mut self, instr: &Instr) {
        match instr {
            Instr::Read { .. } => self.reads += 1,
            Instr::Write { .. } => self.writes += 1,
            Instr::Broadcast { dst_first, dst_last, .. } => {
                self.broadcasts += 1;
                self.broadcast_rows += (*dst_last as u64).saturating_sub(*dst_first as u64) + 1;
            }
            Instr::Copy { words, .. } => {
                self.copies += 1;
                self.copy_words += *words as u64;
            }
            Instr::Arith { op, first_row, last_row, .. } => {
                self.ariths += 1;
                // `saturating_sub`, like `broadcast_rows`: a degenerate
                // range (last < first) counts one row here and is rejected
                // by the block when executed — the counters must never be
                // the thing that panics first.
                self.arith_rows += (*last_row as u64).saturating_sub(*first_row as u64) + 1;
                match op {
                    crate::AluOp::Mul | crate::AluOp::Mac => self.arith_mullike += 1,
                    _ => self.arith_addlike += 1,
                }
            }
            Instr::Lut { .. } => self.luts += 1,
            Instr::LoadOffchip { bytes, .. } => {
                self.offchip_loads += 1;
                self.offchip_bytes += *bytes as u64;
            }
            Instr::StoreOffchip { bytes, .. } => {
                self.offchip_stores += 1;
                self.offchip_bytes += *bytes as u64;
            }
            Instr::Sync => self.syncs += 1,
        }
    }

    /// Merges another stream's statistics into this one.
    pub fn merge(&mut self, other: &StreamStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.broadcasts += other.broadcasts;
        self.broadcast_rows += other.broadcast_rows;
        self.copies += other.copies;
        self.copy_words += other.copy_words;
        self.ariths += other.ariths;
        self.arith_addlike += other.arith_addlike;
        self.arith_mullike += other.arith_mullike;
        self.arith_rows += other.arith_rows;
        self.luts += other.luts;
        self.offchip_loads += other.offchip_loads;
        self.offchip_stores += other.offchip_stores;
        self.offchip_bytes += other.offchip_bytes;
        self.syncs += other.syncs;
    }

    /// Crossbar row activations implied by the counted instructions: one
    /// row per read/write, one per destination row of a broadcast, one
    /// per selected row of a row-parallel arithmetic op, and three per
    /// LUT fetch (Algorithm 1: two reads plus the result write). O(1)
    /// from the running counters — the simulator's metrics path used to
    /// rescan the whole stream for this.
    pub fn row_activations(&self) -> u64 {
        self.reads + self.writes + self.broadcast_rows + self.arith_rows + 3 * self.luts
    }

    /// Scales all counters (e.g. one element's stream × element count).
    pub fn scaled(&self, by: u64) -> StreamStats {
        StreamStats {
            reads: self.reads * by,
            writes: self.writes * by,
            broadcasts: self.broadcasts * by,
            broadcast_rows: self.broadcast_rows * by,
            copies: self.copies * by,
            copy_words: self.copy_words * by,
            ariths: self.ariths * by,
            arith_addlike: self.arith_addlike * by,
            arith_mullike: self.arith_mullike * by,
            arith_rows: self.arith_rows * by,
            luts: self.luts * by,
            offchip_loads: self.offchip_loads * by,
            offchip_stores: self.offchip_stores * by,
            offchip_bytes: self.offchip_bytes * by,
            syncs: self.syncs * by,
        }
    }
}

/// An instruction stream with running statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrStream {
    instrs: Vec<Instr>,
    stats: StreamStats,
}

impl InstrStream {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: Instr) {
        self.stats.record(&instr);
        self.instrs.push(instr);
    }

    /// Appends every instruction of another stream.
    pub fn extend_from(&mut self, other: &InstrStream) {
        self.instrs.extend_from_slice(&other.instrs);
        self.stats.merge(&other.stats);
    }

    /// Folds every instruction's 64-bit encoding into `seed` with the
    /// FNV-1a mix — a stable content hash of the stream, which tests use
    /// to pin what the compilers emit.
    pub fn content_hash(&self, seed: u64) -> u64 {
        self.instrs.iter().fold(seed, |h, instr| fnv1a(h, crate::encode(instr)))
    }

    /// The instructions in program order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The running statistics.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BlockId};

    #[test]
    fn stats_track_pushes() {
        let mut s = InstrStream::new();
        s.push(Instr::Read { block: BlockId(0), row: 0, offset: 0, words: 4 });
        s.push(Instr::Copy { src: BlockId(0), dst: BlockId(5), words: 32 });
        s.push(Instr::Copy { src: BlockId(1), dst: BlockId(2), words: 8 });
        s.push(Instr::Arith {
            block: BlockId(0),
            op: AluOp::Mul,
            first_row: 0,
            last_row: 511,
            dst: 0,
            a: 1,
            b: 2,
        });
        s.push(Instr::Arith {
            block: BlockId(0),
            op: AluOp::Add,
            first_row: 0,
            last_row: 511,
            dst: 0,
            a: 1,
            b: 2,
        });
        s.push(Instr::Broadcast {
            block: BlockId(0),
            dst_first: 0,
            dst_last: 511,
            offset: 0,
            words: 1,
        });
        s.push(Instr::LoadOffchip { block: BlockId(0), bytes: 2048 });
        s.push(Instr::Sync);

        let st = s.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.copies, 2);
        assert_eq!(st.copy_words, 40);
        assert_eq!(st.ariths, 2);
        assert_eq!(st.arith_mullike, 1);
        assert_eq!(st.arith_addlike, 1);
        assert_eq!(st.broadcasts, 1);
        assert_eq!(st.broadcast_rows, 512);
        assert_eq!(st.offchip_bytes, 2048);
        assert_eq!(st.syncs, 1);
        assert_eq!(st.total(), 8);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn arith_rows_and_row_activations_track_pushes() {
        let mut s = InstrStream::new();
        s.push(Instr::Arith {
            block: BlockId(0),
            op: AluOp::Mul,
            first_row: 0,
            last_row: 511,
            dst: 0,
            a: 1,
            b: 2,
        });
        s.push(Instr::Arith {
            block: BlockId(0),
            op: AluOp::Add,
            first_row: 10,
            last_row: 10,
            dst: 0,
            a: 1,
            b: 2,
        });
        s.push(Instr::Read { block: BlockId(0), row: 0, offset: 0, words: 1 });
        s.push(Instr::Write { block: BlockId(0), row: 0, offset: 0, words: 1 });
        s.push(Instr::Broadcast {
            block: BlockId(0),
            dst_first: 0,
            dst_last: 3,
            offset: 0,
            words: 1,
        });
        s.push(Instr::Lut { row: 0, offset_s: 0, lut_block: 1, offset_d: 1 });
        let st = s.stats();
        assert_eq!(st.arith_rows, 513);
        assert_eq!(st.row_activations(), 513 + 1 + 1 + 4 + 3);
    }

    #[test]
    fn degenerate_ranges_saturate_to_one_row_in_both_counters() {
        // A malformed (last < first) range must count one row, exactly
        // like `broadcast_rows` — the simulator rejects the instruction
        // at execution; the counters stay panic-free.
        let mut st = StreamStats::default();
        st.record(&Instr::Broadcast {
            block: BlockId(0),
            dst_first: 7,
            dst_last: 2,
            offset: 0,
            words: 1,
        });
        st.record(&Instr::Arith {
            block: BlockId(0),
            op: AluOp::Add,
            first_row: 9,
            last_row: 3,
            dst: 0,
            a: 1,
            b: 2,
        });
        assert_eq!(st.broadcast_rows, 1);
        assert_eq!(st.arith_rows, 1);
        assert_eq!(st.row_activations(), 2);
    }

    #[test]
    fn merge_and_scale_are_consistent() {
        let mut a = StreamStats::default();
        a.record(&Instr::Copy { src: BlockId(0), dst: BlockId(1), words: 10 });
        let mut doubled = a;
        doubled.merge(&a);
        assert_eq!(doubled, a.scaled(2));
        assert_eq!(a.scaled(3).copy_words, 30);
    }

    #[test]
    fn extend_from_merges_everything() {
        let mut a = InstrStream::new();
        a.push(Instr::Sync);
        let mut b = InstrStream::new();
        b.push(Instr::Read { block: BlockId(1), row: 1, offset: 0, words: 1 });
        b.push(Instr::Sync);
        a.extend_from(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.stats().syncs, 2);
        assert_eq!(a.stats().reads, 1);
    }
}
