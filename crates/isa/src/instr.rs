//! Instruction forms.

use serde::{Deserialize, Serialize};

/// Chip-global memory-block identifier. With 256 blocks per 32 MB tile,
/// a 16 GB chip has 131,072 blocks — 17 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Maximum encodable id (17 bits).
    pub const MAX: u32 = (1 << 17) - 1;

    /// The tile this block belongs to (256 blocks per tile).
    #[inline]
    pub fn tile(self) -> u32 {
        self.0 / crate::BLOCKS_PER_TILE as u32
    }

    /// Index of this block within its tile.
    #[inline]
    pub fn within_tile(self) -> u32 {
        self.0 % crate::BLOCKS_PER_TILE as u32
    }
}

/// Row-parallel arithmetic operations executed bit-serially with NOR
/// sequences inside a block (§2.3). Operands and destination are 32-bit
/// word columns; the operation applies to every row in the selected range
/// simultaneously — that is the PIM's parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// `dst ← a + b`
    Add,
    /// `dst ← a − b`
    Sub,
    /// `dst ← a × b`
    Mul,
    /// `dst ← a × b + dst` (fused accumulate; one extra add pass)
    Mac,
    /// `dst ← −a`
    Neg,
    /// `dst ← a` (column move inside the row)
    Mov,
}

impl AluOp {
    /// All ops, for exhaustive tests.
    pub const ALL: [AluOp; 6] =
        [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Mac, AluOp::Neg, AluOp::Mov];
}

/// One Wave-PIM instruction.
///
/// Rows are block-relative (0..1024); `offset`/`dst`/`a`/`b` are 32-bit
/// word columns within a row (0..32); `words` counts 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instr {
    /// Load `words` words at `(row, offset)` from memristor cells into the
    /// block's row buffer (the paper's `I₀` in Fig. 3).
    Read { block: BlockId, row: u16, offset: u8, words: u8 },
    /// Store from the row buffer into cells (the paper's `I₄`).
    Write { block: BlockId, row: u16, offset: u8, words: u8 },
    /// Replicate the row-buffer contents into every row of
    /// `dst_first..=dst_last` at `offset` — the constants broadcast of the
    /// Fig. 5 timeline ("Broadcast materials/constants").
    Broadcast { block: BlockId, dst_first: u16, dst_last: u16, offset: u8, words: u8 },
    /// Inter-block copy of `words` words routed by the interconnect (the
    /// memcpy instructions `I₁, I₂, I₃` of Fig. 3, fused: the simulator
    /// expands the route).
    Copy { src: BlockId, dst: BlockId, words: u16 },
    /// Row-parallel bit-serial arithmetic over rows
    /// `first_row..=last_row`: `dst ← a op b` in every selected row at
    /// once.
    Arith { block: BlockId, op: AluOp, first_row: u16, last_row: u16, dst: u8, a: u8, b: u8 },
    /// Look-up-table access (Fig. 4 / Algorithm 1). `row` is the
    /// chip-global row address holding the index at `offset_s`; the value
    /// fetched from `lut_block` lands at `offset_d` of the same row.
    Lut { row: u32, offset_s: u8, lut_block: u32, offset_d: u8 },
    /// DMA `bytes` from off-chip HBM2 into the block (batching, §6.1).
    LoadOffchip { block: BlockId, bytes: u32 },
    /// DMA `bytes` from the block out to HBM2.
    StoreOffchip { block: BlockId, bytes: u32 },
    /// Barrier: all preceding instructions complete before any following
    /// one issues.
    Sync,
}

impl Instr {
    /// The 7-bit opcode (bits 63:57 of the encoding).
    pub fn opcode(&self) -> u8 {
        match self {
            Instr::Read { .. } => 0x01,
            Instr::Write { .. } => 0x02,
            Instr::Broadcast { .. } => 0x03,
            Instr::Copy { .. } => 0x04,
            Instr::Arith { .. } => 0x05,
            Instr::Lut { .. } => 0x06,
            Instr::LoadOffchip { .. } => 0x07,
            Instr::StoreOffchip { .. } => 0x08,
            Instr::Sync => 0x00,
        }
    }

    /// Whether this instruction uses the inter-block interconnect.
    pub fn uses_interconnect(&self) -> bool {
        matches!(self, Instr::Copy { .. } | Instr::Lut { .. })
    }

    /// Whether this instruction crosses the chip boundary (HBM2 traffic).
    pub fn uses_offchip(&self) -> bool {
        matches!(self, Instr::LoadOffchip { .. } | Instr::StoreOffchip { .. })
    }

    /// This block-local instruction (`Read`, `Write`, `Broadcast`,
    /// `Arith`) on `on` instead of its own block; `None` for transfers,
    /// DMAs and barriers.
    pub fn on_block(&self, on: BlockId) -> Option<Instr> {
        let mut moved = *self;
        match &mut moved {
            Instr::Read { block, .. }
            | Instr::Write { block, .. }
            | Instr::Broadcast { block, .. }
            | Instr::Arith { block, .. } => *block = on,
            _ => return None,
        }
        Some(moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_tile_decomposition() {
        let b = BlockId(256 * 3 + 17);
        assert_eq!(b.tile(), 3);
        assert_eq!(b.within_tile(), 17);
        assert_eq!(BlockId(0).tile(), 0);
        assert_eq!(BlockId(255).tile(), 0);
        assert_eq!(BlockId(256).tile(), 1);
    }

    #[test]
    fn opcodes_are_unique() {
        let instrs = [
            Instr::Sync,
            Instr::Read { block: BlockId(0), row: 0, offset: 0, words: 1 },
            Instr::Write { block: BlockId(0), row: 0, offset: 0, words: 1 },
            Instr::Broadcast { block: BlockId(0), dst_first: 0, dst_last: 1, offset: 0, words: 1 },
            Instr::Copy { src: BlockId(0), dst: BlockId(1), words: 1 },
            Instr::Arith {
                block: BlockId(0),
                op: AluOp::Add,
                first_row: 0,
                last_row: 1,
                dst: 0,
                a: 1,
                b: 2,
            },
            Instr::Lut { row: 0, offset_s: 0, lut_block: 0, offset_d: 0 },
            Instr::LoadOffchip { block: BlockId(0), bytes: 4 },
            Instr::StoreOffchip { block: BlockId(0), bytes: 4 },
        ];
        let mut seen = std::collections::HashSet::new();
        for i in &instrs {
            assert!(seen.insert(i.opcode()), "duplicate opcode for {i:?}");
        }
    }

    #[test]
    fn interconnect_and_offchip_classification() {
        assert!(Instr::Copy { src: BlockId(0), dst: BlockId(1), words: 1 }.uses_interconnect());
        assert!(Instr::Lut { row: 0, offset_s: 0, lut_block: 0, offset_d: 0 }.uses_interconnect());
        assert!(!Instr::Sync.uses_interconnect());
        assert!(Instr::LoadOffchip { block: BlockId(0), bytes: 1 }.uses_offchip());
        assert!(!Instr::Read { block: BlockId(0), row: 0, offset: 0, words: 1 }.uses_offchip());
    }

    #[test]
    fn only_block_local_instructions_move_to_another_block() {
        let read = Instr::Read { block: BlockId(3), row: 7, offset: 2, words: 4 };
        assert_eq!(
            read.on_block(BlockId(9)),
            Some(Instr::Read { block: BlockId(9), row: 7, offset: 2, words: 4 })
        );
        assert_eq!(
            Instr::Copy { src: BlockId(0), dst: BlockId(1), words: 1 }.on_block(BlockId(9)),
            None
        );
        assert_eq!(Instr::Sync.on_block(BlockId(9)), None);
    }
}
