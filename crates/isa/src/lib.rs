//! The Wave-PIM instruction set architecture.
//!
//! The paper describes an *ISA-based* digital PIM (§4.1): the host sends
//! instructions, an on-chip decoder turns them into micro-sequences for the
//! memory blocks, and the central controller routes inter-block transfers
//! over the H-tree or bus. This crate defines that ISA:
//!
//! * [`instr::Instr`] — the instruction forms (read/write/broadcast/
//!   inter-block copy/row-parallel arithmetic/off-chip DMA/LUT),
//! * [`mod@encode`] — the 64-bit binary encoding, with the look-up-table
//!   instruction laid out exactly as Fig. 4 of the paper
//!   (`opcode[63:57] | RowID[56:31] | Offset_S[30:26] |
//!   LUT Block ID[25:5] | Offset_D[4:0]`),
//! * [`lut`] — the Algorithm 1 execution procedure that expands one LUT
//!   instruction into its two reads and one write,
//! * [`stream`] — instruction streams with class-wise statistics, the
//!   interchange format between the Wave-PIM compiler and the PIM
//!   simulator,
//! * [`program`] — binary program images (the form a host driver would
//!   DMA to the chip's instruction decoder).

pub mod disasm;
pub mod encode;
pub mod instr;
pub mod lut;
pub mod program;
pub mod stream;

pub use encode::{decode, encode, DecodeError};
pub use instr::{AluOp, BlockId, Instr};
pub use stream::{fnv1a, InstrStream, StreamStats, FNV_OFFSET};

/// Rows per memory block (the paper's 1K×1K crossbar, Table 3).
pub const BLOCK_ROWS: usize = 1024;
/// Bits per row.
pub const ROW_BITS: usize = 1024;
/// 32-bit words per row (`1024 / 32`; the paper's Fig. 4 commentary:
/// "memory block size is 1024×1024, and the data precision is 32-bit, so
/// only 5 bits are needed to define the offset").
pub const WORDS_PER_ROW: usize = ROW_BITS / 32;
/// Bytes of one memory block (1 Mib = 128 KiB).
pub const BLOCK_BYTES: usize = BLOCK_ROWS * ROW_BITS / 8;
/// Blocks per tile (Table 3: `num_block` = 256, 32 MB tiles).
pub const BLOCKS_PER_TILE: usize = 256;
