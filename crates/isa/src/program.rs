//! Binary program images.
//!
//! The host "sends instructions" to the chip (§4.1); on a real system
//! they travel as a binary image. This module serializes instruction
//! streams to the 64-bit wire format of
//! [`crate::encode`](mod@crate::encode) with a small header, and
//! deserializes them back — the format a host driver would DMA to the
//! PIM's instruction decoder.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::encode::{decode, encode, DecodeError};
use crate::instr::Instr;
use crate::stream::InstrStream;

/// Magic number identifying a Wave-PIM program image ("WPIM").
pub const MAGIC: u32 = 0x5750_494D;
/// Current image format version.
pub const VERSION: u16 = 1;

/// Errors from [`load`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The image is shorter than its header or declared length.
    Truncated,
    /// Bad magic number.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16),
    /// An instruction word failed to decode.
    BadInstr { index: usize, source: DecodeError },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Truncated => write!(f, "program image is truncated"),
            ProgramError::BadMagic(m) => write!(f, "bad magic {m:#010x}"),
            ProgramError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            ProgramError::BadInstr { index, source } => {
                write!(f, "instruction {index} failed to decode: {source}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// Serializes a stream into a binary image:
/// `magic(u32) | version(u16) | reserved(u16) | count(u64) | words…`,
/// all little-endian.
pub fn save(stream: &InstrStream) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + 8 * stream.len());
    buf.put_u32_le(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(0);
    buf.put_u64_le(stream.len() as u64);
    for instr in stream.instrs() {
        buf.put_u64_le(encode(instr));
    }
    buf.freeze()
}

/// Deserializes a binary image back into a stream (statistics are
/// rebuilt from the decoded instructions).
pub fn load(mut image: Bytes) -> Result<InstrStream, ProgramError> {
    if image.len() < 16 {
        return Err(ProgramError::Truncated);
    }
    let magic = image.get_u32_le();
    if magic != MAGIC {
        return Err(ProgramError::BadMagic(magic));
    }
    let version = image.get_u16_le();
    if version != VERSION {
        return Err(ProgramError::BadVersion(version));
    }
    let _reserved = image.get_u16_le();
    let count = image.get_u64_le() as usize;
    if image.len() < count * 8 {
        return Err(ProgramError::Truncated);
    }
    let mut stream = InstrStream::new();
    for index in 0..count {
        let word = image.get_u64_le();
        let instr: Instr =
            decode(word).map_err(|source| ProgramError::BadInstr { index, source })?;
        stream.push(instr);
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{AluOp, BlockId};

    fn sample_stream() -> InstrStream {
        let mut s = InstrStream::new();
        s.push(Instr::Read { block: BlockId(3), row: 100, offset: 4, words: 2 });
        s.push(Instr::Copy { src: BlockId(3), dst: BlockId(7), words: 2 });
        s.push(Instr::Write { block: BlockId(7), row: 50, offset: 0, words: 2 });
        s.push(Instr::Arith {
            block: BlockId(7),
            op: AluOp::Mac,
            first_row: 0,
            last_row: 511,
            dst: 1,
            a: 2,
            b: 3,
        });
        s.push(Instr::Lut { row: 1234, offset_s: 5, lut_block: 42, offset_d: 9 });
        s.push(Instr::Sync);
        s
    }

    #[test]
    fn save_load_round_trip() {
        let original = sample_stream();
        let image = save(&original);
        assert_eq!(image.len(), 16 + 8 * original.len());
        let loaded = load(image).expect("valid image");
        assert_eq!(loaded.instrs(), original.instrs());
        // Statistics are rebuilt identically.
        assert_eq!(loaded.stats(), original.stats());
    }

    #[test]
    fn empty_stream_round_trips() {
        let image = save(&InstrStream::new());
        let loaded = load(image).expect("valid empty image");
        assert!(loaded.is_empty());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bad = BytesMut::new();
        bad.put_u32_le(0xDEAD_BEEF);
        bad.put_u16_le(VERSION);
        bad.put_u16_le(0);
        bad.put_u64_le(0);
        assert_eq!(load(bad.freeze()), Err(ProgramError::BadMagic(0xDEAD_BEEF)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bad = BytesMut::new();
        bad.put_u32_le(MAGIC);
        bad.put_u16_le(99);
        bad.put_u16_le(0);
        bad.put_u64_le(0);
        assert_eq!(load(bad.freeze()), Err(ProgramError::BadVersion(99)));
    }

    #[test]
    fn rejects_truncation() {
        let image = save(&sample_stream());
        let truncated = image.slice(0..image.len() - 4);
        assert_eq!(load(truncated), Err(ProgramError::Truncated));
        assert_eq!(load(Bytes::from_static(b"tiny")), Err(ProgramError::Truncated));
    }

    #[test]
    fn rejects_corrupt_instruction() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u16_le(0);
        buf.put_u64_le(1);
        buf.put_u64_le(0x7Fu64 << 57); // unknown opcode
        match load(buf.freeze()) {
            Err(ProgramError::BadInstr { index: 0, .. }) => {}
            other => panic!("expected BadInstr, got {other:?}"),
        }
    }

    #[test]
    fn error_messages_render() {
        assert!(ProgramError::Truncated.to_string().contains("truncated"));
        assert!(ProgramError::BadMagic(1).to_string().contains("magic"));
    }
}
