//! Hardware constants of the Wave-PIM design.
//!
//! Everything in this module is traceable to the paper:
//!
//! * Table 4 — basic memristor operation energy and time (originally from
//!   FloatPIM),
//! * Table 3 — per-component power of the 2 GB chip (originally from
//!   NVSim/DUAL + PrimeTime),
//! * Table 2 — chip-level figures (900 MHz clock, 900 GB/s HBM2, four
//!   capacities 512 MB / 2 GB / 8 GB / 16 GB),
//! * §7.3 — 28 nm → 12 nm scaling: ×3.81 performance, ×2.0 energy.
//!
//! The bit-serial FP32 cycle counts are *calibrated*: the paper quotes the
//! arithmetic latency only through its throughput figure (Table 2 lists
//! ≈7.25 TFLOPS for the 2 GB chip with 16 Mi parallel rows under a 50/50
//! add/mul mix). With `T_NOR = 1.1 ns`, that pins the average FP op at
//! 2,104 NOR cycles; we split it 1,400 (add) / 2,808 (mul), the ~1:2
//! ratio of the underlying MAGIC netlists (see [`crate::nor`]).
//!
//! These constants price *simulated hardware* cost only. The functional
//! model ([`crate::MemBlock`]) stores and computes cell values in `f64`
//! so PIM runs can be compared against the native dG solver at 1e-12 —
//! every op is still charged as the paper's 32-bit bit-serial sequence,
//! and neither the stored word width nor the host-side memory layout
//! (sparse row tiles, see [`crate::block`]) enters any cycle, joule,
//! or row-activation figure here.

use serde::{Deserialize, Serialize};

// ---- Table 4: basic operation energy and time ----

/// Energy to SET one memristor cell (`E_set`), joules.
pub const E_SET: f64 = 23.8e-15;
/// Energy to RESET one memristor cell (`E_reset`), joules.
pub const E_RESET: f64 = 0.32e-15;
/// Energy of one NOR cell operation (`E_NOR`), joules.
pub const E_NOR: f64 = 0.29e-15;
/// Energy of one row search/read (`E_search`), joules.
pub const E_SEARCH: f64 = 5.34e-12;
/// Latency of one NOR step (`T_NOR`), seconds.
pub const T_NOR: f64 = 1.1e-9;
/// Latency of one search/read (`T_search`), seconds.
pub const T_SEARCH: f64 = 1.5e-9;

// ---- Calibrated bit-serial FP32 latencies (NOR cycles) ----

/// NOR cycles for one row-parallel FP32 addition.
pub const FP32_ADD_CYCLES: u64 = 1_400;
/// NOR cycles for one row-parallel FP32 multiplication.
pub const FP32_MUL_CYCLES: u64 = 2_808;
/// NOR cycles for a fused multiply-accumulate (mul + short add chain).
pub const FP32_MAC_CYCLES: u64 = FP32_MUL_CYCLES + FP32_ADD_CYCLES;
/// NOR cycles to negate (flip sign bit, copy through).
pub const FP32_NEG_CYCLES: u64 = 33;
/// NOR cycles to move a 32-bit word to another column (2 NOR per bit:
/// invert, invert back).
pub const FP32_MOV_CYCLES: u64 = 64;

/// Active cell-columns toggled per row by one FP32 op — used to convert
/// cycle counts into `E_NOR` energy. A bit-serial FP op touches the 32
/// operand bits plus carry/scratch columns each cycle; FloatPIM-style
/// mappings keep ~2 active cells per NOR step.
pub const CELLS_PER_NOR_STEP: f64 = 2.0;

// ---- Table 2 chip-level figures ----

/// Controller / interconnect clock (Table 2: 900 MHz).
pub const CLOCK_HZ: f64 = 900.0e6;
/// Off-chip HBM2 bandwidth, bytes/second (Table 2: 900 GB/s).
pub const OFFCHIP_BANDWIDTH: f64 = 900.0e9;
/// Off-chip HBM2 DRAM power, watts (§7.1, from [34]).
pub const OFFCHIP_POWER: f64 = 36.91;

// ---- Inter-chip link (cluster runtime) ----
//
// The paper evaluates single chips; the cluster runtime extends the §6
// scalability axis across devices. The link figures model a SerDes-style
// chip-to-chip interconnect: far slower and costlier per byte than the
// on-package HBM2 path above, which is what makes halo locality matter.

/// Inter-chip link bandwidth, bytes/second (64 GB/s, a PCIe 5.0 x16-class
/// or small NVLink-class point-to-point link).
pub const INTERCHIP_BANDWIDTH: f64 = 64.0e9;
/// Per-message inter-chip latency, seconds (500 ns: SerDes + protocol,
/// an order above DRAM access).
pub const INTERCHIP_LATENCY: f64 = 500.0e-9;
/// Inter-chip transfer energy, joules per byte (~10 pJ/bit SerDes class).
pub const INTERCHIP_ENERGY_PER_BYTE: f64 = 80.0e-12;

// ---- Table 3: component powers (2 GB chip) ----

/// One memory block: crossbar 6.14 mW + sense amps 2.38 mW + decoder
/// 0.31 mW.
pub const BLOCK_POWER: f64 = 8.83e-3;
/// Tile memory array power as reported (256 blocks; Table 3 lists the
/// managed/duty-cycled figure rather than 256 × block).
pub const TILE_MEMORY_POWER: f64 = 1.57;
/// All 85 H-tree switches of one 256-block tile.
pub const TILE_HTREE_POWER: f64 = 107.13e-3;
/// The single bus switch of one tile.
pub const TILE_BUS_POWER: f64 = 17.2e-3;
/// One 32 MB tile, H-tree variant (Table 3: 1.68 W).
pub const TILE_POWER_HTREE: f64 = 1.68;
/// One 32 MB tile, bus variant (Table 3: 1.59 W).
pub const TILE_POWER_BUS: f64 = 1.59;
/// The central controller (Table 3: 6.41 W).
pub const CONTROLLER_POWER: f64 = 6.41;
/// The ARM Cortex-A72 host (Table 3: 3.06 W).
pub const HOST_POWER: f64 = 3.06;

/// Bytes per memory tile (256 blocks × 128 KiB = 32 MiB).
pub const TILE_BYTES: u64 = 32 * 1024 * 1024;

/// Interconnect link width in bits per controller cycle. Calibrated so
/// the naive acoustic mapping's inter-element share of a stage lands on
/// the paper's Fig. 14 measurement (21.62% H-tree / 58.41% bus without
/// expansion): a 4-word interface transfer then occupies a switch for
/// ⌈128/12⌉ = 11 cycles, i.e. the instruction-driven switching of §4.2
/// (one memcpy instruction per hop) costs roughly ten controller cycles
/// per row-buffer move.
pub const LINK_BITS_PER_CYCLE: u64 = 12;

/// Energy per 32-bit word per switch hop, joules. Derived from the
/// per-switch power at full utilization: 1.26 mW / (900 MHz × 4 words per
/// cycle) ≈ 0.35 pJ per word-hop.
pub const HOP_ENERGY_PER_WORD: f64 = 0.35e-12;

// ---- Capacities and process scaling ----

/// The four evaluated PIM capacities (Tables 2/5, Figs. 11/12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipCapacity {
    Mb512,
    Gb2,
    Gb8,
    Gb16,
}

impl ChipCapacity {
    /// All four, smallest first.
    pub const ALL: [ChipCapacity; 4] =
        [ChipCapacity::Mb512, ChipCapacity::Gb2, ChipCapacity::Gb8, ChipCapacity::Gb16];

    /// Capacity in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            ChipCapacity::Mb512 => 512 << 20,
            ChipCapacity::Gb2 => 2 << 30,
            ChipCapacity::Gb8 => 8 << 30,
            ChipCapacity::Gb16 => 16 << 30,
        }
    }

    /// Number of 32 MB tiles.
    pub fn num_tiles(self) -> u64 {
        self.bytes() / TILE_BYTES
    }

    /// Number of 128 KiB memory blocks.
    pub fn num_blocks(self) -> u64 {
        self.num_tiles() * 256
    }

    /// Maximum row-level parallelism: every row of every block can compute
    /// simultaneously (§7.1: "2GB/1,024b = 16M").
    pub fn max_parallel_rows(self) -> u64 {
        self.bytes() * 8 / 1024
    }

    /// Name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            ChipCapacity::Mb512 => "512MB",
            ChipCapacity::Gb2 => "2GB",
            ChipCapacity::Gb8 => "8GB",
            ChipCapacity::Gb16 => "16GB",
        }
    }

    /// Static power of the whole PIM system (tiles + controller + host),
    /// watts, for the chosen interconnect, with every tile active.
    pub fn static_power(self, interconnect: crate::InterconnectKind) -> f64 {
        self.static_power_with_active(interconnect, self.num_tiles())
    }

    /// Static power with only `active_tiles` tiles in use: idle tiles
    /// drop to sleep-mode retention at [`IDLE_TILE_POWER_FRACTION`] of
    /// their active power (the resource-under-utilization effect behind
    /// §7.4's capacity/energy trade-off).
    pub fn static_power_with_active(
        self,
        interconnect: crate::InterconnectKind,
        active_tiles: u64,
    ) -> f64 {
        let tile = match interconnect {
            crate::InterconnectKind::HTree => TILE_POWER_HTREE,
            crate::InterconnectKind::Bus => TILE_POWER_BUS,
        };
        let total = self.num_tiles();
        let active = active_tiles.min(total);
        let idle = total - active;
        (active as f64 + idle as f64 * IDLE_TILE_POWER_FRACTION) * tile
            + CONTROLLER_POWER
            + HOST_POWER
    }
}

/// Fraction of a tile's power drawn in sleep-mode retention when no
/// element is mapped to it.
pub const IDLE_TILE_POWER_FRACTION: f64 = 0.5;

/// Process node of the evaluation: the PIM numbers are simulated at 28 nm;
/// §7.3 scales them to 12 nm to compare fairly with the 12/16 nm GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProcessNode {
    Nm28,
    Nm12,
}

impl ProcessNode {
    /// Performance multiplier relative to 28 nm (§7.3: 3.81×).
    pub fn perf_scale(self) -> f64 {
        match self {
            ProcessNode::Nm28 => 1.0,
            ProcessNode::Nm12 => 3.81,
        }
    }

    /// Energy divisor relative to 28 nm (§7.3: 2.0×).
    pub fn energy_scale(self) -> f64 {
        match self {
            ProcessNode::Nm28 => 1.0,
            ProcessNode::Nm12 => 2.0,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ProcessNode::Nm28 => "28nm",
            ProcessNode::Nm12 => "12nm",
        }
    }
}

/// NOR cycles for one row-parallel ALU op.
pub fn alu_cycles(op: pim_isa::AluOp) -> u64 {
    match op {
        pim_isa::AluOp::Add | pim_isa::AluOp::Sub => FP32_ADD_CYCLES,
        pim_isa::AluOp::Mul => FP32_MUL_CYCLES,
        pim_isa::AluOp::Mac => FP32_MAC_CYCLES,
        pim_isa::AluOp::Neg => FP32_NEG_CYCLES,
        pim_isa::AluOp::Mov => FP32_MOV_CYCLES,
    }
}

/// Wall-clock seconds of `cycles` NOR steps.
pub fn nor_seconds(cycles: u64) -> f64 {
    cycles as f64 * T_NOR
}

/// Dynamic energy of a row-parallel ALU op over `rows` rows: every row
/// runs the same bit-serial sequence simultaneously.
pub fn alu_energy(op: pim_isa::AluOp, rows: u64) -> f64 {
    alu_cycles(op) as f64 * CELLS_PER_NOR_STEP * E_NOR * rows as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_and_tiles() {
        assert_eq!(ChipCapacity::Mb512.num_tiles(), 16);
        assert_eq!(ChipCapacity::Gb2.num_tiles(), 64);
        assert_eq!(ChipCapacity::Gb8.num_tiles(), 256);
        assert_eq!(ChipCapacity::Gb16.num_tiles(), 512);
        assert_eq!(ChipCapacity::Gb2.num_blocks(), 16384);
    }

    #[test]
    fn parallelism_matches_paper_figure() {
        // §7.1: "2GB/1,024b = 16M" parallel operations.
        assert_eq!(ChipCapacity::Gb2.max_parallel_rows(), 16 * 1024 * 1024);
    }

    #[test]
    fn calibrated_throughput_matches_table_2() {
        // 16 Mi rows, 50/50 add/mul mix: the 2 GB chip must land at the
        // paper's ≈7.25 TFLOPS.
        let rows = ChipCapacity::Gb2.max_parallel_rows() as f64;
        let avg_cycles = (FP32_ADD_CYCLES + FP32_MUL_CYCLES) as f64 / 2.0;
        let tflops = rows / (avg_cycles * T_NOR) / 1e12;
        assert!((tflops - 7.25).abs() < 0.15, "throughput {tflops} TFLOPS");
    }

    #[test]
    fn static_power_matches_table_3_total() {
        // Table 3: 2 GB chip totals 115.02 W (H-tree) / 109.25 W (bus).
        // Our roll-up gives 64×1.68 + 6.41 + 3.06 = 116.99 W; the paper's
        // printed total is 115.02 W — its own component rows do not sum to
        // its total either, so we accept a ±2.5 W band.
        let htree = ChipCapacity::Gb2.static_power(crate::InterconnectKind::HTree);
        let bus = ChipCapacity::Gb2.static_power(crate::InterconnectKind::Bus);
        assert!((htree - 115.02).abs() < 2.5, "H-tree power {htree}");
        assert!((bus - 109.25).abs() < 2.5, "bus power {bus}");
        assert!(htree > bus, "H-tree must burn more static power than the bus");
    }

    #[test]
    fn block_power_decomposition() {
        // Table 3: 6.14 + 2.38 + 0.31 = 8.83 mW.
        assert!((BLOCK_POWER - (6.14e-3 + 2.38e-3 + 0.31e-3)).abs() < 1e-9);
    }

    #[test]
    fn mul_is_about_twice_add() {
        let ratio = FP32_MUL_CYCLES as f64 / FP32_ADD_CYCLES as f64;
        assert!((1.8..2.4).contains(&ratio), "{ratio}");
    }

    #[test]
    fn process_scaling_matches_section_7_3() {
        assert_eq!(ProcessNode::Nm12.perf_scale(), 3.81);
        assert_eq!(ProcessNode::Nm12.energy_scale(), 2.0);
        assert_eq!(ProcessNode::Nm28.perf_scale(), 1.0);
    }

    #[test]
    fn alu_energy_scales_with_rows() {
        let one = alu_energy(pim_isa::AluOp::Add, 1);
        let many = alu_energy(pim_isa::AluOp::Add, 512);
        assert!((many / one - 512.0).abs() < 1e-9);
        assert!(alu_energy(pim_isa::AluOp::Mul, 1) > one);
    }
}
