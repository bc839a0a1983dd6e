//! Cycle-level digital processing-in-memory simulator.
//!
//! Models the Wave-PIM hardware of §4 of the paper:
//!
//! * [`params`] — circuit constants: Table 4 basic-operation energy/time,
//!   Table 3 component powers, calibrated bit-serial FP32 cycle counts and
//!   the 28 nm → 12 nm process-scaling factors,
//! * [`nor`] — MAGIC-style NOR netlists: the in-memory full adder, ripple
//!   adder and shift-add multiplier, executed gate-by-gate with cycle
//!   counting (§2.3: "arithmetic operations like addition and
//!   multiplication are achieved by performing NOR operations
//!   sequentially"),
//! * [`block`] — the memory block: 1K×1K memristor crossbar with row
//!   buffer and row-parallel bit-serial arithmetic, and [`OpCost`], the
//!   one price list of block ops and DMAs,
//! * [`interconnect`] — the H-tree and Bus inter-block networks of §4.2,
//!   with routing, conflict-aware scheduling and energy accounting,
//! * [`energy`] — the dynamic + static energy ledger,
//! * [`host`] — the ARM Cortex-A72 host model that sends instructions and
//!   precomputes sqrt/inverse for the look-up tables,
//! * [`chip`] — the assembled chip: tiles of 256 blocks, central
//!   controller, functional execution of `pim-isa` instruction streams,
//! * [`tape`] — a stream lowered once into a functional tape and a
//!   timing tape, the form the chip replays,
//! * [`link`] — the point-to-point inter-chip link the cluster runtime
//!   charges halo-exchange traffic against.

pub mod block;
pub mod chip;
pub mod energy;
pub mod host;
pub mod interconnect;
pub mod link;
pub mod nor;
pub mod params;
pub mod tape;

pub use block::{MemBlock, OpCost};
pub use chip::{ChipConfig, Diagnostic, ExecReport, Lowering, PimChip};
pub use energy::EnergyLedger;
pub use interconnect::{BusNetwork, HTreeNetwork, Interconnect, InterconnectKind, Transfer};
pub use link::InterChipLink;
pub use params::{ChipCapacity, ProcessNode};
pub use tape::{LowerError, Tape, Violation};
