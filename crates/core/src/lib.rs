//! # Wave-PIM
//!
//! The primary contribution of the paper: mapping discontinuous-Galerkin
//! acoustic and elastic wave simulation onto an ISA-based digital
//! processing-in-memory architecture.
//!
//! * [`layout`] — the single-element block data layout of Fig. 5 and the
//!   row/column budget arithmetic that forces *expansion* for elastic,
//! * [`mapping`] — the mapping core every element mapping shares:
//!   placement, preload, data movement and per-element kernel
//!   compilation into `pim-isa` instruction streams executable on the
//!   `pim-sim` functional chip,
//! * [`compiler`] — the one-block acoustic kernels (`N`, Fig. 5),
//!   validated bit-for-bit against the native dG solver, with LUT-served
//!   impedance constants for heterogeneous media and on-PIM math streams,
//! * [`compiler_elastic`] — the four-block row-expanded elastic kernels
//!   (`E_r`, Fig. 9), with cross-block Volume exchange and the
//!   normal/tangential flux split,
//! * [`compiler_expanded`] — the four-block expanded acoustic kernels
//!   (`E_p`, Fig. 8): p-duplication, per-axis parallel Volume, div_v
//!   exchange,
//! * [`planner`] — capacity planning: naive / expansion / batching per
//!   (benchmark × chip size), reproducing Table 5,
//! * [`batching`] — the Fig. 6/7 slice schedules for oversized problems
//!   (cost model) and [`batched`] — their functional execution for any
//!   mapping: a model larger than the chip runs in resident batches with
//!   off-chip swaps,
//! * [`expansion`] — the Fig. 8/9 four-block element mappings,
//! * [`program_cache`] — compile-once kernel programs, lowered to one
//!   tape per stage variant and replayed by the batched and cluster
//!   runners instead of recompiling every stage,
//! * [`pipeline`] — the Fig. 10/13 stage-overlap model,
//! * [`mod@estimate`] — end-to-end time & energy for every (benchmark, chip,
//!   interconnect, pipelining) point of Figs. 11/12/14.

pub mod batched;
pub mod batching;
pub mod compiler;
pub mod compiler_elastic;
pub mod compiler_expanded;
pub mod estimate;
pub mod expansion;
pub mod layout;
pub mod mapping;
pub mod pipeline;
pub mod planner;
pub mod program_cache;
pub mod tracehooks;

pub use estimate::{estimate, Estimate, PimSetup};
pub use planner::{plan, Technique};
