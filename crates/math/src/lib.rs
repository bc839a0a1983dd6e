//! # pim-math — on-PIM fixed-point transcendentals
//!
//! Every RK stage of the seed system escaped to the host CPU for the
//! sqrt/inverse preprocessing that feeds the Riemann flux (`pim_sim::host`,
//! the "CPU Host: sqrt / inverse" lane of Fig. 13). This crate keeps
//! those operations inside the chip, TransPimLib-style:
//!
//! 1. **Range reduction**: operands are mapped onto a documented fixed
//!    range `[OPERAND_LO, OPERAND_HI]` by the affine index transform
//!    `idx = x·scale + bias` — two row-parallel ALU ops. Operands
//!    outside the range stay on the host (the placement model's range
//!    guard), so the table never aliases.
//! 2. **LUT seed**: one `Instr::Lut` (Fig. 4 / Algorithm 1) fetches a
//!    32-bit `1/√x` seed from a generated table that fills one reserved
//!    memory block (32K entries, f32-quantized — the "fixed-point" store
//!    of §4.3's 32-bit table words).
//! 3. **Newton refinement**: `ITERS_PER_STAGE` Newton–Raphson steps
//!    `r ← r·(3/2 − x/2·r²)` built from the existing bit-serial
//!    add/sub/mul ops refine the seed each stage. Both transcendentals
//!    ride the *same* iteration: `√x = x·r` and `1/x = r²`, so the two
//!    op lanes fuse into one row-parallel instruction pair per step.
//!
//! The [`placement`] module prices host offload against the on-PIM
//! sequence per op-site from the chip's timing/energy parameters and
//! chooses a [`MathPlacement`] per operation — the host wins at small
//! element counts (its per-element cost is tiny but linear), the PIM
//! sequence wins at scale (row-parallel: its latency is independent of
//! the element count).
//!
//! [`eval`] holds exact functional mirrors of the emitted sequences;
//! the property tests and the `math_bench` ULP study sweep them over
//! the full operand range against correctly rounded references.

pub mod eval;
pub mod placement;
pub mod seq;
pub mod table;
pub mod ulp;

pub use placement::{
    CostModel, MathConfig, MathDecision, MathMode, MathPlacement, Placement, SiteParams,
};
pub use seq::{MathSite, RecipDest, SqrtDest, ITERS_PER_STAGE};
pub use table::{OPERAND_HI, OPERAND_LO, TABLE_ENTRIES};
pub use ulp::{CLUSTER_MATH_BOUND, ULP_BOUND};
