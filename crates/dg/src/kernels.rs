//! The three computational kernels of the wave simulation.
//!
//! The paper's single-element dataflow (Fig. 2) separates each time-step
//! stage into *Volume* (local derivatives), *Flux* (non-local interface
//! reconciliation) and *Integration* (temporal update). These are also the
//! three CUDA kernels of the paper's unfused GPU implementation (§7.2),
//! and the three instruction streams the PIM mapper compiles.
//!
//! Each module's whole-mesh `apply`/`stage` runs its kernel as a separate
//! pass: the reference sequence. The solver itself fuses the three into
//! one element pass per stage, over the same per-element functions.

pub mod flux;
pub mod integration;
pub mod volume;
