//! Nodal discontinuous Galerkin (dG) solver for the acoustic and elastic
//! wave equations.
//!
//! This crate is the *workload* of the Wave-PIM paper (§2.1–2.2): the same
//! three kernels the paper maps onto PIM —
//!
//! * **Volume** ([`kernels::volume`]) — local derivatives (`grad p`,
//!   `div v`, `grad v`, `div S`) via tensor-product differentiation,
//! * **Flux** ([`kernels::flux`]) — reconciliation of the discontinuous
//!   interface values with a central or Riemann (upwind) numerical flux,
//! * **Integration** ([`kernels::integration`]) — the five-stage
//!   low-storage Runge-Kutta update ("there are five integration steps in
//!   each time-step", §2.2), whose temporary registers are the paper's
//!   *auxiliaries*.
//!
//! The [`Solver`] runs the three kernels as the three phases of one
//! rayon-parallel element pass per LSRK stage: each element's Volume and
//! Flux fill a per-worker record that its Integration consumes at once,
//! bit-identical to running the three kernel modules one after another.
//! It serves three purposes: it is the functional reference the PIM execution is validated
//! against, the operation-count source for the paper's Table 6, and the
//! workload description the GPU baseline model consumes.

pub mod analytic;
pub mod dispersion;
pub mod energy;
pub mod integrator;
pub mod kernels;
pub mod material;
pub mod opcount;
pub mod physics;
pub mod receivers;
pub mod solver;
pub mod source;
pub mod sponge;
pub mod state;

pub use integrator::Lsrk5;
pub use material::{AcousticMaterial, ElasticMaterial};
pub use physics::{Acoustic, Elastic, FluxKind, Physics};
pub use solver::Solver;
pub use state::State;
