//! # pim-fleet — planning many simulation jobs onto a heterogeneous chip fleet
//!
//! The Wave-PIM stack below this crate runs *one* simulation well: the
//! compiler maps a mesh onto chips, the cluster runtime shards it, the
//! program cache makes replay cheap. This crate plans the layer above:
//! many independent simulation jobs — mixed mesh levels, workloads,
//! step budgets, optional deadlines — placed onto a fixed fleet of
//! heterogeneous simulated PIM chips.
//!
//! The moving parts:
//!
//! * [`job`] — the [`job::JobSpec`] model: a closed-form per-chip
//!   block-demand model over the weighted partition's slice deal, and
//!   the program key that names a job's compiled program by the spec
//!   fields it is built from.
//! * [`placement`] — the deterministic placement engine: a virtual
//!   timeline, a score trading cache affinity against capacity balance
//!   and queue age, a capacity-reservation rule protecting big jobs,
//!   and a round-robin baseline to beat.
//!
//! The plan is the fleet's whole output: cache hits, per-chip job order
//! and virtual makespan are pure functions of (queue, fleet, policy).

pub mod job;
pub mod placement;

pub use job::{JobSpec, Workload};
pub use placement::{plan, PlacementPolicy, PlannedJob, SchedulePlan};
