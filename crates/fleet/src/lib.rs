//! # pim-fleet — simulation-as-a-service on a heterogeneous chip fleet
//!
//! The Wave-PIM stack below this crate runs *one* simulation well: the
//! compiler maps a mesh onto chips, the cluster runtime shards it, the
//! program cache makes replay cheap. This crate adds the layer a
//! facility actually operates: many independent simulation jobs —
//! mixed mesh levels, workloads, step budgets, optional deadlines —
//! multiplexed onto a fixed fleet of heterogeneous simulated PIM chips.
//!
//! The moving parts:
//!
//! * [`job`] — the [`job::JobSpec`] model: lifecycle states, a
//!   closed-form per-chip block-demand model over the weighted
//!   partition's slice deal, and the program/replay content keys that make cache
//!   affinity sound.
//! * [`placement`] — the deterministic placement engine: a virtual
//!   timeline, a score trading cache affinity against capacity balance
//!   and queue age, a capacity-reservation rule protecting big jobs,
//!   and a round-robin baseline to beat.
//! * [`scheduler`] — the [`scheduler::Fleet`] executor: plan-then-
//!   execute on the worker pool, with per-chip tickets serializing
//!   chip access, a pooled-runner program cache, and per-job results
//!   bit-identical to solo runs.
//!
//! Observability rides on `pim-metrics`: a fleet handed a registry
//! ([`scheduler::FleetConfig::metrics`]) publishes queue depth, admission
//! and placement outcomes, per-job wait/compile/run seconds, cache-hit
//! placements and jobs per hour there — scrapeable live by passing the
//! same registry to `pim_metrics::http::serve`. The jobs' chips are not
//! metered.

pub mod job;
pub mod placement;
pub mod scheduler;

pub use job::{JobId, JobSpec, JobState, Workload};
pub use placement::{plan, PlacementPolicy, PlannedJob, SchedulePlan};
pub use scheduler::{Fleet, FleetConfig, FleetReport, JobOutcome};
