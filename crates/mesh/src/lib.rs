//! Structured hexahedral meshes for dG wave simulation.
//!
//! The Wave-PIM paper discretizes a cubic problem domain into uniform
//! hexahedral elements; *refinement level n* means `(2ⁿ)³` elements
//! (Table 1). This crate provides the mesh abstraction the solver and the
//! PIM mapper share:
//!
//! * [`HexMesh`] — a level-`n` structured mesh over a cube, with periodic or
//!   rigid-wall boundaries,
//! * [`Face`] — the six faces of an element (at most six neighbors, §6.1.2),
//! * [`geometry`] — the affine-element Jacobian constants of Table 1
//!   (`jacobian_det_domain`, `jacobian_inverse_domain`,
//!   `jacobian_det_boundary`, `jacobian_det_w_star`),
//! * slice decomposition along the y-axis, which is what the Flux batching
//!   scheme of §6.1.2 (Fig. 7) iterates over,
//! * [`partition`] — contiguous y-slice shards with halo face tables for
//!   the multi-chip cluster runtime (§6's "larger problem sizes" axis).

pub mod face;
pub mod geometry;
pub mod hexmesh;
pub mod partition;

pub use face::{Face, Neighbor};
pub use geometry::ElementGeometry;
pub use hexmesh::{Boundary, ElemId, HexMesh};
pub use partition::{slice_deal, HaloFace, Shard, SlicePartition};
