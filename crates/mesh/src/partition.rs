//! Multi-chip domain decomposition: contiguous y-slice shards.
//!
//! The paper evaluates single chips and leaves "larger or smaller problem
//! sizes" (§6) as the open scaling axis. The cluster runtime closes it by
//! splitting the mesh into per-chip shards. The decomposition mirrors the
//! batching order of §6.1: whole y-slices, contiguous, so x/z fluxes stay
//! shard-local and only the two y-faces of each shard cross a chip
//! boundary.
//!
//! A [`SlicePartition`] records, per shard:
//!
//! * the **resident** elements (owned and advanced by that shard's chip),
//! * the **halo face table** — every face whose owner is resident but
//!   whose neighbor lives on another shard (the traffic that must cross
//!   the inter-chip link before each flux evaluation),
//! * the **ghost** elements — the de-duplicated remote neighbors, i.e.
//!   the receive set of the halo exchange.
//!
//! On a [`Boundary::Periodic`] mesh the first and last shards are
//! neighbors through the wrap; on a [`Boundary::Wall`] mesh the outer
//! faces have no neighbor and produce no halo entries (the wall ghost is
//! synthesized locally by the flux kernels).

use crate::face::{Face, Neighbor};
use crate::hexmesh::HexMesh;
use crate::ElemId;

/// One face of the halo: `owner` is resident in the shard holding this
/// table, `neighbor` is resident in `neighbor_shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloFace {
    /// The resident element whose flux needs remote data.
    pub owner: ElemId,
    /// The face of `owner` that crosses the shard boundary.
    pub face: Face,
    /// The remote element on the other side of the face.
    pub neighbor: ElemId,
    /// The shard that owns `neighbor`.
    pub neighbor_shard: usize,
}

/// One chip's share of the mesh.
#[derive(Debug, Clone)]
pub struct Shard {
    /// This shard's index in the partition.
    pub index: usize,
    /// Contiguous range of y-slices `[slice_begin, slice_end)`.
    pub slice_begin: usize,
    /// One past the last owned y-slice.
    pub slice_end: usize,
    /// Elements owned by this shard, in ascending id order.
    pub elements: Vec<ElemId>,
    /// Every resident face whose neighbor is on another shard.
    pub halo: Vec<HaloFace>,
    /// De-duplicated remote neighbors (the receive set), ascending ids.
    pub ghosts: Vec<ElemId>,
}

impl Shard {
    /// Residents that appear as some other shard's ghost — the send set
    /// of the halo exchange, ascending ids.
    pub fn boundary_elements(&self, partition: &SlicePartition) -> Vec<ElemId> {
        let mut out: Vec<ElemId> = Vec::new();
        for other in partition.shards() {
            if other.index == self.index {
                continue;
            }
            out.extend(other.ghosts.iter().filter(|g| partition.shard_of(**g) == self.index));
        }
        out.sort_by_key(|e| e.index());
        out.dedup();
        out
    }
}

/// A partition of a [`HexMesh`] into contiguous y-slice shards.
#[derive(Debug, Clone)]
pub struct SlicePartition {
    num_elements: usize,
    shards: Vec<Shard>,
    shard_of: Vec<usize>,
}

/// The largest-remainder deal of `slices` y-slices over `weights`: every
/// shard starts with one slice, the rest are dealt by largest remainder
/// of `extra·w/W` (ties broken toward lower index), so the counts are
/// deterministic and sum exactly to `slices`. This is the deal
/// [`SlicePartition::new_weighted`] builds its shards from.
///
/// # Panics
/// Panics if `weights` is empty or longer than `slices`.
pub fn slice_deal(slices: usize, weights: &[u64]) -> Vec<usize> {
    assert!(!weights.is_empty() && weights.len() <= slices);
    let total_weight: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let extra = (slices - weights.len()) as u128;
    let mut counts: Vec<usize> = Vec::with_capacity(weights.len());
    let mut remainders: Vec<(usize, u128)> = Vec::with_capacity(weights.len());
    for (i, &w) in weights.iter().enumerate() {
        let scaled = extra * u128::from(w);
        counts.push(1 + (scaled / total_weight) as usize);
        remainders.push((i, scaled % total_weight));
    }
    let dealt: usize = counts.iter().sum();
    remainders.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(shard, _) in remainders.iter().take(slices - dealt) {
        counts[shard] += 1;
    }
    counts
}

impl SlicePartition {
    /// Splits `mesh` into `num_shards` contiguous groups of y-slices.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero or does not divide the slice count
    /// (`2^level`), matching the batching constraint of §6.1.
    pub fn new(mesh: &HexMesh, num_shards: usize) -> Self {
        assert!(num_shards > 0, "at least one shard required");
        let slices = mesh.num_slices();
        assert!(
            num_shards <= slices && slices.is_multiple_of(num_shards),
            "{num_shards} shards must evenly divide {slices} y-slices"
        );
        Self::from_slice_counts(mesh, &vec![slices / num_shards; num_shards])
    }

    /// Splits `mesh` into one shard per weight, dealing the `2^level`
    /// y-slices proportionally to `weights` (largest-remainder rounding,
    /// every shard gets at least one slice). Weighting by
    /// `ChipCapacity::num_blocks()` lets a heterogeneous cluster give the
    /// big chip proportionally more resident elements instead of leaving
    /// its extra crossbar blocks idle.
    ///
    /// Equal weights with a dividing shard count reduce exactly to
    /// [`SlicePartition::new`].
    ///
    /// # Panics
    /// Panics if `weights` is empty, any weight is zero, or there are more
    /// shards than slices.
    pub fn new_weighted(mesh: &HexMesh, weights: &[u64]) -> Self {
        let num_shards = weights.len();
        assert!(num_shards > 0, "at least one shard required");
        assert!(weights.iter().all(|&w| w > 0), "shard weights must be positive: {weights:?}");
        let slices = mesh.num_slices();
        assert!(
            num_shards <= slices,
            "{num_shards} shards need at least as many y-slices, got {slices}"
        );
        let counts = slice_deal(slices, weights);
        debug_assert_eq!(counts.iter().sum::<usize>(), slices);
        Self::from_slice_counts(mesh, &counts)
    }

    /// Builds the shard tables for an explicit per-shard slice count
    /// (already validated to sum to `mesh.num_slices()`, every entry ≥ 1).
    fn from_slice_counts(mesh: &HexMesh, counts: &[usize]) -> Self {
        let num_shards = counts.len();
        let mut shard_of = vec![0usize; mesh.num_elements()];
        let mut shards = Vec::with_capacity(num_shards);
        let mut next_slice = 0usize;
        for (s, &count) in counts.iter().enumerate() {
            let slice_begin = next_slice;
            let slice_end = slice_begin + count;
            next_slice = slice_end;
            let mut elements: Vec<ElemId> = Vec::with_capacity(count * mesh.elements_per_slice());
            for slice in slice_begin..slice_end {
                elements.extend(mesh.slice_elements(slice));
            }
            elements.sort_by_key(|e| e.index());
            for e in &elements {
                shard_of[e.index()] = s;
            }
            shards.push(Shard {
                index: s,
                slice_begin,
                slice_end,
                elements,
                halo: Vec::new(),
                ghosts: Vec::new(),
            });
        }

        // Halo face tables: walk every resident face and keep the ones
        // whose neighbor lives elsewhere. Only the two y-faces can cross
        // a slice-group boundary, but scanning all six keeps the table
        // correct by construction rather than by argument.
        for (s, shard) in shards.iter_mut().enumerate() {
            let mut halo = Vec::new();
            for &e in &shard.elements {
                for face in Face::ALL {
                    if let Neighbor::Element(nb) = mesh.neighbor(e, face) {
                        let owner_shard = shard_of[nb.index()];
                        if owner_shard != s {
                            halo.push(HaloFace {
                                owner: e,
                                face,
                                neighbor: nb,
                                neighbor_shard: owner_shard,
                            });
                        }
                    }
                }
            }
            let mut ghosts: Vec<ElemId> = halo.iter().map(|h| h.neighbor).collect();
            ghosts.sort_by_key(|e| e.index());
            ghosts.dedup();
            shard.halo = halo;
            shard.ghosts = ghosts;
        }

        Self { num_elements: mesh.num_elements(), shards, shard_of }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Elements in the partitioned mesh.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard.
    pub fn shard(&self, index: usize) -> &Shard {
        &self.shards[index]
    }

    /// The shard owning an element.
    pub fn shard_of(&self, elem: ElemId) -> usize {
        self.shard_of[elem.index()]
    }

    /// Total halo faces summed over all shards (each inter-shard face
    /// counted once per side).
    pub fn total_halo_faces(&self) -> usize {
        self.shards.iter().map(|s| s.halo.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hexmesh::Boundary;

    #[test]
    fn single_shard_has_no_halo() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let p = SlicePartition::new(&mesh, 1);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.shard(0).elements.len(), mesh.num_elements());
        assert!(p.shard(0).halo.is_empty());
        assert!(p.shard(0).ghosts.is_empty());
    }

    #[test]
    fn periodic_two_shards_exchange_both_boundary_slices() {
        // Two shards on a periodic mesh touch through the seam *and* the
        // wrap: each shard's ghosts are both boundary slices of the other.
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let p = SlicePartition::new(&mesh, 2);
        let per_slice = mesh.elements_per_slice();
        for s in p.shards() {
            assert_eq!(s.ghosts.len(), 2 * per_slice, "shard {}", s.index);
            assert_eq!(s.halo.len(), 2 * per_slice, "shard {}", s.index);
            for h in &s.halo {
                assert_eq!(h.neighbor_shard, 1 - s.index);
            }
        }
    }

    #[test]
    fn wall_mesh_outer_faces_produce_no_halo() {
        // With wall boundaries there is no wrap: the first and last shard
        // see remote neighbors on one side only.
        let mesh = HexMesh::refinement_level(2, Boundary::Wall);
        let p = SlicePartition::new(&mesh, 4);
        let per_slice = mesh.elements_per_slice();
        assert_eq!(p.shard(0).ghosts.len(), per_slice);
        assert_eq!(p.shard(3).ghosts.len(), per_slice);
        assert_eq!(p.shard(1).ghosts.len(), 2 * per_slice);
        assert_eq!(p.shard(2).ghosts.len(), 2 * per_slice);
    }

    #[test]
    fn send_set_mirrors_receive_set() {
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let p = SlicePartition::new(&mesh, 4);
        for s in p.shards() {
            let sends = s.boundary_elements(&p);
            // Every sent element is resident here and appears as a ghost
            // of at least one other shard.
            for e in &sends {
                assert_eq!(p.shard_of(*e), s.index);
                assert!(p.shards().iter().any(|o| o.index != s.index && o.ghosts.contains(e)));
            }
            // Symmetric slicing: the send set is the two boundary slices.
            assert_eq!(sends.len(), 2 * mesh.elements_per_slice());
        }
    }

    #[test]
    #[should_panic(expected = "evenly divide")]
    fn rejects_non_dividing_shard_count() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let _ = SlicePartition::new(&mesh, 3);
    }

    #[test]
    fn equal_weights_reduce_to_the_even_deal() {
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let even = SlicePartition::new(&mesh, 4);
        let weighted = SlicePartition::new_weighted(&mesh, &[7, 7, 7, 7]);
        for (a, b) in even.shards().iter().zip(weighted.shards()) {
            assert_eq!((a.slice_begin, a.slice_end), (b.slice_begin, b.slice_end));
            assert_eq!(a.elements, b.elements);
        }
    }

    #[test]
    fn capacity_weights_deal_proportional_slices() {
        // Level 3 = 8 slices over a 2 GB (16384 blocks) + 8 GB (65536
        // blocks) pair: quotas 8·(1/5)=1.6 and 8·(4/5)=6.4 round to [2, 6]
        // by largest remainder with the one-slice floor.
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let p = SlicePartition::new_weighted(&mesh, &[16384, 65536]);
        assert_eq!(p.shard(0).slice_end - p.shard(0).slice_begin, 2);
        assert_eq!(p.shard(1).slice_end - p.shard(1).slice_begin, 6);
        // Slices stay contiguous and every element is owned exactly once.
        assert_eq!(p.shard(0).slice_begin, 0);
        assert_eq!(p.shard(1).slice_begin, p.shard(0).slice_end);
        let owned: usize = p.shards().iter().map(|s| s.elements.len()).sum();
        assert_eq!(owned, mesh.num_elements());
    }

    #[test]
    fn extreme_weights_still_give_every_shard_a_slice() {
        let mesh = HexMesh::refinement_level(2, Boundary::Wall);
        let p = SlicePartition::new_weighted(&mesh, &[1, 1_000_000, 1]);
        for s in p.shards() {
            assert!(s.slice_end > s.slice_begin, "shard {} got no slices", s.index);
        }
        assert_eq!(p.shard(1).slice_end - p.shard(1).slice_begin, 2);
    }

    #[test]
    fn weighted_non_dividing_counts_are_allowed() {
        // 3 shards over 8 slices is rejected by `new` but fine weighted:
        // equal weights give [3, 3, 2] (largest remainder, low index wins).
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let p = SlicePartition::new_weighted(&mesh, &[1, 1, 1]);
        let counts: Vec<usize> = p.shards().iter().map(|s| s.slice_end - s.slice_begin).collect();
        assert_eq!(counts, vec![3, 3, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rejects_zero_weight() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let _ = SlicePartition::new_weighted(&mesh, &[1, 0]);
    }
}
