//! Inter-block interconnects: H-tree and Bus (§4.2, Fig. 3).
//!
//! The H-tree gives every tile a 4-ary switch tree over its 256 blocks
//! (64 + 16 + 4 + 1 = 85 switches, §4.2.2); transfers whose paths share
//! no switch proceed in parallel. The bus replaces all of that with one
//! central switch: lower static power, but "only one data path can be
//! enabled", so concurrent transfers serialize.
//!
//! Transfers between tiles route through the tiles' root switches and the
//! central controller, which is modeled as one shared chip-level resource.

use pim_isa::{BlockId, BLOCKS_PER_TILE};

use crate::params::{CLOCK_HZ, HOP_ENERGY_PER_WORD, LINK_BITS_PER_CYCLE};

/// Which interconnect a chip uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum InterconnectKind {
    HTree,
    Bus,
}

impl InterconnectKind {
    pub fn name(self) -> &'static str {
        match self {
            InterconnectKind::HTree => "H-tree",
            InterconnectKind::Bus => "Bus",
        }
    }
}

/// One inter-block data movement of `words` 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub src: BlockId,
    pub dst: BlockId,
    pub words: u32,
}

/// A switch (or the chip-level router) occupied by a routed transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// Switch `index` at `level` within `tile` (level 0 nearest the
    /// blocks).
    Switch { tile: u32, level: u8, index: u32 },
    /// The single chip-level router connecting tile roots.
    ChipRouter,
    /// The single bus switch of a tile.
    TileBus { tile: u32 },
}

/// Result of scheduling a batch of transfers that are ready at time 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// When the last transfer finishes (seconds).
    pub makespan: f64,
    /// Switch energy of all transfers (joules).
    pub energy: f64,
    /// Per-transfer completion times, in input order.
    pub finish_times: Vec<f64>,
}

/// Common behavior of the two interconnects.
pub trait Interconnect {
    /// The resources (switches) a transfer occupies, written into `out`
    /// (cleared first) in path order. Lowering reuses one scratch vector
    /// across a stream's transfers instead of allocating a fresh path
    /// per `Copy`/`Lut`.
    fn route_into(&self, src: BlockId, dst: BlockId, out: &mut Vec<Resource>);

    /// Path length of a transfer, without materializing the path.
    fn hops(&self, src: BlockId, dst: BlockId) -> usize;

    /// The resources (switches) a transfer occupies, in path order.
    fn route(&self, src: BlockId, dst: BlockId) -> Vec<Resource> {
        let mut out = Vec::new();
        self.route_into(src, dst, &mut out);
        out
    }

    /// Seconds a transfer occupies each switch on its path. Switches are
    /// cut-through: the payload streams through the whole path, so the
    /// occupancy is the serialization time of the payload on one link,
    /// independent of hop count (hop latency is a couple of cycles and is
    /// absorbed into the occupancy of the paper-scale payloads).
    fn duration(&self, transfer: &Transfer) -> f64 {
        let bits = transfer.words as u64 * 32;
        let cycles = bits.div_ceil(LINK_BITS_PER_CYCLE).max(1);
        cycles as f64 / CLOCK_HZ
    }

    /// Switch energy of one transfer: every word pays every hop.
    fn energy(&self, transfer: &Transfer) -> f64 {
        self.energy_with_hops(transfer, self.hops(transfer.src, transfer.dst))
    }

    /// [`Self::energy`] with the hop count already known (the hot path
    /// has just routed the transfer, so it passes the path length along
    /// rather than re-deriving the route).
    fn energy_with_hops(&self, transfer: &Transfer, hops: usize) -> f64 {
        let hops = hops.max(1) as f64;
        transfer.words as f64 * hops * HOP_ENERGY_PER_WORD
    }

    /// Greedy list-scheduling of a batch of transfers, honoring resource
    /// conflicts: a transfer starts when every switch on its path is free.
    fn schedule(&self, transfers: &[Transfer]) -> Schedule {
        use std::collections::HashMap;
        let mut free_at: HashMap<Resource, f64> = HashMap::new();
        let mut finish_times = Vec::with_capacity(transfers.len());
        let mut makespan = 0.0f64;
        let mut energy = 0.0;
        for t in transfers {
            let path = self.route(t.src, t.dst);
            let start =
                path.iter().map(|r| free_at.get(r).copied().unwrap_or(0.0)).fold(0.0f64, f64::max);
            let finish = start + self.duration(t);
            for r in path {
                free_at.insert(r, finish);
            }
            energy += self.energy(t);
            finish_times.push(finish);
            makespan = makespan.max(finish);
        }
        Schedule { makespan, energy, finish_times }
    }
}

/// The H-tree network: a `fanout`-ary switch tree per tile.
#[derive(Debug, Clone)]
pub struct HTreeNetwork {
    fanout: u32,
    levels: u8,
    /// `log2(fanout)`: every fanout that tiles 256 blocks into whole
    /// levels is a power of two, so walking up a level is a shift.
    shift: u32,
    /// First dense slot of each level (see [`Self::switch_slot`]).
    level_base: [u32; 8],
}

impl HTreeNetwork {
    /// The paper's default: fanout 4 over 256 blocks → 4 levels.
    pub fn new() -> Self {
        Self::with_fanout(4)
    }

    /// Custom fanout ("the number of children of a tree node does not have
    /// to be 4; it can be higher when customizing PIM systems for
    /// larger-scale models", §4.2.1).
    ///
    /// # Panics
    /// Panics unless the fanout divides 256 into whole levels (2, 4, 16).
    pub fn with_fanout(fanout: u32) -> Self {
        let mut remaining = BLOCKS_PER_TILE as u32;
        let mut levels = 0u8;
        while remaining > 1 {
            // A fanout of 1 divides everything and would never finish.
            assert!(
                fanout > 1 && remaining.is_multiple_of(fanout),
                "fanout {fanout} does not evenly tile {BLOCKS_PER_TILE} blocks"
            );
            remaining /= fanout;
            levels += 1;
        }
        let mut level_base = [0; 8];
        let mut nodes = BLOCKS_PER_TILE as u32;
        for l in 1..levels as usize {
            nodes /= fanout;
            level_base[l] = level_base[l - 1] + nodes;
        }
        Self { fanout, levels, shift: fanout.trailing_zeros(), level_base }
    }

    /// Switch levels per tile.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Total switches in one tile: `Σ_{l=1..levels} 256 / fanout^l`.
    pub fn switches_per_tile(&self) -> u32 {
        let mut total = 0;
        let mut nodes = BLOCKS_PER_TILE as u32;
        for _ in 0..self.levels {
            nodes /= self.fanout;
            total += nodes;
        }
        total
    }

    /// The level-`l` switch above a block (level 0 = nearest switches).
    fn switch_above(&self, within_tile: u32, level: u8) -> u32 {
        within_tile >> (self.shift * (level as u32 + 1))
    }

    /// Dense within-tile slot of the level-`level` switch `index`:
    /// switches are numbered level by level from the leaves, so the slots
    /// `0..switches_per_tile()` enumerate every switch of one tile
    /// exactly once. Lets a simulator keep per-switch state in a flat
    /// array instead of a hash map.
    pub fn switch_slot(&self, level: u8, index: u32) -> u32 {
        debug_assert!(level < self.levels);
        debug_assert!(index < BLOCKS_PER_TILE as u32 >> (self.shift * (level as u32 + 1)));
        self.level_base[level as usize] + index
    }
}

impl Default for HTreeNetwork {
    fn default() -> Self {
        Self::new()
    }
}

impl HTreeNetwork {
    /// Level of the lowest common ancestor of two blocks in one tile.
    fn lca_level(&self, sw: u32, dw: u32) -> u8 {
        let mut lca_level = 0u8;
        while self.switch_above(sw, lca_level) != self.switch_above(dw, lca_level) {
            lca_level += 1;
        }
        lca_level
    }
}

impl Interconnect for HTreeNetwork {
    fn route_into(&self, src: BlockId, dst: BlockId, path: &mut Vec<Resource>) {
        path.clear();
        if src == dst {
            return;
        }
        let (st, dt) = (src.tile(), dst.tile());
        if st == dt {
            // Climb to the lowest common ancestor, then descend: the path
            // occupies each switch from leaf to LCA on both sides (the LCA
            // once).
            let (sw, dw) = (src.within_tile(), dst.within_tile());
            let lca_level = self.lca_level(sw, dw);
            for l in 0..=lca_level {
                path.push(Resource::Switch { tile: st, level: l, index: self.switch_above(sw, l) });
            }
            for l in (0..lca_level).rev() {
                path.push(Resource::Switch { tile: dt, level: l, index: self.switch_above(dw, l) });
            }
        } else {
            // Up the whole source tree, across the chip router, down the
            // whole destination tree.
            let sw = src.within_tile();
            for l in 0..self.levels {
                path.push(Resource::Switch { tile: st, level: l, index: self.switch_above(sw, l) });
            }
            path.push(Resource::ChipRouter);
            let dw = dst.within_tile();
            for l in (0..self.levels).rev() {
                path.push(Resource::Switch { tile: dt, level: l, index: self.switch_above(dw, l) });
            }
        }
    }

    fn hops(&self, src: BlockId, dst: BlockId) -> usize {
        if src == dst {
            return 0;
        }
        let (st, dt) = (src.tile(), dst.tile());
        if st == dt {
            // `lca_level + 1` switches up, `lca_level` down.
            2 * self.lca_level(src.within_tile(), dst.within_tile()) as usize + 1
        } else {
            // Both full trees plus the chip router.
            2 * self.levels as usize + 1
        }
    }
}

/// The bus network: one switch per tile, chip router between tiles.
#[derive(Debug, Clone, Default)]
pub struct BusNetwork;

impl BusNetwork {
    pub fn new() -> Self {
        Self
    }
}

impl Interconnect for BusNetwork {
    fn route_into(&self, src: BlockId, dst: BlockId, path: &mut Vec<Resource>) {
        path.clear();
        if src == dst {
            return;
        }
        let (st, dt) = (src.tile(), dst.tile());
        if st == dt {
            path.push(Resource::TileBus { tile: st });
        } else {
            path.extend([
                Resource::TileBus { tile: st },
                Resource::ChipRouter,
                Resource::TileBus { tile: dt },
            ]);
        }
    }

    fn hops(&self, src: BlockId, dst: BlockId) -> usize {
        if src == dst {
            0
        } else if src.tile() == dst.tile() {
            1
        } else {
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: u32, dst: u32, words: u32) -> Transfer {
        Transfer { src: BlockId(src), dst: BlockId(dst), words }
    }

    #[test]
    fn htree_has_85_switches_per_tile() {
        // §4.2.2: "in a 256-block memory tile, 64 + 16 + 4 + 1 = 85 H-tree
        // node switches have to be used."
        let h = HTreeNetwork::new();
        assert_eq!(h.switches_per_tile(), 85);
        assert_eq!(h.levels(), 4);
    }

    #[test]
    fn switch_slots_enumerate_every_switch_once() {
        for fanout in [2u32, 4, 16] {
            let h = HTreeNetwork::with_fanout(fanout);
            let mut seen = vec![false; h.switches_per_tile() as usize];
            let mut nodes = BLOCKS_PER_TILE as u32;
            for level in 0..h.levels() {
                nodes /= fanout;
                for index in 0..nodes {
                    let slot = h.switch_slot(level, index) as usize;
                    assert!(!seen[slot], "fanout {fanout}: slot {slot} assigned twice");
                    seen[slot] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "fanout {fanout}: unassigned slots");
        }
    }

    #[test]
    fn htree_alternative_fanouts() {
        assert_eq!(HTreeNetwork::with_fanout(2).levels(), 8);
        assert_eq!(HTreeNetwork::with_fanout(16).levels(), 2);
        assert_eq!(HTreeNetwork::with_fanout(16).switches_per_tile(), 17);
    }

    #[test]
    #[should_panic(expected = "does not evenly tile")]
    fn htree_rejects_bad_fanout() {
        let _ = HTreeNetwork::with_fanout(3);
    }

    #[test]
    #[should_panic(expected = "does not evenly tile")]
    fn htree_rejects_fanout_one() {
        let _ = HTreeNetwork::with_fanout(1);
    }

    #[test]
    fn route_between_siblings_uses_one_switch() {
        // Blocks 0 and 1 share their S0 switch: the whole path is that one
        // switch (Fig. 3: "the data will only pass through one S0 H-tree
        // switch").
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(1));
        assert_eq!(path, vec![Resource::Switch { tile: 0, level: 0, index: 0 }]);
    }

    #[test]
    fn route_across_quads_climbs_and_descends() {
        // Fig. 3's example: Block 0 → Block 5 passes S0(src quad), S1,
        // S0(dst quad) — three switches for fanout 4.
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(5));
        assert_eq!(
            path,
            vec![
                Resource::Switch { tile: 0, level: 0, index: 0 },
                Resource::Switch { tile: 0, level: 1, index: 0 },
                Resource::Switch { tile: 0, level: 0, index: 1 },
            ]
        );
    }

    #[test]
    fn route_is_symmetric_in_length() {
        let h = HTreeNetwork::new();
        for (a, b) in [(0u32, 255u32), (3, 200), (17, 18), (64, 128)] {
            assert_eq!(
                h.route(BlockId(a), BlockId(b)).len(),
                h.route(BlockId(b), BlockId(a)).len()
            );
        }
    }

    #[test]
    fn self_route_is_empty() {
        assert!(HTreeNetwork::new().route(BlockId(7), BlockId(7)).is_empty());
        assert!(BusNetwork::new().route(BlockId(7), BlockId(7)).is_empty());
    }

    #[test]
    fn cross_tile_route_uses_chip_router() {
        let h = HTreeNetwork::new();
        let path = h.route(BlockId(0), BlockId(256));
        assert!(path.contains(&Resource::ChipRouter));
        // 4 levels up + router + 4 levels down.
        assert_eq!(path.len(), 9);
        let b = BusNetwork::new();
        assert_eq!(b.route(BlockId(0), BlockId(256)).len(), 3);
    }

    #[test]
    fn disjoint_htree_transfers_run_in_parallel_but_bus_serializes() {
        // Fig. 3's bus example: Block 0 → 2 and Block 5 → 7 overlap on the
        // H-tree (disjoint S0 switches) but serialize on the single bus
        // switch.
        let h = HTreeNetwork::new();
        let b = BusNetwork::new();
        let batch = [t(0, 2, 32), t(5, 7, 32)];
        let hs = h.schedule(&batch);
        let bs = b.schedule(&batch);
        let single_h = h.schedule(&batch[..1]);
        let single_b = b.schedule(&batch[..1]);
        assert!(
            (hs.makespan - single_h.makespan).abs() < 1e-15,
            "H-tree must overlap disjoint transfers"
        );
        assert!((bs.makespan - 2.0 * single_b.makespan).abs() < 1e-15, "bus must serialize");
    }

    #[test]
    fn conflicting_htree_transfers_serialize() {
        // Both transfers need S0 switch 0.
        let h = HTreeNetwork::new();
        let batch = [t(0, 1, 32), t(2, 3, 32)];
        let s = h.schedule(&batch);
        let single = h.schedule(&batch[..1]);
        assert!((s.makespan - 2.0 * single.makespan).abs() < 1e-15);
    }

    #[test]
    fn duration_scales_with_words_not_hops() {
        // Cut-through switching: occupancy depends on payload size, not
        // path length (the path length costs *energy*, below).
        let h = HTreeNetwork::new();
        let near = h.duration(&t(0, 1, 32));
        let far = h.duration(&t(0, 255, 32));
        assert_eq!(near, far);
        let big = h.duration(&t(0, 1, 320));
        let ratio = big / near;
        assert!((9.5..10.5).contains(&ratio), "10× data ≈ 10× time, got {ratio}");
    }

    #[test]
    fn htree_energy_exceeds_bus_energy_per_transfer() {
        // More switch hops → more energy per transfer on the H-tree for
        // long intra-tile routes (the flip side of its parallelism).
        let h = HTreeNetwork::new();
        let b = BusNetwork::new();
        let far = t(0, 255, 32);
        assert!(h.energy(&far) > b.energy(&far));
    }

    #[test]
    fn schedule_reports_per_transfer_finish_times() {
        let b = BusNetwork::new();
        let batch = [t(0, 1, 32), t(2, 3, 32), t(4, 5, 32)];
        let s = b.schedule(&batch);
        assert_eq!(s.finish_times.len(), 3);
        assert!(s.finish_times.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.finish_times[2], s.makespan);
    }
}
