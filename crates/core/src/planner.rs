//! Capacity planning: which mapping technique fits a benchmark onto a
//! chip (paper §6 and Table 5).
//!
//! Table 5's legend: `N` — naive one-block-per-element; `E_p` — expansion
//! to increase parallelism (§6.2.1, four blocks per acoustic element /
//! four more per elastic group); `E_r` — expansion forced by the limited
//! row size (§5.1, elastic only); `B` — batching (§6.1) when the problem
//! exceeds the chip.

use pim_sim::ChipCapacity;
use serde::{Deserialize, Serialize};
use wavesim_dg::opcount::{Benchmark, PhysicsKind};

use crate::layout::ElasticLayout;

/// The chosen mapping technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Technique {
    /// Row-size expansion (`E_r`): the elastic element's nine variables
    /// cannot share one block's 32-word rows.
    pub row_expansion: bool,
    /// Parallelism expansion (`E_p`): one variable group per block, four
    /// blocks per (row-expanded) element.
    pub parallel_expansion: bool,
    /// Number of batches (`B` when > 1): ceil(blocks needed / blocks
    /// available).
    pub batches: u32,
}

impl Technique {
    /// Blocks each element occupies under this technique.
    pub fn blocks_per_element(&self) -> u64 {
        let base: u64 = if self.row_expansion { ElasticLayout::EXPANSION_BLOCKS as u64 } else { 1 };
        if self.parallel_expansion {
            base * 4
        } else {
            base
        }
    }

    /// The Table 5 label for this technique.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.parallel_expansion {
            parts.push("E_p");
        }
        if self.row_expansion {
            parts.push("E_r");
        }
        if self.batches > 1 {
            parts.push("B");
        }
        if parts.is_empty() {
            "N".to_string()
        } else {
            parts.join("&")
        }
    }
}

/// Plans a benchmark onto a chip capacity, reproducing Table 5.
pub fn plan(benchmark: Benchmark, capacity: ChipCapacity) -> Technique {
    let row_expansion = matches!(benchmark.physics(), PhysicsKind::Elastic);
    plan_generic(benchmark.num_elements(), row_expansion, capacity.num_blocks())
}

/// The planning rule for arbitrary problem sizes — the scalability story
/// of §6 ("capable to support larger or smaller problem sizes at the
/// highest possible performance") beyond the six paper benchmarks.
pub fn plan_generic(elements: u64, row_expansion: bool, available_blocks: u64) -> Technique {
    let base_blocks_per_element: u64 =
        if row_expansion { ElasticLayout::EXPANSION_BLOCKS as u64 } else { 1 };
    let needed = elements * base_blocks_per_element;

    if available_blocks >= 4 * needed {
        // Room to quadruple the per-element parallelism (§6.2.1).
        Technique { row_expansion, parallel_expansion: true, batches: 1 }
    } else if available_blocks >= needed {
        Technique { row_expansion, parallel_expansion: false, batches: 1 }
    } else {
        let batches = needed.div_ceil(available_blocks) as u32;
        Technique { row_expansion, parallel_expansion: false, batches }
    }
}

/// The full Table 5: every benchmark × every capacity.
pub fn table5() -> Vec<(Benchmark, ChipCapacity, Technique)> {
    let mut rows = Vec::new();
    for b in [
        Benchmark::Acoustic4,
        Benchmark::ElasticCentral4,
        Benchmark::Acoustic5,
        Benchmark::ElasticCentral5,
    ] {
        for c in ChipCapacity::ALL {
            rows.push((b, c, plan(b, c)));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_sim::ChipCapacity::*;
    use wavesim_dg::opcount::Benchmark::*;

    fn label(b: Benchmark, c: ChipCapacity) -> String {
        plan(b, c).label()
    }

    #[test]
    fn table_5_acoustic_row() {
        // Paper Table 5, Acoustic_4 row: N, E_p, E_p, E_p.
        assert_eq!(label(Acoustic4, Mb512), "N");
        assert_eq!(label(Acoustic4, Gb2), "E_p");
        assert_eq!(label(Acoustic4, Gb8), "E_p");
        assert_eq!(label(Acoustic4, Gb16), "E_p");
    }

    #[test]
    fn table_5_elastic_4_row() {
        // Paper Table 5, Elastic_4 row: E_r&B, E_r, E_p&E_r, E_p&E_r.
        assert_eq!(label(ElasticCentral4, Mb512), "E_r&B");
        assert_eq!(label(ElasticCentral4, Gb2), "E_r");
        assert_eq!(label(ElasticCentral4, Gb8), "E_p&E_r");
        assert_eq!(label(ElasticCentral4, Gb16), "E_p&E_r");
    }

    #[test]
    fn table_5_acoustic_5_row() {
        // Paper Table 5, Acoustic_5 row: B, B, N, E_p.
        assert_eq!(label(Acoustic5, Mb512), "B");
        assert_eq!(label(Acoustic5, Gb2), "B");
        assert_eq!(label(Acoustic5, Gb8), "N");
        assert_eq!(label(Acoustic5, Gb16), "E_p");
    }

    #[test]
    fn table_5_elastic_5_row() {
        // Paper Table 5, Elastic_5 row: E_r&B, E_r&B, E_r&B, E_r.
        assert_eq!(label(ElasticCentral5, Mb512), "E_r&B");
        assert_eq!(label(ElasticCentral5, Gb2), "E_r&B");
        assert_eq!(label(ElasticCentral5, Gb8), "E_r&B");
        assert_eq!(label(ElasticCentral5, Gb16), "E_r");
    }

    #[test]
    fn batch_counts_match_the_paper_narrative() {
        // §7.3: "the inputs have to be divided into 32 batches for the
        // refinement-level 5 of elastic wave simulation" on 512 MB.
        assert_eq!(plan(ElasticRiemann5, Mb512).batches, 32);
        // §6.1.2: level-5 acoustic on a 2 GB chip holds half the elements.
        assert_eq!(plan(Acoustic5, Gb2).batches, 2);
        assert_eq!(plan(ElasticCentral5, Gb2).batches, 8);
        assert_eq!(plan(ElasticCentral5, Gb8).batches, 2);
    }

    #[test]
    fn planned_blocks_never_exceed_capacity_per_batch() {
        for b in Benchmark::ALL {
            for c in ChipCapacity::ALL {
                let t = plan(b, c);
                let per_batch_elements = b.num_elements().div_ceil(t.batches as u64);
                assert!(
                    per_batch_elements * t.blocks_per_element() <= c.num_blocks(),
                    "{} on {}: {} elements × {} blocks > {}",
                    b.name(),
                    c.name(),
                    per_batch_elements,
                    t.blocks_per_element(),
                    c.num_blocks()
                );
            }
        }
    }

    #[test]
    fn flux_variants_share_the_same_plan() {
        // Table 5 lists Elastic_4/Elastic_5 once: central and Riemann
        // have identical footprints.
        for c in ChipCapacity::ALL {
            assert_eq!(plan(ElasticCentral4, c), plan(ElasticRiemann4, c));
            assert_eq!(plan(ElasticCentral5, c), plan(ElasticRiemann5, c));
        }
    }

    #[test]
    fn labels_render_all_combinations() {
        assert_eq!(
            Technique { row_expansion: true, parallel_expansion: true, batches: 1 }.label(),
            "E_p&E_r"
        );
        assert_eq!(
            Technique { row_expansion: true, parallel_expansion: false, batches: 3 }.label(),
            "E_r&B"
        );
        assert_eq!(
            Technique { row_expansion: false, parallel_expansion: false, batches: 1 }.label(),
            "N"
        );
    }
}
